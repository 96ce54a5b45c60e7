import dataclasses

import numpy as np
import pytest

from chebdyn import ffield, verify
from chebdyn.cli import main
from chebdyn.factor import FactorPattern, factor_pattern_actual


def _corrupt_build(monkeypatch, corrupt):
    build = verify.build_graph
    monkeypatch.setattr(verify, "build_graph",
                        lambda *args, **kwargs: corrupt(build(*args, **kwargs)))


def _check(rep, prefix):
    found = [(ok, detail) for name, ok, detail in rep.checks
             if name.startswith(prefix)]
    assert len(found) == 1, rep.checks
    return found[0]


@pytest.mark.parametrize("order", [52, 27])
def test_orbit_check_fails_on_one_changed_period(monkeypatch, order):
    # G(3, 53, 1): 52 is a periodic class (period 6), 27 a tree class, whose
    # periods summarize does not compare
    def corrupt(g):
        # the class of that order, then its fifth vertex
        k, = np.flatnonzero(g.class_order == order)
        per = g.per.copy()
        per[np.flatnonzero(g.class_id == k)[4]] += 1
        return dataclasses.replace(g, per=per)

    _corrupt_build(monkeypatch, corrupt)
    rep = verify.verify_instance(3, 53, 1)
    ok, detail = _check(rep, "orbit statistics")
    assert not ok and f"divisor class {order}:" in detail
    ok, detail = _check(rep, "summary rows")
    assert ok == (order == 27)
    if order == 52:
        assert detail == "mixed periods in class 52"


def test_verify_reports_an_order_outside_its_branch(monkeypatch, capsys):
    def corrupt(g):
        class_order = g.class_order.copy()
        class_order[class_order == 13] = 7
        return dataclasses.replace(g, class_order=class_order)

    _corrupt_build(monkeypatch, corrupt)
    code = main(["verify", "--ell", "3", "--p", "53", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert ("[FAIL] summary rows: enumerated == predicted: divisor class "
            "of order 7 does not divide") in out


def test_factor_check_names_the_differing_t(monkeypatch):
    # one wrong prediction at t = 17 of G(3, 53, 1): a double root where
    # t is not +-2 cannot be the actual pattern
    predicted = verify.factor_patterns_predicted
    wrong = FactorPattern.from_entries([(1, 1, 1), (1, 2, 1)])

    def patched(ell, p, n, ts):
        return (wrong if t == 17 else pat
                for t, pat in zip(ts, predicted(ell, p, n, ts)))

    monkeypatch.setattr(verify, "factor_patterns_predicted", patched)
    rep = verify.verify_instance(3, 53, 1)
    ok, detail = _check(rep, "factor patterns at level 1")
    actual = factor_pattern_actual(3, 53, 1, 17)
    assert actual != wrong
    assert not ok and detail == f"t=17: {wrong.entries} vs {actual.entries}"
    assert [name for name, ok, _ in rep.checks if not ok] == [
        "factor patterns at level 1: predicted == actual for all t in "
        "[0, 53)"]


def test_factor_check_proves_ell_and_p_once(monkeypatch):
    # the closed form of every t comes from one pass that proves (ell, p)
    # once: fewer primality tests in the whole verify than there are t
    # (each t proved ell and p again before, 2 p tests in all)
    calls = []
    real = ffield.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(ffield, "is_prime", counted)
    assert verify.verify_instance(3, 1009, 1).ok
    assert 0 < len(calls) < 1009


def test_pattern_level_steps_down_to_the_degree_cap(monkeypatch):
    # with the cap at 8, G(2, 5, 4) checks its patterns at level 3, the
    # largest m with 2^m <= 8
    monkeypatch.setattr(verify, "DEGREE_CAP", 8)
    rep = verify.verify_instance(2, 5, 4)
    assert rep.ok
    ok, _ = _check(rep, "factor patterns at level 3: ")
    assert ok


def test_summary_check_names_the_first_differing_class(monkeypatch):
    # two rows of G(3, 53, 1) changed: the detail names the lower
    # (divisor, branch) of the two, with both sides' rows
    summarize = verify.summarize
    changed = []

    def patched(g):
        s = summarize(g)
        rows = list(s.rows)
        for i in (5, 2):
            rows[i] = dataclasses.replace(rows[i], weight=rows[i].weight + 1)
            changed.append((s.rows[i], rows[i]))
        return dataclasses.replace(s, rows=tuple(rows))

    monkeypatch.setattr(verify, "summarize", patched)
    rep = verify.verify_instance(3, 53, 1)
    ok, detail = _check(rep, "summary rows")
    want, got = min(changed, key=lambda pair: verify._row_key(pair[0]))
    assert not ok and detail == (
        f"first differing class {verify._row_key(want)}: enumerated {got}, "
        f"predicted {want}")
