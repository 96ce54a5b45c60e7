import random

import pytest
from sympy import nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_list

from chebdyn import factor, ffield, polys
from chebdyn.cheb import cheb_coeffs
from chebdyn.factor import (DecompReport, FactorPattern,
                            all_iterates_irreducible, classify_t,
                            decompose_prime, factor_pattern_actual,
                            factor_pattern_predicted, factor_patterns_actual,
                            find_irreducibility_witness, verify_reciprocity)
from poly_reference import eval_at


def test_pattern_type():
    pat = FactorPattern.from_entries([(1, 1, 2), (2, 1, 1), (1, 1, 1)])
    assert pat.entries == ((1, 1, 3), (2, 1, 1))
    assert pat.total == 5
    assert not pat.all_linear()
    assert pat.squarefree()


def test_actual_examples():
    assert factor_pattern_actual(3, 5, 1, 2).entries == ((1, 1, 1), (1, 2, 1))
    assert factor_pattern_actual(2, 13, 1, 105).entries == ((1, 1, 2),)
    assert factor_pattern_actual(2, 3, 2, 105).entries == ((4, 1, 1),)


def test_actual_cap():
    with pytest.raises(ValueError):
        factor_pattern_actual(2, 5, 13, 0)


# the instances of the verify sweep: odd p <= 31, p^n <= 2^12, ell in
# {2, 3, 5, 7} and ell^n <= 256
SWEEP_INSTANCES = [(ell, p, n) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                   for n in range(1, 13) if p ** n <= 1 << 12
                   for ell in (2, 3, 5, 7) if ell != p and ell ** n <= 256]


def test_stacked_patterns_equal_one_t_patterns():
    # every t in [0, p) in one stack, against each t alone (one row,
    # shift 0)
    assert len(SWEEP_INSTANCES) == 97
    for ell, p, n in SWEEP_INSTANCES:
        got = list(factor_patterns_actual(ell, p, n, range(p)))
        want = [factor_pattern_actual(ell, p, n, t) for t in range(p)]
        assert got == want, (ell, p, n)


@pytest.mark.parametrize("p", (1000003, 100000007))
def test_stacked_patterns_at_large_p(p):
    # degree 9, hundreds of rows, so the stack's products run on the
    # rfft; at 1000003 the residues go whole, at 100000007 in limbs
    ts = random.Random(p).sample(range(p), 300) + [0, 2, p - 2]
    got = list(factor_patterns_actual(3, p, 2, ts))
    assert got == [factor_pattern_actual(3, p, 2, t) for t in ts]


def test_stacked_patterns_in_small_chunks(monkeypatch):
    # chunks of two t, in the order given, repeats and t outside [0, p)
    # included, the special t (+-2, not squarefree) among them
    ts = [5, 2, 5 - 53, 51, 0, 1, 2 + 53, 30]
    want = [factor_pattern_actual(3, 53, 2, t) for t in ts]
    monkeypatch.setattr(factor, "STACK_CELLS", 2 * 9)
    assert list(factor_patterns_actual(3, 53, 2, ts)) == want
    assert want[0] == want[2] and want[1] == want[6] != want[0]


def test_stacked_patterns_refuse_before_the_first():
    with pytest.raises(ValueError):
        factor_patterns_actual(3, 3, 1, range(3))
    with pytest.raises(ValueError):
        factor_patterns_actual(2, 5, 13, range(5))


def test_classify_examples():
    c = classify_t(2, 13, 105)
    assert (c.tbar, c.rho, c.branch) == (1, 1, "D1")
    c = classify_t(2, 3, 105)
    assert (c.tbar, c.rho) == (0, 2)
    c = classify_t(3, 53, 2)
    assert c.rho == 0 and c.is_special
    c = classify_t(7, 5, -2)
    assert c.rho == 0 and c.is_special


def test_predicted_examples():
    # irreducible for every n when rho = v > 0
    assert factor_pattern_predicted(2, 3, 4, 105).entries == ((16, 1, 1),)
    assert factor_pattern_predicted(3, 53, 1, 2).entries == \
        ((1, 1, 1), (1, 2, 1))
    assert factor_pattern_predicted(2, 13, 2, 105).entries == ((2, 1, 2),)


def test_prediction_equals_actual_small_sweep():
    for ell in (2, 3, 5):
        for p in (3, 5, 7, 11, 13):
            if p == ell:
                continue
            for n in (1, 2, 3):
                if ell ** n > 130:
                    continue
                for t in range(p):
                    pr = factor_pattern_predicted(ell, p, n, t)
                    ac = factor_pattern_actual(ell, p, n, t)
                    assert pr == ac, (ell, p, n, t, pr.entries, ac.entries)


def test_prediction_ell7_exercises_mu3():
    # p = +-2, +-3 mod 7 gives mu = 3, a shape the smaller sweeps never hit
    from chebdyn.predict import structure_params
    assert structure_params(7, 3, 1).mu == 3
    for p in (3, 5, 13, 17):
        for n in (1, 2):
            for t in range(p):
                pr = factor_pattern_predicted(7, p, n, t)
                ac = factor_pattern_actual(7, p, n, t)
                assert pr == ac, (7, p, n, t)


def test_reducible_iff_root_for_odd_ell():
    # T_ell^n - t reducible mod p  <=>  T_ell - t has a root mod p
    for ell in (3, 5):
        for p in (7, 11, 13):
            co = cheb_coeffs(ell, p)
            for t in range(p):
                has_root = any(eval_at(co, x, p) == t
                               for x in range(p))
                for n in (2, 3):
                    pat = factor_pattern_actual(ell, p, n, t)
                    reducible = pat.entries != ((ell ** n, 1, 1),)
                    assert reducible == has_root, (ell, p, n, t)


def test_multiplicity_localization():
    for ell in (2, 3, 5):
        for p in (5, 7, 11):
            if p == ell:
                continue
            for t in range(p):
                for n in (1, 2):
                    pat = factor_pattern_actual(ell, p, n, t)
                    if not pat.squarefree():
                        assert t in (2 % p, (-2) % p), (ell, p, n, t)


def test_all_iterates_irreducible():
    assert all_iterates_irreducible(2, 3, 105)
    assert all_iterates_irreducible(2, 3, 0)
    assert not all_iterates_irreducible(3, 53, 2)
    # spot check: condition really delivers irreducibility at depth
    assert factor_pattern_actual(2, 3, 6, 105).entries == ((64, 1, 1),)


def test_find_witness():
    # 105 = 0 mod 3 and 0 sits at maximal height 2 = v in G(2,3,1)
    assert find_irreducibility_witness(2, 105) == 3
    assert find_irreducibility_witness(2, 0) == 3


def test_decompose_105_tower():
    rep = decompose_prime(2, 105, 13, 3)
    assert isinstance(rep, DecompReport)
    assert rep.witness == 3
    assert rep.ramified_excluded == (2, 103, 107)
    assert rep.levels[0].primes == ((1, 2),)
    assert rep.levels[0].splits_completely and not rep.levels[0].inert
    assert rep.levels[1].primes == ((2, 2),)
    assert rep.levels[2].primes == ((4, 2),)
    for lv in rep.levels:
        assert sum(d * c for d, c in lv.primes) == 2 ** lv.level


def test_decompose_inert_cases():
    for p in (3, 5, 11):
        rep = decompose_prime(2, 105, p, 4)
        for lv in rep.levels:
            assert lv.inert and lv.primes == ((2 ** lv.level, 1),)


def test_decompose_refusals():
    with pytest.raises(ValueError):
        decompose_prime(2, 105, 103, 2)  # ramified
    with pytest.raises(ValueError):
        decompose_prime(2, 105, 2, 2)    # p = ell
    with pytest.raises(ValueError):
        decompose_prime(2, 105, 13, 2, witness=7)  # 7 does not certify


def _record_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


# t = 2 and -2, 0 (special when ell = 2), preperiodic and periodic t, on
# fields where n = 5 runs past v
CALL_COUNT_CASES = ((2, 13, 2), (2, 13, -2), (2, 13, 0), (2, 13, 105),
                    (3, 53, 17), (3, 53, 2), (5, 11, 3))


@pytest.mark.parametrize("ell,p,t", CALL_COUNT_CASES)
def test_a_closed_form_call_proves_ell_and_p_once(ell, p, t, monkeypatch):
    # with the field and mu cached, only the domain check proves primes:
    # once for ell and once for p, however the case analysis runs
    factor_pattern_predicted(ell, p, 5, t)
    calls = _record_calls(monkeypatch, ffield, "is_prime")
    factor_pattern_predicted(ell, p, 5, t)
    assert calls == [(ell,), (p,)]
    calls.clear()
    all_iterates_irreducible(ell, p, t)
    assert calls == [(ell,), (p,)]


@pytest.mark.parametrize("ell,p,n", ((2, 13, 3), (2, 29, 2), (3, 53, 2),
                                     (5, 11, 2), (7, 29, 1)))
def test_predicted_patterns_prove_ell_and_p_once(ell, p, n, monkeypatch):
    # every t in one call: ell and p proved once, the case analysis run
    # once per class key (rho, branch, and t itself where it is special),
    # and each pattern that of t alone
    want = [factor_pattern_predicted(ell, p, n, t) for t in range(p)]
    keys = {(c.rho, c.branch, c.tbar if c.is_special else -1)
            for c in map(lambda t: classify_t(ell, p, t), range(p))}
    primes = _record_calls(monkeypatch, ffield, "is_prime")
    cases = _record_calls(monkeypatch, factor, "_predicted")
    got = list(factor.factor_patterns_predicted(ell, p, n, range(p)))
    assert got == want
    assert primes == [(ell,), (p,)]
    assert len(cases) == len(keys) < p


def test_decompose_classifies_t_once(monkeypatch):
    calls = _record_calls(monkeypatch, factor, "classify_t")
    rep = decompose_prime(2, 105, 13, 5, witness=3)
    assert len(rep.levels) == 5
    # the witness is classified at its own prime
    assert sorted(calls) == [(2, 3, 105), (2, 13, 105)]


@pytest.mark.parametrize("ell,p,n", ((3, 53, 2), (2, 13, 3)))
def test_squarefree_loop_runs_where_the_gcd_test_fails(ell, p, n,
                                                      monkeypatch):
    # T_ell^n - t has a repeated root only at t = T_ell^j(c), c a critical
    # value of T_ell: t = +-2 in both fields, the two calls of the loop
    calls = _record_calls(monkeypatch, polys, "squarefree_parts")
    got = list(factor_patterns_actual(ell, p, n, range(p)))
    assert got == [factor_pattern_predicted(ell, p, n, t) for t in range(p)]
    assert len(calls) == 2


@pytest.mark.parametrize("ell, p, n, t", ((3, 37, 5, 24), (3, 29, 5, 6),
                                          (3, 47, 5, 40), (3, 17, 5, 15)))
def test_equal_degree_nodes_take_no_bisection(ell, p, n, t, monkeypatch):
    # degree 243 with factors of four or five degrees, most nodes of the
    # split tree holding one: each ends at its remainder V_e mod g, so
    # the whole pattern takes at most 9 gcds (18 to 21 by bisection)
    calls = _record_calls(monkeypatch, polys, "gcd")
    got = factor_pattern_actual(ell, p, n, t)
    assert got == factor_pattern_predicted(ell, p, n, t)
    assert len(calls) <= 9, len(calls)


@pytest.mark.parametrize("cells", (None, 2 * 9))
def test_one_check_tests_every_t(cells, monkeypatch):
    # f' enters gcd only inside the squarefree loop, as its first step on
    # the t that fail the test (+-2), not once per t; g^2 = 4 mod f' is
    # checked once per call, also over chunks of two t: the check's
    # product g g is the one polys.mul of the call
    ell, p, n = 3, 1009, 2
    if cells:
        monkeypatch.setattr(factor, "STACK_CELLS", cells)
    f = cheb_coeffs(ell ** n, p)
    df = polys.deriv(f, p)
    g = polys.rem(f, df, p)
    checks = _record_calls(monkeypatch, polys, "mul")
    log = []  # ("loop", t) and ("gcd", inside a loop) for gcds with f'
    real_loop, real_gcd = polys.squarefree_parts, polys.gcd

    def loop(f, p):
        log.append(("loop", -f[0] % p))  # T_9 has no constant term
        inside.append(True)
        try:
            return real_loop(f, p)
        finally:
            inside.pop()

    def gcd(a, b, p):
        if any(isinstance(x, list) and x == df for x in (a, b)):
            log.append(("gcd", bool(inside)))
        return real_gcd(a, b, p)

    inside = []
    monkeypatch.setattr(polys, "squarefree_parts", loop)
    monkeypatch.setattr(polys, "gcd", gcd)
    got = list(factor_patterns_actual(ell, p, n, range(p)))
    assert checks == [(g, g, p)]
    assert got == list(factor.factor_patterns_predicted(ell, p, n, range(p)))
    assert log == [("loop", 2), ("gcd", True), ("loop", p - 2), ("gcd", True)]


def test_decompose_cyclotomic_z2():
    # splitting in the t = 0 tower is governed by p mod 2^(n+2)
    for p in (7, 17, 31, 97, 23):
        rep = decompose_prime(2, 0, p, 4)
        for lv in rep.levels:
            modulus = 2 ** (lv.level + 2)
            want = p % modulus in (1, modulus - 1)
            assert lv.splits_completely == want, (p, lv.level)


def test_verify_reciprocity_examples():
    assert verify_reciprocity(3, 1, 5)
    assert verify_reciprocity(3, 2, 17)
    assert verify_reciprocity(3, 2, 11)
    assert verify_reciprocity(3, 1, 7)
    assert verify_reciprocity(2, 1, 7)
    assert verify_reciprocity(2, 2, 31)


def test_validation_errors():
    with pytest.raises(ValueError):
        factor_pattern_actual(3, 3, 1, 0)
    with pytest.raises(ValueError):
        factor_pattern_predicted(3, 2, 1, 0)
    with pytest.raises(ValueError):
        factor_pattern_predicted(6, 5, 1, 0)


def _sympy_pattern(ell, p, n, t):
    """Pattern of T_ell^n(x) - t = T_(ell^n)(x) - t mod p from sympy's
    squarefree and distinct-degree factorization (test-only oracle)."""
    f = cheb_coeffs(ell ** n, p)
    f[0] = (f[0] - t) % p
    entries = []
    for g, mult in gf_sqf_list([ZZ(c) for c in f[::-1]], p, ZZ)[1]:
        for h, deg in gf_ddf_zassenhaus(g, p, ZZ):
            entries.append((deg, mult, (len(h) - 1) // deg))
    return FactorPattern.from_entries(entries)


LARGE_P = (100000007, 10 ** 9 + 7, 10 ** 12 + 39)


@pytest.mark.parametrize("p", LARGE_P)
def test_large_p_patterns_match_sympy_and_prediction(p):
    # these primes are past the point where float64 products of residues
    # lose bits (p^2 > 2^53), so the kernel splits residues into limbs
    for ell, n in ((2, 2), (2, 3), (3, 2), (5, 1)):
        for t in (2, p - 2, 0, 5, p // 3):
            actual = factor_pattern_actual(ell, p, n, t)
            assert actual == _sympy_pattern(ell, p, n, t), (ell, n, t)
            assert (actual
                    == factor_pattern_predicted(ell, p, n, t)), (ell, n, t)
    for ell, n in ((3, 4), (2, 6)):
        for t in (7, p - 11):
            assert (factor_pattern_actual(ell, p, n, t)
                    == factor_pattern_predicted(ell, p, n, t)), (ell, n, t)


def test_large_p_refused_up_front_beyond_kernel_bound():
    # the exact kernel needs (d + 1) 2 p <= 2^53 at d = ell^n = 81
    edge = (1 << 52) // 82
    below, above = prevprime(edge + 1), nextprime(edge)
    assert (factor_pattern_actual(3, below, 4, 7)
            == factor_pattern_predicted(3, below, 4, 7))
    with pytest.raises(ValueError, match="bound"):
        factor_pattern_actual(3, above, 4, 7)
