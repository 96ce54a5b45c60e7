"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from chebdyn.cheb import disc_factored
from chebdyn.cli import main as cli_main
from chebdyn.factor import (decompose_prime, factor_pattern_actual,
                            factor_pattern_predicted, factor_patterns_actual,
                            verify_reciprocity)
from chebdyn.ffield import element_degree, is_prime, make_field, nu
from chebdyn.graph import build_graph, orbit_stats_order, summarize, \
    verify_structure
from chebdyn.predict import (D1, D2, half_order, periodic_density,
                             predict_summary, predict_weight,
                             structure_params, tower_limit)
from chebdyn.verify import verify_instance

ODD_PRIMES_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
ODD_PRIMES_47 = ODD_PRIMES_31 + [37, 41, 43, 47]


def _report(num, name, t0):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.1f}s)")


# shared sweep for criteria 4-6: all graphs with ell in {2,3,5,7},
# odd p <= 31, p^n <= 2^14
_SWEEP: dict = {}


def _sweep():
    if not _SWEEP:
        t0 = time.time()
        for p in ODD_PRIMES_31:
            n = 1
            while p ** n <= 2 ** 14:
                ctx = make_field(p, n)
                for ell in (2, 3, 5, 7):
                    if ell != p:
                        _SWEEP[(ell, p, n)] = (ctx, build_graph(ell, ctx))
                n += 1
        _SWEEP["build_seconds"] = time.time() - t0
    return _SWEEP


def rows_tuple(summary):
    return [(r.divisor_value, r.branch, r.points, r.period, r.preperiod,
             r.weight, r.cycles) for r in summary.rows]


def test_criterion_01_figure_g_3_53_1(tmp_path):
    t0 = time.time()
    out = tmp_path / "g.txt"
    assert cli_main(["graph", "--ell", "3", "--p", "53", "--n", "1",
                     "--out", str(out)]) == 0
    s = summarize(build_graph(3, make_field(53, 1)))
    assert rows_tuple(s) == [
        (4, "minus", 1, 1, 0, 1, 1), (13, "minus", 6, 3, 0, 1, 2),
        (26, "minus", 6, 3, 0, 1, 2), (52, "minus", 12, 6, 0, 1, 2),
        (1, "plus", 1, 1, 0, 1, 1), (3, "plus", 1, None, 1, 1, None),
        (9, "plus", 3, None, 2, 1, None), (27, "plus", 9, None, 3, 1, None),
        (2, "plus", 1, 1, 0, 1, 1), (6, "plus", 1, None, 1, 1, None),
        (18, "plus", 3, None, 2, 1, None), (54, "plus", 9, None, 3, 1, None),
    ]
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _report(1, "figure table G(3,53,1) reproduced exactly", t0)


def test_criterion_02_figure_g_2_3_4():
    t0 = time.time()
    s = summarize(build_graph(2, make_field(3, 4)))
    assert rows_tuple(s) == [
        (1, "minus", 1, 1, 0, 1, 1), (2, "minus", 1, None, 1, 1, None),
        (4, "minus", 1, None, 2, 1, None), (8, "minus", 2, None, 3, 2, None),
        (16, "minus", 4, None, 4, 4, None),
        (5, "minus", 2, 2, 0, 2, 1), (10, "minus", 2, None, 1, 2, None),
        (20, "minus", 4, None, 2, 4, None), (40, "minus", 8, None, 3, 4, None),
        (80, "minus", 16, None, 4, 4, None),
        # the published drawing shows one 20-cycle here; c(41) = 10 forces
        # 2 cycles of length 10 and the enumeration agrees
        (41, "plus", 20, 10, 0, 4, 2), (82, "plus", 20, None, 1, 4, None),
    ]
    rep = verify_instance(2, 3, 4)
    assert rep.ok
    assert any("2 cycles of length 10" in note for note in rep.notes), \
        "figure discrepancy must be flagged in the verify report"
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _report(2, "figure table G(2,3,4) with corrected divisor-41 row", t0)


def test_criterion_03_weight_table_g_3_53_18():
    t0 = time.time()
    params = structure_params(3, 53, 1)
    assert (params.mu, params.d1, params.d2, params.v) == (1, 54, 52, 3)
    # preperiod 0 cells: weight of any periodic divisor class of D1 or D2
    col_d1 = [1] + [predict_weight(params, D1, rho, 2)
                    for rho in range(1, 6)]
    col_d2 = [1] + [predict_weight(params, D2, rho, 2)
                    for rho in range(1, 6)]
    assert col_d1 == [1, 1, 1, 1, 3, 9]
    assert col_d2 == [1, 2, 2, 2, 6, 18]

    # enumerable sub-tower: F_{5^(2*3^k)}, ell = 3, k <= 1
    checked = 0
    for k in (0, 1):
        sp = structure_params(3, 5, 1)
        ctx = make_field(5, 2 * sp.mu * 3 ** k)
        g = build_graph(3, ctx)
        for i in range(ctx.q):
            if g.pper[i] == 0:
                continue
            d0 = int(g.divisor[i])
            while d0 % 3 == 0:
                d0 //= 3
            if d0 <= 2 or sp.d1 % d0 == 0:
                branch = D1
            elif sp.d2 % d0 == 0:
                branch = D2
            else:
                continue  # cycle outside the D1/D2 family
            want = predict_weight(sp, branch, int(g.pper[i]), k)
            assert element_degree(ctx.decode(i)) == want, (k, i)
            checked += 1
    assert checked >= 20
    _report(3, f"weight table for G(3,53,18) and {checked} sub-tower cells",
            t0)


def test_criterion_04_orbit_oracle_equivalence():
    # every vertex: brute (pper, per) == (nu_ell(o), c(o / ell^nu)) for o
    # the order of its class in the walk tables; then the T_d ladder,
    # which reads no table, on every vertex at n = 1 and on one vertex of
    # every divisor class at n > 1, where it runs on FFElem products
    t0 = time.time()
    sweep = _sweep()
    checked = laddered = reps = 0
    for key, val in sweep.items():
        if key == "build_seconds":
            continue
        ell, p, n = key
        ctx, g = val
        rhos = [nu(int(o), ell) for o in g.class_order]
        pers = [half_order(ell, int(o) // ell ** r)
                for o, r in zip(g.class_order, rhos)]
        assert np.array_equal(np.array(rhos)[g.class_id], g.pper), key
        assert np.array_equal(np.array(pers)[g.class_id], g.per), key
        checked += ctx.q
        verts = (range(ctx.q) if n == 1
                 else np.unique(g.class_id, return_index=True)[1].tolist())
        for i in verts:
            rho, pi = orbit_stats_order(ctx.decode(i), ell)
            assert rho == g.pper[i] and pi == g.per[i], (ell, p, n, i)
        laddered += len(verts)
        reps += len(verts) if n > 1 else 0
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _report(4, f"brute (pper, per) == order formula on {checked} vertices "
            f"by their class orders, on {laddered} by the T_d ladder "
            f"({reps} of them one a divisor class at n > 1)", t0)


def test_criterion_05_structure_theorem():
    t0 = time.time()
    sweep = _sweep()
    graphs = 0
    for key, val in sweep.items():
        if key == "build_seconds":
            continue
        rep = verify_structure(val[1])
        assert rep.ok, (key, rep.first_failure)
        graphs += 1
    _report(5, f"structure theorem verified on {graphs} graphs", t0)


def test_criterion_06_point_counts():
    t0 = time.time()
    sweep = _sweep()
    for key, val in sweep.items():
        if key == "build_seconds":
            continue
        ell, p, n = key
        ctx, g = val
        q = ctx.q
        lam_m = lam_p = 0
        om, op_ = q - 1, q + 1
        while om % ell == 0:
            om //= ell
            lam_m += 1
        while op_ % ell == 0:
            op_ //= ell
            lam_p += 1
        lam = max(lam_m, lam_p)
        omega_m = om if lam_m >= lam_p else op_
        want = {0: (om + op_) // 2}
        if ell % 2:
            for k in range(1, lam + 1):
                want[k] = (ell - 1) * ell ** (k - 1) * omega_m // 2
        else:
            if lam >= 1:
                want[1] = (om + op_) // 2
            for k in range(2, lam + 1):
                want[k] = 2 ** (k - 2) * omega_m
        got = g.preperiod_totals()
        assert got == {k: v for k, v in want.items() if v}, (key, got, want)
    # the two headline instances
    assert summarize(build_graph(3, make_field(53, 1))).preperiod_totals() \
        == {0: 27, 1: 2, 2: 6, 3: 18}
    assert summarize(build_graph(2, make_field(3, 4))).preperiod_totals() \
        == {0: 23, 1: 23, 2: 5, 3: 10, 4: 20}
    _report(6, "per-preperiod totals match the point-count tables", t0)


def test_criterion_07_factorization_theorem():
    t0 = time.time()
    cases = 0
    for ell, nmax in ((2, 7), (3, 5), (5, 3)):
        for p in ODD_PRIMES_47:
            if p == ell:
                continue
            for n in range(1, nmax + 1):
                actual = factor_patterns_actual(ell, p, n, range(p))
                for t, ac in enumerate(actual):
                    pr = factor_pattern_predicted(ell, p, n, t)
                    assert pr == ac, (ell, p, n, t, pr.entries, ac.entries)
                    cases += 1
                assert t == p - 1
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    _report(7, f"predicted == actual pattern on {cases} (ell,p,n,t) cases",
            t0)


def test_criterion_08_worked_example_105():
    t0 = time.time()
    for p in (3, 5, 11):
        rep = decompose_prime(2, 105, p, 6)
        for lv in rep.levels:
            assert lv.inert and lv.primes == ((2 ** lv.level, 1),), (p, lv)
        for n in (1, 2, 3, 4, 5, 6):
            assert factor_pattern_actual(2, p, n, 105).entries == \
                ((2 ** n, 1, 1),), (p, n)
    for p in (7, 13):
        rep = decompose_prime(2, 105, p, 6)
        assert rep.levels[0].primes == ((1, 2),)
        assert rep.levels[0].splits_completely
        for lv in rep.levels[1:]:
            assert lv.primes == ((2 ** (lv.level - 1), 2),), (p, lv)
        assert factor_pattern_actual(2, p, 1, 105).entries == ((1, 1, 2),)
        for n in (2, 3, 4, 5, 6):
            assert factor_pattern_actual(2, p, n, 105).entries == \
                ((2 ** (n - 1), 1, 2),), (p, n)
    _report(8, "T_2^n - 105 tower: 3,5,11 inert; 7,13 split once then "
               "two factors of degree 2^(n-1)", t0)


def _sympy_disc(ell, n, t):
    x = sympy.Symbol("x")
    base = sympy.expand(2 * sympy.chebyshevt(ell, x / 2))
    f = base
    for _ in range(n - 1):
        f = sympy.expand(base.subs(x, f))
    return int(sympy.discriminant(f - t, x))


def test_criterion_09_discriminants():
    t0 = time.time()
    cases = 0
    for (ell, n) in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)):
        for t in range(-10, 11):
            # t = +-2 sits outside the criterion range but the factored
            # form still matches the oracle there (usually 0; 16 for the
            # lone separable case T_2 - 2 = (x-2)(x+2))
            assert disc_factored(ell, n, t).numeric() == _sympy_disc(ell, n, t), \
                (ell, n, t)
            if t not in (2, -2):
                cases += 1
    # odd-ell recursion, exponent-wise, n <= 4
    for ell in (3, 5):
        for n in (1, 2, 3, 4):
            for t in (-5, 0, 1, 7):
                cur = disc_factored(ell, n, t).exponents()
                nxt = disc_factored(ell, n + 1, t).exponents()
                assert nxt["ell"] == ell * cur["ell"] + ell ** (n + 1)
                for atom in ("2-t", "2+t"):
                    assert nxt[atom] == ell * cur[atom] + (ell - 1) // 2
    # the ell = 2 symmetric display is genuinely wrong for asymmetric t
    t = 1
    display = 2 ** 2 * (2 - t) * (4 - t * t) ** 0
    assert display == 4
    assert _sympy_disc(2, 1, t) == 12
    assert disc_factored(2, 1, t).numeric() == 12
    _report(9, f"discriminants == integer resultant oracle on {cases} cases; "
               "recursion holds; asymmetric-t correction asserted", t0)


def test_criterion_10_cyclotomic_reciprocity():
    t0 = time.time()
    odd_primes_200 = [p for p in range(3, 201) if is_prime(p)]
    cases = 0
    for ell, ns in ((3, (1, 2, 3, 4)), (5, (1, 2, 3)), (2, (1, 2, 3, 4))):
        for n in ns:
            if ell != 2 and ell ** n > 125:
                continue
            if ell == 2 and 2 ** (n + 2) > 64:
                continue
            for p in odd_primes_200:
                if p == ell:
                    continue
                assert verify_reciprocity(ell, n, p), (ell, n, p)
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _report(10, f"splitting iff p = +-1 (mod ell^n / 2^(n+2)) on {cases} "
                "instances", t0)


def test_criterion_11_density():
    t0 = time.time()
    sweep = _sweep()
    for key in sweep:
        if key == "build_seconds":
            continue
        ell, p, n = key
        q = p ** n
        lam_m = lam_p = 0
        om, op_ = q - 1, q + 1
        while om % ell == 0:
            om //= ell
            lam_m += 1
        while op_ % ell == 0:
            op_ //= ell
            lam_p += 1
        # exact identity from the point count: the (p^n -+ 1)-weighted form
        want = (Fraction(q - 1, ell ** lam_m)
                + Fraction(q + 1, ell ** lam_p)) / (2 * q)
        assert periodic_density(ell, p, n) == want == Fraction(om + op_, 2 * q)
    assert tower_limit(3) == Fraction(1, 2)
    assert tower_limit(5) == Fraction(1, 2)
    assert tower_limit(7) == Fraction(1, 2)
    assert tower_limit(2) == Fraction(1, 4)
    _report(11, "exact density identity and tower limits 1/2, 1/4", t0)


@pytest.mark.xfail(strict=True, reason=(
    "the unweighted display 1/(2 ell^lam-) + 1/(2 ell^lam+) is an in-limit "
    "simplification: it drops the (p^n -+ 1)/p^n weights and differs from "
    "the exact count whenever lam- != lam+ (already at (3,53,1): 27/53 vs "
    "14/27); the exact identity is asserted in criterion 11"))
def test_criterion_11_literal_unweighted_display():
    for (ell, p, n) in ((3, 53, 1), (2, 3, 4), (5, 7, 2)):
        q = p ** n
        lam_m = lam_p = 0
        om, op_ = q - 1, q + 1
        while om % ell == 0:
            om //= ell
            lam_m += 1
        while op_ % ell == 0:
            op_ //= ell
            lam_p += 1
        literal = Fraction(1, 2 * ell ** lam_m) + Fraction(1, 2 * ell ** lam_p)
        assert periodic_density(ell, p, n) == literal
