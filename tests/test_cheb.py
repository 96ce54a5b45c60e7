import pytest
import sympy

from chebdyn import polys
from chebdyn.cheb import (COEFF_DEGREE_CAP, cheb_coeffs, cheb_eval,
                          critical_factorization, disc_factored,
                          iterate_coeffs, ramified_candidates)
from chebdyn.ffield import make_field
from order_reference import QuadElem, lift_alpha
from poly_reference import eval_at


def test_eval_examples():
    for p in (3, 5, 53, 101):
        ctx = make_field(p, 1)
        assert cheb_eval(2, ctx.from_int(0)) == ctx.from_int(-2)
        for ell in (2, 3, 5, 7, 11):
            assert cheb_eval(ell, ctx.from_int(2)) == ctx.from_int(2)
    ctx = make_field(53, 1)
    assert cheb_eval(3, ctx.from_int(3)) == ctx.from_int(18)


def test_coeffs_small():
    assert cheb_coeffs(0, 7) == [2]
    assert cheb_coeffs(1, 7) == [0, 1]
    assert cheb_coeffs(2, 101) == [99, 0, 1]
    assert cheb_coeffs(3, 101) == [0, 98, 0, 1]
    assert cheb_coeffs(4, 101) == [2, 0, 97, 0, 1]
    assert cheb_coeffs(5, 101) == [0, 5, 0, 96, 0, 1]
    assert cheb_coeffs(7, 101) == [0, 94, 0, 14, 0, 94, 0, 1]


def test_coeffs_cap():
    with pytest.raises(ValueError):
        cheb_coeffs(COEFF_DEGREE_CAP + 1, 7)


def test_eval_matches_coeffs():
    for p in (3, 53, 97):
        ctx = make_field(p, 1)
        for d in (0, 1, 2, 3, 5, 16, 101, 499, 500):
            co = cheb_coeffs(d, p)
            for i in range(p):
                want = ctx.from_int(eval_at(co, i, p))
                assert cheb_eval(d, ctx.decode(i)) == want, (p, d, i)


def test_commutation_and_iterates():
    ctx = make_field(3, 4)
    pts = [ctx.decode(i) for i in (0, 1, 7, 23, 80)]
    pairs = [(2, 3), (3, 5), (6, 7), (31, 33), (16, 64)]
    for a in pts:
        for d, e in pairs:
            lhs = cheb_eval(d, cheb_eval(e, a))
            rhs = cheb_eval(e, cheb_eval(d, a))
            assert lhs == rhs == cheb_eval(d * e, a)
    for a in pts:
        cur = a
        for _ in range(4):
            cur = cheb_eval(3, cur)
        assert cur == cheb_eval(81, a)


def test_defining_identity_through_lift():
    # T_d(alpha + 1/alpha) = alpha^d + alpha^-d on both branches
    for (p, n) in ((53, 1), (3, 4)):
        ctx = make_field(p, n)
        for i in range(0, ctx.q, max(1, ctx.q // 40)):
            a = ctx.decode(i)
            al, br = lift_alpha(a)
            for d in (2, 3, 7, 10):
                want = cheb_eval(d, a)
                if isinstance(al, QuadElem):
                    inv = QuadElem(a, a, -ctx.one())  # a - y, the other root
                    s = al ** d
                    si = inv ** d
                    tot_u, tot_v = s.u + si.u, s.v + si.v
                    assert tot_v.is_zero() and tot_u == want
                else:
                    assert al ** d + al.inverse() ** d == want


def test_iterate_coeffs_matches_direct():
    for (ell, n, p) in ((2, 3, 5), (3, 2, 7), (2, 5, 3), (5, 2, 11), (3, 4, 13)):
        assert list(iterate_coeffs(ell, n, p)) == cheb_coeffs(ell ** n, p)


def test_critical_factorization_l3():
    cs = critical_factorization(3, 53)
    assert cs.square_minus == [1, 1]    # T_3 - 2 = (x-2)(x+1)^2
    assert cs.square_plus == [52, 1]    # T_3 + 2 = (x+2)(x-1)^2


def test_critical_factorization_l5_p7():
    cs = critical_factorization(5, 7)
    p = 7
    t5 = cheb_coeffs(5, p)
    prod = polys.mul([p - 2, 1],
                     polys.mul(cs.square_minus, cs.square_minus, p), p)
    assert prod == polys.sub(t5, [2], p)
    prod = polys.mul([2, 1],
                     polys.mul(cs.square_plus, cs.square_plus, p), p)
    assert prod == polys.add(t5, [2], p)


def test_critical_factorization_l2():
    cs = critical_factorization(2, 7)
    assert cs.square_minus is None
    assert cs.plus_factors == (((0, 1), 2),)
    assert cs.minus_factors == (((5, 1), 1), ((2, 1), 1))


def test_critical_factorization_errors():
    with pytest.raises(ValueError):
        critical_factorization(3, 3)
    with pytest.raises(ValueError):
        critical_factorization(4, 7)


def sympy_disc(ell, n, t):
    x = sympy.Symbol("x")
    co = [int(c) for c in sympy.Poly(2 * sympy.chebyshevt(ell, x / 2),
                                     x).all_coeffs()]
    f = sympy.Poly(co, x)
    for _ in range(n - 1):
        co2 = [int(c) for c in sympy.Poly(2 * sympy.chebyshevt(ell, x / 2),
                                          x).all_coeffs()]
        f = sympy.Poly(sympy.Poly(co2, x).as_expr().subs(x, f.as_expr()), x)
    return int(sympy.discriminant(f.as_expr() - t, x))


def test_disc_examples():
    d = disc_factored(3, 1, 0)
    assert d.numeric() == 108
    assert d.factored().factors == ((2, 2), (3, 3))
    assert disc_factored(2, 1, 1).numeric() == 12
    deg = disc_factored(3, 1, 2)
    assert deg.sign == 0 and deg.numeric() == 0


def test_disc_against_resultant_oracle_subset():
    for (ell, n) in ((3, 1), (2, 1), (2, 2), (5, 1)):
        for t in (-3, -1, 0, 1, 3, 5):
            assert disc_factored(ell, n, t).numeric() == sympy_disc(ell, n, t)


def test_disc_l2_display_form_is_wrong_for_asymmetric_t():
    # the symmetric-looking closed form 2^(n 2^n) (2-t)(4-t^2)^(2^(n-1)-1)
    # disagrees with the true discriminant once t breaks the symmetry
    t, n = 1, 1
    display = 2 ** (n * 2 ** n) * (2 - t) * (4 - t * t) ** (2 ** (n - 1) - 1)
    oracle = sympy_disc(2, n, t)
    assert display != oracle
    assert disc_factored(2, n, t).numeric() == oracle == 12


def test_disc_recursion_exponentwise():
    for ell in (3, 5):
        for n in (1, 2, 3):
            for t in (0, 1, 5):
                cur = disc_factored(ell, n, t).exponents()
                nxt = disc_factored(ell, n + 1, t).exponents()
                assert nxt["ell"] == ell * cur["ell"] + ell ** (n + 1)
                for atom in ("2-t", "2+t"):
                    assert nxt[atom] == ell * cur[atom] + (ell - 1) // 2


def test_disc_large_stays_factored():
    d = disc_factored(3, 10, 5)
    assert d.numeric() is None  # 3^(10*3^10) is way past any expansion cap
    assert d.exponents()["ell"] == 10 * 3 ** 10


def test_ramified_candidates():
    assert ramified_candidates(2, 105) == frozenset({2, 103, 107})
    assert ramified_candidates(3, 0) == frozenset({2, 3})
    assert ramified_candidates(5, 3) == frozenset({5})
    with pytest.raises(ValueError):
        ramified_candidates(3, 2)
    with pytest.raises(ValueError):
        ramified_candidates(3, -2)
