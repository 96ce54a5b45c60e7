import random
from datetime import timedelta
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd

from chebdyn import polys
from poly_reference import compose, to_list


def test_gcd_examples():
    # gcd(x^2 - 1, x - 1) over F_5
    assert polys.gcd([4, 0, 1], [4, 1], 5) == [4, 1]
    f = [1, 2, 0, 3]
    assert polys.gcd(f, f, 7) == polys.monic(f, 7)
    assert polys.gcd([], [2, 1], 5) == [2, 1]


def test_powmod_frobenius_on_irreducible_quadratic():
    # x^3 mod (x^2 + 1) over F_3 is -x: Frobenius negates the root
    assert polys.powmod([0, 1], 3, [1, 0, 1], 3) == [0, 2]


def test_powmod_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        polys.powmod([0, 1], 5, [], 7)


def test_divmod_roundtrip():
    p = 11
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    b = [2, 7, 1]
    q, r = polys.divmod_(a, b, p)
    back = polys.add(polys.mul(q, b, p), r, p)
    assert back == polys.trim([c % p for c in a])


def monic_irreducibles(p, max_deg):
    """All monic irreducibles of degree <= max_deg by sieve."""
    polys_by_deg = {d: [list(t) + [1] for t in iproduct(range(p), repeat=d)]
                    for d in range(1, max_deg + 1)}
    irred = {1: polys_by_deg[1]}
    for d in range(2, max_deg + 1):
        out = []
        for f in polys_by_deg[d]:
            ok = True
            for dd in range(1, d // 2 + 1):
                for g in irred[dd]:
                    if not polys.rem(f, g, p):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(f)
        irred[d] = out
    return irred


def test_squarefree_and_ddf_against_construction():
    p = 5
    irred = monic_irreducibles(p, 3)
    # f = l1 * l2^2 * q1 * c1^3 with known degrees
    l1, l2 = irred[1][0], irred[1][1]
    q1 = irred[2][0]
    c1 = irred[3][1]
    f = [1]
    for g, m in ((l1, 1), (l2, 2), (q1, 1), (c1, 3)):
        for _ in range(m):
            f = polys.mul(f, g, p)
    parts = polys.squarefree_parts(f, p)
    by_mult = {m: g for g, m in parts}
    assert sorted(by_mult) == [1, 2, 3]
    assert polys.degree(by_mult[1]) == 3  # l1 * q1
    assert by_mult[2] == polys.monic(l2, p)
    assert by_mult[3] == polys.monic(c1, p)
    assert polys.distinct_degree_counts(by_mult[1], p) == {1: 1, 2: 1}
    assert polys.distinct_degree_counts(by_mult[3], p) == {3: 1}


def test_squarefree_pth_power_branch():
    # (x + 1)^3 over F_3 has zero derivative
    f = polys.mul(polys.mul([1, 1], [1, 1], 3), [1, 1], 3)
    assert polys.deriv(f, 3) == []
    assert polys.squarefree_parts(f, 3) == [([1, 1], 3)]


def test_ddf_large_degree_and_simple_path_agree():
    p = 7
    irred = monic_irreducibles(p, 3)
    f = [1]
    want = {}
    for g in irred[1][:3] + irred[2][:4] + irred[3][:5]:
        f = polys.mul(f, g, p)
        d = polys.degree(g)
        want[d] = want.get(d, 0) + 1
    assert polys.degree(f) == 3 + 8 + 15
    assert polys.distinct_degree_counts(f, p) == want


def test_ddf_irreducible_detection():
    # a degree-29 irreducible over F_3 via field modulus machinery
    from chebdyn.ffield import _lex_min_irreducible
    mod = list(_lex_min_irreducible(3, 29)) + [1]
    assert polys.distinct_degree_counts(mod, 3) == {29: 1}


def test_gcd_matches_sympy():
    for p in (13, 10 ** 9 + 7, 10 ** 12 + 39):
        rng = random.Random(p)
        for _ in range(40):
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            a = polys.mul(g, [rng.randrange(p)
                              for _ in range(rng.randrange(1, 25))], p)
            b = polys.mul(g, [rng.randrange(p)
                              for _ in range(rng.randrange(1, 15))], p)
            want = [int(c) for c in gf_gcd(a[::-1], b[::-1], p, ZZ)[::-1]]
            assert polys.gcd(a, b, p) == want, p


def test_sqrt_monic():
    p = 11
    g = [3, 1, 4, 1]  # degree 3, made monic below
    g = polys.monic(g, p)
    sq = polys.mul(g, g, p)
    assert polys.sqrt_monic(sq, p) == g
    with pytest.raises(ArithmeticError):
        polys.sqrt_monic(polys.add(sq, [1], p), p)


def test_modulus_kernel_matches_scalar():
    p = 31
    f = [3, 0, 1, 7, 1]  # monic quartic
    ker = polys.ModulusKernel(f, p)
    a, b = [5, 2, 0, 9], [1, 30, 4, 4]
    got = to_list(ker.mulmod(ker.lift(a), ker.lift(b)))
    want = polys.rem(polys.mul(a, b, p), f, p)
    assert got == want
    got = to_list(ker.powmod(ker.lift(a), 97))
    want = polys.powmod(a, 97, f, p)
    assert got == want
    got = to_list(ker.compose(ker.lift(b), ker.lift(a)))
    want = polys.rem(compose(b, a, p), f, p)
    assert got == want


def _compose_mod(g, h, f, p):
    """g(h) mod f by Horner on the exact list routines."""
    out = []
    for c in reversed(g):
        out = polys.add(polys.rem(polys.mul(out, h, p), f, p), [c], p)
    return out


def _kernel_bound(d):
    """Largest p the kernel accepts at degree d: (d + 1) 2 p <= 2^53."""
    return (1 << 52) // (d + 1)


@st.composite
def _prime_upto(draw, bound):
    """An odd prime <= bound: log-uniform in size, or the largest."""
    if draw(st.sampled_from((False, False, True))):
        x = bound
    else:
        k = draw(st.sampled_from(range(3, bound.bit_length() + 1)))
        x = draw(st.integers(1 << (k - 1), min((1 << k) - 1, bound)))
    return prevprime(x + 1)


_HYPOTHESIS = settings(max_examples=40, deadline=timedelta(seconds=10),
                       derandomize=True, database=None,
                       suppress_health_check=[HealthCheck.too_slow])


@_HYPOTHESIS
@given(data=st.data(), d=st.sampled_from(range(1, 82)),
       rng=st.randoms(use_true_random=True))
def test_modulus_kernel_exact_up_to_its_bound(data, d, rng):
    p = data.draw(_prime_upto(_kernel_bound(d)), label="p")
    f = [rng.randrange(p) for _ in range(d)] + [1]
    a, b = ([rng.randrange(p) for _ in range(d)] for _ in range(2))
    e = data.draw(st.integers(0, 1 << 64), label="e")
    ker = polys.ModulusKernel(f, p)
    A, B = ker.lift(a), ker.lift(b)
    assert to_list(ker.mulmod(A, B)) == polys.rem(polys.mul(a, b, p), f, p)
    assert to_list(ker.powmod(A, e)) == polys.powmod(a, e, f, p)
    assert to_list(ker.compose(A, B)) == _compose_mod(a, b, f, p)


@_HYPOTHESIS
@given(data=st.data(), m=st.sampled_from(range(1, 244)),
       n=st.sampled_from(range(1, 244)), rng=st.randoms(use_true_random=True))
def test_convolve_mod_exact(data, m, n, rng):
    p = data.draw(_prime_upto((1 << 62) // (min(m, n) + 1)), label="p")
    a = [rng.randrange(p) for _ in range(m)]
    b = [rng.randrange(p) for _ in range(n)]
    got = polys.convolve_mod(np.array(a, dtype=np.int64),
                             np.array(b, dtype=np.int64), p)
    want = [sum(a[i] * b[k - i] for i in range(max(0, k - n + 1),
                                               min(k, m - 1) + 1)) % p
            for k in range(m + n - 1)]
    assert got.tolist() == want


def test_modulus_kernel_refuses_beyond_its_bound():
    for d in (1, 9, 81):
        f = [1] * d + [1]
        polys.ModulusKernel(f, prevprime(_kernel_bound(d) + 1))
        with pytest.raises(ValueError, match="bound"):
            polys.ModulusKernel(f, nextprime(_kernel_bound(d)))
