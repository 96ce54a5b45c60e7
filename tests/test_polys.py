import functools
import gc
import math
import random
import unittest.mock
import weakref
from datetime import timedelta
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import divisors, mobius, nextprime, prevprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_ddf_zassenhaus, gf_div, gf_gcd,
                                     gf_irreducible_p, gf_sqf_list,
                                     gf_sqf_p)

from chebdyn import polys
from chebdyn.cheb import cheb_coeffs
from chebdyn.ffield import _lex_min_irreducible
from poly_reference import compose, lift, moduli, powmod, to_list, to_lists


def test_gcd_examples():
    # gcd(x^2 - 1, x - 1) over F_5
    assert polys.gcd([4, 0, 1], [4, 1], 5) == [4, 1]
    f = [1, 2, 0, 3]
    assert polys.gcd(f, f, 7) == polys.monic(f, 7)
    assert polys.gcd([], [2, 1], 5) == [2, 1]


def test_powmod_frobenius_on_irreducible_quadratic():
    # x^3 mod (x^2 + 1) over F_3 is -x: Frobenius negates the root
    assert powmod([0, 1], 3, [1, 0, 1], 3) == [0, 2]


def test_divmod_roundtrip():
    p = 11
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    for b in ([2, 7, 1], [7], [1]):
        q, r = polys.divmod_(a, b, p)
        back = polys.add(polys.mul(q, b, p), r, p)
        assert back == polys.trim([c % p for c in a])
        assert polys.degree(r) < polys.degree(b) or not r
    # a constant divides at once: the quotient a / b0, the remainder 0
    assert polys.divmod_(a, [7], p) == (polys.mul_scalar(a, 8, p), [])
    assert polys.gcd(a, [3], p) == [1]


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
    assert polys.distinct_degree_counts(by_mult[1], p) == [{1: 1, 2: 1}]
    assert polys.distinct_degree_counts(by_mult[3], p) == [{3: 1}]


def _sympy_sqf_parts(f, p):
    """sympy's gf_sqf_list of monic f, as (ascending list, multiplicity)
    pairs sorted by multiplicity (test-only oracle)."""
    _, parts = gf_sqf_list([ZZ(c) for c in f[::-1]], p, ZZ)
    return sorted((([int(c) for c in g[::-1]], m) for g, m in parts),
                  key=lambda part: part[1])


def _random_product(rng, p, mults, max_factors, max_deg):
    """A product of up to max_factors random monic polynomials of degree
    up to max_deg, each to a multiplicity drawn from mults."""
    f = [1]
    for _ in range(rng.randrange(1, max_factors + 1)):
        g = [rng.randrange(p) for _ in range(rng.randrange(1, max_deg + 1))]
        for _ in range(rng.choice(mults)):
            f = polys.mul(f, g + [1], p)
    return f


def test_squarefree_parts_match_sympy():
    # multiplicities divisible by p, and f(x^(p^k)), reach f' = 0, which
    # the loop's p-th-root step handles
    f = polys.mul(polys.mul([1, 1], [1, 1], 3), [1, 1], 3)  # (x + 1)^3
    assert polys.deriv(f, 3) == []
    assert polys.squarefree_parts(f, 3) == [([1, 1], 3)]
    for p in (3, 5, 7):
        rng = random.Random(p)
        mults = (1, 2, p, p + 1, 2 * p, p * p)
        cases = [_random_product(rng, p, mults, 3, 2) for _ in range(30)]
        for k in (1, 2):
            for _ in range(10):
                f = _random_product(rng, p, (1, 2, p), 3, 2)
                twisted = [0] * ((len(f) - 1) * p ** k + 1)
                twisted[::p ** k] = f
                cases.append(twisted)
        for f in cases:
            assert polys.squarefree_parts(f, p) == _sympy_sqf_parts(f, p)


def test_ddf_counts_known_irreducibles():
    p = 7
    irred = monic_irreducibles(p, 3)
    f = [1]
    want = {}
    for g in irred[1][:3] + irred[2][:4] + irred[3][:5]:
        f = polys.mul(f, g, p)
        d = polys.degree(g)
        want[d] = want.get(d, 0) + 1
    assert polys.degree(f) == 3 + 8 + 15
    assert polys.distinct_degree_counts(f, p) == [want]


def test_ddf_counts_match_sympy():
    # every degree 2..30 (one to four baby steps per block); the last two
    # primes take the kernel's limb path.  Degrees 48 and 64 send the
    # block gcds through gcd's numpy steps, 32 puts them at the handoff.
    # 81, 125 and 243 are the factor sweep's largest odd degrees.
    long = (32, 48, 64)
    sweep = (*long, 81, 125, 243)
    for p, extra in ((3, sweep), (7, ()), (47, sweep), (10 ** 9 + 7, long),
                     (10 ** 12 + 39, (48,))):
        rng = random.Random(p)
        for d in (*range(2, 31), *extra):
            while True:
                f = [1]
                while polys.degree(f) < d:
                    k = rng.randrange(1, d - polys.degree(f) + 1)
                    g = [rng.randrange(p) for _ in range(k)] + [1]
                    f = polys.mul(f, g, p)
                f_zz = [ZZ(c) for c in f[::-1]]
                if gf_sqf_p(f_zz, p, ZZ):
                    break
            want = {deg: (len(h) - 1) // deg
                    for h, deg in gf_ddf_zassenhaus(f_zz, p, ZZ)}
            assert polys.distinct_degree_counts(f, p) == [want], (p, d)


def test_ddf_irreducible_detection():
    # a degree-29 irreducible over F_3: the field modulus, which the DDF
    # itself picks, so sympy confirms it independently
    mod = list(_lex_min_irreducible(3, 29)) + [1]
    assert gf_irreducible_p([ZZ(c) for c in mod[::-1]], 3, ZZ)
    assert polys.distinct_degree_counts(mod, 3) == [{29: 1}]


# The sieve's reach: every monic of degree <= SIEVE_DEG[p] is tried.
SIEVE_DEG = {3: 6, 7: 3}


@functools.cache
def _irreducibles(p, k, count):
    """count distinct monic irreducibles of degree k over F_p: the sieve's
    first ones up to SIEVE_DEG[p], and above it the lex-least irreducible
    (ffield._lex_min_irreducible), its monic reciprocal and their distinct
    translates g(x + c), each checked by sympy."""
    if k <= SIEVE_DEG[p]:
        out = monic_irreducibles(p, k)[k][:count]
    else:
        g = list(_lex_min_irreducible(p, k)) + [1]
        out = []
        for h in (g, polys.monic(g[::-1], p)):
            for c in range(p):
                moved = compose(h, [c, 1], p)
                if moved not in out:
                    out.append(moved)
        out = out[:count]
        for h in out:
            assert gf_irreducible_p([ZZ(c) for c in h[::-1]], p, ZZ)
    assert len(out) == count, (p, k)
    return out


def _ddf_blocks(d):
    """(s, K) of distinct_degree_counts at degree d: s labels a block and
    K = J s, J the least block count with d < 2 (J s + 1)."""
    s = math.isqrt(d // 2 - 1) + 1 if d >= 6 else 1  # ceil(sqrt(d // 2))
    j = 1
    while d >= 2 * (j * s + 1):
        j += 1
    return s, j * s


def _counts_of(factors, p):
    """(product, {degree: count}) of distinct monic irreducibles."""
    f, want = [1], {}
    for g in factors:
        f = polys.mul(f, g, p)
        want[polys.degree(g)] = want.get(polys.degree(g), 0) + 1
    return f, want


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_two_irreducibles_of_one_degree(p):
    # D = 2k at every node [lo, hi) with lo <= k, so the one-factor cut
    # D < 2 lo never fires on it, down to the leaf k
    for k in range(1, 13):
        f, want = _counts_of(_irreducibles(p, k, 2), p)
        assert [want] == polys.distinct_degree_counts(f, p) == [{k: 2}], (
            p, k)


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_three_of_one_degree_past_the_first_block(p):
    for k in (5, 7, 9, 10):
        s, _ = _ddf_blocks(3 * k)
        assert k > s  # the labels of block 1 are 1..s
        f, want = _counts_of(_irreducibles(p, k, 3), p)
        assert [want] == polys.distinct_degree_counts(f, p) == [{k: 3}], (
            p, k)


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_factor_at_the_top_label_and_one_past_it(p):
    # one irreducible of degree K, the tree's last label, or K + 1, which
    # only the quotient f / G holds; the rest of the degree in cubics and
    # one linear or quadratic
    small = monic_irreducibles(p, 3)
    for d in (5, 7, 12, 20, 27, 40):
        _, top = _ddf_blocks(d)
        for e in (top, top + 1):
            r = d - e
            fill = small[3][:r // 3] + (small[r % 3][:1] if r % 3 else [])
            f, want = _counts_of(_irreducibles(p, e, 1) + fill, p)
            assert polys.degree(f) == d
            assert polys.distinct_degree_counts(f, p) == [want], (p, d, e)


@pytest.mark.parametrize("p, counts", ((3, {1: 3, 2: 3, 5: 2, 8: 1}),
                                       (7, {1: 7, 2: 10, 11: 1, 13: 1}),
                                       (3, {1: 3, 2: 3}),
                                       (7, {1: 7, 2: 10})))
def test_ddf_linear_and_quadratic_factors_on_many_labels(p, counts):
    # a linear factor divides every V_k and a quadratic every V_k of even
    # k, so they sit in every range product of the tree; alone, they make
    # the first block's product 0 mod f, and the giant steps stop there
    f, want = _counts_of([g for k, c in counts.items()
                          for g in _irreducibles(p, k, c)], p)
    assert want == counts
    assert polys.distinct_degree_counts(f, p) == [counts]


def _irreducible_count(p, e):
    """The number of monic irreducibles of degree e over F_p (Gauss)."""
    return sum(mobius(k) * p ** (e // k) for k in divisors(e)) // e


def _sympy_counts(f, p):
    """{degree: count} of the irreducible factors of squarefree monic f,
    by sympy's distinct-degree factorization."""
    return {deg: (len(h) - 1) // deg for h, deg in gf_ddf_zassenhaus(
        [ZZ(c) for c in f[::-1]], p, ZZ)}


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_equal_degree_nodes_match_sympy(p):
    # k irreducibles of one degree e, for e = 2..12 and k = 2..4 (at most
    # as many as there are): a node holding them ends at one remainder,
    # V_e mod g
    for e in range(2, 13):
        for k in range(2, min(4, _irreducible_count(p, e)) + 1):
            f, want = _counts_of(_irreducibles(p, e, k), p)
            assert polys.distinct_degree_counts(f, p) == [want], (p, e, k)
            assert want == _sympy_counts(f, p), (p, e, k)


# Two degrees a < b <= 2a that one node [lo, hi) can hold, two factors of
# each, so that D = 2 (a + b) has divisors among the candidates
# [lo, 2 lo); b = 2a fails every candidate below 2 lo and passes V_(2 lo)
# at lo = a
EQUAL_DEGREE_MIXTURES = ((1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
                         (4, 6), (4, 7), (5, 8), (5, 10), (6, 9))


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_two_degrees_in_one_node_match_sympy(p):
    for a, b in EQUAL_DEGREE_MIXTURES:
        f, want = _counts_of(_irreducibles(p, a, 2) + _irreducibles(p, b, 2),
                             p)
        assert polys.distinct_degree_counts(f, p) == [want], (p, a, b)
        assert want == _sympy_counts(f, p), (p, a, b)


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_equal_degree_rows_in_a_stack(p):
    # f a product of equal-degree factors, stacked with every shift c
    # whose f - c is squarefree: each row against sympy
    for e, k in ((3, 3), (5, 2), (7, 2)):
        f, _ = _counts_of(_irreducibles(p, e, k), p)
        moduli = [(c, polys.sub(f, [c], p)) for c in range(p)]
        cs = [c for c, g in moduli
              if polys.gcd(g, polys.deriv(g, p), p) == [1]]
        assert cs[0] == 0
        assert polys.distinct_degree_counts(f, p, cs) == [
            _sympy_counts(g, p) for c, g in moduli if c in cs], (p, e, k)


@pytest.mark.parametrize("p", (3, 7))
def test_ddf_two_degrees_split_at_the_root(p):
    # two factors of each degree, which the root's gcd parts: 2 and 7 at
    # mid = 4 (d = 18, s = 3, K = 9), 3 and 8 at mid = 5 (d = 22, s = 4,
    # K = 12); the right half is G / G_left, of the larger degree only
    for degrees in ((2, 7), (3, 8)):
        f, want = _counts_of([g for k in degrees
                              for g in _irreducibles(p, k, 2)], p)
        assert polys.distinct_degree_counts(f, p) == [want], (p, degrees)


def ddf_tree_calls(f, p):
    """polys.distinct_degree_counts(f, p) and its calls of rem and gcd,
    counted in the globals the function runs in (a committed mutant's
    own, in test_mutants); divmod_'s own division, a rem call with a
    quotient list, is not a remainder and is not counted."""
    ddf = polys.distinct_degree_counts
    space = ddf.__globals__
    calls = dict.fromkeys(("rem", "gcd"), 0)
    saved = {name: space[name] for name in calls}

    def counted(name):
        def wrapper(*args):
            calls[name] += len(args) == 3
            return saved[name](*args)
        return wrapper

    space.update({name: counted(name) for name in calls})
    try:
        return ddf(f, p), calls
    finally:
        space.update(saved)


def test_ddf_equal_degree_test_divides_by_divisors_of_d_only():
    # two irreducibles of degree 7 at d = 14 (s = 3, K = 9): the root
    # splits at mid = 4, and of the right node's candidates 4..7 only 7
    # divides D = 14, so the tree takes one remainder and one gcd past the
    # root's
    f, want = _counts_of(_irreducibles(3, 7, 2), 3)
    assert ddf_tree_calls(f, 3) == ([want], {"rem": 1, "gcd": 2})
    assert want == {7: 2}


def test_ddf_stack_equals_each_modulus_alone():
    # random monic f at degrees on both sides of the block-size rule, and
    # random shifts c with f - c squarefree: the stack against each f - c
    # alone, with whole residues and limbs, powering and composing
    rng = random.Random(21)
    for p in (3, 7, 101, 100000007):
        for d in (2, 5, 6, 9, 16, 27):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            moduli = [(c, polys.sub(f, [c], p))
                      for c in rng.sample(range(p), min(p, 10))]
            cs = [c for c, g in moduli
                  if polys.gcd(g, polys.deriv(g, p), p) == [1]]
            want = [polys.distinct_degree_counts(g, p)[0] for c, g in moduli
                    if c in cs]
            assert polys.distinct_degree_counts(f, p, cs) == want, (p, d)
    assert polys.distinct_degree_counts([1, 2, 1], 5, []) == []


def test_ddf_leaves_no_reference_cycle(monkeypatch):
    # with the collector off, the call's kernel dies with its last
    # reference only when nothing the call built refers back to itself
    refs = []

    class Kernel(polys.ModulusKernel):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    # the factors first: the modulus search behind _irreducibles builds
    # kernels of its own
    f, want = _counts_of(_irreducibles(7, 1, 3) + _irreducibles(7, 2, 2)
                         + _irreducibles(7, 13, 2), 7)
    monkeypatch.setattr(polys, "ModulusKernel", Kernel)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert polys.distinct_degree_counts(f, 7) == [want]
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()


def _sympy_gcd(a, b, p):
    return [int(c) for c in gf_gcd(a[::-1], b[::-1], p, ZZ)[::-1]]


def _random_poly(rng, p, d):
    """A random polynomial of degree exactly d."""
    return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]


def test_gcd_matches_sympy():
    for p in (13, 10 ** 9 + 7, 10 ** 12 + 39):
        rng = random.Random(p)
        for _ in range(40):
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            a = polys.mul(g, [rng.randrange(p)
                              for _ in range(rng.randrange(1, 25))], p)
            b = polys.mul(g, [rng.randrange(p)
                              for _ in range(rng.randrange(1, 15))], p)
            assert polys.gcd(a, b, p) == _sympy_gcd(a, b, p), p
    # long remainders: common factors up to degree 150 and cofactors up to
    # 250 with independent degrees, so quotients are long and the numpy
    # steps run many steps between reductions below 2^31
    cross = polys.GCD_NUMPY_DEGREE
    for p in (13, 10 ** 9 + 7, 2 ** 31 - 1, 10 ** 12 + 39):
        rng = random.Random(p)
        g = _random_poly(rng, p, 60)
        pairs = [
            (polys.mul(g, _random_poly(rng, p, 200), p), g),  # b | a
            (_random_poly(rng, p, 180), _random_poly(rng, p, 90)),  # coprime
            (_random_poly(rng, p, 120), _random_poly(rng, p, cross)),
            (_random_poly(rng, p, 120), _random_poly(rng, p, cross - 1)),
        ]
        h = _random_poly(rng, p, 10)  # a common factor, divisor at cross
        pairs.append((polys.mul(h, _random_poly(rng, p, 150), p),
                      polys.mul(h, _random_poly(rng, p, cross - 10), p)))
        for _ in range(4):
            g = _random_poly(rng, p, rng.randrange(151))
            pairs.append(tuple(
                polys.mul(g, _random_poly(rng, p, rng.randrange(251)), p)
                for _ in range(2)))
        for a, b in pairs:
            want = _sympy_gcd(a, b, p)
            assert polys.gcd(a, b, p) == want, p
            assert polys.gcd(b, a, p) == want, p
            arrays = np.array(a), np.array(b)
            assert polys.gcd(*arrays, p) == want, p
            assert [x.tolist() for x in arrays] == [a, b]  # not overwritten


def test_gcd_numpy_steps_only_below_2_to_31(monkeypatch):
    seen = []
    np_euclid = polys._np_euclid

    def spy(a, b, p):
        seen.append(p)
        return np_euclid(a, b, p)

    monkeypatch.setattr(polys, "_np_euclid", spy)
    for p in (prevprime(1 << 31), nextprime(1 << 31)):
        rng = random.Random(p)
        g = _random_poly(rng, p, 40)
        a = polys.mul(g, _random_poly(rng, p, 100), p)
        b = polys.mul(g, _random_poly(rng, p, 70), p)
        assert polys.gcd(a, b, p) == _sympy_gcd(a, b, p)
    assert seen == [prevprime(1 << 31)]


def test_modulus_kernel_matches_scalar():
    p = 31
    f = [3, 0, 1, 7, 1]  # monic quartic
    ker = polys.ModulusKernel(f, p)
    a, b = [5, 2, 0, 9], [1, 30, 4, 4]
    got = to_list(ker.mulmod(lift(ker, a), lift(ker, b)))
    want = polys.rem(polys.mul(a, b, p), f, p)
    assert got == want
    got = to_list(ker.powmod(lift(ker, a), 97))
    want = powmod(a, 97, f, p)
    assert got == want
    got = to_list(ker.compose(lift(ker, b), lift(ker, a)))
    want = polys.rem(compose(b, a, p), f, p)
    assert got == want


def test_modulus_kernel_powmod_counts_products():
    # left to right from a: bit_length(e) - 1 squarings and popcount(e) - 1
    # products by a, so 2, 9 and 20 mulmods at e = 3, 47 and 10007
    p = 47
    rng = random.Random(9)
    f = [rng.randrange(p) for _ in range(9)] + [1]
    a = [rng.randrange(p) for _ in range(9)]
    ker = polys.ModulusKernel(f, p)
    calls = []
    mulmod = ker.mulmod

    def counted(*args):
        calls.append(1)
        return mulmod(*args)

    ker.mulmod = counted
    for e, want in ((3, 2), (47, 9), (10007, 20)):
        calls.clear()
        got = to_list(ker.powmod(lift(ker, a), e))
        assert len(calls) == want, e
        assert got == powmod(a, e, f, p), e


def kernel_rows(ker):
    """The rows R_j = x^(d+j) mod f of a ModulusKernel as int lists, their
    limbs recombined."""
    n, d = len(ker.rows), ker.d
    limbs = ker.rows.reshape(n, ker.limbs, d).astype(np.int64)
    weights = np.array([1 << k for k in ker.offsets], dtype=np.int64)
    return (limbs * weights[:, None]).sum(axis=1).tolist()


def check_kernel_rows(f, p):
    """Every row of the kernel of f against x^(d+j) mod f: rows that the
    blocks reduce by the recurrence x R_j = R_(j+1) on the list routines,
    and the first and last row of each of the first two blocks and the
    last row by powering (poly_reference)."""
    ker = polys.ModulusKernel(f, p)
    d = ker.d
    got = kernel_rows(ker)
    assert len(got) == d
    want, r = [], polys.rem([0] * d + [1], f, p)
    for _ in range(d):
        want.append(r + [0] * (d - len(r)))
        r = polys.rem([0] + r, f, p)
    assert got == want, (d, p)
    b = math.isqrt(d - 1) + 1  # the block: ceil(sqrt(d)) rows
    for j in {0, b - 1, b, 2 * b - 1, d - 1} & set(range(d)):
        assert polys.trim(got[j][:]) == powmod([0, 1], d + j, f, p), (d, p, j)


def check_x_power(d, p, shifts, e, rng):
    """ModulusKernel.x_power(e) in every row against x^e mod f - c by
    powering (poly_reference)."""
    f = [rng.randrange(p) for _ in range(d)] + [1]
    ker = polys.ModulusKernel(f, p, shifts)
    got = to_lists(ker.x_power(e))
    for r, fr in enumerate(moduli(ker)):
        assert got[r] == powmod([0, 1], e, fr, p), (d, p, shifts, e, r)


def check_tree_product(d, p, shifts, count, rng):
    """ModulusKernel.tree_product of count residue stacks against their
    product by one mulmod at a time."""
    f = [rng.randrange(p) for _ in range(d)] + [1]
    ker = polys.ModulusKernel(f, p, shifts)
    terms = np.stack([lift(ker, [rng.randrange(p) for _ in range(d)])
                      for _ in range(count)])
    want = terms[0]
    for term in terms[1:]:
        want = ker.mulmod(want, term)
    assert np.array_equal(ker.tree_product(terms), want), (d, p, count)


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


def _schoolbook(a, b, p):
    """a b mod p by the double loop over the coefficients."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return polys.trim([c % p for c in out])


@pytest.mark.parametrize("p", (3, 47, 257, 65521, 10 ** 9 + 7,
                               (1 << 61) - 1))
def test_mul_equals_the_schoolbook_product(p):
    # Kronecker slots from 3 bits to 131, packed by shifts and, for the
    # longer products past p = 3, through bytes; full slots ((p - 1)^2 at every
    # term; at p = 3 and 257, (p - 1)^2 is a power of two), empty and
    # constant factors, entries past p and negative, and products that
    # vanish mod p
    rng = random.Random(p)
    lengths = (0, 1, 2, 3, 5, 8, 31, 32, 33, 100, 257, 300)
    for la, lb in iproduct(lengths, repeat=2):
        a = [rng.randrange(-3 * p, 3 * p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        assert polys.mul(a, b, p) == _schoolbook(a, b, p), (la, lb)
        full = [p - 1] * la
        assert polys.mul(full, full, p) == _schoolbook(full, full, p), la
    assert polys.mul([p, 2 * p], [1, 1], p) == []


@pytest.mark.parametrize("bits", (0, 1 << 62))
def test_mul_packings_agree(bits):
    # every product by shifts alone, then through bytes alone, against the
    # schoolbook product: slots of 2 bits to 16 bytes, full ones too
    rng = random.Random(bits)
    with unittest.mock.patch.object(polys, "MUL_BYTES_BITS", bits):
        for p in (2, 3, 257, 65521, (1 << 61) - 1):
            for la, lb in ((1, 1), (1, 9), (2, 2), (7, 5), (33, 40)):
                a = [rng.randrange(p) for _ in range(la)]
                b = [rng.randrange(p) for _ in range(lb)]
                assert polys.mul(a, b, p) == _schoolbook(a, b, p), (p, la)
                full = [p - 1] * la
                assert polys.mul(full, full, p) == _schoolbook(
                    full, full, p), (p, la)


def test_mul_at_length_4096():
    # the squarefree check's g^2 near DEGREE_CAP, against the direct
    # convolution, exact in int64 at p = 11; full slots too
    rng = random.Random(4096)
    p, n = 11, 4096
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n - 1)]
    for x, y in ((a, b), (a, a), ([p - 1] * n, [p - 1] * n)):
        want = np.convolve(np.array(x, dtype=np.int64),
                           np.array(y, dtype=np.int64)) % p
        assert polys.mul(x, y, p) == polys.trim(want.tolist())


def test_mul_near_the_kernel_bound():
    # the largest p any ModulusKernel takes, 2^51 at degree 1: 13-byte
    # slots, against the schoolbook product
    p = prevprime(_kernel_bound(1) + 1)
    rng = random.Random(p)
    for la, lb in ((1, 1), (2, 300), (300, 299), (64, 64)):
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        assert polys.mul(a, b, p) == _schoolbook(a, b, p), (la, lb)
        full = [p - 1] * la
        assert polys.mul(full, full, p) == _schoolbook(full, full, p), la


DIVISOR_DEGREES = (1, 2, 7, 31, 32, 33, 64, 200)


def check_divmod(p):
    """divmod_ and rem against sympy's gf_div at DIVISOR_DEGREES, with
    dividends shorter than, as long as and longer than the divisor, and
    unreduced entries on one pair."""
    rng = random.Random(p)
    for db in DIVISOR_DEGREES:
        b = _random_poly(rng, p, db)
        for da in (db - 1, db, db + 5, 2 * db, 3 * db + 40):
            a = _random_poly(rng, p, da)
            q, r = gf_div(a[::-1], b[::-1], p, ZZ)
            want = ([int(c) for c in q[::-1]], [int(c) for c in r[::-1]])
            assert polys.divmod_(a, b, p) == want, (p, db, da)
            assert polys.rem(a, b, p) == want[1], (p, db, da)
        # entries off [0, p) and a divisor with zero terms past its top
        a = [c + p * rng.randrange(-3, 4) for c in a]
        assert polys.divmod_(a, b + [p, -p], p) == want, (p, db)


@pytest.mark.parametrize("p", (3, 47, 1000003, prevprime(1 << 31),
                               nextprime(1 << 31), prevprime(1 << 40)))
def test_divmod_on_both_engines(p, monkeypatch):
    # divisors of degree 32 and above divide on int64 numpy below 2^31
    # and on the list loop past it, shorter ones on the list loop
    numpy = []  # the divisor degrees _np_rem divided by
    real = polys._np_rem

    def np_rem(a, b, *rest):
        numpy.append(len(b) - 1)
        return real(a, b, *rest)

    monkeypatch.setattr(polys, "_np_rem", np_rem)
    check_divmod(p)
    assert sorted(set(numpy)) == [
        d for d in DIVISOR_DEGREES
        if d >= polys.GCD_NUMPY_DEGREE and p < 1 << 31]


# T_ell^n, ell^n <= 243 (every factor_sweep degree, and 7, 49), over
# fields for both of rem's division engines
ANNIHILATOR_ITERATES = tuple((ell, n) for ell in (2, 3, 5, 7)
                             for n in range(1, 8) if ell ** n <= 243)
ANNIHILATOR_PRIMES = (3, 5, 7, 13, 47, 1009, 1000003, prevprime(1 << 26),
                      nextprime(1 << 31), prevprime(1 << 40))


@_HYPOTHESIS
@given(data=st.data())
def test_t_squared_minus_4_annihilates_f_mod_f_prime(data):
    # every critical value of T_d is +-2: g = T_d mod T_d' has g^2 = 4,
    # so T_d - t is squarefree (gcd(T_d - t, T_d') = 1) wherever
    # t^2 != 4; T_d -+ 2 both have a repeated root from d = 3 on, and
    # at d = 2 only T_2 + 2 = x^2 does
    ell, n = data.draw(st.sampled_from(ANNIHILATOR_ITERATES),
                       label="(ell, n)")
    p = data.draw(st.sampled_from([q for q in ANNIHILATOR_PRIMES
                                   if q != ell]), label="p")
    ts = data.draw(st.lists(st.integers(0, p - 1), max_size=4), label="ts")
    d = ell ** n
    f = cheb_coeffs(d, p)
    df = polys.deriv(f, p)
    g = polys.rem(f, df, p)
    assert polys.rem(polys.mul(g, g, p), df, p) == [4 % p]
    for t in ts + [2, p - 2]:
        squarefree = polys.gcd(polys.sub(f, [t], p), df, p) == [1]
        if (t * t - 4) % p:
            assert squarefree, t
        else:
            assert squarefree == (d == 2 and t == 2), t


@_HYPOTHESIS
@given(data=st.data(), d=st.sampled_from(range(1, 82)),
       rng=st.randoms(use_true_random=True))
def test_modulus_kernel_exact_up_to_its_bound(data, d, rng):
    # the handoffs are drawn below, at and above d and the row count, so
    # the kernel's products run on both engines of _product; the shifts
    # are random, 0 among them, so rows reduce by R alone and by R + c Q
    handoff = data.draw(st.sampled_from(
        (max(d - 1, 1), d, d + 1, polys.FFT_LENGTH)), label="handoff")
    p = data.draw(_prime_upto(_kernel_bound(d)), label="p")
    shifts = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, p - 1)),
                                min_size=1, max_size=3), label="shifts")
    fft_rows = data.draw(st.sampled_from(
        (1, len(shifts), len(shifts) + 1)), label="fft rows")
    f = [rng.randrange(p) for _ in range(d)] + [1]
    a, b = ([rng.randrange(p) for _ in range(d)] for _ in range(2))
    e = data.draw(st.integers(0, 1 << 64), label="e")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "FFT_LENGTH", handoff)
        mp.setattr(polys, "FFT_ROWS", fft_rows)
        ker = polys.ModulusKernel(f, p, shifts)
        A, B = lift(ker, a), lift(ker, b)
        ab, ae, ab_of = (to_lists(ker.mulmod(A, B)), to_lists(ker.powmod(A, e)),
                         to_lists(ker.compose(A, B)))
    for r, fr in enumerate(moduli(ker)):
        assert fr == polys.sub(f, [shifts[r]], p)
        assert ab[r] == polys.rem(polys.mul(a, b, p), fr, p), r
        assert ae[r] == powmod(a, e, fr, p), r
        assert ab_of[r] == _compose_mod(a, b, fr, p), r


@_HYPOTHESIS
@given(data=st.data(), rng=st.randoms(use_true_random=True))
def test_kernel_rows_blocked_equal_powers_of_x(data, rng):
    # R_0 .. R_(d-1) a block of b = ceil(sqrt(d)) rows at a time, with d
    # not a multiple of b, so the last block is short; p on both sides of
    # limb_width's bound (d + 1) p^2 <= 2^53, and up to the kernel's
    d = data.draw(st.integers(3, 160).filter(
        lambda d: d % (math.isqrt(d - 1) + 1)), label="d")
    whole = math.isqrt((1 << 53) // (d + 1))
    p = data.draw(st.one_of(
        st.sampled_from((3, prevprime(whole + 1), nextprime(whole))),
        _prime_upto(_kernel_bound(d))), label="p")
    assert polys.limb_width(d, p) == 0 or p > whole
    check_kernel_rows([rng.randrange(p) for _ in range(d)] + [1], p)


def test_kernel_rows_blocked_at_small_degrees():
    # every degree up to 40, one block or many, at p = 5 and with limbs
    rng = random.Random(40)
    for d in range(1, 41):
        for p in (5, 10 ** 9 + 7):
            check_kernel_rows([rng.randrange(p) for _ in range(d)] + [1], p)


def test_modulus_kernel_x_power_counts_products():
    # x^e from the monomial x^e0, e0 the longest prefix of e's bits below
    # d, and one squaring a further bit; the products by x are folded in
    # without a mulmod.  At d = 10: e = 47 = 101111b has e0 = 101b = 5, so
    # 3 mulmods (9 for powmod(x, 47)); e = 3 < d none; e = 10007 =
    # 10011100010111b has e0 = 1001b = 9, so 10
    p = 47
    rng = random.Random(10)
    f = [rng.randrange(p) for _ in range(10)] + [1]
    ker = polys.ModulusKernel(f, p, (0, 5))
    calls = []
    mulmod = ker.mulmod

    def counted(*args):
        calls.append(1)
        return mulmod(*args)

    ker.mulmod = counted
    for e, want in ((47, 3), (3, 0), (10, 1), (10007, 10)):
        calls.clear()
        got = to_lists(ker.x_power(e))
        assert len(calls) == want, e
        for r, fr in enumerate(moduli(ker)):
            assert got[r] == powmod([0, 1], e, fr, p), (e, r)


def test_modulus_kernel_x_power_exact():
    # whole residues and limbs, shifted rows among them, degree 1 up
    rng = random.Random(11)
    for d in (1, 2, 3, 9, 10, 33):
        for p in (3, 47, 10 ** 9 + 7, prevprime(_kernel_bound(d))):
            for e in {1, d - 1, d, p % (1 << 24), rng.randrange(1, 1 << 24)}:
                if e >= 1:
                    check_x_power(d, p, (0, p - 1, rng.randrange(p)), e, rng)


def x_power_rule_holds(d, p):
    """One-row x_power(p) at degree d runs on ints exactly where
    INT_POWER_DEGREE puts it (no mulmod; its last entry for more limbs),
    a two-row stack always on the float mulmod; every row against
    powering on the list routines.  Returns the limb count."""
    rng = random.Random(d * p)
    f = [rng.randrange(p) for _ in range(d)] + [1]
    rule = polys.INT_POWER_DEGREE
    for shifts in ((0,), (0, 1)):
        ker = polys.ModulusKernel(f, p, shifts)
        ints = len(shifts) == 1 and d <= rule[min(ker.limbs, len(rule)) - 1]
        calls = []
        mulmod = ker.mulmod
        ker.mulmod = lambda *args: calls.append(1) or mulmod(*args)
        got = to_lists(ker.x_power(p))
        assert (not calls) == ints, (d, p, shifts, len(calls))
        for r, fr in enumerate(moduli(ker)):
            assert got[r] == powmod([0, 1], p, fr, p), (d, p, r)
    return ker.limbs


def test_x_power_engine_follows_the_rule():
    # every degree from 1 to 12 at one, two and three limbs, and at five
    # to seven
    limbs = {x_power_rule_holds(d, p)
             for p in (1000003, 10 ** 9 + 7, (1 << 36) + 31, (1 << 42) + 15)
             for d in range(1, 13)}
    assert limbs == {1, 2, 3, 5, 6, 7}


@_HYPOTHESIS
@given(st.data())
def test_x_power_engines_agree(data):
    # one row on the engine of the rule, then on ints at every degree;
    # the float kernel's row from a two-row stack with the same first
    # modulus; all against powering on the list routines.  p is drawn up
    # to the kernel bound, so one, two and three limbs or more occur
    d = data.draw(st.integers(1, 12), label="d")
    p = data.draw(_prime_upto(_kernel_bound(d)), label="p")
    e = data.draw(st.one_of(st.just(p), st.integers(1, 1 << 64)), label="e")
    c = data.draw(st.integers(0, p - 1), label="c")
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    f = [rng.randrange(p) for _ in range(d)] + [1]
    (fc,) = moduli(polys.ModulusKernel(f, p, (c,)))
    want = powmod([0, 1], e, fc, p)
    stack = polys.ModulusKernel(f, p, (c, (c + 1) % p))
    assert to_lists(stack.x_power(e))[0] == want
    rule = polys.INT_POWER_DEGREE
    for bound in (rule, (12,) * len(rule)):
        with unittest.mock.patch.object(polys, "INT_POWER_DEGREE", bound):
            one = polys.ModulusKernel(f, p, (c,)).x_power(e)
        assert one.shape == (1, d) and one.dtype == np.float64
        assert to_list(one) == want, (d, p, e, c, bound)


def test_tree_product_equals_one_product_at_a_time():
    # odd and even counts at every level, one row and shifted rows, on
    # both engines of _product (FFT_ROWS counts the rows of the stack)
    rng = random.Random(12)
    for count in range(1, 10):
        for d, p, shifts in ((9, 31, (0,)), (9, 10 ** 9 + 7, (0, 7)),
                             (81, 47, (0, 3, 46))):
            check_tree_product(d, p, shifts, count, rng)


def test_modulus_kernel_unreduced_feed_at_its_bound():
    # the product enters the rows unreduced while d^2 (p - 1)^3 <= 2^53;
    # primes on both sides of that bound and past it, all entries p - 1,
    # and a second row shifted by p - 1, whose Q rows reduce the same feed
    for d in (9, 81):
        top = 1 + round(((1 << 53) / (d * d)) ** (1 / 3))
        while d * d * (top - 1) ** 3 > 1 << 53:
            top -= 1
        for p in (prevprime(top + 1), nextprime(top), nextprime(8 * top)):
            f = [p - 1] * d + [1]
            a = [p - 1] * d
            ker = polys.ModulusKernel(f, p, (0, p - 1))
            assert ker.lazy == (p <= top)
            A = lift(ker, a)
            want = [polys.rem(polys.mul(a, a, p), fr, p) for fr in moduli(ker)]
            assert to_lists(ker.mulmod(A, A)) == want, (d, p)
            # x a, a of degree d, times a: d high terms, d - j in the j-th
            xa = np.concatenate((np.zeros((len(A), 1)), A), axis=-1)
            assert to_lists(ker.mulmod(xa, A)) == [
                polys.rem(polys.mul([0] + a, a, p), fr, p)
                for fr in moduli(ker)], (d, p)
            # one modulus runs on a one-row stack
            assert to_list(ker.row(0).mulmod(A[:1], A[:1])) == want[0], (
                d, p)


def test_modulus_kernel_above_the_fft_length():
    # whole residues and limbs on the rfft engine, and a p beyond any FFT
    # limb, which the direct engine takes; a second row shifted by p - 1
    d = polys.FFT_LENGTH + 37
    for p in (3, 10 ** 6 + 3, 10 ** 9 + 7, prevprime(_kernel_bound(d))):
        rng = random.Random(p)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        a, b = ([rng.randrange(p) for _ in range(d)] for _ in range(2))
        ker = polys.ModulusKernel(f, p, (0, p - 1))
        A, B = lift(ker, a), lift(ker, b)
        ab = [polys.rem(polys.mul(a, b, p), fr, p) for fr in moduli(ker)]
        assert to_lists(ker.mulmod(A, B)) == ab, p
        assert to_lists(ker.powmod(A, 3))[0] == powmod(a, 3, f, p), p
    assert polys.fft_limb_width(d, d, 3) == 0
    assert polys.fft_limb_width(d, d, 10 ** 9 + 7) >= 1
    assert polys.fft_limb_width(d, d, prevprime(_kernel_bound(d))) is None


@_HYPOTHESIS
@given(data=st.data(), d=st.integers(1, 300),
       rng=st.randoms(use_true_random=True))
def test_gcd_exact_up_to_the_kernel_bound(data, d, rng):
    p = data.draw(_prime_upto(_kernel_bound(d)), label="p")
    e = data.draw(st.integers(0, d), label="common degree")
    m = data.draw(st.integers(e, 300), label="deg b")
    g = _random_poly(rng, p, e)
    a = polys.mul(g, _random_poly(rng, p, d - e), p)
    b = polys.mul(g, _random_poly(rng, p, m - e), p)
    assert polys.gcd(a, b, p) == _sympy_gcd(a, b, p)


@_HYPOTHESIS
@given(data=st.data(),
       handoff=st.sampled_from((1, 2, 16, 100, polys.FFT_LENGTH)),
       rng=st.randoms(use_true_random=True))
def test_convolve_mod_exact(data, handoff, rng):
    # the shorter length lands below, at or above the handoff, the stack
    # below or at FFT_ROWS, and p runs up to the direct engine's bound,
    # past every FFT limb width
    m = max(1, handoff + data.draw(st.sampled_from((-1, 0, 1)), label="m"))
    n = data.draw(st.integers(m, m + 300), label="n")
    rows = data.draw(st.sampled_from((1, 2, polys.FFT_ROWS)), label="rows")
    p = data.draw(_prime_upto(_kernel_bound(m)), label="p")
    a = [[rng.randrange(p) for _ in range(m)] for _ in range(rows)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(rows)]
    if data.draw(st.booleans(), label="swap"):
        a, b = b, a
    want = [(np.convolve(np.array(x, dtype=object),
                         np.array(y, dtype=object)) % p).tolist()
            for x, y in zip(a, b)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "FFT_LENGTH", handoff)
        got = polys._mod(polys._product(np.array(a, dtype=np.float64),
                                        np.array(b, dtype=np.float64), p), p)
    assert got.tolist() == want


def test_fft_limb_width_is_the_widest_under_its_bound():
    # Percival's factor with twiddle error 2^-52 stays below the stated
    # (16k + 3) 2^-53, and fft_limb_width is the widest limb under it
    eps, root5 = Fraction(1, 1 << 53), Fraction(22360679775, 10 ** 10)
    for k in range(1, 24):
        factor = ((1 + eps) ** (3 * k) * (1 + eps * root5) ** (3 * k + 1)
                  * (1 + 2 * eps) ** (3 * k) - 1)
        assert factor < (16 * k + 3) * eps, k
    # p log-uniform below the kernel bound, so that each of the three
    # outcomes (whole, limbs, no safe limb) is drawn often
    rng = random.Random(5)
    outcomes = {"whole": 0, "limbs": 0, "none": 0}
    for _ in range(300):
        m = rng.choice((1, 2, 511, 512, 513, 4096, rng.randrange(1, 5000)))
        n = m + rng.randrange(5000)
        p = nextprime(int(2 ** rng.uniform(1.6, math.log2(_kernel_bound(m)))))
        c = 16 * (m + n - 2).bit_length() + 3

        def fits(top):  # limbs up to top keep the error under 1/2
            return m * n * (top * (p - 1) * c) ** 2 < 1 << 104

        w = polys.fft_limb_width(m, n, p)
        if w == 0:
            outcomes["whole"] += 1
            assert fits(p - 1)
        elif w is None:
            outcomes["none"] += 1
            assert not fits(1)
        else:
            outcomes["limbs"] += 1
            assert not fits(p - 1) and fits((1 << w) - 1), (m, n, p, w)
            assert not fits((1 << (w + 1)) - 1), (m, n, p, w)
    assert min(outcomes.values()) >= 20, outcomes


def test_fft_rounding_margin_on_all_maximal_inputs():
    # Percival's bound is proved for a radix-2 complex FFT; this checks the
    # margin numpy's real transforms leave at the chosen widths, at the
    # handoff and at degrees 2048 and 4096 (lengths 2^11, 2^12 and 2^13):
    # every limb 2^w - 1 (every residue p - 1 when whole) against residues
    # p - 1, the largest inputs the width allows
    for d in (polys.FFT_LENGTH, 2048, 4096):
        size = 1 << (2 * d - 2).bit_length()
        c = 16 * (2 * d - 2).bit_length() + 3
        whole = prevprime(math.isqrt((1 << 52) // (d * c)))
        one_bit = prevprime((1 << 52) // (d * c))
        for p in (3, whole, 10 ** 6 + 3, 10 ** 9 + 7, one_bit):
            w = polys.fft_limb_width(d, d, p)
            top = p - 1 if w == 0 else (1 << w) - 1
            got = np.fft.irfft(np.fft.rfft(np.full(d, float(top)), size)
                               * np.fft.rfft(np.full(d, float(p - 1)), size),
                               size)[:2 * d - 1]
            k = np.arange(1, 2 * d)
            exact = top * (p - 1) * np.minimum(k, 2 * d - k).astype(float)
            assert np.abs(got - exact).max() < 1 / 8, (d, p, w)
    assert polys.fft_limb_width(4096, 4096, 3) == 0
    assert polys.fft_limb_width(4096, 4096, one_bit) == 1


def test_floor_reduction_exact_up_to_2_to_53():
    rng = random.Random(53)
    top = 1 << 53
    for p in (3, 47, 10 ** 9 + 7, prevprime(1 << 40), prevprime(1 << 52),
              nextprime(rng.randrange(1 << 30))):
        xs = [0, 1, p - 1, p, p + 1, top - 1, top, top // p * p,
              top // p * p - 1, *(rng.randrange(top + 1) for _ in range(2000)),
              *(-rng.randrange(1, p) for _ in range(200))]  # differences
        got = polys._mod(np.array(xs, dtype=np.float64), p)
        assert got.tolist() == [x % p for x in xs], p


def test_modulus_kernel_refuses_beyond_its_bound():
    for d in (1, 9, 81):
        f = [1] * d + [1]
        polys.ModulusKernel(f, prevprime(_kernel_bound(d) + 1))
        with pytest.raises(ValueError, match="bound"):
            polys.ModulusKernel(f, nextprime(_kernel_bound(d)))
