import random
import tracemalloc

import numpy as np
import pytest
import sympy

from chebdyn import ffield
from chebdyn.ffield import (MINUS, PLUS, FactoredInt, FFElem, FieldCtx,
                            alpha_order, element_degree, factor_int,
                            is_prime, make_field)
from order_reference import (QuadElem, lift_alpha, mult_order,
                             reference_alpha_order, walk_order_tables)


def order_tables(ctx):
    """The per-element (order, branch) tables, decoded from the class ids
    of ctx.alpha_order_tables()."""
    ids, order, branch = ctx.alpha_order_tables()
    return order[ids], branch[ids]


# -- integer factorization ---------------------------------------------------

def trial_factor(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factor_int_examples():
    assert factor_int(54).factors == ((2, 1), (3, 3))
    assert factor_int(1).factors == ()
    assert factor_int(53 * 53 - 1).factors == trial_factor(2808)
    assert str(factor_int(2808)) == "2^3*3^3*13"


def test_factor_int_against_trial_division():
    for n in list(range(1, 2000)) + [10**9 + 7, 2**32 - 1, 3 * 5 * 7 * 11 ** 3,
                                     999983 * 999979]:
        assert factor_int(n).factors == trial_factor(n), n


def test_factor_int_large_deterministic():
    n = 2**64 + 1
    f1 = factor_int(n)
    f2 = factor_int(n)
    assert f1 == f2
    assert f1.value == n
    assert all(is_prime(q) for q in f1.primes)


def test_factor_int_errors():
    with pytest.raises(ValueError):
        factor_int(0)
    with pytest.raises(ValueError):
        factor_int(-6)
    with pytest.raises(ValueError, match=r"97-bit integer exceeds the 2\^96"):
        factor_int(1 << 96)


def test_factored_int_validation():
    with pytest.raises(ValueError):
        FactoredInt(((4, 1),))  # 4 not prime
    with pytest.raises(ValueError):
        FactoredInt(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        FactoredInt(((2, 0),))  # exponent < 1


def test_factored_int_helpers():
    f = factor_int(360)
    assert f.value == 360
    assert f.nu(2) == 3 and f.nu(3) == 2 and f.nu(7) == 0
    assert [d.value for d in f.divisors()][:6] == [1, 2, 3, 4, 5, 6]
    assert len(list(f.divisors())) == 24


def test_divisors_are_factored_and_ascending():
    for n in (360, 5 ** 40 - 1, 5 ** 40 + 1, 7 ** 30 - 1, 7 ** 30 + 1):
        divs = list(factor_int(n).divisors())
        assert [d.value for d in divs] == sympy.divisors(n), n
        for d in divs:
            assert d == factor_int(d.value), (n, d)


def test_divisors_and_phi_prove_no_prime_again(monkeypatch):
    # a divisor's primes are its parent's, and phi's are those and the
    # primes of r - 1 (factored once per r), all proven already
    f = factor_int(5 ** 40 - 1)
    want = [(d, d.phi()) for d in f.divisors()]  # factors each r - 1 once
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(ffield, "is_prime", counting)
    divs = list(f.divisors())
    assert calls == []
    phis = [d.phi() for d in divs]
    assert calls == []
    assert list(zip(divs, phis)) == want
    # a FactoredInt built from outside still proves its primes
    FactoredInt(((3, 1), (7, 2)))
    assert calls == [3, 7]


def test_phi_matches_sympy_totient():
    for d in range(1, 5001):
        assert factor_int(d).phi().value == sympy.totient(d), d
    for n in (5 ** 40 - 1, 5 ** 40 + 1, 7 ** 30 - 1, 7 ** 30 + 1):
        for d in factor_int(n).divisors():
            phi = d.phi()
            assert phi.value == sympy.totient(d.value), (n, d)
            assert phi == factor_int(phi.value), (n, d)


def test_is_prime():
    small = [2, 3, 5, 7, 11, 13, 981168724994134051]
    for n in small:
        assert is_prime(n)
    for n in [0, 1, 4, 561, 1105, 2465, 252601, 3215031751]:  # Carmichaels too
        assert not is_prime(n)


# psi_k, the least strong pseudoprime to all of the first k prime bases
# (OEIS A014233), written out here apart from the package's table
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051,
       318665857834031151167461, 3317044064679887385961981)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """Whether odd n passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_bases_stop_at_psi_k():
    # each psi_k is composite, passes the first k bases, and is refused:
    # is_prime takes k bases only below psi_k.  Around each psi_k, and on
    # 200 n drawn in each band [psi_(k-1), psi_k), half of them primes,
    # is_prime equals sympy (read off the module, as a mutant replaces it)
    for k, psi in enumerate(PSI, 1):
        assert not sympy.isprime(psi), k
        assert all(strong_probable_prime(psi, a) for a in BASES[:k]), k
        assert not ffield.is_prime(psi), k
        for n in range(psi - 2, psi + 3):
            assert ffield.is_prime(n) == sympy.isprime(n), (k, n)
    rng = random.Random(14)
    for lo, hi in zip((43,) + PSI, PSI):
        for i in range(200 if lo < hi else 0):
            n = rng.randrange(lo, hi)
            if i % 2:
                n = sympy.prevprime(n) if n > lo + 2 else sympy.nextprime(n)
            assert ffield.is_prime(n) == sympy.isprime(n), n


def test_factor_int_proves_each_prime_once(monkeypatch):
    # _factor_map proves r by Pocklington's theorem (r past PSI_13), and
    # factor_int builds its result with no second proof; r - 1 comes
    # factored, so no Brent's rho runs
    r = 39075940546423832638766073383
    factored = FactoredInt(((2, 1), (138294529740821, 1),
                            (141277968910471, 1)))
    below, proofs = ffield._factor_below, []

    def pocklington(n, proof=ffield._pocklington):
        proofs.append(n)
        return proof(n)

    monkeypatch.setattr(ffield, "_factor_below",
                        lambda q: factored if q == r else below(q))
    monkeypatch.setattr(ffield, "_pocklington", pocklington)
    assert factor_int(2 * r) == FactoredInt._proven(((2, 1), (r, 1)))
    assert proofs == [r]


def test_factored_int_refuses_malformed_input():
    # outside callers still have their factorizations checked
    with pytest.raises(ValueError, match="4 is not prime"):
        FactoredInt(((2, 1), (4, 1)))
    with pytest.raises(ValueError, match="malformed"):
        FactoredInt(((3, 1), (2, 1)))
    with pytest.raises(ValueError, match="malformed"):
        FactoredInt(((3, 0),))


def test_is_prime_equals_sympy_past_psi13():
    # PSI_13 passes Miller-Rabin on all 13 bases, so from it on a pass is
    # proven by Pocklington's theorem; 3825123056546413051 passes the
    # bases 2..31 and base 37 rejects it.  Drawn primes and semiprimes
    # (a 48-bit prime times a larger one below 2^48) in [PSI_13, 2^96)
    psi = ffield.PSI_13
    assert factor_int(psi) == FactoredInt(((1287836182261, 1),
                                           (2575672364521, 1)))
    rng = random.Random(13)
    cases = [psi, 3825123056546413051]
    for _ in range(8):
        cases.append(sympy.nextprime(rng.randrange(psi, 1 << 96)))
        r = sympy.nextprime(rng.randrange(1 << 47, 1 << 48))
        cases.append(r * sympy.nextprime(rng.randrange(-(-psi // r), 1 << 48)))
    for n in cases:
        assert psi <= n < 1 << 96 or n == 3825123056546413051, n
        assert is_prime(n) == sympy.isprime(n), n


def test_pocklington_refuses_without_a_witness():
    # the Carmichael number 1171 * 2341 * 3511 = (6k + 1)(12k + 1)(18k + 1),
    # k = 195: lambda(n) = 36k divides (n - 1) / 2, so every base prime to
    # n has a^((n-1)/2) = 1, and its least prime, 1171, lies past the
    # base bound 2 (ln n)^2 = 1057
    n = 1171 * 2341 * 3511
    with pytest.raises(ValueError, match="primality of 9624742921 unproven"):
        ffield._pocklington(n)
    assert not is_prime(n)  # Miller-Rabin rejects it below PSI_13


# -- field construction ------------------------------------------------------

def brute_irreducible(coeffs, p):
    """No factor of degree <= deg/2, checked by trial division over all
    monic candidates."""
    from itertools import product as iproduct
    from chebdyn import polys
    f = list(coeffs) + [1]
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for tup in iproduct(range(p), repeat=d):
            if not polys.rem(f, list(tup) + [1], p):
                return False
    return True


def test_make_field_examples():
    f53 = make_field(53, 1)
    assert str(f53.order_minus) == "2^2*13"
    assert str(f53.order_plus) == "2*3^3"
    f3 = make_field(3, 1)
    assert f3.order_minus.value == 2 and f3.order_plus.value == 4


def test_make_field_f81_modulus_is_lex_smallest():
    from itertools import product as iproduct
    f34 = make_field(3, 4)
    assert str(f34.order_minus) == "2^4*5"
    assert str(f34.order_plus) == "2*41"
    cases = ([(3, n) for n in range(2, 7)] + [(5, n) for n in range(2, 5)]
             + [(7, 2), (7, 3)])
    for p, n in cases:
        first = next(tup for tup in iproduct(range(p), repeat=n)
                     if brute_irreducible(tup, p))
        assert make_field(p, n).modulus == first, (p, n)


# Moduli (c_0..c_(n-1)) of the lex-smallest monic irreducibles, recorded
# with Rabin's irreducibility test, a method independent of the
# distinct-degree split that picks them now.
PINNED_MODULI = {
    (3, 2): (1, 0),
    (3, 3): (1, 0, 2),
    (3, 4): (1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2),
    (3, 6): (1, 0, 0, 0, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2),
    (3, 14): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (3, 15): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    (3, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0),
    (5, 2): (1, 1),
    (5, 3): (1, 0, 1),
    (5, 4): (1, 0, 1, 1),
    (5, 5): (1, 0, 0, 0, 4),
    (5, 6): (1, 0, 0, 0, 1, 1),
    (5, 7): (1, 0, 0, 0, 0, 0, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0),
    (5, 9): (1, 0, 0, 0, 0, 0, 0, 2, 3),
    (5, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 2),
    (7, 2): (1, 0),
    (7, 3): (1, 0, 1),
    (7, 4): (1, 0, 0, 1),
    (7, 5): (1, 0, 0, 0, 3),
    (7, 6): (1, 0, 0, 0, 1, 0),
    (13, 4): (1, 0, 0, 1),
    (53, 5): (1, 0, 0, 0, 3),
    (2053, 2): (1, 3),
    (3, 29): (1,) + (0,) * 24 + (1, 0, 1, 0),
}


def test_make_field_moduli_are_pinned():
    # fresh contexts, so the modulus search runs whatever the cache holds
    for (p, n), want in PINNED_MODULI.items():
        assert make_field.__wrapped__(p, n).modulus == want, (p, n)


def test_make_field_deterministic():
    a = make_field(7, 3)
    b = make_field(7, 3)
    assert a is b  # cached pure function
    assert a.modulus == b.modulus


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(2, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)


# -- element arithmetic ------------------------------------------------------

def test_encode_decode_roundtrip():
    ctx = make_field(5, 3)
    for i in range(ctx.q):
        assert ctx.decode(i).index == i


def test_field_axioms_sampled():
    ctx = make_field(3, 4)
    elems = [ctx.decode(i) for i in range(ctx.q)]
    sample = elems[::7] + elems[:5]
    for a in sample:
        for b in sample[:6]:
            assert (a + b) - b == a
            assert a * b == b * a
            for c in sample[:3]:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in elems[1:]:
        assert a * a.inverse() == ctx.one()


def test_mult_order_examples():
    ctx = make_field(53, 1)
    assert mult_order(ctx.one(), ctx.order_minus).value == 1
    assert mult_order(-ctx.one(), ctx.order_minus).value == 2
    # root of y^2 + 1 in the quadratic ring over F_53 (a = 0)
    alpha = QuadElem(ctx.from_int(0), ctx.from_int(0), ctx.one())
    sq = alpha * alpha
    assert sq.u == ctx.from_int(-1) and sq.v.is_zero()
    assert (sq * sq).u == ctx.one()
    assert mult_order(alpha, factor_int(4)).value == 4


def test_mult_order_wrong_group():
    ctx = make_field(53, 1)
    with pytest.raises(ValueError):
        # 2^10 = 17 mod 53, so 10 is not a multiple of ord(2)
        mult_order(ctx.from_int(2), factor_int(10))


def test_lift_alpha_examples():
    ctx = make_field(53, 1)
    al, br = lift_alpha(ctx.from_int(2))
    assert al == ctx.one() and br == MINUS
    al, br = lift_alpha(ctx.from_int(-2))
    assert al == -ctx.one() and br == MINUS
    al, br = lift_alpha(ctx.from_int(0))
    assert br == MINUS  # 4 divides 52
    assert mult_order(al, ctx.order_minus).value == 4


def test_lift_alpha_root_property():
    for (p, n) in ((53, 1), (3, 4), (7, 2)):
        ctx = make_field(p, n)
        for i in range(0, ctx.q, max(1, ctx.q // 50)):
            a = ctx.decode(i)
            al, br = lift_alpha(a)
            if br == MINUS and isinstance(al, FFElem):
                assert al * al - a * al + ctx.one() == ctx.from_int(0)
            else:
                # alpha^2 = a*alpha - 1 in the quadratic ring
                prod = al * al
                assert prod.u == a * al.u - ctx.one()
                assert prod.v == a * al.v


def test_trace_correspondence_counts():
    for (p, n, ell) in ((3, 4, 2), (53, 1, 3), (7, 2, 3), (3, 10, 2)):
        ctx = make_field(p, n)
        ords, branch = order_tables(ctx)
        from collections import Counter
        counts = Counter(int(o) for o in ords)
        for d, c in counts.items():
            if d <= 2:
                assert c == 1
            else:
                assert c == factor_int(d).phi().value // 2, (p, n, d)
        total = sum(counts.values())
        assert total == ctx.q


def test_element_degree_examples():
    ctx1 = make_field(53, 1)
    for i in range(53):
        assert element_degree(ctx1.decode(i)) == 1
    ctx = make_field(3, 4)
    ords, _ = order_tables(ctx)
    for i in range(ctx.q):
        if ords[i] == 5:
            assert element_degree(ctx.decode(i)) == 2
        if ords[i] == 41:
            assert element_degree(ctx.decode(i)) == 4


def test_frobenius_consistency():
    for (p, n) in ((3, 4), (5, 3), (7, 2), (3, 2), (7, 1)):
        ctx = make_field(p, n)
        fr = ctx.frobenius_indices()
        for i in range(ctx.q):
            j, m = int(fr[i]), 1
            while j != i:
                j, m = int(fr[j]), m + 1
            assert element_degree(ctx.decode(i)) == m


def test_order_degree_link():
    # weight is the least m with ord(alpha) dividing p^m - 1 or p^m + 1
    for (p, n) in ((3, 4), (5, 2), (7, 2)):
        ctx = make_field(p, n)
        for i in range(ctx.q):
            a = ctx.decode(i)
            ordv, _ = alpha_order(a)
            m = 1
            while (p ** m - 1) % ordv and (p ** m + 1) % ordv:
                m += 1
            assert m == element_degree(a), (p, n, i)


def test_alpha_order_table_matches_per_element():
    # (3, 1) and (3, 2) walk 2 to 6 exponents a side; at n = 2 the
    # full-order search skips the subfield F_p
    for (p, n) in ((13, 1), (5, 2), (3, 4), (7, 3), (3, 1), (3, 2), (5, 3),
                   (31, 2)):
        ctx = make_field(p, n)
        ords, branch = order_tables(ctx)
        for i in range(ctx.q):
            want = reference_alpha_order(ctx.decode(i))
            assert (int(ords[i]), MINUS if branch[i] == 0 else PLUS) == want


def test_alpha_order_of_embedded_residues_above_table_cap():
    # 53^5 exceeds the walk-table cap, so F_{53^5} never holds tables and
    # its orders come from the T_d ladder; the order of a lifted root does
    # not depend on the ambient field, so embedded residues must agree
    # with F_53
    big = make_field(53, 5)
    assert big.q > FieldCtx.TABLE_CAP
    small = make_field(53, 1)
    for i in range(53):
        o_small, _ = alpha_order(small.from_int(i))
        o_big, _ = alpha_order(big.from_int(i))
        assert o_small == o_big, i


def test_alpha_order_ladder_matches_walk_tables():
    # alpha_order takes the T_d ladder and leaves no table on a fresh
    # context; the walk tables built afterwards are the reference.  Both
    # sides of the last two fields walk more than one block of exponents,
    # the last one partial; about 2000 of their elements are compared
    for (p, n) in ((13, 1), (5, 2), (3, 4), (7, 3), (11, 2), (53, 1),
                   (145007, 1), (7, 6)):
        ctx = make_field.__wrapped__(p, n)
        step = max(1, ctx.q // 2000)
        assert step == 1 or (ctx.q - 1) // 2 >= FieldCtx.BLOCK
        idx = range(0, ctx.q, step)
        got = [alpha_order(ctx.decode(i)) for i in idx]
        assert "alpha" not in ctx._cache
        ords, branch = order_tables(ctx)
        want = [(int(ords[i]), MINUS if branch[i] == 0 else PLUS)
                for i in idx]
        assert got == want, (p, n)


@pytest.mark.parametrize("p,n", [(145007, 1), (3, 10)])
def test_order_tables_hold_two_bytes_an_element(p, n):
    # a context keeps one uint16 class id per element and an int32 order
    # and an int8 branch per class; the bound's 16 bytes a class and 32 KiB
    # cover the array headers and what the walk's Python objects leave on
    # the interpreter's free lists (3-11 KB held beyond 2 q at F_145007,
    # varying with the tests run before).  Per-element int32 orders and
    # int8 branches held 5 bytes an element
    ctx = make_field.__wrapped__(p, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classes = ctx.alpha_order_tables()[1].size
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 * ctx.q + 16 * classes + 32768, (held, classes)


def test_order_tables_number_classes_by_order_and_branch():
    # the classes are the divisors of q - 1 (branch 0) and those of q + 1
    # above 2 (branch 1), in ascending (order, branch), none empty
    for (p, n) in ((53, 1), (3, 4), (7, 3)):
        ctx = make_field(p, n)
        ids, order, branch = ctx.alpha_order_tables()
        want = sorted([(d.value, 0) for d in ctx.order_minus.divisors()]
                      + [(d.value, 1) for d in ctx.order_plus.divisors()
                         if d.value > 2])
        assert list(zip(order.tolist(), branch.tolist())) == want, (p, n)
        assert ids.dtype == np.uint16
        assert np.bincount(ids, minlength=order.size).all(), (p, n)


def test_order_tables_refuse_a_side_of_2_15_divisors():
    # uint16 ids hold fewer than 2^15 classes a side, which tau(m) <=
    # 2 sqrt(m) guarantees at TABLE_CAP; a side of 15 distinct primes has
    # 2^15 divisors and is refused before the walk
    primes = [r for r in range(2, 48) if is_prime(r)]
    ctx = FieldCtx(3, 1, (0,), FactoredInt(tuple((r, 1) for r in primes)),
                   factor_int(4))
    with pytest.raises(ValueError, match="2\\^15"):
        ctx.alpha_order_tables()


@pytest.mark.parametrize("ell,p,n", [(3, 53, 1), (3, 5, 2), (2, 3, 4)])
def test_closed_form_route_ignores_the_walk_tables(ell, p, n):
    # build_graph leaves the walk tables that label the graph on the
    # shared context; after it, and with one class order changed in them,
    # alpha_order and the routes on it must still give a fresh context's
    # T_d ladder answer at every element, or criterion 04 and verify would
    # check the tables against themselves.  alpha_order is looked up on
    # its module, so that a replacement patched there is the one called
    from chebdyn.factor import classify_t
    from chebdyn.graph import build_graph, orbit_stats_order

    def answers(ctx):
        return [(ffield.alpha_order(a), orbit_stats_order(a, ell))
                + ((classify_t(ell, p, i),) if n == 1 else ())
                for i, a in enumerate(map(ctx.decode, range(ctx.q)))]

    want = answers(make_field.__wrapped__(p, n))
    ctx = make_field(p, n)
    build_graph(ell, ctx)
    assert answers(ctx) == want
    tables = ids, order, branch = ctx._cache["alpha"]
    bad = order.copy()
    bad[ids[5]] = order[ids[5]] * ell
    ctx._cache["alpha"] = (ids, bad, branch)
    try:
        got = answers(ctx)
    finally:
        ctx._cache["alpha"] = tables
    assert got == want


def test_alpha_order_builds_no_table_between_2e7_and_table_cap():
    # one walk table at p ~ 3e7 would need about 2.8 GB; the closed-form
    # route must answer from single orders and leave no table behind
    from chebdyn.factor import factor_pattern_actual, factor_pattern_predicted
    p = 30000001
    assert is_prime(p) and 2 * 10 ** 7 < p < FieldCtx.TABLE_CAP
    for t in (0, 1, 5, 12345, p - 3):
        assert (factor_pattern_predicted(3, p, 2, t)
                == factor_pattern_actual(3, p, 2, t)), t
    assert "alpha" not in make_field(p, 1)._cache


def test_trace_walk_matches_the_ladder():
    # the walk's columns against T_e(a) from the scalar pair ladder, at
    # the block seams (e = lo - 1, lo, lo + 1), the first two exponents
    # and the last; q - 1 = 145006 and q + 1 walk three blocks, 65537
    # ends on a one-column block, and (3, 10), (7, 6) are extension
    # fields.  T_{lo+1} = T_lo T_1 - T_{lo-1} is where an unreduced
    # subtraction would show
    for (p, n) in ((145007, 1), (65537, 1), (3, 10), (7, 6)):
        ctx = make_field.__wrapped__(p, n)
        for m, group in ((ctx.q + 1, ctx.order_plus),
                         (ctx.q - 1, ctx.order_minus)):
            a = ctx._full_order_trace(m, group)
            t, two, pp = ffield._ladder_operands(a, ctx)
            count = m // 2 + 1
            blocks = list(ctx._trace_walk(a, count))
            want = {0, 1, count - 1}
            for lo, _ in blocks:
                want |= {lo - 1, lo, lo + 1}
            want = {e for e in want if 0 <= e < count}
            checked = 0
            for lo, cols in blocks:
                assert cols.dtype == np.int64
                for e in sorted(want):
                    if lo <= e < lo + cols.shape[1]:
                        ref = ffield._cheb_ladder(e, t, two, pp)
                        ref = (ref,) if n == 1 else ref.coeffs
                        assert tuple(cols[:, e - lo].tolist()) == ref, (
                            p, n, m, e)
                        checked += 1
            assert checked == len(want), (p, n, m)


def test_trace_walk_makes_no_ffelem_product(monkeypatch):
    # the walk multiplies through its x-power table alone: the scalar
    # element product belongs to alpha_order, the full-order scan and the
    # Frobenius basis
    product, calls = FFElem.__mul__, []

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    for (p, n) in ((3, 10), (7, 6)):
        ctx = make_field.__wrapped__(p, n)
        for m, group in ((ctx.q + 1, ctx.order_plus),
                         (ctx.q - 1, ctx.order_minus)):
            a = ctx._full_order_trace(m, group)
            monkeypatch.setattr(FFElem, "__mul__", counted)
            for _ in ctx._trace_walk(a, m // 2 + 1):
                pass
            monkeypatch.undo()
        assert len(calls) == 0, (p, n, len(calls))


def test_alpha_order_tables_match_gcd_formula():
    # every table entry against m // gcd(e, m) on the same walk: q - 1 =
    # 145006 and q + 1 walk three blocks, 3^10 + 1 and 7^6 -+ 1 carry
    # repeated primes, and at 65537 the stride 2^16 is longer than a block
    # while the last block holds only e = 2^15
    for (p, n) in ((145007, 1), (3, 10), (7, 6), (65537, 1)):
        ctx = make_field.__wrapped__(p, n)
        ords, branch = order_tables(ctx)
        want_ords, want_branch = walk_order_tables(ctx)
        assert ords.tobytes() == want_ords.tobytes(), (p, n)
        assert branch.tobytes() == want_branch.tobytes(), (p, n)
