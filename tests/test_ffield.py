import pytest
import sympy

from chebdyn import ffield
from chebdyn.ffield import (MINUS, PLUS, FactoredInt, FFElem, FieldCtx,
                            alpha_order, element_degree, factor_int,
                            is_prime, make_field)
from order_reference import (QuadElem, lift_alpha, mult_order,
                             reference_alpha_order)


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
    for tup in iproduct(range(3), repeat=4):
        if brute_irreducible(tup, 3):
            assert f34.modulus == tup
            break


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
        ords, branch = ctx.alpha_order_tables()
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
    ords, _ = ctx.alpha_order_tables()
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
        ords, branch = ctx.alpha_order_tables()
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
    # a fresh context holds no tables, so alpha_order takes the T_d
    # ladder; the walk tables built afterwards are the reference.  Both
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
        ords, branch = ctx.alpha_order_tables()
        want = [(int(ords[i]), MINUS if branch[i] == 0 else PLUS)
                for i in idx]
        assert got == want, (p, n)


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
