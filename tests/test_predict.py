from fractions import Fraction

import pytest

from chebdyn.ffield import factor_int, is_prime
from chebdyn.predict import (D1, D2, c_of_d, half_order, nu_2n,
                             periodic_density, predict_summary,
                             predict_weight, structure_params, tower_density,
                             tower_levels, tower_limit, weight_of_divisor)


def brute_c(d, ell):
    if d <= 2:
        return 1
    k, x = 1, ell % d
    while x != 1 % d and x != (d - 1) % d:
        x = x * ell % d
        k += 1
    return k


def test_c_of_d_examples():
    assert c_of_d(13, 3) == 3
    assert c_of_d(1, 3) == 1
    assert c_of_d(2, 3) == 1
    assert c_of_d(41, 2) == 10
    assert c_of_d(factor_int(52), 3) == 6
    with pytest.raises(ValueError):
        c_of_d(9, 3)


def test_c_of_d_brute_range():
    for ell in (2, 3, 5):
        for d in range(1, 10001):
            if d % ell == 0:
                continue
            assert c_of_d(d, ell) == brute_c(d, ell), (d, ell)


def test_structure_params_examples():
    s = structure_params(3, 53, 1)
    assert (s.lambda_minus, s.omega_minus) == (0, 52)
    assert (s.lambda_plus, s.omega_plus) == (3, 2)
    assert (s.mu, s.d1, s.d2, s.v) == (1, 54, 52, 3)
    s = structure_params(2, 3, 4)
    assert (s.lambda_minus, s.omega_minus) == (4, 5)
    assert (s.lambda_plus, s.omega_plus) == (1, 41)
    s = structure_params(5, 3, 1)
    assert (s.lambda_minus, s.lambda_plus) == (0, 0)
    assert (s.omega_minus, s.omega_plus) == (2, 4)
    assert s.omega_m is None


def test_structure_params_errors():
    with pytest.raises(ValueError):
        structure_params(3, 3, 1)
    with pytest.raises(ValueError):
        structure_params(3, 2, 1)


def test_nu_2n_examples():
    assert nu_2n(3, 53, 3) == 4  # nu_3(2808) + nu_3(3) = 3 + 1
    assert nu_2n(2, 3, 1) == 3
    assert nu_2n(7, 3, 2) == 0   # mu = 3 does not divide 2


def test_nu_2n_direct_agreement():
    primes = [p for p in range(2, 51) if is_prime(p)]
    for ell in primes:
        for p in primes:
            if p == ell or p == 2:
                continue
            for n in range(1, 9):
                direct = 0
                m = p ** (2 * n) - 1
                while m % ell == 0:
                    m //= ell
                    direct += 1
                assert nu_2n(ell, p, n) == direct, (ell, p, n)


def test_half_order_small_moduli():
    assert half_order(5, 1) == 1
    assert half_order(5, 2) == 1
    assert half_order(3, 53) == 26  # 3^26 = -1 mod 53
    assert half_order(53, 3) == 1   # 53 = -1 mod 3


def test_predict_summary_point_counts():
    s = predict_summary(3, 53, 1)
    assert s.preperiod_totals() == {0: 27, 1: 2, 2: 6, 3: 18}
    assert s.total_points() == 53
    s = predict_summary(2, 3, 4)
    assert s.preperiod_totals() == {0: 23, 1: 23, 2: 5, 3: 10, 4: 20}
    assert s.total_points() == 81


def test_predict_summary_rows():
    s = predict_summary(3, 53, 1)
    row26 = [r for r in s.rows if r.divisor_value == 26][0]
    assert (row26.points, row26.period, row26.cycles) == (6, 3, 2)
    row27 = [r for r in s.rows if r.divisor_value == 27][0]
    assert (row27.points, row27.preperiod, row27.period) == (9, 3, None)


def test_predict_weight_table_g_53_18():
    params = structure_params(3, 53, 1)
    col_d1 = [predict_weight(params, D1, rho, 2) for rho in range(1, 6)]
    col_d2 = [predict_weight(params, D2, rho, 2) for rho in range(1, 6)]
    assert col_d1 == [1, 1, 1, 3, 9]
    assert col_d2 == [2, 2, 2, 6, 18]


def test_predict_weight_errors():
    params = structure_params(3, 53, 1)
    with pytest.raises(ValueError):
        predict_weight(params, D1, 0, 2)
    with pytest.raises(ValueError):
        predict_weight(params, D1, 99, 2)
    with pytest.raises(ValueError):
        predict_weight(params, "D3", 1, 2)
    p2 = structure_params(2, 7, 1)
    with pytest.raises(ValueError):
        predict_weight(p2, D1, 1, 1)


def test_predict_weight_matches_enumeration_l2_d2():
    # F_{7^(2*2^n)} with n = 1: vertices over the divisor-3 cycles
    # (3 | D2 = 6) follow the ell = 2, D2 weight rule
    from chebdyn.ffield import element_degree, make_field
    from chebdyn.graph import build_graph
    sp = structure_params(2, 7, 1)
    assert (sp.d1, sp.d2, sp.v) == (8, 6, 3)
    ctx = make_field(7, 4)
    g = build_graph(2, ctx)
    checked = 0
    for i in range(ctx.q):
        if g.pper[i] == 0:
            continue
        d0 = int(g.divisor[i])
        while d0 % 2 == 0:
            d0 //= 2
        if d0 <= 2 or sp.d2 % d0 or sp.d1 % d0 == 0:
            continue
        want = predict_weight(sp, D2, int(g.pper[i]), 1)
        assert element_degree(ctx.decode(i)) == want, (i, g.pper[i])
        checked += 1
    assert checked > 20


def test_weight_of_divisor():
    # order-41 classes in F_3^4 live in degree 4; order-8 in degree 2
    assert weight_of_divisor(41, 3, 4) == 4
    assert weight_of_divisor(8, 3, 4) == 2
    assert weight_of_divisor(5, 3, 4) == 2
    assert weight_of_divisor(4, 3, 4) == 1


def test_periodic_density():
    assert periodic_density(3, 53, 1) == Fraction(27, 53)
    assert periodic_density(2, 3, 4) == Fraction(23, 81)
    # exact identity from the point count: the omega-weighted average
    for (ell, p, n) in ((3, 53, 1), (2, 3, 4), (5, 7, 2), (3, 5, 3)):
        q = p ** n
        lm = ln = 0
        qm, qp = q - 1, q + 1
        while qm % ell == 0:
            qm //= ell
            lm += 1
        while qp % ell == 0:
            qp //= ell
            ln += 1
        want = (Fraction(q - 1, ell ** lm) + Fraction(q + 1, ell ** ln)) \
            / (2 * q)
        assert periodic_density(ell, p, n) == want


def test_tower():
    assert tower_limit(3) == Fraction(1, 2)
    assert tower_limit(2) == Fraction(1, 4)
    assert tower_levels(4) == [2, 12, 360, 75600]
    a, lam, dens = tower_density(3, 5, 1)
    assert (a, lam) == (2, 1) and dens == Fraction(1, 6) + Fraction(1, 2)
    # lambda_m grows without bound along the tower, density tends to 1/2
    lams = [tower_density(3, 5, k)[1] for k in range(1, 7)]
    assert lams == sorted(lams) and lams[-1] > lams[0]
    dens = [tower_density(3, 5, k)[2] for k in range(1, 7)]
    assert all(d > Fraction(1, 2) for d in dens)
    assert dens[-1] - Fraction(1, 2) < Fraction(1, 1000)
    a2, lam2, d2 = tower_density(2, 7, 5)
    assert d2 - Fraction(1, 4) == Fraction(1, 2 ** (lam2 + 1))
