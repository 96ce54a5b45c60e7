"""Closed-form predictions for the graph of T_ell on F_{p^n}: cycle
lengths, point counts, weights, valuations, and the periodic density.
Nothing here enumerates a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ffield import (FACTOR_LIMIT, MINUS, PLUS, FactoredInt, _factor_below,
                     check_domain, factor_int, is_prime, nu)
from .summary import GraphSummary, SummaryRow, canonical_row_order

__all__ = [
    "StructureParams",
    "D1",
    "D2",
    "half_order",
    "structure_params",
    "nu_2n",
    "predict_summary",
    "predict_weight",
    "periodic_density",
    "tower_limit",
    "tower_levels",
    "tower_density",
]

# Cycle-branch labels: whether the eventual cycle's divisor divides the
# member of {p^mu - 1, p^mu + 1} with the larger (D1) or smaller (D2)
# ell-valuation.
D1 = "D1"
D2 = "D2"


@lru_cache(maxsize=None)
def half_order(base: int, modulus: int | FactoredInt) -> int:
    """Least k >= 1 with base^k = +-1 (mod modulus); 1 for modulus <= 2.

    This is the order of base in (Z/modulus)^x modulo {+-1}: the cycle
    length c(d) is half_order(ell, d), the weight of the divisor class d
    is half_order(p, d) and mu is half_order(p, ell).  Computed from the
    full multiplicative order m (obtained by dividing primes out of
    phi(modulus)): the answer is m/2 when base^(m/2) = -1, else m.  A
    factored modulus is not factored again.
    """
    if not isinstance(modulus, FactoredInt):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        modulus = factor_int(modulus)
    mv = modulus.value
    if mv <= 2:
        return 1
    if math.gcd(base, mv) != 1:
        raise ValueError(f"gcd({base}, {mv}) != 1")
    phi = modulus.phi()
    m = phi.value
    for q in phi.primes:
        while m % q == 0 and pow(base, m // q, mv) == 1:
            m //= q
    if m % 2 == 0 and pow(base, m // 2, mv) == mv - 1:
        return m // 2
    return m


@dataclass(frozen=True)
class StructureParams:
    """The data controlling G(ell,p,n): p^n -+ 1 = ell^lambda * omega
    splittings, mu = ord of p in (Z/ell)^x/{+-1}, and the base pair
    D1, D2 in {p^mu - 1, p^mu + 1} ordered by ell-valuation."""

    ell: int
    p: int
    n: int
    lambda_minus: int
    omega_minus: int
    lambda_plus: int
    omega_plus: int
    mu: int
    d1: int
    d2: int
    v: int

    @property
    def lambda_m(self) -> int:
        return max(self.lambda_minus, self.lambda_plus)

    @property
    def max_side(self) -> str:
        """Branch carrying lambda_m ("minus" by convention on ties)."""
        return MINUS if self.lambda_minus >= self.lambda_plus else PLUS

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell, "p": self.p, "n": self.n,
            "lambda_minus": self.lambda_minus, "omega_minus": self.omega_minus,
            "lambda_plus": self.lambda_plus, "omega_plus": self.omega_plus,
            "mu": self.mu, "D1": self.d1, "D2": self.d2, "v": self.v,
        }


def structure_params(ell: int, p: int, n: int) -> StructureParams:
    check_domain(ell, p, n)
    q = p ** n
    lm, lp = nu(q - 1, ell), nu(q + 1, ell)
    mu = half_order(p, ell)
    cand_m, cand_p = p ** mu - 1, p ** mu + 1
    if nu(cand_m, ell) >= nu(cand_p, ell):
        d1, d2 = cand_m, cand_p
    else:
        d1, d2 = cand_p, cand_m
    return StructureParams(ell, p, n, lm, (q - 1) // ell ** lm,
                           lp, (q + 1) // ell ** lp,
                           mu, d1, d2, nu(d1, ell))


def nu_2n(ell: int, p: int, n: int) -> int:
    """ell-valuation of p^(2n) - 1, via the two-case closed form."""
    check_domain(ell, p, n)
    mu = half_order(p, ell)
    if n % mu:
        return 0
    return nu(p ** (2 * mu) - 1, ell) + nu(n, ell)


def predict_summary(ell: int, p: int, n: int) -> GraphSummary:
    """Divisor-class rows of G(ell,p,n) from the closed forms alone.

    Every row is read off one factorization each of p^n - 1 and p^n + 1:
    the divisor d, its ell-valuation, phi(d), the period c(d) and the
    weight, the least m with d | p^m -+ 1.
    """
    check_domain(ell, p, n)
    # p >= 3 and 3^61 > 2^96: a larger n is refused without forming p^n
    if n >= 61 or p ** n + 1 >= FACTOR_LIMIT:
        raise ValueError(f"{p}^{n} + 1 exceeds the 2^96 factorization bound")
    params = structure_params(ell, p, n)
    q = p ** n
    rows: list[SummaryRow] = []
    # at n = 1, q - 1 = p - 1, factored once a p and cached (_factor_below),
    # by p's own primality proof from PSI_13 on
    minus = _factor_below(p) if n == 1 else factor_int(q - 1)
    for branch, group in ((MINUS, minus), (PLUS, factor_int(q + 1))):
        for d in group.divisors():
            dv = d.value
            # alpha = +-1 lives in both groups; tabulate once, on the side
            # carrying the trees (lambda_m), minus on ties
            if dv <= 2 and branch == PLUS:
                continue
            k = d.nu(ell)
            half_phi = 1 if dv <= 2 else d.phi().value // 2
            period = cycles = None
            if k == 0:
                period = half_order(ell, d)
                if half_phi % period:
                    raise ArithmeticError(
                        f"cycle count phi({dv})/(2*{period}) is not integral")
                cycles = half_phi // period
            rows.append(SummaryRow(d, params.max_side if dv <= 2 else branch,
                                   half_phi, k, period, half_order(p, d),
                                   cycles))
    rows = canonical_row_order(rows, ell)
    out = GraphSummary(ell, p, n, tuple(rows))
    if out.total_points() != q:
        raise ArithmeticError("divisor classes do not partition the field")
    return out


def predict_weight(params: StructureParams, branch: str, rho: int,
                   n: int) -> int:
    """Weight of a strictly preperiodic vertex of G(ell,p,2*mu*ell^n),
    ell = params.ell, attached to a cycle on the given base branch (D1 or
    D2), from its preperiod rho alone.

    Covers the three closed-form cases: odd ell over D1, odd ell over D2,
    and ell = 2 over D2.  rho = 0 is rejected (periodic weights come from
    the divisor class, not from this formula).
    """
    if branch not in (D1, D2):
        raise ValueError("branch must be D1 or D2")
    if rho < 1:
        raise ValueError("rho must be >= 1: formula covers strictly "
                         "preperiodic vertices only")
    ell, v, mu = params.ell, params.v, params.mu
    if ell % 2 == 1:
        if rho <= v:
            return mu if branch == D1 else 2 * mu
        k = rho - v
        if k > n:
            raise ValueError(f"rho = {rho} exceeds v + n = {v + n}")
        return mu * ell ** k if branch == D1 else 2 * mu * ell ** k
    if branch == D1:
        raise ValueError("ell = 2 over a D1 cycle has no closed-form case")
    if rho == 1:
        return 1
    if rho <= v:
        return 2
    k = rho - v
    # trees on the D2 side of F_{p^(2^(n+1))} reach height v + n + 1
    if k > n + 1:
        raise ValueError(f"rho = {rho} exceeds v + n + 1 = {v + n + 1}")
    return 2 ** k


def periodic_density(ell: int, p: int, n: int) -> Fraction:
    """Exact fraction of periodic vertices: (omega^- + omega^+) / (2 p^n)."""
    s = structure_params(ell, p, n)
    return Fraction(s.omega_minus + s.omega_plus, 2 * p ** n)


def tower_limit(ell: int) -> Fraction:
    """Limiting periodic density up the factorial-like tower of fields:
    1/2 for odd ell, 1/4 for ell = 2."""
    check_domain(ell)
    return Fraction(1, 4) if ell == 2 else Fraction(1, 2)


def tower_levels(count: int) -> list[int]:
    """First `count` exponents a_k = 2^k 3^(k-1) 5^(k-2) ... p_k^1.

    Every fixed integer divides all but finitely many a_k, so every
    ell-valuation grows without bound along the tower.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    primes = []
    cand = 2
    while len(primes) < count:
        if is_prime(cand):
            primes.append(cand)
        cand += 1
    out = []
    for k in range(1, count + 1):
        a = 1
        for i, q in enumerate(primes[:k]):
            a *= q ** (k - i)
        out.append(a)
    return out


def tower_density(ell: int, p: int, level: int) -> tuple[int, int, Fraction]:
    """Limit-form density at tower level `level` (1-based).

    Returns (a_level, lambda_m, density) with density the simplified
    expression 1/(2 ell^lambda_m) + 1/2 for odd ell and
    1/2^(lambda_m+1) + 1/4 for ell = 2.  This drops the (p^a -+ 1)/p^a
    weights of the exact count (use periodic_density for that), which is
    what makes the tower limits visible; lambda_m comes from the
    valuation formula, never from expanding p^a.
    """
    a = tower_levels(level)[-1]
    total = nu_2n(ell, p, a)
    if ell == 2:
        lam = total - 1
        dens = Fraction(1, 2 ** (lam + 1)) + Fraction(1, 4)
    else:
        lam = total
        dens = Fraction(1, 2 * ell ** lam) + Fraction(1, 2)
    return a, lam, dens
