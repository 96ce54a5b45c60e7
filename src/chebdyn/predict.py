"""Closed-form predictions for the graph of T_ell on F_{p^n}: cycle
lengths, point counts, weights, valuations, and the periodic density.
Nothing here enumerates a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .ffield import (MINUS, PLUS, FactoredInt, euler_phi, euler_phi_factored,
                     factor_int, is_prime, nu)
from .summary import GraphSummary, SummaryRow, canonical_row_order

__all__ = [
    "StructureParams",
    "D1",
    "D2",
    "c_of_d",
    "half_order",
    "structure_params",
    "nu_2n",
    "predict_summary",
    "predict_weight",
    "weight_of_divisor",
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
def half_order(base: int, modulus: int) -> int:
    """Least k >= 1 with base^k = +-1 (mod modulus).

    This is the order of base in (Z/modulus)^x modulo {+-1}.  Computed
    from the full multiplicative order m (obtained by dividing primes out
    of phi(modulus)): the answer is m/2 when base^(m/2) = -1, else m.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus <= 2:
        return 1
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"gcd({base}, {modulus}) != 1")
    phi = euler_phi_factored(modulus)
    m = phi.value
    for q in phi.primes:
        while m % q == 0 and pow(base, m // q, modulus) == 1:
            m //= q
    if m % 2 == 0 and pow(base, m // 2, modulus) == modulus - 1:
        return m // 2
    return m


def c_of_d(d, ell: int) -> int:
    """c(d): least k >= 1 with ell^k = +-1 (mod d); c(1) = c(2) = 1."""
    dv = d.value if isinstance(d, FactoredInt) else int(d)
    if dv < 1:
        raise ValueError("d must be positive")
    if dv <= 2:
        return 1
    if dv % ell == 0:
        raise ValueError(f"gcd(d, ell) != 1 for d={dv}, ell={ell}")
    return half_order(ell, dv)


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
    def omega_m(self) -> Optional[int]:
        """The omega paired with lambda_m; None when there is no ell part."""
        if self.lambda_m == 0:
            return None
        if self.lambda_minus >= self.lambda_plus:
            return self.omega_minus
        return self.omega_plus

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


def _check_instance(ell: int, p: int, n: int) -> None:
    """Refuse anything but primes ell != p, p odd, and n >= 1."""
    if not is_prime(ell) or not is_prime(p):
        raise ValueError("ell and p must be prime")
    if p == ell:
        raise ValueError("p must differ from ell")
    if p == 2:
        raise ValueError("p must be odd")
    if n < 1:
        raise ValueError("n must be >= 1")


def structure_params(ell: int, p: int, n: int) -> StructureParams:
    _check_instance(ell, p, n)
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
    _check_instance(ell, p, n)
    mu = half_order(p, ell)
    if n % mu:
        return 0
    return nu(p ** (2 * mu) - 1, ell) + nu(n, ell)


def weight_of_divisor(d: int, p: int, n: int) -> int:
    """Least m with d | p^m - 1 or d | p^m + 1; always a divisor of n."""
    for m in range(1, n + 1):
        if n % m:
            continue
        pm = p ** m
        if (pm - 1) % d == 0 or (pm + 1) % d == 0:
            return m
    raise ArithmeticError(f"{d} does not divide p^n -+ 1")  # caller bug


def predict_summary(ell: int, p: int, n: int) -> GraphSummary:
    """Divisor-class rows of G(ell,p,n) from the closed forms alone."""
    params = structure_params(ell, p, n)
    q = p ** n
    minus_divs = list(factor_int(q - 1).divisors())
    plus_divs = list(factor_int(q + 1).divisors())
    rows: list[SummaryRow] = []
    seen_small = set()
    for branch, divs in ((MINUS, minus_divs), (PLUS, plus_divs)):
        for d in divs:
            if d <= 2:
                # alpha = +-1 lives in both groups; tabulate once, on the
                # side carrying the trees (lambda_m), minus on ties
                if d in seen_small:
                    continue
                seen_small.add(d)
                row_branch = params.max_side
            else:
                row_branch = branch
            k = nu(d, ell)
            points = 1 if d <= 2 else euler_phi(d) // 2
            weight = weight_of_divisor(d, p, n)
            if k == 0:
                period = c_of_d(factor_int(d), ell)
                if d > 2:
                    if (euler_phi(d) // 2) % period:
                        raise ArithmeticError(
                            f"cycle count phi({d})/(2*{period}) is not integral")
                    cycles = euler_phi(d) // (2 * period)
                else:
                    cycles = 1
                rows.append(SummaryRow(factor_int(d), row_branch, points,
                                       0, period, weight, cycles))
            else:
                rows.append(SummaryRow(factor_int(d), row_branch, points,
                                       k, None, weight, None))
    rows = canonical_row_order(rows, ell)
    out = GraphSummary(ell, p, n, tuple(rows))
    if out.total_points() != q:
        raise ArithmeticError("divisor classes do not partition the field")
    return out


def predict_weight(params: StructureParams, branch: str, rho: int,
                   ell: int, n: int) -> int:
    """Weight of a strictly preperiodic vertex of G(ell,p,2*mu*ell^n)
    attached to a cycle on the given base branch (D1 or D2), from its
    preperiod rho alone.

    Covers the three closed-form cases: odd ell over D1, odd ell over D2,
    and ell = 2 over D2.  rho = 0 is rejected (periodic weights come from
    the divisor class, not from this formula).
    """
    if branch not in (D1, D2):
        raise ValueError("branch must be D1 or D2")
    if rho < 1:
        raise ValueError("rho must be >= 1: formula covers strictly "
                         "preperiodic vertices only")
    v, mu = params.v, params.mu
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
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
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
