"""Chebyshev polynomials mod p: evaluation, coefficients, critical-value
factorizations, and discriminants of iterates kept in factored form.

T_d is the monic degree-d polynomial with T_d(z + 1/z) = z^d + z^-d; the
maps commute under composition, T_d . T_e = T_de, which is what makes the
iterate arithmetic below cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import polys
from .ffield import (FactoredInt, FFElem, _cheb_ladder, check_domain,
                     factor_int)

__all__ = [
    "cheb_eval",
    "cheb_coeffs",
    "iterate_coeffs",
    "critical_factorization",
    "CriticalSplit",
    "SignedFactoredInt",
    "disc_factored",
    "ramified_candidates",
]

COEFF_DEGREE_CAP = 1 << 16
NUMERIC_BITS_CAP = 512


def cheb_eval(d: int, a: FFElem) -> FFElem:
    """T_d(a) in O(log d) ring operations, by the pair ladder
    T_2k = T_k^2 - 2, T_2k+1 = T_k T_k+1 - a."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return _cheb_ladder(d, a, a.ctx.from_int(2))


def cheb_coeffs(d: int, p: int) -> list[int]:
    """Coefficients of T_d mod p, ascending, by the explicit form (Lidl,
    Mullen and Turnwald, Dickson Polynomials, 1993): T_d is the sum over
    k <= d/2 of (-1)^k c_k x^(d-2k), with c_k = d/(d-k) binom(d-k, k) an
    integer, so c_0 = 1 and c_k = c_(k-1) (d-2k+2)(d-2k+1) / (k (d-k))
    divides exactly.  Python ints, each reduced mod p: exact at every p."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > COEFF_DEGREE_CAP:
        raise ValueError(
            f"degree {d} exceeds the coefficient cap {COEFF_DEGREE_CAP}")
    if d == 0:
        return [2 % p]
    out = [0] * (d + 1)
    out[d] = c = 1
    for k in range(1, d // 2 + 1):
        c = c * (d - 2 * k + 2) * (d - 2 * k + 1) // (k * (d - k))
        out[d - 2 * k] = (-c if k % 2 else c) % p
    return out


def iterate_coeffs(ell: int, n: int, p: int) -> tuple[int, ...]:
    """Coefficients of the n-fold iterate T_ell^n = T_(ell^n) mod p."""
    check_domain(ell, p, n)
    # ell^n >= 2^n: a huge n is refused without forming ell^n
    if n >= COEFF_DEGREE_CAP.bit_length() or ell ** n > COEFF_DEGREE_CAP:
        raise ValueError(
            f"degree {ell}^{n} exceeds the coefficient cap {COEFF_DEGREE_CAP}")
    return tuple(cheb_coeffs(ell ** n, p))


@dataclass(frozen=True)
class CriticalSplit:
    """Factorizations of T_ell -+ 2 over F_p.

    For odd ell: T_ell - 2 = (x - 2) g(x)^2 and T_ell + 2 = (x + 2) h(x)^2.
    For ell = 2: T_2 - 2 = (x - 2)(x + 2) and T_2 + 2 = x^2.
    minus_factors / plus_factors list (poly, multiplicity) pairs whose
    product is the exact polynomial.
    """

    ell: int
    p: int
    square_minus: Optional[list[int]]
    square_plus: list[int]
    minus_factors: tuple[tuple[tuple[int, ...], int], ...]
    plus_factors: tuple[tuple[tuple[int, ...], int], ...]


def critical_factorization(ell: int, p: int) -> CriticalSplit:
    """Exact factor shapes of T_ell(x) -+ 2 over F_p (p != ell, p odd)."""
    check_domain(ell, p)
    t = cheb_coeffs(ell, p)
    tm, tp = polys.sub(t, [2], p), polys.add(t, [2], p)
    if ell == 2:
        minus = (((p - 2, 1), 1), ((2, 1), 1))
        plus = (((0, 1), 2),)
        split = CriticalSplit(ell, p, None, [0, 1], minus, plus)
    else:
        # T_ell -+ 2 has squarefree parts [(x -+ 2, 1), (g, 2)]; the
        # identity below checks the last one
        g = polys.squarefree_parts(tm, p)[-1][0]
        h = polys.squarefree_parts(tp, p)[-1][0]
        split = CriticalSplit(ell, p, g, h,
                              (((p - 2, 1), 1), (tuple(g), 2)),
                              (((2, 1), 1), (tuple(h), 2)))
    for poly_t, factors in ((tm, split.minus_factors),
                            (tp, split.plus_factors)):
        prod = [1]
        for fac, m in factors:
            for _ in range(m):
                prod = polys.mul(prod, list(fac), p)
        if prod != poly_t:
            raise RuntimeError("critical factorization identity failed: "
                               "polynomial kernel is broken")
    return split


@dataclass(frozen=True)
class SignedFactoredInt:
    """An integer as sign * product of |base|^exponent over symbolic atoms.

    Atoms are (label, base, exponent) with labels like "ell", "2-t",
    "2+t"; sign is the sign of the full value and is 0 exactly when an
    atom with positive exponent vanishes.  Exponents such as n*ell^n
    overflow fixed widths, so expansion to a plain integer is offered
    only below a bit threshold.
    """

    sign: int
    atoms: tuple[tuple[str, int, int], ...]

    def exponents(self) -> dict[str, int]:
        return {label: e for label, _, e in self.atoms}

    def bit_size(self) -> int:
        return sum(e * max(abs(b), 2).bit_length() for _, b, e in self.atoms)

    def numeric(self) -> Optional[int]:
        """The expanded integer, or None when larger than NUMERIC_BITS_CAP
        bits."""
        if self.sign == 0:
            return 0
        if self.bit_size() > NUMERIC_BITS_CAP:
            return None
        v = 1
        for _, b, e in self.atoms:
            v *= abs(b) ** e
        return self.sign * v

    def factored(self) -> Optional[FactoredInt]:
        """FactoredInt of the magnitude, or None when degenerate or larger
        than NUMERIC_BITS_CAP bits."""
        if self.sign == 0 or self.bit_size() > NUMERIC_BITS_CAP:
            return None
        acc: dict[int, int] = {}
        for _, b, e in self.atoms:
            if abs(b) == 1 or e == 0:
                continue
            for q, k in factor_int(abs(b)).factors:
                acc[q] = acc.get(q, 0) + k * e
        return FactoredInt(tuple(sorted(acc.items())))


def disc_factored(ell: int, n: int, t: int) -> SignedFactoredInt:
    """Discriminant of T_ell^n(x) - t in factored form.

    Derived from the general critical-value formula
    (-1)^(D-1)(D-2)/2 * ell^(nD) * (t-2)^M2 * (t+2)^M-2 with D = ell^n,
    M2 = M-2 = (D-1)/2 for odd ell, and M2 = 2^(n-1) - 1, M-2 = 2^(n-1)
    for ell = 2.  Sign 0 flags the non-separable cases: t = +-2, except
    (ell, n, t) = (2, 1, 2) where the vanishing atom has exponent 0 and
    x^2 - 4 is separable.
    """
    check_domain(ell, n=n)
    d_tot = ell ** n
    if ell % 2:
        e_m, e_p = (d_tot - 1) // 2, (d_tot - 1) // 2
    else:
        e_m, e_p = 2 ** (n - 1) - 1, 2 ** (n - 1)
    sign_exp = (d_tot - 1) * (d_tot - 2) // 2
    sign = -1 if sign_exp % 2 else 1
    for base, e in ((t - 2, e_m), (t + 2, e_p)):
        if e == 0:
            continue
        if base == 0:
            sign = 0
            break
        if base < 0 and e % 2:
            sign = -sign
    atoms = [("ell", ell, n * d_tot)]
    if e_m:
        atoms.append(("2-t", 2 - t, e_m))
    if e_p:
        atoms.append(("2+t", 2 + t, e_p))
    return SignedFactoredInt(sign, tuple(atoms))


def ramified_candidates(ell: int, t: int) -> frozenset[int]:
    """Primes dividing ell*(4 - t^2): the only possible prime divisors of
    disc(T_ell^n - t) for any n >= 1."""
    check_domain(ell)
    if t in (2, -2):
        raise ValueError("t = +-2: every discriminant in the tower vanishes")
    out = {ell}
    out.update(factor_int(abs(4 - t * t)).primes)
    return frozenset(out)
