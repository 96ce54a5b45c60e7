"""Factor T_ell^n(x) - t over F_p two ways: by actual squarefree plus
distinct-degree splitting, and by the closed-form case analysis driven
by the preperiod of t mod p.  On top of that sit residue-degree reports
for the radical tower and the cyclotomic splitting check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import polys
from .cheb import iterate_coeffs, ramified_candidates
from .ffield import alpha_order, check_domain, is_prime, make_field, nu
from .predict import D1, D2, structure_params

__all__ = [
    "FactorPattern",
    "TClass",
    "DecompReport",
    "LevelDecomp",
    "factor_pattern_actual",
    "classify_t",
    "factor_pattern_predicted",
    "all_iterates_irreducible",
    "decompose_prime",
    "verify_reciprocity",
    "DEGREE_CAP",
]

DEGREE_CAP = 1 << 12
# Largest prime find_irreducibility_witness tries.
WITNESS_BOUND = 1000


@dataclass(frozen=True)
class FactorPattern:
    """Multiset of (degree, multiplicity, count) triples."""

    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_entries(cls, entries) -> "FactorPattern":
        acc: dict[tuple[int, int], int] = {}
        for deg, mult, count in entries:
            if count:
                acc[(deg, mult)] = acc.get((deg, mult), 0) + count
        return cls(tuple((d, m, c) for (d, m), c in sorted(acc.items())))

    @property
    def total(self) -> int:
        return sum(d * m * c for d, m, c in self.entries)

    def all_linear(self) -> bool:
        return all(d == 1 for d, _, _ in self.entries)

    def squarefree(self) -> bool:
        return all(m == 1 for _, m, _ in self.entries)

    def to_json_obj(self) -> list[dict]:
        return [{"degree": d, "multiplicity": m, "count": c}
                for d, m, c in self.entries]

    def __str__(self) -> str:
        return " * ".join(
            f"{c} x (deg {d}" + (f", mult {m})" if m > 1 else ")")
            for d, m, c in self.entries) or "1"


def factor_pattern_actual(ell: int, p: int, n: int, t: int) -> FactorPattern:
    """Pattern of T_ell^n(x) - t mod p by direct factorization.

    Squarefree split first, then distinct-degree counts per squarefree
    part; equal-degree splitting is never needed since only the pattern
    is reported.
    """
    check_domain(ell, p, n)
    # ell >= 2, so ell^n >= 2^n > DEGREE_CAP once n >= its bit length
    if n >= DEGREE_CAP.bit_length() or ell ** n > DEGREE_CAP:
        raise ValueError(f"degree {ell}^{n} exceeds cap {DEGREE_CAP}")
    polys.limb_width(ell ** n, p)  # refuses a p beyond the kernel's bound
    f = list(iterate_coeffs(ell, n, p))
    f[0] = (f[0] - t) % p
    entries = []
    for part, mult in polys.squarefree_parts(f, p):
        for deg, count in polys.distinct_degree_counts(part, p).items():
            entries.append((deg, mult, count))
    pat = FactorPattern.from_entries(entries)
    if pat.total != ell ** n:
        raise ArithmeticError("factor degrees do not sum to the degree")
    return pat


@dataclass(frozen=True)
class TClass:
    """How t sits in the graph over F_p: preperiod, base branch of its
    eventual cycle, and whether it is one of the special values."""

    ell: int
    p: int
    tbar: int
    rho: int
    branch: str  # D1 or D2
    is_special: bool
    cycle_divisor: int  # prime-to-ell part of ord(alpha)


def classify_t(ell: int, p: int, t: int) -> TClass:
    params = structure_params(ell, p, 1)  # checks the domain first
    tbar = t % p
    ordv, _ = alpha_order(make_field(p, 1).from_int(tbar))
    rho = nu(ordv, ell)
    d0 = ordv // ell ** rho
    if params.d1 % d0 == 0:
        branch = D1
    elif params.d2 % d0 == 0:
        branch = D2
    else:
        raise ArithmeticError(f"cycle divisor {d0} divides neither "
                              f"D1={params.d1} nor D2={params.d2}")
    special = tbar in (2 % p, (-2) % p) or (ell == 2 and tbar == 0)
    return TClass(ell, p, tbar, rho, branch, special, d0)


def _geom_sum(ell: int, kmax: int) -> int:
    """sum of ell^k for k = 0..kmax-1 (0 when kmax <= 0)."""
    return sum(ell ** k for k in range(max(kmax, 0)))


def factor_pattern_predicted(ell: int, p: int, n: int, t: int) -> FactorPattern:
    """Pattern of T_ell^n(x) - t mod p from the closed-form case analysis:
    no polynomial arithmetic, only the class of t mod p."""
    check_domain(ell, p, n)
    params = structure_params(ell, p, 1)
    v, mu = params.v, params.mu
    cls = classify_t(ell, p, t)
    tbar = cls.tbar
    entries: list[tuple[int, int, int]]

    if ell % 2:
        if tbar in (2 % p, (-2) % p):
            # one simple linear factor; everything else squares up
            per_k = (ell - 1) // (2 * mu)
            entries = [(1, 1, 1), (mu, 2, per_k * _geom_sum(ell, min(n, v)))]
            for k in range(1, n - v + 1):
                entries.append((mu * ell ** k, 2, per_k * ell ** (v - 1)))
        elif cls.rho > 0:
            if n <= v - cls.rho:
                entries = [(1, 1, ell ** n)]
            else:
                entries = [(ell ** (n - v + cls.rho), 1, ell ** (v - cls.rho))]
        else:
            scale = 1 if cls.branch == D1 else 2
            deg0 = scale * mu
            per_k = (ell - 1) // deg0
            entries = [(1, 1, 1), (deg0, 1, per_k * _geom_sum(ell, min(n, v)))]
            for k in range(1, n - v + 1):
                entries.append((deg0 * ell ** k, 1, per_k * ell ** (v - 1)))
    else:
        if tbar == 2 % p:
            # T_2^n - 2 = (T_2^(n-1) - 2)(T_2^(n-1) + 2): recurse on the
            # first factor, the second is the -2 case one level down
            if n == 1:
                entries = [(1, 1, 2)]
            else:
                left = factor_pattern_predicted(2, p, n - 1, 2)
                right = factor_pattern_predicted(2, p, n - 1, -2)
                entries = list(left.entries) + list(right.entries)
        elif tbar == (-2) % p:
            rho = 1
            if n <= v - rho:
                entries = [(1, 2, 2 ** (n - 1))]
            else:
                entries = [(2 ** (n - v + rho), 2, 2 ** (v - rho - 1))]
        elif cls.rho > 0:
            if cls.branch == D1:
                if n <= v - cls.rho:
                    entries = [(1, 1, 2 ** n)]
                else:
                    entries = [(2 ** (n - v + cls.rho), 1, 2 ** (v - cls.rho))]
            else:
                if n <= v - cls.rho:
                    entries = [(2, 1, 2 ** (n - 1))]
                else:
                    entries = [(2 ** (n - v + cls.rho), 1, 2 ** (v - cls.rho))]
        else:
            if cls.branch == D1:
                entries = [(1, 1, 1 + _geom_sum(2, min(n, v)))]
                for k in range(1, n - v + 1):
                    entries.append((2 ** k, 1, 2 ** (v - 1)))
            else:
                # counts follow the weight rule for D2 trees: roots of
                # preperiod v+k have weight 2^k, so each k contributes
                # 2^(v-1) factors of degree 2^k
                entries = [(1, 1, 2), (2, 1, _geom_sum(2, min(n, v) - 1))]
                for k in range(1, n - v + 1):
                    entries.append((2 ** k, 1, 2 ** (v - 1)))

    pat = FactorPattern.from_entries(entries)
    if pat.total != ell ** n:
        raise ArithmeticError(
            f"predicted pattern totals {pat.total}, wanted {ell ** n}: "
            f"case analysis bug for (ell={ell}, p={p}, n={n}, t={t})")
    return pat


def all_iterates_irreducible(ell: int, p: int, t: int) -> bool:
    """True when T_ell^n(x) - t is irreducible mod p for every n >= 1,
    hence irreducible over the integers.

    Holds exactly when t mod p is strictly preperiodic of maximal height:
    pper = v > 0.
    """
    cls = classify_t(ell, p, t)
    v = structure_params(ell, p, 1).v
    return cls.rho > 0 and cls.rho == v


@dataclass(frozen=True)
class LevelDecomp:
    level: int
    primes: tuple[tuple[int, int], ...]  # (residue degree, count)
    splits_completely: bool
    inert: bool

    def to_json_obj(self) -> dict:
        return {
            "level": self.level,
            "primes": [{"degree": d, "count": c} for d, c in self.primes],
            "splits_completely": self.splits_completely,
            "inert": self.inert,
        }


@dataclass(frozen=True)
class DecompReport:
    """Residue degrees of the primes over p at each level of the tower
    generated by preimages of t under T_ell."""

    ell: int
    t: int
    p: int
    witness: int
    ramified_excluded: tuple[int, ...]
    levels: tuple[LevelDecomp, ...]

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell, "t": self.t, "p": self.p,
            "witness": self.witness,
            "ramified_excluded": list(self.ramified_excluded),
            "levels": [lv.to_json_obj() for lv in self.levels],
        }

    def table_str(self) -> str:
        lines = [f"decomposition of {self.p} in the degree-{self.ell}^n "
                 f"tower over t={self.t} (irreducibility witness "
                 f"p={self.witness})"]
        for lv in self.levels:
            parts = ", ".join(f"{c} prime(s) of degree {d}"
                              for d, c in lv.primes)
            flags = []
            if lv.splits_completely:
                flags.append("splits completely")
            if lv.inert:
                flags.append("inert")
            tail = f"  [{'; '.join(flags)}]" if flags else ""
            lines.append(f"  level {lv.level}: {parts}{tail}")
        return "\n".join(lines)


def find_irreducibility_witness(ell: int, t: int) -> Optional[int]:
    """Smallest odd prime w != ell, w <= WITNESS_BOUND, with t of maximal
    preperiod mod w."""
    check_domain(ell)
    w = 3
    while w <= WITNESS_BOUND:
        if w != ell and is_prime(w) and all_iterates_irreducible(ell, w, t):
            return w
        w += 2
    return None


def decompose_prime(ell: int, t: int, p: int, max_level: int,
                    witness: Optional[int] = None) -> DecompReport:
    """Residue degrees and counts of the primes above p in levels
    1..max_level of the radical tower.

    Refuses ramified candidates (divisors of ell*(4 - t^2)); the tower
    must consist of irreducible iterates, certified through a witness
    prime at which t has maximal preperiod.
    """
    check_domain(ell, p)
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    ram = ramified_candidates(ell, t)
    if p in ram:
        raise ValueError(
            f"p = {p} may ramify (divides ell*(4 - t^2)); the unramified "
            f"decomposition rule does not apply")
    if witness is None:
        witness = find_irreducibility_witness(ell, t)
        if witness is None:
            raise ValueError(
                "cannot certify that every iterate is irreducible: no "
                "witness prime found; pass one explicitly")
    elif not all_iterates_irreducible(ell, witness, t):
        raise ValueError(f"witness {witness} does not certify irreducibility")

    levels = []
    for lvl in range(1, max_level + 1):
        pat = factor_pattern_predicted(ell, p, lvl, t)
        if not pat.squarefree():
            raise ArithmeticError(
                "multiplicity > 1 at an unramified prime: inconsistent")
        primes = tuple((d, c) for d, _, c in pat.entries)
        total = sum(c for _, c in primes)
        levels.append(LevelDecomp(
            lvl, primes,
            splits_completely=all(d == 1 for d, _ in primes),
            inert=(total == 1)))
    return DecompReport(ell, t, p, witness, tuple(sorted(ram)), tuple(levels))


def verify_reciprocity(ell: int, n: int, p: int) -> bool:
    """Confirm the splitting law for the real cyclotomic towers.

    For odd ell: T_ell^n - 2 splits into linears mod p iff p = +-1 mod
    ell^n.  For ell = 2 the t = 0 tower is used and the modulus is
    2^(n+2).  Returns True when the equivalence holds for this instance.
    """
    check_domain(ell, p, n)
    if ell == 2:
        t, modulus = 0, 2 ** (n + 2)
    else:
        t, modulus = 2, ell ** n
    pat = factor_pattern_actual(ell, p, n, t)
    return pat.all_linear() == (p % modulus in (1 % modulus, modulus - 1))
