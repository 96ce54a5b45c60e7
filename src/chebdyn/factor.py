"""Factor T_ell^n(x) - t over F_p two ways: by actual squarefree plus
distinct-degree splitting, and by the closed-form case analysis driven
by the preperiod of t mod p.  On top of that sit residue-degree reports
for the radical tower and the cyclotomic splitting check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from . import polys
from .cheb import cheb_coeffs, ramified_candidates
from .ffield import alpha_order, check_domain, is_prime, make_field, nu
from .predict import D1, D2, structure_params

__all__ = [
    "FactorPattern",
    "TClass",
    "DecompReport",
    "LevelDecomp",
    "factor_pattern_actual",
    "factor_patterns_actual",
    "classify_t",
    "factor_pattern_predicted",
    "factor_patterns_predicted",
    "all_iterates_irreducible",
    "decompose_prime",
    "verify_reciprocity",
    "DEGREE_CAP",
]

# The largest ell^n factor_pattern_actual takes.  Near it, on a 2-core
# host with one BLAS thread, one fresh process a run, time and peak RSS
# with the kernel's products stacked (pairwise block and range products,
# the reduction table by blocks, x^p from its monomial head), against one
# product at a time, in one session; factor_pattern_actual(ell, p, n, t)
# at (ell, p, n, t) and one verify:
#   (2, 3, 12, 0)               18.0 s  183.6 MiB   42.8 s  189.4 MiB
#   (2, 3, 12, 1)                1.9 s   71.0 MiB    3.4 s   72.5 MiB
#   (3, 5, 7, 1)                 2.9 s   78.1 MiB    4.5 s   78.4 MiB
#   (2, 11, 12, 1)              21.8 s  183.6 MiB   42.0 s  189.5 MiB
#   (2, 13, 12, 105)            22.6 s  183.7 MiB   44.6 s  189.5 MiB
#   verify --ell 2 --p 3 --n 14 29.8 s  323 MiB     53.0 s  327 MiB
DEGREE_CAP = 1 << 12
# The rows x degree of one stacked distinct-degree split.  The split keeps
# about 2 J + 3 s + isqrt(d s) residues a row (polys.distinct_degree_counts)
# besides the kernel's d^2 or 2 d^2 floats, so the bound caps the stored
# powers; every t of a field with p <= 31 at degree <= 256 fits one stack.
# Traced peaks of one full stack of T_3^n - t (tracemalloc, t < rows, p =
# 10007 but at d = 2187, p = 5), with the block products by pairwise
# trees: 4.2 MiB at d = 3 (5,461 rows), 3.9 MiB at d = 9 (1,820), 10.3
# MiB at d = 81 (202), 16.9 MiB at d = 243 (67), 41.6 MiB at d = 729
# (22) and 103.2 MiB at d = 2187 (5), of which R and Q take 73 MiB;
# against 4.2, 4.1, 10.7, 22.1, 53.6 and 104.1 MiB with one product at
# a time.
STACK_CELLS = 1 << 14
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
    """Pattern of T_ell^n(x) - t mod p by direct factorization: the one-t
    case of factor_patterns_actual."""
    return next(factor_patterns_actual(ell, p, n, (t,)))


def factor_patterns_actual(ell: int, p: int, n: int,
                           ts: Iterable[int]) -> Iterator[FactorPattern]:
    """The pattern of T_ell^n(x) - t mod p for each t in ts, in order, by
    direct factorization.

    One check per call tests every t: with f = T_ell^n and g = f mod f',
    T^2 - 4 annihilates g, that is g^2 = 4 mod f' (polys.mul and
    polys.rem, checked before the first chunk; an ArithmeticError if it
    fails).  Then f - t is squarefree whenever t^2 != 4 mod p:
    T^2 - 4 = (T - t)(T + t) + t^2 - 4, so (g - t)(g + t) = 4 - t^2, a nonzero
    constant, mod f', g - t is a unit, and gcd(f - t, f') =
    gcd(g - t, f') = 1.  The check holds since every critical value of
    T_d is +-2: T_d(z + 1/z) = z^d + z^-d gives (x^2 - 4) f'^2 =
    d^2 (f^2 - 4), and p does not divide d.  Every t with t^2 != 4
    joins one distinct-degree split of the stack of moduli T_ell^n - t
    (polys.distinct_degree_counts with shifts), which differ only in
    their constant term; t = +-2 go through the squarefree loop, whose
    first step is their one gcd(f - t, f'), and their parts are split
    one at a time.  Equal-degree splitting is never needed, since only
    the pattern is reported.  The ts run in chunks of
    STACK_CELLS // ell^n (at least one), so a stack holds at most that
    many rows.  The domain and the degree are checked before the first
    pattern is asked for.
    """
    check_domain(ell, p, n)
    # ell >= 2, so ell^n >= 2^n > DEGREE_CAP once n >= its bit length
    if n >= DEGREE_CAP.bit_length() or ell ** n > DEGREE_CAP:
        raise ValueError(f"degree {ell}^{n} exceeds cap {DEGREE_CAP}")
    d = ell ** n
    polys.limb_width(d, p)  # refuses a p beyond the kernel's bound
    return _patterns(cheb_coeffs(d, p), p, iter(ts))  # T_ell^n = T_(ell^n)


def _patterns(f: list[int], p: int, ts: Iterator[int]
              ) -> Iterator[FactorPattern]:
    d = len(f) - 1
    df = polys.deriv(f, p)
    g = polys.rem(f, df, p)
    # mul and rem use none of the float64 kernel's products, so the
    # check is independent of the kernel
    if polys.rem(polys.mul(g, g, p), df, p) != [4 % p]:
        raise ArithmeticError("T^2 - 4 does not annihilate f mod f'")
    while chunk := list(islice(ts, max(1, STACK_CELLS // d))):
        entries: list[list[tuple[int, int, int]]] = []
        flat = []  # (index in chunk, t) of the squarefree moduli
        for t in chunk:
            if (t * t - 4) % p:  # squarefree: stacked
                flat.append((len(entries), t))
                entries.append([])
                continue
            ft = f[:]
            ft[0] = (ft[0] - t) % p
            entries.append([(deg, mult, count)
                            for part, mult in polys.squarefree_parts(ft, p)
                            for deg, count in polys.distinct_degree_counts(
                                part, p)[0].items()])
        if flat:
            stack = polys.distinct_degree_counts(f, p, [t for _, t in flat])
            for (i, _), counts in zip(flat, stack):
                entries[i] = [(deg, 1, count) for deg, count in counts.items()]
        for found in entries:
            pat = FactorPattern.from_entries(found)
            if pat.total != d:
                raise ArithmeticError(
                    "factor degrees do not sum to the degree")
            yield pat


@dataclass(frozen=True)
class TClass:
    """How t sits in the graph over F_p: preperiod, base branch of its
    eventual cycle, and whether it is one of the special values; with v
    and mu of structure_params(ell, p, 1), the two invariants of (ell, p)
    the closed-form patterns read."""

    ell: int
    p: int
    tbar: int
    rho: int
    branch: str  # D1 or D2
    is_special: bool
    cycle_divisor: int  # prime-to-ell part of ord(alpha)
    v: int
    mu: int


def classify_t(ell: int, p: int, t: int) -> TClass:
    params = structure_params(ell, p, 1)  # domain first
    return next(_classes(params, [(t, *_ladder(ell, p, t))]))


def _ladder(ell: int, p: int, t: int) -> tuple[int, int]:
    """(rho, d0) of the order ell^rho d0 (d0 prime to ell) that
    alpha_order's ladder gives the lifted root of t mod p."""
    ordv, _ = alpha_order(make_field(p, 1).from_int(t % p))
    rho = nu(ordv, ell)
    return rho, ordv // ell ** rho


def _classes(params, items: Iterable[tuple[int, int, int]]
             ) -> Iterator[TClass]:
    """The class of each t of (t, rho, d0) in items, where the caller gives
    the order ell^rho d0 (d0 prime to ell) of the lifted root of t mod p:
    alpha_order's ladder (_ladder), or the order tables of a built graph.
    (ell, p) is proved and its invariants derived once, in params =
    structure_params(ell, p, n), whose D1, D2, v and mu do not depend on
    n.  An order whose d0 divides neither D1 nor D2 raises an
    ArithmeticError naming t and the order."""
    ell, p = params.ell, params.p
    specials = (2 % p, (-2) % p) + ((0,) if ell == 2 else ())
    for t, rho, d0 in items:
        tbar = t % p
        if params.d1 % d0 == 0:
            branch = D1
        elif params.d2 % d0 == 0:
            branch = D2
        else:
            raise ArithmeticError(
                f"t={tbar}: order {ell ** rho * d0} has cycle divisor {d0}, "
                f"which divides neither D1={params.d1} nor D2={params.d2}")
        yield TClass(ell, p, tbar, rho, branch, tbar in specials, d0,
                     params.v, params.mu)


def _geom_sum(ell: int, kmax: int) -> int:
    """sum of ell^k for k = 0..kmax-1 (0 when kmax <= 0)."""
    return sum(ell ** k for k in range(max(kmax, 0)))


def factor_pattern_predicted(ell: int, p: int, n: int, t: int) -> FactorPattern:
    """Pattern of T_ell^n(x) - t mod p from the closed-form case analysis:
    no polynomial arithmetic, only the class of t mod p."""
    return next(factor_patterns_predicted(ell, p, n, (t,)))


def factor_patterns_predicted(ell: int, p: int, n: int, ts: Iterable[int]
                              ) -> Iterator[FactorPattern]:
    """The closed-form pattern of T_ell^n(x) - t mod p for each t in ts, in
    order, with (ell, p) proved once and the case analysis run once per
    class key: the pattern reads t only through its class, and t itself
    only at the special values, which the key holds.  The domain is
    checked before the first pattern is asked for."""
    check_domain(n=n)
    classes = _classes(structure_params(ell, p, 1),  # checks ell, p
                       ((t, *_ladder(ell, p, t)) for t in ts))
    seen: dict[tuple, FactorPattern] = {}

    def pattern(cls: TClass) -> FactorPattern:
        key = (cls.rho, cls.branch, cls.tbar if cls.is_special else -1)
        if key not in seen:
            seen[key] = _predicted(cls, n)
        return seen[key]

    return map(pattern, classes)


def _predicted(cls: TClass, n: int) -> FactorPattern:
    """The closed-form pattern of T_ell^n(x) - t for t of class cls: a
    function of the class and n alone."""
    ell, p, tbar, rho, v, mu = cls.ell, cls.p, cls.tbar, cls.rho, cls.v, cls.mu
    entries: list[tuple[int, int, int]]

    if ell == 2 and tbar == 2 % p:
        # T_2^m - 2 = (T_2^(m-1) - 2)(T_2^(m-1) + 2) down to T_2 - 2 =
        # (x - 2)(x + 2): two linear factors, and the t = -2 case below
        # at each level m < n
        entries = [(1, 1, 2)]
        for m in range(1, n):
            entries.append((1, 2, 2 ** (m - 1)) if m < v else
                           (2 ** (m - v + 1), 2, 2 ** (v - 2)))
    elif rho > 0:
        # t is strictly preperiodic, rho levels up a tree of height v;
        # for ell = 2, t = -2 (rho = 1) is among them, and T_2^n + 2 =
        # (T_2^(n-1))^2 squares every factor
        mult = 2 if ell == 2 and tbar == (-2) % p else 1
        if n > v - rho:
            deg, count = ell ** (n - v + rho), ell ** (v - rho)
        elif ell == 2 and cls.branch == D2:
            deg, count = 2, 2 ** (n - 1)
        else:
            deg, count = 1, ell ** n
        entries = [(deg, mult, count // mult)]
    elif ell % 2:
        if cls.is_special:
            # t = +-2: one simple linear factor; everything else squares up
            deg0, mult = mu, 2
        else:
            deg0, mult = (mu if cls.branch == D1 else 2 * mu), 1
        per_k = (ell - 1) // (deg0 * mult)
        entries = [(1, 1, 1), (deg0, mult, per_k * _geom_sum(ell, min(n, v)))]
        for k in range(1, n - v + 1):
            entries.append((deg0 * ell ** k, mult, per_k * ell ** (v - 1)))
    elif cls.branch == D1:
        entries = [(1, 1, 1 + _geom_sum(2, min(n, v)))]
        for k in range(1, n - v + 1):
            entries.append((2 ** k, 1, 2 ** (v - 1)))
    else:
        # counts follow the weight rule for D2 trees: roots of preperiod
        # v+k have weight 2^k, so each k contributes 2^(v-1) factors of
        # degree 2^k
        entries = [(1, 1, 2), (2, 1, _geom_sum(2, min(n, v) - 1))]
        for k in range(1, n - v + 1):
            entries.append((2 ** k, 1, 2 ** (v - 1)))

    pat = FactorPattern.from_entries(entries)
    if pat.total != ell ** n:
        raise ArithmeticError(
            f"predicted pattern totals {pat.total}, wanted {ell ** n}: "
            f"case analysis bug for (ell={ell}, p={p}, n={n}, t={tbar})")
    return pat


def all_iterates_irreducible(ell: int, p: int, t: int) -> bool:
    """True when T_ell^n(x) - t is irreducible mod p for every n >= 1,
    hence irreducible over the integers.

    Holds exactly when t mod p is strictly preperiodic of maximal height:
    pper = v > 0.
    """
    cls = classify_t(ell, p, t)
    return cls.rho > 0 and cls.rho == cls.v


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
    cls = classify_t(ell, p, t)  # checks the domain first
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
                f"no witness prime for t = {t} up to WITNESS_BOUND = "
                f"{WITNESS_BOUND} certifies every iterate irreducible; pass "
                "one to the library call decompose_prime(..., witness=w)")
    elif not all_iterates_irreducible(ell, witness, t):
        raise ValueError(f"witness {witness} does not certify irreducibility")

    levels = []
    for lvl in range(1, max_level + 1):
        pat = _predicted(cls, lvl)
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
    pat = factor_pattern_actual(ell, p, n, 0 if ell == 2 else 2)
    modulus = 2 ** (n + 2) if ell == 2 else ell ** n
    return pat.all_linear() == (p % modulus in (1 % modulus, modulus - 1))
