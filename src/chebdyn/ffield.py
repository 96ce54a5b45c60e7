"""Exact arithmetic in F_p and F_{p^n}, integer factorization, and
multiplicative orders.

The field F_{p^n} is modelled as F_p[x]/(m(x)) where m is the
lexicographically smallest monic irreducible of degree n, so every
context is bit-for-bit reproducible.  Candidates are tested on the
factoring route of polys: m is irreducible when gcd(m, m') = 1 and its
distinct-degree split is one factor of degree n.  Elements carry a
canonical integer index sum(c_i * p^i), which lets graphs live in flat
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from . import polys

__all__ = [
    "FactoredInt",
    "FieldCtx",
    "FFElem",
    "Branch",
    "MINUS",
    "PLUS",
    "is_prime",
    "check_domain",
    "factor_int",
    "make_field",
    "element_degree",
    "nu",
]

FACTOR_LIMIT = 1 << 96
TRIAL_BOUND = 1 << 12

# Branch tags: which of p^n -+ 1 the order of a lifted root divides.
MINUS = "minus"
PLUS = "plus"
Branch = str


# ---------------------------------------------------------------------------
# Integer factorization
# ---------------------------------------------------------------------------

# No composite passes Miller-Rabin on the first 13 prime bases below
# PSI_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# all of them (Sorenson and Webster, Math. Comp. 86, 2017); from PSI_13
# on, is_prime proves what passes them by Pocklington's theorem.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Proven primality of n < 2^96: Miller-Rabin on the 13 bases, exact
    below PSI_13, and from PSI_13 on, for n that passes them, Pocklington's
    theorem on the factored n - 1 (_pocklington), which refuses
    (ValueError) where it finds no witness.  Never True on a probable
    prime."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI_13 or _pocklington(n)


def _pocklington(n: int) -> bool:
    """Whether odd n > 41 is prime, proven from the primes r of n - 1.

    Pocklington's theorem with n - 1 wholly factored (Brillhart, Lehmer
    and Selfridge, Math. Comp. 29, 1975): n is prime when every r has a
    witness a, a^(n-1) = 1 mod n and gcd(a^((n-1)/r) - 1, n) = 1.  A base
    with a^(n-1) != 1, or with a gcd strictly between 1 and n, proves n
    composite.  For prime n, a is a witness for r unless it is an r-th
    power mod n, and under GRH the least r-th power non-residue is below
    2 (ln n)^2 (Bach, Math. Comp. 55, 1990), below 8,856 for n < 2^96;
    bases up to that bound are tried, and past it the proof is refused.
    Every prime of n - 1 is below n, so the proofs inside
    factor_int(n - 1) recurse downwards and end below PSI_13.
    """
    m, bound = n - 1, 2 * math.log(n) ** 2
    for r in _factor_below(n).primes:
        a = 2
        while (g := math.gcd(pow(a, m // r, n) - 1, n)) == n:
            a += 1
            if a > bound:
                raise ValueError(
                    f"no Pocklington witness below {bound:.0f} for the "
                    f"prime {r} of {n} - 1: primality of {n} unproven")
        if g > 1 or pow(a, m, n) != 1:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n.

    Brent's cycle variant with a fixed, deterministic parameter schedule.
    """
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho schedule exhausted on {n}")


def _factor_map(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer kept as an increasing tuple of (prime, exponent)."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for q, e in self.factors:
            if q <= last or e < 1:
                raise ValueError(f"malformed factorization {self.factors}")
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
            last = q

    @classmethod
    def _proven(cls, factors: tuple[tuple[int, int], ...]) -> "FactoredInt":
        """A FactoredInt whose primes are all proven already, built without
        proving them again (divisors and phi of a checked FactoredInt)."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        return out

    @property
    def value(self) -> int:
        v = 1
        for q, e in self.factors:
            v *= q ** e
        return v

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    def nu(self, ell: int) -> int:
        """Exponent of the prime ell in this integer."""
        for q, e in self.factors:
            if q == ell:
                return e
        return 0

    def divisors(self) -> Iterator["FactoredInt"]:
        """All positive divisors, factored, in ascending order of value."""
        divs: list[tuple[int, tuple[tuple[int, int], ...]]] = [(1, ())]
        for q, e in self.factors:
            divs = [(v * q ** k, f + ((q, k),) if k else f)
                    for v, f in divs for k in range(e + 1)]
        for _, f in sorted(divs):
            yield FactoredInt._proven(f)

    def phi(self) -> "FactoredInt":
        """Euler's phi of this integer, factored."""
        fm: dict[int, int] = {}
        for q, e in self.factors:
            if e > 1:
                fm[q] = fm.get(q, 0) + e - 1
            for r, s in _factor_below(q).factors:
                fm[r] = fm.get(r, 0) + s
        return FactoredInt._proven(tuple(sorted(fm.items())))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{q}^{e}" if e > 1 else str(q) for q, e in self.factors)


def factor_int(n: int) -> FactoredInt:
    """Complete prime factorization of 1 <= n < 2^96, deterministic."""
    if n == 0:
        raise ValueError("cannot factor 0")
    if n < 0:
        raise ValueError("n must be positive")
    if n >= FACTOR_LIMIT:
        raise ValueError(f"a {n.bit_length()}-bit integer exceeds the 2^96 "
                         "factorization bound")
    fm = _factor_map(n)
    return FactoredInt(tuple(sorted(fm.items())))


@lru_cache(maxsize=None)
def _factor_below(q: int) -> FactoredInt:
    """factor_int(q - 1), once per q: phi of the prime q, and the
    primality proof of q (_pocklington)."""
    return factor_int(q - 1)


def nu(x: int, ell: int) -> int:
    """Exponent of ell in the positive integer x."""
    if x <= 0:
        raise ValueError(f"nu needs a positive integer, got {x}")
    if ell < 2:
        raise ValueError(f"nu needs a base >= 2, got {ell}")
    k = 0
    while x % ell == 0:
        x //= ell
        k += 1
    return k


def _lex_min_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Coefficients (c_0..c_{n-1}) of the lex-smallest monic irreducible.

    c_0 = 0 means x divides, so the scan starts at c_0 = 1; within that
    the remaining coefficients run in ascending lexicographic order.  A
    candidate f is irreducible when it is squarefree, gcd(f, f') = 1,
    and its distinct-degree split is one factor of degree n.
    """
    if n == 1:
        return (0,)
    for c0 in range(1, p):
        for rest in product(range(p), repeat=n - 1):
            f = [c0, *rest, 1]
            if (polys.gcd(f, polys.deriv(f, p), p) == [1]
                    and polys.distinct_degree_counts(f, p) == [{n: 1}]):
                return tuple(f[:-1])
    raise ArithmeticError("no irreducible found")  # unreachable


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable descriptor of F_{p^n} with pre-factored group orders.

    Construct through make_field.  Lazy caches (order tables, Frobenius
    indices) are write-once and safe for concurrent readers.
    """

    # Order tables are built by one Chebyshev trace walk per side, a block
    # of exponents at a time, and keep 2 bytes per element (a uint16
    # divisor-class id; each class's order and branch are stored once),
    # the Frobenius map 4 (int32); alpha_order_tables and
    # frobenius_indices refuse above this size, which also keeps the walk's
    # n * p^2 below 2^53, every index below 2^31 and each side's divisor
    # count below 2^15.  alpha_order neither builds nor reads the tables:
    # it always takes the T_d ladder.  It is also the default graph
    # enumeration cap (graph.DEFAULT_CAP): on a 2-core host with one BLAS
    # thread, `chebdyn graph --ell 3 --p 33554393 --n 1`, q just below
    # 2^25, ran in 7.5-9.7 s with a peak RSS of 978 MiB (31 bytes per
    # vertex, fresh processes), under an eighth of an 8 GB host; G(2, 3,
    # 14), q = 4.78 M, peaks near 39 bytes per vertex (178 MiB, 2.8 s).
    TABLE_CAP = 1 << 25

    def __init__(self, p: int, n: int, modulus: tuple[int, ...],
                 order_minus: FactoredInt, order_plus: FactoredInt):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self.order_minus = order_minus
        self.order_plus = order_plus
        # rows of x^k mod modulus for k = n..2n-2, used by reduction
        red = (polys.rem([0] * k + [1], [*modulus, 1], p)
               for k in range(n, 2 * n - 1))
        self._red = tuple(tuple(r + [0] * (n - len(r))) for r in red)
        # the same rows as int64 columns, for the column product
        self._red_cols = np.array(self._red, dtype=np.int64).reshape(
            n - 1, n, 1)
        self._pow_p = tuple(p ** i for i in range(n))
        self._cache: dict[str, object] = {}

    # -- basic element plumbing -------------------------------------------

    def elem(self, coeffs) -> "FFElem":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) > self.n:
            raise ValueError(f"coefficient vector longer than degree {self.n}")
        if len(c) < self.n:
            c = c + (0,) * (self.n - len(c))
        return FFElem(self, c)

    def from_int(self, k: int) -> "FFElem":
        """Embed an integer as a scalar of the prime field."""
        return self.elem([k] + [0] * (self.n - 1))

    def decode(self, index: int) -> "FFElem":
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for q={self.q}")
        c = []
        for _ in range(self.n):
            index, r = divmod(index, self.p)
            c.append(r)
        return FFElem(self, tuple(c))

    def one(self) -> "FFElem":
        return self.elem([1])

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    # -- reduction kernel ---------------------------------------------------

    def _reduce(self, c: list[int]) -> tuple[int, ...]:
        """Reduce a raw product (length <= 2n-1) mod (p, modulus)."""
        n, p = self.n, self.p
        out = list(c[:n]) + [0] * (n - len(c[:n]))
        for k in range(n, len(c)):
            ck = c[k]
            if ck:
                row = self._red[k - n]
                for i in range(n):
                    out[i] += ck * row[i]
        return tuple(v % p for v in out)

    # -- vector kernels (used by graph building) ----------------------------

    # Whole-field passes run over blocks of this many indices: an (n, BLOCK)
    # int64 working set stays cache-sized, and no temporary grows with q.
    BLOCK = 1 << 15

    def coeff_cols(self, idx: np.ndarray) -> np.ndarray:
        """(n, len(idx)) int64 matrix whose column j is decode(idx[j])."""
        cols = np.empty((self.n, idx.size), dtype=np.int64)
        for i in range(self.n - 1):
            idx, cols[i] = np.divmod(idx, self.p)
        cols[-1] = idx
        return cols

    def encode_cols(self, cols: np.ndarray) -> np.ndarray:
        """Canonical indices of the columns of an (n, m) coefficient
        matrix."""
        return np.array(self._pow_p, dtype=np.int64) @ cols

    def _mul_cols(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product of each column of a by the same column of b, two
        (n, m) int64 matrices of reduced coefficient columns, before its
        last reduction mod p: each product is formed column by column,
        and its rows of degree n..2n-2 are reduced mod p and folded back
        through the rows of x^k mod the modulus, so every entry is below
        (2n - 1) p^2 (q <= TABLE_CAP keeps that below 2^51)."""
        n = self.n
        raw = np.empty((2 * n - 1, a.shape[1]), dtype=np.int64)
        tmp = np.empty(a.shape[1], dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i == 0 or j == n - 1:  # first term of raw[i + j]
                    np.multiply(a[i], b[j], out=raw[i + j])
                else:
                    np.multiply(a[i], b[j], out=tmp)
                    raw[i + j] += tmp
        raw[n:] %= self.p
        acc = raw[:n]
        for k in range(n, 2 * n - 1):
            acc += self._red_cols[k - n] * raw[k]
        return acc

    def ladder_cols(self, d: int, x: np.ndarray) -> np.ndarray:
        """T_d, d >= 1, at each column of x, an (n, m) int64 matrix of
        reduced coefficient columns (coeff_cols), by the pair ladder of
        _cheb_ladder, T_2k = T_k^2 - 2 and T_2k+1 = T_k T_k+1 - x, one
        column product (_mul_cols) a step.  d = o 2^s with o odd: the
        pairs (T_k, T_k+1) run down o's bits, two products a bit after
        the first, which takes one, and the last forms T_o alone; then
        s squarings.  That is at most 2 log2(d) products, and never more
        than the d - 1 of Horner over T_d's coefficients (one at d = 2,
        two at d = 3, four at d = 5)."""
        p, s = self.p, (d & -d).bit_length() - 1
        o = d >> s
        u = x
        if o > 1:
            v = self._mul_cols(x, x)  # (T_1, T_2)
            v[0] -= 2
            v %= p
            for bit in bin(o)[3:-1]:
                if bit == "0":
                    u, v = self._mul_cols(u, u), self._mul_cols(u, v) - x
                    u[0] -= 2
                else:
                    u, v = self._mul_cols(u, v) - x, self._mul_cols(v, v)
                    v[0] -= 2
                u %= p
                v %= p
            u = (self._mul_cols(u, v) - x) % p  # o's last bit is 1
        for _ in range(s):
            u = self._mul_cols(u, u)
            u[0] -= 2
            u %= p
        return u

    def frobenius_indices(self) -> np.ndarray:
        """Read-only int32 permutation array f with f[i] = index of
        decode(i)^p; refused above TABLE_CAP (< 2^31).  x -> x^p is
        F_p-linear: a float64 product with the basis images, reduced by
        polys._mod as in the trace walk."""
        f = self._cache.get("frob")
        if f is None:
            if self.q > self.TABLE_CAP:
                raise ValueError(
                    f"q={self.q} exceeds the Frobenius-map cap {self.TABLE_CAP}")
            basis = []
            for i in range(self.n):
                e = self.elem([0] * i + [1] + [0] * (self.n - 1 - i))
                basis.append((e ** self.p).coeffs)
            fmt = np.array(basis, dtype=np.float64).T
            f = np.empty(self.q, dtype=np.int32)
            for lo in range(0, self.q, self.BLOCK):
                hi = min(lo + self.BLOCK, self.q)
                f[lo:hi] = self.encode_cols(polys._mod(
                    fmt @ self.coeff_cols(np.arange(lo, hi)), self.p))
            f.setflags(write=False)
            self._cache["frob"] = f
        return f

    # -- multiplicative structure -------------------------------------------

    def alpha_order_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-index divisor class of the lifted root, and the order and
        branch of each class.

        Returns (ids, order, branch), read-only arrays shared by every
        caller.  ids is uint16 of length q: ids[i] is the class of a root
        alpha of x^2 - a x + 1 for a = decode(i).  order (int32) and
        branch (int8) hold one entry per class: the multiplicative order
        of alpha, and 0 where that order divides q - 1, 1 where it divides
        q + 1; so order[ids] and branch[ids] are the per-element tables.
        The classes are the divisors of q - 1 and those of q + 1 above 2
        (1 and 2 divide both, and take branch 0), numbered in ascending
        (order, branch).  Since tau(m) <= 2 sqrt(m) < 2^15 for m <= 2^25
        + 1, each side has fewer than 2^15 classes and the ids fit
        uint16; a side with more is refused.  Built by one Chebyshev
        trace walk of each cyclic group.
        """
        t = self._cache.get("alpha")
        if t is None:
            if self.q > self.TABLE_CAP:
                raise ValueError(
                    f"q={self.q} exceeds the order-table cap {self.TABLE_CAP}")
            t = self._build_alpha_tables()
            self._cache["alpha"] = t
        return t

    def _build_alpha_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q = self.q
        # Side m = q -+ 1 is a cyclic group of order m.  If a is the trace
        # of one of its generators alpha, T_e(a) = alpha^e + alpha^-e is
        # the trace of alpha^e, of order m / gcd(e, m); e and -e give the
        # same trace, so e <= m/2 reaches every trace of the side.
        # gcd(e, m) = prod r^j_r over the prime powers r^k || m is kept as
        # the mixed-radix number sum j_r w_r, w_r the product of k + 1
        # over the primes before r: its divisor digits.
        sides = []
        for m, group in ((q + 1, self.order_plus), (q - 1, self.order_minus)):
            size = math.prod(k + 1 for _, k in group.factors)
            if size >= 1 << 15:
                raise ValueError(f"{m} has {size} divisors, more than the "
                                 "2^15 a side that uint16 class ids hold")
            # gcd[i] is the divisor of digits i; a stride r^j has weight w_r
            gcd, strides = np.ones(1, dtype=np.int64), []
            for r, k in group.factors:
                strides += [(r ** j, gcd.size) for j in range(1, k + 1)]
                gcd = np.concatenate([gcd * r ** j for j in range(k + 1)])
            sides.append((m, group, strides, m // gcd))
        # the classes keyed 2 order + branch: a = +-2 (alpha = +-1) lies on
        # both sides, and its order 1 or 2 takes branch 0 on either walk
        orders = np.concatenate([side[-1] for side in sides])
        keys, rank = np.unique(2 * orders + ((q - 1) % orders != 0),
                               return_inverse=True)
        to_ids = np.split(rank.astype(np.uint16), [sides[0][-1].size])
        unset = 0xFFFF  # above every id: 2^15 - 1 classes a side at most
        ids = np.full(q, unset, dtype=np.uint16)
        for (m, group, strides, _), to_id in zip(sides, to_ids):
            a = self._full_order_trace(m, group)
            for lo, cols in self._trace_walk(a, m // 2 + 1):
                # the digits of gcd(e, m) for e = lo, lo + 1, ...: w_r for
                # each prime power r^j | m that divides e, so e = 0 gets
                # every digit full, gcd m
                digits = np.zeros(cols.shape[1], dtype=np.uint16)
                for rj, w in strides:
                    digits[(-lo) % rj::rj] += w
                ids[self.encode_cols(cols)] = to_id[digits]
        if (ids == unset).any():
            raise ArithmeticError("order walk left unassigned vertices")
        tables = (ids, (keys // 2).astype(np.int32),
                  (keys % 2).astype(np.int8))
        for t in tables:
            t.setflags(write=False)
        return tables

    def _full_order_trace(self, m: int, group: FactoredInt) -> "FFElem":
        """Smallest-index a whose lifted root has order exactly m = q -+ 1:
        T_m(a) = 2 and T_{m/r}(a) != 2 for every prime r | m.  When n > 1
        the scan starts at index p, since a root over F_p has order
        dividing p -+ 1."""
        for i in range(self.p if self.n > 1 else 0, self.q):
            a = self.decode(i)
            t, two, p = _ladder_operands(a, self)
            if _cheb_ladder(m, t, two, p) == two and all(
                    _cheb_ladder(m // r, t, two, p) != two
                    for r in group.primes):
                return a
        raise ArithmeticError(f"no trace of order {m} found")

    def _trace_walk(self, a: "FFElem", count: int
                    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (lo, cols), column j of the (n, size) block cols being
        T_{lo+j}(a), up to T_{count-1}(a) (count >= 2).

        T_{h+j} = T_h T_j - T_{h-j}: the first block doubles up from
        (T_0, T_1), and every later block is T_lo times the first block
        minus T_lo, T_{lo-1}, ... read back off the block before it.

        The multiplier, the matrix of y -> T_lo y, comes from one x-power
        table built per walk: the matrices of y -> x^k y for k < n, whose
        column j is x^(j+k) mod the modulus (the unit vectors, then the
        rows of _red_cols), stacked as one (n^2, n) array.  Its product
        with T_lo's coefficients is a sum of n products of residues, at
        most n(p - 1)^2, and is reduced before the block product.  T_lo
        itself is the matrix of y -> a y, formed the same way once,
        applied to T_{lo-1}, less T_{lo-2}, so its entries lie where a
        block's do.  These n and n^2 entries are reduced by float %,
        exact on float64 integers: at that size its one pass beats
        _mod's four (a walk at p = 145007, 16 multipliers, took 0.69
        against 0.88 ms on a 2-core host).

        The blocks are kept as float64 residues, and each one is reduced
        once, by polys._mod: before that reduction an entry is a product
        sum of at most n(p - 1)^2 less a residue, so it lies in
        (-p, n(p - 1)^2], exact in float64 and in _mod's domain while
        n(p - 1)^2 + p <= 2^53, which TABLE_CAP guarantees.  The columns
        are yielded as int64."""
        n, p = self.n, self.p
        # x^0 .. x^(2n-2) mod the modulus as rows; powers[j + k] is column
        # j of the matrix of y -> x^k y, and the transpose puts its
        # coefficient i first: table[i n + j, k] = x^(j+k)_i
        powers = np.concatenate((np.eye(n), self._red_cols.reshape(n - 1, n)))
        table = powers[np.add.outer(np.arange(n), np.arange(n))].T.reshape(
            n * n, n)
        size = min(count, self.BLOCK)
        base = np.zeros((n, size))
        base[0, 0], base[:, 1] = 2, a.coeffs  # T_0, T_1
        times_a = ((table @ base[:, 1]) % p).reshape(n, n)

        def extend(prev: np.ndarray, take: int) -> np.ndarray:
            # T_lo .. T_{lo+take-1}, prev ending with T_{lo-2}, T_{lo-1}
            h = (times_a @ prev[:, -1] - prev[:, -2]) % p  # T_lo
            times_h = ((table @ h) % p).reshape(n, n)
            block = times_h @ base[:, :take]
            block[:, 0] = h  # T_lo T_0 - T_lo
            block[:, 1:] -= prev[:, :-take:-1]  # T_{lo-1} .. T_{lo-take+1}
            return polys._mod(block, p)

        done = 2
        while done < size:
            take = min(done, size - done)
            base[:, done:done + take] = extend(base[:, :done], take)
            done += take
        yield 0, base.astype(np.int64)
        prev = base
        for lo in range(size, count, size):
            prev = extend(prev, min(size, count - lo))
            yield lo, prev.astype(np.int64)


class FFElem:
    """Element of F_{p^n} as a coefficient tuple (c_0..c_{n-1})."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        """Canonical integer encoding sum(c_i * p^i)."""
        return sum(c * w for c, w in zip(self.coeffs, self.ctx._pow_p))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "FFElem") -> "FFElem":
        p = self.ctx.p
        return FFElem(self.ctx, tuple((a + b) % p
                                      for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FFElem") -> "FFElem":
        p = self.ctx.p
        return FFElem(self.ctx, tuple((a - b) % p
                                      for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FFElem":
        p = self.ctx.p
        return FFElem(self.ctx, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FFElem") -> "FFElem":
        raw = [0] * (2 * self.ctx.n - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    raw[i + j] += x * y
        return FFElem(self.ctx, self.ctx._reduce(raw))

    def __pow__(self, e: int) -> "FFElem":
        if e < 0:
            return self.inverse() ** (-e)
        r = self.ctx.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.ctx.q - 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, FFElem) and self.coeffs == other.coeffs \
            and self.ctx == other.ctx

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.coeffs))

    def __repr__(self) -> str:
        return f"FFElem({list(self.coeffs)} over GF({self.ctx.p}^{self.ctx.n}))"

# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def check_domain(ell: int | None = None, p: int | None = None,
                 n: int | None = None, cap: int | None = None) -> None:
    """Refuse (ValueError) an input outside the domain of the structure
    theory: T_ell with ell prime acting on F_{p^n} with p an odd prime
    other than ell, n >= 1 and, when an enumeration cap is given, q = p^n
    at most that cap and FieldCtx.TABLE_CAP, which the order tables need.

    Arguments left as None are not checked (make_field has no ell).  The
    public entry points call this before any other work.
    Characteristic 2 is out: with p = 2 the values 2 and -2 collapse onto
    0 and the three special vertices of the dynamics degenerate.
    """
    if ell is not None and not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if p is not None:
        if p == 2 or not is_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        if p == ell:
            raise ValueError(f"p = {p} must differ from ell")
    if n is not None and n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    cap = None if cap is None else min(cap, FieldCtx.TABLE_CAP)
    # p >= 3, so p^n > 2^n > cap once n >= cap.bit_length(): a huge n is
    # refused without forming p^n
    if cap is not None and (n >= cap.bit_length() or p ** n > cap):
        raise ValueError(f"q = {p}^{n} exceeds the enumeration cap {cap}")


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldCtx:
    """Deterministic context for F_{p^n}; p an odd prime, n >= 1
    (check_domain).

    The modulus is the lex-smallest monic irreducible of degree n and the
    group orders p^n -+ 1 come pre-factored.
    """
    check_domain(p=p, n=n)
    q = p ** n
    return FieldCtx(p, n, _lex_min_irreducible(p, n),
                    factor_int(q - 1), factor_int(q + 1))


def element_degree(a: FFElem) -> int:
    """[F_p(a) : F_p]: the length of the Frobenius orbit of a."""
    p = a.ctx.p
    b = a ** p
    m = 1
    while b != a:
        b = b ** p
        m += 1
    return m


def _cheb_ladder(d: int, a, two, p: int = 0):
    """T_d(a) in O(log d) ring operations (cheb.cheb_eval is the public
    form).

    Uses the pair ladder T_2k = T_k^2 - 2, T_2k+1 = T_k T_k+1 - a, both
    consequences of T_d(z + 1/z) = z^d + z^-d.  a and two are FFElem, or,
    when p is given, plain residues mod p: the fast form on a prime field.
    """
    u, v = two, a  # (T_0, T_1)
    for bit in bin(d)[2:]:
        if bit == "0":
            u, v = u * u - two, u * v - a
        else:
            u, v = u * v - a, v * v - two
        if p:
            u, v = u % p, v % p
    return u


def _ladder_operands(a: FFElem, ctx: FieldCtx) -> tuple:
    """(a, 2, p) for _cheb_ladder: plain residues mod p on a prime field,
    FFElem with p = 0 otherwise."""
    if ctx.n == 1:
        return a.coeffs[0], 2, ctx.p
    return a, ctx.from_int(2), 0


def alpha_order(a: FFElem) -> tuple[int, Branch]:
    """Order of the lifted root alpha of x^2 - a x + 1, with its branch tag.

    T_k(alpha + 1/alpha) = alpha^k + alpha^-k, so alpha^k = 1 exactly when
    T_k(a) = 2.  The branch is MINUS when T_{q-1}(a) = 2, else PLUS, and the
    order is the least k dividing q -+ 1 with T_k(a) = 2: for each prime
    power r^e exactly dividing q -+ 1, T_r is applied to T_{(q-+1)/r^e}(a)
    until it reaches 2 (T_r . T_k = T_rk).  That is O(omega(q -+ 1) log q)
    ring operations, and no table: the walk tables that label the graph
    are never read, so the closed-form route checks them.  The ladder
    runs on the plain residue on a prime field, on FFElem products
    otherwise.
    """
    ctx = a.ctx
    t, two, p = _ladder_operands(a, ctx)
    br = MINUS if _cheb_ladder(ctx.q - 1, t, two, p) == two else PLUS
    group = ctx.order_minus if br == MINUS else ctx.order_plus
    size = group.value
    order = 1
    for r, e in group.factors:
        y = _cheb_ladder(size // r ** e, t, two, p)
        for _ in range(e):
            if y == two:
                break
            y = _cheb_ladder(r, y, two, p)
            order *= r
        if y != two:
            raise ArithmeticError(f"T_{size}({a}) != 2 on the {br} branch")
    return order, br
