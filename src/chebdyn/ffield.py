"""Exact arithmetic in F_p and F_{p^n}, integer factorization, and
multiplicative orders.

The field F_{p^n} is modelled as F_p[x]/(m(x)) where m is the
lexicographically smallest monic irreducible of degree n, so every
context is bit-for-bit reproducible.  Elements carry a canonical
integer index sum(c_i * p^i), which lets graphs live in flat arrays.
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
    "strip_ell",
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

# Witnesses proving Miller-Rabin deterministic below 3.3 * 10^24; for the
# handful of larger inputs we allow (N < 2^96) the same fixed set is used.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2^96."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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
    """factor_int(q - 1), once per prime q."""
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


def strip_ell(values: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (prime-to-ell part, ell-valuation) of positive integers."""
    if ell < 2:
        raise ValueError(f"strip_ell needs a base >= 2, got {ell}")
    rest = values.copy()
    k = np.zeros(rest.shape, dtype=np.int64)
    while True:
        m = rest % ell == 0
        if not m.any():
            return rest, k
        rest[m] //= ell
        k[m] += 1


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin irreducibility test for monic f over F_p."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    if polys.powmod(x, p ** n, f, p) != x:
        return False
    for q in factor_int(n).primes:
        g = polys.sub(polys.powmod(x, p ** (n // q), f, p), x, p)
        if polys.gcd(g, f, p) != [1]:
            return False
    return True


def _lex_min_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Coefficients (c_0..c_{n-1}) of the lex-smallest monic irreducible.

    c_0 = 0 means x divides, so the scan starts at c_0 = 1; within that
    the remaining coefficients run in ascending lexicographic order.
    """
    if n == 1:
        return (0,)
    for c0 in range(1, p):
        for rest in product(range(p), repeat=n - 1):
            tup = (c0,) + rest
            if _is_irreducible(list(tup) + [1], p):
                return tup
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
    # of exponents at a time, and keep 5 bytes per element (int32 orders,
    # int8 branches); alpha_order_tables refuses above this size, which
    # also keeps the walk's n * p^2 below 2^53.  alpha_order never builds
    # the tables: it reads them when build_graph already has.  It is also
    # the default graph enumeration cap (graph.DEFAULT_CAP): `chebdyn
    # graph` peaks near 87 bytes per vertex (396 MiB at G(2, 3, 14),
    # q = 4.78 M), so 2^25 vertices take about 2.9 GB, under half of an
    # 8 GB host, and 2^26 would not.
    TABLE_CAP = 1 << 25

    def __init__(self, p: int, n: int, modulus: tuple[int, ...],
                 order_minus: FactoredInt, order_plus: FactoredInt):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self.order_minus = order_minus
        self.order_plus = order_plus
        # rows of x^(n+k) mod modulus for k = 0..n-2, used by reduction
        red = []
        if n > 1:
            base = tuple((-c) % p for c in modulus)
            red.append(base)
            for _ in range(n - 2):
                prev = red[-1]
                top = prev[n - 1]
                row = [0] + list(prev[: n - 1])
                if top:
                    row = [(row[i] + top * base[i]) % p for i in range(n)]
                red.append(tuple(row))
        self._red = tuple(red)
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

    def coeff_cols(self, lo: int, hi: int) -> np.ndarray:
        """(n, hi - lo) int64 matrix whose column j is decode(lo + j)."""
        idx = np.arange(lo, hi, dtype=np.int64)
        cols = np.empty((self.n, hi - lo), dtype=np.int64)
        for i in range(self.n - 1):
            idx, cols[i] = np.divmod(idx, self.p)
        cols[-1] = idx
        return cols

    def encode_cols(self, cols: np.ndarray) -> np.ndarray:
        """Canonical indices of the columns of an (n, m) coefficient
        matrix."""
        return np.array(self._pow_p, dtype=np.int64) @ cols

    def _matmod(self, M: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(M @ cols) mod p for integer matrices with entries in [0, p);
        the product runs in float64 BLAS, exact while n * p^2 <= 2^53:
        the order tables (q <= TABLE_CAP) and the Frobenius map (q < 2^52)
        stay below that."""
        return (M.astype(np.float64) @ cols).astype(np.int64) % self.p

    def mul_matrix(self, h: "FFElem") -> np.ndarray:
        """(n, n) matrix M with row_vec(a) @ M = row_vec(a * h)."""
        rows = []
        cur = h
        x = self.elem([0, 1] + [0] * (self.n - 2)) if self.n > 1 else None
        for i in range(self.n):
            rows.append(cur.coeffs)
            if x is not None:
                cur = cur * x
        return np.array(rows, dtype=np.int64)

    def frobenius_indices(self) -> np.ndarray:
        """Permutation array f with f[i] = index of decode(i)^p."""
        f = self._cache.get("frob")
        if f is None:
            basis = []
            for i in range(self.n):
                e = self.elem([0] * i + [1] + [0] * (self.n - 1 - i))
                basis.append((e ** self.p).coeffs)
            fmt = np.array(basis, dtype=np.int64).T
            f = np.empty(self.q, dtype=np.int64)
            for lo in range(0, self.q, self.BLOCK):
                hi = min(lo + self.BLOCK, self.q)
                f[lo:hi] = self.encode_cols(
                    self._matmod(fmt, self.coeff_cols(lo, hi)))
            f.setflags(write=False)
            self._cache["frob"] = f
        return f

    # -- multiplicative structure -------------------------------------------

    def alpha_order_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-index order and branch of the lifted root.

        Returns (ord, branch), read-only int32 and int8 arrays of length
        q shared by every caller: ord[i] is the multiplicative order of a
        root of x^2 - a x + 1 for a = decode(i), branch[i] is 0 where that
        order divides q - 1 and 1 where it divides q + 1.  Built by one
        Chebyshev trace walk of each cyclic group.
        """
        t = self._cache.get("alpha")
        if t is None:
            if self.q > self.TABLE_CAP:
                raise ValueError(
                    f"q={self.q} exceeds the order-table cap {self.TABLE_CAP}")
            t = self._build_alpha_tables()
            self._cache["alpha"] = t
        return t

    def _build_alpha_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        # orders divide q -+ 1 <= TABLE_CAP + 1 < 2^31
        ords = np.zeros(q, dtype=np.int32)
        branch = np.zeros(q, dtype=np.int8)
        # Side m = q -+ 1 is a cyclic group of order m.  If a is the trace
        # of one of its generators alpha, T_e(a) = alpha^e + alpha^-e is
        # the trace of alpha^e, of order m / gcd(e, m); e and -e give the
        # same trace, so e <= m/2 reaches every trace of the side.  The
        # minus side walks last: a = +-2 (alpha = +-1) lies on both and
        # keeps branch 0.
        for m, side, group in ((q + 1, 1, self.order_plus),
                               (q - 1, 0, self.order_minus)):
            a = self._full_order_trace(m, group)
            for lo, cols in self._trace_walk(a, m // 2 + 1):
                traces = self.encode_cols(cols)
                e = np.arange(lo, lo + cols.shape[1], dtype=np.int64)
                ords[traces] = m // np.gcd(e, m)
                branch[traces] = side
        if not (ords > 0).all():
            raise ArithmeticError("order walk left unassigned vertices")
        ords.setflags(write=False)
        branch.setflags(write=False)
        return ords, branch

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
        minus T_lo, T_{lo-1}, ... read back off the block before it."""

        def extend(prev: np.ndarray, take: int) -> np.ndarray:
            # T_lo .. T_{lo+take-1}, prev ending with T_{lo-2}, T_{lo-1}
            h = a * self.elem(prev[:, -1]) - self.elem(prev[:, -2])  # T_lo
            block = self._matmod(self.mul_matrix(h).T, base[:, :take])
            block[:, 0] = h.coeffs  # T_lo T_0 - T_lo
            block[:, 1:] -= prev[:, :-take:-1]  # T_{lo-1} .. T_{lo-take+1}
            return block % self.p

        size = min(count, self.BLOCK)
        base = np.zeros((self.n, size), dtype=np.int64)
        base[0, 0], base[:, 1] = 2, a.coeffs
        done = 2
        while done < size:
            take = min(done, size - done)
            base[:, done:done + take] = extend(base[:, :done], take)
            done += take
        yield 0, base
        prev = base
        for lo in range(size, count, size):
            prev = extend(prev, min(size, count - lo))
            yield lo, prev


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
        n = self.ctx.n
        if n == 1:
            return FFElem(self.ctx,
                          (self.coeffs[0] * other.coeffs[0] % self.ctx.p,))
        raw = [0] * (2 * n - 1)
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
    other than ell, n >= 1 and, when a cap is given, q = p^n <= cap.

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
    ring operations, on the plain residue when n = 1, and no table.  When
    the context already holds its walk tables (build_graph builds them),
    they are read instead.
    """
    ctx = a.ctx
    tables = ctx._cache.get("alpha")
    if tables is not None:
        ords, branch = tables
        i = a.index
        return int(ords[i]), (MINUS if branch[i] == 0 else PLUS)
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
