"""Dense polynomial arithmetic over F_p.

Polynomials are lists of ints in [0, p), ascending degree, trailing
zeros trimmed (the zero polynomial is []).  The scalar routines are
plain Python; the ModulusKernel gives exact numpy-backed multiply-reduce,
powering and composition for the Frobenius powers of the factoring
sweeps.  gcd is one Euclid in two step engines: int64 numpy divisions
with delayed reduction while the divisor is long and p < 2^31, the exact
list loop for short divisors and every larger p.  Exact divisions stay
on the list routines.
Factoring has one path per step: the characteristic-p squarefree loop,
whose p-th-root step also covers f' = 0, and the baby-step giant-step
distinct-degree split at every degree >= 2.
"""

from __future__ import annotations

import math

import numpy as np

Poly = list


def trim(a: Poly) -> Poly:
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: Poly) -> int:
    """Degree, with the convention deg 0 = -1."""
    return len(a) - 1


def add(a: Poly, b: Poly, p: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return trim(out)


def sub(a: Poly, b: Poly, p: int) -> Poly:
    out = a[:] + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return trim(out)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([v % p for v in out])


def mul_scalar(a: Poly, k: int, p: int) -> Poly:
    k %= p
    return trim([c * k % p for c in a])


def divmod_(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    b = trim([c % p for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim([c % p for c in a])
    quo = [0] * max(0, len(a) - degree(b))
    _reduce(a, b, p, quo)
    return trim(quo), a


def _reduce(a: Poly, b: Poly, p: int, quo: Poly | None = None) -> None:
    """Replace a by a mod b in place (both trimmed, entries in [0, p));
    the quotient's coefficients go into quo when it is given."""
    db = degree(b)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    while len(a) > db:
        c = a.pop() * inv % p
        if c:
            s = len(a) - db
            if quo is not None:
                quo[s] = c
            a[s:] = [(x - c * y) % p for x, y in zip(a[s:], low)]
    trim(a)


def rem(a: Poly, b: Poly, p: int) -> Poly:
    return divmod_(a, b, p)[1]


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    return mul_scalar(a, pow(a[-1], -1, p), p)


# The Euclid in gcd divides on int64 numpy remainders while the divisor
# has at least this degree, and on the list loop below it.  Measured per
# gcd of random pairs of degree (d, d - 1) at p = 5 on a 2-core host (best
# of 5 passes over 40 pairs): the list loop takes 5.4-6.3 ms at d = 243,
# 1.7-1.9 ms at d = 125 and 0.38-0.41 ms at d = 49, against 1.7-2.2,
# 1.1 and 0.37-0.42 ms for the numpy steps; at d = 27, 8 and 4 the list
# loop wins (0.16 against 0.24, 0.03 against 0.08, 0.017 against 0.043
# ms).  Factoring 37 criterion-07 cases of degree 64 and 243 took
# 1.7-2.0 s with the handoff anywhere from 16 to 64, 2.2 s at 96, and
# 2.7 s on the list loop alone.
GCD_NUMPY_DEGREE = 32

# A numpy division step leaves every remainder entry above -2^62 for
# 2^62 // p^2 steps after a reduction mod p (see gcd).
_STEP_BOUND = 1 << 62


def gcd(a: Poly | np.ndarray, b: Poly | np.ndarray, p: int) -> Poly:
    """Monic gcd of two lists or int arrays of ints, by Euclid.

    While the divisor b has degree at least GCD_NUMPY_DEGREE, each division
    runs on an int64 numpy copy of the remainder with delayed reduction.
    A step reduces only the leading coefficient, c = a[top] mod p / b[-1]
    mod p, and subtracts c * b[:-1] from the slice below it unreduced.
    The divisor holds residues in [0, p), so a step lowers an entry by at
    most (p - 1)^2: reduced mod p every k = 2^62 // p^2 steps, and once at
    the end of each division (which makes the next divisor residues
    again), every entry stays in [-2^62, p) and int64 is exact.  k >= 1
    needs p < 2^31; at larger p the list loop on Python ints runs the
    whole Euclid, so the gcd is exact at every p.

    The handoff is on the divisor's degree because a step costs one slice
    update of that length.  numpy's fixed cost per call is paid back only
    on long slices, so the short divisors at the end of the Euclid, and
    every small-degree gcd, run on the list loop (GCD_NUMPY_DEGREE).
    """
    k = _STEP_BOUND // (p * p)
    if k and min(len(a), len(b)) > GCD_NUMPY_DEGREE:
        a, b = _np_euclid(_np_residues(a, p), _np_residues(b, p), p, k)
    a, b = _residues(a, p), _residues(b, p)
    while b:
        _reduce(a, b, p)
        a, b = b, a
    return monic(a, p)


def _residues(a: Poly | np.ndarray, p: int) -> Poly:
    if isinstance(a, np.ndarray):
        a = a.tolist()
    return trim([c % p for c in a])


def _np_residues(a: Poly | np.ndarray, p: int) -> np.ndarray:
    if not isinstance(a, np.ndarray):
        a = _residues(a, p)
    return _np_trim(np.asarray(a, dtype=np.int64) % p)


def _np_trim(a: np.ndarray) -> np.ndarray:
    n = len(a)
    while n and not a.item(n - 1):
        n -= 1
    return a[:n]


def _np_euclid(a: np.ndarray, b: np.ndarray, p: int,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Euclid's divisions on trimmed int64 residues, which it may
    overwrite, while deg b >= GCD_NUMPY_DEGREE, reducing mod p every k
    steps; returns the last (a, b), both trimmed residues."""
    if len(a) < len(b):
        a, b = b, a
    buf = np.empty(len(b), dtype=np.int64)
    while len(b) > GCD_NUMPY_DEGREE:
        db = len(b) - 1
        inv = pow(b.item(db), -1, p)
        low, prod = b[:-1], buf[:db]
        left = k
        for top in range(len(a) - 1, db - 1, -1):
            c = a.item(top) % p * inv % p
            if c:
                if not left:
                    a[:top] %= p
                    left = k
                part = a[top - db:top]
                np.multiply(low, c, out=prod)
                np.subtract(part, prod, out=part)
                left -= 1
        a, b = b, _np_trim(a[:db] % p)
    return a, b


def powmod(base: Poly, e: int, f: Poly, p: int) -> Poly:
    """base^e mod f over F_p."""
    if not f:
        raise ZeroDivisionError("zero modulus")
    if e < 0:
        raise ValueError("negative exponent")
    r, b = [1], rem(base, f, p)
    while e:
        if e & 1:
            r = rem(mul(r, b, p), f, p)
        b = rem(mul(b, b, p), f, p)
        e >>= 1
    return r


def deriv(a: Poly, p: int) -> Poly:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def sqrt_monic(a: Poly, p: int) -> Poly:
    """Exact square root of a monic perfect square, by back-substitution.

    Raises ArithmeticError when a is not the square of a monic polynomial.
    """
    d = degree(a)
    if d < 0 or d % 2:
        raise ArithmeticError("not a perfect square")
    m = d // 2
    g = [0] * (m + 1)
    g[m] = 1
    inv2 = pow(2, -1, p)
    for k in range(d - 1, m - 1, -1):
        # coefficient of x^k in g^2 is 2*g[k-m] + sum of inner products
        acc = 0
        for i in range(k - m + 1, m):
            j = k - i
            if 0 <= j <= m:
                acc += g[i] * g[j]
        g[k - m] = (a[k] - acc) % p * inv2 % p
    if mul(g, g, p) != a:
        raise ArithmeticError("not a perfect square")
    return g


# ---------------------------------------------------------------------------
# numpy kernel for a fixed modulus
# ---------------------------------------------------------------------------

# Integers below these are exact in int64 and in float64 arithmetic.
INT_EXACT = 1 << 63
FLOAT_EXACT = 1 << 53


def _limb_bits(terms: int, p: int, bound: int, refusal: str) -> int:
    """The largest w with (terms + 1) 2^w p <= bound; ValueError(refusal)
    when w < 1."""
    w = (bound // ((terms + 1) * p)).bit_length() - 1
    if w < 1:
        raise ValueError(refusal)
    return w


def convolve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """np.convolve(a, b) % p, exact for int64 vectors of residues mod p.

    Each output coefficient sums m = min(len(a), len(b)) products, so whole
    residues are exact in int64 while m (p - 1)^2 < 2^63.  Above that the
    shorter vector is split into limbs of w bits, the largest w with
    (m + 1) 2^w p <= 2^63, and the limb products are recombined by
    Horner's rule mod p, every partial sum staying below 2^63.
    """
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m * (p - 1) ** 2 < INT_EXACT:
        return np.convolve(a, b) % p
    w = _limb_bits(m, p, INT_EXACT, f"p = {p} is too large for an exact "
                   f"int64 convolution of length {m}")
    mask = (1 << w) - 1
    out = 0
    for shift in _limb_shifts(p, w):
        out = (out * (1 << w) + np.convolve((a >> shift) & mask, b)) % p
    return out


def _limb_shifts(p: int, w: int) -> range:
    """Bit offsets of the w-bit limbs of a residue mod p, top limb first."""
    return range(((p - 1).bit_length() - 1) // w * w, -1, -w)


def limb_width(d: int, p: int) -> int:
    """Bits per limb of a ModulusKernel of degree d over F_p.

    0 when (d + 1) p^2 <= 2^53 and residues are used whole; otherwise the
    largest w with (d + 1) 2^w p <= 2^53.  Raises ValueError when no w >= 1
    is safe, that is when p > 2^52 / (d + 1).
    """
    if (d + 1) * p * p <= FLOAT_EXACT:
        return 0
    return _limb_bits(
        d, p, FLOAT_EXACT,
        f"p = {p} exceeds the exact polynomial kernel's bound "
        f"2^52 / (d + 1) = {(FLOAT_EXACT // 2) // (d + 1)} at degree {d}")


class ModulusKernel:
    """Exact arithmetic in F_p[x]/(f) for a fixed monic f of degree d.

    Products are exact int64 convolutions (convolve_mod); reduction is one
    float64 vector-matrix product against precomputed rows of x^(d+j) mod
    f, built in exact integers.  Every float64 sum has at most d + 1 terms,
    each a residue below p times a value below B, so it is exact while
    (d + 1) B p <= 2^53.  When (d + 1) p^2 <= 2^53 the residues are used
    whole (B = p); above that the rows are split into limbs of w bits
    (B = 2^w, see limb_width) and the limb products are recombined by
    Horner's rule mod p.  The constructor refuses (ValueError) where no
    limb width is safe, p > 2^52 / (d + 1).
    """

    def __init__(self, f: Poly, p: int):
        if not f or degree(f) < 1:
            raise ZeroDivisionError("zero or constant modulus")
        self.p = p
        self.f = np.array(monic(f, p), dtype=np.int64)
        self.d = len(f) - 1
        d = self.d
        w = limb_width(d, p) or (p - 1).bit_length()  # 0: one whole limb
        self.radix = 1 << w
        self.mask = self.radix - 1
        self.shifts = tuple(_limb_shifts(p, w))
        self.limbs = len(self.shifts)
        self.rows = np.empty((max(d - 1, 0), self.limbs * d))
        # rows are split into limbs 64 at a time: a split per row costs more
        # than the row, and one split of all rows triples the peak memory
        block = np.empty((min(d, 64), d), dtype=np.int64)
        base = row = (-self.f[:d]) % p  # x^d mod f
        for j in range(d - 1):
            if j:
                # x * row: shift up, fold top * base back in, with
                # Horner's rule over the limbs of top (sums below 2 B p)
                top = int(row[-1])
                acc = (top >> self.shifts[0]) * base
                for shift in self.shifts[1:]:
                    acc = acc % p * self.radix + ((top >> shift)
                                                  & self.mask) * base
                row = (np.concatenate(([0], row[:-1])) + acc) % p
            k = j % len(block)
            block[k] = row
            if k == len(block) - 1 or j == d - 2:
                self.rows[j - k:j + 1] = self._split(block[:k + 1])

    def _split(self, m: np.ndarray) -> np.ndarray:
        """float64 limbs of a matrix of residues, side by side along the
        last axis, top limb first (one limb at shift 0 is the matrix)."""
        return np.concatenate([(m >> shift) & self.mask
                               for shift in self.shifts],
                              axis=-1, dtype=np.float64)

    def _recombine(self, u: np.ndarray, head=0) -> np.ndarray:
        """(sum over limbs k of u_k B^(L-1-k)) + head mod p, as int64, for
        u holding the L limb products side by side along its last axis."""
        d, p = self.d, self.p
        acc = u[..., :d]
        for k in range(1, self.limbs):
            acc = acc % p * self.radix + u[..., k * d:(k + 1) * d]
        return ((acc + head) % p).astype(np.int64)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = self.d
        raw = convolve_mod(a, b, self.p)
        return self._recombine(raw[d:].astype(np.float64) @ self.rows,
                               raw[:d])

    def powmod(self, a: np.ndarray, e: int) -> np.ndarray:
        r = np.zeros(self.d, dtype=np.int64)
        r[0] = 1
        b = a
        while e:
            if e & 1:
                r = self.mulmod(r, b)
            b = self.mulmod(b, b)
            e >>= 1
        return r

    def compose(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """g(h) mod f by Brent-Kung baby-step giant-step."""
        p, d = self.p, self.d
        # s <= d keeps each chunk sum plus the Horner term within d + 1
        s = min(math.isqrt(d) + 1, d)
        baby = np.zeros((s, d), dtype=np.int64)
        baby[0, 0] = 1
        for i in range(1, s):
            baby[i] = self.mulmod(baby[i - 1], h)
        hs = self.mulmod(baby[s - 1], h)
        coeffs = np.zeros(((d + s - 1) // s) * s, dtype=np.int64)
        coeffs[: len(g)] = g
        chunks = coeffs.reshape(-1, s).astype(np.float64)
        parts = self._recombine(chunks @ self._split(baby))
        out = np.zeros(d, dtype=np.int64)
        for part in parts[::-1]:
            out = self.mulmod(out, hs)
            out = (out + part) % p
        return out


def squarefree_parts(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Squarefree decomposition of monic f: [(g_i, m_i)] with f = prod g_i^m_i,
    the g_i squarefree and coprime, sorted by multiplicity.

    The characteristic-p loop: c = gcd(f, f') and w = f / c, then
    repeated gcds peel off the factors of each multiplicity prime to p;
    what is left of c is a p-th power, whose p-th root goes round again
    with every multiplicity scaled by p.  f' = 0 needs no branch of its
    own: then c = f and w = 1, so the loop goes straight to the root.
    """
    f = monic(f, p)
    out: list[tuple[Poly, int]] = []
    scale = 1
    while degree(f) > 0:
        c = gcd(f, deriv(f, p), p)
        w = divmod_(f, c, p)[0]
        m = 1
        while degree(w) > 0:
            y = gcd(w, c, p)
            z = divmod_(w, y, p)[0]
            if degree(z) > 0:
                out.append((z, m * scale))
            w = y
            c = divmod_(c, y, p)[0]
            m += 1
        f = [c[i] for i in range(0, len(c), p)]
        scale *= p
    # each multiplicity m p^k (p not dividing m) occurs at most once
    return sorted(out, key=lambda part: part[1])


def distinct_degree_counts(f: Poly, p: int) -> dict[int, int]:
    """{degree: number of irreducible factors} for squarefree monic f.

    Baby-step giant-step splitting (von zur Gathen & Shoup 1992) at every
    degree >= 2: Frobenius powers are combined in blocks of
    s = isqrt(deg / 2) + 1 degrees, so only one gcd per block is usually
    needed.  s is at most deg / 2, since only the last factor left can
    have a larger degree.
    """
    d = degree(f)
    if d <= 0:
        return {}
    if d == 1:
        return {1: 1}
    out: dict[int, int] = {}
    ker = ModulusKernel(f, p)
    x = np.zeros(ker.d, dtype=np.int64)
    x[1] = 1
    s = min(math.isqrt(d // 2) + 1, d // 2)
    baby = [x]
    for _ in range(s):
        baby.append(ker.powmod(baby[-1], p))  # baby[i] = x^(p^i)
    giant = baby[s]  # x^(p^s)
    rem_f = f
    j = 0
    big = giant
    while degree(rem_f) > 0 and j * s < degree(rem_f):
        j += 1
        if j > 1:
            big = ker.compose(big, giant)  # x^(p^(j*s))
        # block of degrees (j-1)s+1 .. js: product of (big - baby[i])
        prod = (big - baby[0]) % p
        for i in range(1, s):
            prod = ker.mulmod(prod, (big - baby[i]) % p)
        g = gcd(prod, rem_f, p)
        if degree(g) > 0:
            rem_f = divmod_(rem_f, g, p)[0]
            # split g by degree within the block, lowest first: once the
            # lower degrees are out, what is left has degree js factors
            for i in range(s - 1, -1, -1):
                if degree(g) <= 0:
                    break
                k = j * s - i
                gi = gcd((big - baby[i]) % p, g, p) if i else g
                if degree(gi) > 0:
                    if degree(gi) % k:
                        raise ArithmeticError("distinct-degree split failed")
                    out[k] = out.get(k, 0) + degree(gi) // k
                    g = divmod_(g, gi, p)[0]
        if degree(rem_f) < 2 * (j * s + 1):
            break
    if degree(rem_f) > 0:
        k = degree(rem_f)
        out[k] = out.get(k, 0) + 1
    return out
