"""Dense polynomial arithmetic over F_p.

Polynomials are lists of ints in [0, p), ascending degree, trailing
zeros trimmed (the zero polynomial is []).  The scalar routines are
plain Python; mul is one big-integer product (Kronecker substitution),
packed and unpacked by shifts, or through bytes from MUL_BYTES_BITS
bits of product on.
The ModulusKernel gives exact multiply-reduce, powering
and composition for the Frobenius powers of the factoring sweeps, on
stacks of float64 residues from end to end: one row for each modulus
f - c of a stack that differs only in the constant term, all reduced
together, since x^(d+j) = (x^(d+j) mod f) + c (x^(d+j) div f) mod
f - c.  Its one product, _product, multiplies a shorter factor of
length m, split into limbs below B (B = p when residues go whole), by
the other of length n, row by row.  It is the direct np.convolve below
FFT_LENGTH and FFT_ROWS, exact while every coefficient sum stays within
2^53, (m + 1) B p <= 2^53 (limb_width), and a rounded np.fft.rfft
product of length 2^k from there on, exact while Percival's error
bound, assumed to hold for numpy's transform, stays below 1/2,
m n ((B - 1) (p - 1) (16k + 3))^2 < 2^104 (fft_limb_width).  Sums are
reduced as x - p floor(x / p), exact for integers 0 <= x <= 2^53 (_mod).
The kernel stacks its independent products, so that each reads the
reduction matrix once for many rows (one matrix product, not one
matrix-vector product a row): a product of s residues is a pairwise
tree, each level one stacked mulmod (tree_product); the reduction table
is built a block of ceil(sqrt(d)) rows at a time, each block one matrix
product with the first (_fill_rows); and x^p starts from its monomial
head, x^e0 for e0 the longest prefix of p's bits below d, with one
product a further bit, a squaring or x r times r (x_power).
The engines go by size.  x^p on one row of small degree runs on the
exact list routines, rem(mul(r, r)) a bit, and returns the same float64
row: up to degree INT_POWER_DEGREE, 4 at one limb and 9 at two or
more, where a float mulmod's fixed cost, which grows with its
limbs, exceeds the list loop's, which grows with d (_int_power); a
stack of two or more rows, and every larger degree, takes the mulmod.
Every division has two engines, chosen from the divisor alone
(_np_steps): int64 numpy with delayed reduction (_np_rem) while the
divisor has degree at least GCD_NUMPY_DEGREE and p < 2^31, the exact
list loop for shorter divisors and every larger p.  divmod_ divides
once, and rem, on residues, builds no quotient; gcd is one Euclid whose
steps take the same engines.  A kernel row becomes ints once, in the
division that reads it.
Factoring has one path per step: gcd(f, f') = 1 tests squarefreeness
(for the whole family T_d - t, factor checks g^2 = 4 mod f' once, g =
f mod f', by mul and rem, and t^2 != 4 then suffices), the
characteristic-p squarefree loop, whose p-th-root step also covers
f' = 0, splits what fails the test, and the baby-step giant-step
distinct-degree split at every degree >= 2, by one tree over the degree
range.  A factor of degree e divides V_k = x^(p^(js)) - x^(p^i) exactly
when e | k = js - i, so one gcd with the product of every V_k, k <= K,
holds all the factors of degree <= K and leaves one irreducible or none,
and each node's gcd with its left labels' product holds exactly its
factors of degree in the left range (distinct_degree_counts).  A node
whose factors all have one degree e, lo <= e < 2 lo, ends at one
remainder: V_e = 0 mod g forces every factor's degree, at least lo >
e / 2, to divide e, so to be e.  One
split serves a whole stack of moduli f - c: the Frobenius powers are
computed once for every row, and each row is split by its own tree.
These two answer every factoring question in the package: the patterns
of T_ell^n - t, for many t at once, the irreducibility of each field
modulus (ffield) and the critical split T_ell -+ 2 = (x -+ 2) g^2
(cheb).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence

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


# mul packs and unpacks its Kronecker integers by shifts while the
# product spans fewer than this many bits, and through bytes from there
# on.  A shift copies the growing integer once a coefficient, quadratic
# in the length; bytes cost a method call a coefficient.  Time by shifts
# over time through bytes, a product of two factors of length n, at
# (n, bits of the product) (best of 5, 2-core host):
#   p = 5          (128, 3060) 0.75  (192, 4596) 0.94  (384, 9971) 1.30
#   p = 47         (128, 4845) 0.86  (192, 7277) 0.97  (256, 10220) 1.22
#   p = 10^9 + 7   (32, 4095) 0.76   (64, 8382) 0.98   (96, 12797) 1.18
#   p = 2^36 + 31  (32, 4914) 0.81   (64, 10033) 1.06  (96, 15089) 1.26
# Below 2000 bits shifts take half the time; a square of length 4096 at
# p = 11 takes 27.9 against 3.7 ms.
MUL_BYTES_BITS = 8192


def mul(a: Poly, b: Poly, p: int) -> Poly:
    """a b mod p for lists of ints, by Kronecker substitution: each factor,
    reduced mod p, is packed into one integer of w bits a coefficient,
    2^w > min(len a, len b) (p - 1)^2, a bound on every coefficient of
    the product, so one big-integer product holds them in its w-bit slots
    with no carry between them.  From MUL_BYTES_BITS bits of product on,
    the slots are whole bytes and the integers go through bytes; a square
    packs once."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    if n * w >= MUL_BYTES_BITS:
        k = (w + 7) // 8
        x = _pack(a, k, p)
        z = (x * (x if b is a else _pack(b, k, p))).to_bytes(k * n, "little")
        return trim([int.from_bytes(z[i:i + k], "little") % p
                     for i in range(0, len(z), k)])
    x = y = 0
    for c in reversed(a):
        x = x << w | c % p
    if b is a:
        y = x
    else:
        for c in reversed(b):
            y = y << w | c % p
    z, mask = x * y, (1 << w) - 1
    out = []
    for _ in range(n):
        out.append((z & mask) % p)
        z >>= w
    return trim(out)


def _pack(a: Poly, k: int, p: int) -> int:
    """The residues of a as one integer, k bytes a coefficient."""
    return int.from_bytes(b"".join([(c % p).to_bytes(k, "little")
                                    for c in a]), "little")


def mul_scalar(a: Poly, k: int, p: int) -> Poly:
    k %= p
    return trim([c * k % p for c in a])


def _reduce(a: Poly, b: Poly, p: int, quo: Poly | None = None) -> None:
    """Replace a by a mod b in place (entries in [0, p), b trimmed; a
    longer than b is trimmed, a shorter one left as it is); the
    quotient's coefficients go into quo when it is given.  A constant
    b divides at once: the quotient is a b0^-1 and the remainder 0."""
    db = degree(b)
    if len(a) <= db:  # a is its own remainder
        return
    inv = pow(b[-1], -1, p)
    if not db:
        if quo is not None:
            quo[:] = [x * inv % p for x in a]
        a.clear()
        return
    low = b[:-1]
    while len(a) > db:
        c = a.pop() * inv % p
        if c:
            s = len(a) - db
            if quo is not None:
                quo[s] = c
            a[s:] = [(x - c * y) % p for x, y in zip(a[s:], low)]
    trim(a)


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    return mul_scalar(a, pow(a[-1], -1, p), p)


# A division, by divmod_ or a step of gcd's Euclid, runs on int64 numpy
# remainders while the divisor has at least this degree (and p < 2^31),
# and on the list loop below it.  Measured per gcd of random pairs of
# degree (d, d - 1) at p = 5 on a 2-core host (best of 5 passes over 40
# pairs): the list loop takes 5.4-6.3 ms at d = 243, 1.7-1.9 ms at
# d = 125 and 0.38-0.41 ms at d = 49, against 1.7-2.2, 1.1 and
# 0.37-0.42 ms for the numpy steps; at d = 27, 8 and 4 the list loop wins
# (0.16 against 0.24, 0.03 against 0.08, 0.017 against 0.043 ms).
# Factoring 37 criterion-07 cases of degree 64 and 243 took 1.7-2.0 s
# with the handoff anywhere from 16 to 64, 2.2 s at 96, and 2.7 s on the
# list loop alone.
GCD_NUMPY_DEGREE = 32

# A numpy division step leaves every remainder entry above -2^62 for
# 2^62 // p^2 steps after a reduction mod p (see gcd).
_STEP_BOUND = 1 << 62


def _np_steps(n: int, p: int) -> int:
    """The numpy steps between reductions mod p of a division by a
    divisor of length n, or 0 where it divides on the list loop: below
    degree GCD_NUMPY_DEGREE, or at p >= 2^31."""
    return _STEP_BOUND // (p * p) if n > GCD_NUMPY_DEGREE else 0


def gcd(a: Poly | np.ndarray, b: Poly | np.ndarray, p: int) -> Poly:
    """Monic gcd of two lists of integers or numpy arrays of residues
    (ints, or the float64 rows of a ModulusKernel), by Euclid.

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
    if _np_steps(min(len(a), len(b)), p):
        a, b = _np_euclid(_np_residues(a, p), _np_residues(b, p), p)
    a, b = _residues(a, p), _residues(b, p)
    while b:
        _reduce(a, b, p)
        a, b = b, a
    return monic(a, p)


def _ints(a: Poly | np.ndarray) -> Poly:
    """A new list of a's ints: a kernel row, residues already, converted
    once."""
    return a.astype(np.int64).tolist() if isinstance(a, np.ndarray) else a[:]


def _residues(a: Poly | np.ndarray, p: int) -> Poly:
    if isinstance(a, np.ndarray):
        return trim(_ints(a))
    return trim([c % p for c in a])


def _np_residues(a: Poly | np.ndarray, p: int) -> np.ndarray:
    if isinstance(a, np.ndarray):
        return _np_trim(a.astype(np.int64))
    return np.array(_residues(a, p), dtype=np.int64)


def _np_trim(a: np.ndarray) -> np.ndarray:
    n = len(a)
    while n and not a.item(n - 1):
        n -= 1
    return a[:n]


def _np_euclid(a: np.ndarray, b: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """Euclid's divisions on trimmed int64 residues, which it may
    overwrite, while deg b >= GCD_NUMPY_DEGREE; returns the last (a, b),
    both trimmed residues."""
    if len(a) < len(b):
        a, b = b, a
    buf = np.empty(len(b), dtype=np.int64)
    while k := _np_steps(len(b), p):
        a, b = b, _np_rem(a, b, p, k, buf)
    return a, b


def _np_rem(a: np.ndarray, b: np.ndarray, p: int, k: int,
            buf: np.ndarray, quo: Poly | None = None) -> np.ndarray:
    """a mod b, trimmed residues, for int64 residues a, trimmed or not
    (which it overwrites), and trimmed b, deg b >= 1: one division with
    delayed reduction, the remainder reduced mod p every k steps and
    once at the end; buf,
    of length at least deg b, holds each step's product, and quo, when
    given, a list of len(a) - deg b zeros, takes the quotient's
    coefficients."""
    db = len(b) - 1
    inv = pow(b.item(db), -1, p)
    low, prod = b[:-1], buf[:db]
    left = k
    for top in range(len(a) - 1, db - 1, -1):
        c = a.item(top) % p * inv % p
        if c:
            if quo is not None:
                quo[top - db] = c
            if not left:
                a[:top] %= p
                left = k
            part = a[top - db:top]
            np.multiply(low, c, out=prod)
            np.subtract(part, prod, out=part)
            left -= 1
    return _np_trim(a[:db] % p)


def divmod_(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """(a div b, a mod b) for b nonzero mod p, exact at every p: rem with
    a quotient list."""
    a, b = _residues(a, p), _residues(b, p)
    quo = [0] * max(0, len(a) - degree(b))
    r = rem(a, b, p, quo)
    return trim(quo), r


def rem(a: Poly | np.ndarray, b: Poly, p: int,
        quo: Poly | None = None) -> Poly:
    """a mod b for residues a (a list of ints in [0, p), or a
    ModulusKernel's float64 row, trimmed or not) and b (trimmed,
    nonzero), with no entry reduced before the division, on gcd's
    engines: one int64 numpy division with delayed reduction (_np_rem)
    when b has degree at least GCD_NUMPY_DEGREE and p < 2^31, the list
    loop otherwise.  quo, when given, a list of len(a) - deg b zeros,
    takes the quotient's coefficients; no quotient is built without it."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if k := _np_steps(len(b), p):
        return _np_rem(np.array(a, dtype=np.int64),
                       np.array(b, dtype=np.int64), p, k,
                       np.empty(len(b) - 1, dtype=np.int64), quo).tolist()
    a = _ints(a)
    _reduce(a, b, p, quo)
    return trim(a)


def deriv(a: Poly, p: int) -> Poly:
    return trim([i * c % p for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# numpy kernel for a fixed modulus
# ---------------------------------------------------------------------------

# Integers of absolute value up to 2^53 are exact in float64.
FLOAT_EXACT = 1 << 53

# _product multiplies through np.fft.rfft once the shorter factor has
# at least this many coefficients, and by the direct np.convolve below it.
# The transform length is the power of two N >= m + n - 1, so it doubles
# at m = 513.  Measured on a 2-core host, one BLAS thread, two residue
# vectors of length d at p in {3, 47, 10007} (median of 7 x 100 calls):
# direct 31-32, 73-75, 99-106, 89-90, 103-112, 122-140 and 237-248 us at
# d = 256, 512, 640, 672, 704, 768 and 1024, against 56, 73-80, 110-116,
# 91-95, 99-105, 107-116 and 118-129 us through the rfft.  On whole
# factorings near the degree cap, factor_pattern_actual(ell, p, n, 1)
# took 6.3-7.4 s at (2, 3, 12), 2.6-3.2 s at (5, 3, 5) and 46.5 s at
# (2, 11, 12), against 7.0-7.8, 3.0-3.5 and 56.5 s with the direct
# product only; (3, 5, 7) took 9.5-9.9 s either way.
FFT_LENGTH = 700


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 integers 0 <= x <= 2^53 (or -p < x < 0, a
    difference of two residues), as x - p floor(x / p).

    Exact: write x = kp + r with 0 <= r < p.  The correctly rounded
    quotient is x / p itself when that is a float, and otherwise within
    half an ulp of it, less than 2^-53 |x| / p <= 1 / p.  x / p is k when
    r = 0 and otherwise lies at least 1 / p inside (k, k + 1), so the
    floor is k; p k and x - p k are integers of size at most 2^53, so
    both are exact.  np.fmod and the float % give the
    same residues at a cost that grows with the quotient: on 4,095 entries
    below 2^53 they took 0.4-1.4 ms and 70-95 us against 11-17 us here.
    The quotient's one array takes every step in place, 63 against 289
    us with a new array a step at 37,179 entries (a level of
    tree_product at d = 2187, 2-core host): fewer temporaries keep the
    stacked products within the peak RSS of one-row ones (DEGREE_CAP).
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def _sub_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a - b mod p for residues a and b (broadcast), p added in place
    where the difference is negative: no temporary of the result's size
    besides a mask."""
    out = np.subtract(a, b)
    np.add(out, p, out=out, where=out < 0)
    return out


def _limb_shifts(p: int, w: int) -> range:
    """Bit offsets of the w-bit limbs of a residue mod p, top limb first."""
    return range(((p - 1).bit_length() - 1) // w * w, -1, -w)


def _limbs(x: np.ndarray, shifts: range) -> list[np.ndarray]:
    """The limbs of float64 residues x at the given bit offsets, top limb
    first; [x] itself for one limb at offset 0.  Scaling by a power of
    two, floor and the subtraction are all exact on integers below 2^53."""
    out = []
    for shift in shifts[:-1]:
        top = np.floor(x * 2.0 ** -shift)
        out.append(top)
        x = x - top * 2.0 ** shift
    out.append(x)
    return out


def limb_width(d: int, p: int) -> int:
    """Bits per limb for sums of d + 1 products of residues mod p.

    0 when (d + 1) p^2 <= 2^53 and residues are used whole; otherwise the
    largest w with (d + 1) 2^w p <= 2^53.  Raises ValueError when no w >= 1
    is safe, that is when p > 2^52 / (d + 1).  This is the direct bound of
    _product (d + 1 = the shorter length plus one Horner term) and of
    the rows of a ModulusKernel of degree d.
    """
    if (d + 1) * p * p <= FLOAT_EXACT:
        return 0
    w = (FLOAT_EXACT // ((d + 1) * p)).bit_length() - 1
    if w < 1:
        raise ValueError(
            f"p = {p} exceeds the exact polynomial kernel's bound "
            f"2^52 / (d + 1) = {(FLOAT_EXACT // 2) // (d + 1)} at degree {d}")
    return w


def fft_limb_width(m: int, n: int, p: int) -> int | None:
    """Bits per limb of the shorter factor in a rounded rfft product of
    lengths m <= n over F_p; 0 for whole residues, None when no w >= 1 is
    safe.

    The transform has length N = 2^k >= m + n - 1, so the cyclic product
    is the whole product.  Percival (Math. Comp. 72 (2003), Thm. 5.1)
    bounds the error of every coefficient by
        |x| |y| ((1 + e)^3k (1 + e sqrt 5)^(3k+1) (1 + b)^3k - 1),
    |.| the Euclidean norm, e = 2^-53 the unit roundoff and b the error of
    the twiddle factors.  The theorem is proved for a radix-2 Cooley-Tukey
    complex FFT; that it holds for numpy's pocketfft real transforms,
    whose twiddles are accurate to about one ulp, is an assumption, checked
    by test on all-maximal inputs at transform lengths 2^11 to 2^13.
    With b <= 2e the factor is below (16k + 3) 2^-53.  A limb below 2^w
    and a residue below p give |x| |y| <= sqrt(m n) (2^w - 1) (p - 1), so
    the error stays below 1/2, and rounding is exact, while
        m n ((2^w - 1) (p - 1) (16k + 3))^2 < 2^104;
    whole residues need the same with p - 1 in place of 2^w - 1.  The
    bound also keeps the Horner sums of _product within 2^53.
    """
    c = 16 * (m + n - 2).bit_length() + 3
    top = math.isqrt(((1 << 104) - 1) // (m * n * ((p - 1) * c) ** 2))
    if top >= p - 1:
        return 0
    w = (top + 1).bit_length() - 1
    return w or None


# _product multiplies a stack of at least this many rows (every leading
# axis counted) through one batched np.fft.rfft at every length; fewer
# rows take one np.convolve per row below FFT_LENGTH.  Measured on a
# 2-core host, one BLAS thread, per product of two stacks of residues mod
# 31 (best of 3 x 20 calls), per-row np.convolve against the batched
# rfft: at d = 9, 8-18 against 29-32 us for 2 to 5 rows, 20 against 22 at
# 10 and 56 against 28 at 30; at d = 81, 10-25 against 24-33 us for 2 to
# 5 rows, 52 against 43 at 10 and 198 against 118 at 30; at d = 243, 535
# against 248 us for 31 rows.
FFT_ROWS = 8


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve of each row of a with the same row of b, every leading
    axis flattened into rows; one call for a stack of one row."""
    if a.ndim > 2:
        out = _convolve(a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1]))
        return out.reshape(a.shape[:-1] + out.shape[-1:])
    if len(a) == 1:
        return np.convolve(a[0], b[0])[None]
    return np.array(list(map(np.convolve, a, b)))


def _matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a matrix m, every leading axis of a flattened into one
    matrix product: numpy's stacked @ runs one product per leading index
    (218 against 56 us for an (11, 1, 243) stack, 2-core host)."""
    if a.ndim == 2:
        return a @ m
    lead = a.shape[:-1]
    return (a.reshape(math.prod(lead), a.shape[-1]) @ m).reshape(
        lead + m.shape[-1:])


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The exact products of two stacks of float64 residues mod p, row by
    row, before their reduction: every coefficient an
    integer in [0, 2^53], and at most m (p - 1)^2 when the residues go
    whole.

    One float64 product with two engines, chosen by the shorter length m
    and the number of rows: the direct np.convolve, row by row, below
    FFT_LENGTH and FFT_ROWS, exact while every coefficient sum stays within
    2^53 (limb_width(m, p)), and otherwise a rounded np.fft.rfft product of
    the whole stack, exact while its error stays below 1/2 in each row
    (fft_limb_width; a p too large for any FFT limb takes the direct
    engine).  When residues cannot be used whole, the shorter stack is
    split into w-bit limbs, each multiplied by the other stack, and the
    limb products are recombined by Horner's rule with every partial sum
    at most (m + 1) 2^w p <= 2^53.
    """
    m, n = a.shape[-1], b.shape[-1]
    if m > n:
        a, b, m, n = b, a, n, m
    w = (fft_limb_width(m, n, p)
         if m >= FFT_LENGTH or a.size // m >= FFT_ROWS else None)
    fft = w is not None
    if not fft:
        w = limb_width(m, p)
        if not w:
            return _convolve(a, b)
    limbs = _limbs(a, _limb_shifts(p, w or (p - 1).bit_length()))
    if fft:
        # in place where the spectra allow: a stack's transforms are the
        # largest temporaries of a mulmod
        size = 1 << (m + n - 2).bit_length()
        fb = np.fft.rfft(b, size)
        parts = []
        for limb in limbs:
            spec = fb.copy() if limb is b else np.fft.rfft(limb, size)
            spec *= fb
            part = np.fft.irfft(spec, size)[..., :m + n - 1]
            del spec
            parts.append(np.rint(part, out=part))
    else:
        parts = [_convolve(limb, b) for limb in limbs]
    out = parts[0]
    for part in parts[1:]:
        out = _mod(out, p) * 2.0 ** w + part
    return out


# x_power runs on the exact list routines, for a kernel of one row, up
# to this degree at one limb and at two or more; on the float mulmod past
# it and for every stack.  Measured on a 2-core host, one BLAS thread, us
# per product of x^p on one row (x_power(p) over its products, each
# engine the best of 15 windows of 50 calls; median of four runs), at
# p = 1000003, 10^9 + 7 and 2^36 + 31:
#   d                 2    3    4    5    6    7    8    9   10   11   12
#   1 limb   float  8.8  8.4  8.4  8.6  8.7  8.6  8.3  8.1  8.4  8.8  8.2
#            ints   3.7  5.0  7.0  8.7 10.7 12.6 15.4 17.9 21.2 23.2 25.2
#   2 limbs  float 19.8 20.1 20.0 20.2 20.2 20.6 20.4 20.4 20.1 20.5 20.5
#            ints   3.8  5.1  6.8  8.8 10.9 12.8 15.6 18.9 21.6 24.5 28.0
#   3 limbs  float 30.6 29.5 28.8 29.7 29.8 29.7 28.8 30.9 30.2 30.0 30.3
#            ints   4.0  5.5  7.8 10.8 14.1 17.1 20.4 26.0 30.4 34.2 41.0
# A float product's cost is set by its limbs, the ints' by d (rem is d
# row updates of length d), so more limbs keep at least the bound of two:
# at p = 2^42 + 15 (5 to 7 limbs) the float product took 47-75 us and the
# ints 4-45 us at every d up to 12 (two runs).
INT_POWER_DEGREE = (4, 9)


def _int_power(rows: int, d: int, limbs: int) -> bool:
    """Whether x_power on rows residues of degree d, in limbs limbs, runs
    on the exact list routines (INT_POWER_DEGREE)."""
    return rows == 1 and d <= INT_POWER_DEGREE[
        min(limbs, len(INT_POWER_DEGREE)) - 1]


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


class ModulusKernel:
    """Exact arithmetic in F_p[x]/(f - c) for a fixed monic f of degree d,
    one row for each c in shifts.

    Residues are (len(shifts), d) float64 stacks from end to end, row r a
    residue mod f - shifts[r], one row for a kernel of one modulus; gcd
    takes a row as it is and converts it to ints.  A product is
    _product's one float64 product of two stacks, of residues or of one
    residue and one of degree d, such as x r, the residue r shifted up.
    Reduction rests on R_j = x^(d+j) mod f and Q_j = x^(d+j) div f for
    j <= d - 1, so deg Q_j = j < d.  Since f = c mod (f - c), a product A
    of degree <= 2d - 1 reduces exactly as
        A mod (f - c) = A_low + sum_j A_(d+j) (R_j + c Q_j),
    with no second reduction: one float64 matrix product of the stack's
    high halves against the rows of R and, only when some shift is
    nonzero, one against the rows of Q, whose sum each row scales by its
    c.  Memory is O(d^2) whatever the number of shifts.
    Every sum has at most d + 1 terms, each a residue below p times a
    value below B (a product with a factor of degree d has d high terms
    and takes no add), so it is exact, and _mod reduces it exactly, while
    (d + 1) B p <= 2^53; Q holds residues as R does, so every bound here
    holds for both.  When (d + 1) p^2 <= 2^53 the residues are used whole
    (B = p); above that the rows are split into limbs of w bits (B = 2^w,
    see limb_width) and the limb products are recombined by Horner's rule
    mod p, as is the product by c (_scale).  While d^2 (p - 1)^3 <= 2^53
    the product enters the rows unreduced, so a mulmod reduces once.  The
    constructor refuses (ValueError) where no limb width is safe,
    p > 2^52 / (d + 1).
    """

    def __init__(self, f: Poly, p: int, shifts: Sequence[int] = (0,)):
        if not f or degree(f) < 1:
            raise ZeroDivisionError("zero or constant modulus")
        self.p = p
        self.f = np.array(monic(f, p), dtype=np.float64)
        self.d = d = len(f) - 1
        self.shifts = shifts = [c % p for c in shifts]
        w = limb_width(d, p) or (p - 1).bit_length()  # 0: one whole limb
        self.radix = 2.0 ** w
        self.offsets = _limb_shifts(p, w)
        self.limbs = len(self.offsets)
        # the product goes into the rows unreduced while d^2 (p - 1)^3 <=
        # 2^53: d - 1 terms below d (p - 1)^2 times rows below p, plus the
        # head, stay within 2^53, and so do the d terms of a product by
        # x r, whose coefficient d + j has d - j terms (and residues go
        # whole on both engines)
        self.lazy = d * d * (p - 1) ** 3 <= FLOAT_EXACT
        self._powers = None  # (h, its baby steps, h^s) of compose
        self.c = self.quot = None  # the shifts as a column, and Q's rows
        self.base = _mod(-self.f[:d], p)  # x^d mod f
        self.rows = np.empty((d, self.limbs * d))
        self._fill_rows()
        if any(shifts):
            self.c = np.array(shifts, dtype=np.float64)[:, None]
            # Q_0 = 1 and Q_(j+1) = x Q_j + top[j], top[j] the x^(d-1) term
            # of R_j (the last column of each limb, recombined exactly), so
            # Q_j = sum over i <= j of tau_(j-i) x^i with tau = (1, top[0],
            # top[1], ...): row j is a window of tau reversed, then zeros
            top = self.rows[:, d - 1::d] @ 2.0 ** np.array(self.offsets)
            tau = np.concatenate(([1.0], top))[:d]
            windows = np.lib.stride_tricks.sliding_window_view(
                np.concatenate((tau[::-1], np.zeros(d))), d)
            self.quot = self._split(np.ascontiguousarray(windows[:d][::-1]))

    def row(self, r: int) -> "ModulusKernel":
        """The one-row kernel of f - shifts[r], sharing these tables; the
        kernel itself when no shift is nonzero or it has one row."""
        if self.c is None or len(self.c) == 1:
            return self
        out = copy.copy(self)
        out.shifts, out.c = self.shifts[r:r + 1], self.c[r:r + 1]
        out.quot = self.quot if self.shifts[r] else None
        out._powers = None
        return out

    def _scale(self, v: np.ndarray, c) -> np.ndarray:
        """c v, unreduced, for residues v and c (a number, or a column of
        one per row), by Horner's rule over the limbs of c: every entry
        stays below 2 B p."""
        limbs = _limbs(c, self.offsets)
        acc = limbs[0] * v
        for limb in limbs[1:]:
            acc = _mod(acc, self.p) * self.radix + limb * v
        return acc

    def _fill_rows(self) -> None:
        """R_j = x^(d+j) mod f into self.rows, a block of b = ceil(sqrt(d))
        rows at a time.

        The first block steps by x (_times_x).  Each later block is x^b
        times the one before it, x^b R_i = R_(i+b):
            x^b R_i = (R_i shifted up by b) + sum_(k<b) R_i[d-b+k] R_k,
        so one (b x b) @ R_(0..b-1) product reduces the whole block, a sum
        of b + 1 <= d terms within the bounds of mulmod's reduction,
        limbs included (the shift joins the last limb's sum).  Only the
        block before is kept whole; self.rows holds the limbs.
        """
        d, n = self.d, len(self.rows)
        b = _ceil_sqrt(d)
        block = np.empty((b, d))
        block[0] = self.base
        for j in range(1, b):
            block[j] = self._times_x(block[j - 1])
        self.rows[:b] = self._split(block)
        low = self.rows[:b]
        for k in range(b, n, b):
            m = min(b, n - k)
            prev = block[:m]  # R_(k-b) .. R_(k-b+m-1)
            u = prev[:, d - b:] @ low
            u[:, b - d:] += prev[:, :d - b]  # the shift, in the last limb
            block = self._recombine(u)
            self.rows[k:k + m] = self._split(block)

    def _times_x(self, r: np.ndarray) -> np.ndarray:
        """x r mod f for a residue vector r at d >= 2: r shifted up, with
        its top coefficient times x^d mod f folded back in, a sum below
        p + 2 B p <= (d + 1) B p before its one reduction."""
        return _mod(np.concatenate(([0.0], r[:-1]))
                    + self._scale(self.base, r[-1:]), self.p)

    def _split(self, m: np.ndarray) -> np.ndarray:
        """The limbs of a matrix of residues side by side along the last
        axis, top limb first: the matrix itself, uncopied, for one limb
        at shift 0."""
        if self.limbs == 1:
            return m
        return np.concatenate(_limbs(m, self.offsets), axis=-1)

    def _recombine(self, u: np.ndarray, head=0.0) -> np.ndarray:
        """(sum over limbs k of u_k B^(L-1-k)) + head mod p, for u holding
        the L limb products side by side along its last axis."""
        d, p = self.d, self.p
        acc = u[..., :d]
        for k in range(1, self.limbs):
            acc = _mod(acc, p) * self.radix + u[..., k * d:(k + 1) * d]
        return _mod(acc + head, p)

    def mulmod(self, a: np.ndarray, b: np.ndarray,
               add: np.ndarray | None = None) -> np.ndarray:
        """a b mod f - c, row by row, or a b + add for a stack of residues
        add, which rides in the one last reduction (every bound above has
        room for it).  One factor may have degree d (no add then)."""
        d, p = self.d, self.p
        raw = _product(a, b, p)
        if not self.lazy:
            raw = _mod(raw, p)
        head = raw[..., :d] if add is None else raw[..., :d] + add
        high = raw[..., d:]
        k = high.shape[-1]
        if self.limbs == 1:
            out = _matmul(high, self.rows[:k])
            out += head
            out = _mod(out, p)
        else:
            out = self._recombine(_matmul(high, self.rows[:k]), head)
        if self.quot is None:
            return out
        return _mod(out + self._scale(
            self._recombine(_matmul(high, self.quot[:k])), self.c), p)

    def tree_product(self, terms: np.ndarray) -> np.ndarray:
        """The product of a stack of residue stacks along its first axis,
        by pairwise products: each level multiplies the first half of the
        stack by the second as one stacked mulmod, an odd last term
        waiting for the next level.  That is ceil(log2(s)) mulmods of
        s - 1 products in all, so the reduction matrix is read once a
        level, not once a product."""
        while len(terms) > 1:
            h = len(terms) // 2
            prod = self.mulmod(terms[:h], terms[h:2 * h])
            terms = (np.concatenate((prod, terms[2 * h:])) if len(terms) % 2
                     else prod)
        return terms[0]

    def powmod(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e, left to right from a: for e >= 1 that is bit_length(e) - 1
        squarings and popcount(e) - 1 products by a."""
        if e < 0:
            raise ValueError("negative exponent")
        if not e:
            r = np.zeros_like(a)
            r[..., 0] = 1
            return r
        r = a
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, a)
        return r

    def x_power(self, e: int) -> np.ndarray:
        """x^e in every row, for e >= 1, from its monomial head: x^e0 for
        e0 the longest prefix of e's bits below d, then one product for
        each further bit, a squaring r r or, where the bit is set, the
        product of x r (r shifted up, of degree d) by r.  That is
        bit_length(e) - bit_length(e0) products, against bit_length(e) +
        popcount(e) - 2 for powmod(x, e).  The products are mulmods, or,
        where _int_power picks the exact list routines, rem(mul(r, r)),
        the set bit a shift of the square."""
        d, p, size = self.d, self.p, e.bit_length()
        k = min(size, (d - 1).bit_length())  # the bits of the head
        if e >> (size - k) >= d:
            k -= 1
        head = e >> (size - k)
        if _int_power(len(self.shifts), d, self.limbs):
            f = sub([int(c) for c in self.f], [self.shifts[0]], p)
            s = [0] * head + [1]
            for i in range(size - k - 1, -1, -1):
                s = mul(s, s, p)
                s = rem([0] + s if e >> i & 1 else s, f, p)
            r = np.zeros((1, d))
            r[0, :len(s)] = s
            return r
        r = np.zeros((len(self.shifts), d))
        r[:, head:head + 1] = 1  # none past x^(d-1)
        zero = np.zeros((len(r), 1))
        for i in range(size - k - 1, -1, -1):
            r = self.mulmod(np.concatenate((zero, r), axis=-1)
                            if e >> i & 1 else r, r)
        return r

    def compose(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """g(h), row by row, by Brent-Kung baby-step giant-step.

        The powers h^i, i < s, are kept for the next call with an equal h:
        both Frobenius loops of distinct_degree_counts compose with one h
        up to about sqrt(d / 2) times in a row.  The powers cost s
        products once and each call about d / s more, so s =
        isqrt(d ceil(sqrt(d / 2))) + 1 balances the two over such a run
        (s <= d keeps each chunk sum plus the Horner term within d + 1
        terms).  Against the one-call size s = isqrt(d) + 1, on a 2-core
        host with one BLAS thread, factor_pattern_actual(ell, p, n, 1) at
        (2, 3, 12) took 6.3-7.4 s against 9.4 s and at (3, 5, 7) 9.5-9.9
        s against 12.4 s.
        """
        d = self.d
        if self._powers is None or not np.array_equal(self._powers[0], h):
            s = min(math.isqrt(d * _ceil_sqrt(d // 2)) + 1, d)
            baby = np.zeros(h.shape[:-1] + (s, d))
            baby[..., 0, 0] = 1
            for i in range(1, s):
                baby[..., i, :] = self.mulmod(baby[..., i - 1, :], h)
            hs = self.mulmod(baby[..., s - 1, :], h)
            self._powers = (h.copy(), self._split(baby), hs)
        _, table, hs = self._powers
        s = table.shape[-2]
        coeffs = np.zeros(g.shape[:-1] + (((d + s - 1) // s) * s,))
        coeffs[..., :g.shape[-1]] = g
        parts = self._recombine(
            coeffs.reshape(g.shape[:-1] + (-1, s)) @ table)
        out = parts[..., -1, :]
        for k in range(parts.shape[-2] - 2, -1, -1):
            out = self.mulmod(out, hs, parts[..., k, :])
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


def distinct_degree_counts(f: Poly, p: int, shifts: Sequence[int] = (0,)
                           ) -> list[dict[int, int]]:
    """[{degree: number of irreducible factors}] of f - c for each c in
    shifts, f monic and each f - c squarefree; one dict, of f itself, by
    default.

    Baby-step giant-step (von zur Gathen & Shoup 1992) whose gcds split
    one tree over the degree range, after Shoup's interval partition
    (1995).  With s = ceil(sqrt(deg // 2)) (s = 1 below degree 6, so that
    no power past x^(p^(deg // 2)) is computed there), the baby steps
    are x^(p^i), i <= s, and the giant steps x^(p^(js)), j = 1..J.  The
    label k = js - i, 0 <= i < s, names V_k = x^(p^(js)) - x^(p^i).  An
    irreducible factor of degree e divides V_k exactly when e | k: x
    generates F_p[x]/(factor) = F_(p^e), where the Frobenius is
    injective, so x^(p^(js)) = x^(p^i) there iff x^(p^k) = x iff e | k.

    J is the least block count with deg f < 2 (Js + 1), and K = Js.  The
    gcd G of f with the product of every V_k, k <= K, holds exactly the
    factors of degree <= K.  So f / G, of degree below 2 (K + 1) with
    every factor of degree > K, is one irreducible factor or 1.  The
    giant steps stop early, at K = js, once the product of the V_k,
    k <= js, is 0 mod f: every factor then has degree at most js, and
    G = f.  The
    tree then splits G over label ranges [lo, hi), left half first.  A
    node holds exactly the factors of f with degree in [lo, hi), so its
    gcd with the product of V_k over lo <= k < mid holds exactly those
    of degree below mid (a factor of degree e >= lo divides some such
    V_k iff e < mid), and the quotient holds [mid, hi).  A node whose
    polynomial has degree D < 2 lo is one irreducible of degree D, since
    two would have degree at least 2 lo.  A leaf k holds D / k factors
    of degree k.  No factor at a node exceeds D, so hi is cut to D + 1.
    Before it bisects, a node tests whether its factors share one
    degree: for each e in [max(lo, 2), min(hi, 2 lo)) dividing D, it
    reduces the stored label V_e mod g, and a zero remainder gives D / e
    factors of degree e.  The test is exact: V_e = 0 mod g means every
    factor's degree divides e, and each is at least lo > e / 2, so each
    is e; conversely factors of degree e all divide V_e.  At most one e
    passes.  A range starting at 1, the root's and its left edge's, holds
    no candidate: its only one would be e = 1, where the bisection's
    gcds already stop after one division.  Each gcd reduces a
    full-degree residue, so their number follows the factors found (one
    for an irreducible f), not the J blocks; a node of one degree costs
    one division instead.

    The moduli f - c share one ModulusKernel, one row each, so the baby
    steps, giant steps, compose tables and block products are computed
    once for the whole stack, and the giant steps stop when every row's
    product is 0 (or at K).  The kernel is built on f - c_0, c_0 the
    first shift, so a stack of one row reduces by x^(d+j) mod f alone.
    Each row is then split by its own tree.  Memory is about
    (2 J + 3 s + isqrt(d s) + 3) residues a row (the stored powers, one
    block's labels and compose's table), times the limb count, on top of
    the kernel's d^2 or 2 d^2 floats; the caller bounds the rows.

    Range products multiply the whole-block products
    P_j = V_(js) V_(js-1) ... V_(js-s+1), so only the giant steps and the
    J block products are stored.  Each block product, and each range
    product of the tree, is one ModulusKernel.tree_product of its terms
    stacked: about log2(s) stacked mulmods, not s - 1 one-row ones.  A
    node of more than s labels splits at the block start nearest below
    its middle, and since the root's range starts at one, its left
    product is then whole blocks.  The tree runs
    on an explicit stack: a recursive closure would be a reference cycle
    holding the kernel until the next collection.
    x^p comes from its monomial head (ModulusKernel.x_power).  The
    powers past x^p come by composing with x^p where that measures
    faster than powering by p, which is at p > 4 deg; the giant steps
    compose with one h throughout, so ModulusKernel.compose builds the
    powers of each h once.
    """
    d = degree(f)
    cs = list(shifts)
    if d <= 1 or not cs:
        return [{1: 1} if d == 1 else {} for _ in cs]
    base = f[:]
    base[0] = (base[0] - cs[0]) % p
    ker = ModulusKernel(base, p, [c - cs[0] for c in cs])
    x = np.zeros((len(cs), d))
    x[:, 1] = 1
    s = _ceil_sqrt(d // 2) if d >= 6 else 1
    # x^(p^(i+1)) is x^(p^i) composed with x^p, or its p-th power.
    # Composing wins from p > 4d on at every degree measured.  Measured
    # on a 2-core host, one BLAS thread, the s - 1 baby steps past x^p of
    # random monic f (best of 5; of 2 at d >= 729), time composing / time
    # powering, at p of 4, 6, 8, 10, 12 and 14 bits: d = 9 0.77, 0.62,
    # 0.50, 0.41, 0.38, 0.32; d = 81 0.76, 0.75, 0.64, 0.82, 0.56, 0.50;
    # d = 243 1.20, 0.83, 0.92, 0.73, 0.57, 0.55; d = 729 1.89, 1.62,
    # 1.32, 1.06, 0.95, 0.74; d = 2048 2.27, 2.00, 1.40, 1.03, 1.12, 0.86.
    by_compose = p > 4 * d
    baby = [x, ker.x_power(p)]  # baby[i] = x^(p^i)
    while len(baby) <= s:
        baby.append(ker.compose(baby[-1], baby[1]) if by_compose
                    else ker.powmod(baby[-1], p))
    # V_(js-i) = x^(p^(js)) - steps[i], i < s
    steps, step = np.stack(baby[:s]), baby[s]
    del baby

    def label(k: int, r) -> np.ndarray:
        """V_k in the rows r, from the block j = ceil(k / s)."""
        j = -(-k // s)
        return _sub_mod(giant[j - 1][r], steps[j * s - k][r], p)

    def product(ker: ModulusKernel, r, lo: int, hi: int
                ) -> np.ndarray:
        """V_lo V_(lo+1) ... V_(hi-1) in the rows r, ker their kernel."""
        terms, k = [], lo
        while k < hi:
            if (k - 1) % s == 0 and k + s <= hi:
                terms.append(blocks[(k - 1) // s][r])
                k += s
            else:
                terms.append(label(k, r))
                k += 1
        return ker.tree_product(np.stack(terms))

    giant = [step]  # giant[j - 1] = x^(p^(js))
    blocks = []  # blocks[j - 1] = P_j
    whole = None  # P_1 P_2 ... P_j
    while True:
        top = len(giant) * s
        prod = ker.tree_product(_sub_mod(giant[-1], steps, p))
        blocks.append(prod)
        whole = prod if whole is None else ker.mulmod(whole, prod)
        # d < 2 (Js + 1) once Js >= d // 2
        if top >= d // 2 or not whole.any():
            break
        giant.append(ker.compose(giant[-1], step))
    counts = []
    for r, c in enumerate(cs):
        one = slice(r, r + 1)
        row = None  # the row's kernel, made on first use
        fc = f[:]
        fc[0] = (fc[0] - c) % p
        g = gcd(whole[r], fc, p)
        rest = d - degree(g)  # (f - c) / G: one factor of degree > K, or none
        out: dict[int, int] = {}
        stack = [(1, top + 1, g)]
        while stack:
            lo, hi, g = stack.pop()
            dg = degree(g)
            if dg < 2 * lo:
                if dg > 0:
                    out[dg] = out.get(dg, 0) + 1
                continue
            hi = min(hi, dg + 1)
            if hi - lo == 1:
                if dg % lo:
                    raise ArithmeticError("distinct-degree split failed")
                out[lo] = out.get(lo, 0) + dg // lo
                continue
            # every factor has degree e when V_e = 0 mod g, lo <= e < 2 lo
            e = next((e for e in range(max(lo, 2), min(hi, 2 * lo))
                      if dg % e == 0 and not rem(label(e, one)[0], g, p)), 0)
            if e:
                out[e] = out.get(e, 0) + dg // e
                continue
            mid = (lo + hi) // 2
            if hi - lo > s:
                mid = max(lo + s, (mid - 1) // s * s + 1)
            if row is None:
                row = ker.row(r)
            left = gcd(product(row, one, lo, mid)[0], g, p)
            stack.append((mid, hi, divmod_(g, left, p)[0]))
            stack.append((lo, mid, left))
        if rest:
            out[rest] = 1
        counts.append(out)
    return counts
