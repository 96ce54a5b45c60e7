"""Dense polynomial arithmetic over F_p.

Polynomials are lists of ints in [0, p), ascending degree, trailing
zeros trimmed (the zero polynomial is []).  The scalar routines are
plain Python; the ModulusKernel gives numpy-backed multiply-reduce,
powering and composition for the Frobenius powers of the factoring
sweeps, whose gcds and exact divisions stay on the exact list routines.
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


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd by Euclid, each remainder taken in place."""
    a = trim([c % p for c in a])
    b = trim([c % p for c in b])
    while b:
        _reduce(a, b, p)
        a, b = b, a
    return monic(a, p)


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


def compose(g: Poly, h: Poly, p: int) -> Poly:
    """g(h(x)) by Horner."""
    out: Poly = []
    for c in reversed(g):
        out = mul(out, h, p)
        out = add(out, [c], p)
    return out


def deriv(a: Poly, p: int) -> Poly:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def eval_at(a: Poly, x: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


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

class ModulusKernel:
    """Fast arithmetic in F_p[x]/(f) for a fixed monic f.

    Reduction is a single vector-matrix product against precomputed rows
    of x^(d+j) mod f; with p <= a few hundred the float64 products stay
    exact (they are far below 2^53).
    """

    def __init__(self, f: Poly, p: int):
        if not f or degree(f) < 1:
            raise ZeroDivisionError("zero or constant modulus")
        self.p = p
        self.f = np.array(monic(f, p), dtype=np.int64)
        self.d = len(f) - 1
        d = self.d
        rows = np.zeros((max(d - 1, 0), d), dtype=np.float64)
        if d > 1:
            base = (-self.f[:d]) % p
            rows[0] = base
            for j in range(1, d - 1):
                prev = rows[j - 1]
                row = np.concatenate(([0.0], prev[: d - 1]))
                row = (row + prev[d - 1] * base) % p
                rows[j] = row
        self.rows = rows
        self.x = self.lift([0, 1] if d > 1 else rem([0, 1], f, p))

    def lift(self, a: Poly) -> np.ndarray:
        v = np.zeros(self.d, dtype=np.int64)
        a = rem(list(a), list(map(int, self.f)), self.p)
        v[: len(a)] = a
        return v

    def to_list(self, v: np.ndarray) -> Poly:
        return trim([int(c) for c in v])

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, d = self.p, self.d
        raw = np.convolve(a, b) % p
        head = raw[:d].astype(np.float64)
        if len(raw) > d:
            tail = raw[d:].astype(np.float64)
            head = head + tail @ self.rows[: len(tail)]
        out = head % p
        return out.astype(np.int64)

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
        s = max(1, math.isqrt(d) + 1)
        baby = np.zeros((s, d), dtype=np.int64)
        baby[0, 0] = 1
        for i in range(1, s):
            baby[i] = self.mulmod(baby[i - 1], h)
        hs = self.mulmod(baby[s - 1], h)
        coeffs = np.zeros(((d + s - 1) // s) * s, dtype=np.int64)
        coeffs[: len(g)] = g
        chunks = coeffs.reshape(-1, s)
        out = np.zeros(d, dtype=np.int64)
        for chunk in chunks[::-1]:
            out = self.mulmod(out, hs)
            part = (chunk.astype(np.float64) @ baby.astype(np.float64)) % p
            out = (out + part.astype(np.int64)) % p
        return out


def squarefree_parts(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Squarefree decomposition of monic f: [(g_i, m_i)] with f = prod g_i^m_i.

    Handles the characteristic-p branch (vanishing derivative) so it is
    correct for arbitrary monic input.
    """
    f = monic(f, p)
    out: list[tuple[Poly, int]] = []
    scale = 1
    while degree(f) > 0:
        df = deriv(f, p)
        if not df:
            # f is a p-th power: take the p-th root and recurse
            root = [f[i] for i in range(0, len(f), p)]
            for g, m in squarefree_parts(root, p):
                out.append((g, m * p * scale))
            return _merge_parts(out)
        c = gcd(f, df, p)
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
        if degree(c) > 0:
            root = [c[i] for i in range(0, len(c), p)]
            f = root
            scale *= p
        else:
            break
    return _merge_parts(out)


def _merge_parts(parts: list[tuple[Poly, int]]) -> list[tuple[Poly, int]]:
    merged: dict[tuple[int, ...], tuple[Poly, int]] = {}
    for g, m in parts:
        key = tuple(g)
        if key in merged:
            merged[key] = (g, merged[key][1] + m)
        else:
            merged[key] = (g, m)
    return sorted(merged.values(), key=lambda t: (t[1], len(t[0]), tuple(t[0])))


def distinct_degree_counts(f: Poly, p: int) -> dict[int, int]:
    """{degree: number of irreducible factors} for squarefree monic f.

    Baby-step giant-step splitting: Frobenius powers are combined in
    blocks of ~sqrt(deg) so only one gcd per block is usually needed.
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

    if d < 24:
        h = x
        rem_f = f
        k = 0
        while degree(rem_f) >= 2 * (k + 1):
            k += 1
            h = ker.powmod(h, p)
            g = gcd(((h - x) % p).tolist(), rem_f, p)
            if degree(g) > 0:
                out[k] = degree(g) // k
                rem_f = divmod_(rem_f, g, p)[0]
        if degree(rem_f) > 0:
            out[degree(rem_f)] = out.get(degree(rem_f), 0) + 1
        return out

    s = math.isqrt(d // 2) + 1
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
        prod = np.zeros(ker.d, dtype=np.int64)
        prod[0] = 1
        for i in range(s):
            prod = ker.mulmod(prod, (big - baby[i]) % p)
        g = gcd(prod.tolist(), rem_f, p)
        if degree(g) > 0:
            # split g by individual degree within the block
            gg = g
            for i in range(s - 1, -1, -1):
                k = j * s - i
                if degree(gg) <= 0:
                    break
                gi = gcd(((big - baby[i]) % p).tolist(), gg, p)
                if degree(gi) > 0:
                    if degree(gi) % k:
                        raise ArithmeticError("distinct-degree split failed")
                    out[k] = out.get(k, 0) + degree(gi) // k
                    gg = divmod_(gg, gi, p)[0]
            rem_f = divmod_(rem_f, g, p)[0]
        if degree(rem_f) < 2 * (j * s + 1):
            break
    if degree(rem_f) > 0:
        k = degree(rem_f)
        out[k] = out.get(k, 0) + 1
    return out
