"""Element-by-element reference for the multiplicative orders in
`chebdyn.ffield`.

The package gets every order from Chebyshev traces: the walk tables
(`FieldCtx.alpha_order_tables`) and the T_d ladder (`alpha_order`).  This
module computes the same orders the textbook way, with no trace at all: it
lifts a root alpha of x^2 - a x + 1 into F_{p^n} (Tonelli-Shanks) or into
the quadratic ring F_{p^n}[y]/(y^2 - a y + 1), and takes its order by
dividing primes out of the group order while the power stays 1.  Tests
require both package routes to agree with it.

`walk_order_tables` keeps the package's walk but gives T_e(a) the order
m // gcd(e, m) with one `np.gcd` per exponent, where the package forms the
gcd from the prime powers of m; it is fast enough to check whole tables on
fields too large for the per-element lift.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np

from chebdyn.ffield import MINUS, PLUS, Branch, FactoredInt, FFElem, FieldCtx


class QuadElem:
    """Element u + v*y of F_{p^n}[y]/(y^2 - a*y + 1) for a designated a.

    Hosts a root of x^2 - a x + 1 when that quadratic is irreducible over
    F_{p^n}; the root y then has order dividing p^n + 1.  When the
    quadratic splits the ring degenerates to F_{p^n} x F_{p^n} and orders
    must use a field root instead (lift_alpha picks the right home).
    """

    __slots__ = ("a", "u", "v")

    def __init__(self, a: FFElem, u: FFElem, v: FFElem):
        self.a = a
        self.u = u
        self.v = v

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        # y^2 = a*y - 1
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        cross = v1 * v2
        return QuadElem(self.a, u1 * u2 - cross,
                        u1 * v2 + v1 * u2 + cross * self.a)

    def __pow__(self, e: int) -> "QuadElem":
        r = identity(self)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadElem) and self.a == other.a
                and self.u == other.u and self.v == other.v)

    def __repr__(self) -> str:
        return f"QuadElem({self.u!r} + {self.v!r}*y; a={self.a!r})"


Elem = Union[FFElem, QuadElem]


def identity(x: Elem) -> Elem:
    """The multiplicative identity of the ring holding x."""
    one = x.ctx.one()
    if isinstance(x, QuadElem):
        return QuadElem(x.a, one, x.ctx.from_int(0))
    return one


def mult_order(x: Elem, group_order: FactoredInt) -> FactoredInt:
    """Exact multiplicative order of x, given a factored multiple of it.

    Divides each prime out of group_order while the power stays 1.
    Raises if x^group_order != 1 (wrong ambient group supplied).
    """
    one = identity(x)
    if x == one:
        return FactoredInt(())
    n_val = group_order.value
    if x ** n_val != one:
        raise ValueError("x^group_order != 1: wrong ambient group supplied")
    o = n_val
    for qprime, _ in group_order.factors:
        while o % qprime == 0 and x ** (o // qprime) == one:
            o //= qprime
    out = []
    for qprime, _ in group_order.factors:
        k = 0
        while o % qprime == 0:
            o //= qprime
            k += 1
        if k:
            out.append((qprime, k))
    return FactoredInt(tuple(out))


@lru_cache(maxsize=None)
def nonresidue(ctx: FieldCtx) -> FFElem:
    """Smallest-index non-square of F_{p^n}^x."""
    half = (ctx.q - 1) // 2
    for i in range(2, ctx.q):
        cand = ctx.decode(i)
        if cand ** half != ctx.one():
            return cand
    raise ArithmeticError("no non-square found")


def sqrt(a: FFElem) -> FFElem:
    """A square root of a nonzero square in F_{p^n} (Tonelli-Shanks)."""
    ctx = a.ctx
    s = ctx.order_minus.nu(2)
    m = (ctx.q - 1) >> s
    c, t, r = nonresidue(ctx) ** m, a ** m, a ** ((m + 1) // 2)
    while t != ctx.one():
        t2, i = t, 0
        while t2 != ctx.one():
            t2 = t2 * t2
            i += 1
        b = c
        for _ in range(s - i - 1):
            b = b * b
        r = r * b
        c = b * b
        t = t * c
        s = i
    return r


def lift_alpha(a: FFElem) -> tuple[Elem, Branch]:
    """A root alpha of x^2 - a x + 1, tagged by the group containing it.

    When the quadratic splits, alpha lies in F_{p^n}^x (branch "minus",
    order divides p^n - 1) and the root with the smaller canonical index
    is returned.  Otherwise alpha is the residue class of y in
    F_{p^n}[y]/(y^2 - a y + 1) (branch "plus", order divides p^n + 1).
    a = 2 lifts to 1 and a = -2 to -1.
    """
    ctx = a.ctx
    two = ctx.from_int(2)
    if a == two:
        return ctx.one(), MINUS
    if a == -two:
        return -ctx.one(), MINUS
    disc = a * a - ctx.from_int(4)
    if disc ** ((ctx.q - 1) // 2) == ctx.one():
        s = sqrt(disc)
        inv2 = two.inverse()
        r1 = (a + s) * inv2
        r2 = (a - s) * inv2
        return (r1 if r1.index <= r2.index else r2), MINUS
    return QuadElem(a, ctx.from_int(0), ctx.one()), PLUS


def reference_alpha_order(a: FFElem) -> tuple[int, Branch]:
    """Order of the lifted root of x^2 - a x + 1 and its branch."""
    alpha, br = lift_alpha(a)
    group = a.ctx.order_minus if br == MINUS else a.ctx.order_plus
    return mult_order(alpha, group).value, br


def walk_order_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(ord, branch) as `FieldCtx.alpha_order_tables`, from the package's
    trace walk with the order of T_e(a) computed as m // gcd(e, m)."""
    ords = np.zeros(ctx.q, dtype=np.int32)
    branch = np.zeros(ctx.q, dtype=np.int8)
    for m, side, group in ((ctx.q + 1, 1, ctx.order_plus),
                           (ctx.q - 1, 0, ctx.order_minus)):
        a = ctx._full_order_trace(m, group)
        for lo, cols in ctx._trace_walk(a, m // 2 + 1):
            traces = ctx.encode_cols(cols)
            e = np.arange(lo, lo + cols.shape[1], dtype=np.int64)
            ords[traces] = m // np.gcd(e, m)
            branch[traces] = side
    return ords, branch
