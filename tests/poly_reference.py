"""List-polynomial helpers the tests use as plain references for
`chebdyn.polys` and `chebdyn.cheb`: Horner evaluation and composition
with no reduction, powering mod f by squaring, the Chebyshev
coefficients by the three-term recurrence and the iterates by
composition, and the conversions between a list polynomial and a
`ModulusKernel` residue stack."""

from __future__ import annotations

import numpy as np

from chebdyn import polys
from chebdyn.polys import Poly


def eval_at(a: Poly, x: int, p: int) -> int:
    """a(x) mod p by Horner."""
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def compose(g: Poly, h: Poly, p: int) -> Poly:
    """g(h(x)) over F_p by Horner."""
    out: Poly = []
    for c in reversed(g):
        out = polys.add(polys.mul(out, h, p), [c], p)
    return out


def powmod(base: Poly, e: int, f: Poly, p: int) -> Poly:
    """base^e mod f over F_p, right to left by squaring on the exact list
    routines."""
    r, b = [1], polys.rem(base, f, p)
    while e:
        if e & 1:
            r = polys.rem(polys.mul(r, b, p), f, p)
        b = polys.rem(polys.mul(b, b, p), f, p)
        e >>= 1
    return r


def cheb_by_recurrence(top: int, p: int) -> list[Poly]:
    """[T_0, ..., T_top] mod p by T_d+1 = x T_d - T_d-1, T_0 = 2, T_1 = x."""
    out = [[2 % p], [0, 1]]
    while len(out) <= top:
        out.append(polys.sub([0] + out[-1], out[-2], p))
    return out[:top + 1]


def iterate_by_composition(ell: int, n: int, p: int) -> Poly:
    """T_ell composed with itself n times over F_p, by exact Horner
    composition on Python ints (polys.mul)."""
    base = cheb_by_recurrence(ell, p)[ell]
    cur = base
    for _ in range(n - 1):
        cur = compose(base, cur, p)
    return cur


def moduli(ker: polys.ModulusKernel) -> list[Poly]:
    """The modulus f - c of each row of a ModulusKernel."""
    f = [int(c) for c in ker.f]
    return [polys.sub(f, [c], ker.p) for c in ker.shifts]


def to_lists(v: np.ndarray) -> list[Poly]:
    """A ModulusKernel residue stack as one trimmed coefficient list a row."""
    return [polys.trim([int(c) for c in row]) for row in v]


def to_list(v: np.ndarray) -> Poly:
    """A one-row ModulusKernel residue stack as a trimmed coefficient
    list."""
    (row,) = to_lists(v)
    return row


def lift(ker: polys.ModulusKernel, a: Poly) -> np.ndarray:
    """a mod each row's modulus, as a ModulusKernel residue stack of shape
    (rows, ker.d)."""
    v = np.zeros((len(ker.shifts), ker.d))
    for row, f in zip(v, moduli(ker)):
        r = polys.rem(list(a), f, ker.p)
        row[: len(r)] = r
    return v
