"""List-polynomial helpers the tests use as plain references for
`chebdyn.polys` and `chebdyn.cheb`: Horner evaluation and composition
with no reduction, and the conversions between a list polynomial and a
`ModulusKernel` residue."""

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


def to_list(v: np.ndarray) -> Poly:
    """A ModulusKernel residue vector as a trimmed coefficient list."""
    return polys.trim([int(c) for c in v])


def lift(ker: polys.ModulusKernel, a: Poly) -> np.ndarray:
    """a mod ker.f as a ModulusKernel residue vector of length ker.d."""
    v = np.zeros(ker.d, dtype=np.int64)
    a = polys.rem(list(a), list(map(int, ker.f)), ker.p)
    v[: len(a)] = a
    return v
