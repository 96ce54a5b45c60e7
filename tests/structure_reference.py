"""Reference versions of `chebdyn.graph` internals.

`full_succ` evaluates T_ell at every field element by Horner over its
coefficients (`horner_cols`), with no use of the Frobenius symmetry or
of the pair ladder; tests require `build_graph(...).succ` to equal it.

`reference_cycle_min` walks each successor path one step at a time;
tests require `graph._cycle_min` to equal it.

`reference_verify_structure` is the structure check as it was written
before the array version: cycles are walked one successor at a time and
every tree is searched breadth first from its root through a CSR
predecessor list.  Tests require the array version to produce the same
(name, ok) list on valid and corrupted graphs.
"""

from __future__ import annotations

import numpy as np

from chebdyn.cheb import cheb_coeffs
from chebdyn.ffield import MINUS, PLUS, Branch, FieldCtx, nu
from chebdyn.graph import FuncGraph, VerifyReport


def horner_cols(ctx: FieldCtx, coeffs: list[int],
                x: np.ndarray) -> np.ndarray:
    """The polynomial coeffs[0] + coeffs[1] X + ..., of degree at least 1,
    at each column of x, an (n, m) int64 matrix of reduced coefficient
    columns, by Horner: one column product a coefficient."""
    p = ctx.p
    acc = coeffs[-1] * x
    acc[0] += coeffs[-2]
    acc %= p
    for c in coeffs[-3::-1]:
        acc = ctx._mul_cols(acc, x)
        acc[0] += c
        acc %= p
    return acc


def full_succ(ctx: FieldCtx, ell: int) -> np.ndarray:
    """T_ell evaluated at every field element, one block of indices at a
    time in column-major (n, block) layout."""
    coeffs = cheb_coeffs(ell, ctx.p)
    succ = np.empty(ctx.q, dtype=np.int64)
    for lo in range(0, ctx.q, ctx.BLOCK):
        x = ctx.coeff_cols(np.arange(lo, min(lo + ctx.BLOCK, ctx.q)))
        succ[lo:lo + ctx.BLOCK] = ctx.encode_cols(horner_cols(ctx, coeffs, x))
    return succ


def reference_cycle_min(succ: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """For each v in verts, a vertex set closed under succ, the smallest
    index among v, succ(v), succ^2(v), ...

    Each unresolved vertex starts a walk that stops at a resolved vertex
    or at its own path, whose repeat closes a cycle; the cycle takes its
    minimum, and the path before it is resolved backwards by
    F(u) = min(u, F(succ(u))).
    """
    low: dict[int, int] = {}
    for start in verts.tolist():
        path, seen = [], {}
        u = start
        while u not in low and u not in seen:
            seen[u] = len(path)
            path.append(u)
            u = int(succ[u])
        if u in seen:
            cycle = path[seen[u]:]
            m = min(cycle)
            for c in cycle:
                low[c] = m
            path = path[:seen[u]]
        for v in reversed(path):
            low[v] = min(v, low[int(succ[v])])
    return np.array([low[v] for v in verts.tolist()], dtype=np.int64)


SHAPES = ("long_cycle", "short_cycles", "fixed_points", "rho",
          "increasing", "decreasing")


def functional_graph(shape: str, size: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(succ, verts): a functional graph of the given shape on size
    vertices, placed at sorted random indices verts below 1.5 size + 1;
    the indices outside verts point anywhere.

    A rho draws a random map, so its vertices lie on tails and on
    cycles; increasing and decreasing cycles step through verts in and
    against index order.
    """
    rng = np.random.default_rng(seed)
    at = np.arange(size)
    if shape == "long_cycle":
        order = rng.permutation(size)
        f = np.empty(size, dtype=np.int64)
        f[order] = np.roll(order, -1)
    elif shape == "short_cycles":
        order = rng.permutation(size)
        f = np.empty(size, dtype=np.int64)
        lo = 0
        while lo < size:
            cycle = order[lo:lo + int(rng.integers(1, 9))]
            f[cycle] = np.roll(cycle, -1)
            lo += cycle.size
    elif shape == "fixed_points":
        f = at
    elif shape == "rho":
        f = rng.integers(0, size, size)
    elif shape == "increasing":
        f = (at + 1) % size
    elif shape == "decreasing":
        f = (at - 1) % size
    else:
        raise ValueError(f"unknown shape {shape}")
    q = size + size // 2 + 1
    verts = np.sort(rng.choice(q, size, replace=False))
    succ = rng.integers(0, q, q).astype(np.int32)
    succ[verts] = verts[f]
    return succ, verts


def predecessors(g: FuncGraph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) CSR view of the reversed edge set."""
    counts = np.bincount(g.succ, minlength=g.q)
    indptr = np.zeros(g.q + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.argsort(g.succ, kind="stable")


def reference_verify_structure(g: FuncGraph) -> VerifyReport:
    """Check the predicted shape vertex by vertex.

    Per component: exactly one cycle.  Cycle vertices on a side with
    positive ell-valuation carry ell - 1 strictly preperiodic neighbors,
    each rooting a complete ell-ary tree of height lambda - 1.  For odd
    ell the fixed vertices +-2 carry (ell-1)/2 roots of trees of height
    lambda_m - 1; for ell = 2 the edges (2,2), (-2,2), (0,-2) exist and 0
    roots a complete binary tree of height lambda_m - 2.
    """
    q, ell, ctx = g.q, g.ell, g.ctx
    lam = {MINUS: nu(q - 1, ell), PLUS: nu(q + 1, ell)}
    lam_m = max(lam.values())
    report = VerifyReport(ell, ctx.p, ctx.n, periodic=g.periodic_count(), q=q)
    check = report.add

    indptr, preds = predecessors(g)

    def pred_list(v: int) -> list[int]:
        return preds[indptr[v]: indptr[v + 1]].tolist()

    def complete_tree(root: int, height: int, arity: int) -> tuple[bool, str]:
        level = [root]
        for d in range(height):
            nxt: list[int] = []
            for v in level:
                kids = pred_list(v)
                if len(kids) != arity:
                    return False, (f"vertex {v} at depth {d} has "
                                   f"{len(kids)} tree children, wanted {arity}")
                nxt.extend(kids)
            level = nxt
        for v in level:
            if pred_list(v):
                return False, f"leaf {v} at depth {height} has children"
        return True, ""

    two = ctx.from_int(2).index
    minus_two = ctx.from_int(-2).index

    # one cycle per component
    core = np.flatnonzero(g.pper == 0)
    comp_core_counts: dict[int, int] = {}
    for v in core.tolist():
        comp_core_counts[int(g.comp[v])] = comp_core_counts.get(int(g.comp[v]), 0) + 1
    one_cycle = True
    detail = ""
    for cid, total in comp_core_counts.items():
        # walk the cycle through cid itself (cid is on its cycle);
        # bounded so that a corrupted graph reports instead of spinning
        length = 1
        v = int(g.succ[cid])
        while v != cid and length <= q:
            length += 1
            v = int(g.succ[v])
        if v != cid or length != total:
            one_cycle, detail = False, (f"component {cid} has {total} core "
                                        f"vertices but cycle length {length}")
            break
    check("one cycle per component", one_cycle, detail)

    special = {two, minus_two}
    if ell == 2:
        zero = ctx.from_int(0).index
        special.add(zero)
        check("edge (2,2)", int(g.succ[two]) == two, "2 is not fixed")
        check("edge (-2,2)", int(g.succ[minus_two]) == two,
              "-2 does not map to 2")
        check("edge (0,-2)", int(g.succ[zero]) == minus_two,
              "0 does not map to -2")
        ok, why = complete_tree(zero, lam_m - 2, 2)
        check(f"0 roots a complete binary tree of height {lam_m - 2}", ok, why)
    else:
        for vtx, name in ((two, "2"), (minus_two, "-2")):
            check(f"{name} fixed", int(g.succ[vtx]) == vtx,
                  f"{name} is not a fixed point")
            roots = [u for u in pred_list(vtx) if u != vtx]
            want = (ell - 1) // 2 if lam_m >= 1 else 0
            if not check(f"{name} has {want} tree roots",
                         len(roots) == want,
                         f"found {len(roots)}"):
                continue
            for r in roots:
                ok, why = complete_tree(r, lam_m - 1, ell)
                if not check(f"tree at {r} over {name} complete "
                             f"(height {lam_m - 1})", ok, why):
                    break

    # generic cycles
    checked_components: set[int] = set()
    core_set = set(core.tolist())
    for v in core.tolist():
        if v in special or int(g.comp[v]) in checked_components:
            continue
        checked_components.add(int(g.comp[v]))
        br: Branch = MINUS if g.branch[v] == 0 else PLUS
        height = lam[br]
        cyc = [v]
        u = int(g.succ[v])
        while u != v and len(cyc) <= q:
            cyc.append(u)
            u = int(g.succ[u])
        if u != v:
            check(f"cycle walk from {v} closes", False,
                  "successor walk never returned to its start")
            continue
        ok_comp = True
        why = ""
        for cv in cyc:
            roots = [u for u in pred_list(cv) if u not in core_set]
            want = ell - 1 if height >= 1 else 0
            if len(roots) != want:
                ok_comp, why = False, (f"cycle vertex {cv}: {len(roots)} "
                                       f"tree roots, wanted {want}")
                break
            for r in roots:
                ok, sub_why = complete_tree(r, height - 1, ell)
                if not ok:
                    ok_comp, why = False, sub_why
                    break
            if not ok_comp:
                break
        check(f"component of {min(cyc)} (divisor {int(g.divisor[v])}) "
              f"trees complete", ok_comp, why)
    return report
