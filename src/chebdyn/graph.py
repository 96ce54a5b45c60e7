"""Build and analyze the functional graph of T_ell on F_{p^n}.

The graph lives in flat numpy arrays keyed by the canonical element
index.  Preperiods and periods are found by brute force (in-degree
peeling, pointer jumping on the cycles and level sweeps up the trees),
completely independently of the multiplicative-order route, so the two
can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import cheb_coeffs
from .ffield import (MINUS, PLUS, Branch, FFElem, FieldCtx, alpha_order,
                     check_domain, factor_int, nu, strip_ell)
from .predict import c_of_d, half_order
from .summary import GraphSummary, SummaryRow, canonical_row_order

__all__ = [
    "FuncGraph",
    "VerifyReport",
    "build_graph",
    "orbit_stats_order",
    "summarize",
    "verify_structure",
    "export_dot",
    "DEFAULT_CAP",
]

# Enumeration cap on q = p^n, measured where FieldCtx.TABLE_CAP is
# defined; --cap overrides.
DEFAULT_CAP = FieldCtx.TABLE_CAP


@dataclass
class FuncGraph:
    """Flat successor table over F_{p^n} with per-vertex orbit data.

    succ[i] is the index of T_ell applied to the element with index i;
    pper/per are the brute-force preperiod and eventual cycle length;
    weight is the degree over F_p; divisor holds the order of the lifted
    root and branch which of p^n -+ 1 it divides (the field's read-only
    order tables, not copies); comp identifies the component by the
    smallest index on its cycle.
    """

    ctx: FieldCtx
    ell: int
    succ: np.ndarray
    pper: np.ndarray
    per: np.ndarray
    weight: np.ndarray
    divisor: np.ndarray
    branch: np.ndarray
    comp: np.ndarray

    @property
    def q(self) -> int:
        return self.ctx.q

    def periodic_count(self) -> int:
        return int((self.pper == 0).sum())

    def preperiod_totals(self) -> dict[int, int]:
        vals, counts = np.unique(self.pper, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def _vector_succ(ctx: FieldCtx, ell: int) -> np.ndarray:
    """succ array: T_ell evaluated at every field element, one block of
    indices at a time in column-major (n, block) layout, so every
    coefficient product runs over contiguous rows."""
    p, q = ctx.p, ctx.q
    coeffs = cheb_coeffs(ell, p)
    red = np.array(ctx._red, dtype=np.int64)
    succ = np.empty(q, dtype=np.int64)
    for lo in range(0, q, ctx.BLOCK):
        hi = min(lo + ctx.BLOCK, q)
        x = ctx.coeff_cols(lo, hi)
        # Horner; the first step multiplies by a constant
        acc = coeffs[-1] * x
        acc[0] += coeffs[-2]
        acc %= p
        for c in coeffs[-3::-1]:
            acc = _horner_step(acc, x, c, p, red)
        succ[lo:hi] = ctx.encode_cols(acc)
    return succ


def _horner_step(A: np.ndarray, B: np.ndarray, c: int, p: int,
                 red: np.ndarray) -> np.ndarray:
    """A * B + c, column by column, for (n, m) coefficient matrices of
    reduced field elements."""
    n, m = A.shape
    raw = np.empty((2 * n - 1, m), dtype=np.int64)
    tmp = np.empty(m, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == 0 or j == n - 1:  # first term of raw[i + j]
                np.multiply(A[i], B[j], out=raw[i + j])
            else:
                np.multiply(A[i], B[j], out=tmp)
                raw[i + j] += tmp
    # only the rows folded back through red need reducing first: the
    # head stays below (2n - 1) p^2 + p
    raw[n:] %= p
    head = raw[:n]
    for k in range(n, 2 * n - 1):
        head += red[k - n][:, None] * raw[k]
    head[0] += c
    head %= p
    return head


def _cycle_min(succ: np.ndarray,
               verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping (Wyllie 1979) over verts, a vertex set closed
    under succ.

    Returns (low, on_cycle): low[i] is the smallest index among the first
    2^k >= len(verts) iterates of verts[i], so on a cycle it is the cycle
    minimum; on_cycle[i] says whether verts[i] lies on a cycle, that is,
    is a 2^k-th iterate of some vertex.
    """
    pos = np.empty(succ.size, dtype=np.int64)
    pos[verts] = np.arange(verts.size)
    nxt = pos[succ[verts]]
    del pos
    low = verts.copy()
    span = 1
    while span < verts.size:
        np.minimum(low, np.take(low, nxt), out=low)
        nxt = np.take(nxt, nxt)
        span *= 2
    on_cycle = np.zeros(verts.size, dtype=bool)
    on_cycle[nxt] = True
    return low, on_cycle


def build_graph(ell: int, ctx: FieldCtx, cap: int = DEFAULT_CAP) -> FuncGraph:
    """Enumerate G(ell, p, n): successors by direct evaluation, orbit
    statistics by graph search, weights by Frobenius orbits, divisor
    classes from the order tables."""
    # the order tables would refuse above TABLE_CAP only after all the
    # work below
    check_domain(ell, ctx.p, ctx.n, min(cap, ctx.TABLE_CAP))
    q = ctx.q
    succ = _vector_succ(ctx, ell)

    # strip leaves round by round; what survives is the periodic core
    indeg = np.bincount(succ, minlength=q)
    alive = np.ones(q, dtype=bool)
    frontier = np.flatnonzero((indeg == 0) & alive)
    while frontier.size:
        alive[frontier] = False
        dec = np.bincount(succ[frontier], minlength=q)
        indeg -= dec
        frontier = np.flatnonzero((indeg == 0) & alive)
    del indeg

    # every cycle vertex is labelled by its cycle's smallest index
    core = np.flatnonzero(alive)
    low, _ = _cycle_min(succ, core)
    comp = np.full(q, -1, dtype=np.int32)
    comp[core] = low
    per = np.zeros(q, dtype=np.int32)
    per[core] = np.bincount(low)[low]

    # level sweeps: a vertex whose successor sits at depth d - 1 has
    # depth d and inherits its successor's period and component
    pper = np.full(q, -1, dtype=np.int16)
    pper[core] = 0
    rest = np.flatnonzero(~alive)
    depth = 0
    while rest.size:
        depth += 1
        nxt = succ[rest]
        hit = pper[nxt] == depth - 1
        if not hit.any():
            raise ArithmeticError("level sweep missed vertices")
        level, up = rest[hit], nxt[hit]
        pper[level] = depth
        per[level] = per[up]
        comp[level] = comp[up]
        rest = rest[~hit]

    # weights: cycle lengths of the Frobenius permutation
    weight = np.zeros(q, dtype=np.int16)
    if ctx.n == 1:
        weight[:] = 1
    else:
        fr = ctx.frobenius_indices()
        ar = np.arange(q, dtype=np.int64)
        cur = fr
        for m in range(1, ctx.n + 1):
            newly = (cur == ar) & (weight == 0)
            weight[newly] = m
            if m < ctx.n:
                cur = fr[cur]
        if (weight == 0).any():
            raise ArithmeticError("Frobenius orbit walk missed vertices")

    ords, branch = ctx.alpha_order_tables()
    return FuncGraph(ctx, ell, succ.astype(np.int32), pper, per, weight,
                     ords, branch, comp)


def orbit_stats_order(a: FFElem, ell: int) -> tuple[int, int]:
    """(preperiod, period) of a from the order of its lifted root alone.

    No iteration of the map: the preperiod is the ell-valuation of
    ord(alpha) and the period is c of the prime-to-ell part.
    """
    check_domain(ell, a.ctx.p)
    ordv, _ = alpha_order(a)
    rho = nu(ordv, ell)
    return rho, c_of_d(ordv // ell ** rho, ell)


def summarize(g: FuncGraph) -> GraphSummary:
    """Group vertices into divisor classes and report observed rows."""
    q, ell = g.q, g.ell
    lam_minus = nu(q - 1, ell)
    lam_plus = nu(q + 1, ell)
    max_side = MINUS if lam_minus >= lam_plus else PLUS

    keys = g.divisor * 2 + g.branch
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    rows = []
    for idx in np.split(order, cuts):
        key = int(keys[idx[0]])
        ordv = key // 2
        br: Branch = MINUS if key % 2 == 0 else PLUS
        if ordv <= 2:
            br = max_side
        pp = g.pper[idx]
        wt = g.weight[idx]
        if not (pp == pp[0]).all() or not (wt == wt[0]).all():
            raise ArithmeticError(
                f"divisor class {ordv} is not homogeneous: the structure "
                "theory failed on this instance")
        if pp[0] == 0:
            pers = g.per[idx]
            if not (pers == pers[0]).all():
                raise ArithmeticError(f"mixed periods in class {ordv}")
            # one vertex of each cycle is its own minimum
            cycles = int((g.comp[idx] == idx).sum())
            rows.append(SummaryRow(factor_int(ordv), br, len(idx), 0,
                                   int(pers[0]), int(wt[0]), cycles))
        else:
            rows.append(SummaryRow(factor_int(ordv), br, len(idx),
                                   int(pp[0]), None, int(wt[0]), None))
    return GraphSummary(ell, g.ctx.p, g.ctx.n,
                        tuple(canonical_row_order(rows, ell)))


@dataclass
class VerifyReport:
    """Named checks on an instance (ell, p, n), each with a pass flag and
    a detail, plus notes and the vertex counts they were made on."""

    ell: int
    p: int
    n: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    periodic: int = 0
    q: int = 0

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, ok, detail))
        return ok

    @property
    def first_failure(self) -> str | None:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def summary_line(self) -> str:
        if self.ok:
            return f"{self.periodic} periodic / {self.q}; all rows match"
        first = next(d or n for n, ok, d in self.checks if not ok)
        return f"{self.periodic} periodic / {self.q}; MISMATCH: {first}"

    def lines(self) -> list[str]:
        out = [f"verify l={self.ell} p={self.p} n={self.n}"]
        for name, ok, detail in self.checks:
            tag = "ok " if ok else "FAIL"
            out.append(f"  [{tag}] {name}" + (f": {detail}" if detail else ""))
        for note in self.notes:
            out.append(f"  [note] {note}")
        out.append(self.summary_line())
        return out

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell, "p": self.p, "n": self.n, "ok": self.ok,
            "periodic": self.periodic, "q": self.q,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in self.checks],
            "notes": list(self.notes),
        }


def _tree_faults(g: FuncGraph, indeg: np.ndarray, roots: np.ndarray,
                 height: int, arity: int, depth0: int, cid: int) -> list[str]:
    """First fault of the tree over each root, "" for none.

    The iterated predecessors of roots[i] must form a complete arity-ary
    tree of the given height whose vertices have component cid and
    preperiod depth0 plus their depth in the tree.  One sweep over succ
    per level carries the root's position up to the next level.
    """
    faults = [""] * roots.size
    owner = np.full(g.q, -1, dtype=np.int32)
    level, lab = roots, np.arange(roots.size)
    for depth in range(height + 1):
        want = arity if depth < height else 0
        found = indeg[level]
        bad_count = found != want
        bad_label = (g.pper[level] != depth0 + depth) | (g.comp[level] != cid)
        hits = np.flatnonzero(bad_count | bad_label)
        tree_hit, first = np.unique(lab[hits], return_index=True)
        for t, i in zip(tree_hit.tolist(), hits[first].tolist()):
            v = int(level[i])
            if faults[t]:
                continue
            if bad_count[i]:
                faults[t] = (f"vertex {v} at depth {depth0 + depth} has "
                             f"{found[i]} tree children, wanted {want}")
            else:
                faults[t] = (f"vertex {v} has preperiod {g.pper[v]} and "
                             f"comp {g.comp[v]}, wanted {depth0 + depth} "
                             f"and {cid}")
        if depth == height:
            break
        owner[level] = lab
        kids = np.flatnonzero(owner[g.succ] >= 0)
        lab = owner[g.succ[kids]]
        owner[level] = -1
        level = kids
    return faults


def verify_structure(g: FuncGraph) -> VerifyReport:
    """Check the predicted shape with whole-array predicates.

    Per component: exactly one cycle.  The core (pper == 0) must be
    closed under succ, succ must permute it, and comp must be the cycle
    minimum there.  Every other vertex inherits comp and pper - 1 from
    its successor, so pper is its distance to the cycle.  With H the
    ell-valuation of q -+ 1 on the component's side, a cycle vertex has
    ell - 1 tree roots if H >= 1 and none otherwise, and a tree vertex
    has ell predecessors below depth H and none at depth H: complete
    ell-ary trees of height H - 1.  For odd ell the fixed vertices +-2
    carry (ell-1)/2 roots of trees of height lambda_m - 1; for ell = 2 the
    edges (2,2), (-2,2), (0,-2) exist and 0 roots a complete binary tree
    of height lambda_m - 2.
    """
    q, ell, ctx = g.q, g.ell, g.ctx
    # indexed by branch
    lam = np.array([nu(q - 1, ell), nu(q + 1, ell)], dtype=np.int16)
    lam_m = int(lam.max())
    report = VerifyReport(ell, ctx.p, ctx.n, periodic=g.periodic_count(), q=q)
    check = report.add
    succ, pper = g.succ, g.pper
    comp = g.comp
    indeg = np.bincount(succ, minlength=q)
    two = ctx.from_int(2).index
    minus_two = ctx.from_int(-2).index
    zero = ctx.from_int(0).index
    special = [two, minus_two, zero] if ell == 2 else [two, minus_two]

    # one cycle per component
    in_core = pper == 0
    core = np.flatnonzero(in_core)
    faults = []
    leaving = core[~in_core[succ[core]]]
    if leaving.size:
        v = int(leaving[0])
        faults.append(f"core vertex {v} maps to {succ[v]} of preperiod "
                      f"{pper[succ[v]]}, wanted 0")
    core_preds = np.bincount(succ[core], minlength=q)[core]
    bad = np.flatnonzero(core_preds != 1)
    if bad.size:
        faults.append(f"core vertex {core[bad[0]]} has {core_preds[bad[0]]} "
                      "core predecessors, wanted 1")
    # pointer jumping needs a set closed under succ: add what the core
    # leads to
    verts = core
    if leaving.size:
        closed = in_core.copy()
        new = np.unique(succ[leaving])
        while new.size:
            closed[new] = True
            nxt = np.unique(succ[new])
            new = nxt[~closed[nxt]]
        verts = np.flatnonzero(closed)
    low, cyc = _cycle_min(succ, verts)
    cmin = np.full(q, -1, dtype=np.int32)
    cmin[verts] = low
    on_cycle = np.zeros(q, dtype=bool)
    on_cycle[verts[cyc]] = True
    bad = np.flatnonzero(comp[core] != low[in_core[verts]])
    if bad.size:
        v = int(core[bad[0]])
        faults.append(f"core vertex {v} has comp {comp[v]}, wanted its "
                      f"cycle minimum {cmin[v]}")
    check("one cycle per component", not faults, faults[0] if faults else "")

    if ell == 2:
        check("edge (2,2)", int(succ[two]) == two, "2 is not fixed")
        check("edge (-2,2)", int(succ[minus_two]) == two,
              "-2 does not map to 2")
        check("edge (0,-2)", int(succ[zero]) == minus_two,
              "0 does not map to -2")
        fault, = _tree_faults(g, indeg, np.array([zero]), lam_m - 2, 2, 2,
                              two)
        check(f"0 roots a complete binary tree of height {lam_m - 2}",
              not fault, fault)
    else:
        want = (ell - 1) // 2 if lam_m >= 1 else 0
        for vtx, name in ((two, "2"), (minus_two, "-2")):
            check(f"{name} fixed", int(succ[vtx]) == vtx,
                  f"{name} is not a fixed point")
            roots = np.flatnonzero(succ == vtx)
            roots = roots[roots != vtx]
            if not check(f"{name} has {want} tree roots", roots.size == want,
                         f"found {roots.size}"):
                continue
            tree_faults = _tree_faults(g, indeg, roots, lam_m - 1, ell, 1, vtx)
            for r, fault in zip(roots.tolist(), tree_faults):
                if not check(f"tree at {r} over {name} complete "
                             f"(height {lam_m - 1})", not fault, fault):
                    break

    # generic components: one check per comp label on the non-special
    # core, in the order of the label's first vertex, keyed by the cycle
    # minimum recomputed there
    rest = in_core.copy()
    rest[special] = False
    core_rest = np.flatnonzero(rest)
    first = np.full(q, core_rest.size)
    np.minimum.at(first, np.clip(comp[core_rest], 0, q - 1),
                  np.arange(core_rest.size))
    heads = core_rest[np.sort(first[first < core_rest.size])]
    del rest, core_rest, first
    head_keys = cmin[heads]
    is_head_key = np.zeros(q, dtype=bool)
    is_head_key[head_keys] = True
    first_fault: dict[int, str] = {}

    def blame(bad: np.ndarray, keys: np.ndarray, describe) -> None:
        hits = np.flatnonzero(bad)
        hits = hits[(keys[hits] >= 0) & (keys[hits] < q)]
        hits = hits[is_head_key[keys[hits]]]
        hit_keys, at = np.unique(keys[hits], return_index=True)
        for k, i in zip(hit_keys.tolist(), hits[at].tolist()):
            first_fault.setdefault(k, describe(i))

    # a cycle vertex has ell - 1 tree roots if H >= 1, none if H = 0
    on_core_cycle = on_cycle[core]
    cycle = core[on_core_cycle]
    key = cmin[cycle]
    roots = (indeg[core] - core_preds)[on_core_cycle]
    want = np.where(lam[g.branch[key]] >= 1, ell - 1, 0)
    blame(roots != want, key,
          lambda i: f"cycle vertex {cycle[i]}: {roots[i]} tree roots, "
                    f"wanted {want[i]}")
    # a tree vertex has ell children below depth H and none at depth H
    tree = np.flatnonzero(~in_core)
    depth = pper[tree]
    label = comp[tree]
    height = lam[g.branch[np.clip(label, 0, q - 1)]]
    kids = indeg[tree]
    want = np.where(depth < height, ell, 0)
    blame((depth > height) | (kids != want), label,
          lambda i: (f"vertex {tree[i]} at depth {depth[i]}, wanted at "
                     f"most {height[i]}") if depth[i] > height[i] else
                    (f"vertex {tree[i]} at depth {depth[i]} has {kids[i]} "
                     f"tree children, wanted {want[i]}"))
    # and inherits comp and pper - 1 from its successor; on a cycle the
    # recomputed minimum stands in for comp
    up = succ[tree]
    up_label = np.where(on_cycle[up], cmin[up], comp[up])
    up_depth = pper[up] + 1
    blame((depth != up_depth) | (label != up_label), up_label,
          lambda i: f"vertex {tree[i]} has preperiod {depth[i]} and comp "
                    f"{label[i]}, wanted {up_depth[i]} and {up_label[i]} "
                    f"from its successor {up[i]}")

    for v, k, closes, dv in zip(heads.tolist(), head_keys.tolist(),
                                on_cycle[heads].tolist(),
                                g.divisor[heads].tolist()):
        if not closes:
            check(f"cycle walk from {v} closes", False,
                  "successor walk never returned to its start")
            continue
        fault = first_fault.get(k, "")
        check(f"component of {k} (divisor {dv}) trees complete", not fault,
              fault)
    return report


# palette used by the DOT export, indexed by a weight-derived slot
_PALETTE = ("#2e7d32", "#8d6e63", "#c62828", "#7b1fa2", "#1565c0",
            "#283593", "#00838f", "#ef6c00", "#5d4037", "#455a64",
            "#9e9d24", "#ad1457")


def export_dot(g: FuncGraph, component_filter: int | None = None) -> str:
    """Graphviz text for the whole graph or the components whose cycle
    carries the given prime-to-ell divisor."""
    q = g.q
    if component_filter is None:
        keep = np.ones(q, dtype=bool)
    else:
        core_mask = g.pper == 0
        d0, _ = strip_ell(g.divisor, g.ell)
        valid = set(int(x) for x in np.unique(d0[core_mask]))
        if component_filter not in valid:
            raise ValueError(f"unknown divisor filter {component_filter}; "
                             f"cycle divisors present: {sorted(valid)}")
        cycle_comps = set(
            int(c) for c in np.unique(g.comp[core_mask & (d0 == component_filter)]))
        keep = np.isin(g.comp, list(cycle_comps))

    mu = half_order(g.ctx.p, g.ell)

    def color(w: int) -> str:
        slot = round(2 * math.log(w / mu) / math.log(g.ell)) if w > 0 else 0
        return _PALETTE[slot % len(_PALETTE)]

    lines = ["digraph chebgraph {", "  node [style=filled];"]
    for i in range(q):
        if keep[i]:
            lines.append(f'  "{i}" [label="{i}", '
                         f'fillcolor="{color(int(g.weight[i]))}"];')
    for i in range(q):
        if keep[i]:
            lines.append(f'  "{i}" -> "{int(g.succ[i])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
