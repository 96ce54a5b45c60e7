"""Build and analyze the functional graph of T_ell on F_{p^n}.

The graph lives in flat numpy arrays keyed by the canonical element
index.  Preperiods and periods are found by brute force, completely
independently of the multiplicative-order route, so the two can check
each other: in-degree peeling leaves the cycles, pointer jumping labels
each cycle by its least index, and the peel's rounds, replayed last
first, label the trees from the cycles down.  The jumping contracts as
it goes.  With F(v) the least index among the iterates of v and low(v)
the least of v's first four, F(v) = F(low(v)) and F(u) = min(low(u),
F(low(succ^4(u)))), so the window minima alone carry the rest of the
search (_cycle_min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TextIO

import numpy as np

from .cheb import COEFF_DEGREE_CAP
from .ffield import (MINUS, PLUS, Branch, FFElem, FieldCtx, alpha_order,
                     check_domain, nu)
from .predict import half_order, structure_params
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
    weight is the degree over F_p; comp identifies the component by the
    smallest index on its cycle.  class_id (uint16) is the divisor class
    of each vertex, class_order the order of the lifted root in each
    class and class_branch which of p^n -+ 1 it divides (the field's
    read-only order tables, FieldCtx.alpha_order_tables, not copies).
    divisor and branch, the per-vertex order and branch, are decoded from
    them on first access.
    """

    ctx: FieldCtx
    ell: int
    succ: np.ndarray
    pper: np.ndarray
    per: np.ndarray
    weight: np.ndarray
    class_id: np.ndarray
    class_order: np.ndarray
    class_branch: np.ndarray
    comp: np.ndarray

    @property
    def q(self) -> int:
        return self.ctx.q

    @cached_property
    def divisor(self) -> np.ndarray:
        return _read_only(self.class_order[self.class_id])

    @cached_property
    def branch(self) -> np.ndarray:
        return _read_only(self.class_branch[self.class_id])

    def periodic_count(self) -> int:
        return int((self.pper == 0).sum())

    def preperiod_totals(self) -> dict[int, int]:
        vals, counts = np.unique(self.pper, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _succ_and_weight(ctx: FieldCtx,
                     ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(succ, weight) from one walk of the Frobenius permutation fr.

    The walk gives each vertex its weight, the first m with fr^m(x) = x,
    and marks the smallest index of each orbit.  T_ell has coefficients
    in F_p, so T_ell(x^p) = T_ell(x)^p: T_ell is evaluated only at the
    orbit minima, a block at a time in column-major (n, block) layout, and
    n - 1 steps along fr carry each value round its orbit (an orbit of
    length w | n revisits its entries with the same values).  At n = 1
    every vertex is its orbit's minimum: mins is the int32 arange(q),
    every weight is 1, and neither fr nor the walk's arrays are built.
    T_ell is the pair ladder (FieldCtx.ladder_cols), at most 2 log2(ell)
    column products.
    """
    q, n = ctx.q, ctx.n
    weight = np.full(q, n, dtype=np.int16)
    if n == 1:
        mins = np.arange(q, dtype=np.int32)
    else:
        fr = ctx.frobenius_indices()
        ar = np.arange(q, dtype=np.int32)
        is_min, cur = np.ones(q, dtype=bool), ar
        for m in range(1, n):
            cur = fr[cur]
            is_min &= cur >= ar
            weight[(cur == ar) & (weight == n)] = m
        mins = np.flatnonzero(is_min)
        del ar, is_min, cur

    vals = np.empty(mins.size, dtype=np.int32)
    for lo in range(0, mins.size, ctx.BLOCK):
        x = ctx.coeff_cols(mins[lo:lo + ctx.BLOCK])
        vals[lo:lo + ctx.BLOCK] = ctx.encode_cols(ctx.ladder_cols(ell, x))
    succ = np.empty(q, dtype=np.int32)
    succ[mins] = vals
    r, v = mins, vals
    for _ in range(n - 1):
        r, v = fr[r], fr[v]
        succ[r] = v
    if n > 1 and not np.array_equal(fr[r], mins):
        raise ArithmeticError("Frobenius orbit walk did not close")
    return succ, weight


def _cycle_min(succ: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """F over verts, a sorted vertex set closed under succ: F(v) is the
    least index among v, succ(v), succ^2(v), ..., the cycle minimum when
    v lies on a cycle.

    Pointer jumping (Wyllie 1979) on contracted levels, the sparse
    ruling-set idea of list ranking (Reid-Miller 1994).  A level holds
    vertices u with a pointer P(u) and a value V(u), both iterates of u
    and V(u) a vertex of the level, such that
        F(u) = min(V(u), F(P(u)))  and  F(u) = F(V(u));
    the first level is verts with P = succ and V(u) = u.  Two jumping
    rounds give the window minimum low(u) = min(V(u), ..., V(P^3(u))),
    and with psi(u) = low(P^4(u))
        F(u) = F(low(u))  and  F(u) = min(low(u), F(psi(u))):
    every value passed before low(u) is at least low(u) >= F(low(u)), and
    F(P^4(u)) = F(low(P^4(u))).  So the window minima, with pointer psi
    and value low, form the next level, about 0.4 of this one when the
    indices fall in no order, and F unwinds by one gather a level.

    On a cycle of P the recurrences alone do not pin F down.  What does
    is that the walk from u up to P(u) holds F(u) only if V(u) = F(u),
    true on the first level and kept by each contraction.  Each level's
    P jumps at least 4 times as far as the last one's, so once P reaches
    len(verts) steps of succ the walk up to P(u) passes every iterate of
    u, and V is F already.  The levels contract until then.

    On monotone cycles, and on fixed points, the window minima keep
    nearly every vertex and only the growing jump ends the contraction:
    at most ceil(log_4(len(verts))) levels of two rounds and one
    contraction each.
    """
    size = verts.size
    pos = np.empty(succ.size, dtype=np.int32)
    pos[verts] = np.arange(size, dtype=np.int32)
    # positions keep the order of indices, since verts is sorted; intp,
    # or every gather below would cast its indices
    ptr = pos[succ[verts]].astype(np.intp)
    del pos
    val = np.arange(size)
    # each array is deleted once spent, so that a level holds no more than
    # plain jumping would
    levels = []
    stride = 1
    while stride < size:
        low = val[ptr]
        np.minimum(low, val, out=low)
        del val
        ptr = ptr[ptr]
        np.minimum(low, low[ptr], out=low)
        ptr = ptr[ptr]
        stride *= 4
        # the window minima, renumbered in order, are the next level
        mark = np.zeros(ptr.size, dtype=bool)
        mark[low] = True
        keep = np.flatnonzero(mark)
        del mark
        ahead = ptr[keep]
        rank = np.empty(ptr.size, dtype=np.intp)
        del ptr
        rank[keep] = np.arange(keep.size)
        low = rank[low]
        del rank
        val, ptr = low[keep], low[ahead]
        del ahead
        levels.append((low, keep))
        del low, keep
    del ptr
    while levels:
        low, keep = levels.pop()
        val = keep[val][low]
    return verts[val]


def _indegree(succ: np.ndarray, block: int,
              verts: np.ndarray | None = None) -> np.ndarray:
    """The number of predecessors of each vertex, int32: among every
    vertex, or among verts only, counted a block of them at a time.

    np.bincount would cast the int32 successors to an intp copy and
    count in int64, 16 bytes a vertex at once; np.add.at takes its fast
    path only with an increment of the count's own dtype (at q = 4.78 M
    on a 2-core host, 0.05 s against 0.12 s for bincount and 1.2 s with a
    Python int).
    """
    out = np.zeros(succ.size, dtype=np.int32)
    size = succ.size if verts is None else verts.size
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        np.add.at(out, succ[lo:hi] if verts is None else succ[verts[lo:hi]],
                  np.int32(1))
    return out


def _peel(succ: np.ndarray, alive: np.ndarray,
          indeg: np.ndarray) -> list[np.ndarray]:
    """Strip the vertices of no predecessor from alive, round by round,
    until only its cycles remain; the rounds' vertices, int32, the first
    round first.

    alive masks a vertex set closed under succ and indeg, int32, counts
    each vertex's predecessors in it; both are updated in place.  A round per
    tree level, and the trees of G(ell, p, n) are at most
    lambda <= log_ell(q + 1) high.  This is Kahn's topological sort (CACM
    5(11), 1962): a vertex is stripped only after all its predecessors,
    so its successor is stripped in a later round or stays alive.
    """
    rounds = []
    frontier = np.flatnonzero((indeg == 0) & alive)
    while frontier.size:
        alive[frontier] = False
        np.subtract.at(indeg, succ[frontier], np.int32(1))
        rounds.append(frontier.astype(np.int32))
        frontier = np.flatnonzero((indeg == 0) & alive)
    return rounds


def build_graph(ell: int, ctx: FieldCtx, cap: int = DEFAULT_CAP) -> FuncGraph:
    """Enumerate G(ell, p, n): successors by evaluation once per
    Frobenius orbit, weights by Frobenius orbits, divisor classes from
    the order tables, and orbit statistics from one peel: pointer jumping
    labels the cycles it leaves, and its rounds replayed label the trees."""
    # check_domain caps q at TABLE_CAP too: the order tables would refuse
    # above it only after all the work below
    check_domain(ell, ctx.p, ctx.n, cap)
    # T_ell takes no coefficients here; the cap bounds the ladder's
    # length, at most 2 log2(ell) <= 32 column products a block, whose
    # cost grows with it: on a 2-core host G(ell, 33554393, 1) took
    # 14.3 s and 1,450 MiB at ell = 1021 against 7.5-7.8 s and 978 MiB at 3
    if ell > COEFF_DEGREE_CAP:
        raise ValueError(f"degree {ell} exceeds the coefficient cap "
                         f"{COEFF_DEGREE_CAP}")
    q = ctx.q
    succ, weight = _succ_and_weight(ctx, ell)

    alive = np.ones(q, dtype=bool)
    rounds = _peel(succ, alive, _indegree(succ, ctx.BLOCK))
    core = np.flatnonzero(alive)
    del alive

    # every cycle vertex is labelled by its cycle's smallest index, and
    # its period counted at that index
    low = _cycle_min(succ, core)
    comp = np.empty(q, dtype=np.int32)
    comp[core] = low
    per = np.zeros(q, dtype=np.int32)
    np.add.at(per, low, np.int32(1))
    per[core] = per[low]
    pper = np.zeros(q, dtype=np.int16)
    del core, low

    # the rounds, last first, reach each tree vertex after its successor:
    # it lies one level deeper and inherits its period and component
    while rounds:
        level = rounds.pop()
        up = succ[level]
        pper[level] = pper[up] + 1
        per[level] = per[up]
        comp[level] = comp[up]

    return FuncGraph(ctx, ell, succ, pper, per, weight,
                     *ctx.alpha_order_tables(), comp)


def orbit_stats_order(a: FFElem, ell: int) -> tuple[int, int]:
    """(preperiod, period) of a from the order of its lifted root alone.

    No iteration of the map: the preperiod is the ell-valuation of
    ord(alpha) and the period is c of the prime-to-ell part.  The order
    comes from alpha_order's T_d ladder, never from the walk tables; at
    n > 1 that runs on FFElem products, 0.2-1.8 ms a call at q <= 2^14.
    To label many vertices of a built graph, apply the same formula to
    g.class_order[g.class_id].
    """
    check_domain(ell, a.ctx.p)
    ordv, _ = alpha_order(a)
    rho = nu(ordv, ell)
    return rho, half_order(ell, ordv // ell ** rho)


def _divisor_classes(g: FuncGraph, *values: np.ndarray
                     ) -> tuple[np.ndarray, list[int], list[tuple]]:
    """(classes, sizes, ranges): the ids of the nonempty divisor classes,
    ascending, so in ascending (order, branch); their vertex counts; and
    for each array of values, the lists of its least and greatest value
    over each class.

    One pass over the vertices, a block at a time, by bincount and
    ufunc.at on the uint16 ids: no per-vertex key or sort.  A stable
    argsort of the ids (numpy's radix sort) took 16 bytes a vertex at
    once, its result and a buffer of the same size."""
    size, block = g.class_order.size, g.ctx.BLOCK
    sizes = np.zeros(size, dtype=np.int64)
    lows = [np.full(size, np.iinfo(a.dtype).max, dtype=a.dtype)
            for a in values]
    highs = [np.full(size, np.iinfo(a.dtype).min, dtype=a.dtype)
             for a in values]
    for lo in range(0, g.q, block):
        ids = g.class_id[lo:lo + block].astype(np.intp)
        sizes += np.bincount(ids, minlength=size)
        for a, low, high in zip(values, lows, highs):
            np.minimum.at(low, ids, a[lo:lo + block])
            np.maximum.at(high, ids, a[lo:lo + block])
    classes = np.flatnonzero(sizes)
    return classes, sizes[classes].tolist(), [
        (low[classes].tolist(), high[classes].tolist())
        for low, high in zip(lows, highs)]


def summarize(g: FuncGraph) -> GraphSummary:
    """Group vertices into divisor classes and report observed rows."""
    ell, ctx = g.ell, g.ctx
    max_side = structure_params(ell, ctx.p, ctx.n).max_side
    # indexed by branch
    factored = [{d.value: d for d in group.divisors()}
                for group in (ctx.order_minus, ctx.order_plus)]

    classes, points, ((pp_lo, pp_hi), (wt_lo, wt_hi), (per_lo, per_hi)) = (
        _divisor_classes(g, g.pper, g.weight, g.per))
    orders = g.class_order[classes].tolist()
    sides = g.class_branch[classes].tolist()
    # one vertex of each cycle is its own minimum; counted by the class
    # of each minimum, a block at a time, which needs no q-sized array
    cycles = np.zeros(g.class_order.size, dtype=np.int64)
    for lo in range(0, g.q, ctx.BLOCK):
        hi = min(lo + ctx.BLOCK, g.q)
        mins = g.comp[lo:hi] == np.arange(lo, hi, dtype=np.int32)
        cycles += np.bincount(g.class_id[lo:hi][mins],
                              minlength=cycles.size)
    cycles = cycles[classes].tolist()
    rows = []
    for k, (ordv, side) in enumerate(zip(orders, sides)):
        if ordv not in factored[side]:
            side_name = ("q - 1", "q + 1")[side]
            raise ArithmeticError(
                f"divisor class of order {ordv} does not divide its "
                f"branch's {side_name} = {ctx.q - 1 + 2 * side}")
        divisor = factored[side][ordv]
        br: Branch = (MINUS, PLUS)[side] if ordv > 2 else max_side
        if pp_lo[k] != pp_hi[k] or wt_lo[k] != wt_hi[k]:
            raise ArithmeticError(
                f"divisor class {ordv} is not homogeneous: the structure "
                "theory failed on this instance")
        if pp_lo[k] == 0:
            if per_lo[k] != per_hi[k]:
                raise ArithmeticError(f"mixed periods in class {ordv}")
            rows.append(SummaryRow(divisor, br, points[k], 0, per_lo[k],
                                   wt_lo[k], cycles[k]))
        else:
            rows.append(SummaryRow(divisor, br, points[k], pp_lo[k], None,
                                   wt_lo[k], None))
    return GraphSummary(ell, ctx.p, ctx.n,
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

    def table_str(self) -> str:
        """One line per check and per note, then the verdict."""
        lines = [f"verify l={self.ell} p={self.p} n={self.n}"]
        for name, ok, detail in self.checks:
            tag = "ok " if ok else "FAIL"
            lines.append(f"  [{tag}] {name}" + (f": {detail}" if detail else ""))
        lines += [f"  [note] {note}" for note in self.notes]
        verdict = ("all rows match" if self.ok else "MISMATCH: " + next(
            d or n for n, ok, d in self.checks if not ok))
        lines.append(f"{self.periodic} periodic / {self.q}; {verdict}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell, "p": self.p, "n": self.n, "ok": self.ok,
            "periodic": self.periodic, "q": self.q,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in self.checks],
            "notes": list(self.notes),
        }


def verify_structure(g: FuncGraph) -> VerifyReport:
    """Check the predicted shape with whole-array predicates.

    Per component: exactly one cycle.  The core (pper == 0) must be
    closed under succ, succ must permute it, and comp must be the cycle
    minimum there.  With H the ell-valuation of q -+ 1 on a component's
    side, a generic cycle vertex has ell - 1 tree roots if H >= 1 and none
    otherwise; for odd ell the fixed vertices +-2 carry (ell-1)/2, and for
    ell = 2 the edges (2,2), (-2,2), (0,-2) exist.

    One rule covers every tree vertex but -2 when ell = 2, whose one
    child is the edge (0,-2).  With height H, or lambda_m when its label
    is special (+-2, or 0 when ell = 2), it has ell children below depth
    H and none at H, and it inherits comp and pper - 1 from its
    successor, on a cycle the recomputed minimum standing in for comp.

    A fault is keyed by a label: the vertex's own for a root or child
    count or a depth, its successor's for what it inherits.  A generic
    label names its component's check, a special one the special tree
    the vertex lies in, whose root (below +-2, or 0 when ell = 2) a walk
    along succ meets within lambda_m + 1 steps.  No fault of a broken
    tree is lost to that bound: up the path from its root, the first
    fault is at depth lambda_m at the latest, a child-count fault there
    if the path runs deeper, and every label before it is special.
    """
    q, ell, ctx = g.q, g.ell, g.ctx
    # indexed by branch
    params = structure_params(ell, ctx.p, ctx.n)
    lam = np.array([params.lambda_minus, params.lambda_plus], dtype=np.int16)
    lam_m = int(lam.max())
    report = VerifyReport(ell, ctx.p, ctx.n, periodic=g.periodic_count(), q=q)
    check = report.add
    succ, pper, comp = g.succ, g.pper, g.comp
    indeg = _indegree(succ, ctx.BLOCK)
    two, minus_two, zero = (ctx.from_int(k).index for k in (2, -2, 0))
    special = [two, minus_two, zero] if ell == 2 else [two, minus_two]

    def is_special(x: np.ndarray) -> np.ndarray:
        # a compare per special vertex: np.isin takes 40 times as long
        return np.logical_or.reduce([x == s for s in special])

    # one cycle per component
    in_core = pper == 0
    core = np.flatnonzero(in_core)
    faults = []
    leaving = core[~in_core[succ[core]]]
    if leaving.size:
        v = int(leaving[0])
        faults.append(f"core vertex {v} maps to {succ[v]} of preperiod "
                      f"{pper[succ[v]]}, wanted 0")
    core_preds = _indegree(succ, ctx.BLOCK, core)[core]
    bad = np.flatnonzero(core_preds != 1)
    if bad.size:
        faults.append(f"core vertex {core[bad[0]]} has {core_preds[bad[0]]} "
                      "core predecessors, wanted 1")
    # the peel and pointer jumping need a set closed under succ: add what
    # the core leads to
    verts = core
    if leaving.size:
        closed = in_core.copy()
        new = np.unique(succ[leaving])
        while new.size:
            closed[new] = True
            nxt = np.unique(succ[new])
            new = nxt[~closed[nxt]]
        verts = np.flatnonzero(closed)
    on_cycle = np.zeros(q, dtype=bool)
    on_cycle[verts] = True
    _peel(succ, on_cycle, _indegree(succ, ctx.BLOCK, verts))
    low = _cycle_min(succ, verts)
    cmin = np.full(q, -1, dtype=np.int32)
    cmin[verts] = low
    bad = np.flatnonzero(comp[core] != low[in_core[verts]])
    if bad.size:
        v = int(core[bad[0]])
        faults.append(f"core vertex {v} has comp {comp[v]}, wanted its "
                      f"cycle minimum {cmin[v]}")
    check("one cycle per component", not faults, faults[0] if faults else "")
    del low, verts

    # generic components: one check per comp label on the non-special
    # core, in the order of the label's first vertex, keyed by the cycle
    # minimum recomputed there
    core_rest = core[~is_special(core)]
    # positions are below |core| < 2^31
    first = np.full(q, core_rest.size, dtype=np.int32)
    np.minimum.at(first, np.clip(comp[core_rest], 0, q - 1),
                  np.arange(core_rest.size, dtype=np.int32))
    heads = core_rest[np.sort(first[first < core_rest.size])]
    del core_rest, first

    # the fault table: the first fault of each generic label, keyed
    # (False, label), and of each special tree, keyed (True, its root)
    first_fault: dict[tuple[bool, int], str] = {}

    def note(hits, keys, at, describe):
        # hits index keys and the vertices at
        if not hits.size:
            return
        keys = keys[hits]
        walk = is_special(keys)
        v, root = at[hits[walk]], np.full(np.count_nonzero(walk), -1)
        for _ in range(lam_m + 1):
            found = (root < 0) & ((v == zero) if ell == 2 else
                                  is_special(succ[v]) & ~is_special(v))
            root[found] = v[found]
            v = succ[v]
        for tree, k, at_k in ((False, keys[~walk], hits[~walk]),
                              (True, root, hits[walk])):
            k, first = np.unique(k, return_index=True)
            for key, i in zip(k.tolist(), at_k[first].tolist()):
                first_fault.setdefault((tree, key), describe(i))

    # a generic cycle vertex has ell - 1 tree roots if H >= 1, none if
    # H = 0; the roots over +-2 are counted by name
    on_core_cycle = on_cycle[core]
    cycle = core[on_core_cycle]
    key = cmin[cycle]
    roots = (indeg[core] - core_preds)[on_core_cycle]
    del core, core_preds, on_core_cycle
    want = np.where(lam >= 1, ell - 1, 0)[g.class_branch][g.class_id[key]]
    note(np.flatnonzero((roots != want) & ~is_special(cycle)), key,
         cycle, lambda i: f"cycle vertex {cycle[i]}: {roots[i]} tree roots, "
                          f"wanted {want[i]}")
    del cycle, key, roots
    # a tree vertex has ell children below its height and none at it
    tree = np.flatnonzero(~in_core)
    del in_core
    depth, label = pper[tree], comp[tree]
    height = lam[g.class_branch][g.class_id[np.clip(label, 0, q - 1)]]
    height[is_special(label)] = lam_m
    kids = indeg[tree]
    del indeg
    want = np.where(depth < height, ell, 0)
    bad = (depth > height) | (kids != want)
    if ell == 2:
        bad[tree == minus_two] = False
    note(np.flatnonzero(bad), label, tree,
         lambda i: (f"vertex {tree[i]} at depth {depth[i]}, wanted at "
                    f"most {height[i]}") if depth[i] > height[i] else
                   (f"vertex {tree[i]} at depth {depth[i]} has {kids[i]} "
                    f"tree children, wanted {want[i]}"))
    del bad
    # and inherits comp and pper - 1 from its successor; on a cycle the
    # recomputed minimum stands in for comp
    up = succ[tree]
    up_label = np.where(on_cycle[up], cmin[up], comp[up])
    up_depth = pper[up] + 1
    note(np.flatnonzero((depth != up_depth) | (label != up_label)), up_label,
         tree, lambda i: f"vertex {tree[i]} has preperiod {depth[i]} and "
                         f"comp {label[i]}, wanted {up_depth[i]} and "
                         f"{up_label[i]} from its successor {up[i]}")

    if ell == 2:
        check("edge (2,2)", int(succ[two]) == two, "2 is not fixed")
        check("edge (-2,2)", int(succ[minus_two]) == two,
              "-2 does not map to 2")
        check("edge (0,-2)", int(succ[zero]) == minus_two,
              "0 does not map to -2")
        fault = first_fault.get((True, zero), "")
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
            for r in roots.tolist():
                fault = first_fault.get((True, r), "")
                if not check(f"tree at {r} over {name} complete "
                             f"(height {lam_m - 1})", not fault, fault):
                    break

    for v, k, closes, dv in zip(heads.tolist(), cmin[heads].tolist(),
                                on_cycle[heads].tolist(),
                                g.class_order[g.class_id[heads]].tolist()):
        if not closes:
            check(f"cycle walk from {v} closes", False,
                  "successor walk never returned to its start")
            continue
        fault = first_fault.get((False, k), "")
        check(f"component of {k} (divisor {dv}) trees complete", not fault,
              fault)
    return report


# palette used by the DOT export, indexed by a weight-derived slot
_PALETTE = ("#2e7d32", "#8d6e63", "#c62828", "#7b1fa2", "#1565c0",
            "#283593", "#00838f", "#ef6c00", "#5d4037", "#455a64",
            "#9e9d24", "#ad1457")


def export_dot(g: FuncGraph, out: TextIO,
               component_filter: int | None = None) -> None:
    """Write Graphviz text for the whole graph, or the components whose
    cycle carries the given prime-to-ell divisor, to the text stream out,
    one FieldCtx.BLOCK of vertices at a time: the text of the whole graph
    is never held at once."""
    q = g.q
    keep = None
    if component_filter is not None:
        core_mask = g.pper == 0
        # the prime-to-ell part of each class's order
        d0 = np.array([d // g.ell ** nu(d, g.ell)
                       for d in g.class_order.tolist()])
        on_cycles = g.class_id[core_mask]
        valid = set(d0[np.unique(on_cycles)].tolist())
        if component_filter not in valid:
            raise ValueError(f"unknown divisor filter {component_filter}; "
                             f"cycle divisors present: {sorted(valid)}")
        hit = (d0 == component_filter)[on_cycles]
        keep = np.isin(g.comp, np.unique(g.comp[core_mask][hit]))

    mu = half_order(g.ctx.p, g.ell)

    def color(w: int) -> str:
        slot = round(2 * math.log(w / mu) / math.log(g.ell)) if w > 0 else 0
        return _PALETTE[slot % len(_PALETTE)]

    def blocks():
        """The kept vertices, a block of indices at a time."""
        for lo in range(0, q, g.ctx.BLOCK):
            hi = min(lo + g.ctx.BLOCK, q)
            yield (np.arange(lo, hi) if keep is None
                   else np.flatnonzero(keep[lo:hi]) + lo)

    out.write("digraph chebgraph {\n  node [style=filled];\n")
    for idx in blocks():
        out.write("".join(
            f'  "{i}" [label="{i}", fillcolor="{color(w)}"];\n'
            for i, w in zip(idx.tolist(), g.weight[idx].tolist())))
    for idx in blocks():
        out.write("".join(f'  "{i}" -> "{j}";\n'
                          for i, j in zip(idx.tolist(), g.succ[idx].tolist())))
    out.write("}\n")
