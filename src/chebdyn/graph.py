"""Build and analyze the functional graph of T_ell on F_{p^n}.

The graph lives in flat numpy arrays keyed by the canonical element
index.  Preperiods and periods are found by brute force (in-degree
peeling plus reverse BFS), completely independently of the
multiplicative-order route, so the two can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import cheb_coeffs
from .ffield import (MINUS, PLUS, Branch, FFElem, FieldCtx, alpha_order,
                     factor_int, is_prime, nu, strip_ell)
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

DEFAULT_CAP = 1 << 26


@dataclass
class FuncGraph:
    """Flat successor table over F_{p^n} with per-vertex orbit data.

    succ[i] is the index of T_ell applied to the element with index i;
    pper/per are the brute-force preperiod and eventual cycle length;
    weight is the degree over F_p; divisor holds the order of the lifted
    root and branch which of p^n -+ 1 it divides; comp identifies the
    component by the smallest index on its cycle.
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

    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) CSR view of the reversed edge set."""
        return _predecessors(self.succ, self.q)


def _predecessors(succ: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    counts = np.bincount(succ, minlength=q)
    indptr = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(succ, kind="stable")
    return indptr, order


def _vector_succ(ctx: FieldCtx, ell: int) -> np.ndarray:
    """succ array: T_ell evaluated at every field element at once."""
    p, n, q = ctx.p, ctx.n, ctx.q
    coeffs = cheb_coeffs(ell, p)
    if n == 1:
        idx = np.arange(q, dtype=np.int64)
        acc = np.full(q, coeffs[-1], dtype=np.int64)
        for c in coeffs[-2::-1]:
            acc = (acc * idx + c) % p
        return acc
    C = ctx.coeff_matrix()
    acc = np.zeros((q, n), dtype=np.int64)
    acc[:, 0] = coeffs[-1]
    red = np.array(ctx._red, dtype=np.int64) if n > 1 else None
    for c in coeffs[-2::-1]:
        acc = _mul_pairwise(acc, C, p, red)
        acc[:, 0] = (acc[:, 0] + c) % p
    return ctx.encode_rows(acc)


def _mul_pairwise(A: np.ndarray, B: np.ndarray, p: int,
                  red: np.ndarray) -> np.ndarray:
    """Row-by-row product of two coefficient matrices, reduced."""
    m, n = A.shape
    raw = np.zeros((m, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        col = A[:, i]
        for j in range(n):
            raw[:, i + j] += col * B[:, j]
    raw %= p
    head = raw[:, :n]
    for k in range(n, 2 * n - 1):
        head += raw[:, k: k + 1] * red[k - n][None, :]
    return head % p


def build_graph(ell: int, ctx: FieldCtx, cap: int = DEFAULT_CAP) -> FuncGraph:
    """Enumerate G(ell, p, n): successors by direct evaluation, orbit
    statistics by graph search, weights by Frobenius orbits, divisor
    classes from the order tables."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if ell == ctx.p:
        raise ValueError("ell must differ from the field characteristic")
    q = ctx.q
    if q > cap:
        raise ValueError(f"q = {q} exceeds the enumeration cap {cap}")

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

    pper = np.full(q, -1, dtype=np.int16)
    per = np.zeros(q, dtype=np.int32)
    comp = np.full(q, -1, dtype=np.int32)
    core = np.flatnonzero(alive)
    pper[core] = 0
    seen = np.zeros(q, dtype=bool)
    succ_list = succ.tolist()
    for start in core.tolist():
        if seen[start]:
            continue
        cyc = [start]
        v = succ_list[start]
        while v != start:
            cyc.append(v)
            v = succ_list[v]
        cid = min(cyc)
        for v in cyc:
            seen[v] = True
        per[cyc] = len(cyc)
        comp[cyc] = cid

    # reverse BFS from the core assigns preperiods, periods, components
    indptr, preds = _predecessors(succ, q)
    frontier = core
    dist = 0
    while frontier.size:
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        lens = ends - starts
        if lens.sum() == 0:
            break
        gathered = np.concatenate([preds[s:e] for s, e in zip(starts, ends)])
        parent = np.repeat(frontier, lens)
        fresh = pper[gathered] < 0
        gathered, parent = gathered[fresh], parent[fresh]
        dist += 1
        pper[gathered] = dist
        per[gathered] = per[parent]
        comp[gathered] = comp[parent]
        frontier = gathered
    if (pper < 0).any():
        raise ArithmeticError("reverse BFS missed vertices")

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
                     ords.astype(np.int32), branch.copy(), comp)


def orbit_stats_order(a: FFElem, ell: int,
                      ctx: FieldCtx | None = None) -> tuple[int, int]:
    """(preperiod, period) of a from the order of its lifted root alone.

    No iteration of the map: the preperiod is the ell-valuation of
    ord(alpha) and the period is c of the prime-to-ell part.
    """
    ctx = ctx or a.ctx
    if ell == ctx.p:
        raise ValueError("ell must differ from the field characteristic")
    ordv, _ = alpha_order(a, ctx)
    rho = nu(ordv, ell)
    return rho, c_of_d(ordv // ell ** rho, ell)


def summarize(g: FuncGraph) -> GraphSummary:
    """Group vertices into divisor classes and report observed rows."""
    q, ell = g.q, g.ell
    lam_minus = nu(q - 1, ell)
    lam_plus = nu(q + 1, ell)
    max_side = MINUS if lam_minus >= lam_plus else PLUS

    keys = g.divisor * 2 + g.branch
    uniq, inverse = np.unique(keys, return_inverse=True)
    rows = []
    for ui, key in enumerate(uniq):
        idx = np.flatnonzero(inverse == ui)
        ordv = int(key) // 2
        br: Branch = MINUS if int(key) % 2 == 0 else PLUS
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
            cycles = len(np.unique(g.comp[idx]))
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


def verify_structure(g: FuncGraph) -> VerifyReport:
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

    indptr, preds = g.predecessors()

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
