import dataclasses
import io
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebdyn.cheb import cheb_coeffs
from chebdyn.ffield import FieldCtx, element_degree, make_field
from chebdyn.graph import (_cycle_min, _indegree, _peel, build_graph,
                           export_dot, orbit_stats_order, summarize,
                           verify_structure)
from chebdyn.predict import predict_summary
from structure_reference import (SHAPES, full_succ, functional_graph,
                                 horner_cols, reference_cycle_min,
                                 reference_verify_structure)

# the criterion-05 sweep (ell in {2,3,5,7}, odd p <= 31, p^n <= 2^14),
# which holds G(3,5,4), G(7,3,4) and G(2,13,2), and G(2,3,10)
SWEEP = [(ell, p, n) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
         for n in range(1, 15) if p ** n <= 2 ** 14
         for ell in (2, 3, 5, 7) if ell != p] + [(2, 3, 10)]


def rows_tuple(summary):
    return [(r.divisor_value, r.branch, r.points, r.period, r.preperiod,
             r.weight, r.cycles) for r in summary.rows]


def test_build_graph_g_3_53_1():
    g = build_graph(3, make_field(53, 1))
    assert g.succ[2] == 2 and g.pper[2] == 0 and g.per[2] == 1
    # tree over the fixed point 2: 1 vertex at height 1, 3 at 2, 9 at 3
    comp2 = g.comp == g.comp[2]
    for height, count in ((1, 1), (2, 3), (3, 9)):
        assert int(((g.pper == height) & comp2).sum()) == count


def test_build_graph_g_2_3_1():
    ctx = make_field(3, 1)
    g = build_graph(2, ctx)
    zero, mtwo, two = 0, ctx.from_int(-2).index, 2
    assert g.succ[zero] == mtwo and g.succ[mtwo] == two and g.succ[two] == two
    assert g.pper[zero] == 2


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(3, make_field(3, 1))
    with pytest.raises(ValueError):
        build_graph(4, make_field(5, 1))
    with pytest.raises(ValueError):
        build_graph(2, make_field(5, 3), cap=100)


def check_succ_and_weight_by_ffelem(g):
    """At 200 vertices, succ equals T_ell by scalar Horner over FFElem,
    and the weight the orbit length of powering by p."""
    ctx, ell = g.ctx, g.ell
    coeffs = [ctx.from_int(c) for c in cheb_coeffs(ell, ctx.p)]
    for i in random.Random(ctx.q).sample(range(ctx.q), min(200, ctx.q)):
        x, acc = ctx.decode(i), coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * x + c
        assert g.succ[i] == acc.index, (ell, ctx.p, ctx.n, i)
        assert g.weight[i] == element_degree(x), (ell, ctx.p, ctx.n, i)


def test_succ_and_weight_equal_full_evaluation():
    # successors filled round each Frobenius orbit equal T_ell evaluated
    # at every vertex, and both agree with FFElem arithmetic
    for ell, p, n in SWEEP:
        ctx = make_field(p, n)
        g = build_graph(ell, ctx)
        assert np.array_equal(g.succ, full_succ(ctx, ell)), (ell, p, n)
        check_succ_and_weight_by_ffelem(g)


@pytest.mark.parametrize("p,n", ((1009, 1), (3, 4), (5, 3), (7, 2)))
def test_ladder_successors_equal_horner(p, n):
    # T_ell by the pair ladder equals Horner over its coefficients at
    # every column, for ell a power of two, odd, and both, and the
    # successor tables built on it are byte-equal to Horner's at every
    # element, and to FFElem arithmetic at sampled vertices
    ctx = make_field(p, n)
    x = ctx.coeff_cols(np.arange(ctx.q))
    for ell in (*range(1, 34), 48, 101, 1021):
        want = horner_cols(ctx, cheb_coeffs(ell, p), x)
        assert np.array_equal(ctx.ladder_cols(ell, x), want), ell
    for ell in (11, 13, 1021):
        if ell != p:
            g = build_graph(ell, ctx)
            assert g.succ.tobytes() == full_succ(ctx, ell).astype(
                np.int32).tobytes(), ell
            if ell < 100:
                check_succ_and_weight_by_ffelem(g)


@pytest.mark.parametrize("ell,p,n,bound", ((2, 3, 12, 29.2),
                                           (3, 145007, 1, 31.9)))
def test_build_graph_memory_per_vertex(ell, p, n, bound):
    # the build's traced peak above the field's cached order tables and
    # Frobenius map: 26.7 bytes per vertex measured at G(2,3,12) and 29.1
    # at G(3, 145007, 1), with the trees labelled by replaying the peel's
    # int32 rounds (32.9 and 35.3 with level sweeps and the cycle lengths
    # counted by a q-long int64 np.bincount); each bound leaves 9% above
    # its measurement, as 36 did over 32.9.  And the int32 index arrays
    ctx = make_field(p, n)
    ctx.alpha_order_tables()
    if n > 1:
        assert ctx.frobenius_indices().dtype == np.int32
    tracemalloc.start()
    try:
        g = build_graph(ell, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ctx.q <= bound, peak / ctx.q
    assert g.succ.dtype == np.int32


@pytest.mark.parametrize("shape", SHAPES)
def test_indegree_equals_bincount(shape):
    # over every vertex and over verts, with blocks that split them
    # unevenly and one block for all
    succ, verts = functional_graph(shape, 5000, 7)
    for block in (1000, 1 << 15):
        got = _indegree(succ, block)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.bincount(succ, minlength=succ.size))
        got = _indegree(succ, block, verts)
        assert np.array_equal(got, np.bincount(succ[verts],
                                               minlength=succ.size))


@pytest.mark.parametrize("shape", SHAPES)
def test_peel_rounds_order_the_trees(shape):
    # the premise of build_graph's replay: each stripped vertex lies in
    # exactly one round, and its successor in a later round or alive; over
    # verts, where a rho has tails, and over every index, where those
    # outside verts hang off it
    succ, verts = functional_graph(shape, 5000, 7)
    for within in (verts, None):
        alive = np.zeros(succ.size, dtype=bool)
        alive[verts if within is not None else slice(None)] = True
        start = alive.copy()
        rounds = _peel(succ, alive, _indegree(succ, 1000, within))
        seen = np.zeros(succ.size, dtype=np.int64)
        when = np.full(succ.size, len(rounds))
        for k, level in enumerate(rounds):
            assert level.dtype == np.int32 and level.size
            np.add.at(seen, level, 1)
            when[level] = k
        assert np.array_equal(seen, start & ~alive), shape
        stripped = np.flatnonzero(seen)
        assert (when[succ[stripped]] > when[stripped]).all(), shape


@pytest.mark.parametrize("ell,p,n,bound", ((2, 3, 12, 38.5),
                                           (3, 145007, 1, 31.0)))
def test_verify_structure_memory_per_vertex(ell, p, n, bound):
    # the structure check's traced peak above the built graph, 37.4 bytes
    # per vertex measured at G(2,3,12) and 30.1 at G(3, 145007, 1) with
    # the in-degrees counted as int32 a block at a time and the first
    # core position of each label int32 (36.3 at G(3, 145007, 1) with
    # those positions int64; 40.2 and 42.5 with np.bincount's intp copy
    # and int64 counts; 62.9 at G(2,3,12) with a level-by-level search of
    # the special trees); each bound leaves 3% above its measurement
    g = build_graph(ell, make_field(p, n))
    tracemalloc.start()
    try:
        rep = verify_structure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak / g.q <= bound, peak / g.q


def test_summarize_memory_per_vertex():
    # G(3, 145007, 1): summarize's traced peak above the built graph, 3.7
    # bytes per vertex measured, is the buffers of one block (0.54 MB):
    # the classes are reduced and the cycle minima found a block at a
    # time.  A q-sized index range and mask for the minima peaked at 5.1
    # bytes per vertex, grouping by an argsort of an int32 (order, branch)
    # key at 16.1, and by a radix argsort of the ids at 12.1
    g = build_graph(3, make_field(145007, 1))
    tracemalloc.start()
    try:
        summarize(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.q <= 4, peak / g.q


# sizes one past, at and one short of a power of two (17, 1025, 4097,
# 4096, 4095), and 16387 = 4^7 + 3 and 20480, past a power of four, where
# the contraction needs one more level before its jump spans the set
CYCLE_MIN_SIZES = (1, 2, 3, 5, 17, 1025, 4095, 4096, 4097, 16387, 20480)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=12, deadline=None)
@given(size=st.sampled_from(CYCLE_MIN_SIZES), seed=st.integers(0, 2 ** 32 - 1))
@example(size=17, seed=0)
@example(size=4097, seed=0)
@example(size=20480, seed=0)
def test_cycle_min_matches_cycle_walk(shape, size, seed):
    # monotone cycles and fixed points keep nearly every vertex at each
    # contraction, so only the growing jump ends it; a rho puts tails in
    # verts, as verify_structure does on a corrupted core
    succ, verts = functional_graph(shape, size, seed)
    got = _cycle_min(succ, verts)
    assert np.array_equal(got, reference_cycle_min(succ, verts)), (shape, size)


def test_frobenius_indices_refused_above_the_cap():
    ctx = make_field(3, 16)  # q = 43,046,721 > TABLE_CAP
    with pytest.raises(ValueError, match=f"cap {FieldCtx.TABLE_CAP}"):
        ctx.frobenius_indices()


def test_orbit_stats_order_examples():
    ctx = make_field(53, 1)
    assert orbit_stats_order(ctx.from_int(2), 3) == (0, 1)
    ctx3 = make_field(3, 1)
    assert orbit_stats_order(ctx3.from_int(0), 2) == (2, 1)
    g = build_graph(3, ctx)
    for i in range(53):
        if g.divisor[i] == 52:
            assert orbit_stats_order(ctx.decode(i), 3) == (0, 6)


def test_summarize_matches_figure_g_3_53_1():
    s = summarize(build_graph(3, make_field(53, 1)))
    assert rows_tuple(s) == [
        (4, "minus", 1, 1, 0, 1, 1), (13, "minus", 6, 3, 0, 1, 2),
        (26, "minus", 6, 3, 0, 1, 2), (52, "minus", 12, 6, 0, 1, 2),
        (1, "plus", 1, 1, 0, 1, 1), (3, "plus", 1, None, 1, 1, None),
        (9, "plus", 3, None, 2, 1, None), (27, "plus", 9, None, 3, 1, None),
        (2, "plus", 1, 1, 0, 1, 1), (6, "plus", 1, None, 1, 1, None),
        (18, "plus", 3, None, 2, 1, None), (54, "plus", 9, None, 3, 1, None),
    ]


def test_summarize_matches_figure_g_2_3_4():
    s = summarize(build_graph(2, make_field(3, 4)))
    assert rows_tuple(s) == [
        (1, "minus", 1, 1, 0, 1, 1), (2, "minus", 1, None, 1, 1, None),
        (4, "minus", 1, None, 2, 1, None), (8, "minus", 2, None, 3, 2, None),
        (16, "minus", 4, None, 4, 4, None),
        (5, "minus", 2, 2, 0, 2, 1), (10, "minus", 2, None, 1, 2, None),
        (20, "minus", 4, None, 2, 4, None), (40, "minus", 8, None, 3, 4, None),
        (80, "minus", 16, None, 4, 4, None),
        (41, "plus", 20, 10, 0, 4, 2), (82, "plus", 20, None, 1, 4, None),
    ]


@pytest.mark.parametrize("name", ["pper", "weight", "per"])
def test_summarize_refuses_one_odd_vertex_in_a_class(name):
    # G(2, 3, 4): 41 on the plus side is a periodic class of 20 vertices,
    # 80 on the minus side a tree class of 16; per is compared on periodic
    # classes only.  One vertex at a time is changed, the class's smallest,
    # a middle and its largest index.
    g = build_graph(2, make_field(3, 4))
    classes = [(41, 1)] if name == "per" else [(41, 1), (80, 0)]
    for order, side in classes:
        verts = np.flatnonzero((g.divisor == order) & (g.branch == side))
        assert verts.size >= 16
        for v in (verts[0], verts[verts.size // 2], verts[-1]):
            arr = getattr(g, name).copy()
            arr[v] += 1
            with pytest.raises(ArithmeticError):
                summarize(dataclasses.replace(g, **{name: arr}))


def test_summarize_refuses_an_order_outside_its_branch():
    # G(3, 53, 1): q - 1 = 52, q + 1 = 54
    # the faults go into the class tables, which summarize reads
    g = build_graph(3, make_field(53, 1))
    class_order = g.class_order.copy()
    class_order[class_order == 13] = 7
    with pytest.raises(ArithmeticError, match=r"order 7 .* q - 1 = 52"):
        summarize(dataclasses.replace(g, class_order=class_order))
    class_branch = g.class_branch.copy()
    class_branch[g.class_order == 27] = 0
    with pytest.raises(ArithmeticError, match=r"order 27 .* q - 1 = 52"):
        summarize(dataclasses.replace(g, class_branch=class_branch))


def test_summarize_equals_predict_on_grid():
    for (ell, p, n) in ((2, 5, 2), (2, 7, 2), (3, 7, 2), (5, 3, 2),
                        (7, 3, 2), (3, 11, 1), (2, 31, 1), (5, 13, 1)):
        s = summarize(build_graph(ell, make_field(p, n)))
        ps = predict_summary(ell, p, n)
        assert s.rows == ps.rows, (ell, p, n)


def test_pper_per_minimality():
    # (pper, per) is the least pair with succ^(rho+pi) = succ^rho
    # G(2, 257, 1) has trees 8 deep
    for (ell, p, n) in ((3, 53, 1), (2, 3, 4), (5, 7, 2), (2, 257, 1)):
        g = build_graph(ell, make_field(p, n))
        succ = g.succ.tolist()
        for i in range(g.q):
            rho, pi = int(g.pper[i]), int(g.per[i])
            v = i
            for _ in range(rho):
                v = succ[v]
            w = v
            for _ in range(pi):
                w = succ[w]
            assert w == v
            if rho > 0:
                # one step earlier must not be on the cycle yet
                u = i
                for _ in range(rho - 1):
                    u = succ[u]
                w = u
                for _ in range(pi):
                    w = succ[w]
                assert w != u
            if pi > 1:
                w = v
                for _ in range(pi - 1):
                    w = succ[w]
                assert w != v
            # comp is the smallest index on the cycle that i reaches
            cyc = [v]
            for _ in range(pi - 1):
                cyc.append(succ[cyc[-1]])
            assert int(g.comp[i]) == min(cyc)


@pytest.mark.parametrize("p,depth", ((12289, 12), (65537, 16)))
def test_deep_trees(p, depth):
    # trees 12 and 16 deep, where SWEEP's deepest are 6 (G(2, 31, 2)):
    # the replay runs a round per level
    g = build_graph(2, make_field(p, 1))
    assert int(g.pper.max()) == depth
    assert summarize(g).rows == predict_summary(2, p, 1).rows
    assert verify_structure(g).ok


def test_summarize_equals_predict_full_sweep():
    # ell in {2,3,5}, p <= 50, n <= 3, p^n <= 2^14
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for ell in (2, 3, 5):
        for p in primes:
            if p == ell:
                continue
            for n in (1, 2, 3):
                if p ** n > 2 ** 14:
                    continue
                s = summarize(build_graph(ell, make_field(p, n)))
                assert s.rows == predict_summary(ell, p, n).rows, (ell, p, n)


def test_medium_scale_field():
    # 59049 vertices: exercises degree-10 reduction rows and long walks
    g = build_graph(2, make_field(3, 10))
    s = summarize(g)
    assert s.total_points() == 3 ** 10
    assert s.rows == predict_summary(2, 3, 10).rows
    assert verify_structure(g).ok


def test_periodic_count_law():
    for (ell, p, n) in ((2, 3, 4), (3, 53, 1), (5, 7, 2), (7, 11, 1)):
        g = build_graph(ell, make_field(p, n))
        q = g.q
        om, op_ = q - 1, q + 1
        while om % ell == 0:
            om //= ell
        while op_ % ell == 0:
            op_ //= ell
        assert g.periodic_count() == (om + op_) // 2


def test_indegree_law():
    # in-degree is 0 or ell away from the special vertices; cycle vertices
    # without trees have in-degree 1
    for (ell, p, n) in ((3, 53, 1), (2, 3, 4), (5, 7, 2)):
        ctx = make_field(p, n)
        g = build_graph(ell, ctx)
        indeg = np.bincount(g.succ, minlength=g.q)
        two, mtwo = ctx.from_int(2).index, ctx.from_int(-2).index
        lam = {0: 0, 1: 0}
        qm, qp = g.q - 1, g.q + 1
        while qm % ell == 0:
            qm //= ell
            lam[0] += 1
        while qp % ell == 0:
            qp //= ell
            lam[1] += 1
        lam_m = max(lam.values())
        for i in range(g.q):
            d = int(indeg[i])
            if ell % 2 and i in (two, mtwo):
                assert d == 1 + (ell - 1) // 2 * (1 if lam_m >= 1 else 0)
            elif ell == 2 and i == two:
                assert d == 2
            elif ell == 2 and i == mtwo:
                assert d == 1
            elif g.pper[i] == 0:
                side = int(g.branch[i])
                assert d == (ell if lam[side] >= 1 else 1)
            else:
                assert d in (0, ell), (ell, p, n, i, d)


def test_verify_structure_passes():
    for (ell, p, n) in ((3, 53, 1), (2, 3, 4), (2, 3, 1), (5, 7, 2),
                        (3, 5, 2), (2, 29, 1), (7, 3, 2)):
        rep = verify_structure(build_graph(ell, make_field(p, n)))
        assert rep.ok, (ell, p, n, rep.first_failure)


def test_verify_structure_catches_corruption():
    ctx = make_field(53, 1)
    g = build_graph(3, ctx)
    g.succ = g.succ.copy()
    g.succ[10] = g.succ[10 - 1]  # break one edge
    rep = verify_structure(g)
    assert not rep.ok and rep.first_failure


def _checks(rep):
    return [(name, ok) for name, ok, _ in rep.checks]


def test_verify_structure_matches_reference_on_sweep():
    for ell, p, n in SWEEP:
        g = build_graph(ell, make_field(p, n))
        rep, ref = verify_structure(g), reference_verify_structure(g)
        assert rep.ok and _checks(rep) == _checks(ref), (ell, p, n)


def _special_comps(g):
    ctx = g.ctx
    return {int(g.comp[ctx.from_int(k).index])
            for k in ((2, -2, 0) if g.ell == 2 else (2, -2))}


def _generic(g):
    return ~np.isin(g.comp, list(_special_comps(g)))


def _cycle_from(g, c):
    cyc = [c]
    while int(g.succ[cyc[-1]]) != c:
        cyc.append(int(g.succ[cyc[-1]]))
    return cyc


def _move_tree_edge(g):
    v = int(np.flatnonzero(_generic(g) & (g.pper >= 2))[0])
    targets = np.flatnonzero(_generic(g) & (g.pper == g.pper[v] - 1)
                             & (np.arange(g.q) != g.succ[v]))
    g.succ[v] = targets[-1]


def _give_leaf_a_child(g):
    indeg = np.bincount(g.succ, minlength=g.q)
    leaves = np.flatnonzero(_generic(g) & (g.pper >= 1) & (indeg == 0))
    g.succ[leaves[-1]] = leaves[0]


def _split_cycle(g):
    heads = np.flatnonzero(_generic(g) & (g.pper == 0)
                           & (g.comp == np.arange(g.q)) & (g.per >= 4))
    cyc = _cycle_from(g, int(heads[0]))
    k = len(cyc) // 2
    g.succ[cyc[k - 1]] = cyc[0]
    g.succ[cyc[-1]] = cyc[k]


def _relabel_cycle_vertex(g):
    core = np.flatnonzero(_generic(g) & (g.pper == 0))
    v = int(core[g.comp[core] != core][-1])
    g.comp[v] = min(int(c) for c in g.comp[core] if c != g.comp[v])


def _lift_cycle_vertex(g):
    core = np.flatnonzero(_generic(g) & (g.pper == 0))
    g.pper[core[g.comp[core] != core][0]] = 1


def _sink_tree_root(g):
    g.pper[np.flatnonzero(_generic(g) & (g.pper == 1))[0]] = 0


def _break_special_edge(g):
    ctx = g.ctx
    special = ctx.from_int(0 if g.ell == 2 else 2).index
    g.succ[special] = np.flatnonzero(_generic(g) & (g.pper == 0))[0]


# corruptions of the trees over +-2, and of 0's tree when ell = 2

def _special_tree(g):
    return ~_generic(g) & (g.pper >= (2 if g.ell == 2 else 1))


def _special_leaves(g):
    indeg = np.bincount(g.succ, minlength=g.q)
    return np.flatnonzero(_special_tree(g) & (indeg == 0))


def _move_special_tree_edge(g):
    v = int(np.flatnonzero(_special_tree(g)
                           & (g.pper >= (4 if g.ell == 2 else 2)))[0])
    targets = np.flatnonzero(_special_tree(g) & (g.pper == g.pper[v] - 1)
                             & (np.arange(g.q) != g.succ[v]))
    g.succ[v] = targets[-1]


def _give_special_leaf_a_child(g):
    leaves = _special_leaves(g)
    g.succ[leaves[-1]] = leaves[0]


def _hang_chain_under_special_leaf(g):
    # for odd ell the chain's last vertex lies lambda_m + 2 steps of succ
    # from its tree's root, past the structure check's walk
    leaves = _special_leaves(g)
    chain = leaves[[0, -1, -2, -3]]
    g.succ[chain[1:]] = chain[:-1]


def _special_leaf_to_generic_tree(g):
    leaf = _special_leaves(g)[0]
    g.succ[leaf] = np.flatnonzero(_generic(g)
                                  & (g.pper == g.pper[leaf] - 1))[0]


def _generic_leaf_to_special_tree(g):
    indeg = np.bincount(g.succ, minlength=g.q)
    leaf = np.flatnonzero(_generic(g) & (g.pper >= 1) & (indeg == 0))[-1]
    g.succ[leaf] = np.flatnonzero(_special_tree(g) & (indeg > 0))[-1]


def _move_root_of_two_onto_minus_two(g):
    # when ell = 2 the root of 2 is -2 itself, which becomes a fixed point
    ctx = g.ctx
    two, minus_two = ctx.from_int(2).index, ctx.from_int(-2).index
    roots = np.flatnonzero(g.succ == two)
    g.succ[roots[roots != two][0]] = minus_two


CORRUPTIONS = {f.__name__[1:]: f for f in (
    _move_tree_edge, _give_leaf_a_child, _split_cycle, _relabel_cycle_vertex,
    _lift_cycle_vertex, _sink_tree_root, _break_special_edge)}
SPECIAL_CORRUPTIONS = {f.__name__[1:]: f for f in (
    _move_special_tree_edge, _give_special_leaf_a_child,
    _hang_chain_under_special_leaf, _special_leaf_to_generic_tree,
    _generic_leaf_to_special_tree, _move_root_of_two_onto_minus_two)}
# lambda_m = 3 at (2, 41) gives 0 two leaf children, nothing two deep
# below it and two special leaves in all; lambda_m = 1 at (7, 113)
# makes every special tree vertex a leaf
SPECIAL_CASES = [(kind, ell, p) for kind in sorted(SPECIAL_CORRUPTIONS)
                 for ell, p in ((2, 81), (2, 41), (2, 97), (3, 73),
                                (3, 109), (5, 101), (7, 113))
                 if (kind, ell, p) not in {
                     ("move_special_tree_edge", 2, 41),
                     ("move_special_tree_edge", 7, 113),
                     ("hang_chain_under_special_leaf", 2, 41),
                     ("generic_leaf_to_special_tree", 7, 113)}]


def corrupted(kind, ell, p):
    """G(ell, p, 1), or G(2, 3, 4) for p = 81, with the named corruption
    made to copies of its arrays."""
    ctx = make_field(3, 4) if p == 81 else make_field(p, 1)
    g = build_graph(ell, ctx)
    g = dataclasses.replace(g, succ=g.succ.copy(), pper=g.pper.copy(),
                            comp=g.comp.copy())
    {**CORRUPTIONS, **SPECIAL_CORRUPTIONS}[kind](g)
    return g


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@pytest.mark.parametrize("ell,p", [(2, 81), (2, 41), (3, 73), (5, 101)])
def test_verify_structure_corruptions_match_reference(kind, ell, p):
    g = corrupted(kind, ell, p)
    rep = verify_structure(g)
    assert not rep.ok and rep.first_failure
    assert _checks(rep) == _checks(reference_verify_structure(g))


@pytest.mark.parametrize("kind,ell,p", SPECIAL_CASES)
def test_verify_structure_special_corruptions_match_reference(kind, ell, p):
    test_verify_structure_corruptions_match_reference(kind, ell, p)


def test_verify_structure_checks_labels_the_reference_trusted():
    # labels away from the cycles were never read by the vertex-by-vertex
    # check; the array check derives depths from them, so it checks them,
    # in generic trees and in the trees over the special vertices
    for ell, p in ((2, 41), (3, 73)):
        g = build_graph(ell, make_field(p, 1))
        for deep in (np.flatnonzero(_generic(g) & (g.pper >= 2))[0],
                     np.flatnonzero(~_generic(g) & (g.pper >= 2))[-1]):
            for field, value in (("pper", g.pper[deep] + 1),
                                 ("comp", g.comp[deep] + 1)):
                arr = getattr(g, field).copy()
                arr[deep] = value
                bad = dataclasses.replace(g, **{field: arr})
                assert reference_verify_structure(bad).ok
                rep = verify_structure(bad)
                assert not rep.ok, (ell, p, deep, field)
                assert f"vertex {deep} " in rep.first_failure


def test_verify_structure_keeps_labels_apart_from_special_roots():
    # a generic tree vertex relabelled with the index of a root of 2:
    # only its own component fails, and the tree over that root, whose
    # check reads faults keyed by the same index, stays whole
    g = build_graph(5, make_field(101, 1))
    root = int(np.flatnonzero((g.succ == 2) & (np.arange(g.q) != 2))[0])
    v = int(np.flatnonzero(_generic(g) & (g.pper >= 1))[0])
    comp = g.comp.copy()
    comp[v] = root
    rep = verify_structure(dataclasses.replace(g, comp=comp))
    failed = [(name, detail) for name, ok, detail in rep.checks if not ok]
    assert len(failed) == 1 and f"vertex {v} " in failed[0][1], failed
    assert failed[0][0].startswith(f"component of {g.comp[v]} "), failed


def dot_text(g, component_filter=None) -> str:
    out = io.StringIO()
    export_dot(g, out, component_filter)
    return out.getvalue()


def test_export_dot_f3():
    g = build_graph(2, make_field(3, 1))
    dot = dot_text(g)
    assert dot.count("label=") == 3
    for edge in ('"0" -> "1"', '"1" -> "2"', '"2" -> "2"'):
        assert edge in dot


def test_export_dot_component_filter():
    # the divisor-15 component of G(2,29,1): a 4-cycle with one leaf each
    g = build_graph(2, make_field(29, 1))
    dot = dot_text(g, 15)
    nodes = [ln for ln in dot.splitlines() if "label=" in ln]
    edges = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(nodes) == 8 and len(edges) == 8
    with pytest.raises(ValueError):
        dot_text(g, 999)


def test_export_dot_node_count_unfiltered():
    g = build_graph(2, make_field(7, 2))
    dot = dot_text(g)
    assert dot.count("label=") == 49


def test_export_dot_deterministic():
    g = build_graph(2, make_field(13, 1))
    assert dot_text(g) == dot_text(g)


def test_export_dot_memory_does_not_grow_with_q(monkeypatch):
    # the DOT text goes out a block at a time, so the export's traced peak
    # is one block's, at ten times the vertices; small blocks keep it fast
    graphs = [build_graph(3, make_field(p, 1)) for p in (2003, 20011)]
    monkeypatch.setattr(FieldCtx, "BLOCK", 1 << 8)
    peaks = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for g in graphs:
            tracemalloc.start()
            try:
                export_dot(g, sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
