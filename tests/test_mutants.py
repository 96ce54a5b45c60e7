"""Committed mutants: each one is a small fault that some test must catch.

A mutant is a whole replacement of one package function, compiled from
that function's own source with one named edit and applied with
monkeypatch to every binding of the function in chebdyn, so the package
source is never touched and no caller that imported it by name keeps
the original; the edit must match the source exactly once, so a mutant
cannot silently stop applying when the code moves.  Each mutant names
its detectors, the smallest checks that kill it: each check passes on
the package and fails (an AssertionError, or the package's own
ArithmeticError) on the mutant.  After DeMillo,
Lipton and Sayward, "Hints on test data selection: help for the
practicing programmer", IEEE Computer 11(4), 1978.
"""

import __future__
import inspect
import random
import sys
import textwrap

import numpy as np
import pytest

import test_ffield
import test_graph
import test_polys
from chebdyn import factor, ffield, graph, polys, verify
from chebdyn.ffield import FieldCtx, make_field
from order_reference import walk_order_tables
from structure_reference import (full_succ, functional_graph,
                                 reference_cycle_min,
                                 reference_verify_structure)


def mutant(func, edits):
    """func recompiled from its source with each (old, new) edit made."""
    src = textwrap.dedent(inspect.getsource(func))
    for old, new in edits:
        assert src.count(old) == 1, (func.__qualname__, old)
        src = src.replace(old, new)
    code = compile(src, inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = dict(func.__globals__)
    exec(code, namespace)
    return namespace[func.__name__]


# -- detectors ---------------------------------------------------------------

def succ_equals_full_evaluation():
    """Successors round the Frobenius orbits against T_ell at every
    element, on fresh fields with orbits of length 2, 3 and 4."""
    for ell, p, n in ((2, 3, 4), (3, 5, 3), (5, 7, 2)):
        ctx = make_field.__wrapped__(p, n)
        got = graph.build_graph(ell, ctx).succ
        assert np.array_equal(got, full_succ(ctx, ell)), (ell, p, n)


def succ_equals_ffelem_horner():
    """Successors against T_ell by scalar Horner over FFElem at sampled
    vertices, on fresh fields of degree 3 and 4, whose column products
    fold back through two and three reduction rows."""
    for ell, p, n in ((2, 3, 4), (3, 5, 3)):
        test_graph.check_succ_and_weight_by_ffelem(
            graph.build_graph(ell, make_field.__wrapped__(p, n)))


def order_tables_equal_gcd_formula():
    """The order tables against m // gcd(e, m) on the same walk, at a
    field whose walk runs three blocks a side."""
    ctx = make_field.__wrapped__(145007, 1)
    ords, branch = test_ffield.order_tables(ctx)
    want_ords, want_branch = walk_order_tables(ctx)
    assert ords.tobytes() == want_ords.tobytes()
    assert branch.tobytes() == want_branch.tobytes()


def cycle_min_equals_cycle_walk():
    """_cycle_min against the sequential walk: a monotone cycle one past
    a power of two, a long cycle and a rho."""
    for shape, size in (("increasing", 17), ("long_cycle", 20480),
                        ("rho", 4097)):
        succ, verts = functional_graph(shape, size, 0)
        got = graph._cycle_min(succ, verts)
        assert np.array_equal(got, reference_cycle_min(succ, verts)), (
            shape, size)


def tree_labels_equal_orbit_walk():
    """pper, per and comp against each vertex's own successor walk on
    G(2, 257, 1), whose trees run 8 deep: the preperiod is where the walk
    first repeats a vertex, the period and component the length and least
    index of the cycle it repeats."""
    g = graph.build_graph(2, make_field(257, 1))
    succ = g.succ.tolist()
    for v in range(g.q):
        seen, path = {}, []
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = succ[v]
        cycle = path[seen[v]:]
        want = (seen[v], len(cycle), min(cycle))
        got = (int(g.pper[path[0]]), int(g.per[path[0]]),
               int(g.comp[path[0]]))
        assert got == want, (path[0], got, want)


def special_trees_pass_at_f53():
    """G(3, 53, 1) passes the structure check: its trees over +-2 have
    the height lambda_m = lambda_+ = 3, and +-2 lie on the minus side,
    where lambda_- = 0."""
    g = graph.build_graph(3, make_field(53, 1))
    assert graph.verify_structure(g).ok


def special_corruptions_match_reference():
    """The (name, ok) checks of every corruption of a special tree equal
    the vertex-by-vertex reference's."""
    for kind, ell, p in test_graph.SPECIAL_CASES:
        g = test_graph.corrupted(kind, ell, p)
        got = test_graph._checks(graph.verify_structure(g))
        assert got == test_graph._checks(reference_verify_structure(g)), (
            kind, ell, p)


trace_walk_matches_the_ladder = test_ffield.test_trace_walk_matches_the_ladder


def ddf_counts_two_of_each_degree():
    """distinct_degree_counts of two irreducibles of one degree k, for
    k = 1..12 at p = 3 and 7: no node cuts them to one factor, and at
    k >= 2 the tree's labels reach k only with all J blocks."""
    for p in (3, 7):
        test_polys.test_ddf_two_irreducibles_of_one_degree(p)


def ddf_counts_two_degrees_split_at_the_root():
    """Two irreducibles of degree 2 and two of degree 7, then 3 and 8, at
    p = 3: the root's gcd parts the two degrees, so the right half's
    polynomial must lose the left half's factors."""
    test_polys.test_ddf_two_degrees_split_at_the_root(3)


def ddf_counts_two_degrees_in_one_node():
    """Two irreducibles of each of two degrees a < b <= 2a, at p = 3 and
    7, against sympy: a node holding both fails the equal-degree test at
    every candidate, and b = 2a passes V_(2 lo) at lo = a."""
    for p in (3, 7):
        test_polys.test_ddf_two_degrees_in_one_node_match_sympy(p)


ddf_equal_degree_divides_by_divisors_only = (
    test_polys.test_ddf_equal_degree_test_divides_by_divisors_of_d_only)


moduli_are_pinned = test_ffield.test_make_field_moduli_are_pinned


def stacked_patterns_equal_one_t():
    """Every t of G(3, 13, 4) and G(2, 29, 3) in one stack, against each
    t alone: one row, shift 0, so no Q and no neighbour.  At degree 8 the
    rows that split into linear and quadratic factors make their first
    block product 0, while rows with two quartic factors need both
    blocks."""
    for ell, p, n in ((3, 13, 4), (2, 29, 3)):
        got = list(factor.factor_patterns_actual(ell, p, n, range(p)))
        want = [factor.factor_pattern_actual(ell, p, n, t) for t in range(p)]
        assert got == want, (ell, p, n)


def patterns_equal_closed_form():
    """Every t of G(3, 13, 2) and G(2, 29, 3) by factoring against the
    closed form: in each field T_ell^n - t is not squarefree at t = +-2."""
    for ell, p, n in ((3, 13, 2), (2, 29, 3)):
        got = list(factor.factor_patterns_actual(ell, p, n, range(p)))
        want = [factor.factor_pattern_predicted(ell, p, n, t)
                for t in range(p)]
        assert got == want, (ell, p, n)


def tree_product_equals_one_at_a_time():
    """A stack of three residues, then five, by the pairwise tree against
    one mulmod at a time: the odd term waits a level."""
    rng = random.Random(3)
    for count in (3, 5):
        test_polys.check_tree_product(9, 31, (0, 4), count, rng)


def kernel_rows_equal_powers_of_x():
    """The rows R_j = x^(d+j) mod f at d = 11 (blocks of 4, the last of
    3) and d = 40 (blocks of 7), whole and in two limbs."""
    rng = random.Random(4)
    for d in (11, 40):
        for p in (31, 10 ** 9 + 7):
            test_polys.check_kernel_rows(
                [rng.randrange(p) for _ in range(d)] + [1], p)


def x_power_equals_powering():
    """x^e from its monomial head against powering, at e = 47 and d = 10,
    whose 4-bit prefix 11 is past d, and at d = 9 and e = p, whole and
    in two limbs, with a shifted row."""
    rng = random.Random(5)
    test_polys.check_x_power(10, 47, (0, 5), 47, rng)
    for p in (31, 10 ** 9 + 7):
        test_polys.check_x_power(9, p, (0, 5), p, rng)


def rfft_product_exact():
    """The rfft engine against the exact convolution of two stacks of
    length FFT_LENGTH + 1, whole residues and in limbs."""
    rng = random.Random(6)
    m = polys.FFT_LENGTH + 1
    for p in (3, 10 ** 6 + 3):
        a, b = ([[rng.randrange(p) for _ in range(m)] for _ in range(2)]
                for _ in range(2))
        want = [(np.convolve(np.array(x, dtype=object),
                             np.array(y, dtype=object)) % p).tolist()
                for x, y in zip(a, b)]
        got = polys._mod(polys._product(np.array(a, dtype=np.float64),
                                        np.array(b, dtype=np.float64), p), p)
        assert got.tolist() == want, p


def mul_equals_schoolbook():
    """mul against the double loop at full slots, (p - 1)^2 at every
    term, over lengths 1 to 40 and at 300: at each p two such terms
    already pass the width of one, and at 300 past p = 3 the product
    spans MUL_BYTES_BITS and goes through bytes."""
    for p in (3, 257, 65521):
        for n in (*range(1, 41), 300):
            full = [p - 1] * n
            assert polys.mul(full, full, p) == test_polys._schoolbook(
                full, full, p), (p, n)


def alpha_order_ignores_walk_tables():
    """alpha_order and orbit_stats_order at every element of F_{5^2} and
    F_{3^4}, after build_graph and with one class order corrupted in the
    walk tables, against a fresh context's."""
    for ell, p, n in ((3, 5, 2), (2, 3, 4)):
        test_ffield.test_closed_form_route_ignores_the_walk_tables(ell, p, n)


def orbit_stats_ignore_walk_tables():
    """graph.orbit_stats_order alone at every element of F_{3^4}, after
    build_graph and with one class order corrupted in the walk tables,
    against a fresh context's: the order it reads comes through graph's
    own binding of alpha_order."""
    ell = 2
    fresh, ctx = (make_field.__wrapped__(3, 4) for _ in range(2))
    graph.build_graph(ell, ctx)
    ids, order, branch = ctx._cache["alpha"]
    bad = order.copy()
    bad[ids[5]] = order[ids[5]] * ell
    ctx._cache["alpha"] = (ids, bad, branch)
    for i in range(ctx.q):
        assert (graph.orbit_stats_order(ctx.decode(i), ell)
                == graph.orbit_stats_order(fresh.decode(i), ell)), i


def table_patterns_equal_actual():
    """verify's pattern check passes on G(3, 53, 1), where each t's closed
    form comes from its class in the order tables; the assertion's
    message is the check's detail, which names the first differing t."""
    rep = verify.verify_instance(3, 53, 1)
    (ok, detail), = [(ok, detail) for name, ok, detail in rep.checks
                     if name.startswith("factor patterns")]
    assert ok, detail


def divmod_equals_gf_div():
    """divmod_ and rem against sympy's gf_div at p = 1000003, whose
    divisors of degree 32 and above divide on int64 numpy."""
    test_polys.check_divmod(1000003)


is_prime_equals_sympy_past_psi13 = (
    test_ffield.test_is_prime_equals_sympy_past_psi13)
is_prime_rejects_each_psi_k = test_ffield.test_is_prime_bases_stop_at_psi_k
x_power_engine_follows_the_rule = (
    test_polys.test_x_power_engine_follows_the_rule)
fft_limb_width_widest = (
    test_polys.test_fft_limb_width_is_the_widest_under_its_bound)
powmod_counts_products = test_polys.test_modulus_kernel_powmod_counts_products


DETECTORS = (succ_equals_full_evaluation, succ_equals_ffelem_horner,
             order_tables_equal_gcd_formula,
             cycle_min_equals_cycle_walk, tree_labels_equal_orbit_walk,
             trace_walk_matches_the_ladder,
             special_trees_pass_at_f53, special_corruptions_match_reference,
             ddf_counts_two_of_each_degree,
             ddf_counts_two_degrees_split_at_the_root,
             ddf_counts_two_degrees_in_one_node, moduli_are_pinned,
             stacked_patterns_equal_one_t, patterns_equal_closed_form,
             tree_product_equals_one_at_a_time, kernel_rows_equal_powers_of_x,
             x_power_equals_powering, rfft_product_exact,
             mul_equals_schoolbook, alpha_order_ignores_walk_tables,
             orbit_stats_ignore_walk_tables, fft_limb_width_widest,
             powmod_counts_products, divmod_equals_gf_div,
             ddf_equal_degree_divides_by_divisors_only,
             is_prime_equals_sympy_past_psi13, is_prime_rejects_each_psi_k,
             x_power_engine_follows_the_rule, table_patterns_equal_actual)

# -- mutants -----------------------------------------------------------------

_CLOSURE_CHECK = "    if n > 1 and not np.array_equal(fr[r], mins):\n"

MUTANTS = {
    # the orbit walk steps by Frobenius squared
    "frobenius_walk_squared": (
        graph, "_succ_and_weight",
        [("    r, v = mins, vals\n", "    r, v = mins, vals\n    fr = fr[fr]\n")],
        succ_equals_full_evaluation),
    # the successors of one orbit whose values leave F_p, rotated a step
    "one_orbit_rotated": (
        graph, "_succ_and_weight",
        [(_CLOSURE_CHECK,
          "    k = np.flatnonzero((weight[mins] == n) & (weight[vals] > 1))[0]\n"
          "    orbit = [int(mins[k])]\n"
          "    for _ in range(n - 1):\n"
          "        orbit.append(int(fr[orbit[-1]]))\n"
          "    succ[orbit] = np.roll(succ[orbit], 1)\n" + _CLOSURE_CHECK)],
        succ_equals_full_evaluation),
    # the column product folds each raw row through the reduction row
    # one before its own (the first row through the last)
    "column_product_row_shifted": (
        FieldCtx, "_mul_cols",
        [("acc += self._red_cols[k - n] * raw[k]",
          "acc += self._red_cols[k - n - 1] * raw[k]")],
        succ_equals_ffelem_horner),
    # the divisor-digit strides started at lo instead of at the first
    # multiple
    "order_stride_from_lo": (
        FieldCtx, "_build_alpha_tables",
        [("digits[(-lo) % rj::rj] += w", "digits[lo % rj::rj] += w")],
        order_tables_equal_gcd_formula),
    # the class orders decoded with the digit of the prime 2 one short
    # (2 divides q -+ 1 on both sides)
    "order_decode_digit_short": (
        FieldCtx, "_build_alpha_tables",
        [("gcd * r ** j for j in range(k + 1)",
          "gcd * r ** max(j - (r == 2), 0) for j in range(k + 1)")],
        order_tables_equal_gcd_formula),
    # the walk reduces before subtracting T_{lo-1}, T_{lo-2}, ...
    "walk_minus_prev_unreduced": (
        FieldCtx, "_trace_walk",
        [("block = times_h @ base[:, :take]",
          "block = polys._mod(times_h @ base[:, :take], p)"),
         ("return polys._mod(block, p)", "return block")],
        trace_walk_matches_the_ladder),
    # the x-power matrices built without their transpose, so the matrix of
    # y -> x^k y takes x^(i+j)_k for x^(j+k)_i: the same at n = 1 only
    "walk_multiplier_untransposed": (
        FieldCtx, "_trace_walk",
        [("].T.reshape(", "].reshape(")],
        trace_walk_matches_the_ladder),
    # psi(u) read from u's own window, not from the window 4 steps on
    "psi_from_own_window": (
        graph, "_cycle_min",
        [("val, ptr = low[keep], low[ahead]",
          "val, ptr = low[keep], low[keep]")],
        cycle_min_equals_cycle_walk),
    # the first level's minima never unwound onto its vertices
    "unwinding_level_skipped": (
        graph, "_cycle_min",
        [("    while levels:\n", "    while len(levels) > 1:\n")],
        cycle_min_equals_cycle_walk),
    # the contraction stopped once the jump spans half the set
    "contraction_stops_at_half_span": (
        graph, "_cycle_min",
        [("    while stride < size:\n", "    while 2 * stride < size:\n")],
        cycle_min_equals_cycle_walk),
    # the peel's rounds replayed first round first, so each vertex reads
    # its successor's labels before they are set
    "replay_first_round_first": (
        graph, "build_graph",
        [("level = rounds.pop()", "level = rounds.pop(0)")],
        tree_labels_equal_orbit_walk),
    # the trees over +-2 given the height of their branch, not lambda_m
    "special_height_from_branch": (
        graph, "verify_structure",
        [("    height[is_special(label)] = lam_m\n", "")],
        special_trees_pass_at_f53),
    # a special tree's faults keyed one step past its root, to the vertex
    # the tree hangs from (+-2, or -2 above 0), which no tree check reads
    "special_fault_past_its_root": (
        graph, "verify_structure",
        [("root[found] = v[found]", "root[found] = succ[v[found]]")],
        special_corruptions_match_reference),
    # the right half of a tree node handed G, not G / G_left
    "ddf_right_half_keeps_left": (
        polys, "distinct_degree_counts",
        [("        stack.append((mid, hi, divmod_(g, left, p)[0]))\n",
          "        stack.append((mid, hi, g))\n")],
        ddf_counts_two_degrees_split_at_the_root),
    # the equal-degree candidates run to 2 lo inclusive, where factors of
    # degree lo and 2 lo together pass V_(2 lo)
    "ddf_equal_degree_to_twice_lo": (
        polys, "distinct_degree_counts",
        [("min(hi, 2 * lo))", "min(hi, 2 * lo + 1))")],
        ddf_counts_two_degrees_in_one_node),
    # an equal-degree candidate tried whether or not it divides D: the
    # answer holds, but each such candidate costs a remainder
    "ddf_equal_degree_any_candidate": (
        polys, "distinct_degree_counts",
        [("if dg % e == 0 and not rem(", "if not rem(")],
        ddf_equal_degree_divides_by_divisors_only),
    # the first candidate dividing D taken without its zero remainder
    "ddf_equal_degree_without_remainder": (
        polys, "distinct_degree_counts",
        [("if dg % e == 0 and not rem(label(e, one)[0], g, p)), 0)",
          "if dg % e == 0), 0)")],
        ddf_counts_two_degrees_in_one_node),
    # the one-factor cut taken at D = 2 lo, where two factors of degree lo
    # fit
    "ddf_cut_at_twice_lo": (
        polys, "distinct_degree_counts",
        [("        if dg < 2 * lo:\n", "        if dg <= 2 * lo:\n")],
        ddf_counts_two_of_each_degree),
    # the giant steps stop one block short of d < 2 (J s + 1)
    "ddf_one_block_short": (
        polys, "distinct_degree_counts",
        [("        if top >= d // 2 or not whole.any():",
          "        if top + s >= d // 2 or not whole.any():")],
        ddf_counts_two_of_each_degree),
    # the rows reduced by R - c Q, the shift's sign flipped
    "kernel_shift_sign_flipped": (
        polys.ModulusKernel, "mulmod",
        [("self.c), p)", "p - self.c), p)")],
        stacked_patterns_equal_one_t),
    # each row's tree multiplies its labels mod its neighbour's modulus
    "ddf_tree_reads_neighbour_shift": (
        polys, "distinct_degree_counts",
        [("row = ker.row(r)", "row = ker.row((r + 1) % len(cs))")],
        stacked_patterns_equal_one_t),
    # the giant steps stop once any row's product is 0, not every row's
    "ddf_stack_stops_at_any_row": (
        polys, "distinct_degree_counts",
        [("        if top >= d // 2 or not whole.any():",
          "        if top >= d // 2 or not whole.any(axis=-1).all():")],
        stacked_patterns_equal_one_t),
    # a modulus candidate accepted once its split finds some factor, not
    # one factor of degree n
    "modulus_any_split": (
        ffield, "_lex_min_irreducible",
        [("polys.distinct_degree_counts(f, p) == [{n: 1}]",
          "polys.distinct_degree_counts(f, p)[0]")],
        moduli_are_pinned),
    # every t stacked for the distinct-degree split, squarefree or not
    "patterns_skip_squarefree_test": (
        factor, "_patterns",
        [("if (t * t - 4) % p:", "if True:")],
        patterns_equal_closed_form),
    # the Kronecker slot bounds one term's product, not the sum of
    # min(len a, len b) of them, so a full slot carries into the next
    "kronecker_slot_one_term": (
        polys, "mul",
        [("w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()",
          "w = ((p - 1) ** 2).bit_length()")],
        mul_equals_schoolbook),
    # the byte slots rounded down, one bit of the bound short or more
    "kronecker_bytes_slot_rounded_down": (
        polys, "mul", [("k = (w + 7) // 8", "k = w // 8")],
        mul_equals_schoolbook),
    # the pairwise product drops an odd leftover term
    "tree_product_drops_odd_term": (
        polys.ModulusKernel, "tree_product",
        [("(np.concatenate((prod, terms[2 * h:])) if len(terms) % 2\n"
          "                 else prod)", "prod")],
        tree_product_equals_one_at_a_time),
    # the blocked R reads its previous block one row off
    "rows_block_one_row_off": (
        polys.ModulusKernel, "_fill_rows",
        [("prev = block[:m]", "prev = np.roll(block, -1, axis=0)[:m]")],
        kernel_rows_equal_powers_of_x),
    # x^p's head takes one bit too many, e0 >= d
    "x_power_head_one_bit_long": (
        polys.ModulusKernel, "x_power",
        [("if e >> (size - k) >= d:", "if False:")],
        x_power_equals_powering),
    # the rfft limb one bit wider than Percival's bound allows
    "fft_limb_width_one_bit_wide": (
        polys, "fft_limb_width",
        [("w = (top + 1).bit_length() - 1", "w = (top + 1).bit_length()")],
        fft_limb_width_widest),
    # the rfft product left unrounded
    "rfft_product_without_rint": (
        polys, "_product",
        [("parts.append(np.rint(part, out=part))", "parts.append(part)")],
        rfft_product_exact),
    # alpha_order answering from the walk tables when build_graph has left
    # them on an extension field, so the tables would check themselves
    "alpha_order_reads_walk_tables": (
        ffield, "alpha_order",
        [("    t, two, p = _ladder_operands(a, ctx)\n",
          "    tables = ctx._cache.get(\"alpha\") if ctx.n > 1 else None\n"
          "    if tables is not None:\n"
          "        ids, order, branch = tables\n"
          "        k = ids[a.index]\n"
          "        return int(order[k]), (MINUS if branch[k] == 0 else PLUS)\n"
          "    t, two, p = _ladder_operands(a, ctx)\n")],
        (alpha_order_ignores_walk_tables, orbit_stats_ignore_walk_tables)),
    # powmod starting from the unit: a squaring and a product wasted
    "powmod_from_the_unit": (
        polys.ModulusKernel, "powmod",
        [("    r = a\n    for bit in bin(e)[3:]:\n",
          "    r = np.ones_like(a)\n    r[..., 1:] = 0\n"
          "    for bit in bin(e)[2:]:\n")],
        powmod_counts_products),
    # a number that passes the 13 Miller-Rabin bases taken as prime from
    # PSI_13 on too, where they prove nothing
    "is_prime_skips_the_proof": (
        ffield, "is_prime",
        [("return n < PSI_13 or _pocklington(n)", "return True")],
        is_prime_equals_sympy_past_psi13),
    # the first k bases taken up to psi_k inclusive, which passes them
    "psi_bound_inclusive": (
        ffield, "is_prime",
        [("bisect_right(_PSI, n)", "bisect_right(_PSI, n - 1)")],
        is_prime_rejects_each_psi_k),
    # x^e on the list routines one degree past the measured rule
    "int_engine_one_degree_past_rule": (
        polys, "_int_power",
        [("return rows == 1 and d <= INT_POWER_DEGREE[",
          "return rows == 1 and d <= 1 + INT_POWER_DEGREE[")],
        x_power_engine_follows_the_rule),
    # one class read off the order tables with the wrong order: class 6
    # of G(3, 53, 1), of order 13, read as 3 * 13 = 39, a tree class
    "table_class_order_times_ell": (
        verify, "_table_patterns",
        [("[(t, *split[k])]",
          "[(t, split[k][0] + (k == 6), split[k][1])]")],
        table_patterns_equal_actual),
    # the numpy division's quotient stored one place down, its lowest
    # coefficient wrapped onto the top
    "np_quotient_one_place_off": (
        polys, "_np_rem",
        [("quo[top - db] = c", "quo[top - db - 1] = c")],
        divmod_equals_gf_div),
}


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: d.__name__)
def test_detector_passes_on_the_package(detector):
    detector()


def rebind(monkeypatch, owner, attr, fake) -> int:
    """Set fake in place of owner.attr on its owner and under every name
    a chebdyn module, or the package, imported it by (factor, graph and
    the package hold alpha_order, verify holds verify_structure), as the
    bench tracer rebinds its wrappers; the count of bindings set."""
    orig = getattr(owner, attr)
    spaces = [owner] + [mod for name, mod in sorted(sys.modules.items())
                        if name.split(".")[0] == "chebdyn"]
    count = 0
    for space in spaces:
        for name, value in list(vars(space).items()):
            if value is orig:
                monkeypatch.setattr(space, name, fake)
                count += 1
    return count


def test_table_order_mutant_names_the_first_t(monkeypatch):
    # t = 8 is the first t of G(3, 53, 1) in the class of order 13: read
    # as order 39 it is a tree vertex, with three roots, against the
    # linear and the quadratic factor the periodic class has
    owner, attr, edits, _ = MUTANTS["table_class_order_times_ell"]
    rebind(monkeypatch, owner, attr, mutant(getattr(owner, attr), edits))
    with pytest.raises(AssertionError) as err:
        table_patterns_equal_actual()
    assert str(err.value).startswith(
        "t=8: ((1, 1, 3),) vs ((1, 1, 1), (2, 1, 1))")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch):
    owner, attr, edits, detectors = MUTANTS[name]
    fake = mutant(getattr(owner, attr), edits)
    assert rebind(monkeypatch, owner, attr, fake) >= 1
    for detector in (detectors if isinstance(detectors, tuple)
                     else (detectors,)):
        with pytest.raises((AssertionError, ArithmeticError)):
            detector()
