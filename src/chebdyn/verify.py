"""One-stop verification of an instance (ell, p, n): the enumerated
graph against every closed-form prediction, plus the factorization
pattern sweep over all residues t.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .factor import DEGREE_CAP, factor_pattern_actual, factor_pattern_predicted
from .ffield import FieldCtx, check_domain, make_field, strip_ell
from .graph import (DEFAULT_CAP, VerifyReport, build_graph, orbit_stats_order,
                    summarize, verify_structure)
from .predict import (c_of_d, periodic_density, predict_summary,
                      structure_params)

__all__ = ["VerifyReport", "verify_instance", "FIGURE_ERRATA"]

# Known discrepancies between published hand-drawn renderings of specific
# graphs and the computed structure.  verify_instance attaches the note
# whenever it confirms the computed value on such an instance.
FIGURE_ERRATA = {
    (2, 3, 4): (
        "divisor 41: the published drawing of this graph shows a single "
        "cycle of length 20; the order computation gives c(41) = 10 "
        "(2^10 = 1024 = 25*41 - 1) and hence 2 cycles of length 10, and "
        "the brute-force enumeration agrees with the computation."),
}


def _row_key(r):
    return (r.divisor_value, r.branch)


def verify_instance(ell: int, p: int, n: int,
                    cap: int = DEFAULT_CAP) -> VerifyReport:
    """Brute force versus prediction for one instance.

    Builds the graph, compares summaries row for row, checks the point
    counts, the per-element orbit oracle, the structural shape, the
    density, and the factorization pattern for every t in [0, p) at the
    largest level m <= n with ell^m <= DEGREE_CAP (level 1 at least).
    """
    check_domain(ell, p, n, min(cap, FieldCtx.TABLE_CAP))
    rep = VerifyReport(ell, p, n)
    ctx = make_field(p, n)
    g = build_graph(ell, ctx, cap=cap)
    rep.q = g.q
    rep.periodic = g.periodic_count()

    enumerated = summarize(g)
    predicted = predict_summary(ell, p, n)
    match = enumerated.rows == predicted.rows
    detail = ""
    if not match:
        got = {_row_key(r): r for r in enumerated.rows}
        want = {_row_key(r): r for r in predicted.rows}
        for k in sorted(set(got) | set(want)):
            if got.get(k) != want.get(k):
                detail = (f"first differing class {k}: enumerated "
                          f"{got.get(k)}, predicted {want.get(k)}")
                break
    rep.add(f"summary rows: enumerated == predicted "
            f"({len(enumerated.rows)} rows)", match, detail)

    params = structure_params(ell, p, n)
    want = (params.omega_minus + params.omega_plus) // 2
    rep.add("periodic count == (omega- + omega+)/2", rep.periodic == want,
            f"{rep.periodic} vs {want}")

    # per-element oracle: brute (pper, per) == order formula
    d0, rho_pred = strip_ell(g.divisor, ell)
    per_pred = np.zeros(g.q, dtype=np.int64)
    for dv in np.unique(d0):
        per_pred[d0 == dv] = c_of_d(int(dv), ell)
    ok_orbit = bool((rho_pred == g.pper).all() and (per_pred == g.per).all())
    spot = all(orbit_stats_order(ctx.decode(i), ell)
               == (int(g.pper[i]), int(g.per[i]))
               for i in range(0, g.q, max(1, g.q // 64)))
    rep.add("orbit statistics: brute == order formula (all vertices)",
            ok_orbit and spot)

    sr = verify_structure(g)
    rep.add("structure: cycles, tree roots, complete trees", sr.ok,
            sr.first_failure or "")

    rep.add("density == (omega- + omega+)/(2 q)",
            periodic_density(ell, p, n) == Fraction(rep.periodic, g.q))

    level = n
    while ell ** level > DEGREE_CAP and level > 1:
        level -= 1
    mism = None
    for t in range(p):
        pr = factor_pattern_predicted(ell, p, level, t)
        ac = factor_pattern_actual(ell, p, level, t)
        if pr != ac:
            mism = (t, pr.entries, ac.entries)
            break
    rep.add(f"factor patterns at level {level}: predicted == actual "
            f"for all t in [0, {p})", mism is None,
            "" if mism is None else f"t={mism[0]}: {mism[1]} vs {mism[2]}")

    note = FIGURE_ERRATA.get((ell, p, n))
    if note:
        rep.notes.append(note)
    return rep
