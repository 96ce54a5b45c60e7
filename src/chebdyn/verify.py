"""One-stop verification of an instance (ell, p, n): the enumerated
graph against every closed-form prediction, plus the factorization
pattern sweep over all residues t.
"""

from __future__ import annotations

from fractions import Fraction

from .factor import (DEGREE_CAP, factor_patterns_actual,
                     factor_patterns_predicted)
from .ffield import check_domain, make_field, nu
from .graph import (DEFAULT_CAP, VerifyReport, _divisor_classes,
                    build_graph, summarize, verify_structure)
from .predict import (half_order, periodic_density, predict_summary,
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
    largest level m <= n with ell^m <= DEGREE_CAP (level 1 at least), and
    refuses (ValueError) an ell past DEGREE_CAP before any of it.
    The actual patterns come from one factor_patterns_actual pass over
    every t: the moduli T_ell^m - t differ only in their constant term,
    so one kernel and one run of Frobenius powers serve every t whose
    modulus is squarefree, and one check per pass tests which are.
    The predicted ones come from one factor_patterns_predicted pass,
    which proves (ell, p) once and runs the case analysis once per
    class.  The check names the first differing t.
    """
    check_domain(ell, p, n, cap)
    level = n
    while ell ** level > DEGREE_CAP and level > 1:
        level -= 1
    # refuses a degree past the cap before the graph is built
    actual = factor_patterns_actual(ell, p, level, range(p))
    rep = VerifyReport(ell, p, n)
    g = build_graph(ell, make_field(p, n), cap=cap)
    rep.q = g.q
    rep.periodic = g.periodic_count()

    predicted = predict_summary(ell, p, n)
    try:
        enumerated = summarize(g)
    except ArithmeticError as exc:
        rep.add("summary rows: enumerated == predicted", False, str(exc))
    else:
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

    # per-element oracle, class by class: brute (pper, per) == order
    # formula
    classes, _, ranges = _divisor_classes(g, g.pper, g.per)
    orders = g.class_order[classes].tolist()
    rho = [nu(d, ell) for d in orders]
    per = [half_order(ell, d // ell ** r) for d, r in zip(orders, rho)]
    faults = [f"divisor class {d}: {name}s {lo} to {hi}, wanted {w}"
              for name, want, (lows, highs) in zip(("preperiod", "period"),
                                                   (rho, per), ranges)
              for d, w, lo, hi in zip(orders, want, lows, highs)
              if not lo == hi == w]
    rep.add("orbit statistics: brute == order formula (all vertices)",
            not faults, faults[0] if faults else "")

    sr = verify_structure(g)
    rep.add("structure: cycles, tree roots, complete trees", sr.ok,
            sr.first_failure or "")

    rep.add("density == (omega- + omega+)/(2 q)",
            periodic_density(ell, p, n) == Fraction(rep.periodic, g.q))

    mism = None
    predicted = factor_patterns_predicted(ell, p, level, range(p))
    for t, (pr, ac) in enumerate(zip(predicted, actual)):
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
