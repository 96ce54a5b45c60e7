"""Row types shared by the enumerated and the predicted graph summaries.

A summary partitions F_{p^n} into divisor classes: all vertices whose
lifted root has the same multiplicative order.  Rows mirror the usual
tabulation (divisor, points, period, preperiod, weight, cycles), with
the divisor kept factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ffield import MINUS, PLUS, Branch, FactoredInt

__all__ = ["SummaryRow", "GraphSummary"]


@dataclass(frozen=True)
class SummaryRow:
    divisor: FactoredInt
    branch: Branch
    points: int
    preperiod: int
    period: Optional[int]
    weight: int
    cycles: Optional[int]

    @property
    def divisor_value(self) -> int:
        return self.divisor.value

    def to_json_obj(self) -> dict:
        obj = {
            "divisor": str(self.divisor),
            "branch": self.branch,
            "points": self.points,
            "preperiod": self.preperiod,
            "weight": self.weight,
        }
        if self.period is not None:
            obj["period"] = self.period
        if self.cycles is not None:
            obj["cycles"] = self.cycles
        return obj


def canonical_row_order(rows: list[SummaryRow], ell: int) -> list[SummaryRow]:
    """Minus section before plus; towers by prime-to-ell part, then height."""
    def key(r: SummaryRow):
        d = r.divisor_value
        k = r.divisor.nu(ell)
        d0 = d // ell ** k
        return (0 if r.branch == MINUS else 1, d0, k)
    return sorted(rows, key=key)


@dataclass(frozen=True)
class GraphSummary:
    ell: int
    p: int
    n: int
    rows: tuple[SummaryRow, ...]

    @property
    def q(self) -> int:
        return self.p ** self.n

    def total_points(self) -> int:
        return sum(r.points for r in self.rows)

    def preperiod_totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.rows:
            out[r.preperiod] = out.get(r.preperiod, 0) + r.points
        return out

    def to_json_obj(self) -> dict:
        return {
            "ell": self.ell,
            "p": self.p,
            "n": self.n,
            "rows": [r.to_json_obj() for r in self.rows],
        }

    def table_str(self) -> str:
        """Plain table, one section per branch, mirroring the usual layout."""
        qm, qp = self.q - 1, self.q + 1
        lines = [f"l={self.ell} p={self.p} n={self.n}"]
        widths = (max(len(str(r.divisor)) for r in self.rows) if self.rows else 7)
        header = (f"  {'divisor':<{max(widths, 7)}} | points | period | "
                  f"preperiod | weight | cycles")
        for branch, label in ((MINUS, f"divisors of {qm}"),
                              (PLUS, f"divisors of {qp}")):
            section = [r for r in self.rows if r.branch == branch]
            if not section:
                continue
            lines.append(f"{label}:")
            lines.append(header)
            for r in section:
                per = str(r.period) if r.period is not None else "-"
                cyc = str(r.cycles) if r.cycles is not None else "-"
                lines.append(
                    f"  {str(r.divisor):<{max(widths, 7)}} | {r.points:<6} | "
                    f"{per:<6} | {r.preperiod:<9} | {r.weight:<6} | {cyc}")
        return "\n".join(lines)
