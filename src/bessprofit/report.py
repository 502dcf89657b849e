"""Render sweep results as an aligned text table and as delimited CSV.

Column order follows the decision table: contract saving, total gain,
per-cycle profit, cycle count, payback, self-sufficiency, waste. The
no-battery baseline appears as a leading "Load + PV" row with only the
columns that make sense for it. Every file starts with '#' header lines
carrying the config hash and the conventions in force, so a result can
be traced back to its inputs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .profitability import ProfitabilityReport
from .timeseries import BaselineMetrics

__all__ = ["ReportHeader", "fmt_payback", "render_table", "render_csv", "write_report"]

_NA = "-"


@dataclass(frozen=True)
class ReportHeader:
    """Provenance lines for the top of every output file."""

    scenario: str
    config_hash: str
    conventions: tuple[str, ...] = ()

    def lines(self) -> list[str]:
        out = [f"# scenario: {self.scenario}", f"# config_hash: {self.config_hash}"]
        out.extend(f"# {line}" for line in self.conventions)
        return out


def _fmt_money(v: float) -> str:
    return f"{v:.2f}"


def fmt_payback(v: float) -> str:
    return "inf" if v == float("inf") else f"{v:.2f}"


def _row_cells(report: ProfitabilityReport) -> list[str]:
    return [
        report.name,
        _fmt_money(report.g_pd),
        _fmt_money(report.g_t),
        f"{report.p_cyc:.4f}",
        f"{report.n_cyc_100:.2f}",
        fmt_payback(report.expb_years),
        f"{report.ss:.4f}",
        f"{report.waste:.2f}",
        "yes" if report.profitable else "no",
    ]


_COLUMNS = [
    "case",
    "g_pd_eur",
    "g_t_eur",
    "p_cyc_eur_per_kwh_cycle",
    "cycles_100dod",
    "expb_years",
    "self_sufficiency",
    "waste_kwh",
    "profitable",
]


def _baseline_cells(baseline: BaselineMetrics) -> list[str]:
    return [
        "Load + PV",
        _NA,
        _NA,
        _NA,
        _NA,
        _NA,
        f"{baseline.ss:.4f}",
        f"{baseline.waste:.2f}",
        _NA,
    ]


def render_table(
    header: ReportHeader,
    baseline: BaselineMetrics,
    reports: list[ProfitabilityReport],
) -> str:
    """Aligned, human-readable result table."""
    rows = [_COLUMNS, _baseline_cells(baseline)]
    rows.extend(_row_cells(r) for r in reports)
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    body = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells.extend(c.rjust(widths[i]) for i, c in enumerate(row) if i > 0)
        body.append("  ".join(cells).rstrip())
    return "\n".join(header.lines() + body) + "\n"


def render_csv(
    header: ReportHeader,
    baseline: BaselineMetrics,
    reports: list[ProfitabilityReport],
) -> str:
    """Machine-readable variant with a few extra accounting columns."""
    buf = io.StringIO()
    for line in header.lines():
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS + ["g_arb_eur", "eta_fric", "level_kva"])
    base = _baseline_cells(baseline)
    writer.writerow(base + [_NA, _NA, _NA])
    for report in reports:
        writer.writerow(
            _row_cells(report)
            + [
                _fmt_money(report.g_arb),
                f"{report.eta_fric_used:.6f}",
                f"{report.level_kva:g}",
            ]
        )
    return buf.getvalue()


def write_report(
    path,
    header: ReportHeader,
    baseline: BaselineMetrics,
    reports: list[ProfitabilityReport],
) -> None:
    """Write the CSV rendering to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(header, baseline, reports))
