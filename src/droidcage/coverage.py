"""Class/method/basic-block coverage measurement and corpus aggregation.

Block coverage is unique blocks executed divided by unique blocks in the
app; a method (or class) counts as executed when at least one of its
blocks ran. Corpus rows are unweighted means of the per-app ratios, so
large apps do not dominate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .app_model import AppModel
from .session import Session


class CoverageIntegrityError(ValueError):
    """A session executed a block the app model does not contain."""


@dataclass(frozen=True)
class CoverageReport:
    package: str
    blocks_executed: int
    blocks_total: int
    methods_executed: int
    methods_total: int
    classes_executed: int
    classes_total: int
    crashed: bool

    @property
    def block_ratio(self) -> float:
        return self.blocks_executed / self.blocks_total

    @property
    def method_ratio(self) -> float:
        return self.methods_executed / self.methods_total

    @property
    def class_ratio(self) -> float:
        return self.classes_executed / self.classes_total


@dataclass(frozen=True)
class AggregateRow:
    """One per-testing-method line of the results table (percentages)."""

    method: str
    classes_avg: float
    methods_avg: float
    blocks_avg: float
    crash_rate: float


def measure(session: Session, app: AppModel) -> CoverageReport:
    """Coverage of one session against its app model."""
    index = app.block_index
    if not session.executed_blocks <= index.keys():
        unknown = session.executed_blocks.difference(index)
        raise CoverageIntegrityError(
            f"blocks not in {app.package}: {sorted(unknown)}"
        )
    methods_total, classes_total = app.coverage_totals
    executed = [index[bid] for bid in session.executed_blocks]
    methods_hit = {(b.class_name, b.method) for b in executed}
    classes_hit = {b.class_name for b in executed}
    return CoverageReport(
        package=app.package,
        blocks_executed=len(session.executed_blocks),
        blocks_total=len(app.blocks),
        methods_executed=len(methods_hit),
        methods_total=methods_total,
        classes_executed=len(classes_hit),
        classes_total=classes_total,
        crashed=session.crashed,
    )


def aggregate(reports: list[CoverageReport], method: str = "") -> AggregateRow:
    """Unweighted mean of per-app ratios, plus the crash rate.

    Crashed apps contribute their partial ratios to the coverage means.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    return AggregateRow(
        method=method,
        classes_avg=_mean_percent([r.class_ratio for r in reports]),
        methods_avg=_mean_percent([r.method_ratio for r in reports]),
        blocks_avg=_mean_percent([r.block_ratio for r in reports]),
        crash_rate=100.0 * sum(r.crashed for r in reports) / len(reports),
    )


def _mean_percent(ratios: list[float]) -> float:
    # Added left to right in a plain loop, not with sum(): since CPython
    # 3.12 sum() compensates float rounding, which changes the last digit
    # of a mean and so the output bytes from one interpreter to the next.
    total = 0.0
    for ratio in ratios:
        total += ratio
    return 100.0 * total / len(ratios)


def improvement_ratio(combined: AggregateRow, baseline: AggregateRow) -> float:
    """How much better the combined engine covers blocks than the baseline."""
    if baseline.blocks_avg == 0:
        raise ZeroDivisionError("baseline block coverage is zero")
    return combined.blocks_avg / baseline.blocks_avg


PER_APP_CSV_COLUMNS = (
    "package", "method", "blocks_executed", "blocks_total",
    "methods_executed", "methods_total", "classes_executed", "classes_total",
    "crashed",
)


def per_app_csv(rows: list[tuple[str, CoverageReport]]) -> str:
    """One CSV row per (testing method, app)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PER_APP_CSV_COLUMNS)
    for method, r in rows:
        writer.writerow([
            r.package, method, r.blocks_executed, r.blocks_total,
            r.methods_executed, r.methods_total, r.classes_executed,
            r.classes_total, int(r.crashed),
        ])
    return buf.getvalue()
