"""ASCII rendering for experiment results.

Every experiment in :mod:`repro.analysis.experiments` returns an
:class:`ExperimentResult`; :func:`render` turns it into the same
rows/series the paper's table or figure reports, plus the paper's
reference numbers where the paper states them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str              # e.g. "fig2"
    title: str
    columns: Sequence[str]          # first column is the row label
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    paper_values: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def column_values(self, column: str) -> List[float]:
        return [row[column] for row in self.rows
                if isinstance(row.get(column), (int, float))]


def _format(value: Any, width: int) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.3f}"
    return f"{str(value):>{width}}"


def render(result: ExperimentResult, label_width: int = 12,
           column_width: int = 10) -> str:
    """Render an experiment as an aligned ASCII table.

    The label column, the other columns and the summary-key field widen
    past the given widths to keep at least one space between every name
    and its neighbour.
    """
    lines = [f"== {result.experiment_id}: {result.title} =="]
    labels = [str(row.get(result.columns[0], "")) for row in result.rows]
    label_width = max([label_width] + [len(label) + 1 for label in labels])
    widths = [max(column_width, len(str(column)) + 1)
              for column in result.columns[1:]]
    header = f"{result.columns[0]:<{label_width}}" + "".join(
        f"{c:>{width}}" for c, width in zip(result.columns[1:], widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in zip(labels, result.rows):
        cells = "".join(
            _format(row.get(column, ""), width)
            for column, width in zip(result.columns[1:], widths)
        )
        lines.append(f"{label:<{label_width}}" + cells)
    if result.summary:
        lines.append("-" * len(header))
        key_width = max(label_width + 2,
                        max(len(str(key)) for key in result.summary) + 1)
        for key, value in result.summary.items():
            value_str = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"{key:<{key_width}}{value_str}")
    if result.paper_values:
        lines.append("paper reports:")
        for key, value in result.paper_values.items():
            lines.append(f"  {key}: {value}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> float:
    import math

    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
