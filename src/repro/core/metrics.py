"""Report-table utilities shared by the benchmarks and examples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class Table:
    """A fixed-column ASCII table (the bench output format)."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def _format_cell(self, value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        cells = [[self._format_cell(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(name.ljust(widths[i])
                           for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for speedup/factor columns."""
    if denominator == 0:
        return float("inf") if numerator > 0 else 0.0
    return numerator / denominator
