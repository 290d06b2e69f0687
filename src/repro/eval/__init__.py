"""Evaluation harness and published reference numbers."""

from repro.eval import paper_results
from repro.eval.harness import (
    DEFAULT_SCALE,
    figure12,
    figure13,
    format_figure12,
    format_table3,
    format_table5,
    format_table6,
    table3,
    table5,
    table6,
)

__all__ = [
    "DEFAULT_SCALE",
    "figure12",
    "figure13",
    "format_figure12",
    "format_table3",
    "format_table5",
    "format_table6",
    "paper_results",
    "table3",
    "table5",
    "table6",
]
