"""Measurement helpers: statistics and paper-style reports."""

from repro.metrics.stats import mean, median, stdev, summarize
from repro.metrics.report import format_table

__all__ = [
    "mean",
    "median",
    "stdev",
    "summarize",
    "format_table",
]
