"""Causal tracing for the NSR hot path (DESIGN.md §10)."""

from repro.trace.store import PHASES, TraceStore
from repro.trace.tracer import AMBIENT, Span, Tracer

__all__ = [
    "AMBIENT",
    "PHASES",
    "Span",
    "TraceStore",
    "Tracer",
]
