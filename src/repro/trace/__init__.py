"""Causal tracing for the NSR hot path (DESIGN.md §10)."""

from repro.trace.store import PHASES, TraceStore
from repro.trace.tracer import (
    AMBIENT,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    tracer_of,
)

__all__ = [
    "AMBIENT",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "Span",
    "TraceStore",
    "Tracer",
    "tracer_of",
]
