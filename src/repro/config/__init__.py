"""Declarative deployment configuration.

Builds a full :class:`~repro.core.system.TensorSystem` (machines, pairs,
optional remote ASes) from a plain dict — the shape an operator's
gateway.json would take once parsed.  See :func:`build_system`, the
only code that wires a system, and :func:`lab_spec`, the standard lab.
"""

from repro.config.loader import (
    ConfigError, build_system, lab_spec, validate_spec)

__all__ = ["ConfigError", "build_system", "lab_spec", "validate_spec"]
