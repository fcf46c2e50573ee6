"""The examples must stay runnable — they are executable documentation.

Each example's stdout is pinned byte for byte to its golden in
``tests/example_goldens/`` (the simulation is deterministic), so a
change that alters what an example shows fails here.  Rewrite a golden
only for a change that means to alter that output.  The causal-tracing
walkthrough (``make trace-demo``) is pinned the same way.
"""

import pathlib
import runpy

from repro.trace import demo

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
GOLDENS = pathlib.Path(__file__).resolve().parent / "example_goldens"


def _run(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    golden = (GOLDENS / script).with_suffix(".txt").read_text(encoding="utf-8")
    assert out == golden
    return out


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "split_containers.py", "fleet_operations.py",
     "declarative_gateway.py"],
)
def test_example_runs(script, capsys):
    _run(script, capsys)


def test_failover_drill_runs(capsys):
    out = _run("failover_drill.py", capsys)
    assert "host_machine" in out
    assert "transient" in out


def test_trace_demo_runs(capsys):
    """``python -m repro.trace.demo``: the only runner of the demo and of
    ``repro.metrics.show.show_trace``."""
    demo.main()
    golden = (GOLDENS / "trace_demo.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
