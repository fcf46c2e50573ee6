"""Where a wall-clock bench writes its results.

A committed ``BENCH_*.json`` at the repo root is the regression gate's
baseline, so a bench rewrites it only when asked to with ``--write``;
``--out PATH`` writes the same payload elsewhere (the gate runs every
suite into a temporary directory), and with neither nothing is
written.  Either way the committed file's ``before`` block — rows
measured at an earlier commit on the same host — is carried over.
"""

import json
from pathlib import Path


def add_output_options(parser, baseline):
    """``--write`` / ``--out PATH`` for the bench whose committed file
    is ``baseline``."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true",
                       help=f"rewrite the committed {baseline.name}")
    group.add_argument("--out", type=Path, default=None,
                       help="write the results to this path instead")


def write_results(payload, baseline, write=False, out=None):
    """Write ``payload`` to ``baseline`` when ``write``, else to ``out``
    when given, else nowhere."""
    target = baseline if write else out
    if target is None:
        print(f"results not written (--write rewrites {baseline.name}, "
              f"--out PATH writes elsewhere)")
        return
    if baseline.exists():
        before = json.loads(baseline.read_text()).get("before")
        if before is not None:
            payload["before"] = before
    Path(target).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {target}")
