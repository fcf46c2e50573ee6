"""A bench run leaves the committed ``BENCH_*.json`` baselines alone.

The regression gate compares fresh runs with the committed files, so a
bench may rewrite its file only when ``--write`` asks it to
(``benchmarks/results_file.py``).  The failover bench, the quickest that
writes one, runs here in its smoke mode, its full mode and with
``--out``: the committed file must be byte-identical afterwards, and
``--out`` must get the rows the committed file has.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_failover.py"
BASELINE = REPO_ROOT / "BENCH_failover.json"


def _bench(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, str(BENCH), *args], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bench_runs_leave_the_committed_baseline_byte_identical(tmp_path):
    committed = BASELINE.read_bytes()
    out = tmp_path / "fresh.json"
    _bench("--smoke")
    assert "results not written" in _bench()
    _bench("--out", str(out))
    assert BASELINE.read_bytes() == committed
    fresh = json.loads(out.read_text())
    assert fresh["results"].keys() == json.loads(committed)["results"].keys()
