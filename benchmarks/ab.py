#!/usr/bin/env python
"""Paired A/B runs of nsrbench: a git ref against the working tree.

Usage:
    python benchmarks/ab.py --base REF --workload W [--runs N]
        [--seconds S] [--seed N]

``REF`` is extracted with ``git archive`` into a temporary directory,
and the working tree (tracked and untracked files that git does not
ignore) is copied beside it, so both sides start from fresh files with
no bytecode caches, on one file system, and edits made while the runs
go on do not reach them.  Both copies are removed afterwards.  The
script then alternates ``N`` invocations of
``python3 benchmarks/nsrbench --workload W`` in each tree — base first
in even pairs, change first in odd ones, so that a drift in host speed
falls on both sides — and prints, for every end-to-end metric that
``BENCHMARK.json`` declares:

- the median of the per-pair ratios change / base,
- how many of the ``N`` pairs the change won (by the metric's
  ``better`` direction; a tie is not a win),
- the interquartile range of the base's values, beside their median.

A claimed gain needs wins in at least nine pairs of ten and a median
ratio better by more than that IQR relative to the base median.  The
script exits non-zero when any invocation failed an operation or
printed no result.  Host speed drifts over minutes, so one run of each
side says nothing; only alternating pairs do.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(REPO_ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def extract(ref, into):
    """``git archive REF`` unpacked under ``into``."""
    archive = git("archive", "--format=tar", ref)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def snapshot(into):
    """The working tree's files that git does not ignore, copied under
    ``into``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = REPO_ROOT / name
        if name and source.is_file():  # a deleted tracked file is skipped
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return into


def invoke(tree, workload, seconds, seed):
    """One nsrbench invocation in ``tree``: ``{metric: value}``, or None
    when it failed an operation or printed no result."""
    command = [sys.executable, "benchmarks/nsrbench", "--workload", workload,
               "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    if done.returncode != 0 or not result.get("correct") or result["failed"]:
        return None
    return {name: row["value"] for name, row in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def summarise(metrics, base_runs, change_runs):
    """One line per metric: median ratio, wins, base median and IQR."""
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run[name] for run in base_runs]
        change = [run[name] for run in change_runs]
        ratios = [c / b if b else float("nan") for b, c in zip(base, change)]
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        low, high = quartiles(base)
        median = statistics.median(base)
        iqr = (high - low) / median if median else float("nan")
        lines.append(
            f"{name:14s} ratio x{statistics.median(ratios):.4f}"
            f"  wins {wins}/{len(ratios)}"
            f"  base median {median:.6g} {metric['unit']}"
            f"  IQR {high - low:.4g} ({iqr:.1%})"
            f"  [{'higher' if higher else 'lower'} is better]")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare against (e.g. HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=6,
                        help="invocations per side (default 6)")
    parser.add_argument("--seconds", type=float,
                        help="nsrbench --seconds per invocation"
                             " (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        sides = {"base": extract(args.base, Path(scratch) / "base"),
                 "change": snapshot(Path(scratch) / "change")}
        runs = {"base": [], "change": []}
        for pair in range(args.runs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                values = invoke(sides[side], args.workload, args.seconds,
                                args.seed)
                if values is None:
                    print(f"ab: {side} invocation {pair + 1} failed",
                          file=sys.stderr)
                    return 1
                runs[side].append(values)
                print(f"pair {pair + 1} {side:6s} "
                      + " ".join(f"{name}={value:.6g}"
                                 for name, value in values.items()),
                      flush=True)
    print(f"== {args.workload}: working tree against {args.base},"
          f" {args.runs} alternating pairs")
    for line in summarise(metrics, runs["base"], runs["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
