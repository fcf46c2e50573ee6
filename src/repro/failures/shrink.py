"""Shrinking a violating scenario, and the repro script that replays it.

On a violation :func:`shrink_scenario` minimizes the scenario — either
kind the harness runs — while it still trips the same oracle, and
:func:`write_repro_script` emits a self-contained ``*_repro_<seed>.py``
that re-runs the shrunk scenario under the *same run options*
(``hold_acks``, ``tracing``): an oracle that only exists in traced runs
can only be reproduced by a traced rerun.
"""

import json

from repro.failures.harness import run_scenario


class ShrinkBudget:
    """Per-dimension rerun budget for shrinking.

    The historical shrinker shared one ``max_runs`` pool across every
    shrink dimension, so an expensive schedule pass (dropping dozens of
    injections one at a time) could starve the config/topology passes
    entirely — and nothing reported that it had.  Each dimension now
    draws from its own pool, and :meth:`exhausted` names the pools that
    ran dry so the caller can say *why* a repro is not smaller.
    """

    def __init__(self, limits):
        self.limits = dict(limits)
        self.used = {dimension: 0 for dimension in self.limits}

    @classmethod
    def split(cls, max_runs, config_share=0.25):
        """The default split: schedule shrinking keeps the bulk of the
        pool, config/topology shrinking gets its own reserved slice."""
        config_runs = max(2, int(max_runs * config_share))
        return cls({
            "schedule": max(1, max_runs - config_runs),
            "config": config_runs,
        })

    def take(self, dimension):
        """Consume one run from ``dimension``; False once that pool is dry."""
        if self.used[dimension] >= self.limits[dimension]:
            return False
        self.used[dimension] += 1
        return True

    def remaining(self, dimension):
        return self.limits[dimension] - self.used[dimension]

    @property
    def total_used(self):
        return sum(self.used.values())

    def exhausted(self):
        """Dimensions whose pool ran dry, sorted for stable reporting."""
        return tuple(sorted(
            dimension for dimension, limit in self.limits.items()
            if self.used[dimension] >= limit
        ))

    def describe(self):
        parts = ", ".join(
            f"{dimension} {self.used[dimension]}/{self.limits[dimension]}"
            for dimension in sorted(self.limits)
        )
        dry = self.exhausted()
        return parts + (f" (exhausted: {', '.join(dry)})" if dry else "")


def shrink_scenario(scenario, hold_acks=True, tracing=False,
                    expect_oracle=None, budget=None):
    """Minimize ``scenario`` while it still trips an oracle.

    Deterministic greedy reduction: drop injections, drop workload
    bursts, halve burst sizes, apply the scenario's own config/topology
    passes (``config_shrink_passes()``: the preloaded table, and for a
    fuzz spec trailing neighbors, policies and timer knobs), coarsen
    injection instants, then trim the horizon to just past the
    violation.  Every rerun uses the run options the violation was found
    under.  Returns ``(shrunk, final_result, runs_used)``.

    Schedule-shaped passes (injections, bursts, instants, horizon) and
    config/topology passes draw from separate pools of a
    :class:`ShrinkBudget` — pass your own ``budget`` to control the
    split and inspect which dimension exhausted it afterwards; the
    default is ``ShrinkBudget.split(40)``.
    """
    if budget is None:
        budget = ShrinkBudget.split(40)

    def still_fails(candidate, dimension):
        if not budget.take(dimension):
            return None  # this dimension's pool is dry: stop shrinking it
        try:
            candidate.validate()
        except ValueError:
            return False  # the mutation broke a composition rule
        result = run_scenario(candidate, hold_acks=hold_acks, tracing=tracing)
        violation = result.first_violation
        if violation is None:
            return False
        if expect_oracle is not None and violation.oracle != expect_oracle:
            return False
        return result

    best = scenario.copy()
    result = still_fails(best, "schedule")
    if not result:
        return best, None, budget.total_used

    def try_mutation(mutate, dimension):
        """Keep ``mutate(best)`` if it still fails; True when it did."""
        nonlocal best, result
        candidate = best.copy()
        if mutate(candidate) is False:
            return False
        outcome = still_fails(candidate, dimension)
        if outcome:
            best, result = candidate, outcome
        return bool(outcome)

    # 1. drop injections, one at a time, until a fixed point
    changed = True
    while changed and budget.remaining("schedule") > 0:
        changed = False
        for index in range(len(best.injections) - 1, -1, -1):
            def drop(candidate, index=index):
                del candidate.injections[index]

            changed = try_mutation(drop, "schedule") or changed
    # 2. drop workload bursts
    for index in range(len(best.workload) - 1, -1, -1):
        def drop(candidate, index=index):
            del candidate.workload[index]

        try_mutation(drop, "schedule")
    # 3. halve remaining burst sizes
    for index in range(len(best.workload)):
        def halve(candidate, index=index):
            if candidate.workload[index]["count"] <= 25:
                return False
            candidate.workload[index]["count"] //= 2

        while try_mutation(halve, "schedule"):
            pass
    # 4. the scenario's config/topology knobs, each pass repeated while
    # it keeps helping (their pool is reserved so the schedule passes
    # above cannot starve it)
    for mutate in best.config_shrink_passes():
        while try_mutation(mutate, "config"):
            pass
    # 5. coarsen injection instants (whole seconds read better in repros)
    for index in range(len(best.injections)):
        def roundto(candidate, index=index):
            rounded = float(round(candidate.injections[index]["at"]))
            if rounded == candidate.injections[index]["at"] or rounded < 0.1:
                return False
            candidate.injections[index]["at"] = rounded

        try_mutation(roundto, "schedule")
    # 6. trim the horizon to just past the violation (violation times are
    # absolute; arming happens at >= 10 s, so this over-covers slightly —
    # the verification rerun below keeps it honest)
    trimmed = round(max(5.0, result.first_violation.time - 5.0), 3)
    if trimmed < best.duration:
        def trim(candidate):
            candidate.duration = trimmed

        try_mutation(trim, "schedule")
    return best, result, budget.total_used


# ----------------------------------------------------------------------
# repro scripts
# ----------------------------------------------------------------------

REPRO_TEMPLATE = '''#!/usr/bin/env python3
"""Auto-generated {kind} repro — seed {seed}, oracle {oracle}.

Shrunk scenario: {description}.
Replay (from the repository root):

    PYTHONPATH=src python {filename}

Exits 0 when the violation reproduces at the same oracle.
"""
import json
import sys

SEED = {seed}
HOLD_ACKS = {hold_acks}
TRACING = {tracing}
EXPECT_ORACLE = {oracle!r}
SCENARIO = json.loads(r\'\'\'
{scenario_json}
\'\'\')


def main():
    from repro.failures.harness import run_scenario
    from {module} import {cls}

    result = run_scenario(
        {cls}.from_dict(SCENARIO), hold_acks=HOLD_ACKS, tracing=TRACING
    )
    violation = result.first_violation
    if violation is None:
        print("did NOT reproduce: all oracles passed")
        return 2
    print(
        "reproduced: %s @%.3f -- %s"
        % (violation.oracle, violation.time, violation.detail)
    )
    return 0 if violation.oracle == EXPECT_ORACLE else 3


if __name__ == "__main__":
    sys.exit(main())
'''


def write_repro_script(scenario, violation, hold_acks, path, tracing=False):
    """Emit a self-contained replay script for a shrunk scenario."""
    script = REPRO_TEMPLATE.format(
        kind=scenario.kind,
        seed=scenario.seed,
        oracle=violation.oracle,
        description=scenario.describe(),
        filename=path.split("/")[-1],
        hold_acks=hold_acks,
        tracing=tracing,
        module=type(scenario).__module__,
        cls=type(scenario).__name__,
        scenario_json=json.dumps(scenario.to_dict(), indent=2, sort_keys=True),
    )
    with open(path, "w") as handle:
        handle.write(script)
    return path


def shrink_and_report(scenario, first_result, hold_acks, tracing=False,
                      out_dir=".", prefix=None, budget=None):
    """The failure path of a sweep: shrink, write the repro, describe it.

    Returns ``(shrunk, path)``; the script is ``<prefix>_<seed>.py``
    (``<kind>_repro`` unless given) under ``out_dir``.
    """
    violation = first_result.first_violation
    if budget is None:
        budget = ShrinkBudget.split(40)
    shrunk, _final, runs = shrink_scenario(
        scenario, hold_acks=hold_acks, tracing=tracing,
        expect_oracle=violation.oracle, budget=budget,
    )
    path = f"{out_dir}/{prefix or scenario.kind + '_repro'}_{scenario.seed}.py"
    write_repro_script(shrunk, violation, hold_acks, path, tracing=tracing)
    print(
        f"seed {scenario.seed}: VIOLATION {violation.oracle}"
        f" @{violation.time:.3f} — {violation.detail}"
    )
    print(
        f"  shrunk to {shrunk.describe()} in {runs} rerun(s)"
        f" [{budget.describe()}]; repro: {path}"
    )
    return shrunk, path
