"""Golden pin: the controller panel of one is the pre-panel controller.

The panel refactor (DESIGN.md §15) rewired every recovery action through
quorum voting and epoch-fenced leadership; with one replica the quorum
is one and the leader never changes, so a panel-of-1 run was pinned
*bit-identical* to the unreplicated ``Controller`` on the whole chaos
corpus — same controller events at the same virtual instants, same
migration records, same oracle verdicts, same final RIB digest.  The
unreplicated controller is gone; ``controller_goldens.json`` holds what
it produced at the last commit that had it (where the differential was
asserted one final time), and the panel must keep producing exactly
that.  Any divergence means a change altered behaviour, not structure.
"""

import hashlib
import json
import pathlib

import pytest

from repro.failures.chaos import (
    CORPUS_SEEDS,
    DB_FAILOVER_CORPUS_SEEDS,
    TRACED_CORPUS_SEEDS,
    generate_schedule,
    run_schedule,
)

pytestmark = pytest.mark.slow

ALL_SEEDS = CORPUS_SEEDS + TRACED_CORPUS_SEEDS + DB_FAILOVER_CORPUS_SEEDS

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "controller_goldens.json").read_text()
)


def _normalize_events(controller):
    """Event log with payloads flattened to comparable primitives."""
    out = []
    for t, label, payload in controller.events:
        if hasattr(payload, "kind"):  # FailureReport
            payload = (payload.kind, payload.target_name,
                       payload.detected_at, payload.confirmed_at)
        out.append((t, label, repr(payload)))
    return out


def _normalize_records(controller):
    return [
        (r.failure_kind, r.target_name, r.detected_at, r.initiated_at,
         r.rebooted_at, r.recovered_at, r.abandoned, tuple(r.notes))
        for r in controller.records
    ]


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(result):
    """What the differential compared, hashed field by field."""
    controller = result.system.controller
    return {
        "events": _sha(_normalize_events(controller)),
        "records": _sha(_normalize_records(controller)),
        "violations": _sha([
            (v.time, v.oracle, v.detail) for v in result.violations
        ]),
        "verdict": result.summary(),
        "rib": _sha(result.system.rib_digest()),
        "now": result.system.engine.now,
    }


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_panel_of_one_bit_identical_to_legacy_controller(seed):
    schedule = generate_schedule(
        seed, db_failover=seed in DB_FAILOVER_CORPUS_SEEDS
    )
    assert fingerprint(run_schedule(schedule)) == GOLDENS[str(seed)]
