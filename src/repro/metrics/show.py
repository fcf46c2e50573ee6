"""Operator-style "show" commands.

Render the textual state views an operator would pull from a router or
the controller: BGP session summaries, RIB contents, BFD peers, FIB
entries, and the cluster-wide NSR status.  Every function returns a
string (callers print it), built on the same table formatter the
benchmark harness uses.
"""

from repro.bgp.prefixes import prefix_text
from repro.metrics.report import format_table


def show_bgp_summary(speaker):
    """`show bgp summary` for one BGP process."""
    rows = []
    for session in speaker.sessions.values():
        uptime = (
            f"{speaker.engine.now - session.established_at:.1f}s"
            if session.established_at is not None and session.established
            else "-"
        )
        rows.append([
            session.config.remote_addr,
            session.config.remote_as,
            session.config.vrf_name,
            session.state.value,
            uptime,
            session.messages_received,
            session.messages_sent,
            len(session.adj_rib_in),
        ])
    header = (
        f"BGP summary — {speaker.config.name} "
        f"(AS {speaker.config.local_as}, router-id {speaker.config.router_id})"
    )
    return format_table(
        ["neighbor", "AS", "VRF", "state", "uptime", "msgs in", "msgs out", "pfx in"],
        rows,
        title=header,
    )


def show_rib(vrf, limit=20):
    """`show bgp vrf <name>`: best routes (truncated at ``limit``)."""
    rows = []
    loc_rib = vrf.loc_rib
    for prefix in sorted(loc_rib.prefixes()):
        path = loc_rib.best(prefix)
        attrs = path.attributes
        rows.append([
            prefix_text(prefix),
            attrs.next_hop or "-",
            "/".join(str(a) for a in attrs.as_path.as_list()) or "-",
            attrs.local_pref if attrs.local_pref is not None else "-",
            path.source_kind,
            path.peer_id,
        ])
        if len(rows) >= limit:
            rows.append([f"... {len(vrf.loc_rib) - limit} more", "", "", "", "", ""])
            break
    return format_table(
        ["prefix", "next hop", "AS path", "local-pref", "source", "from"],
        rows,
        title=f"VRF {vrf.name}: {len(vrf.loc_rib)} routes",
    )


def show_bfd(process):
    """`show bfd peers` for one BFD process."""
    rows = [
        [
            session.vrf,
            session.remote_addr,
            session.state.name,
            f"{session.tx_interval * 1000:.0f}ms x{session.detect_mult}",
            session.packets_sent,
            session.packets_received,
        ]
        for session in process.sessions.values()
    ]
    return format_table(
        ["VRF", "peer", "state", "timers", "tx", "rx"],
        rows,
        title=f"BFD peers on {process.host.name}",
    )


def show_fib(fib, limit=20):
    """`show ip fib` for one forwarding table."""
    rows = []
    for prefix, entry in sorted(fib.entries().items(), key=lambda kv: kv[0]):
        rows.append([prefix_text(prefix), entry.next_hop, f"{entry.programmed_at:.3f}"])
        if len(rows) >= limit:
            rows.append([f"... {len(fib) - limit} more", "", ""])
            break
    return format_table(
        ["prefix", "next hop", "programmed at"],
        rows,
        title=f"FIB {fib.name}: {len(fib)} entries, "
              f"{fib.lookups} lookups ({fib.misses} misses)",
    )


def show_nsr_status(system):
    """Cluster-wide NSR view from the controller's perspective."""
    rows = []
    for name, pair in system.pairs.items():
        sessions = pair.established_session_count()
        backlog = pair.pipeline.backlog() if pair.pipeline else "-"
        rows.append([
            name,
            pair.active_container.name,
            pair.active_machine.name,
            pair.standby_container.name,
            f"{'preheated' if pair.standby_container.running else 'cold'}",
            sessions,
            backlog,
            pair.activations,
        ])
    cluster = format_table(
        ["pair", "active", "machine", "standby", "standby state",
         "sessions", "repl backlog", "migrations"],
        rows,
        title="NSR status",
    )
    lines = [cluster]
    fenced = system.fencing.fenced_machines()
    lines.append(f"fenced machines: {', '.join(fenced) if fenced else 'none'}")
    lines.append(
        f"recoveries completed: {len(system.controller.completed_records())}; "
        f"database records: {len(system.db.store)}"
    )
    return "\n".join(lines)


def show_migration_history(controller):
    """The controller's recovery ledger (Table 1 rows, live)."""
    rows = []
    for record in controller.records:
        rows.append([
            record.failure_kind,
            record.target_name,
            record.detection_time,
            record.initiation_time,
            record.migration_time,
            record.recovery_time,
            record.total_time,
            "done" if record.complete else "IN PROGRESS",
        ])
    return format_table(
        ["failure", "target", "detect", "initiate", "migrate", "recover",
         "total", "status"],
        rows,
        title="Migration history (seconds)",
    )


def show_trace(store, msg_id=None, limit=40):
    """`show trace`: hot-path phase latencies from the causal tracer.

    Without ``msg_id``, a per-phase latency summary over every traced
    update (DESIGN.md §10).  With ``msg_id`` (an update's trace id from
    ``store.update_ids()``), the causally ordered critical path of that
    one message, truncated at ``limit`` spans.
    """
    if store is None:
        return "tracing disabled (construct the system with tracing=True)"
    if msg_id is None:
        rows = []
        for phase, stats in store.phase_summary().items():
            rows.append([
                phase,
                stats["count"],
                f"{stats['mean'] * 1e3:.3f}",
                f"{stats['median'] * 1e3:.3f}",
                f"{stats['max'] * 1e3:.3f}",
            ])
        return format_table(
            ["phase", "spans", "mean ms", "median ms", "max ms"],
            rows,
            title=f"Trace phase summary ({len(store)} spans recorded)",
        )
    chain = store.critical_path(msg_id)
    rows = []
    for span in chain[:limit]:
        duration = "-" if span.end is None else f"{span.duration * 1e3:.3f}"
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items())
            if k != "links"
        )
        rows.append([
            span.span_id,
            span.name,
            f"{span.begin:.6f}",
            duration,
            attrs[:48],
        ])
    title = f"Critical path for update trace {msg_id}"
    if len(chain) > limit:
        title += f" (first {limit} of {len(chain)} spans)"
    return format_table(
        ["span", "name", "begin", "ms", "attrs"], rows, title=title
    )
