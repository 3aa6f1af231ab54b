"""Per-phase breakdown tables from a recorded trace.

``repro report TRACE`` renders where a run's time went: spans are
aggregated by name (count, total, mean, share of the traced wall clock),
optionally split per participant.  The loader accepts any of the three
on-disk forms the obs layer produces — a merged Chrome trace-event file,
one JSONL shard, or a whole shard directory — so a report can be pulled
from a run that died before the merge happened.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .merge import read_shard, read_shards


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Normalized span dicts (name/proc/ts/dur seconds) from any format."""
    if os.path.isdir(path):
        return read_shards(path)
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(4096).lstrip()
    if head.startswith("{") and '"traceEvents"' in head:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        pid_names: Dict[Any, str] = {}
        for event in document.get("traceEvents", []):
            if event.get("ph") == "M" and event.get("name") == "process_name":
                pid_names[event["pid"]] = event.get("args", {}).get(
                    "name", str(event["pid"])
                )
        spans = []
        for event in document.get("traceEvents", []):
            if event.get("ph") != "X":
                continue
            spans.append(
                {
                    "name": event.get("name", "?"),
                    "cat": event.get("cat", "run"),
                    "proc": pid_names.get(event.get("pid"), "?"),
                    "tid": event.get("tid", 0),
                    "ts": event.get("ts", 0.0) / 1e6,
                    "dur": event.get("dur", 0.0) / 1e6,
                    "attrs": event.get("args") or {},
                }
            )
        return spans
    _meta, records = read_shard(path)
    return records


def phase_breakdown(
    spans: List[Dict[str, Any]], by_process: bool = False
) -> List[List[Any]]:
    """Aggregate rows: [phase, count, total_s, mean_ms, share%]."""
    if not spans:
        return []
    wall = max(s["ts"] + s["dur"] for s in spans) - min(
        s["ts"] for s in spans
    )
    groups: Dict[Any, List[float]] = {}
    for span in spans:
        key = (
            (span.get("proc", "?"), span["name"])
            if by_process
            else span["name"]
        )
        groups.setdefault(key, []).append(span["dur"])
    rows: List[List[Any]] = []
    for key, durations in groups.items():
        total = sum(durations)
        label = f"{key[0]}:{key[1]}" if by_process else key
        rows.append(
            [
                label,
                len(durations),
                round(total, 4),
                round(1e3 * total / len(durations), 3),
                f"{100 * total / wall:.1f}%" if wall else "-",
            ]
        )
    rows.sort(key=lambda row: -row[2])
    return rows


REPORT_HEADERS = ["phase", "count", "total-s", "mean-ms", "share"]


def rpc_supervision(spans: List[Dict[str, Any]]) -> List[List[Any]]:
    """Per-worker RPC supervision rows: calls, retries, timeouts, drops.

    Aggregates the proxy-side ``rpc.*`` spans: the socket channel stamps
    each span with its transport attempts (``transport_retries``) and
    terminal failure type (``transport_failure``), so the table shows
    where the retry budget went worker by worker.
    """
    stats: Dict[Any, Dict[str, int]] = {}
    for span in spans:
        if not span["name"].startswith("rpc."):
            continue
        attrs = span.get("attrs") or {}
        if "worker" not in attrs:
            continue
        entry = stats.setdefault(
            attrs["worker"],
            {"calls": 0, "retries": 0, "timeouts": 0, "conn_lost": 0},
        )
        entry["calls"] += 1
        entry["retries"] += int(attrs.get("transport_retries", 0) or 0)
        failure = attrs.get("transport_failure")
        if failure == "RpcTimeoutError":
            entry["timeouts"] += 1
        elif failure == "ConnectionLostError":
            entry["conn_lost"] += 1
    return [
        [
            f"worker{worker}",
            entry["calls"],
            entry["retries"],
            entry["timeouts"],
            entry["conn_lost"],
        ]
        for worker, entry in sorted(stats.items(), key=lambda kv: str(kv[0]))
    ]


RPC_HEADERS = ["worker", "rpc-calls", "retries", "timeouts", "conn-lost"]


def round_reuse(spans: List[Dict[str, Any]]) -> Optional[str]:
    """One line on change-driven BGP rounds, from the worker spans.

    ``worker.exports`` carries how many session exports were recomputed
    and how many were carried over unchanged; ``worker.pull`` how many
    session imports were skipped because the advertisement was the
    object already merged.  Both carry how many per-prefix route
    transforms ran and how many reused the previous output.  None when
    the trace has no export spans.
    """
    totals = {
        "computed": 0, "reused": 0, "imports_skipped": 0,
        "transforms_computed": 0, "transforms_reused": 0,
    }
    for span in spans:
        if span["name"] in ("worker.exports", "worker.pull"):
            attrs = span.get("attrs") or {}
            for key in totals:
                totals[key] += int(attrs.get(key, 0) or 0)
    exports = totals["computed"] + totals["reused"]
    transforms = totals["transforms_computed"] + totals["transforms_reused"]
    if not exports:
        return None
    return (
        f"change-driven rounds: {totals['reused']} of {exports} session "
        f"exports reused, {totals['imports_skipped']} imports skipped, "
        f"{totals['transforms_reused']} of {transforms} route transforms "
        "reused"
    )


def warm_dataplane(spans: List[Dict[str, Any]]) -> Optional[str]:
    """One line on the warm data plane, from the ``dpo.engine_metrics``
    spans.

    Each completed query closes with one; it carries how many worker
    query boundaries collected their engine and how many received
    payloads the receive memo resolved.  None when the trace has no
    completed query.
    """
    queries = collections = reused = 0
    for span in spans:
        if span["name"] == "dpo.engine_metrics":
            attrs = span.get("attrs") or {}
            queries += 1
            collections += int(attrs.get("boundary_collections", 0) or 0)
            reused += int(attrs.get("payloads_reused", 0) or 0)
    if not queries:
        return None
    return (
        f"warm data plane: {collections} boundary collections over "
        f"{queries} queries, {reused} received payloads reused"
    )


def class_closure(spans: List[Dict[str, Any]]) -> Optional[str]:
    """One line on reachability by destination-class closure, from the
    ``dpo.closure`` spans.

    Each reachability check without waypoint bits opens one; it carries
    the classes its header touched, their groups of equal actions, the
    pairs closure answered, and the ACL-touched classes left to symbolic
    forwarding.  None when the trace has no closure span.
    """
    totals = {"classes": 0, "groups": 0, "pairs": 0, "symbolic_classes": 0}
    checks = 0
    for span in spans:
        if span["name"] == "dpo.closure":
            attrs = span.get("attrs") or {}
            checks += 1
            for key in totals:
                totals[key] += int(attrs.get(key, 0) or 0)
    if not checks:
        return None
    return (
        f"class closure: {totals['pairs']} pairs over {checks} checks from "
        f"{totals['classes']} classes in {totals['groups']} groups, "
        f"{totals['symbolic_classes']} ACL-touched classes forwarded "
        "symbolically"
    )


def store_metadata(spans: List[Dict[str, Any]]) -> Optional[str]:
    """One line on the route store's metadata operations, from the
    ``controller.finalize`` span a closing controller emits (the last
    one, when a trace holds several runs).  None without one."""
    attrs = None
    for span in spans:
        if span["name"] == "controller.finalize":
            attrs = span.get("attrs") or {}
    if attrs is None or "storage_durable_writes" not in attrs:
        return None
    return (
        f"store metadata: {attrs['storage_durable_writes']} durable writes "
        f"({attrs['storage_controller_writes']} by the controller, "
        f"{attrs['storage_worker_writes']} worker shard files), "
        f"{attrs['storage_unlinks']} unlinks"
    )


def render_report(
    path: str,
    by_process: bool = False,
    top: Optional[int] = None,
    category: Optional[str] = None,
) -> str:
    """The ``repro report`` table for a trace file/shard/directory."""
    from ..harness.reporting import format_table  # local: avoids a cycle

    spans = load_spans(path)
    if category:
        spans = [s for s in spans if s.get("cat", "run") == category]
    if not spans:
        return f"no spans found in {path}"
    rows = phase_breakdown(spans, by_process=by_process)
    if top:
        rows = rows[:top]
    wall = max(s["ts"] + s["dur"] for s in spans) - min(
        s["ts"] for s in spans
    )
    processes = sorted({s.get("proc", "?") for s in spans})
    title = (
        f"{len(spans)} spans over {wall:.3f}s across "
        f"{len(processes)} participants ({', '.join(processes)})"
    )
    report = format_table(REPORT_HEADERS, rows, title=title)
    for line in (
        round_reuse(spans),
        warm_dataplane(spans),
        class_closure(spans),
        store_metadata(spans),
    ):
        if line:
            report += "\n" + line
    rpc_rows = rpc_supervision(spans)
    if rpc_rows:
        report += "\n\n" + format_table(
            RPC_HEADERS, rpc_rows, title="rpc supervision (per worker)"
        )
    return report


JOURNAL_HEADERS = ["seq", "time", "kind", "details"]


def render_journal(events, top: Optional[int] = None) -> str:
    """The ``repro report --journal`` table for a serve session journal.

    Accepts :class:`~repro.obs.journal.JournalEvent` objects (from
    ``read_journal``) or plain event dicts (from an ``eventsz`` reply).
    """
    import time as _time

    from ..harness.reporting import format_table  # local: avoids a cycle

    if not events:
        return "journal is empty"
    records = [
        event.to_dict() if hasattr(event, "to_dict") else dict(event)
        for event in events
    ]
    if top:
        records = records[-top:]
    rows: List[List[Any]] = []
    for record in records:
        attrs = {
            key: value
            for key, value in (record.get("attrs") or {}).items()
            if value is not None
        }
        details = " ".join(
            f"{key}={value}" for key, value in sorted(attrs.items())
        )
        rows.append(
            [
                record.get("seq", "?"),
                _time.strftime(
                    "%H:%M:%S", _time.localtime(record.get("ts", 0))
                ),
                record.get("kind", "?"),
                details[:72],
            ]
        )
    kinds: Dict[str, int] = {}
    for record in records:
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    missing = 0
    previous = None
    for record in records:
        seq = record.get("seq")
        if isinstance(seq, int):
            if previous is not None and seq > previous + 1:
                missing += seq - previous - 1
            previous = seq
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(kinds.items())
    )
    title = f"{len(records)} events ({summary})"
    if missing:
        title += f" — {missing} missing seq (trimmed or torn)"
    report = format_table(JOURNAL_HEADERS, rows, title=title)
    capacity = capacity_summary(records)
    if capacity:
        report += "\n" + capacity
    return report


def capacity_summary(records) -> Optional[str]:
    """One degraded-capacity line from the loss/rebalance journal kinds.

    Replays ``worker_lost`` / ``worker_rejoined`` to the current lost
    set and totals the shard files moved by ``shard_reassigned``; None
    when the journal never saw a capacity change.
    """
    lost: set = set()
    losses = reassigned = rebalances = 0
    for record in records:
        if hasattr(record, "to_dict"):
            record = record.to_dict()
        kind = record.get("kind")
        attrs = record.get("attrs") or {}
        if kind == "worker_lost":
            losses += 1
            lost.add(attrs.get("worker"))
        elif kind == "worker_rejoined":
            rebalances += 1
            lost.discard(attrs.get("worker"))
        elif kind == "shard_reassigned":
            reassigned += int(attrs.get("shards", 0) or 0)
    if not (losses or rebalances):
        return None
    still = (
        ", ".join(f"worker{wid}" for wid in sorted(lost, key=str))
        if lost
        else "none"
    )
    return (
        f"degraded capacity: {losses} loss(es), "
        f"{reassigned} shard file(s) reassigned, "
        f"{rebalances} rebalance(s); currently lost: {still}"
    )
