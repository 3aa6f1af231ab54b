"""Live observability: worker status, journal, OpenMetrics, repro top.

Unit coverage for the ``repro.obs`` pieces (bounded journal, reservoir
histograms, the read-time fold of worker statuses into gauges,
exposition-format rendering) plus end-to-end checks: a serving session
stays observable across a forced worker respawn, torn replies under
chaos faults never poison the gauges, a scrape thread can read a live
in-process fleet, and ``repro top`` renders a live session without a
TTY.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.request

import pytest

from repro.dist.controller import S2Options
from repro.obs.journal import (
    EventJournal,
    JournalEvent,
    journal_gaps,
    read_journal,
)
from repro.obs.metrics import MetricsRegistry, fold_statuses
from repro.obs.openmetrics import (
    MetricsHTTPServer,
    render_openmetrics,
    sanitize_metric_name,
    validate_openmetrics,
)
from repro.obs.top import render_top, run_top


# -- journal ---------------------------------------------------------------


def test_journal_orders_and_replays():
    journal = EventJournal(capacity=64)
    journal.record("boot", warm=False)
    journal.record("epoch_commit", epoch=1)
    journal.record("epoch_commit", epoch=2)
    events = journal.events()
    assert [e.seq for e in events] == [1, 2, 3]
    assert [e.kind for e in events] == ["boot", "epoch_commit", "epoch_commit"]
    assert journal.events(since=2) == events[2:]
    # limit keeps the newest matching records
    assert [e.seq for e in journal.events(limit=2)] == [2, 3]
    assert journal_gaps(events) == []


def test_journal_rejects_unknown_kinds():
    journal = EventJournal()
    with pytest.raises(ValueError):
        journal.record("made_up_kind")


def test_journal_bounds_memory_and_counts_drops():
    journal = EventJournal(capacity=10)
    for epoch in range(25):
        journal.record("epoch_commit", epoch=epoch)
    events = journal.events()
    assert len(events) == 10
    assert journal.dropped == 15
    assert journal.first_seq == 16
    assert journal.last_seq == 25
    # seq is never reused: the retained window is contiguous
    assert [e.seq for e in events] == list(range(16, 26))
    describe = journal.describe()
    assert describe["retained"] == 10
    assert describe["dropped"] == 15


def test_journal_sink_round_trips_and_skips_torn_lines(tmp_path):
    sink = tmp_path / "journal.jsonl"
    journal = EventJournal(capacity=4, sink_path=str(sink))
    for epoch in range(8):
        journal.record("epoch_commit", epoch=epoch)
    journal.close()
    # the sink keeps everything, even what the ring dropped
    events = read_journal(str(sink))
    assert [e.seq for e in events] == list(range(1, 9))
    assert journal_gaps(events) == []
    # a torn tail (process died mid-write) is skipped, not fatal
    with open(sink, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 9, "ts": 1.0, "ki')
    assert [e.seq for e in read_journal(str(sink))] == list(range(1, 9))


def test_journal_gaps_reports_missing_seq():
    events = [
        JournalEvent(seq=s, ts=0.0, kind="epoch_commit") for s in (1, 2, 5, 6)
    ]
    assert journal_gaps(events) == [3, 4]


# -- reservoir histogram ---------------------------------------------------


def test_histogram_exact_below_cap():
    registry = MetricsRegistry()
    hist = registry.histogram("h")
    for value in range(100):
        hist.observe(float(value))
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["sum"] == pytest.approx(sum(range(100)))
    assert summary["min"] == 0 and summary["max"] == 99
    assert "sampled" not in summary


def test_histogram_memory_is_bounded_above_cap():
    registry = MetricsRegistry()
    hist = registry.histogram("h")
    n = hist._cap
    total = n + 5000
    for value in range(total):
        hist.observe(float(value))
    assert len(hist.values) == n          # bounded
    assert hist.count == total            # exact
    assert hist.total == pytest.approx(sum(range(total)))
    assert hist.summary()["sampled"] is True
    # the approximation stays sane: p50 of a uniform ramp is near mid
    p50 = hist.percentile(50)
    assert total * 0.3 < p50 < total * 0.7


# -- worker status fold -----------------------------------------------------


def _status(epoch=1, **fields):
    return {
        "epoch": epoch,
        "round": 2,
        "phase": "pull_round",
        "bdd_nodes": 10,
        "respawns": 0,
        "lost": False,
        **fields,
    }


def test_collector_folds_frames_into_worker_gauges():
    registry = MetricsRegistry()
    registry.counter("serve.deltas").inc()
    snapshot = fold_statuses(registry.snapshot(), {"worker1": _status()})
    assert snapshot["gauges"]["worker1.bdd_nodes"]["value"] == 10
    assert snapshot["gauges"]["worker1.epoch"]["value"] == 1
    assert snapshot["counters"]["serve.deltas"] == 1
    # the phase is a string: it stays in the status, out of the gauges
    assert "worker1.phase" not in snapshot["gauges"]
    # the fold happens at read time; the registry holds no worker gauge
    assert not any(
        name.startswith("worker") for name in registry.snapshot()["gauges"]
    )


# -- openmetrics -----------------------------------------------------------


def test_render_openmetrics_is_valid_and_labels_workers():
    registry = MetricsRegistry()
    registry.counter("telemetry.frames").inc(3)
    registry.set_gauges(
        {
            "serve.epoch": 5,
            "worker0.bdd_nodes": 11,
            "worker1.bdd_nodes": 22,
            "worker1.engine.cache_hit_rate": 0.75,
        }
    )
    hist = registry.histogram("serve.query_latency")
    for value in (0.001, 0.002, 0.003):
        hist.observe(value)
    text = render_openmetrics(registry.snapshot())
    assert validate_openmetrics(text) == [], text
    assert "# TYPE s2_telemetry_frames counter" in text
    assert "s2_telemetry_frames_total 3" in text
    assert 's2_worker_bdd_nodes{worker="0"} 11' in text
    assert 's2_worker_bdd_nodes{worker="1"} 22' in text
    assert 's2_worker_engine_cache_hit_rate{worker="1"} 0.75' in text
    assert "# TYPE s2_serve_query_latency summary" in text
    assert "s2_serve_query_latency_count 3" in text
    assert 's2_serve_query_latency{quantile="0.5"}' in text
    assert text.endswith("# EOF\n")
    # one TYPE line per family even with many labelled samples
    assert text.count("# TYPE s2_worker_bdd_nodes gauge") == 1


def test_validate_openmetrics_catches_malformations():
    assert validate_openmetrics("") != []
    assert validate_openmetrics("s2_x 1\n# EOF\n") != []  # no TYPE
    assert validate_openmetrics("# TYPE s2_x counter\ns2_x 1\n# EOF\n") != []
    assert (
        validate_openmetrics("# TYPE s2_x gauge\ns2_x notanumber\n# EOF\n")
        != []
    )
    assert validate_openmetrics("# TYPE s2_x gauge\ns2_x 1\n") != []  # no EOF
    assert (
        validate_openmetrics("# TYPE s2_x gauge\ns2_x 1\n# EOF\njunk\n") != []
    )
    ok = "# TYPE s2_x counter\ns2_x_total 1\n# EOF\n"
    assert validate_openmetrics(ok) == []


def test_sanitize_metric_name():
    assert sanitize_metric_name("serve.query_latency") == (
        "s2_serve_query_latency"
    )
    assert sanitize_metric_name("rpc.bytes-sent") == "s2_rpc_bytes_sent"


def test_metrics_http_server_scrapes():
    registry = MetricsRegistry()
    registry.counter("telemetry.frames").inc()
    journal = EventJournal()
    journal.record("boot", warm=False)
    journal.record("epoch_commit", epoch=1)
    server = MetricsHTTPServer(
        registry.snapshot,
        journal=journal,
        status_fn=lambda: {"status": "serving"},
    )
    base = f"http://{server.address}"
    try:
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as reply:
            text = reply.read().decode("utf-8")
        assert validate_openmetrics(text) == [], text
        with urllib.request.urlopen(
            f"{base}/eventsz?since=1", timeout=10
        ) as reply:
            payload = json.loads(reply.read())
        assert payload["journal"]["last_seq"] == 2
        assert [e["seq"] for e in payload["events"]] == [2]
        with urllib.request.urlopen(f"{base}/statusz", timeout=10) as reply:
            assert json.loads(reply.read())["status"] == "serving"
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as reply:
            assert json.loads(reply.read())["ok"] is True
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/nope", timeout=10)
    finally:
        server.close()


# -- torn/partitioned telemetry under chaos --------------------------------


def test_telemetry_survives_socket_chaos(fattree4):
    """Torn frames and a partition on the very RPCs whose replies carry
    worker statuses: the run must still converge, and whatever statuses
    did get through must fold into numeric gauges."""
    from repro import FaultPlan, FaultSpec, RetryPolicy, S2Verifier

    plan = FaultPlan(
        [
            FaultSpec(kind="torn_frame", worker=0, command="step", round=0),
            FaultSpec(
                kind="partition",
                worker=1,
                command="step",
                round=1,
                where="response",
                heal_after=2,
            ),
        ]
    )
    options = S2Options(
        num_workers=3,
        num_shards=2,
        runtime="socket",
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.01),
    )
    with S2Verifier(fattree4, options) as verifier:
        result = verifier.verify()
        snapshot = verifier.controller.metrics_snapshot()
    assert result.status == "ok"
    assert snapshot["telemetry"]["frames"] > 0
    # every folded gauge is numeric — nothing torn leaked through
    for name, payload in snapshot["gauges"].items():
        if name.startswith("worker"):
            assert isinstance(payload["value"], (int, float)), name
    text = render_openmetrics(snapshot)
    assert validate_openmetrics(text) == [], text


def test_scrape_thread_reads_a_live_in_process_fleet(fattree4):
    """What ``repro verify --metrics-listen`` does: a scrape thread
    renders the controller's metrics while a sequential-runtime verify
    mutates the very workers whose statuses it folds."""
    from repro import S2Verifier

    done = threading.Event()
    scrapes = []
    problems = []

    def scrape(controller):
        while not done.is_set():
            try:
                snapshot = controller.metrics_snapshot()
                scrapes.append(render_openmetrics(snapshot))
            except Exception as exc:  # noqa: BLE001 — the assertion
                problems.append(repr(exc))
                continue
            problems.extend(
                name
                for name, payload in snapshot["gauges"].items()
                if name.startswith("worker")
                and not isinstance(payload["value"], (int, float))
            )
            done.wait(0.002)

    with S2Verifier(fattree4, S2Options(num_workers=4)) as verifier:
        controller = verifier.controller
        thread = threading.Thread(target=scrape, args=(controller,))
        thread.start()
        try:
            result = verifier.verify()
        finally:
            done.set()
            thread.join(timeout=30)
        final = render_openmetrics(controller.metrics_snapshot())
    assert result.status == "ok"
    assert problems == []
    assert scrapes
    assert all(validate_openmetrics(text) == [] for text in scrapes)
    assert 's2_worker_engine_node_count{worker="3"}' in final


# -- end-to-end: serve session observability -------------------------------


@pytest.fixture(scope="module")
def observed_session(fattree4):
    """A socket-runtime serving session plus its line-JSON server — the
    fixture behind the end-to-end assertions."""
    from repro.serve.api import SessionServer
    from repro.serve.session import VerifierSession

    session = VerifierSession(
        fattree4,
        S2Options(num_workers=2, num_shards=4, runtime="socket"),
        warm_boot=False,
    )
    server = SessionServer(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield session, server
    finally:
        server.stop()
        thread.join(timeout=10)
        session.close()


def test_serve_session_streams_frames_and_journals(observed_session):
    session, server = observed_session
    link = next(iter(session.snapshot.topology.links()))
    from repro.serve.deltas import LinkDelta

    session.apply_delta(
        LinkDelta(a=link.a.node, b=link.b.node, up=False), timeout=300
    )
    # statusz carries every worker's latest status from the socket runtime
    status = server.handle({"op": "statusz"})
    assert status["ok"]
    workers = status["worker_health"]["workers"]
    assert sorted(workers) == ["worker0", "worker1"]
    for worker in workers.values():
        assert worker["epoch"] == session.epoch
        # Built, and empty: closure compiles no predicate.
        assert worker["engine.node_count"] == 2
        assert worker["age_seconds"] >= 0 and not worker["lost"]
    assert "frames" not in status
    assert status["journal"]["last_seq"] >= 2
    assert status["last_commit_ts"] is not None
    # the journal recorded the boot, the classification, and the commits
    events = server.handle({"op": "eventsz"})
    assert events["ok"]
    kinds = [e["kind"] for e in events["events"]]
    assert kinds[0] == "boot"
    assert "delta_classified" in kinds
    assert kinds.count("epoch_commit") >= 2
    seqs = [e["seq"] for e in events["events"]]
    assert seqs == sorted(seqs)
    # the metrics op serves valid OpenMetrics with worker series
    metrics = server.handle({"op": "metrics"})
    assert metrics["ok"]
    assert validate_openmetrics(metrics["text"]) == []
    assert 's2_worker_bdd_nodes{worker="0"}' in metrics["text"]
    assert "s2_serve_epoch" in metrics["text"]


def test_eventsz_replays_in_order_across_worker_respawn(observed_session):
    session, server = observed_session
    before = server.handle({"op": "eventsz"})["journal"]["last_seq"]
    # force a respawn: kill one worker process, then commit an epoch
    session._controller._pool.proxies[1]._process.kill()
    link = next(iter(session.snapshot.topology.links()))
    from repro.serve.deltas import LinkDelta

    session.apply_delta(
        LinkDelta(a=link.a.node, b=link.b.node, up=False), timeout=300
    )
    reply = server.handle({"op": "eventsz", "since": before})
    assert reply["ok"]
    kinds = [e["kind"] for e in reply["events"]]
    assert "worker_respawn" in kinds
    assert "epoch_commit" in kinds
    seqs = [e["seq"] for e in reply["events"]]
    assert seqs == list(range(before + 1, before + 1 + len(seqs)))
    # the respawned worker reports again: its status is current, at the
    # committed epoch, and counts the respawn
    status = server.handle({"op": "statusz"})
    respawned = status["worker_health"]["workers"]["worker1"]
    assert respawned["respawns"] >= 1
    assert respawned["epoch"] == session.epoch
    assert not respawned["lost"]


def test_health_is_machine_monitorable(observed_session):
    session, server = observed_session
    session.query(*sorted(session.reachability().endpoints)[:2])
    health = server.handle({"op": "health"})
    assert health["ok"]
    assert health["status"] in ("serving", "recomputing")
    assert health["journal"]["last_seq"] >= 1
    assert health["last_commit_age_seconds"] >= 0
    assert "recoveries" in health["worker_health"]
    status = server.handle({"op": "statusz"})
    assert status["query_latency"]["count"] >= 1


def test_draining_is_a_distinct_refusal(observed_session):
    session, server = observed_session
    from repro.serve.deltas import LinkDelta

    link = next(iter(session.snapshot.topology.links()))
    delta = LinkDelta(a=link.a.node, b=link.b.node, up=False)
    session._closed = True
    session._draining = True
    try:
        draining = server.handle(
            {"op": "delta", "kind": "link", "a": link.a.node, "b": link.b.node}
        )
        assert draining["error"] == "draining"
        session._draining = False
        closed = server.handle(
            {"op": "delta", "kind": "link", "a": link.a.node, "b": link.b.node}
        )
        assert closed["error"] == "closed"
    finally:
        session._closed = False
        session._draining = False
    # reopened: the same delta goes through the normal path
    assert session.submit_delta(delta).result(300).epoch == session.epoch


def test_top_renders_against_live_session(observed_session):
    _session, server = observed_session
    out = io.StringIO()  # StringIO has no isatty → non-TTY fallback
    code = run_top(server.host, server.port, interval=0.01, out=out)
    assert code == 0
    frame = out.getvalue()
    assert frame.count("repro top —") == 1  # non-TTY default: one shot
    assert "\x1b[" not in frame             # no ANSI without a TTY
    assert "WORKER" in frame and "worker0" in frame
    assert "events (last" in frame
    assert "epoch_commit" in frame


def test_top_reports_unreachable_session():
    assert run_top("127.0.0.1", 1, interval=0.01, out=io.StringIO()) == 1


def test_render_top_is_pure():
    status = {
        "status": "serving",
        "snapshot": "ft4",
        "epoch": 3,
        "queue_depth": 0,
        "runtime": "socket",
        "workers": 2,
        "journal": {"last_seq": 7, "dropped": 0},
        "last_commit_age_seconds": 1.5,
        "query_latency": {"count": 10, "p50": 0.001, "p99": 0.004},
        "worker_health": {
            "workers": {
                "worker0": _status(age_seconds=0.2),
                "worker1": _status(current_bytes=3 << 20),
                "worker2": _status(epoch=2, lost=True),
            },
        },
    }
    events = [
        {"seq": 7, "ts": time.time(), "kind": "epoch_commit",
         "attrs": {"epoch": 3}},
    ]
    text = render_top(status, events)
    assert "[serving]" in text and "epoch=3" in text
    rows = {
        line.split()[0]: line
        for line in text.splitlines()
        if line.startswith("worker")
    }
    assert sorted(rows) == ["worker0", "worker1", "worker2"]
    assert rows["worker2"].endswith("LOST")
    assert "LOST" not in rows["worker0"] + rows["worker1"]
    assert "3.0MiB" in rows["worker1"]
    assert "p50=1.0ms" in text
    assert "#   7" in text and "epoch_commit" in text
    # render is a pure function of its inputs
    assert text == render_top(status, events)
