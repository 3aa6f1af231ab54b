"""Tests for the observability layer (``repro.obs``).

Covers the tracer's span nesting and no-op guard, metrics percentiles,
shard merging (including torn lines and respawned-worker incarnations),
the traced process-runtime pipeline with cross-process RPC stitching,
and the ``repro report`` CLI round-trip.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bdd.engine import TRUE
from repro.cli import main
from repro.dist.controller import S2Controller, S2Options
from repro.net.fattree import FatTreeSpec, render_configs
from repro.obs.merge import (
    chrome_events,
    merge_shards,
    read_shard,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_spans, phase_breakdown, render_report
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    SCHEMA_VERSION,
    Tracer,
    stopwatch,
)
from repro.serve import ConfigTextDelta, VerifierSession


class FakeClock:
    """A deterministic monotonically advancing clock."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer(process="t", clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        names = [r.name for r in tracer.records]
        # spans are recorded at *exit*: innermost first
        assert names == ["inner", "mid", "sibling", "outer"]
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].parent_id is None
        assert by_name["mid"].parent_id == outer.span_id
        assert by_name["inner"].parent_id == mid.span_id
        assert by_name["sibling"].parent_id == outer.span_id

    def test_span_timing_and_attrs(self):
        tracer = Tracer(process="t", clock=FakeClock(step=2.0))
        with tracer.span("work", category="cpo", shard=3) as span:
            span.set(rounds=7)
        record = tracer.records[0]
        assert record.duration == pytest.approx(2.0)
        assert record.category == "cpo"
        assert record.attrs == {"shard": 3, "rounds": 7}

    def test_instant_marker_inherits_parent(self):
        tracer = Tracer(process="t", clock=FakeClock())
        with tracer.span("outer") as outer:
            tracer.instant("fault.injected", kind="crash")
        marker = next(r for r in tracer.records if r.duration == 0.0)
        assert marker.name == "fault.injected"
        assert marker.parent_id == outer.span_id
        assert marker.attrs == {"kind": "crash"}

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(process="t", enabled=False)
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        with span as entered:
            entered.set(more="attrs")
        tracer.instant("nothing")
        assert tracer.records == []

    def test_null_tracer_shared_singletons(self):
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.span("y") is NULL_SPAN
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.records == []

    def test_sink_writes_meta_then_flushed_spans(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        tracer = Tracer(process="worker0", sink=path, incarnation=2)
        with tracer.span("a"):
            pass
        # flushed per span: readable before finish()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
        ]
        assert lines[0]["type"] == "meta"
        assert lines[0]["schema"] == SCHEMA_VERSION
        assert lines[0]["process"] == "worker0"
        assert lines[0]["incarnation"] == 2
        assert lines[1]["type"] == "span"
        assert lines[1]["name"] == "a"
        tracer.finish()
        tracer.finish()  # idempotent

    def test_export_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(process="t", clock=FakeClock())
        with tracer.span("only"):
            pass
        path = str(tmp_path / "out.jsonl")
        assert tracer.export_jsonl(path) == 1
        meta, records = read_shard(path)
        assert meta["process"] == "t"
        assert [r["name"] for r in records] == ["only"]


class TestStopwatch:
    def test_measures_block(self):
        clock = FakeClock(step=1.0)
        with stopwatch(clock=clock) as timer:
            pass
        assert timer.seconds == pytest.approx(1.0)
        # stays frozen after exit
        assert timer.seconds == pytest.approx(1.0)

    def test_reads_live_without_with(self):
        clock = FakeClock(step=1.0)
        timer = stopwatch(clock=clock)
        assert timer.seconds == pytest.approx(1.0)


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        gauge = registry.gauge("g")
        gauge.set(10.0)
        gauge.set(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == {"value": 3.0, "high_water": 10.0}

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(95) == pytest.approx(95.05)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentile(99) == 0.0
        assert hist.summary() == {"count": 0}

    def test_reservoir_sampling_is_unbiased(self):
        """Audit of the Algorithm-R indexing in ``Histogram.observe``:
        over a 50k-observation stream the reservoir's quantiles must
        track the exact quantiles of the full stream.  An off-by-one in
        the replacement draw (``randrange`` over the pre-increment
        count, or an ``n-1`` denominator) skews retention toward late
        arrivals; on a sorted ramp that shifts every quantile, which
        this tolerance catches.
        """
        import random as _random

        registry = MetricsRegistry()
        hist = registry.histogram("reservoir-audit")
        rng = _random.Random(0xA1B2)
        # A sorted ramp is the adversarial stream for reservoir bias:
        # arrival order correlates perfectly with value, so any
        # preference for early/late observations shifts the quantiles.
        stream = [float(i) for i in range(50_000)]
        exact = sorted(stream)
        order = list(stream)
        rng.shuffle(order)  # one shuffled pass too: both must hold
        for passes, values in (("sorted", stream), ("shuffled", order)):
            hist = registry.histogram(f"reservoir-{passes}")
            for value in values:
                hist.observe(value)
            assert hist.count == len(values)
            assert hist.sampled
            n = len(exact)
            for p in (10, 25, 50, 75, 90, 99):
                got = hist.percentile(p)
                want = exact[min(n - 1, int(round(p / 100 * (n - 1))))]
                # Reservoir of RESERVOIR_SIZE samples: the standard
                # error of an order statistic at 50k/1k is a few
                # percentile points; 5 points of slack is ~5 sigma.
                assert abs(got - want) <= 0.05 * n, (
                    f"{passes} stream p{p}: reservoir {got} vs "
                    f"exact {want}"
                )
            # min/max/mean/sum are tracked exactly, outside the sample.
            summary = hist.summary()
            assert summary["min"] == 0.0
            assert summary["max"] == float(n - 1)
            assert summary["mean"] == pytest.approx((n - 1) / 2.0)

    def test_write_json_with_extra(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = str(tmp_path / "metrics.json")
        registry.write_json(path, extra={"runtime": "socket"})
        payload = json.load(open(path, encoding="utf-8"))
        assert payload["counters"]["c"] == 1
        assert payload["runtime"] == "socket"


class TestMerge:
    def _shard(self, tmp_path, filename, process, incarnation, spans):
        tracer = Tracer(
            process=process,
            sink=str(tmp_path / filename),
            incarnation=incarnation,
            clock=FakeClock(),
        )
        for name, kwargs in spans:
            with tracer.span(name, **kwargs):
                pass
        tracer.finish()

    def test_merge_tolerates_torn_final_line(self, tmp_path):
        self._shard(tmp_path, "worker0.0.jsonl", "worker0", 0, [("ok", {})])
        with open(tmp_path / "worker0.0.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn')  # killed mid-write
        out = str(tmp_path / "trace.json")
        stats = merge_shards(str(tmp_path), out)
        assert stats["spans"] == 1
        assert validate_chrome_trace(out) == []

    def test_respawned_worker_merges_onto_same_track(self, tmp_path):
        self._shard(tmp_path, "controller.jsonl", "controller", 0, [("run", {})])
        self._shard(tmp_path, "worker0.0.jsonl", "worker0", 0, [("a", {})])
        self._shard(tmp_path, "worker0.1.jsonl", "worker0", 1, [("b", {})])
        out = str(tmp_path / "trace.json")
        stats = merge_shards(str(tmp_path), out, run_metadata={"k": 4})
        assert stats["spans"] == 3
        assert stats["processes"] == 2  # both incarnations share worker0
        document = json.load(open(out, encoding="utf-8"))
        assert document["otherData"] == {"k": 4}
        names = {
            e["args"]["name"]: e["pid"]
            for e in document["traceEvents"]
            if e["ph"] == "M"
        }
        assert names["controller"] == 0  # controller is always track 0
        respawned = [
            e for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "b"
        ]
        assert respawned[0]["pid"] == names["worker0"]
        assert respawned[0]["args"]["incarnation"] == 1

    def test_flow_events_pair_caller_and_callee(self, tmp_path):
        caller = Tracer(process="controller", clock=FakeClock())
        with caller.span("rpc.pull", category="rpc", flow_id=7, flow="out"):
            pass
        callee = Tracer(process="worker0", clock=FakeClock())
        with callee.span("handle.pull", category="rpc", flow_id=7, flow="in"):
            pass
        records = [r.as_line() for r in caller.records + callee.records]
        for record in records:
            record.setdefault("incarnation", 0)
        events = chrome_events(records)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"] == 7
        assert finishes[0]["bp"] == "e"
        assert starts[0]["pid"] != finishes[0]["pid"]

    def test_validate_rejects_malformed(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "traceEvents": [
                        {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
                        {"ph": "X", "name": "y", "pid": 0, "tid": 0,
                         "ts": "oops", "dur": -1},
                        {"ph": "s", "name": "flow", "pid": 0, "tid": 0},
                    ]
                },
                fh,
            )
        problems = validate_chrome_trace(path)
        assert len(problems) == 4  # bad phase, bad ts, bad dur, id-less flow
        assert validate_chrome_trace(str(tmp_path / "missing.json"))


class TestTracedPipeline:
    def test_socket_runtime_trace_end_to_end(self, fattree4, tmp_path):
        trace_out = str(tmp_path / "trace.json")
        metrics_out = str(tmp_path / "metrics.json")
        options = S2Options(
            num_workers=2,
            num_shards=2,
            runtime="socket",
            trace_out=trace_out,
            metrics_out=metrics_out,
        )
        with S2Controller(fattree4, options) as controller:
            controller.run_control_plane()
            controller.checker()
            # A symbolic packet compiles its devices' predicates.
            controller.dpo.forward(["edge-0-0"], TRUE)
        assert validate_chrome_trace(trace_out) == []
        document = json.load(open(trace_out, encoding="utf-8"))
        events = document["traceEvents"]
        tracks = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert tracks == {"controller", "worker0", "worker1"}
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"cpo.run", "cpo.step", "rpc.step", "handle.step",
                "worker.exports", "worker.pull",
                "dpo.build", "bdd.compile"} <= names
        # every flow start has a matching finish (no faults injected),
        # the step calls included
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and starts == finishes
        # metrics landed with pipeline counters and worker stats
        payload = json.load(open(metrics_out, encoding="utf-8"))
        assert payload["counters"]["cpo.bgp_rounds"] > 0
        assert payload["counters"]["rpc.bytes_sent"] > 0
        assert len(payload["workers"]) == 2

    def test_in_process_trace_shards(self, fattree4, tmp_path):
        trace_out = str(tmp_path / "trace.json")
        options = S2Options(
            num_workers=2, num_shards=2, trace_out=trace_out
        )
        with S2Controller(fattree4, options) as controller:
            controller.run_control_plane()
        shard_dir = trace_out + ".shards"
        shards = sorted(os.listdir(shard_dir))
        assert shards == [
            "controller.jsonl", "worker0.0.jsonl", "worker1.0.jsonl"
        ]
        spans = load_spans(shard_dir)
        assert any(s["name"] == "worker.exports" for s in spans)

    def test_tracing_disabled_leaves_no_artifacts(self, fattree4, tmp_path):
        with S2Controller(fattree4, S2Options(num_workers=2)) as controller:
            controller.run_control_plane()
            assert controller.tracer is NULL_TRACER
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def _trace(self, tmp_path):
        tracer = Tracer(process="controller", clock=FakeClock())
        with tracer.span("verify"):
            with tracer.span("cpo.round", category="cpo"):
                pass
            with tracer.span("cpo.round", category="cpo"):
                pass
        path = str(tmp_path / "shard.jsonl")
        tracer.export_jsonl(path)
        return path

    def test_phase_breakdown_aggregates_and_sorts(self, tmp_path):
        spans = load_spans(self._trace(tmp_path))
        rows = phase_breakdown(spans)
        assert rows[0][0] == "verify"  # longest phase first
        by_phase = {row[0]: row for row in rows}
        assert by_phase["cpo.round"][1] == 2  # aggregated count

    def test_render_report_by_process_and_category(self, tmp_path):
        path = self._trace(tmp_path)
        table = render_report(path, by_process=True, category="cpo")
        assert "controller:cpo.round" in table
        assert "verify" not in table  # category filter dropped it

    def test_report_cli_round_trip(self, tmp_path, capsys):
        trace_out = str(tmp_path / "trace.json")
        code = main(
            [
                "verify", "fattree", "--k", "4", "--workers", "2",
                "--trace-out", trace_out,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace written to" in out
        assert validate_chrome_trace(trace_out) == []
        # merged Chrome file and the raw shard directory both render
        for target in (trace_out, trace_out + ".shards"):
            assert main(["report", target, "--top", "5"]) == 0
            report = capsys.readouterr().out
            assert "participants" in report
            assert "phase" in report
            assert "exports reused" in report  # change-driven rounds
        assert main(["report", str(tmp_path / "nope.json")]) == 2


class TestStoreMetadata:
    """The route store's durable writes and unlinks, counted on the
    controller: its own store's, plus one worker file per flush reply."""

    def test_cold_run_counts_and_report_line(self, fattree4, tmp_path):
        trace_out = str(tmp_path / "trace.json")
        options = S2Options(
            num_workers=2,
            num_shards=2,
            store_dir=str(tmp_path / "store"),
            trace_out=trace_out,
        )
        with S2Controller(fattree4, options) as controller:
            controller.run_control_plane()
            counts = controller.storage_counts()
            assert controller.metrics_snapshot()["storage"] == counts
        # The manifest at the start, after OSPF and per shard; each
        # worker's OSPF checkpoint; one file per worker and shard.
        assert counts == {
            "durable_writes": 10,
            "controller_writes": 1 + 1 + 2 + 2,
            "worker_writes": 2 * 2,
            "unlinks": 0,
        }
        assert (
            "store metadata: 10 durable writes (6 by the controller, "
            "4 worker shard files), 0 unlinks"
        ) in render_report(trace_out)

    def test_an_announce_counts_its_shards(self, fattree4):
        dialect, text = render_configs(FatTreeSpec(k=4))["edge-0-0"]
        added = text.replace(
            " network 10", " network 203.0.7.0 mask 255.255.255.0\n network 10",
            1,
        )
        assert added != text
        options = S2Options(num_workers=2, num_shards=8)
        with VerifierSession(fattree4, options, warm_boot=False) as session:
            controller = session._controller
            for new_text in (added, text):
                before = controller.storage_counts()
                result = session.apply_delta(
                    ConfigTextDelta("edge-0-0", new_text, dialect), timeout=300
                )
                after = controller.storage_counts()
                moved = {name: after[name] - before[name] for name in after}
                recomputed = result.shards_recomputed
                assert recomputed >= 1
                # The manifest at the start and per recomputed shard, then
                # the commit's manifest and epoch tag; each worker rewrites
                # (and first unlinks) its file of every recomputed shard.
                assert moved == {
                    "durable_writes": 3 + recomputed + 2 * recomputed,
                    "controller_writes": 3 + recomputed,
                    "worker_writes": 2 * recomputed,
                    "unlinks": 2 * recomputed,
                }
