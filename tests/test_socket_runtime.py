"""The socket runtime end to end: TCP workers, chaos, and the CLI.

The distributed claim under test (ISSUE acceptance bar): a FatTree4
verification on the ``socket`` runtime — including one run with a
healing partition, a torn frame, *and* a worker crash — completes with
results bit-identical to the sequential engine, with no hung processes
and the transport counters visible in the metrics snapshot.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, S2Options, S2Verifier
from repro.bdd.engine import TRUE
from repro.dist.controller import S2Controller
from repro.dist.faults import WorkerFailure
from repro.dist.partition import partition
from repro.dist.resources import UNLIMITED_CAPACITY
from repro.dist.service import WorkerService
from repro.dist.socket_runtime import (
    RemoteWorkerError,
    SocketWorkerPool,
    SocketWorkerProxy,
    service_handler,
)
from repro.dist.transport import RpcChannel, RpcServer
from repro.dist.worker import Worker
from repro.obs.report import load_spans

from tests.conftest import normalize_ribs

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _options(**overrides) -> S2Options:
    defaults = dict(num_workers=3, num_shards=2, runtime="socket")
    defaults.update(overrides)
    return S2Options(**defaults)


@pytest.fixture(scope="module")
def baseline(fattree4):
    with S2Verifier(fattree4, S2Options(num_workers=3, num_shards=2)) as v:
        result = v.verify()
        ribs = normalize_ribs(v.collected_ribs())
    assert result.status == "ok"
    return result, ribs


def test_socket_runtime_matches_sequential(fattree4, baseline):
    base_result, base_ribs = baseline
    with S2Verifier(fattree4, _options()) as verifier:
        result = verifier.verify()
        ribs = normalize_ribs(verifier.collected_ribs())
        snapshot = verifier.controller.metrics_snapshot()
    assert result.status == "ok"
    assert result.reachable_pairs == base_result.reachable_pairs
    assert result.checked_pairs == base_result.checked_pairs
    assert ribs == base_ribs
    # Transport counters surface in the metrics snapshot, per worker
    # and as a fleet total.
    transport = snapshot["transport"]
    assert transport["total"]["calls"] > 0
    assert transport["total"]["frames_sent"] > 0
    assert set(transport) >= {"worker0", "worker1", "worker2", "total"}


@pytest.fixture(scope="module")
def converged_controller(fattree4):
    """A socket controller whose control plane has run once."""
    with S2Controller(fattree4, _options()) as controller:
        controller.run_control_plane()
        yield controller


def test_workers_are_socket_proxies(converged_controller):
    assert all(
        isinstance(w, SocketWorkerProxy)
        for w in converged_controller.fleet.workers
    )


def test_resource_mirror_tracks_peaks(converged_controller):
    for proxy in converged_controller.fleet.workers:
        assert proxy.resources.peak_bytes > 0


def test_rpc_accounting_still_charged(converged_controller):
    assert converged_controller.report().total_rpc_bytes > 0


def test_socket_chaos_acceptance(fattree4, baseline):
    """The acceptance scenario: partition + torn frame + crash in one
    run, absorbed by the distributed run, identical results."""
    _, base_ribs = baseline
    plan = FaultPlan(
        [
            FaultSpec(
                kind="partition",
                worker=1,
                command="step",
                round=1,
                where="response",
                heal_after=2,
            ),
            FaultSpec(kind="torn_frame", worker=0, command="step", round=0),
            FaultSpec(kind="crash", worker=2, command="step", round=1),
        ]
    )
    options = _options(
        fault_plan=plan, retry_policy=RetryPolicy(backoff_base=0.01)
    )
    with S2Verifier(fattree4, options) as verifier:
        result = verifier.verify()
        ribs = normalize_ribs(verifier.collected_ribs())
        report = verifier.controller.report()
        snapshot = verifier.controller.metrics_snapshot()
    assert plan.count("partition") == 1
    assert plan.count("torn_frame") == 1
    assert plan.count("crash") == 1
    assert result.status == "ok"
    assert ribs == base_ribs
    # Only the crash needs the supervisor; the network faults are
    # absorbed inside the channel's retry loop.
    assert report.total_respawns >= 1
    transport = snapshot["transport"]["total"]
    assert transport["retries"] >= 1
    assert transport["reconnects"] >= 1
    assert transport["torn_frames"] >= 1


def test_socket_pool_detects_and_respawns_dead_worker(fattree4):
    with S2Controller(fattree4, _options()) as controller:
        pool = controller._pool
        assert all(proxy.is_alive() for proxy in pool.proxies)
        assert all(proxy.call_nowait("ping").result() == "pong" for proxy in pool.proxies)
        victim = pool.proxies[1]
        victim._process.kill()
        victim._process.join(5.0)
        assert not victim.is_alive()
        with pytest.raises(WorkerFailure):
            victim.call_nowait("ping").result()
        pool.respawn(1)
        assert all(proxy.is_alive() for proxy in pool.proxies)
        assert victim.call_nowait("ping").result()                      # same proxy object
        assert victim.resources.respawns == 1


def test_oom_relayed_from_worker(fattree4):
    from repro.core.s2 import verify_snapshot

    result = verify_snapshot(
        fattree4, _options(num_workers=2, num_shards=0, worker_capacity=1)
    )
    assert result.status == "oom"


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_oom_reports_the_workers_own_bytes(fattree4, runtime):
    """A relayed OOM carries the bytes the worker raised at, and the
    mirror's peak includes them: used > capacity on every runtime."""
    from repro.core.s2 import verify_snapshot

    capacity = 1_400_000
    result = verify_snapshot(
        fattree4,
        _options(
            runtime=runtime,
            num_workers=2,
            num_shards=0,
            worker_capacity=capacity,
        ),
    )
    assert result.status == "oom"
    used, limit = re.search(
        r"([\d.]+) MB used > ([\d.]+) MB capacity", result.error
    ).groups()
    assert float(used) > float(limit) == capacity / 1e6
    assert result.peak_worker_bytes > capacity


def test_remote_error_surfaces(fattree4):
    with S2Controller(fattree4, _options(num_workers=1)) as controller:
        with pytest.raises(RemoteWorkerError):
            controller.fleet.workers[0].call_nowait("no_such_method").result()


def test_shard_flush_happens_in_worker_process(fattree4):
    with S2Controller(fattree4, _options()) as controller:
        controller.run_control_plane()
        store_dir = controller.store.directory
        files = [f for f in os.listdir(store_dir) if f.endswith(".rib")]
    # 3 workers x 2 shards, each written by its worker process
    assert len(files) == 6


def test_received_shard_prefixes_are_the_workers_own(
    fattree4, tmp_path, monkeypatch
):
    """Prefixes unpickle to one canonical instance per process: a shard
    prefix a worker receives in ``begin_shard`` *is* the prefix object
    its own (also received) configs hold, so ``_in_shard`` and the RIB
    lookups stop at identity.  Checked inside the forked worker, which
    inherits the patched method, and logged to a file."""
    log = tmp_path / "identity.log"
    begin_shard = Worker.begin_shard

    def checking(self, shard, epoch=None):
        if shard is not None:
            received = {prefix: prefix for prefix in shard.prefixes}
            same = other = 0
            for node in self.nodes.values():
                for prefix in node.local_prefixes & received.keys():
                    if received[prefix] is prefix:
                        same += 1
                    else:
                        other += 1
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {same} {other}\n")
        return begin_shard(self, shard, epoch)

    monkeypatch.setattr(Worker, "begin_shard", checking)
    with S2Controller(fattree4, _options()) as controller:
        controller.run_control_plane()
    rows = [line.split() for line in log.read_text().splitlines()]
    assert {pid for pid, _, _ in rows} - {str(os.getpid())}, (
        "no begin_shard ran in a worker process"
    )
    assert sum(int(same) for _, same, _ in rows) > 0
    assert all(other == "0" for _, _, other in rows)


def _direct_pool(snapshot, num_workers: int) -> SocketWorkerPool:
    return SocketWorkerPool(
        snapshot=snapshot,
        assignment=partition(snapshot, num_workers).assignment,
        num_workers=num_workers,
        capacity=UNLIMITED_CAPACITY,
    )


def test_pool_lifecycle(fattree4):
    pool = _direct_pool(fattree4, 2)
    try:
        for proxy in pool.proxies:
            proxy.call_nowait("begin_shard", None).result()
            status = proxy.status()  # what begin_shard's reply carried
            assert status["epoch"] == -1 and status["age_seconds"] >= 0
            assert not any(name.startswith("engine.") for name in status)
    finally:
        pool.close()
    assert not any(proxy._process.is_alive() for proxy in pool.proxies)


def test_stop_is_idempotent(fattree4):
    pool = _direct_pool(fattree4, 1)
    pool.close()
    pool.close()  # second close must not raise
    assert not any(proxy._process.is_alive() for proxy in pool.proxies)


def test_socket_pool_close_leaves_no_processes(fattree4):
    controller = S2Controller(fattree4, _options())
    processes = [proxy._process for proxy in controller._pool.proxies]
    assert all(process.is_alive() for process in processes)
    controller.close()
    assert not any(process.is_alive() for process in processes)
    controller.close()  # idempotent


# -- connect mode (pre-started listeners, as on a real fleet) ---------------


class _Listener:
    """An in-thread stand-in for ``repro worker --listen``."""

    def __init__(self):
        self.service = WorkerService()
        self.server = RpcServer(service_handler(self.service))
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    @property
    def spec(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def close(self):
        self.server.stop()
        self.thread.join(5.0)
        self.service.finish()


def test_connect_mode_against_prestarted_listeners(fattree4, baseline):
    _, base_ribs = baseline
    listeners = [_Listener(), _Listener()]
    try:
        options = _options(
            num_workers=2,
            worker_hosts=[listener.spec for listener in listeners],
        )
        with S2Controller(fattree4, options) as controller:
            assert not controller._pool.managed
            controller.run_control_plane()
            ribs = normalize_ribs(controller.collected_ribs())
        assert ribs == base_ribs
    finally:
        for listener in listeners:
            listener.close()


def test_connect_mode_respawn_is_a_reconfigure(fattree4):
    """In connect mode a respawn redials the same listener and replays
    ``__configure__`` at the next incarnation — a logical respawn."""
    listener = _Listener()
    try:
        options = _options(num_workers=1, num_shards=1,
                           worker_hosts=[listener.spec])
        with S2Controller(fattree4, options) as controller:
            pool = controller._pool
            assert pool._incarnations[0] == 0
            assert pool.proxies[0].call_nowait("ping").result()
            pool.respawn(0)
            assert pool._incarnations[0] == 1
            assert pool.proxies[0].call_nowait("ping").result()
            assert listener.server.stats["connections"] >= 2
    finally:
        listener.close()


@pytest.mark.parametrize(
    "command, args",
    [("_drop_engine_memos", ()), ("reset", ()), ("no_such_command", ())],
    ids=["private", "local-only", "unknown"],
)
def test_service_refuses_names_outside_the_command_table(
    fattree4, command, args
):
    """Only ``Worker.COMMANDS`` cross the wire: any other name comes back
    as a relayed error naming it, and the worker is left untouched."""
    assert command not in Worker.COMMANDS
    listener = _Listener()
    channel = RpcChannel((listener.server.host, listener.server.port))
    try:
        assignment = {name: 0 for name in fattree4.configs}
        channel.call(
            "__configure__",
            (0, fattree4, assignment, UNLIMITED_CAPACITY, 24),
            internal=True,
        )
        assert channel.call("begin_epoch", (5,))[0] == "ok"
        worker = listener.service.worker
        status, (_name, message, _trace, _memory) = channel.call(
            command, args
        )
        assert status == "exc"
        assert repr(command) in message
        assert listener.service.worker is worker
        assert worker.epoch == 5  # a reset would have put it back to -1
    finally:
        channel.close()
        listener.close()


def test_connect_mode_requires_enough_hosts(fattree4):
    with pytest.raises(ValueError, match="worker hosts"):
        S2Controller(
            fattree4,
            _options(num_workers=3, worker_hosts=["127.0.0.1:1"]),
        )


# -- traced query pool ---------------------------------------------------------

QUERY_SOURCES = ("edge-0-0", "edge-1-1", "edge-3-0")


def _query_pool(snapshot, runtime, trace_dir=None):
    """Control plane, data plane, then one forward per source; returns
    the DPO's superstep/crossing/final counts, the shard count, the
    per-worker peak bytes and the DPO's engine-health stats."""
    options = _options(runtime=runtime, trace_dir=trace_dir)
    with S2Controller(snapshot, options) as controller:
        controller.build_data_plane()
        for source in QUERY_SOURCES:
            controller.dpo.forward([source], TRUE)
        stats = controller.dpo.stats
        counts = (stats.supersteps, stats.packets_crossed, stats.finals)
        engine_health = (
            stats.boundary_collections,
            stats.payloads_reused,
            stats.peak_worker_nodes,
            stats.gc_reclaimed_nodes,
        )
        return (
            counts,
            controller.cpo.stats.shards_run,
            controller.report().peak_worker_bytes,
            engine_health,
        )


@pytest.fixture(scope="module")
def sequential_pool(fattree4):
    return _query_pool(fattree4, "sequential")


@pytest.fixture(scope="module")
def traced_socket_pool(fattree4, tmp_path_factory):
    trace_dir = str(tmp_path_factory.mktemp("pool") / "shards")
    counts, shards, peak, engine_health = _query_pool(
        fattree4, "socket", trace_dir
    )
    return counts, shards, peak, load_spans(trace_dir), engine_health


def test_query_pool_issues_no_pending_packets_probe(sequential_pool,
                                                    traced_socket_pool):
    """The pool's counters ride on replies: no probe RPCs, and the DPO's
    engine-health stats equal the in-process run's."""
    counts, _shards, _peak, spans, engine_health = traced_socket_pool
    names = {span["name"] for span in spans}
    assert "rpc.drain" in names
    for probe in ("pending_packets", "engine_counters", "fault_counters"):
        assert f"rpc.{probe}" not in names
    assert counts == sequential_pool[0]
    assert engine_health == sequential_pool[3]
    assert engine_health[0] > 0 and engine_health[1] > 0


def test_memory_estimate_rides_on_pull_round(sequential_pool,
                                             traced_socket_pool):
    """Each round's memory estimate, taken by ``pull_round``, comes back
    with its ``step``'s response: no separate RPC, and the same peak as
    in-process."""
    _counts, _shards, peak, spans, _engine = traced_socket_pool
    names = {span["name"] for span in spans}
    assert "rpc.step" in names
    assert "rpc.update_memory" not in names
    assert "update_memory" not in Worker.COMMANDS
    assert peak == sequential_pool[2] > 0


def test_socket_workers_trace_their_flushes(traced_socket_pool):
    """Socket workers run ``Worker.flush_shard`` itself: one
    ``worker.flush`` span per (worker, shard) on the worker tracks, and
    one ``cpo.flush`` fan-out for the batch."""
    _counts, shards, _peak, spans, _engine = traced_socket_pool
    flushes = sorted(
        (span["proc"], span["attrs"]["shard"])
        for span in spans
        if span["name"] == "worker.flush"
    )
    (flushed,) = [
        span["attrs"]["shards"]
        for span in spans
        if span["name"] == "cpo.flush"
    ]
    assert len(flushed) == shards == 2
    assert flushes == sorted(
        (f"worker{worker}", shard)
        for worker in range(3)
        for shard in flushed
    )


# -- the worker command end to end ------------------------------------------


def test_repro_worker_subprocess_serves_and_stops():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("worker listening on ")
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        channel = RpcChannel((host, int(port)))
        try:
            assert channel.call("__ping__", internal=True) == ("ok", "pong")
            channel.call("__stop__", internal=True)
        finally:
            channel.close()
        assert proc.wait(timeout=10.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(5.0)


def test_repro_worker_metrics_scrape_after_configure(fattree4):
    """A configured standalone worker's /metrics reports its gauges."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
         "--metrics-listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    ) as proc:
        try:
            metrics_banner = proc.stdout.readline().strip()
            assert metrics_banner.startswith("worker metrics on http://")
            url = metrics_banner.rpartition(" ")[2]
            banner = proc.stdout.readline().strip()
            host, _, port = banner.rpartition(" ")[2].rpartition(":")
            channel = RpcChannel((host, int(port)))
            try:
                assignment = {name: 0 for name in fattree4.configs}
                status, _ = channel.call(
                    "__configure__",
                    (0, fattree4, assignment, UNLIMITED_CAPACITY, 24),
                    internal=True,
                )
                assert status == "ok"
                with urllib.request.urlopen(url, timeout=10.0) as response:
                    assert response.status == 200
                    text = response.read().decode("utf-8")
                assert 's2_worker_bdd_nodes{worker="0"}' in text
                channel.call("__stop__", internal=True)
            finally:
                channel.close()
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


# -- CLI --------------------------------------------------------------------


def test_cli_socket_runtime_with_metrics_and_chaos(tmp_path, capsys):
    from repro.cli import main

    metrics_path = str(tmp_path / "metrics.json")
    code = main(
        [
            "verify",
            "fattree",
            "--k",
            "4",
            "--runtime",
            "socket",
            "--workers",
            "3",
            "--shards",
            "2",
            "--rpc-timeout",
            "60",
            "--rpc-retries",
            "3",
            "--inject-fault",
            "torn_frame:worker=0,round=0,command=step",
            "--metrics-out",
            metrics_path,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    with open(metrics_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    transport = snapshot["transport"]["total"]
    assert transport["calls"] > 0
    assert transport["torn_frames"] >= 1


def test_cli_worker_hosts_requires_socket_runtime(capsys):
    from repro.cli import main

    code = main(
        [
            "verify",
            "fattree",
            "--k",
            "4",
            "--runtime",
            "sequential",
            "--worker-hosts",
            "127.0.0.1:9001",
        ]
    )
    assert code == 2
    assert "socket" in capsys.readouterr().err


def test_unknown_runtime_is_rejected():
    for runtime in ("process", "threaded"):
        with pytest.raises(ValueError, match=f"unknown runtime '{runtime}'"):
            S2Options(runtime=runtime)
