"""Socket transport micro-benchmark: what does the hardened RPC cost?

Three layers, measured separately so a regression is attributable:

1. **Framing** — encode + incremental-decode throughput for small
   (control-message) and large (route-batch) payloads.  The CRC pass is
   the dominant cost; it must stay far above the rate the control plane
   actually generates bytes.
2. **Round-trips** — echo latency through a real loopback
   ``RpcChannel``/``RpcServer`` pair, i.e. the floor every ``step``
   barrier pays per worker.
3. **End to end** — a FatTree4 control-plane run on the ``socket``
   runtime: real TCP plus idempotency bookkeeping on the critical path.
"""

from __future__ import annotations

import threading
import time

from conftest import emit
from repro import S2Options
from repro.dist.controller import S2Controller
from repro.dist.transport import FrameDecoder, RpcChannel, RpcServer, encode_frame
from repro.harness.reporting import format_table
from repro.net.fattree import build_fattree

HEADERS = ["layer", "case", "ops", "wall-s", "rate", "notes"]


def _bench_framing(rows):
    results = {}
    for label, size, count in [("64B", 64, 20000), ("64KiB", 1 << 16, 400)]:
        payload = b"\xa5" * size
        frames = [encode_frame(payload) for _ in range(count)]
        wire = b"".join(frames)
        decoder = FrameDecoder()
        started = time.perf_counter()
        out = 0
        # Feed in 64 KiB reads, like the channel's recv loop does.
        for offset in range(0, len(wire), 1 << 16):
            out += len(decoder.feed(wire[offset:offset + (1 << 16)]))
        wall = time.perf_counter() - started
        assert out == count
        mbps = len(wire) / wall / 1e6
        results[label] = mbps
        rows.append(
            ["framing", label, count, f"{wall:.4f}",
             f"{mbps:.0f} MB/s", "encode+crc+decode"]
        )
    return results


def _bench_roundtrips(rows):
    def handler(command, args, flow_id):
        return "ok", args

    server = RpcServer(handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    channel = RpcChannel((server.host, server.port))
    try:
        channel.connect()
        channel.call("warmup")
        results = {}
        for label, args, count in [
            ("ping", (), 2000),
            ("8KiB echo", (b"\x5a" * 8192,), 500),
        ]:
            started = time.perf_counter()
            for _ in range(count):
                status, _ = channel.call("echo", args)
                assert status == "ok"
            wall = time.perf_counter() - started
            mean_us = 1e6 * wall / count
            results[label] = mean_us
            rows.append(
                ["rpc", label, count, f"{wall:.4f}",
                 f"{mean_us:.0f} us/call", "loopback round-trip"]
            )
        return results
    finally:
        channel.close()
        server.stop()
        thread.join(5.0)


def _bench_pipelining(rows):
    """One exchange phase: call-and-wait vs ``call_nowait`` fan-out.

    Models the CPO's round exchange against N workers, each behind its
    own server with a fixed per-delivery service time.  The sequential
    loop pays N full round trips back to back; the pipelined path
    issues every delivery first and drains the futures at the flush
    barrier, so the workers' service times overlap.  The measured
    factor (sequential wall / pipelined wall, ideal N) is the
    round-overlap the pipelined exchange actually buys.
    """
    service_s = 0.005
    workers = 4
    rounds = 5

    def handler(command, args, flow_id):
        time.sleep(service_s)
        return "ok", args

    servers = [RpcServer(handler) for _ in range(workers)]
    threads = [
        threading.Thread(target=s.serve_forever, daemon=True)
        for s in servers
    ]
    for thread in threads:
        thread.start()
    channels = [
        RpcChannel((s.host, s.port), worker_id=i)
        for i, s in enumerate(servers)
    ]
    try:
        for channel in channels:
            channel.connect()
            channel.call("warmup")
        started = time.perf_counter()
        for _ in range(rounds):
            for channel in channels:
                status, _ = channel.call("deliver", ())
                assert status == "ok"
        sequential = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(rounds):
            futures = [c.call_nowait("deliver", ()) for c in channels]
            for future in futures:  # the flush barrier
                status, _ = future.result()
                assert status == "ok"
        pipelined = time.perf_counter() - started
    finally:
        for channel in channels:
            channel.close()
        for server in servers:
            server.stop()
        for thread in threads:
            thread.join(5.0)
    overlap = sequential / pipelined if pipelined else float("inf")
    calls = workers * rounds
    rows.append(
        ["rpc", f"{workers}-worker exchange seq", calls,
         f"{sequential:.4f}",
         f"{1e3 * sequential / rounds:.1f} ms/round", "call-and-wait"]
    )
    rows.append(
        ["rpc", f"{workers}-worker exchange pipe", calls,
         f"{pipelined:.4f}",
         f"{overlap:.1f}x overlap", "call_nowait + flush barrier"]
    )
    return {"sequential": sequential, "pipelined": pipelined,
            "overlap": overlap}


def _bench_control_plane(rows):
    snapshot = build_fattree(4)
    best = float("inf")
    for _ in range(2):
        options = S2Options(num_workers=3, num_shards=2, runtime="socket")
        started = time.perf_counter()
        with S2Controller(snapshot, options) as controller:
            controller.run_control_plane()
        best = min(best, time.perf_counter() - started)
    rows.append(
        ["end-to-end", "fattree4 socket", 1, f"{best:.3f}",
         f"{best:.3f} s", "control plane, best of 2"]
    )
    return best


def _run_experiment():
    rows = []
    framing = _bench_framing(rows)
    rpc = _bench_roundtrips(rows)
    pipe = _bench_pipelining(rows)
    wall = _bench_control_plane(rows)
    return rows, framing, rpc, pipe, wall


def test_socket_transport(benchmark):
    rows, framing, rpc, pipe, wall = benchmark.pedantic(
        _run_experiment, rounds=1, iterations=1
    )
    table = format_table(
        HEADERS, rows, title="Socket transport costs (loopback)"
    )
    emit("socket_transport", table, rows)
    # Loose floors: catastrophic regressions only, not scheduler noise.
    assert framing["64KiB"] > 50, f"framing {framing['64KiB']:.0f} MB/s"
    assert rpc["ping"] < 5000, f"ping {rpc['ping']:.0f} us"
    # The fan-out must show real round overlap (ideal is 4x here); a
    # value near 1x means call_nowait degenerated to call-and-wait.
    assert pipe["overlap"] > 1.5, f"overlap {pipe['overlap']:.2f}x"
    assert wall < 60.0


if __name__ == "__main__":
    rows, *_ = _run_experiment()
    print(format_table(HEADERS, rows))
