"""Unit tests for the hardened RPC transport.

Framing (including a random byte-split fuzz over the incremental
decoder), host:port parsing, and the channel/server pair under
injected network chaos: torn frames, directional partitions, reorders,
slow links, timeouts (a hung handler, or a peer that never reads), and
backpressure.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time

import pytest

from repro.dist.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.dist.transport import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    ConnectionLostError,
    FrameDecoder,
    FrameError,
    RpcChannel,
    RpcServer,
    RpcTimeoutError,
    encode_frame,
    parse_hostport,
)

_HEADER = struct.Struct("!4sII")


def _fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(
        call_timeout=5.0,
        max_call_retries=3,
        backoff_base=0.01,
        connect_timeout=2.0,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# -- framing ----------------------------------------------------------------


def test_frame_roundtrip():
    decoder = FrameDecoder()
    payloads = [b"", b"x", b"hello world" * 100]
    wire = b"".join(encode_frame(p) for p in payloads)
    assert decoder.feed(wire) == payloads
    assert decoder.frames_decoded == 3
    assert decoder.pending_bytes == 0


def test_decoder_survives_any_byte_split():
    """The decoder is an incremental state machine: no matter how the
    stream is chopped (TCP gives no message boundaries), every payload
    comes out whole and in order."""
    rng = random.Random(0xF8A3)
    payloads = [
        rng.randbytes(rng.randrange(0, 200)) for _ in range(40)
    ]
    wire = b"".join(encode_frame(p) for p in payloads)
    for trial in range(25):
        decoder = FrameDecoder()
        out = []
        position = 0
        while position < len(wire):
            step = rng.randrange(1, 37)
            out.extend(decoder.feed(wire[position:position + step]))
            position += step
        assert out == payloads, f"trial {trial}"
        assert decoder.pending_bytes == 0


def test_decoder_rejects_bad_magic():
    with pytest.raises(FrameError, match="bad frame magic"):
        FrameDecoder().feed(b"XXXX" + b"\x00" * 20)


def test_decoder_rejects_checksum_mismatch():
    frame = bytearray(encode_frame(b"payload bytes"))
    frame[-1] ^= 0xFF  # flip one payload byte; header CRC now disagrees
    with pytest.raises(FrameError, match="checksum mismatch"):
        FrameDecoder().feed(bytes(frame))


def test_decoder_rejects_impossible_length():
    header = _HEADER.pack(FRAME_MAGIC, MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(FrameError, match="exceeds"):
        FrameDecoder().feed(header)


def test_torn_frame_leaves_pending_bytes():
    frame = encode_frame(b"a" * 64)
    decoder = FrameDecoder()
    assert decoder.feed(frame[: len(frame) // 2]) == []
    assert decoder.pending_bytes == len(frame) // 2
    assert decoder.feed(frame[len(frame) // 2:]) == [b"a" * 64]
    assert decoder.pending_bytes == 0


# -- addressing -------------------------------------------------------------


def test_parse_hostport():
    assert parse_hostport("10.0.0.7:9001") == ("10.0.0.7", 9001)
    assert parse_hostport("9001") == ("127.0.0.1", 9001)
    assert parse_hostport(":9001") == ("127.0.0.1", 9001)
    with pytest.raises(ValueError, match="host:port"):
        parse_hostport("hostA:")
    with pytest.raises(ValueError, match="out of range"):
        parse_hostport("hostA:70000")


# -- channel + server -------------------------------------------------------


class _Service:
    """A toy RPC service: echoes args, counts executions, can stall."""

    def __init__(self):
        self.calls = []
        self.stall = None  # an Event the handler waits on, when set

    def handle(self, command, args, flow_id):
        self.calls.append(command)
        if self.stall is not None:
            self.stall.wait(10.0)
        if command == "boom":
            return "exc", ("ValueError", "injected", "")
        return "ok", ("echo", command, args)


class _Harness:
    def __init__(self, policy=None, fault_plan=None):
        self.service = _Service()
        self.server = RpcServer(self.service.handle)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.channel = RpcChannel(
            (self.server.host, self.server.port),
            policy=policy or _fast_policy(),
            worker_id=0,
            fault_plan=fault_plan,
        )

    def close(self):
        self.channel.close()
        self.server.stop()
        self.thread.join(5.0)


@pytest.fixture
def harness():
    built = []

    def build(**kwargs):
        h = _Harness(**kwargs)
        built.append(h)
        return h

    yield build
    for h in built:
        h.close()


def test_basic_call_roundtrip(harness):
    h = harness()
    status, payload = h.channel.call("compute", (1, "two"))
    assert status == "ok"
    assert payload == ("echo", "compute", (1, "two"))
    assert h.channel.counters["calls"] == 1
    assert h.channel.counters["frames_sent"] == 1
    assert h.server.stats["requests"] == 1
    # Application-level failures are payload, not transport failures.
    status, payload = h.channel.call("boom")
    assert status == "exc"
    assert payload[0] == "ValueError"


def test_call_timeout_raises_and_counts(harness):
    """A call's deadline is the liveness check: a hung handler, and a
    peer that accepts the connection but never reads, both fail the call
    with ``RpcTimeoutError`` within its budget."""
    policy = _fast_policy(call_timeout=0.2, max_call_retries=0)
    h = harness(policy=policy)
    h.service.stall = threading.Event()  # never set: the handler hangs
    with pytest.raises(RpcTimeoutError, match="did not answer"):
        h.channel.call("step")
    assert h.channel.counters["timeouts"] >= 1
    h.service.stall.set()

    blackhole = socket.socket()
    blackhole.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    blackhole.bind(("127.0.0.1", 0))
    blackhole.listen(1)
    sinks = []

    def swallow():
        while True:
            try:
                conn, _ = blackhole.accept()
            except OSError:
                return
            sinks.append(conn)

    thread = threading.Thread(target=swallow, daemon=True)
    thread.start()
    channel = RpcChannel(blackhole.getsockname(), policy=policy)
    try:
        started = time.monotonic()
        with pytest.raises(RpcTimeoutError, match="did not answer"):
            channel.call("step")
        assert time.monotonic() - started < 2.0
        assert channel.counters["timeouts"] == 1
    finally:
        channel.close()
        blackhole.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        blackhole.close()
        for conn in sinks:
            conn.close()
        thread.join(2.0)


def test_unreachable_server_raises_connection_lost():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    channel = RpcChannel(
        ("127.0.0.1", port),
        policy=_fast_policy(call_timeout=1.0, max_call_retries=1),
    )
    try:
        with pytest.raises(ConnectionLostError, match="cannot reach"):
            channel.call("ping")
        assert channel.counters["retries"] == 1
    finally:
        channel.close()


def test_transparent_reconnection(harness):
    h = harness()
    assert h.channel.call("first")[0] == "ok"
    h.channel._drop_connection()  # as a network blip would
    assert h.channel.call("second")[0] == "ok"
    assert h.channel.counters["reconnects"] == 1
    assert h.server.stats["connections"] == 2


def test_window_backpressure(harness):
    h = harness(policy=_fast_policy(rpc_window=1))
    h.service.stall = threading.Event()
    first_done = threading.Event()

    def long_call():
        h.channel.call("slow")
        first_done.set()

    runner = threading.Thread(target=long_call, daemon=True)
    runner.start()
    time.sleep(0.1)  # let the first call occupy the window
    with pytest.raises(RpcTimeoutError, match="no in-flight slot"):
        h.channel.call("starved", timeout=0.2)
    h.service.stall.set()
    assert first_done.wait(5.0)
    assert h.channel.counters["inflight_high_water"] == 1


def test_torn_frame_is_retried_and_never_executed_twice(harness):
    plan = FaultPlan(
        [FaultSpec(kind="torn_frame", worker=0, command="step")]
    )
    h = harness(fault_plan=plan)
    status, payload = h.channel.call("step", (7,))
    assert status == "ok" and payload == ("echo", "step", (7,))
    assert plan.count("torn_frame") == 1
    assert h.channel.counters["torn_frames"] >= 1
    assert h.channel.counters["retries"] >= 1
    assert h.server.stats["torn_frames"] >= 1
    # The torn copy never parsed, so the command executed exactly once.
    assert h.service.calls.count("step") == 1


def test_response_partition_exercises_idempotency_cache(harness):
    """A response-direction partition lets the server execute but cuts
    the answer: the retry (same request id) must be answered from the
    server's response cache, not re-executed."""
    plan = FaultPlan(
        [
            FaultSpec(
                kind="partition",
                worker=0,
                command="deliver_routes",
                where="response",
                heal_after=1,
            )
        ]
    )
    h = harness(fault_plan=plan)
    status, _payload = h.channel.call("deliver_routes", ("batch",))
    assert status == "ok"
    assert plan.count("partition") == 1
    assert h.server.stats["dedup_replays"] >= 1
    assert h.service.calls.count("deliver_routes") == 1
    assert h.channel.counters["reconnects"] >= 1


def test_request_partition_heals_after_budget(harness):
    plan = FaultPlan(
        [
            FaultSpec(
                kind="partition",
                worker=0,
                command="step",
                where="request",
                heal_after=2,
            )
        ]
    )
    h = harness(fault_plan=plan)
    status, _ = h.channel.call("step")
    assert status == "ok"
    # Two transmissions were blocked before the link healed.
    assert h.channel.counters["retries"] >= 2
    assert h.service.calls.count("step") == 1


def test_slow_link_delays_but_delivers(harness):
    plan = FaultPlan(
        [FaultSpec(kind="slow_link", worker=0, command="sync", delay=0.05)]
    )
    h = harness(fault_plan=plan)
    started = time.monotonic()
    assert h.channel.call("sync")[0] == "ok"
    assert time.monotonic() - started >= 0.05
    assert plan.count("slow_link") == 1


def test_reorder_is_flushed_and_answered(harness):
    plan = FaultPlan(
        [FaultSpec(kind="reorder", worker=0, command="sync")]
    )
    h = harness(fault_plan=plan)
    assert h.channel.call("sync")[0] == "ok"  # timer flushes the held frame
    assert plan.count("reorder") == 1
    assert h.service.calls.count("sync") == 1


def test_internal_calls_bypass_fault_injection(harness):
    plan = FaultPlan(
        [FaultSpec(kind="torn_frame", worker=0, times=0)]  # every call
    )
    h = harness(fault_plan=plan)
    status, payload = h.channel.call("__ping__", internal=True)
    assert (status, payload) == ("ok", "pong")
    assert plan.count("torn_frame") == 0


def test_server_stop_command(harness):
    h = harness()
    status, _ = h.channel.call("__stop__", internal=True)
    assert status == "ok"
    h.thread.join(5.0)
    assert not h.thread.is_alive()


@pytest.mark.parametrize("client", ["none", "disconnected"])
def test_stop_wakes_an_idle_accept_loop(client):
    """``stop()`` must end ``serve_forever`` promptly even while it is
    blocked in ``accept()`` — with no client yet, or after one left."""
    server = RpcServer(_Service().handle)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    if client == "disconnected":
        channel = RpcChannel(
            (server.host, server.port), policy=_fast_policy()
        )
        assert channel.call("hello")[0] == "ok"
        channel.close()
        deadline = time.monotonic() + 5.0
        while server._active is not None:
            assert time.monotonic() < deadline, "server kept the connection"
            time.sleep(0.01)
    time.sleep(0.1)  # let the loop block in accept()
    started = time.monotonic()
    server.stop()
    thread.join(5.0)
    assert not thread.is_alive()
    assert time.monotonic() - started < 1.0


def test_server_response_cache_is_bounded(harness):
    from repro.dist.transport import RESPONSE_CACHE_SIZE

    h = harness()
    for i in range(RESPONSE_CACHE_SIZE + 20):
        assert h.channel.call("fill", (i,))[0] == "ok"
    assert len(h.server._responses) <= RESPONSE_CACHE_SIZE
