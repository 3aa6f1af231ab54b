"""Graceful shutdown of the resident commands.

``repro worker --listen`` and ``repro serve`` both install SIGTERM and
SIGINT handlers that drain in-flight work and exit 0 — so a process
supervisor's stop is clean, not a crash that the next boot has to
recover from.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys

import threading

import pytest

from repro.dist.transport import RpcChannel, RpcServer

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _spawn(*argv):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_worker_signal_drains_and_exits_zero(signum):
    proc = _spawn("worker", "--listen", "127.0.0.1:0")
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("worker listening on ")
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        channel = RpcChannel((host, int(port)))
        try:
            assert channel.call("__ping__", internal=True) == ("ok", "pong")
        finally:
            channel.close()
        proc.send_signal(signum)
        stdout, _stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "worker: drained and shut down cleanly" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(5.0)


def test_drain_stop_finishes_the_inflight_request():
    """``stop(drain=True)`` — what the SIGTERM handlers call — lets the
    request currently executing finish and deliver its response; only
    then does the connection wind down."""
    stall = threading.Event()
    entered = threading.Event()

    def handler(command, args, flow_id):
        entered.set()
        assert stall.wait(timeout=30)
        return "ok", ("done", command)

    server = RpcServer(handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    channel = RpcChannel((server.host, server.port))
    results = []

    def call():
        results.append(channel.call("slow_work"))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    try:
        assert entered.wait(timeout=30)
        server.stop(drain=True)  # mid-request, as a SIGTERM would
        stall.set()
        caller.join(timeout=30)
        assert results == [("ok", ("done", "slow_work"))]
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        stall.set()
        channel.close()
        server.stop()


def test_serving_socket_session_runs_only_mutator_and_receivers():
    """A socket session serving on two workers runs one mutator thread
    and one receive thread per live channel — failure detection rides
    on the calls, so there is no liveness thread — and ``close()``
    leaves none of them behind."""
    from repro.dist.controller import S2Options
    from repro.net.fattree import build_fattree
    from repro.serve import VerifierSession

    before = set(threading.enumerate())
    session = VerifierSession(
        build_fattree(4), S2Options(num_workers=2, runtime="socket")
    )
    try:
        started = [t for t in threading.enumerate() if t not in before]
        names = sorted(t.name.split(".")[0] for t in started)
        assert names == ["rpc-recv-w0", "rpc-recv-w1", "serve-mutator"]
    finally:
        session.close()
    for thread in started:
        thread.join(timeout=10)
    assert [t.name for t in started if t.is_alive()] == []


def test_serve_sigterm_drains_and_exits_zero():
    proc = _spawn(
        "serve",
        "fattree",
        "--k",
        "4",
        "--workers",
        "2",
        "--shards",
        "2",
        "--listen",
        "127.0.0.1:0",
    )
    try:
        banner = proc.stdout.readline().strip()
        match = re.match(
            r"serving \S+ on ([\d.]+):(\d+) \(epoch (\d+), "
            r"(\d+) endpoints, cold start\)",
            banner,
        )
        assert match, f"unexpected banner: {banner!r}"
        host, port = match.group(1), int(match.group(2))
        assert match.group(3) == "0"
        with socket.create_connection((host, port), timeout=60) as conn:
            conn.sendall(b'{"op": "health"}\n')
            response = json.loads(
                conn.makefile("r", encoding="utf-8").readline()
            )
        assert response["ok"]
        assert response["status"] == "serving"
        assert response["epoch"] == 0
        proc.send_signal(signal.SIGTERM)
        stdout, _stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "serve: drained and shut down cleanly" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(5.0)
