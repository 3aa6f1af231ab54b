"""``repro top`` — a live console over a serving session.

Connects to a :class:`~repro.serve.api.SessionServer` line-JSON port,
polls ``statusz`` + ``eventsz``, and renders a compact dashboard: epoch,
admission-queue depth, one row per worker from its latest status (a
lost worker stays, marked ``LOST``), rolling p50/p99 query latency, and
the last N journal events.

The renderer is a pure function (``render_top``) so tests can assert on
frames without a terminal; the loop uses plain ANSI clear-and-home
escapes when stdout is a TTY and falls back to printing one frame per
poll (or a single shot) when it is not — no curses dependency.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

ANSI_CLEAR = "\x1b[2J\x1b[H"


class SessionClient:
    """Minimal line-JSON client for the serve API."""

    def __init__(
        self, host: str, port: int, timeout: float = 10.0
    ) -> None:
        self._conn = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._conn.makefile("r", encoding="utf-8")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._conn.close()
        except OSError:
            pass

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _fmt_bytes(n: float) -> str:
    value = float(n or 0)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (
                f"{int(value)}{unit}"
                if unit == "B"
                else f"{value:.1f}{unit}"
            )
        value /= 1024.0
    return f"{value:.1f}GiB"


def _fmt_ms(seconds: Any) -> str:
    try:
        return f"{float(seconds) * 1000:.1f}ms"
    except (TypeError, ValueError):
        return "-"


def render_top(status: Dict[str, Any], events: List[Dict[str, Any]]) -> str:
    """Render one dashboard frame from a ``statusz`` payload plus a
    journal tail (both straight off the wire)."""
    out: List[str] = []
    state = status.get("status", "?")
    epoch = status.get("epoch")
    out.append(
        f"repro top — {status.get('snapshot', '?')}  "
        f"[{state}]  epoch={epoch}  "
        f"queue={status.get('queue_depth', 0)}  "
        f"runtime={status.get('runtime', '?')}  "
        f"workers={status.get('workers', '?')}"
    )
    if status.get("degraded_reason"):
        out.append(f"  DEGRADED: {status['degraded_reason']}")
    capacity = status.get("capacity") or {}
    if capacity.get("lost_workers"):
        lost = capacity.get("lost") or {}
        total = (
            capacity.get("active_workers", 0)
            + capacity.get("lost_workers", 0)
        )
        out.append(
            f"  REDUCED CAPACITY: {capacity.get('active_workers', '?')}/"
            f"{total} workers "
            f"(ratio={capacity.get('capacity_ratio', 0.0):.2f})  lost: "
            + ", ".join(
                f"worker{wid}" for wid in sorted(lost, key=int)
            )
        )
    commit_age = status.get("last_commit_age_seconds")
    journal = status.get("journal") or {}
    out.append(
        f"last commit: "
        f"{'-' if commit_age is None else f'{commit_age:.1f}s ago'}  "
        f"journal seq={journal.get('last_seq', 0)} "
        f"(dropped={journal.get('dropped', 0)})"
    )
    latency = status.get("query_latency") or {}
    if latency.get("count"):
        out.append(
            f"query latency: p50={_fmt_ms(latency.get('p50'))} "
            f"p99={_fmt_ms(latency.get('p99'))} "
            f"n={latency.get('count')}"
            + (" (sampled)" if latency.get("sampled") else "")
        )
    else:
        out.append("query latency: no queries yet")

    workers = (status.get("worker_health") or {}).get("workers") or {}
    out.append("")
    header = (
        f"{'WORKER':<8} {'EPOCH':>5} {'ROUND':>5} {'AGE':>6} "
        f"{'PHASE':<16} {'BDD':>8} {'ROUTES':>8} {'MEM':>9} {'RESPAWN':>7}"
    )
    out.append(header)
    out.append("-" * len(header))
    if not workers:
        out.append("  (no worker status yet)")
    for name in sorted(workers, key=lambda n: int(n[len("worker"):])):
        worker = workers[name]
        age = worker.get("age_seconds")
        nodes = worker.get("engine.node_count", worker.get("bdd_nodes", 0))
        flags = (" LOST" if worker.get("lost") else "") + (
            " OOM" if worker.get("oom") else ""
        )
        out.append(
            f"{name:<8} "
            f"{worker.get('epoch', -1):>5} "
            f"{worker.get('round', -1):>5} "
            f"{'-' if age is None else f'{age:.1f}s':>6} "
            f"{str(worker.get('phase') or '-')[:16]:<16} "
            f"{int(nodes):>8} "
            f"{int(worker.get('candidate_routes', 0)):>8} "
            f"{_fmt_bytes(worker.get('current_bytes', 0)):>9} "
            f"{int(worker.get('respawns', 0)):>7}{flags}"
        )

    out.append("")
    out.append(f"events (last {len(events)}):")
    if not events:
        out.append("  (journal empty)")
    for event in events:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(float(event.get("ts", 0)))
        )
        attrs = event.get("attrs") or {}
        detail = " ".join(
            f"{k}={attrs[k]}" for k in sorted(attrs)
        )
        out.append(
            f"  #{event.get('seq', '?'):>4} {stamp} "
            f"{event.get('kind', '?'):<22} {detail}"
        )
    return "\n".join(out) + "\n"


def fetch_frame(
    client: SessionClient, events_limit: int = 10
) -> "tuple[Dict[str, Any], List[Dict[str, Any]]]":
    """One poll: statusz + the journal tail."""
    status = client.request({"op": "statusz"})
    if not status.get("ok", False):
        raise ConnectionError(
            f"statusz refused: {status.get('error')}: {status.get('message')}"
        )
    tail = client.request({"op": "eventsz", "limit": events_limit})
    events = tail.get("events", []) if tail.get("ok", False) else []
    return status, events


def run_top(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    events_limit: int = 10,
    ansi: Optional[bool] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Poll-and-render loop.  Returns a process exit code.

    ``ansi=None`` auto-detects: a TTY gets clear-screen redraws and an
    endless loop; a non-TTY (pipe, CI) gets plain sequential frames and
    — unless ``iterations`` says otherwise — a single shot.
    """
    stream = out if out is not None else sys.stdout
    if ansi is None:
        ansi = bool(getattr(stream, "isatty", lambda: False)())
    if iterations is None and not ansi:
        iterations = 1  # non-interactive default: one frame, exit
    try:
        client = SessionClient(host, port)
    except OSError as exc:
        print(f"repro top: cannot connect to {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    shown = 0
    try:
        while True:
            try:
                status, events = fetch_frame(client, events_limit)
            except (OSError, ConnectionError, json.JSONDecodeError) as exc:
                print(f"repro top: session went away: {exc}",
                      file=sys.stderr)
                return 1
            frame = render_top(status, events)
            if ansi:
                stream.write(ANSI_CLEAR + frame)
            else:
                stream.write(frame)
            stream.flush()
            shown += 1
            if iterations is not None and shown >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()
