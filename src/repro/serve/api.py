"""Line-JSON API over TCP for a :class:`VerifierSession`.

One JSON object per line in, one per line out; readable with netcat::

    $ printf '{"op": "health"}\\n' | nc 127.0.0.1 7000

Operations (``op`` field):

``health``   session status, epoch, queue depth, journal/commit liveness
``query``    ``src``/``dst`` → committed reachability verdict
``routes``   ``node`` → per-prefix selected-route counts
``delta``    ``kind: "config"`` (``hostname``, ``text``, optional
             ``dialect``) or ``kind: "link"`` (``a``, ``b``, optional
             ``state: "down"|"up"``); blocks until the epoch commits
``statusz``  health (with every worker's latest status) plus the
             query-latency summary (what ``repro top`` renders)
``eventsz``  structured event journal replay; optional ``since``
             (sequence-number floor) and ``limit``
``metrics``  the session's metrics as OpenMetrics text (``text`` field)
``stop``     acknowledge, then shut the server down

Every response carries ``ok``.  Refusals are typed: ``"busy"`` (queue
full — retry later), ``"degraded"`` (read-only), ``"draining"``
(shutting down, queued deltas still finishing), ``"bad-request"``,
``"closed"``.  Connections are handled on their own threads, so queries
keep answering while a delta recomputes on another connection.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional, Set

from .deltas import ConfigTextDelta, DeltaError, LinkDelta
from .session import (
    SessionBusyError,
    SessionClosedError,
    SessionDegradedError,
    SessionDrainingError,
    UnknownEndpointError,
    VerifierSession,
)


def _error(code: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": code, "message": message}


def parse_delta(request: Dict[str, Any]):
    """Build a delta object from a ``delta`` request body."""
    kind = request.get("kind")
    if kind == "config":
        if "hostname" not in request or "text" not in request:
            raise DeltaError("config delta needs 'hostname' and 'text'")
        return ConfigTextDelta(
            hostname=request["hostname"],
            text=request["text"],
            dialect=request.get("dialect"),
        )
    if kind == "link":
        if "a" not in request or "b" not in request:
            raise DeltaError("link delta needs 'a' and 'b'")
        state = request.get("state", "down")
        if state not in ("down", "up"):
            raise DeltaError(f"link state must be 'down' or 'up', got {state!r}")
        return LinkDelta(a=request["a"], b=request["b"], up=(state == "up"))
    raise DeltaError(f"unknown delta kind {kind!r} (want 'config' or 'link')")


class SessionServer:
    """Serves one :class:`VerifierSession` over line-JSON TCP."""

    # Closing a listener does not reliably wake a thread blocked in
    # accept(); poll on a short timeout so stop() is observed promptly.
    ACCEPT_POLL_SECONDS = 0.5

    def __init__(
        self,
        session: VerifierSession,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = session
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._listener.settimeout(self.ACCEPT_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = False
        self._conns: Set[socket.socket] = set()
        self._conn_lock = threading.Lock()

    def serve_forever(self) -> None:
        try:
            while not self._stopping:
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    continue  # re-check _stopping
                except OSError:
                    break  # listener closed by stop()
                conn.settimeout(None)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="serve-conn",
                    daemon=True,
                )
                thread.start()
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._conns.add(conn)
        try:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                response = self.handle_line(line)
                try:
                    conn.sendall(
                        (json.dumps(response) + "\n").encode("utf-8")
                    )
                except OSError:
                    return
                if self._stopping:
                    return
        except (OSError, ValueError):
            pass  # client vanished mid-line
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def handle_line(self, line: str) -> Dict[str, Any]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error("bad-request", f"not JSON: {exc}")
        if not isinstance(request, dict):
            return _error("bad-request", "request must be a JSON object")
        return self.handle(request)

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "health":
                return {"ok": True, **self.session.health()}
            if op == "query":
                if "src" not in request or "dst" not in request:
                    return _error("bad-request", "query needs 'src' and 'dst'")
                result = self.session.query(request["src"], request["dst"])
                return {
                    "ok": True,
                    "holds": result.holds,
                    "epoch": result.epoch,
                    "degraded": result.degraded,
                }
            if op == "routes":
                if "node" not in request:
                    return _error("bad-request", "routes needs 'node'")
                node = request["node"]
                return {
                    "ok": True,
                    "node": node,
                    "routes": self.session.routes(node),
                }
            if op == "delta":
                delta = parse_delta(request)
                result = self.session.apply_delta(
                    delta, timeout=request.get("timeout")
                )
                return {
                    "ok": True,
                    "epoch": result.epoch,
                    "kind": result.kind,
                    "shards_recomputed": result.shards_recomputed,
                    "shards_reused": result.shards_reused,
                    "dirty_prefixes": result.dirty_prefixes,
                    "reachable_pairs": result.reachable_pairs,
                    "lost_pairs": [list(pair) for pair in result.lost_pairs],
                    "gained_pairs": [
                        list(pair) for pair in result.gained_pairs
                    ],
                }
            if op == "statusz":
                return {"ok": True, **self.session.statusz()}
            if op == "eventsz":
                since = request.get("since", 0)
                limit = request.get("limit")
                if not isinstance(since, int) or isinstance(since, bool):
                    return _error("bad-request", "'since' must be an integer")
                if limit is not None and (
                    not isinstance(limit, int) or isinstance(limit, bool)
                ):
                    return _error("bad-request", "'limit' must be an integer")
                events = self.session.journal.events(since=since, limit=limit)
                return {
                    "ok": True,
                    "journal": self.session.journal.describe(),
                    "events": [event.to_dict() for event in events],
                }
            if op == "metrics":
                return {"ok": True, "text": self.session.openmetrics()}
            if op == "stop":
                self.stop()
                return {"ok": True, "stopping": True}
            return _error("bad-request", f"unknown op {op!r}")
        except SessionBusyError as exc:
            return _error("busy", str(exc))
        except SessionDegradedError as exc:
            return _error("degraded", str(exc))
        except SessionDrainingError as exc:
            # Before SessionClosedError — draining subclasses closed, and
            # monitors treat "still finishing" and "gone" differently.
            return _error("draining", str(exc))
        except SessionClosedError as exc:
            return _error("closed", str(exc))
        except (DeltaError, UnknownEndpointError) as exc:
            return _error("bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 — a delta's terminal failure
            # (e.g. the recompute error that just degraded the session)
            # surfaces on the submitting connection; later requests see
            # the typed "degraded" refusal.
            return _error("internal", f"{type(exc).__name__}: {exc}")

    def stop(self) -> None:
        """Stop accepting; live connections finish their current line."""
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)  # sends EOF to the reader
            except OSError:
                pass
