"""The hardened RPC transport: TCP framing, channels, and servers.

The paper's deployment runs the controller and workers on five separate
servers over a real network (§5); this module is the layer that makes
the reproduction's distributed claims testable on that footing.  It has
three parts:

* **Framing** — every message travels as a length-prefixed frame with a
  magic tag and a CRC32 trailer.  :class:`FrameDecoder` reassembles
  frames from arbitrary byte splits and *refuses to hand garbage
  upward*: a bad magic, an impossible length, or a checksum mismatch
  raises :class:`FrameError`, and the connection is dropped and
  re-established rather than resynchronized in place (TCP gives no
  reliable mid-stream resync point).  A torn frame — the connection
  dying mid-frame — is detected by the leftover partial buffer.

* **`RpcChannel`** — the client side.  Every request carries an
  idempotent ``(channel_id, request_id)`` pair, runs under a per-call
  deadline, and is retried with exponential backoff plus jitter across
  transparent reconnections.  A bounded in-flight window applies
  backpressure.  Because retries reuse the request id and the server
  caches responses, a retry after a lost response is answered from the
  cache — the request is **executed at most once**.  The calls are the
  liveness check: every round calls every active worker, and a call
  that misses its deadline or loses its connection is the failure
  signal.

* **`RpcServer`** — the service loop: single connection at a time,
  sequential request execution, a bounded response cache keyed by the
  idempotent request id, and tolerance for torn frames and vanished
  clients (the response stays cached for the retry).

The module also owns the :class:`TransportError` taxonomy: OS-level
socket failures are converted at the edge, and supervisors and proxies
match on these types only.

Network-level faults (``error``, ``partition``, ``reorder``,
``slow_link``, ``torn_frame`` — see :mod:`repro.dist.faults`) are
injected in :meth:`RpcChannel._transmit`, i.e. at the same layer a real
lossy network would bite, and :class:`RpcFuture` is the one loop that
retries them.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import socket
import struct
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from .faults import BACKOFF_JITTER, RetryPolicy

# -- failure taxonomy -------------------------------------------------------


class TransportError(RuntimeError):
    """Base class for transport-level failures.

    Proxies translate these into :class:`~repro.dist.faults.WorkerFailure`
    subclasses; everything below the proxy matches on this taxonomy
    instead of on ``(BrokenPipeError, EOFError, OSError)`` tuples.
    """


class ConnectionLostError(TransportError):
    """The peer is unreachable: refused, reset, EOF, or torn mid-frame."""


class FrameError(TransportError):
    """The byte stream does not parse as frames; never deserialized."""


class RpcTimeoutError(TransportError):
    """A call's deadline expired (including the backpressure wait)."""


# -- framing ----------------------------------------------------------------

#: Frame magic: protocol name + version.  Changing the wire format bumps
#: the version, and mixed-version peers fail loudly on the first frame.
FRAME_MAGIC = b"S2R1"

_HEADER = struct.Struct("!4sII")  # magic, payload length, CRC32(payload)

#: Upper bound on one frame's payload: a snapshot-sized configure call
#: fits with room to spare; anything bigger is stream corruption.
MAX_FRAME_BYTES = 1 << 28


def encode_frame(payload: bytes) -> bytes:
    """One wire frame: header (magic, length, crc) + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to encode a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(
        FRAME_MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


class FrameDecoder:
    """Incremental frame reassembly from arbitrary byte splits.

    ``feed`` returns every complete payload the new bytes finished;
    partial frames stay buffered.  Corruption (bad magic, impossible
    length, CRC mismatch) raises :class:`FrameError` — the caller must
    drop the connection; the buffer cannot be trusted past that point.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_decoded")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (torn-frame tell)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer.extend(data)
        payloads: List[bytes] = []
        while len(self._buffer) >= _HEADER.size:
            magic, length, crc = _HEADER.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                raise FrameError(
                    f"bad frame magic {bytes(magic)!r} "
                    f"(expected {FRAME_MAGIC!r}); stream is corrupt"
                )
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit; stream is corrupt"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise FrameError(
                    f"frame checksum mismatch over {length} bytes; "
                    "refusing to deserialize"
                )
            self.frames_decoded += 1
            self.bytes_decoded += end
            payloads.append(payload)
        return payloads


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# -- the client channel -----------------------------------------------------

#: Channel ids must be unique across every channel that might ever talk
#: to one server (respawns create fresh channels whose request ids
#: restart at 1), so the response cache key never collides.
_CHANNEL_COUNTER = itertools.count(1)

class _Pending:
    """One in-flight request awaiting its response (or a failure)."""

    __slots__ = ("event", "status", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: Optional[str] = None
        self.payload: Any = None

    def reset(self) -> None:
        self.event = threading.Event()
        self.status = None
        self.payload = None

    def fail(self, exc: TransportError) -> None:
        if not self.event.is_set():
            self.status = "__transport__"
            self.payload = exc
            self.event.set()


class RpcFuture:
    """One pipelined RPC issued with :meth:`RpcChannel.call_nowait`.

    The request is already on the wire (or its first transmission
    already failed) by the time the caller holds this object; the
    response streams in on the channel's receive thread while the caller
    does other work.  :meth:`result` then settles the call with exactly
    the semantics the blocking :meth:`RpcChannel.call` always had —
    deadline, jittered-backoff retransmits under the same idempotent
    request id, ``__transport__`` demux — and releases the in-flight
    window slot.  ``result()`` is idempotent: the outcome is cached and
    re-returned (or re-raised) on repeat calls.
    """

    __slots__ = (
        "_channel",
        "_command",
        "_frame",
        "_pending",
        "_rid",
        "_deadline",
        "_budget",
        "_post_send",
        "_internal",
        "_span",
        "_send_failure",
        "_done",
        "_outcome",
        "_error",
    )

    def __init__(
        self,
        channel: "RpcChannel",
        command: str,
        frame: bytes,
        pending: _Pending,
        rid: int,
        deadline: float,
        budget: float,
        post_send,
        internal: bool,
        span,
        send_failure: Optional[TransportError],
    ) -> None:
        self._channel = channel
        self._command = command
        self._frame = frame
        self._pending = pending
        self._rid = rid
        self._deadline = deadline
        self._budget = budget
        self._post_send = post_send
        self._internal = internal
        self._span = span
        self._send_failure = send_failure
        self._done = False
        self._outcome: Optional[Tuple[str, Any]] = None
        self._error: Optional[TransportError] = None

    def done(self) -> bool:
        """True once the response (or a transport failure) arrived.

        Purely advisory — a pending retransmit still counts as not done.
        """
        return self._done or self._pending.event.is_set()

    def _settle(self) -> Tuple[str, Any]:
        channel = self._channel
        pending = self._pending
        failure = self._send_failure
        attempts = 0
        while True:
            if failure is None:
                remaining = self._deadline - time.monotonic()
                if remaining > 0 and pending.event.wait(remaining):
                    if pending.status == "__transport__":
                        failure = pending.payload
                    else:
                        if attempts and self._span is not None:
                            self._span.set(transport_retries=attempts)
                        return pending.status, pending.payload
                else:
                    channel._count("timeouts")
                    failure = RpcTimeoutError(
                        f"worker {channel.worker_id} did not answer "
                        f"{self._command} within {self._budget:.1f}s"
                    )
            attempts += 1
            out_of_budget = (
                attempts > channel._policy.max_call_retries
                or time.monotonic() >= self._deadline
            )
            if self._span is not None:
                self._span.set(
                    transport_retries=attempts,
                    transport_failure=type(failure).__name__,
                )
            if out_of_budget:
                raise failure
            channel._count("retries")
            time.sleep(
                min(
                    channel._jittered_backoff(attempts),
                    max(0.0, self._deadline - time.monotonic()),
                )
            )
            failure = None
            pending.reset()
            try:
                channel._ensure_connected(self._deadline)
                channel._transmit(self._frame, self._command, self._internal)
                if self._post_send is not None:
                    callback, self._post_send = self._post_send, None
                    callback()
            except TransportError as exc:
                failure = exc

    def result(self) -> Tuple[str, Any]:
        """Block until settled; return ``(status, payload)`` or raise."""
        if self._done:
            if self._error is not None:
                raise self._error
            return self._outcome
        try:
            self._outcome = self._settle()
            return self._outcome
        except TransportError as exc:
            self._error = exc
            raise
        finally:
            self._done = True
            channel = self._channel
            with channel._pending_lock:
                channel._pending.pop(self._rid, None)
            channel._inflight -= 1
            channel._window.release()


class RpcChannel:
    """One hardened client connection to one worker's RPC server.

    Guarantees, in the vocabulary of the design doc:

    * **idempotency** — requests are keyed ``(channel_id, request_id)``
      and retries resend the same key, so the server's response cache
      makes every request at-most-once-executed;
    * **deadlines** — each call has a wall-clock budget
      (``policy.call_timeout`` unless overridden) covering backpressure,
      (re)connection, and the response wait;
    * **bounded retries** — transport failures and timeouts are retried
      up to ``policy.max_call_retries`` times with exponential backoff
      plus seeded jitter;
    * **transparent reconnection** — a dead connection is re-dialed on
      the next attempt; in-flight requests are failed fast (woken, not
      leaked) and retried by their callers;
    * **backpressure** — at most ``policy.rpc_window`` requests are in
      flight; further callers wait (against their own deadline);
    * **liveness** — the calls themselves: one that misses its deadline
      raises :class:`RpcTimeoutError`, one whose peer stays unreachable
      raises :class:`ConnectionLostError`, and the proxy turns either
      into the supervisor's failure signal.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        policy=None,
        worker_id: int = -1,
        fault_plan=None,
        metrics=None,
    ) -> None:
        self.address = address
        self.worker_id = worker_id
        self._policy = policy or RetryPolicy()
        self._fault_plan = fault_plan
        self._metrics = metrics
        self.channel_id = f"{os.getpid()}-{next(_CHANNEL_COUNTER)}"
        self._rng = random.Random(worker_id + 1)
        self._sock: Optional[socket.socket] = None
        self._generation = 0
        self._ever_connected = False
        self._conn_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._request_counter = 0
        self._pending: Dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._window = threading.BoundedSemaphore(
            max(1, self._policy.rpc_window)
        )
        self._inflight = 0
        self._held_frame: Optional[bytes] = None
        self._reorder_timer: Optional[threading.Timer] = None
        self.closed = False
        self.counters: Dict[str, int] = {
            "calls": 0,
            "retries": 0,
            "timeouts": 0,
            "reconnects": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
            "frames_received": 0,
            "inflight_high_water": 0,
            "stale_responses": 0,
            "torn_frames": 0,
        }

    # -- counters ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self._metrics is not None:
            self._metrics.counter(f"transport.{name}").inc(amount)

    # -- connection management -------------------------------------------

    def connect(self, timeout: Optional[float] = None) -> None:
        """Dial eagerly (optional — calls dial lazily)."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._policy.connect_timeout
        )
        self._ensure_connected(deadline)

    def _ensure_connected(self, deadline: float) -> None:
        with self._conn_lock:
            if self.closed:
                raise ConnectionLostError("channel is closed")
            if self._sock is not None:
                return
            budget = max(0.05, min(
                self._policy.connect_timeout, deadline - time.monotonic()
            ))
            try:
                sock = socket.create_connection(self.address, timeout=budget)
            except OSError as exc:
                raise ConnectionLostError(
                    f"cannot reach worker {self.worker_id} at "
                    f"{self.address[0]}:{self.address[1]}: {exc!r}"
                ) from exc
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._generation += 1
            if self._ever_connected:
                self._count("reconnects")
            self._ever_connected = True
            receiver = threading.Thread(
                target=self._receive_loop,
                args=(sock, self._generation),
                name=f"rpc-recv-w{self.worker_id}.{self._generation}",
                daemon=True,
            )
            receiver.start()

    def _drop_connection(self) -> None:
        """Tear the current socket down and fail the in-flight waiters."""
        with self._conn_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() before close(): the rx thread blocked in recv()
            # holds an io-ref that defers the real close, so only a
            # shutdown sends the FIN (unwedging the server) and wakes
            # the rx thread promptly.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._fail_pending(
            ConnectionLostError(
                f"connection to worker {self.worker_id} was lost"
            )
        )

    def _fail_pending(self, exc: TransportError) -> None:
        with self._pending_lock:
            waiters = list(self._pending.values())
        for pending in waiters:
            pending.fail(exc)

    # -- receive path -----------------------------------------------------

    def _receive_loop(self, sock: socket.socket, generation: int) -> None:
        decoder = FrameDecoder()
        while True:
            try:
                data = sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                if decoder.pending_bytes:
                    self._count("torn_frames")
                break
            try:
                payloads = decoder.feed(data)
            except FrameError:
                self._count("torn_frames")
                break
            self._count("bytes_received", len(data))
            for payload in payloads:
                self._count("frames_received")
                try:
                    kind, rid, status, body = pickle.loads(payload)
                except Exception:  # noqa: BLE001 — framed but unloadable
                    kind = None
                if kind != "res":
                    self._count("stale_responses")
                    continue
                with self._pending_lock:
                    pending = self._pending.get(rid)
                if pending is None or pending.event.is_set():
                    # A response to a request that already completed via
                    # an earlier transmission — the idempotent-id dance
                    # working as intended.
                    self._count("stale_responses")
                    continue
                pending.status = status
                pending.payload = body
                pending.event.set()
        # Only tear down if nobody reconnected underneath us already.
        with self._conn_lock:
            current = self._sock is sock and self._generation == generation
            if current:
                self._sock = None
        try:
            sock.close()
        except OSError:
            pass
        if current:
            self._fail_pending(
                ConnectionLostError(
                    f"connection to worker {self.worker_id} was lost"
                )
            )

    # -- send path (fault injection lives here) ---------------------------

    def _flush_held(self) -> None:
        """Timer fallback: a reordered frame with no successor still goes."""
        with self._send_lock:
            frame, self._held_frame = self._held_frame, None
            sock = self._sock
        if frame is None or sock is None:
            return
        try:
            sock.sendall(frame)
            self._count("frames_sent")
            self._count("bytes_sent", len(frame))
        except OSError:
            pass

    def _transmit(self, frame: bytes, command: str, internal: bool) -> None:
        """Write one frame, applying injected network faults."""
        plan = self._fault_plan if not internal else None
        spec = plan.on_transport(self.worker_id, command) if plan else None
        if plan is not None and plan.partition_blocks(
            self.worker_id, "request"
        ):
            raise ConnectionLostError(
                f"link to worker {self.worker_id} is partitioned "
                "(injected, request direction)"
            )
        if spec is not None and spec.kind == "error":
            raise ConnectionLostError(
                f"sending {command} to worker {self.worker_id} failed "
                "(injected transient error)"
            )
        if spec is not None and spec.kind == "slow_link":
            time.sleep(spec.delay if spec.delay > 0 else 0.05)
        with self._send_lock:
            sock = self._sock
            if sock is None:
                raise ConnectionLostError(
                    f"no connection to worker {self.worker_id}"
                )
            if spec is not None and spec.kind == "torn_frame":
                torn = frame[: max(1, len(frame) - 1 - len(frame) // 2)]
                try:
                    sock.sendall(torn)
                except OSError:
                    pass
                self._count("torn_frames")
                # fall through to the drop outside the send lock
            elif spec is not None and spec.kind == "reorder" and (
                self._held_frame is None
            ):
                # Hold this frame until the next one passes it on the
                # wire; a timer flushes it if no successor shows up.
                # Callers still await their response, so phase barriers
                # hold — the reorder is visible to the server's arrival
                # order and the client's demultiplexer only.  A frame
                # already held is passed below, never overwritten (lost).
                self._held_frame = frame
                if self._reorder_timer is not None:
                    self._reorder_timer.cancel()
                self._reorder_timer = threading.Timer(0.05, self._flush_held)
                self._reorder_timer.daemon = True
                self._reorder_timer.start()
                return
            else:
                held, self._held_frame = self._held_frame, None
                try:
                    sock.sendall(frame)
                    self._count("frames_sent")
                    self._count("bytes_sent", len(frame))
                    if held is not None:
                        sock.sendall(held)
                        self._count("frames_sent")
                        self._count("bytes_sent", len(held))
                except OSError as exc:
                    raise ConnectionLostError(
                        f"send to worker {self.worker_id} failed: {exc!r}"
                    ) from exc
        if spec is not None and spec.kind == "torn_frame":
            self._drop_connection()
            raise ConnectionLostError(
                f"frame to worker {self.worker_id} torn mid-send (injected)"
            )
        if plan is not None and plan.partition_blocks(
            self.worker_id, "response"
        ):
            # The request reached the worker; the response direction is
            # cut.  Drop the connection so the retry (same request id)
            # exercises the server's idempotency cache.
            self._drop_connection()
            raise ConnectionLostError(
                f"link from worker {self.worker_id} is partitioned "
                "(injected, response direction)"
            )

    # -- the call ---------------------------------------------------------

    def _next_request_id(self) -> int:
        with self._id_lock:
            self._request_counter += 1
            return self._request_counter

    def _jittered_backoff(self, attempt: int) -> float:
        base = self._policy.backoff(attempt)
        return base * (1.0 + BACKOFF_JITTER * self._rng.random())

    def call_nowait(
        self,
        command: str,
        args: tuple = (),
        flow_id: Optional[int] = None,
        timeout: Optional[float] = None,
        post_send: Optional[Callable[[], None]] = None,
        internal: bool = False,
        span=None,
    ) -> RpcFuture:
        """Issue one idempotent RPC without waiting for its response.

        The request is transmitted before this returns (a first-send
        transport failure is captured into the future and handled by its
        retry loop), so several calls issued back to back share the wire
        — true pipelining within the channel's ``rpc_window``.  Window
        acquisition still blocks here, which is the backpressure point:
        a caller cannot race further ahead than the window allows.
        Settle the call with :meth:`RpcFuture.result`, which owns the
        deadline/retransmit loop and releases the window slot.
        ``post_send`` runs exactly once after the first successful
        transmission (fault injection kills the worker "after send").
        """
        budget = timeout if timeout is not None else self._policy.call_timeout
        deadline = time.monotonic() + budget
        rid = self._next_request_id()
        frame = encode_frame(
            _dumps(("req", rid, self.channel_id, command, args, flow_id))
        )
        if not self._window.acquire(timeout=budget):
            self._count("timeouts")
            raise RpcTimeoutError(
                f"no in-flight slot for {command} to worker "
                f"{self.worker_id} within {budget:.1f}s "
                f"(window {self._policy.rpc_window})"
            )
        self._inflight += 1
        if self._inflight > self.counters["inflight_high_water"]:
            self.counters["inflight_high_water"] = self._inflight
            if self._metrics is not None:
                self._metrics.gauge("transport.inflight").set(self._inflight)
        pending = _Pending()
        with self._pending_lock:
            self._pending[rid] = pending
        self._count("calls")
        send_failure: Optional[TransportError] = None
        try:
            self._ensure_connected(deadline)
            self._transmit(frame, command, internal)
            if post_send is not None:
                callback, post_send = post_send, None
                callback()
        except TransportError as exc:
            send_failure = exc
        return RpcFuture(
            self,
            command,
            frame,
            pending,
            rid,
            deadline,
            budget,
            post_send,
            internal,
            span,
            send_failure,
        )

    def call(
        self,
        command: str,
        args: tuple = (),
        flow_id: Optional[int] = None,
        timeout: Optional[float] = None,
        internal: bool = False,
    ) -> Tuple[str, Any]:
        """One idempotent RPC; returns the raw ``(status, payload)``.

        Raises :class:`RpcTimeoutError` when the deadline expires and
        :class:`ConnectionLostError` when the peer stays unreachable
        through the retry budget.
        """
        return self.call_nowait(
            command, args, flow_id=flow_id, timeout=timeout, internal=internal
        ).result()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._reorder_timer is not None:
            self._reorder_timer.cancel()
        self._drop_connection()


# -- the server -------------------------------------------------------------

#: Responses remembered per server for retry dedup.  The client window
#: bounds how many distinct requests can be outstanding, so a small
#: multiple of the largest sane window suffices.
RESPONSE_CACHE_SIZE = 128


class RpcServer:
    """The worker-side service loop over the framed protocol.

    One connection at a time (there is exactly one controller), requests
    executed sequentially in arrival order, every response cached by its
    idempotent id so a retry after a lost response is answered **without
    re-executing**.  Torn frames and client disappearances are routine:
    the connection is dropped, the accept loop takes the next one.
    """

    #: How often an idle connection wakes to check for a drain-stop.
    DRAIN_POLL_SECONDS = 0.5

    def __init__(
        self,
        handler: Callable[[str, tuple, Optional[int]], Tuple[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = False
        self._active: Optional[socket.socket] = None
        # (channel_id, request_id) -> framed response bytes, insertion
        # ordered for FIFO eviction.
        self._responses: Dict[Tuple[str, int], bytes] = {}
        self.stats: Dict[str, int] = {
            "requests": 0,
            "dedup_replays": 0,
            "torn_frames": 0,
            "connections": 0,
        }

    def serve_forever(self) -> None:
        try:
            while not self._stopping:
                try:
                    conn, _peer = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                self.stats["connections"] += 1
                self._active = conn
                try:
                    self._serve_connection(conn)
                finally:
                    self._active = None
                    try:
                        conn.close()
                    except OSError:
                        pass
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A short receive timeout lets the loop observe a drain-stop
        # between frames instead of blocking in recv() forever; in-flight
        # requests still run to completion before the check fires.
        conn.settimeout(self.DRAIN_POLL_SECONDS)
        decoder = FrameDecoder()
        while not self._stopping:
            try:
                data = conn.recv(1 << 16)
            except socket.timeout:
                continue  # idle tick — re-check _stopping
            except OSError:
                data = b""
            if not data:
                if decoder.pending_bytes:
                    self.stats["torn_frames"] += 1
                return
            try:
                payloads = decoder.feed(data)
            except FrameError:
                self.stats["torn_frames"] += 1
                return  # drop the connection; the client resyncs by redial
            for payload in payloads:
                if not self._handle_request(conn, payload):
                    return

    def _handle_request(self, conn: socket.socket, payload: bytes) -> bool:
        """Execute one framed request; False ends the connection."""
        try:
            kind, rid, channel_id, command, args, flow_id = pickle.loads(
                payload
            )
        except Exception:  # noqa: BLE001 — framed but not a request
            return False
        if kind != "req":
            return False
        key = (channel_id, rid)
        cached = self._responses.get(key)
        if cached is not None:
            self.stats["dedup_replays"] += 1
            return self._send(conn, cached)
        self.stats["requests"] += 1
        if command == "__ping__":
            status, result = "ok", "pong"
        elif command == "__stop__":
            self._stopping = True
            status, result = "ok", None
        else:
            status, result = self._handler(command, args, flow_id)
        response = encode_frame(_dumps(("res", rid, status, result)))
        self._responses[key] = response
        while len(self._responses) > RESPONSE_CACHE_SIZE:
            self._responses.pop(next(iter(self._responses)))
        delivered = self._send(conn, response)
        return delivered and not self._stopping

    @staticmethod
    def _send(conn: socket.socket, frame: bytes) -> bool:
        try:
            # The drain-poll receive timeout must not tear a large
            # response mid-sendall; sends are always blocking.
            timeout = conn.gettimeout()
            conn.settimeout(None)
            try:
                conn.sendall(frame)
            finally:
                conn.settimeout(timeout)
            return True
        except OSError:
            # The client vanished mid-response; the cached copy answers
            # its retry after it reconnects.
            return False

    def stop(self, drain: bool = False) -> None:
        """Stop from another thread; the loop exits promptly.

        Forceful by default: the active connection is shut down,
        aborting whatever was mid-flight.  With ``drain=True`` the
        listener closes but the live connection is left untouched, so
        the request currently executing finishes and its response is
        delivered before the loop exits at the next receive-timeout
        tick — this is what SIGTERM handlers want.
        """
        self._stopping = True
        # shutdown() before close(): on Linux closing a listening socket
        # from another thread does not wake a blocked accept().
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if drain:
            return
        active = self._active
        if active is not None:
            try:
                active.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def parse_hostport(spec: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse a ``host:port`` (or bare ``port``) worker spec."""
    text = spec.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host.strip() or default_host
    else:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"bad worker spec {spec!r}: expected host:port"
        ) from exc
    if not 0 <= port < 65536:
        raise ValueError(f"bad worker spec {spec!r}: port out of range")
    return host, port
