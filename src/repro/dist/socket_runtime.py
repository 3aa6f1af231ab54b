"""Socket-backed workers: the paper's deployment shape over real TCP.

Every remote worker runs behind a TCP server speaking the hardened framed
RPC protocol of :mod:`repro.dist.transport`, so the controller and
workers can live on different machines — S2's actual deployment (§5: one
controller plus workers on separate servers).  Localhost is the default;
pointing ``worker_hosts`` at remote ``host:port`` listeners (each started
with ``repro worker --listen``) is a config change, not a code change.
Phases execute with true parallelism: the controller issues a phase's
call to every worker before it waits on any (``Fleet.call_all``), so
the worker processes compute while it waits.

Design notes:

* :class:`SocketWorkerProxy` mirrors the :class:`~repro.dist.worker.
  Worker` surface the orchestrators and sidecars use, so the CPO/DPO
  code is the same for in-process and remote clusters.  Its one command
  surface is :meth:`SocketWorkerProxy.call_nowait`, as in process; the
  worker service executes exactly ``Worker.COMMANDS``.
* Resource accounting stays controller-side: the remote worker enforces
  its memory ceiling (raising :class:`SimulatedOOM` in situ, relayed back
  with the worker's own used bytes and re-raised by the proxy) and
  appends its status to every response, failed ones included; the
  proxy mirrors the memory counters into its local
  :class:`WorkerResources` (the orchestrators count work into it exactly
  as for in-process workers) and answers :meth:`SocketWorkerProxy.status`
  from the latest one, without a round trip.
* **Supervision**: every proxy call runs under the channel's deadline
  and its one retry loop (:class:`~repro.dist.transport.RpcFuture`); an
  unreachable worker or an expired deadline surfaces as a
  :class:`~repro.dist.faults.WorkerFailure` the orchestrators recover
  from (respawn + shard replay).

Two spawn modes:

* **managed** (default): the pool forks one server process per worker on
  this machine — all processes before any channel thread — and learns
  each ephemeral port over a handshake pipe.  Respawn kills and re-forks.
* **connect**: the pool dials pre-started listeners from
  ``worker_hosts``.  Respawn is a reconnect plus a ``__configure__``
  replay (the listener outlives its worker state; a new incarnation is
  a logical respawn server-side).

In both modes workers receive their identity, snapshot, and assignment
via the idempotent ``__configure__`` RPC, so the listener binary is
fleet-generic.

Shard flushes and data-plane builds go through the on-disk
:class:`~repro.dist.storage.RouteStore` *worker-side*, so converged RIBs
never transit the wire (the paper's write-to-persistent-storage step);
for true multi-host runs the store directory must be on storage shared
by all hosts.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bdd.engine import BddOverflowError
from ..config.loader import Snapshot
from ..obs.metrics import MetricsRegistry, fold_statuses
from ..obs.tracer import NULL_SPAN, NULL_TRACER, Tracer
from .faults import (
    FaultPlan,
    RespawnError,
    RetryPolicy,
    StaleEpochError,
    WorkerDiedError,
    WorkerFailure,
    WorkerTimeoutError,
)
from .resources import SimulatedOOM, WorkerResources
from .service import WorkerService
from .transport import (
    RpcChannel,
    RpcServer,
    RpcTimeoutError,
    TransportError,
    parse_hostport,
)
from .worker import Settled

#: Seconds to wait for a freshly forked worker to report its port.
_HANDSHAKE_TIMEOUT = 30.0

#: Seconds a worker process gets to exit before terminate(), then kill().
JOIN_TIMEOUT = 5.0


class RemoteWorkerError(WorkerFailure):
    """An unexpected exception inside a worker process."""


class UnknownCommandError(RemoteWorkerError, LookupError):
    """The worker refused a name outside ``Worker.COMMANDS``."""


_RELAYED_EXCEPTIONS = {
    "SimulatedOOM": SimulatedOOM,
    "BddOverflowError": BddOverflowError,
    # Epoch-fence rejections must keep their type across the wire: the
    # supervisor counts them and re-seeds the epoch on recovery.
    "StaleEpochError": StaleEpochError,
    "LookupError": UnknownCommandError,
}


def service_handler(service: WorkerService):
    """The RPC handler of a worker listener: ``__configure__`` (re)builds
    the worker — a logical respawn — and every other command dispatches."""

    def handler(command: str, args: tuple, flow_id):
        if command == "__configure__":
            service.configure(*args)
            return "ok", None
        return service.dispatch(command, args, flow_id)

    return handler


def _socket_worker_main(handshake, host: str, port: int) -> None:
    """Worker process entry: bind, report the port, serve until stopped."""
    service = WorkerService()
    server = RpcServer(service_handler(service), host=host, port=port)
    try:
        handshake.send((server.host, server.port))
        handshake.close()
        server.serve_forever()
    finally:
        service.finish()


def serve_worker(
    listen: str,
    install_signal_handlers: bool = True,
    metrics_listen: Optional[str] = None,
) -> None:
    """Run a standalone worker listener (the ``repro worker`` command).

    Blocks until a controller sends ``__stop__``, or SIGTERM/SIGINT
    arrives.  Identity, snapshot, and assignment all arrive over the
    wire via ``__configure__``; reconfiguration is a logical respawn, so
    one listener can serve many runs.

    ``metrics_listen`` (``host:port``) additionally exposes a local
    OpenMetrics scrape endpoint reporting this worker's live status —
    remote workers in connect mode are observable even when the
    controller is on another machine.

    Shutdown is graceful: a signal triggers a *draining* server stop —
    the RPC currently executing finishes and its response is delivered
    — then the tracer shard is flushed and the call returns normally
    (exit code 0 from the CLI).
    """
    host, port = parse_hostport(listen)
    service = WorkerService()
    server = RpcServer(service_handler(service), host=host, port=port)
    metrics_server = None
    if metrics_listen:
        from ..obs.openmetrics import MetricsHTTPServer

        def _scrape_snapshot() -> Dict[str, Any]:
            # The scrape reads the live worker, whichever incarnation.
            worker = service.worker
            statuses = (
                {}
                if worker is None
                else {f"worker{worker.worker_id}": worker.status()}
            )
            return fold_statuses({}, statuses)

        def _scrape_status() -> Dict[str, Any]:
            return {
                "role": "worker",
                "configured": service.configured,
                "incarnation": service.incarnation,
                "listen": f"{server.host}:{server.port}",
            }

        mhost, mport = parse_hostport(metrics_listen)
        metrics_server = MetricsHTTPServer(
            _scrape_snapshot,
            host=mhost,
            port=mport,
            status_fn=_scrape_status,
        )
        print(
            f"worker metrics on http://{metrics_server.address}/metrics",
            flush=True,
        )
    if install_signal_handlers:
        import signal

        def _drain(_signum, _frame) -> None:
            server.stop(drain=True)

        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except ValueError:
            pass  # not the main thread (embedded in tests)
    print(f"worker listening on {server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    finally:
        if metrics_server is not None:
            metrics_server.close()
        service.finish()


class _SocketCallFuture:
    """A proxy call on the wire.  Settling closes its ``rpc.<command>``
    span, maps transport failures to worker failures and applies the
    proxy's ``_relay`` (status mirror, exception relaying)."""

    def __init__(self, proxy, command: str, future, span) -> None:
        self._proxy, self._command = proxy, command
        self._future, self._span = future, span

    def result(self) -> Any:
        span, self._span = self._span, NULL_SPAN
        try:
            status, payload = self._future.result()
        except TransportError as exc:
            raise self._proxy._worker_failure(self._command, exc) from exc
        finally:
            span.end()
        return self._proxy._relay(self._command, status, payload)


class SocketWorkerProxy:
    """Controller-side handle for one socket worker.

    Every command is one idempotent request on the worker's
    :class:`RpcChannel`, issued by :meth:`call_nowait`.  The proxy keeps
    the worker's latest status and a local :class:`WorkerResources`
    mirror of its memory and work counters.  A timed-out proxy stays
    usable: idempotent request ids make stale responses self-identifying.
    """

    def __init__(
        self,
        worker_id: int,
        channel: RpcChannel,
        process,
        resources: WorkerResources,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.worker_id = worker_id
        self.resources = resources
        self._channel = channel
        self._process = process
        self._fault_plan = fault_plan
        self.tracer = tracer or NULL_TRACER
        self._flow_seq = 0
        # The latest status a reply carried, and when it arrived; the
        # count of statuses received keeps its historical metric name.
        self._status: Dict[str, Any] = {}
        self._status_at = 0.0
        self._statuses = (metrics or MetricsRegistry()).counter(
            "telemetry.frames"
        )

    # -- plumbing ---------------------------------------------------------

    def _next_flow_id(self) -> Optional[int]:
        """In-band RPC id when tracing: the worker's handler span echoes
        it, and the merge layer draws the caller→callee arrow from the
        pair."""
        if not self.tracer.enabled:
            return None
        self._flow_seq += 1
        return (self.worker_id + 1) * 1_000_000 + self._flow_seq

    def call_nowait(self, command: str, *args):
        """Issue a call on the channel without waiting; ``result()``
        settles it and raises any failure, never this method.

        Injected call faults apply at issue: a delay sleeps, a crash
        kills the worker before the send or (``after_send``) right after
        it.  The span runs from issue to settle, so calls issued
        together are siblings.  Every call is counted in
        ``resources.calls``.
        """
        self.resources.calls += 1
        spec = post_send = None
        if self._fault_plan is not None:
            spec = self._fault_plan.on_call(self.worker_id, command)
        if spec is not None:
            if spec.kind == "delay":
                time.sleep(spec.delay)
            elif spec.where == "after_send":
                post_send = self._fault_kill
            else:
                self._fault_kill()
        flow_id = self._next_flow_id()
        span = self.tracer.span(
            f"rpc.{command}",
            category="rpc",
            flow_id=flow_id,
            flow="out" if flow_id is not None else None,
            worker=self.worker_id,
        ).begin()
        try:
            future = self._channel.call_nowait(
                command,
                args,
                flow_id=flow_id,
                post_send=post_send,
                span=span,
            )
        except TransportError as exc:
            span.end()
            return Settled(error=self._worker_failure(command, exc))
        return _SocketCallFuture(self, command, future, span)

    def _fault_kill(self) -> None:
        """Kill the worker process to realize an injected crash."""
        if self._process is None:
            return  # connect mode: the listener is not ours to kill
        self._process.kill()
        self._process.join(JOIN_TIMEOUT)

    def _worker_failure(
        self, command: str, exc: TransportError
    ) -> WorkerFailure:
        """The supervision-level failure for a transport failure."""
        if isinstance(exc, RpcTimeoutError):
            return WorkerTimeoutError(
                str(exc), worker_id=self.worker_id, command=command
            )
        return WorkerDiedError(
            f"worker {self.worker_id} unreachable during {command}: {exc}",
            worker_id=self.worker_id,
            command=command,
        )

    def _relay(self, command: str, status: str, payload) -> Any:
        """Map a wire response to a result, relayed exception, or error."""
        if status == "exc":
            name, message, trace, worker_status = payload
            self._mirror(worker_status)
            exc_type = _RELAYED_EXCEPTIONS.get(name)
            if exc_type is SimulatedOOM:
                # The mirror now holds the bytes the worker raised at.
                raise SimulatedOOM(
                    self.resources.name,
                    self.resources.current_bytes,
                    self.resources.capacity,
                )
            if exc_type is not None:
                if issubclass(exc_type, WorkerFailure):
                    raise exc_type(
                        message, worker_id=self.worker_id, command=command
                    )
                raise exc_type(message)
            raise RemoteWorkerError(
                f"{name}: {message}\n{trace}",
                worker_id=self.worker_id,
                command=command,
            )
        result, worker_status = payload
        self._mirror(worker_status)
        return result

    def _mirror(self, status: Optional[Dict[str, Any]]) -> None:
        """Keep a response's worker status and fold its memory counters
        into the resource mirror."""
        if status is None:
            return  # the worker was not configured yet
        self._status, self._status_at = status, time.monotonic()
        self._statuses.inc()
        resources = self.resources
        resources.current_bytes = status["current_bytes"]
        resources.candidate_routes = status["candidate_routes"]
        resources.bdd_nodes = status["bdd_nodes"]
        resources.fib_entries = status["fib_entries"]
        resources.peak_bytes = max(resources.peak_bytes, status["peak_bytes"])
        resources.oom = resources.oom or status["oom"]

    def status(self) -> Dict[str, Any]:
        """The worker's latest status (see :meth:`Worker.status`) and its
        age in seconds; empty until a configured worker has replied."""
        if not self._status:
            return {}
        return dict(
            self._status,
            age_seconds=round(time.monotonic() - self._status_at, 3),
        )

    # -- supervision ------------------------------------------------------

    def is_alive(self) -> bool:
        """The process is alive (connect mode has none) and the channel
        is open; a hung worker is caught by its next call's deadline."""
        if self._process is not None and not self._process.is_alive():
            return False
        return not self._channel.closed

    def reap(self) -> None:
        """Tear down the channel and the dead (or doomed) process."""
        self._channel.close()
        process = self._process
        if process is None:
            return
        try:
            if process.is_alive():
                process.terminate()
                process.join(JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(JOIN_TIMEOUT)
        except OSError:
            pass

    def revive(self, channel: RpcChannel, process) -> None:
        """Adopt a fresh channel (and process), keeping the proxy identity.

        Identity preservation matters: the orchestrators and sidecars
        hold references to this proxy, so a respawn must swap the
        channel and process *inside* it rather than replace it.
        """
        old, self._channel = self._channel, channel
        old.close()
        self._process = process
        self.resources.respawns += 1

    # -- lifecycle --------------------------------------------------------

    def stop(self, timeout: float = JOIN_TIMEOUT) -> None:
        """Ask the worker to exit, then :meth:`reap` whatever is left:
        terminate() can be absorbed (e.g. a wedged interpreter), so
        close() escalates to SIGKILL and never leaves a child."""
        try:
            self._channel.call("__stop__", timeout=timeout, internal=True)
        except TransportError:
            pass
        if self._process is not None:
            self._process.join(timeout)
        self.reap()

    def transport_counters(self) -> Dict[str, int]:
        return dict(self._channel.counters)


class SocketWorkerPool:
    """Spawns (or dials) one TCP worker per id and hands out proxies.

    Also the supervisor's muscle: it respawns a worker in place (the
    proxy keeps its identity; see :meth:`SocketWorkerProxy.revive`).
    The calls are the liveness check: every round calls every active
    worker, and a call that misses its deadline or loses its connection
    is the failure signal.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        num_workers: int,
        capacity: int,
        max_hops: int = 24,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        worker_hosts: Optional[Sequence[str]] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self._context = mp.get_context(
            "fork" if os.name == "posix" else "spawn"
        )
        # What every __configure__ (first spawn or respawn) ships.
        self._snapshot, self._assignment = snapshot, assignment
        self._capacity, self._max_hops = capacity, max_hops
        self._policy = retry_policy or RetryPolicy()
        self._fault_plan = fault_plan
        self._trace_dir = trace_dir
        self._metrics = metrics
        self._host = host
        # Spawn counts per worker id: a respawned worker's shard carries
        # the next incarnation number, so its spans stay distinguishable
        # after merging onto the same process track.
        self._incarnations: Dict[int, int] = {}
        self.managed = not worker_hosts
        if worker_hosts:
            addresses = [parse_hostport(spec) for spec in worker_hosts]
            if len(addresses) < num_workers:
                raise ValueError(
                    f"{num_workers} workers but only {len(addresses)} "
                    "worker hosts"
                )
            spawned: List[Tuple[Any, Tuple[str, int]]] = [
                (None, addresses[worker_id])
                for worker_id in range(num_workers)
            ]
        else:
            # Fork every server process before any channel exists: a
            # channel's receive thread must never be duplicated into a child.
            spawned = [
                self._spawn_process(worker_id)
                for worker_id in range(num_workers)
            ]
        self.proxies: List[SocketWorkerProxy] = []
        for worker_id, (process, address) in enumerate(spawned):
            channel = self._open_channel(worker_id, address)
            self.proxies.append(
                SocketWorkerProxy(
                    worker_id,
                    channel,
                    process,
                    WorkerResources(
                        name=f"worker{worker_id}", capacity=capacity
                    ),
                    fault_plan=fault_plan,
                    tracer=tracer,
                    metrics=metrics,
                )
            )
            self._configure(worker_id, channel)

    # -- spawning / dialing ----------------------------------------------

    def _spawn_process(self, worker_id: int):
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_socket_worker_main,
            args=(child_conn, self._host, 0),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_HANDSHAKE_TIMEOUT):
            process.kill()
            raise RespawnError(
                f"worker {worker_id} never reported its port",
                worker_id=worker_id,
            )
        address = parent_conn.recv()
        parent_conn.close()
        return process, tuple(address)

    def _open_channel(
        self, worker_id: int, address: Tuple[str, int]
    ) -> RpcChannel:
        return RpcChannel(
            address,
            policy=self._policy,
            worker_id=worker_id,
            fault_plan=self._fault_plan,
            metrics=self._metrics,
        )

    def _configure(self, worker_id: int, channel: RpcChannel) -> None:
        """Ship identity + snapshot to the worker (idempotent RPC)."""
        incarnation = self._incarnations.get(worker_id, -1) + 1
        self._incarnations[worker_id] = incarnation
        status, payload = channel.call(
            "__configure__",
            (
                worker_id,
                self._snapshot,
                self._assignment,
                self._capacity,
                self._max_hops,
                self._trace_dir,
                incarnation,
            ),
            internal=True,
        )
        if status != "ok":
            raise RespawnError(
                f"worker {worker_id} failed to configure: {payload!r}",
                worker_id=worker_id,
            )

    # -- serving ----------------------------------------------------------

    def update_snapshot(
        self, snapshot: Snapshot, assignment: Dict[str, int]
    ) -> None:
        """Point future respawn ``__configure__`` replays at the current
        snapshot/assignment.

        The serving layer calls this on *every* delta, including the
        incremental path that never reconfigures live workers: a worker
        respawned mid-epoch must be rebuilt from the session's current
        config, not the boot-time one (it would then fail the epoch
        fence and recovery would loop).
        """
        self._snapshot, self._assignment = snapshot, assignment

    def reconfigure(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        workers: Sequence[SocketWorkerProxy],
    ) -> None:
        """Rebind ``workers`` to a new snapshot (logical respawn);
        listeners and channels stay resident.  Transport failures surface
        as :class:`WorkerFailure` for the caller's supervisor."""
        self.update_snapshot(snapshot, assignment)
        for proxy in workers:
            try:
                self._configure(proxy.worker_id, proxy._channel)
            except (TransportError, RespawnError) as exc:
                raise WorkerDiedError(
                    f"worker {proxy.worker_id} unreachable during "
                    f"reconfigure: {exc}",
                    worker_id=proxy.worker_id,
                    command="__configure__",
                ) from exc

    # -- supervision ------------------------------------------------------

    def respawn(self, worker_id: int) -> SocketWorkerProxy:
        """Give the worker a fresh process (managed) or connection.

        In connect mode the listener is assumed to outlive its worker
        state: respawn redials and replays ``__configure__`` at the next
        incarnation, which rebuilds the worker server-side.  Raises
        :class:`RespawnError` when the worker cannot be brought back;
        once the supervisor's budget is spent the worker is lost.
        """
        if self._fault_plan is not None:
            self._fault_plan.check_respawn(worker_id)
        proxy = self.proxies[worker_id]
        address = proxy._channel.address
        proxy.reap()
        try:
            if self.managed:
                process, address = self._spawn_process(worker_id)
            else:
                process = None
            channel = self._open_channel(worker_id, address)
            channel.connect()
            proxy.revive(channel, process)
            self._configure(worker_id, channel)
        except (TransportError, OSError) as exc:
            raise RespawnError(
                f"respawn of worker {worker_id} failed: {exc!r}",
                worker_id=worker_id,
            ) from exc
        return proxy

    # -- telemetry --------------------------------------------------------

    def channel_counters(self, worker_id: int) -> Dict[str, int]:
        """One worker's channel counters (a lost worker's are frozen
        into its :class:`~repro.dist.fleet.LostWorker` record)."""
        return dict(self.proxies[worker_id].transport_counters())

    def transport_counters(self, lost) -> Dict[str, Dict[str, int]]:
        """Per-worker channel counters plus a fleet-wide total.

        A lost worker's entry (``lost`` maps its id to its record) is
        its counters frozen at loss time, tagged ``lost: True`` — never
        the fresh zeros a torn-down channel would report.
        """
        per_worker: Dict[str, Dict[str, Any]] = {}
        for proxy in self.proxies:
            if proxy.worker_id in lost:
                counters = dict(lost[proxy.worker_id].transport, lost=True)
            else:
                counters = self.channel_counters(proxy.worker_id)
            per_worker[f"worker{proxy.worker_id}"] = counters
        totals: Dict[str, int] = {}
        for counters in per_worker.values():
            for name, value in counters.items():
                if name == "lost":
                    continue
                if name == "inflight_high_water":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        per_worker["total"] = totals
        return per_worker

    def close(self) -> None:
        """Stop every worker; never raises (best-effort teardown)."""
        for proxy in self.proxies:
            try:
                proxy.stop()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        for proxy in self.proxies:
            process = proxy._process
            try:
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(JOIN_TIMEOUT)
            except OSError:
                pass
