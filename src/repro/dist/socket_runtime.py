"""Socket-backed workers: the paper's deployment shape over real TCP.

Every remote worker runs behind a TCP server speaking the hardened framed
RPC protocol of :mod:`repro.dist.transport`, so the controller and
workers can live on different machines — S2's actual deployment (§5: one
controller plus workers on separate servers).  Localhost is the default;
pointing ``worker_hosts`` at remote ``host:port`` listeners (each started
with ``repro worker --listen``) is a config change, not a code change.
Phases execute with true parallelism: the controller issues a phase to
every worker through a thread pool, and each thread blocks on its
channel (releasing the GIL) while the worker processes compute.

Design notes:

* :class:`SocketWorkerProxy` mirrors the :class:`~repro.dist.worker.
  Worker` surface the orchestrators and sidecars use, so the CPO/DPO
  code is the same for in-process and remote clusters.  Its command
  methods are generated from ``Worker.COMMANDS``, with the worker's own
  signatures; the worker service executes exactly that table.
* Resource accounting stays controller-side: the remote worker enforces
  its memory ceiling (raising :class:`SimulatedOOM` in situ, relayed back
  with the worker's own used bytes and re-raised by the proxy) and
  piggybacks its memory counters on every response, failed ones
  included; the orchestrators count work into the proxy's local
  :class:`WorkerResources` mirror exactly as for in-process workers.
* **Supervision**: every proxy call runs under the channel's deadline
  and an exponential-backoff retry loop for transient RPC faults; an
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

import inspect
import multiprocessing as mp
import os
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..bdd.engine import BddOverflowError
from ..config.loader import Snapshot
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .faults import (
    FaultPlan,
    RespawnError,
    RetryPolicy,
    StaleEpochError,
    TransientRpcError,
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
from .worker import Worker

#: Seconds to wait for a freshly forked worker to report its port.
_HANDSHAKE_TIMEOUT = 30.0

_RELAYED_EXCEPTIONS = {
    "SimulatedOOM": SimulatedOOM,
    "BddOverflowError": BddOverflowError,
    # Epoch-fence rejections must keep their type across the wire: the
    # supervisor counts them and re-seeds the epoch on recovery.
    "StaleEpochError": StaleEpochError,
}


class RemoteWorkerError(WorkerFailure):
    """An unexpected exception inside a worker process."""


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
    OpenMetrics scrape endpoint reporting this worker's live frame —
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
        from ..obs.telemetry import TelemetryCollector, TelemetrySource

        scrape_metrics = MetricsRegistry()
        collector = TelemetryCollector(scrape_metrics)
        # A dedicated source per worker incarnation: sharing the RPC
        # piggyback source would consume its sequence numbers and show
        # up as frame gaps on the controller side.
        scrape_sources: Dict[Tuple[int, int], Any] = {}

        def _scrape_snapshot() -> Dict[str, Any]:
            # Fold a fresh frame on demand: the scrape itself is the
            # sampling clock for a standalone worker.
            worker = service.worker
            if worker is not None:
                key = (id(worker), service.incarnation)
                source = scrape_sources.get(key)
                if source is None:
                    scrape_sources.clear()
                    source = TelemetrySource(
                        worker,
                        interval=1e-9,
                        incarnation=max(service.incarnation, 0),
                    )
                    scrape_sources[key] = source
                collector.ingest(source.frame(phase="scrape"))
            return scrape_metrics.snapshot()

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
    """Proxy-level future over a wire :class:`RpcFuture`.

    Settling maps transport failures to worker failures and applies the
    proxy's ``_relay`` (telemetry mirror, exception relaying) — the same
    post-processing a blocking call would have done inline.
    """

    __slots__ = ("_proxy", "_command", "_future")

    def __init__(self, proxy, command: str, future) -> None:
        self._proxy = proxy
        self._command = command
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> Any:
        del timeout  # the channel enforces its own call deadline
        try:
            status, payload = self._future.result()
        except TransportError as exc:
            raise self._proxy._worker_failure(self._command, exc) from exc
        return self._proxy._relay(self._command, status, payload)


class SocketWorkerProxy:
    """Controller-side handle for one socket worker.

    Exposes the Worker methods the orchestrators and sidecars call; each
    call is one idempotent request on the worker's :class:`RpcChannel`.
    The proxy keeps a local :class:`WorkerResources` mirror of the
    worker's memory and work counters, and supervises the call:
    transient-fault retry with exponential backoff, and fault injection
    from the attached :class:`FaultPlan`.  A timed-out proxy stays usable: the channel's
    idempotent request ids make stale responses self-identifying.
    """

    def __init__(
        self,
        worker_id: int,
        channel: RpcChannel,
        process,
        resources: WorkerResources,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        telemetry_sink: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.resources = resources
        self._channel = channel
        self._process = process
        self._policy = policy or RetryPolicy()
        self._fault_plan = fault_plan
        self.tracer = tracer or NULL_TRACER
        # Streaming telemetry frames piggybacked on responses are handed
        # to this callable (the controller's collector) when set.
        self.telemetry_sink = telemetry_sink
        self._flow_seq = 0

    # -- plumbing ---------------------------------------------------------

    def _next_flow_id(self) -> Optional[int]:
        """In-band RPC id when tracing: the worker's handler span echoes
        it, and the merge layer draws the caller→callee arrow from the
        pair."""
        if not self.tracer.enabled:
            return None
        self._flow_seq += 1
        return (self.worker_id + 1) * 1_000_000 + self._flow_seq

    def _rpc_span(self, command: str, flow_id: Optional[int]):
        return self.tracer.span(
            f"rpc.{command}",
            category="rpc",
            flow_id=flow_id,
            flow="out" if flow_id is not None else None,
            worker=self.worker_id,
        )

    def call_nowait(self, command: str, *args):
        """Issue a call without waiting; returns a future with .result().

        The channel multiplexes responses by request id, so several
        requests genuinely share the wire up to ``rpc_window``.  With a
        fault plan attached the call runs blocking instead — injected
        call faults keep their exact semantics (preamble, transient
        retries) — and the returned future is already settled, so a
        failure still surfaces at ``result()``.
        """
        if self._fault_plan is not None:
            future: Future = Future()
            try:
                future.set_result(self._call(command, *args))
            except Exception as exc:  # noqa: BLE001 — raised at result()
                future.set_exception(exc)
            return future
        flow_id = self._next_flow_id()
        with self._rpc_span(command, flow_id):
            wire_future = self._channel.call_nowait(
                command, args, flow_id=flow_id
            )
        return _SocketCallFuture(self, command, wire_future)

    def _call(self, command: str, *args) -> Any:
        attempt = 0
        while True:
            try:
                return self._call_once(command, args)
            except TransientRpcError:
                attempt += 1
                self.resources.retries += 1
                if attempt > self._policy.max_call_retries:
                    raise
                time.sleep(self._policy.backoff(attempt))

    def _fault_kill(self) -> None:
        """Kill the worker process to realize an injected crash."""
        if self._process is None:
            return  # connect mode: the listener is not ours to kill
        self._process.kill()
        self._process.join(self._policy.join_timeout)

    def _fault_preamble(self, command: str) -> bool:
        """Apply injected call faults; returns kill-after-send."""
        if self._fault_plan is None:
            return False
        spec = self._fault_plan.on_call(self.worker_id, command)
        if spec is None:
            return False
        if spec.kind == "delay":
            time.sleep(spec.delay)
        elif spec.kind == "error":
            raise TransientRpcError(
                f"injected transient RPC failure calling "
                f"{command} on worker {self.worker_id}",
                worker_id=self.worker_id,
                command=command,
            )
        elif spec.kind in ("crash", "host_loss"):
            if spec.where == "after_send":
                return True
            self._fault_kill()
        return False

    def _call_once(self, command: str, args: tuple) -> Any:
        kill_after_send = self._fault_preamble(command)
        flow_id = self._next_flow_id()
        with self._rpc_span(command, flow_id) as span:
            try:
                status, payload = self._channel.call(
                    command,
                    args,
                    flow_id=flow_id,
                    post_send=self._fault_kill if kill_after_send else None,
                    span=span,
                )
            except TransportError as exc:
                raise self._worker_failure(command, exc) from exc
        return self._relay(command, status, payload)

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
            name, message, trace, telemetry = payload
            self._mirror(telemetry)
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
        result, telemetry = payload
        self._mirror(telemetry)
        return result

    def _mirror(self, telemetry) -> None:
        """Fold a response's worker counters into the resource mirror and
        hand its streaming frame to the collector."""
        if telemetry is None:
            return  # the worker was not configured yet
        (
            self.resources.current_bytes,
            peak,
            self.resources.candidate_routes,
            self.resources.bdd_nodes,
            self.resources.fib_entries,
            oom,
            frame,
        ) = telemetry
        self.resources.peak_bytes = max(self.resources.peak_bytes, peak)
        self.resources.oom = self.resources.oom or oom
        if frame is not None and self.telemetry_sink is not None:
            try:
                self.telemetry_sink(frame)
            except Exception:  # noqa: BLE001 — telemetry must never
                pass  # poison the RPC result path

    # -- supervision ------------------------------------------------------

    def is_alive(self) -> bool:
        if self._process is not None and not self._process.is_alive():
            return False
        return self._channel.healthy()

    def reap(self) -> None:
        """Tear down the channel and the dead (or doomed) process."""
        self._channel.close()
        process = self._process
        if process is None:
            return
        try:
            if process.is_alive():
                process.terminate()
                process.join(self._policy.join_timeout)
            if process.is_alive():
                process.kill()
                process.join(self._policy.join_timeout)
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

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self._channel.call("__stop__", timeout=timeout, internal=True)
        except TransportError:
            pass
        self._channel.close()
        process = self._process
        if process is None:
            return
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout)
        if process.is_alive():
            # terminate() can be absorbed (e.g. a wedged interpreter):
            # escalate to SIGKILL so close() can never leave a child.
            process.kill()
            process.join(timeout)

    def transport_counters(self) -> Dict[str, int]:
        return dict(self._channel.counters)


def _forwarder(command: str):
    """A proxy method sending ``command`` with the worker's signature.

    Arguments are bound against :class:`Worker`'s own signature, defaults
    filled in, so a bad call fails here and the wire always carries the
    full positional tuple the worker method receives.
    """
    method = getattr(Worker, command)
    signature = inspect.signature(method)
    signature = signature.replace(
        parameters=list(signature.parameters.values())[1:]  # drop self
    )

    def forward(self, *args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return self._call(command, *bound.args)

    forward.__name__ = command
    forward.__doc__ = method.__doc__
    return forward


for _command in Worker.COMMANDS:
    setattr(SocketWorkerProxy, _command, _forwarder(_command))


class SocketWorkerPool:
    """Spawns (or dials) one TCP worker per id and hands out proxies.

    Also the supervisor's muscle: it reports dead workers, heartbeats
    the live ones, and respawns a worker in place (the proxy keeps its
    identity; see :meth:`SocketWorkerProxy.revive`).
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
        telemetry_interval: float = 0.0,
        telemetry_sink: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self._context = mp.get_context(
            "fork" if os.name == "posix" else "spawn"
        )
        self._configure_args = (snapshot, assignment, capacity, max_hops)
        self._policy = retry_policy or RetryPolicy()
        self._fault_plan = fault_plan
        self._trace_dir = trace_dir
        self._metrics = metrics
        self._host = host
        self._telemetry_interval = telemetry_interval
        # Spawn counts per worker id: a respawned worker's shard carries
        # the next incarnation number, so its spans stay distinguishable
        # after merging onto the same process track.
        self._incarnations: Dict[int, int] = {}
        # Workers declared permanently lost: worker_id -> their channel
        # counters frozen at loss time (the live channel is gone, but the
        # traffic it carried must stay reportable, tagged lost).
        self._lost: Dict[int, Dict[str, Any]] = {}
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
            # Fork every server process before any channel exists: the rx
            # and heartbeat threads must never be duplicated into a child.
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
                    policy=self._policy,
                    fault_plan=fault_plan,
                    tracer=tracer,
                    telemetry_sink=telemetry_sink,
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
        channel = RpcChannel(
            address,
            policy=self._policy,
            worker_id=worker_id,
            fault_plan=self._fault_plan,
            metrics=self._metrics,
            heartbeat=self._policy.heartbeat_interval_seconds > 0,
        )
        return channel

    def _configure(self, worker_id: int, channel: RpcChannel) -> None:
        """Ship identity + snapshot to the worker (idempotent RPC)."""
        snapshot, assignment, capacity, max_hops = self._configure_args
        incarnation = self._incarnations.get(worker_id, -1) + 1
        self._incarnations[worker_id] = incarnation
        status, payload = channel.call(
            "__configure__",
            (
                worker_id,
                snapshot,
                assignment,
                capacity,
                max_hops,
                self._trace_dir,
                incarnation,
                self._telemetry_interval,
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
        self, snapshot: Snapshot, assignment: Optional[Dict[str, int]] = None
    ) -> None:
        """Point future respawn ``__configure__`` replays at the current
        snapshot/assignment.

        The serving layer calls this on *every* delta, including the
        incremental path that never reconfigures live workers: a worker
        respawned mid-epoch must be rebuilt from the session's current
        config, not the boot-time one (it would then fail the epoch
        fence and recovery would loop).
        """
        _old_snapshot, old_assignment, capacity, max_hops = (
            self._configure_args
        )
        self._configure_args = (
            snapshot,
            assignment if assignment is not None else old_assignment,
            capacity,
            max_hops,
        )

    def reconfigure(
        self, snapshot: Snapshot, assignment: Dict[str, int]
    ) -> None:
        """Rebind every live worker to a new snapshot (logical respawn);
        listeners and channels stay resident.  Transport failures surface
        as :class:`WorkerFailure` for the caller's supervisor."""
        self.update_snapshot(snapshot, assignment)
        for proxy in self.proxies:
            if proxy.worker_id in self._lost:
                continue
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

    def mark_lost(self, worker_id: int) -> None:
        """Blacklist a worker, freezing its transport counters.

        The proxy slot is retained — ``respawn`` doubles as the heal
        probe and clears the mark on success — but fleet sweeps skip the
        worker and :meth:`transport_counters` reports the frozen stats
        tagged ``lost`` until then.
        """
        proxy = self.proxies[worker_id]
        try:
            counters: Dict[str, Any] = dict(proxy.transport_counters())
        except Exception:  # noqa: BLE001 — the channel may be torn down
            counters = {}
        self._lost[worker_id] = counters

    @property
    def lost_workers(self) -> List[int]:
        return sorted(self._lost)

    def dead_workers(self) -> List[int]:
        return [
            proxy.worker_id
            for proxy in self.proxies
            if proxy.worker_id not in self._lost and not proxy.is_alive()
        ]

    def ping_all(self) -> List[int]:
        failed = []
        for proxy in self.proxies:
            if proxy.worker_id in self._lost:
                continue
            try:
                if not proxy.ping():
                    failed.append(proxy.worker_id)
            except WorkerFailure:
                failed.append(proxy.worker_id)
        return failed

    def respawn(self, worker_id: int) -> SocketWorkerProxy:
        """Give the worker a fresh process (managed) or connection.

        In connect mode the listener is assumed to outlive its worker
        state: respawn redials and replays ``__configure__`` at the next
        incarnation, which rebuilds the worker server-side.  Raises
        :class:`RespawnError` when the worker cannot be brought back —
        the controller's cue to degrade to the sequential fallback.
        """
        if self._fault_plan is not None and (
            self._fault_plan.should_fail_respawn(worker_id)
        ):
            raise RespawnError(
                f"respawn of worker {worker_id} failed (injected)",
                worker_id=worker_id,
            )
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
            self._lost.pop(worker_id, None)
        except TransportError as exc:
            raise RespawnError(
                f"respawn of worker {worker_id} failed: {exc}",
                worker_id=worker_id,
            ) from exc
        except OSError as exc:
            raise RespawnError(
                f"respawn of worker {worker_id} failed: {exc!r}",
                worker_id=worker_id,
            ) from exc
        return proxy

    # -- telemetry --------------------------------------------------------

    def transport_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-worker channel counters plus a fleet-wide total.

        A lost worker's entry is its counters frozen at loss time,
        tagged ``lost: True`` — never the fresh zeros a torn-down
        channel would report.
        """
        per_worker: Dict[str, Dict[str, Any]] = {}
        for proxy in self.proxies:
            if proxy.worker_id in self._lost:
                counters = dict(self._lost[proxy.worker_id])
                counters["lost"] = True
            else:
                counters = dict(proxy.transport_counters())
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
                proxy.stop(timeout=self._policy.join_timeout)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        for proxy in self.proxies:
            process = proxy._process
            try:
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(self._policy.join_timeout)
            except OSError:
                pass
