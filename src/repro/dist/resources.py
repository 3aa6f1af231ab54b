"""Worker resource model: memory accounting and the wall-clock model.

The paper's headline results are resource phenomena: vanilla Batfish OOMs
at FatTree50 under a 100 GB ceiling, prefix sharding trades rounds for
peak memory, and per-worker time falls with the worker count until ~8
workers (Figures 4–9).  Those effects are arithmetic over route counts,
BDD sizes, capacities, and core counts — so we model them explicitly and
*measure* the inputs (candidate routes held, BDD operations performed,
bytes serialized) from the real computation.

Two outputs per run:

* **measured wall time** — the actual Python runtime (meaningful within a
  run, but Python-speed, not Java-speed);
* **modeled time/memory** — the cost model applied to measured work
  counts, with per-worker parallelism, GC pressure near the memory
  ceiling, and RPC overhead.  The benchmark figures report both.

Capacities default to a scaled-down "100 GB logical server" consistent
with the scaled-down topologies (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class SimulatedOOM(RuntimeError):
    """A worker exceeded its modeled memory capacity (the paper's OOM)."""

    def __init__(self, worker: str, used: int, capacity: int) -> None:
        super().__init__(
            f"worker {worker} out of memory: "
            f"{used / 1e6:.1f} MB used > {capacity / 1e6:.1f} MB capacity"
        )
        self.worker = worker
        self.used = used
        self.capacity = capacity


@dataclass(frozen=True)
class CostModel:
    """Constants translating measured work into modeled resources.

    The defaults are calibrated so that a FatTree with ``k`` pods consumes
    roughly the same *fraction* of a worker's capacity as the paper's
    FatTree``k`` does of a 100 GB logical server, keeping every OOM
    crossover at the same relative position in the sweeps.
    """

    # Scaled-model constants: routes are the dominant memory term at the
    # paper's scale, so the per-route cost is inflated to keep that true
    # at model scale (1000x fewer routes than the paper's networks).
    route_bytes: int = 2048         # one BGP candidate path in memory
    fib_entry_bytes: int = 256      # one compiled FIB entry (ECMP set)
    bdd_node_bytes: int = 24        # one BDD node table slot
    node_base_bytes: int = 4096     # fixed per switch model
    worker_base_bytes: int = 1 << 20

    cores_per_worker: int = 15      # the paper's logical-server core count
    route_update_cost: float = 1.0  # time units per processed candidate
    bdd_op_cost: float = 1.0        # time units per BDD apply step
    rpc_byte_cost: float = 0.0002   # time units per serialized byte
    rpc_message_cost: float = 5.0   # fixed per cross-worker message
    shard_overhead: float = 500.0   # per-shard setup + flush-to-disk

    # Garbage-collection pressure: time inflates as peak memory approaches
    # capacity (the paper's observed slowdown near the limit, §5.3/§5.7).
    gc_threshold: float = 0.5
    gc_max_penalty: float = 10.0

    def memory_bytes(
        self,
        candidate_routes: int,
        bdd_nodes: int,
        node_count: int,
        fib_entries: int = 0,
    ) -> int:
        return (
            self.worker_base_bytes
            + node_count * self.node_base_bytes
            + candidate_routes * self.route_bytes
            + fib_entries * self.fib_entry_bytes
            + bdd_nodes * self.bdd_node_bytes
        )

    def gc_factor(self, used: int, capacity: int) -> float:
        """Time inflation from GC pressure at ``used/capacity`` utilization.

        Quadratic above the threshold: collectors degrade gently at first
        and catastrophically near a full heap.
        """
        utilization = used / capacity if capacity else 0.0
        if utilization <= self.gc_threshold:
            return 1.0
        over = min(1.0, (utilization - self.gc_threshold) / (1 - self.gc_threshold))
        return 1.0 + over * over * (self.gc_max_penalty - 1.0)


#: Default modeled capacity of one logical server ("100 GB", scaled).
#: Benchmarks usually calibrate a tighter value via
#: :func:`repro.harness.scaling.capacity_for_sweep`.
DEFAULT_WORKER_CAPACITY = 256 << 20  # 256 MB of modeled state


@dataclass
class WorkerResources:
    """Per-worker resource tracking, updated by the worker as it runs."""

    name: str
    capacity: int = DEFAULT_WORKER_CAPACITY
    model: CostModel = field(default_factory=CostModel)
    node_count: int = 0

    candidate_routes: int = 0
    bdd_nodes: int = 0
    fib_entries: int = 0
    peak_bytes: int = 0
    current_bytes: int = 0

    route_work: float = 0.0       # Σ route updates (already ÷ by nothing)
    bdd_ops: int = 0
    rpc_bytes_sent: int = 0
    rpc_messages_sent: int = 0
    modeled_time: float = 0.0
    oom: bool = False
    retries: int = 0              # transient-RPC retries on this worker
    respawns: int = 0             # times this worker was respawned/reset

    def update_memory(
        self,
        candidate_routes: int,
        bdd_nodes: int,
        fib_entries: int = 0,
        enforce: bool = True,
    ) -> int:
        """Refresh the memory estimate; raises :class:`SimulatedOOM` when
        the capacity is exceeded and ``enforce`` is set."""
        self.candidate_routes = candidate_routes
        self.bdd_nodes = bdd_nodes
        self.fib_entries = fib_entries
        self.current_bytes = self.model.memory_bytes(
            candidate_routes, bdd_nodes, self.node_count, fib_entries
        )
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if enforce and self.current_bytes > self.capacity:
            self.oom = True
            raise SimulatedOOM(self.name, self.current_bytes, self.capacity)
        return self.current_bytes

    def charge_route_round(self, updates_processed: int) -> float:
        """Model the time of one control-plane round on this worker."""
        base = (
            updates_processed
            * self.model.route_update_cost
            / self.model.cores_per_worker
        )
        elapsed = base * self.model.gc_factor(self.current_bytes, self.capacity)
        self.route_work += updates_processed
        self.modeled_time += elapsed
        return elapsed

    def charge_bdd_ops(self, ops: int) -> float:
        """Model the time of BDD work; ops on one engine serialize, so no
        per-core division (§2.2: a single shared node table blocks)."""
        elapsed = ops * self.model.bdd_op_cost * self.model.gc_factor(
            self.current_bytes, self.capacity
        )
        self.bdd_ops += ops
        self.modeled_time += elapsed
        return elapsed

    def charge_rpc(self, payload_bytes: int, messages: int = 1) -> float:
        elapsed = (
            payload_bytes * self.model.rpc_byte_cost
            + messages * self.model.rpc_message_cost
        )
        self.rpc_bytes_sent += payload_bytes
        self.rpc_messages_sent += messages
        self.modeled_time += elapsed
        return elapsed

    def charge_shard_overhead(self) -> float:
        self.modeled_time += self.model.shard_overhead
        return self.model.shard_overhead


@dataclass
class ClusterReport:
    """Aggregated resource view across all workers of a run."""

    workers: List[WorkerResources] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Modeled wall clock: the slowest worker bounds each phase; as a
        summary we report the max total (workers run the same rounds)."""
        return max((w.modeled_time for w in self.workers), default=0.0)

    @property
    def peak_worker_bytes(self) -> int:
        """The paper's reported metric: *per-worker* peak memory."""
        return max((w.peak_bytes for w in self.workers), default=0)

    @property
    def total_rpc_bytes(self) -> int:
        return sum(w.rpc_bytes_sent for w in self.workers)

    @property
    def total_rpc_messages(self) -> int:
        return sum(w.rpc_messages_sent for w in self.workers)

    @property
    def any_oom(self) -> bool:
        return any(w.oom for w in self.workers)

    @property
    def total_retries(self) -> int:
        """Transient-RPC retries absorbed by the supervision layer."""
        return sum(w.retries for w in self.workers)

    @property
    def total_respawns(self) -> int:
        """Workers respawned (socket runtime) or reset (in-process)."""
        return sum(w.respawns for w in self.workers)

    def by_name(self) -> Dict[str, WorkerResources]:
        return {w.name: w for w in self.workers}
