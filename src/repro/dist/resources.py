"""Worker resource model: memory accounting and work counters.

The paper's memory results are resource phenomena: vanilla Batfish OOMs
at FatTree50 under a 100 GB ceiling, and prefix sharding trades rounds
for peak memory (Figures 4, 5, 8, 9).  Those effects are arithmetic over
route counts, BDD sizes and capacities — so the memory side is modeled
explicitly from *measured* inputs (candidate routes held, BDD nodes, FIB
entries), with one capacity per worker.

Time is never modeled: every time the repository reports is measured
wall-clock seconds (``stopwatch`` in the orchestrators and harness).
Alongside memory, each worker keeps plain work counters — route updates
processed, BDD operations, RPC bytes and messages sent — which do not
depend on the machine a run is on.

Capacities default to a scaled-down "100 GB logical server" consistent
with the scaled-down topologies (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


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


# Memory constants, calibrated so that a FatTree with ``k`` pods consumes
# roughly the same *fraction* of a worker's capacity as the paper's
# FatTree``k`` does of a 100 GB logical server, keeping every OOM
# crossover at the same relative position in the sweeps.  Routes are the
# dominant memory term at the paper's scale, so the per-route cost is
# inflated to keep that true at model scale (1000x fewer routes than the
# paper's networks).
ROUTE_BYTES = 2048          # one BGP candidate path in memory
FIB_ENTRY_BYTES = 256       # one compiled FIB entry (ECMP set)
BDD_NODE_BYTES = 24         # one BDD node table slot
NODE_BASE_BYTES = 4096      # fixed per switch model
WORKER_BASE_BYTES = 1 << 20

#: Default modeled capacity of one logical server ("100 GB", scaled).
#: Benchmarks usually calibrate a tighter value via
#: :func:`repro.harness.scaling.capacity_for_sweep`.
DEFAULT_WORKER_CAPACITY = 256 << 20  # 256 MB of modeled state

#: A capacity no run reaches: memory is still accounted, never enforced.
UNLIMITED_CAPACITY = 1 << 62


def memory_bytes(
    candidate_routes: int,
    bdd_nodes: int,
    node_count: int,
    fib_entries: int = 0,
) -> int:
    """Modeled bytes held by a worker with these counts."""
    return (
        WORKER_BASE_BYTES
        + node_count * NODE_BASE_BYTES
        + candidate_routes * ROUTE_BYTES
        + fib_entries * FIB_ENTRY_BYTES
        + bdd_nodes * BDD_NODE_BYTES
    )


@dataclass
class WorkerResources:
    """Per-worker resource tracking, updated by the worker as it runs."""

    name: str
    capacity: int = DEFAULT_WORKER_CAPACITY
    node_count: int = 0

    candidate_routes: int = 0
    bdd_nodes: int = 0
    fib_entries: int = 0
    peak_bytes: int = 0
    current_bytes: int = 0

    route_work: int = 0           # Σ route updates processed
    bdd_ops: int = 0
    rpc_bytes_sent: int = 0
    rpc_messages_sent: int = 0
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
        self.current_bytes = memory_bytes(
            candidate_routes, bdd_nodes, self.node_count, fib_entries
        )
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if enforce and self.current_bytes > self.capacity:
            self.oom = True
            raise SimulatedOOM(self.name, self.current_bytes, self.capacity)
        return self.current_bytes

    def charge_rpc(self, payload_bytes: int, messages: int = 1) -> None:
        """Count bytes and messages this worker sent."""
        self.rpc_bytes_sent += payload_bytes
        self.rpc_messages_sent += messages


@dataclass
class ClusterReport:
    """Aggregated resource view across all workers of a run."""

    workers: List[WorkerResources] = field(default_factory=list)

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
