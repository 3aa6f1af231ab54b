"""Worker membership (§3.2): the one record of who is in the fleet.

The controller owns the set of workers, and :class:`Fleet` is that set:
the active workers with their sidecars (in worker-id order), the record
of every permanently lost worker, and the serving epoch a worker must
be at before it may join the fixed point.  The orchestrators and the
supervisor read the fleet at every phase instead of keeping copies, so
a loss or a rejoin is one mutation here.

Membership has exactly two recorded states, active and lost.  Suspect
and respawning are transient: they live inside one call to
:meth:`~repro.dist.controller.WorkerSupervisor.recover`.

Every worker phase is one fan-out, :meth:`Fleet.call_all`: issue the
command to every active worker, then settle every call; a failure is
raised only then, so recovery never starts while a sibling call is
still changing a worker's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .sidecar import Sidecar


def settle_all(handles: Iterable[Any]) -> List[Any]:
    """Every handle's ``result()``, in order; the first failure is
    raised only after every handle has settled."""
    results: List[Any] = []
    errors: List[Exception] = []
    for handle in handles:
        try:
            results.append(handle.result())
        except Exception as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
    if errors:
        raise errors[0]
    return results


@dataclass
class LostWorker:
    """A permanently lost worker, kept so its final stats stay
    reportable and a healed host can rejoin with its original identity."""

    worker: Any
    sidecar: Sidecar
    reason: str
    # Channel counters frozen at loss time: the live channel is gone,
    # but the traffic it carried stays reportable, tagged lost.
    transport: Dict[str, int] = field(default_factory=dict)


class Fleet:
    """Active workers and sidecars, lost-worker records, serving epoch."""

    def __init__(self, workers: Sequence[Any], sidecars: Sequence[Sidecar]):
        self.workers: List[Any] = list(workers)
        self.sidecars: List[Sidecar] = list(sidecars)
        self.lost: Dict[int, LostWorker] = {}
        # Serving mode: the epoch every active worker is seeded to, which
        # ``begin_shard`` fences on.  None outside serving.
        self.epoch: Optional[int] = None

    def get(self, worker_id: int) -> Optional[Any]:
        """The active worker with this id, or None."""
        return next(
            (w for w in self.workers if w.worker_id == worker_id), None
        )

    @property
    def active_ids(self) -> List[int]:
        return [worker.worker_id for worker in self.workers]

    def call_all(self, command: str, *args) -> List[Any]:
        """Run ``command(*args)`` on every active worker; the results
        in worker-id order.  All calls are issued before any settles."""
        return settle_all(
            [worker.call_nowait(command, *args) for worker in self.workers]
        )

    def mark_lost(
        self, worker_id: int, reason: str, transport: Dict[str, int]
    ) -> None:
        """Move an active worker (and its sidecar) to the lost records.

        The lists are rebound, never mutated, so a caller iterating the
        old ones is unaffected.
        """
        worker = self.get(worker_id)
        sidecar = next(s for s in self.sidecars if s.worker_id == worker_id)
        self.lost[worker_id] = LostWorker(worker, sidecar, reason, transport)
        self.workers = [w for w in self.workers if w is not worker]
        self.sidecars = [s for s in self.sidecars if s is not sidecar]

    def rejoin(self, worker_id: int) -> None:
        """Return a lost worker (and its sidecar) to the active set."""
        record = self.lost.pop(worker_id)
        self.workers = sorted(
            self.workers + [record.worker], key=lambda w: w.worker_id
        )
        self.sidecars = sorted(
            self.sidecars + [record.sidecar], key=lambda s: s.worker_id
        )

    def roster(self) -> List[Tuple[Any, bool]]:
        """Every worker with its lost flag: active ones, then lost ones
        by id.  Nobody vanishes from the bill when declared lost."""
        return [(worker, False) for worker in self.workers] + [
            (self.lost[worker_id].worker, True)
            for worker_id in sorted(self.lost)
        ]

    def statuses(self) -> Dict[str, Dict[str, Any]]:
        """Every worker's latest status, keyed ``worker<N>``, in roster
        order, with the controller-side counts (respawns, retries) and
        the lost flag.  A lost worker keeps the last status it sent."""
        return {
            f"worker{worker.worker_id}": dict(
                worker.status(),
                respawns=worker.resources.respawns,
                retries=worker.resources.retries,
                lost=lost,
            )
            for worker, lost in self.roster()
        }

    def capacity(self) -> Dict[str, Any]:
        """Degraded-capacity summary (serving surfaces re-export this)."""
        active = len(self.workers)
        total = active + len(self.lost)
        return {
            "active_workers": active,
            "lost_workers": len(self.lost),
            "capacity_ratio": (active / total) if total else 0.0,
            "lost": {
                str(worker_id): self.lost[worker_id].reason
                for worker_id in sorted(self.lost)
            },
        }
