"""State audits on worker respawn and unit replay.

A respawn is an *incarnation change*: state derived from the previous
incarnation — the serving epoch the old worker had been admitted at —
must be re-seeded, or the healed link keeps acting on a peer that no
longer exists.
"""

from __future__ import annotations

import pytest

from repro.dist.controller import WorkerSupervisor
from repro.dist.faults import RetryPolicy, StaleEpochError, WorkerDiedError
from repro.dist.fleet import Fleet
from repro.dist.runtime import LocalWorkerPool
from repro.dist.sidecar import Sidecar
from repro.dist.storage import RouteStore
from repro.dist.worker import Settled


# -- the supervisor: respawn resets the worker and re-seeds its epoch -------


class _StubWorker:
    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.resets = 0
        self.restored = "untouched"
        self.epoch_seeds = []

        class _Resources:
            respawns = 0

        self.resources = _Resources()

    def reset(self) -> None:
        self.resets += 1

    def restore_ospf_state(self, state) -> None:
        self.restored = state

    def begin_epoch(self, epoch: int) -> None:
        self.epoch_seeds.append(epoch)

    def call_nowait(self, command: str, *args) -> Settled:
        try:
            return Settled(getattr(self, command)(*args))
        except Exception as exc:  # noqa: BLE001 — raised at result()
            return Settled(error=exc)


def _supervised_pair(tmp_path, workers=None):
    workers = workers or [_StubWorker(0), _StubWorker(1)]
    sidecars = [Sidecar(worker) for worker in workers]
    for sidecar in sidecars:
        sidecar.register_peers(sidecars)
    # The real in-process pool, holding the stubs: a respawn is a reset.
    pool = LocalWorkerPool(None, {}, num_workers=0, capacity=0)
    pool.proxies = workers
    supervisor = WorkerSupervisor(
        Fleet(workers, sidecars), RouteStore(str(tmp_path)), pool
    )
    return workers, sidecars, supervisor


def test_recover_reseeds_the_serving_epoch(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    supervisor.fleet.epoch = 7
    supervisor.replay(_failing_unit([StaleEpochError("stale", worker_id=1)]))
    assert workers[1].resets == 1
    assert workers[1].resources.respawns == 1
    assert workers[0].resets == 0
    # Fresh contexts boot at epoch -1; recovery must re-admit the
    # worker past the fence before any shard replays on it.
    assert workers[1].epoch_seeds == [7]
    assert workers[0].epoch_seeds == []
    assert supervisor.recoveries == 1
    assert supervisor.stale_epoch_rejections == 1


def test_recover_rejects_unknown_worker(tmp_path):
    _workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    with pytest.raises(WorkerDiedError):
        supervisor.recover(WorkerDiedError("who", worker_id=9))
    assert supervisor.recoveries == 0


# -- the fan-out names the failed worker ------------------------------------


class _CallingStub(_StubWorker):
    """A stub whose calls raise ``error`` (when set) at settle time and
    count how often they were settled."""

    def __init__(self, worker_id: int, error=None) -> None:
        super().__init__(worker_id)
        self.error = error
        self.settled = 0

    def call_nowait(self, command: str, *args):
        stub = self

        class _Handle:
            def result(self):
                stub.settled += 1
                if stub.error is not None:
                    raise stub.error
                return command

        return _Handle()


def _fleet(workers):
    return Fleet(workers, [Sidecar(worker) for worker in workers])


def test_call_all_tags_a_failure_with_its_worker():
    workers = [
        _CallingStub(0),
        _CallingStub(1, error=WorkerDiedError("died")),
        _CallingStub(2),
    ]
    with pytest.raises(WorkerDiedError) as raised:
        _fleet(workers).call_all("ping")
    assert raised.value.worker_id == 1
    # Every call settled before the failure was raised.
    assert [worker.settled for worker in workers] == [1, 1, 1]


def test_call_all_keeps_a_failure_that_names_its_worker():
    failure = WorkerDiedError("peer died", worker_id=0)
    workers = [_CallingStub(0), _CallingStub(1, error=failure)]
    with pytest.raises(WorkerDiedError) as raised:
        _fleet(workers).call_all("ping")
    assert raised.value.worker_id == 0


def test_call_all_names_every_failed_worker():
    workers = [
        _CallingStub(0, error=WorkerDiedError("a")),
        _CallingStub(1),
        _CallingStub(2, error=WorkerDiedError("c")),
    ]
    with pytest.raises(WorkerDiedError) as raised:
        _fleet(workers).call_all("ping")
    assert raised.value.worker_id == 0
    assert [f.worker_id for f in raised.value.failures] == [0, 2]


def test_call_all_raises_a_result_error_before_worker_failures():
    workers = [
        _CallingStub(0, error=WorkerDiedError("a")),
        _CallingStub(1, error=ValueError("not a worker failure")),
    ]
    with pytest.raises(ValueError):
        _fleet(workers).call_all("ping")
    assert [worker.settled for worker in workers] == [1, 1]


# -- the replay loop: a budget per worker within one unit -------------------


def _failing_unit(failures):
    """A unit that raises each of ``failures`` in turn, then returns
    the number of runs it took."""
    runs = []

    def unit():
        runs.append(None)
        if len(runs) <= len(failures):
            raise failures[len(runs) - 1]
        return len(runs)

    return unit


def test_replay_recovers_failures_on_different_workers(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    supervisor.policy = RetryPolicy(max_replays=1)
    recovered = []
    unit = _failing_unit(
        [WorkerDiedError("a", worker_id=0), WorkerDiedError("b", worker_id=1)]
    )
    assert supervisor.replay(unit, recovered.append) == 3
    assert [worker.resets for worker in workers] == [1, 1]
    assert len(recovered) == 2
    assert supervisor.recoveries == 2


def test_replay_gives_up_past_max_replays_for_one_worker(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    assert supervisor.policy.max_replays == 2
    unit = _failing_unit(
        [WorkerDiedError("again", worker_id=1) for _ in range(3)]
    )
    with pytest.raises(WorkerDiedError):
        supervisor.replay(unit)
    assert workers[1].resets == 2
    # The count is per unit: a fresh unit gets the full budget again.
    unit = _failing_unit(
        [WorkerDiedError("again", worker_id=1) for _ in range(2)]
    )
    assert supervisor.replay(unit) == 3
    assert workers[1].resets == 4


def test_replay_with_no_budget_reraises_the_first_failure(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    supervisor.policy = RetryPolicy(max_replays=0)
    recovered = []
    unit = _failing_unit([WorkerDiedError("once", worker_id=0)])
    with pytest.raises(WorkerDiedError):
        supervisor.replay(unit, recovered.append)
    assert workers[0].resets == 0
    assert recovered == []
    assert supervisor.recoveries == 0


def test_replay_recovers_every_failed_worker_before_one_rerun(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    failure = WorkerDiedError("a", worker_id=0)
    failure.failures.append(WorkerDiedError("b", worker_id=1))
    recovered = []
    assert supervisor.replay(_failing_unit([failure]), recovered.append) == 2
    assert [worker.resets for worker in workers] == [1, 1]
    assert recovered == [2]  # two failures, one rerun


class _FlakyRejoin(_StubWorker):
    """A stub whose first ``begin_epoch`` fails as if it died again."""

    def begin_epoch(self, epoch: int) -> None:
        if self.resets == 1:
            raise WorkerDiedError("died while rejoining", worker_id=1)
        super().begin_epoch(epoch)


def test_replay_recovers_a_failure_of_the_rejoin_calls(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(
        tmp_path, [_StubWorker(0), _FlakyRejoin(1)]
    )
    supervisor.fleet.epoch = 3
    recovered = []
    unit = _failing_unit([WorkerDiedError("a", worker_id=1)])
    assert supervisor.replay(unit, recovered.append) == 2
    assert workers[1].resets == 2
    assert workers[1].epoch_seeds == [3]
    assert recovered == [2]
