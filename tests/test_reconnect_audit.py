"""State audits on worker reconnect and respawn.

A reconnection or respawn is an *incarnation change*: state derived from
the previous incarnation — liveness suspicion on the channel, the serving
epoch the old worker had been admitted at — must be discarded or
re-seeded, or the healed link keeps acting on a peer that no longer
exists.
"""

from __future__ import annotations

import threading

import pytest

from repro.dist.controller import WorkerSupervisor
from repro.dist.faults import StaleEpochError, WorkerDiedError
from repro.dist.fleet import Fleet
from repro.dist.runtime import LocalWorkerPool
from repro.dist.sidecar import Sidecar
from repro.dist.storage import RouteStore
from repro.dist.transport import RpcChannel, RpcServer


# -- the channel: reconnect clears liveness suspicion -----------------------


def test_reconnect_clears_suspect_state():
    """Regression: a channel that went suspect (missed heartbeats) and
    then re-dialed successfully must be healthy again *immediately* —
    the suspicion belonged to the dead connection, not the new one."""
    server = RpcServer(lambda command, args, flow_id: ("ok", None))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    channel = RpcChannel((server.host, server.port))
    try:
        channel.connect()
        channel._drop_connection()  # the blip that made it suspect...
        channel._suspect_count = RpcChannel.SUSPECT_AFTER
        assert not channel.healthy()
        channel.connect()  # ...heals: no RPC has completed yet
        assert channel.healthy()
        assert channel._suspect_count == 0
    finally:
        channel.close()
        server.stop()
        thread.join(5.0)


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


def _supervised_pair(tmp_path):
    workers = [_StubWorker(0), _StubWorker(1)]
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
    supervisor.recover(StaleEpochError("stale", worker_id=1))
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
