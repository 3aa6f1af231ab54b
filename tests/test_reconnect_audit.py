"""State audits on worker reconnect and respawn.

A reconnection or respawn is an *incarnation change*: state derived from
the previous incarnation — liveness suspicion on the channel, send-side
dedup memory aimed at the peer — must be discarded, or the healed link
keeps paying for (or miscounting against) a peer that no longer exists.
"""

from __future__ import annotations

import threading

import pytest

from repro.bdd.serialize import SendDedupCache
from repro.dist.controller import (
    S2Controller,
    S2Options,
    WorkerSupervisor,
)
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


# -- the supervisor: respawn invalidates dedup memory toward the peer -------


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


def test_recover_drops_dedup_caches_toward_the_respawned_peer(tmp_path):
    workers, sidecars, supervisor = _supervised_pair(tmp_path)
    # Both sidecars hold send-dedup memory toward both peers.
    for sidecar in sidecars:
        sidecar._packet_dedup = {0: SendDedupCache(), 1: SendDedupCache()}
    supervisor.recover(WorkerDiedError("gone", worker_id=1))
    assert workers[1].resets == 1
    assert workers[1].resources.respawns == 1
    for sidecar in sidecars:
        # Memory toward the dead incarnation is gone; toward the
        # surviving peer it is kept.
        assert 1 not in sidecar._packet_dedup
        assert 0 in sidecar._packet_dedup
    assert supervisor.recoveries == 1
    assert supervisor.stale_epoch_rejections == 0


def test_recover_reseeds_the_serving_epoch(tmp_path):
    workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    supervisor.fleet.epoch = 7
    supervisor.recover(StaleEpochError("stale", worker_id=1))
    # Fresh contexts boot at epoch -1; recovery must re-admit the
    # worker past the fence before any shard replays on it.
    assert workers[1].epoch_seeds == [7]
    assert workers[0].epoch_seeds == []
    assert supervisor.stale_epoch_rejections == 1


def test_recover_rejects_unknown_worker(tmp_path):
    _workers, _sidecars, supervisor = _supervised_pair(tmp_path)
    with pytest.raises(WorkerDiedError):
        supervisor.recover(WorkerDiedError("who", worker_id=9))
    assert supervisor.recoveries == 0


# -- the controller: full reconfigure resets every sender's memory ----------


def test_reconfigure_invalidates_every_send_cache(fattree4):
    """A full reconfigure logically respawns the whole fleet: every
    receive side forgets, so every send side must forget too."""
    with S2Controller(
        fattree4, S2Options(num_workers=2, num_shards=2)
    ) as controller:
        assert controller.fleet.sidecars, "sequential runtime has sidecars"
        for sidecar in controller.fleet.sidecars:
            sidecar._packet_dedup = {0: SendDedupCache()}
        controller.reconfigure(fattree4)
        for sidecar in controller.fleet.sidecars:
            assert sidecar._packet_dedup == {}
