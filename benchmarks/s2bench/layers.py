"""Per-layer probes of the traced run: each layer's public function is
called on the workload's own snapshot and options and timed from
outside.  They run after the workload's operations, so they cost the
end-to-end numbers nothing (those come from the untraced run anyway).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict

from repro.bdd.serialize import deserialize, from_bytes, serialize, to_bytes
from repro.dist.partition import estimate_loads, partition
from repro.dist.sharding import build_dpdg, make_shards
from repro.dist.storage import RouteStore
from repro.dist.transport import RpcChannel, RpcServer

from .harness import Bench
from .oracle import Reference


def config_counts(texts) -> Dict[str, float]:
    return {
        "config.devices": len(texts),
        "config.lines": sum(
            text.count("\n") for _dialect, text in texts.values()
        ),
    }


def partition_probe(bench: Bench, snapshot, workers: int) -> None:
    for _ in range(3):
        with bench.tracer.span("partition.partition"):
            result = partition(snapshot, workers)
    bench.layer["partition.edge_cut"] = result.edge_cut(snapshot.topology)
    bench.layer["partition.imbalance"] = result.imbalance(
        estimate_loads(snapshot)
    )


def sharding_probe(bench: Bench, snapshot, shards: int) -> None:
    for _ in range(3):
        with bench.tracer.span("sharding.build"):
            components = build_dpdg(snapshot).weakly_connected_components()
            packed = make_shards(snapshot, shards)
    bench.layer["sharding.components"] = len(components)
    bench.layer["sharding.shards"] = len(packed)


def serialize_probe(bench: Bench, ref: Reference, encoding) -> None:
    """Wire round trip of the largest reachability predicate of the
    reference all-pair result (``to_bytes``/``from_bytes`` plus the
    engine-side encode/decode a cross-worker packet pays)."""
    engine = ref.verifier.engine
    payload = max(
        (serialize(engine, bdd) for bdd in ref.reachable.values()),
        key=lambda p: len(p[2]),
    )
    root = deserialize(engine, payload)
    receiver = encoding.make_engine()
    loops = 20 if bench.smoke else 200
    started = time.perf_counter()
    for _ in range(loops):
        wire = to_bytes(serialize(engine, root))
        deserialize(receiver, from_bytes(wire))
    bench.layer["serialize.roundtrip_us"] = (
        (time.perf_counter() - started) / loops * 1e6
    )
    bench.layer["serialize.bytes"] = len(wire)


def transport_probe(bench: Bench) -> None:
    """Echo round trips through a loopback ``RpcChannel``/``RpcServer``
    pair: the floor every barrier pays per worker."""
    server = RpcServer(lambda command, args, flow_id: ("ok", args))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    channel = RpcChannel((server.host, server.port))
    try:
        channel.connect()
        channel.call("warmup")
        calls = 100 if bench.smoke else 1000
        started = time.perf_counter()
        for _ in range(calls):
            status, _ = channel.call("echo", ())
            if status != "ok":
                raise RuntimeError(f"echo returned {status!r}")
        bench.layer["transport.rtt_us"] = (
            (time.perf_counter() - started) / calls * 1e6
        )
    finally:
        channel.close()
        server.stop()
        thread.join(5.0)


def storage_probe(bench: Bench, store_dir: str, workers: int) -> None:
    """Size of the shard files in the last store and a re-read of each
    (what an announce delta's carry-over pays per clean shard).  The
    journal and manifest are left out: they grow with the number of
    operations, which depends on the time budget."""
    bench.layer["storage.bytes_written"] = sum(
        entry.stat().st_size for entry in os.scandir(store_dir)
        if entry.name.endswith(".rib")
    )
    store = RouteStore(store_dir)
    with bench.tracer.span("storage.reread"):
        for worker in range(workers):
            for shard in store.worker_shard_indices(worker):
                store.read_shard_payload(worker, shard)
