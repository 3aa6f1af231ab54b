#!/usr/bin/env python3
"""Quickstart: verify a synthesized FatTree with S2 in ~20 lines.

Builds a 4-pod FatTree (20 switches, eBGP everywhere, ECMP), partitions
it across 4 workers, runs the distributed control-plane simulation with
prefix sharding, then checks all-pair reachability on the distributed
data plane.

Run:  python examples/quickstart.py
"""

from repro import Prefix, Query, S2Options, S2Verifier
from repro.net.fattree import build_fattree

snapshot = build_fattree(4)
print(f"synthesized {snapshot.name}: {len(snapshot)} switches, "
      f"{len(list(snapshot.topology.links()))} links")

options = S2Options(num_workers=4, num_shards=4, partition_scheme="metis")
with S2Verifier(snapshot, options) as verifier:
    result = verifier.verify()
    print(result.summary())

    # the distributed RIBs are available for inspection
    ribs = verifier.collected_ribs()
    remote = Prefix.parse("10.3.1.0/24")
    paths = ribs["edge-0-0"][remote]
    print(f"\nedge-0-0 -> {remote}: {len(paths)} ECMP paths")
    for route in paths:
        print(f"  {route.describe()}")

    # ask a targeted question: can edge-0-0 reach edge-3-1's subnet?
    answer = verifier.checker().check_reachability(
        Query.single_pair("edge-0-0", "edge-3-1", remote)
    )
    print(f"\nsingle-pair reachability holds: "
          f"{answer.holds('edge-0-0', 'edge-3-1')}")

    report = verifier.controller.report()
    dp = result.dp_stats
    print(f"\nmeasured wall: control plane "
          f"{result.cp_stats.measured_seconds:.2f}s, predicates "
          f"{dp.predicate_seconds:.2f}s, forwarding {dp.forward_seconds:.2f}s")
    print(f"per-worker peak memory: {report.peak_worker_bytes / 1e6:.1f} MB "
          f"(modeled), cross-worker traffic: "
          f"{report.total_rpc_bytes / 1e3:.0f} KB in "
          f"{report.total_rpc_messages} messages")
