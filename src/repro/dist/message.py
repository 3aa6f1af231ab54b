"""Wire messages between sidecars, with real serialization accounting.

All cross-worker traffic is expressed as these dataclasses.  The sidecars
*pickle each message once* to measure the bytes an RPC transport moves
(the paper uses gRPC with Java serialization) and charge that size to the
sender's resource model, on the in-process and the socket runtime alike.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..bdd.serialize import SerializedBdd
from ..net.ip import Prefix
from ..routing.route import BgpRoute

# (exporting node, importer-side session local address) -> exported routes
BoundaryExports = Dict[Tuple[str, int], Tuple[BgpRoute, ...]]

# (exporting node, importer-side local address) -> OSPF distance vector
OspfExports = Dict[Tuple[str, int], Dict[Prefix, Tuple[int, frozenset]]]


@dataclass(frozen=True)
class RouteBatch:
    """One round's boundary route advertisements toward one worker.

    ``sequence`` is a per-sender monotonically increasing counter stamped
    by the sidecar at send time.  Receivers track the last sequence seen
    per source worker, which lets them discard duplicated deliveries (a
    real RPC transport can redeliver on retry) without any coordination.
    """

    source_worker: int
    target_worker: int
    round_token: int
    exports: BoundaryExports
    ospf_exports: Optional[OspfExports] = None
    sequence: int = 0

    def route_count(self) -> int:
        return sum(len(routes) for routes in self.exports.values())


@dataclass(frozen=True)
class DataPlanePatch:
    """What an announce-only epoch recomputed, for ``build_dataplane``.

    ``flush_indices`` are the shards whose files the epoch rewrote, and
    ``prefixes`` the dirty prefixes plus every prefix of those shards:
    the only prefixes whose FIB entries can differ from the previous
    epoch's (DESIGN.md, "Data-plane build").
    """

    flush_indices: Tuple[int, ...]
    prefixes: FrozenSet[Prefix]


@dataclass(frozen=True)
class PacketEnvelope:
    """A symbolic packet crossing a worker boundary (§4.3).

    The BDD travels in serialized form; the receiving worker re-encodes
    it in its own engine (the "option 2" design the paper adopts).
    """

    payload: SerializedBdd
    node: str
    in_port: str
    hops: int
    source: str
    path: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class PacketBatch:
    source_worker: int
    target_worker: int
    envelopes: Tuple[PacketEnvelope, ...]


def measured_size(message: object) -> int:
    """The bytes an RPC transport would move for ``message``."""
    return len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
