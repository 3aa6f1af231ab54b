"""Symbolic packet forwarding (§4.3).

A symbolic packet (a BDD over header bits) traverses the network; at every
hop it is conjoined with the inbound ACL, the port forwarding predicate,
and the outbound ACL (equation 1 of the paper).  Forwarding ends in one of
the four final states: ARRIVE, EXIT, BLACKHOLE, LOOP.

The mechanism is split from the driver so the same code serves both the
monolithic verifier and S2's distributed DPV: a :class:`ForwardingContext`
owns one BDD engine and the predicates of *its* nodes (added up front, or
compiled by a hook on the first packet that reaches a node), and processing
a packet yields finals plus packets bound for other nodes — which the
monolithic driver loops back locally and the DPO ships across workers
(serializing the BDD at the boundary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..bdd.engine import FALSE, TRUE, BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..net.topology import Topology
from .predicates import PortPredicates

DEFAULT_MAX_HOPS = 24


class FinalState(enum.Enum):
    ARRIVE = "arrive"
    EXIT = "exit"
    BLACKHOLE = "blackhole"
    LOOP = "loop"


@dataclass(frozen=True)
class SymbolicPacket:
    """A packet set in flight, positioned at ``node`` (entering ``in_port``)."""

    bdd: int
    node: str
    in_port: Optional[str]
    hops: int
    source: str
    path: Optional[Tuple[str, ...]] = None  # populated when tracing

    def stepped(self, bdd: int, node: str, in_port: str) -> "SymbolicPacket":
        path = self.path + (node,) if self.path is not None else None
        return SymbolicPacket(
            bdd=bdd,
            node=node,
            in_port=in_port,
            hops=self.hops + 1,
            source=self.source,
            path=path,
        )


@dataclass(frozen=True)
class FinalPacket:
    """A packet set that reached a final state."""

    state: FinalState
    node: str
    bdd: int
    source: str
    hops: int
    path: Optional[Tuple[str, ...]] = None
    out_port: Optional[str] = None  # for EXIT finals


@dataclass(frozen=True)
class ForwardingStep:
    """One hop of processing, recorded for traces (Figure 11)."""

    index: int
    from_node: str
    out_port: str
    to_node: str


class ForwardingContext:
    """Holds one engine plus the predicates and adjacency of a node set.

    In the monolithic verifier there is a single context for the whole
    network; in S2 each worker has one, and ``adjacency`` still spans the
    full topology so the context knows *where* a packet goes next even
    when the neighbor's predicates live on another worker.

    ``compile``, when given, is called with a node name the first time a
    packet reaches a node whose predicates were not added; what it returns
    is kept in :attr:`predicates`.
    """

    def __init__(
        self,
        engine: BddEngine,
        encoding: HeaderEncoding,
        topology: Topology,
        max_hops: int = DEFAULT_MAX_HOPS,
        compile: Optional[Callable[[str], PortPredicates]] = None,
    ) -> None:
        self.engine = engine
        self.encoding = encoding
        self.max_hops = max_hops
        self.predicates: Dict[str, PortPredicates] = {}
        self._compile = compile
        self.waypoint_bits: Dict[str, int] = {}
        # (node, iface) -> (peer node, peer iface); absent = edge port
        self.adjacency: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for link in topology.links():
            self.adjacency[(link.a.node, link.a.interface)] = (
                link.b.node,
                link.b.interface,
            )
            self.adjacency[(link.b.node, link.b.interface)] = (
                link.a.node,
                link.a.interface,
            )

    def add_node(self, predicates: PortPredicates) -> None:
        self.predicates[predicates.node] = predicates

    def set_waypoint_bit(self, node: str, metadata_index: int) -> None:
        """Install the §4.4 "write rule": packets passing ``node`` get the
        given metadata bit set."""
        self.waypoint_bits[node] = self.encoding.metadata_var(metadata_index)

    def predicates_for(self, node: str) -> PortPredicates:
        """``node``'s predicates, compiled through the hook on first use
        (KeyError without one)."""
        predicates = self.predicates.get(node)
        if predicates is None:
            if self._compile is None:
                raise KeyError(node)
            predicates = self.predicates[node] = self._compile(node)
        return predicates

    # -- the hop function ---------------------------------------------------

    def process(
        self, packet: SymbolicPacket
    ) -> Tuple[List[FinalPacket], List[SymbolicPacket]]:
        """Apply one node's processing to a packet.

        Returns ``(finals, outgoing)``; every outgoing packet is located
        at a neighbor node (which may belong to a different context).
        """
        engine = self.engine
        predicates = self.predicates_for(packet.node)
        finals: List[FinalPacket] = []
        outgoing: List[SymbolicPacket] = []

        pkt = packet.bdd
        if packet.in_port is not None:
            pkt = self._filter(
                packet, pkt, predicates.acl_in_for(packet.in_port), finals
            )
        if pkt == FALSE:
            return finals, outgoing

        waypoint_var = self.waypoint_bits.get(packet.node)
        if waypoint_var is not None:
            pkt = engine.set_var(pkt, waypoint_var, True)

        arrived = engine.and_(pkt, predicates.receive)
        if arrived != FALSE:
            finals.append(self._final(packet, FinalState.ARRIVE, arrived))

        dropped = engine.and_(pkt, predicates.drop)
        if dropped != FALSE:
            finals.append(self._final(packet, FinalState.BLACKHOLE, dropped))

        # compile_predicates inserts the ports in sorted order.
        for iface, forward_pred in predicates.forward.items():
            out = engine.and_(pkt, forward_pred)
            if out == FALSE:
                continue
            permitted_out = self._filter(
                packet, out, predicates.acl_out_for(iface), finals
            )
            if permitted_out == FALSE:
                continue
            peer = self.adjacency.get((packet.node, iface))
            if peer is None:
                finals.append(
                    self._final(
                        packet, FinalState.EXIT, permitted_out, out_port=iface
                    )
                )
                continue
            if packet.hops + 1 > self.max_hops:
                finals.append(
                    self._final(packet, FinalState.LOOP, permitted_out)
                )
                continue
            peer_node, peer_iface = peer
            outgoing.append(
                packet.stepped(permitted_out, peer_node, peer_iface)
            )
        return finals, outgoing

    def _filter(
        self,
        packet: SymbolicPacket,
        pkt: int,
        acl: int,
        finals: List[FinalPacket],
    ) -> int:
        """Apply one port ACL: the permitted packets, with the denied ones
        appended to ``finals`` as a BLACKHOLE.  A permit-all ACL costs no
        BDD operation; otherwise ``pkt ∧ ¬acl`` is the same canonical id
        as ``pkt ∧ ¬(pkt ∧ acl)``, and ``¬acl`` stays in the op cache."""
        if acl == TRUE:
            return pkt
        denied = self.engine.diff(pkt, acl)
        if denied != FALSE:
            finals.append(self._final(packet, FinalState.BLACKHOLE, denied))
        return self.engine.and_(pkt, acl)

    def _final(
        self,
        packet: SymbolicPacket,
        state: FinalState,
        bdd: int,
        out_port: Optional[str] = None,
    ) -> FinalPacket:
        return FinalPacket(
            state=state,
            node=packet.node,
            bdd=bdd,
            source=packet.source,
            hops=packet.hops,
            path=packet.path,
            out_port=out_port,
        )


def inject(
    node: str, bdd: int, trace: bool = False
) -> SymbolicPacket:
    """A freshly injected symbolic packet at a source node."""
    return SymbolicPacket(
        bdd=bdd,
        node=node,
        in_port=None,
        hops=0,
        source=node,
        path=(node,) if trace else None,
    )


class PacketBuffer:
    """A work queue that merges symbolic packets per (source, node,
    in-port, hop count).

    In Clos networks ECMP makes the number of distinct *paths* between two
    nodes combinatorial, but all ECMP paths have equal length — so packets
    meeting at the same port with the same hop count can be OR-merged
    without losing anything: reachability, waypoint bits (they live inside
    the BDD), and loop detection (hop counts still grow along any cycle,
    so loops still reach ``max_hops``) are all preserved.  Path *tracing*
    is the one casualty, so traced packets bypass merging.
    """

    def __init__(self, engine: BddEngine, merge: bool = True) -> None:
        self._engine = engine
        self._merge = merge
        self._merged: Dict[Tuple[str, str, Optional[str], int], int] = {}
        self._traced: List[SymbolicPacket] = []

    def push(self, packet: SymbolicPacket) -> None:
        if packet.path is not None or not self._merge:
            self._traced.append(packet)
            return
        key = (packet.source, packet.node, packet.in_port, packet.hops)
        existing = self._merged.get(key, FALSE)
        self._merged[key] = self._engine.or_(existing, packet.bdd)

    def push_all(self, packets: Iterable[SymbolicPacket]) -> None:
        for packet in packets:
            self.push(packet)

    def __bool__(self) -> bool:
        return bool(self._merged) or bool(self._traced)

    def __len__(self) -> int:
        return len(self._merged) + len(self._traced)

    def pop_wave(self) -> List[SymbolicPacket]:
        """Drain the lowest-hop-count batch (BFS order maximizes merging)."""
        if self._traced:
            packets, self._traced = self._traced, []
            return packets
        if not self._merged:
            return []
        low = min(key[3] for key in self._merged)
        wave = []
        for key in sorted(k for k in self._merged if k[3] == low):
            source, node, in_port, hops = key
            wave.append(
                SymbolicPacket(
                    bdd=self._merged.pop(key),
                    node=node,
                    in_port=in_port,
                    hops=hops,
                    source=source,
                )
            )
        return wave


def run_to_completion(
    context: ForwardingContext,
    initial: Iterable[SymbolicPacket],
    merge: bool = True,
) -> List[FinalPacket]:
    """Monolithic driver: forward packets until every one is final.

    The distributed driver lives in :mod:`repro.dist.dpo`; this one is the
    Batfish-baseline path where a single context owns every node.
    ``merge=False`` disables wave merging (per-path enumeration) — only
    used by the ablation benchmark; it is combinatorial under ECMP.
    """
    finals: List[FinalPacket] = []
    buffer = PacketBuffer(context.engine, merge=merge)
    buffer.push_all(initial)
    while buffer:
        for packet in buffer.pop_wave():
            new_finals, outgoing = context.process(packet)
            finals.extend(new_finals)
            buffer.push_all(outgoing)
    return finals
