"""Monolithic data-plane verifier: snapshot + routes → property checking.

This is the single-engine DPV used by the Batfish baseline, and the
reference implementation the distributed DPO must agree with.  It builds
every node's FIB, compiles all predicates into one shared BDD engine
(exactly the §2.2 bottleneck: one node table, serialized operations), and
drives symbolic forwarding to completion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bdd.engine import BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..config.loader import Snapshot
from ..net.ip import Prefix
from ..routing.engine import BgpResult, SimulationEngine
from ..routing.route import BgpRoute, Route
from .fib import Fib, NextHopResolver, build_fib
from .forwarding import (
    DEFAULT_MAX_HOPS,
    FinalPacket,
    ForwardingContext,
    inject,
    run_to_completion,
)
from .predicates import compile_predicates
from .queries import PropertyChecker, Query, ReachabilityResult


class DataPlaneVerifier:
    """Single-engine DPV over a converged control plane."""

    def __init__(
        self,
        snapshot: Snapshot,
        bgp_routes: BgpResult,
        local_prefixes: Dict[str, FrozenSet[Prefix]],
        main_routes: Dict[str, List[Route]],
        encoding: Optional[HeaderEncoding] = None,
        node_limit: int = 1 << 24,
        max_hops: int = DEFAULT_MAX_HOPS,
    ) -> None:
        self.snapshot = snapshot
        self.encoding = encoding or HeaderEncoding()
        self.engine = self.encoding.make_engine(node_limit=node_limit)
        self.fibs: Dict[str, Fib] = {}
        self.context = ForwardingContext(
            self.engine, self.encoding, snapshot.topology, max_hops=max_hops
        )
        resolver = NextHopResolver.from_snapshot(snapshot)
        for hostname in sorted(snapshot.configs):
            fib = build_fib(
                hostname,
                local_prefixes.get(hostname, frozenset()),
                main_routes.get(hostname, []),
                bgp_routes.get(hostname, {}),
                resolver,
            )
            self.fibs[hostname] = fib
        self._predicates_compiled = False

    @classmethod
    def from_simulation(
        cls,
        engine: SimulationEngine,
        bgp_routes: BgpResult,
        **kwargs,
    ) -> "DataPlaneVerifier":
        """Assemble a DPV from a finished control-plane simulation."""
        return cls(
            snapshot=engine.snapshot,
            bgp_routes=bgp_routes,
            local_prefixes=engine.local_prefixes(),
            main_routes=engine.main_routes(),
            **kwargs,
        )

    # -- phases (timed separately by Figure 10) -----------------------------

    def compile_predicates(self) -> None:
        """Phase 1: compute forwarding and ACL predicates for every node."""
        if self._predicates_compiled:
            return
        for hostname, fib in self.fibs.items():
            self.context.add_node(
                compile_predicates(
                    self.snapshot.configs[hostname],
                    fib,
                    self.engine,
                    self.encoding,
                )
            )
        self._predicates_compiled = True

    def forward(
        self, sources: Sequence[str], header_bdd: int, trace: bool = False
    ) -> List[FinalPacket]:
        """Phase 2: inject at the sources and forward to completion."""
        self.compile_predicates()
        initial = [inject(node, header_bdd, trace=trace) for node in sources]
        return run_to_completion(self.context, initial)

    # -- property checking -----------------------------------------------------

    def install_waypoints(self, transits: Sequence[str]) -> None:
        """Install §4.4 write rules: one metadata bit per transit node."""
        self.compile_predicates()
        self.context.waypoint_bits.clear()
        for index, transit in enumerate(transits):
            self.context.set_waypoint_bit(transit, index)

    def engine_counters(self) -> Dict[str, float]:
        """The shared engine's health counters (node counts, cache rates).

        Unlike the distributed workers, this engine is never auto-GC'd:
        query results (:class:`ReachabilityResult`) hold node ids in it,
        so reclamation would invalidate them.  The counters are still the
        right observability surface for the §2.2 single-table bottleneck.
        """
        return self.engine.counters()

    def checker(self) -> PropertyChecker:
        self.compile_predicates()
        return PropertyChecker(
            self.engine,
            self.encoding,
            self.forward,
            install_waypoints=self.install_waypoints,
        )

    def check_reachability(self, query: Query) -> ReachabilityResult:
        return self.checker().check_reachability(query)

    def prefix_holders(self) -> List[str]:
        """Nodes that originate at least one prefix (the endpoint set the
        paper's all-pair reachability ranges over)."""
        holders = []
        for hostname, config in sorted(self.snapshot.configs.items()):
            bgp = config.bgp
            if bgp is not None and bgp.networks:
                holders.append(hostname)
        return holders

    def all_pair_reachability(
        self, nodes: Optional[Sequence[str]] = None
    ) -> ReachabilityResult:
        """The paper's default property (§5.2): every pair of endpoints."""
        if nodes is None:
            nodes = self.prefix_holders()
        query = Query(sources=tuple(nodes), destinations=tuple(nodes))
        return self.check_reachability(query)


def verifier_from_ribs(
    snapshot: Snapshot, bgp_routes: BgpResult, **kwargs
) -> DataPlaneVerifier:
    """A DPV over externally-computed BGP RIBs (e.g. a distributed run's
    :meth:`~repro.dist.controller.S2Controller.collected_ribs`).

    The IGP result is a pure function of the snapshot, so it is recomputed
    locally; the BGP routes — the part the distributed pipeline actually
    computes differently — are taken as given.  This is how the
    ground-truth oracle walks the FIBs a *distributed* run produced.
    """
    engine = SimulationEngine(snapshot)
    engine.run_ospf()
    return DataPlaneVerifier(
        snapshot=snapshot,
        bgp_routes=bgp_routes,
        local_prefixes=engine.local_prefixes(),
        main_routes=engine.main_routes(),
        **kwargs,
    )
