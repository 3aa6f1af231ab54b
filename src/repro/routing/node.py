"""The per-switch routing model (the Batfish-node equivalent).

:class:`RouterNode` wraps one device's vendor-independent config and
implements the *pull*-based route exchange of the paper's Algorithm 1: each
round, a node asks every neighbor for its current advertisement and merges
the result into its RIB.  The node is **fully agnostic** of where the
neighbor lives — it only ever calls ``resolver(name).advertise(addr, shard)``.
The distributed framework substitutes a shadow proxy for remote neighbors
(§4.2); the monolithic engine passes the real objects.

The BGP pipeline implemented here:

export:  best route → next-hop/self, MED cleared, own-ASN prepend (eBGP)
         → remove-private-AS (per the vendor's VSB mode) → export route-map
         (which may AS_PATH-overwrite) → wire
import:  eBGP loop check → local-pref reset → import route-map → adj-RIB-in

plus ``network`` origination (optionally gated by conditional
advertisement), ``aggregate-address`` with contributor activation,
``summary-only`` suppression, and ECMP selection up to ``maximum-paths``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from ..config.ast import Aggregate, BgpNeighbor, DeviceConfig
from ..config.policy import PolicyEngine, apply_remove_private_as
from ..net.ip import Prefix
from ..net.topology import Topology
from .rib import BgpRib, MainRib
from .route import BgpRoute, Origin, Protocol, Route

ShardFilter = Optional[FrozenSet[Prefix]]
Resolver = Callable[[str], object]
# One session's exported routes; immutable, so identity can stand for content.
Advertisement = Tuple[BgpRoute, ...]
# One session's last transforms: prefix -> (input route, output or None).
RouteMemo = Dict[Prefix, Tuple[BgpRoute, Optional[BgpRoute]]]


def resolve_neighbors(
    config: DeviceConfig, topology: Topology
) -> List[Tuple[BgpNeighbor, str, str, int]]:
    """The device's BGP neighbors that match a topology adjacency, as
    ``(neighbor, neighbor hostname, local iface, local address)``; a
    session to an absent peer stays idle and is left out."""
    if config.bgp is None or config.hostname not in topology:
        return []
    # peer address -> (neighbor hostname, local iface, local address)
    adjacency: Dict[int, Tuple[str, str, int]] = {}
    for link in topology.links_of(config.hostname):
        local = link.local(config.hostname)
        remote = link.other(config.hostname)
        adjacency[topology.interface_address(remote)] = (
            remote.node, local.interface, topology.interface_address(local)
        )
    return [
        (neighbor,) + adjacency[neighbor.peer_ip]
        for neighbor in config.bgp.neighbors
        if neighbor.peer_ip in adjacency
    ]


@dataclass
class BgpSession:
    """One resolved BGP session (config neighbor + topology adjacency)."""

    local_addr: int
    peer_ip: int
    remote_as: int
    neighbor: str            # resolved neighbor hostname
    iface: str               # local interface carrying the session
    import_policy: Optional[str]
    export_policy: Optional[str]
    remove_private_as: bool
    ebgp: bool

    @property
    def rib_key(self) -> str:
        """Adj-RIB-in key; distinguishes parallel sessions to one peer."""
        return f"{self.neighbor}#{self.peer_ip}"


class RouterNode:
    """A single switch's control-plane model."""

    def __init__(
        self,
        config: DeviceConfig,
        topology: Topology,
    ) -> None:
        self.config = config
        self.name = config.hostname
        self.behavior = config.behavior
        self.policy = PolicyEngine(config)
        bgp = config.bgp
        self.asn = bgp.asn if bgp else 0
        max_paths = bgp.maximum_paths if bgp else 1
        self.rib = BgpRib(max_paths=max_paths)
        self.main_rib = MainRib()
        self.router_id = self._pick_router_id()
        self.sessions: List[BgpSession] = []
        self._sessions_by_peer: Dict[int, BgpSession] = {}
        self.local_prefixes: FrozenSet[Prefix] = frozenset()
        self._shard: ShardFilter = None
        # Change-driven rounds: ``_version`` moves whenever the RIB or the
        # shard does; exports are pure in (version, session) and imports
        # in (session, received object), so unchanged inputs are skipped.
        self._version = 0
        # peer address -> (round token, version, exports)
        self._export_cache: Dict[int, Tuple[int, int, Advertisement]] = {}
        # adj-RIB-in key -> the advertisement object merged last
        self._merged: Dict[str, Advertisement] = {}
        # Per-prefix tier below the per-session one: a route map is pure
        # in (session, route), so a route that ``is`` or ``==`` the one
        # transformed last time on that session reuses its output.
        # peer address -> prefix -> (route, exported route or None)
        self._export_memo: Dict[int, RouteMemo] = {}
        # adj-RIB-in key -> prefix -> (received route, accepted or None)
        self._import_memo: Dict[str, RouteMemo] = {}
        self.exports_computed = 0
        self.exports_reused = 0
        self.imports_skipped = 0
        self.transforms_computed = 0
        self.transforms_reused = 0
        # Runtime-discovered prefix dependencies (§7): populated when a
        # conditional advertisement consults a watch prefix that is not
        # part of the current shard — the signal the CPO grows a batch
        # on.
        self.observed_dependencies: set = set()
        self._resolve_sessions(topology)
        self._install_connected(topology)
        self._install_static()
        self._compute_local_prefixes()

    # -- construction helpers -------------------------------------------------

    def _pick_router_id(self) -> int:
        bgp = self.config.bgp
        if bgp is not None and bgp.router_id:
            return bgp.router_id
        addresses = [
            i.address
            for i in self.config.interfaces.values()
            if i.address is not None
        ]
        if addresses:
            return min(addresses)
        return zlib.crc32(self.name.encode()) & 0xFFFFFFFF

    def _resolve_sessions(self, topology: Topology) -> None:
        """Match configured neighbors against topology adjacencies."""
        bgp = self.config.bgp
        if bgp is None:
            return
        for neighbor, hostname, iface, local_addr in resolve_neighbors(
            self.config, topology
        ):
            session = BgpSession(
                local_addr=local_addr,
                peer_ip=neighbor.peer_ip,
                remote_as=neighbor.remote_as,
                neighbor=hostname,
                iface=iface,
                import_policy=neighbor.import_policy,
                export_policy=neighbor.export_policy,
                remove_private_as=neighbor.remove_private_as,
                ebgp=neighbor.remote_as != bgp.asn,
            )
            self.sessions.append(session)
            self._sessions_by_peer[neighbor.peer_ip] = session
        self.sessions.sort(key=lambda s: s.peer_ip)

    def _install_connected(self, topology: Topology) -> None:
        for iface in self.config.interfaces.values():
            if iface.shutdown or iface.prefix is None:
                continue
            self.main_rib.add(
                Route(
                    prefix=iface.prefix,
                    protocol=Protocol.CONNECTED,
                    admin_distance=Protocol.CONNECTED.admin_distance,
                )
            )

    def _install_static(self) -> None:
        for static in self.config.static_routes:
            self.main_rib.add(
                Route(
                    prefix=static.prefix,
                    protocol=Protocol.STATIC,
                    next_hop=static.next_hop,
                    interface=static.interface,
                    admin_distance=static.admin_distance,
                    tag=static.tag,
                    discard=static.discard,
                )
            )

    def _compute_local_prefixes(self) -> None:
        """Prefixes this node originates into BGP (networks + redistribution)."""
        bgp = self.config.bgp
        if bgp is None:
            self.local_prefixes = frozenset()
            return
        prefixes = set(bgp.networks)
        if "connected" in bgp.redistribute:
            for iface in self.config.interfaces.values():
                if iface.prefix is not None and not iface.shutdown:
                    prefixes.add(iface.prefix)
        if "static" in bgp.redistribute:
            for static in self.config.static_routes:
                prefixes.add(static.prefix)
        self.local_prefixes = frozenset(prefixes)

    # -- shard lifecycle -----------------------------------------------------

    def begin_shard(self, shard: ShardFilter) -> None:
        """Start computing a new prefix shard: clear per-shard BGP state."""
        self.rib.clear()
        self._shard = shard
        self._version += 1
        self._export_cache.clear()
        self._merged.clear()
        self._export_memo.clear()
        self._import_memo.clear()
        self.observed_dependencies.clear()

    def finish_shard(self) -> Dict[Prefix, Tuple[BgpRoute, ...]]:
        """Return the selected routes of the finished shard (→ storage)."""
        return {
            prefix: routes
            for prefix, routes in self.rib.best_routes().items()
            if routes
        }

    def _in_shard(self, prefix: Prefix) -> bool:
        return self._shard is None or prefix in self._shard

    # -- origination -----------------------------------------------------------

    def _conditional_allows(self, prefix: Prefix) -> bool:
        """Check conditional-advertisement gates for an originated prefix."""
        bgp = self.config.bgp
        if bgp is None:
            return True
        for conditional in bgp.conditionals:
            if conditional.prefix != prefix:
                continue
            if not self._in_shard(conditional.watch_prefix):
                # The watch prefix is being computed in a *different*
                # shard: its presence/absence here is meaningless.  Record
                # the unforeseen dependency so the orchestrator can merge
                # the shards and recompute (§7).
                self.observed_dependencies.add(
                    (prefix, conditional.watch_prefix)
                )
            present = bool(self.rib.candidates_for(conditional.watch_prefix))
            if not present:
                # the watched prefix may be locally originated too
                present = conditional.watch_prefix in self.local_prefixes
            if conditional.when_present != present:
                return False
        return True

    def originated_routes(self) -> List[BgpRoute]:
        """Locally originated BGP routes, honoring shard and conditionals."""
        result = []
        for prefix in sorted(self.local_prefixes):
            if not self._in_shard(prefix):
                continue
            if not self._conditional_allows(prefix):
                continue
            result.append(
                BgpRoute(
                    prefix=prefix,
                    next_hop=0,
                    from_node=self.name,
                    as_path=(),
                    local_pref=self.behavior.default_local_pref,
                    origin=Origin.IGP,
                    originator_id=self.router_id,
                )
            )
        return result

    def active_aggregates(self) -> List[Tuple[Aggregate, BgpRoute]]:
        """Aggregates with at least one contributing route (§4.5)."""
        bgp = self.config.bgp
        if bgp is None:
            return []
        result = []
        for aggregate in bgp.aggregates:
            if not self._in_shard(aggregate.prefix):
                continue
            if not self._has_contributor(aggregate.prefix):
                continue
            route = BgpRoute(
                prefix=aggregate.prefix,
                next_hop=0,
                from_node=self.name,
                as_path=(),
                local_pref=self.behavior.default_local_pref,
                origin=Origin.IGP,
                originator_id=self.router_id,
                aggregate=True,
            )
            if aggregate.attribute_map is not None:
                transformed = self.policy.run(
                    aggregate.attribute_map, route, self.asn
                )
                if transformed is not None:
                    route = transformed.evolve(aggregate=True)
            result.append((aggregate, route))
        return result

    def _has_contributor(self, aggregate_prefix: Prefix) -> bool:
        for prefix in self.local_prefixes:
            if prefix != aggregate_prefix and aggregate_prefix.contains(prefix):
                return True
        for prefix in self.rib.prefixes():
            if prefix != aggregate_prefix and aggregate_prefix.contains(prefix):
                if self.rib.best(prefix):
                    return True
        return False

    def _suppressed_prefixes(self) -> List[Prefix]:
        """Prefix space hidden by active ``summary-only`` aggregates."""
        return [
            aggregate.prefix
            for aggregate, _route in self.active_aggregates()
            if aggregate.summary_only
        ]

    # -- export ------------------------------------------------------------------

    def advertise(self, to_peer_addr: int, round_token: int = -1) -> Advertisement:
        """The routes this node currently exports on the session whose
        remote end is ``to_peer_addr``.  This is the method the shadow node
        relays over RPC; its result must stay plain picklable data.

        Within one round the first answer is the round's snapshot; in a
        new round the previous tuple is returned as-is while the node's
        state version has not moved."""
        session = self._sessions_by_peer.get(to_peer_addr)
        if session is None:
            return ()
        if round_token < 0:
            return self._compute_exports(session)
        cached = self._export_cache.get(to_peer_addr)
        if cached is not None:
            token, version, exports = cached
            if token == round_token:
                return exports
            if version == self._version:
                self.exports_reused += 1
                self._export_cache[to_peer_addr] = (round_token, version, exports)
                return exports
        exports = self._compute_exports(session)
        self.exports_computed += 1
        self._export_cache[to_peer_addr] = (round_token, self._version, exports)
        return exports

    def _compute_exports(self, session: BgpSession) -> Advertisement:
        suppressed = self._suppressed_prefixes()

        def is_suppressed(prefix: Prefix) -> bool:
            return any(
                agg.contains(prefix) and agg != prefix for agg in suppressed
            )

        outgoing: List[BgpRoute] = []
        for route in self.originated_routes():
            if not is_suppressed(route.prefix):
                outgoing.append(route)
        for _aggregate, route in self.active_aggregates():
            outgoing.append(route)
        self.rib.refresh()
        seen = {route.prefix for route in outgoing}
        for prefix, best in self.rib.best_routes().items():
            if not best or prefix in seen or is_suppressed(prefix):
                continue
            chosen = best[0]
            if chosen.from_node == session.neighbor:
                continue  # split horizon: never echo a route to its sender
            if not chosen.ebgp and not session.ebgp:
                continue  # iBGP-learned routes are not sent to iBGP peers
            outgoing.append(chosen)

        return tuple(self._transform_all(
            self._export_memo, session.peer_ip, outgoing,
            lambda route: self._export_route(session, route),
        ))

    def _export_route(
        self, session: BgpSession, route: BgpRoute
    ) -> Optional[BgpRoute]:
        """One route onto the wire of ``session``; None if policy denies."""
        as_path = route.as_path
        ebgp = route.ebgp
        if session.ebgp:
            if session.remove_private_as:
                as_path = apply_remove_private_as(
                    as_path, self.behavior.remove_private_as_mode
                )
            as_path = (self.asn,) + as_path
            ebgp = True
        wire = route.evolve(
            next_hop=session.local_addr,
            from_node=self.name,
            originator_id=self.router_id,
            med=0,
            weight=0,
            as_path=as_path,
            ebgp=ebgp,
        )
        return self.policy.run(session.export_policy, wire, self.asn)

    def _transform_all(
        self,
        memos: Dict[Any, RouteMemo],
        key: Any,
        routes: Iterable[BgpRoute],
        transform: Callable[[BgpRoute], Optional[BgpRoute]],
    ) -> List[BgpRoute]:
        """Apply one session's ``transform`` to every route; returns the
        permitted outputs in order.

        ``memos[key]`` holds the session's previous call; a route that is
        (in process) or equals (after unpickling) the input stored for its
        prefix reuses the stored output.  The session's memo is then
        replaced by one entry per prefix seen in this call."""
        previous: RouteMemo = memos.get(key, {})
        memo: RouteMemo = {}
        result: List[BgpRoute] = []
        for route in routes:
            entry = previous.get(route.prefix)
            if entry is not None and (entry[0] is route or entry[0] == route):
                self.transforms_reused += 1
                transformed = entry[1]
            else:
                self.transforms_computed += 1
                transformed = transform(route)
            memo[route.prefix] = (route, transformed)
            if transformed is not None:
                result.append(transformed)
        memos[key] = memo
        return result

    # -- import -------------------------------------------------------------------

    def pull_round(self, resolver: Resolver, round_token: int = -1) -> bool:
        """One Algorithm-1 round: pull every neighbor's advertisement.

        ``resolver`` maps a hostname to an object exposing ``advertise``:
        the real node (same worker / monolithic engine) or a shadow proxy
        (different worker).  Returns True when the RIB changed.
        """
        changed = False
        for session in self.sessions:
            neighbor = resolver(session.neighbor)
            if neighbor is None:
                continue
            received = neighbor.advertise(session.local_addr, round_token)
            key = session.rib_key
            if received is self._merged.get(key):
                self.imports_skipped += 1
                continue
            accepted = self._process_imports(session, received)
            changed |= self.rib.replace_neighbor_routes(key, accepted)
            self._merged[key] = received
        if changed:
            self._version += 1
            self.rib.refresh()
        return changed

    def _process_imports(
        self, session: BgpSession, received: Iterable[BgpRoute]
    ) -> List[BgpRoute]:
        return self._transform_all(
            self._import_memo, session.rib_key,
            (route for route in received if self._in_shard(route.prefix)),
            lambda route: self._import_route(session, route),
        )

    def _import_route(
        self, session: BgpSession, route: BgpRoute
    ) -> Optional[BgpRoute]:
        """One received route into the adj-RIB-in; None if rejected."""
        if session.ebgp and self.asn in route.as_path:
            return None  # AS-path loop prevention
        incoming = route.evolve(
            from_node=session.neighbor,
            ebgp=session.ebgp,
            local_pref=(
                self.behavior.default_local_pref
                if session.ebgp
                else route.local_pref
            ),
        )
        return self.policy.run(session.import_policy, incoming, self.asn)

    # -- results ---------------------------------------------------------------

    def bgp_routes(self) -> Dict[Prefix, Tuple[BgpRoute, ...]]:
        """Selected (post-decision, ECMP) BGP routes of the current shard."""
        return {
            prefix: routes
            for prefix, routes in self.rib.best_routes().items()
            if routes
        }

    def route_count(self) -> int:
        """Candidate paths currently held (the memory-model unit)."""
        return len(self.rib)

    def interface_for_address(self, address: int) -> Optional[str]:
        for iface in self.config.interfaces.values():
            if iface.prefix is not None and iface.prefix.contains_ip(address):
                return iface.name
        return None
