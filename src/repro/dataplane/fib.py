"""FIB construction: merge per-protocol RIBs into forwarding entries.

A :class:`Fib` maps prefixes to actions (forward out ports / receive
locally / discard) with longest-prefix-match semantics.  It is a
``prefix -> entry`` dict, plus one binary trie per address family built
on the first walk: concrete lookups walk it top-down, and predicate
compilation walks it bottom-up.  Reachability by class closure reads the
dict only, so a FIB no query compiles never builds its tries.
:meth:`Fib.entries` lists the entries most specific first, for consumers
that scan them linearly (the ground-truth walker) and for tests.

A prefix's entry depends on that prefix's routes alone
(:func:`fib_entry`), so a FIB can be patched one prefix at a time:
:meth:`Fib.add` replaces an entry and :meth:`Fib.remove` deletes one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..net.ip import Prefix
from ..routing.route import BgpRoute, Protocol, Route


class FibAction(enum.Enum):
    FORWARD = "forward"
    RECEIVE = "receive"
    DROP = "drop"


@dataclass(frozen=True)
class NextHop:
    """One resolved forwarding target."""

    iface: str
    node: str            # adjacent device reached through ``iface``
    address: int = 0


@dataclass(frozen=True)
class FibEntry:
    prefix: Prefix
    action: FibAction
    next_hops: Tuple[NextHop, ...] = ()
    protocol: Optional[Protocol] = None

    def describe(self) -> str:
        if self.action is FibAction.FORWARD:
            vias = ", ".join(f"{h.iface}->{h.node}" for h in self.next_hops)
            return f"{self.prefix} forward via [{vias}]"
        return f"{self.prefix} {self.action.value}"


class _TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: List[Optional[_TrieNode]] = [None, None]
        self.entry: Optional[FibEntry] = None


class Fib:
    """The forwarding table of one device (dual-stack: one trie per
    address family, built on the first :meth:`lookup` or
    :meth:`trie_root` and kept in step with :meth:`add` and
    :meth:`remove` from then on)."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._entries: Dict[Prefix, FibEntry] = {}
        self._roots: Optional[Dict[int, _TrieNode]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def _tries(self) -> Dict[int, _TrieNode]:
        roots = self._roots
        if roots is None:
            roots = self._roots = {32: _TrieNode(), 128: _TrieNode()}
            for entry in self._entries.values():
                self._insert(entry)
        return roots

    def _insert(self, entry: FibEntry) -> None:
        prefix = entry.prefix
        node, network = self._roots[prefix.width], prefix.network
        top = prefix.width - 1
        for shift in range(top, top - prefix.length, -1):
            bit = (network >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = node.children[bit] = _TrieNode()
            node = child
        node.entry = entry

    def add(self, entry: FibEntry) -> None:
        """Insert an entry, replacing any previous entry for its prefix."""
        self._entries[entry.prefix] = entry
        if self._roots is not None:
            self._insert(entry)

    def remove(self, prefix: Prefix) -> None:
        """Delete the entry for ``prefix`` (if any) and prune the trie
        branch that held only it."""
        if self._entries.pop(prefix, None) is None or self._roots is None:
            return
        top = prefix.width - 1
        bits = [
            (prefix.network >> shift) & 1
            for shift in range(top, top - prefix.length, -1)
        ]
        path = [self._roots[prefix.width]]
        for bit in bits:
            path.append(path[-1].children[bit])
        path[-1].entry = None
        for depth in range(len(bits), 0, -1):
            node = path[depth]
            if node.entry is not None or node.children != [None, None]:
                break
            path[depth - 1].children[bits[depth - 1]] = None

    def lookup(self, address: int, width: int = 32) -> Optional[FibEntry]:
        """Longest-prefix-match lookup of a concrete address."""
        node = self._tries()[width]
        best = node.entry
        for shift in range(width - 1, -1, -1):
            node = node.children[(address >> shift) & 1]
            if node is None:
                break
            if node.entry is not None:
                best = node.entry
        return best

    def entries(self, width: Optional[int] = None) -> List[FibEntry]:
        """Entries ordered most-specific first, optionally restricted to
        one address family."""
        selected = (
            self._entries.values()
            if width is None
            else [e for e in self._entries.values() if e.prefix.width == width]
        )
        return sorted(
            selected,
            key=lambda e: (-e.prefix.length, e.prefix.width, e.prefix.network),
        )

    def entry_for(self, prefix: Prefix) -> Optional[FibEntry]:
        return self._entries.get(prefix)

    def prefixes(self) -> Iterable[Prefix]:
        """The prefixes holding an entry, in no particular order."""
        return self._entries.keys()

    def trie_root(self, width: int = 32) -> _TrieNode:
        """The binary trie of one address family's entries.

        This is the bulk-compilation entry point: predicate compilation
        walks the trie bottom-up and emits the exact LPM partition, one
        region per forwarding action, with hash-consing ``mk`` calls.
        """
        return self._tries()[width]


# -- building ------------------------------------------------------------------


class NextHopResolver:
    """Resolves next-hop addresses to (interface, adjacent node)."""

    def __init__(
        self,
        iface_of_addr: Dict[int, Tuple[str, str]],
        local_iface_for: Dict[str, Dict[int, str]],
    ) -> None:
        # address -> (owning node, its interface)
        self._iface_of_addr = iface_of_addr
        # node -> (peer address -> local interface)
        self._local_iface_for = local_iface_for

    @classmethod
    def from_snapshot(cls, snapshot) -> "NextHopResolver":
        iface_of_addr: Dict[int, Tuple[str, str]] = {}
        local_iface_for: Dict[str, Dict[int, str]] = {}
        for node in snapshot.topology.nodes():
            for iface in node.interfaces.values():
                iface_of_addr[iface.address] = (node.name, iface.name)
        for node in snapshot.topology.nodes():
            table: Dict[int, str] = {}
            for link in snapshot.topology.links_of(node.name):
                local = link.local(node.name)
                remote = link.other(node.name)
                remote_addr = snapshot.topology.interface_address(remote)
                table[remote_addr] = local.interface
            local_iface_for[node.name] = table
        return cls(iface_of_addr, local_iface_for)

    def resolve(self, node: str, next_hop_addr: int) -> Optional[NextHop]:
        owner = self._iface_of_addr.get(next_hop_addr)
        local_iface = self._local_iface_for.get(node, {}).get(next_hop_addr)
        if owner is None or local_iface is None:
            return None
        return NextHop(
            iface=local_iface, node=owner[0], address=next_hop_addr
        )


#: Originated prefixes terminate locally *unless* a real route exists — a
#: redistributed static (Null0 / out an interface) must keep its
#: forwarding action, so originations install at a sentinel distance any
#: genuine protocol route overrides.
LOCAL_FALLBACK_AD = 250


def fib_entry(
    node: str,
    prefix: Prefix,
    local: bool,
    main_routes: Sequence[Route],
    bgp_routes: Sequence[BgpRoute],
    resolver: NextHopResolver,
) -> Optional[FibEntry]:
    """The FIB entry of one prefix on one node, or None when no route and
    no origination covers it.

    The protocol with the lowest administrative distance wins, the first
    of equal ones among ``main_routes``; BGP wins only when strictly
    better, and then installs all its (ECMP) next hops.  A prefix the
    node originates resolves to RECEIVE — symbolic packets reaching it
    have arrived (§4.3 final state 1).
    """
    entry: Optional[FibEntry] = None
    installed_ad: Optional[int] = None
    if local:
        entry = FibEntry(prefix=prefix, action=FibAction.RECEIVE)
        installed_ad = LOCAL_FALLBACK_AD
    for route in main_routes:
        if installed_ad is not None and installed_ad <= route.admin_distance:
            continue
        entry = _main_entry(node, route, resolver)
        installed_ad = route.admin_distance
    if bgp_routes:
        ad = bgp_routes[0].protocol.admin_distance
        if installed_ad is None or ad < installed_ad:
            entry = _bgp_entry(node, prefix, bgp_routes, resolver)
    return entry


def _main_entry(
    node: str, route: Route, resolver: NextHopResolver
) -> FibEntry:
    if route.protocol is Protocol.CONNECTED:
        return FibEntry(
            prefix=route.prefix,
            action=FibAction.RECEIVE,
            protocol=Protocol.CONNECTED,
        )
    if route.discard:
        return FibEntry(
            prefix=route.prefix, action=FibAction.DROP, protocol=route.protocol
        )
    if route.interface is not None:
        # static route out of an interface: the far side (if any) is the
        # topology's problem; an unconnected interface is an edge port and
        # such packets EXIT there.
        return FibEntry(
            prefix=route.prefix,
            action=FibAction.FORWARD,
            next_hops=(NextHop(iface=route.interface, node=""),),
            protocol=route.protocol,
        )
    hop = (
        resolver.resolve(node, route.next_hop)
        if route.next_hop is not None
        else None
    )
    if hop is None:
        # unresolvable next hop: the packet is dropped here
        return FibEntry(
            prefix=route.prefix, action=FibAction.DROP, protocol=route.protocol
        )
    return FibEntry(
        prefix=route.prefix,
        action=FibAction.FORWARD,
        next_hops=(hop,),
        protocol=route.protocol,
    )


def _bgp_entry(
    node: str,
    prefix: Prefix,
    routes: Sequence[BgpRoute],
    resolver: NextHopResolver,
) -> FibEntry:
    hops: List[NextHop] = []
    for route in routes:
        hop = resolver.resolve(node, route.next_hop)
        if hop is not None and hop not in hops:
            hops.append(hop)
    if not hops:
        # A selected route whose next hop is not adjacent cannot be
        # installed; matching packets drop here (Null0-equivalent).
        return FibEntry(
            prefix=prefix, action=FibAction.DROP, protocol=routes[0].protocol
        )
    return FibEntry(
        prefix=prefix,
        action=FibAction.FORWARD,
        next_hops=tuple(sorted(hops, key=lambda h: h.address)),
        protocol=routes[0].protocol,
    )


def build_fib(
    node: str,
    local_prefixes: FrozenSet[Prefix],
    main_routes: Iterable[Route],
    bgp_routes: Dict[Prefix, Tuple[BgpRoute, ...]],
    resolver: NextHopResolver,
) -> Fib:
    """Merge a node's RIBs into its FIB: :func:`fib_entry` per prefix."""
    by_prefix: Dict[Prefix, List[Route]] = {}
    for route in main_routes:
        by_prefix.setdefault(route.prefix, []).append(route)
    fib = Fib(node)
    for prefix in local_prefixes | by_prefix.keys() | bgp_routes.keys():
        entry = fib_entry(
            node,
            prefix,
            prefix in local_prefixes,
            by_prefix.get(prefix, ()),
            bgp_routes.get(prefix, ()),
            resolver,
        )
        if entry is not None:
            fib.add(entry)
    return fib
