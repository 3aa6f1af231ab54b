"""Routing information bases.

Two structures: :class:`BgpRib` holds the per-prefix candidate paths and the
selected (multipath) best set; :class:`MainRib` merges all protocols by
administrative distance into what the FIB builder consumes.

Both are deliberately plain dict-based containers keyed by prefix, so
cheap prefix hashing matters more than clever indexing.  Convergence is
detected by change, not by comparing snapshots: a round's pull reports
whether any adj-RIB-in changed (:meth:`BgpRib.replace_neighbor_routes`).
:meth:`BgpRib.fingerprint` is a test aid that compares RIBs round by
round; nothing on the run path calls it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..net.ip import Prefix
from .route import BgpRoute, Route, decision_key, ecmp_key


class BgpRib:
    """Per-prefix BGP path selection with ECMP.

    ``candidates`` maps prefix -> {advertiser-key -> route}: at most one
    path per (neighbor, prefix), mirroring adj-RIB-in collapsing.  ``best``
    caches the selected multipath set.
    """

    def __init__(self, max_paths: int = 1) -> None:
        self.max_paths = max(1, max_paths)
        self._candidates: Dict[Prefix, Dict[str, BgpRoute]] = {}
        self._best: Dict[Prefix, Tuple[BgpRoute, ...]] = {}
        self._dirty: set = set()
        # adj-RIB-in key -> the prefixes it holds a path for, so replacing
        # one session's routes costs that session, not the whole RIB.
        self._by_source: Dict[str, set] = {}

    def __len__(self) -> int:
        return sum(len(paths) for paths in self._candidates.values())

    def prefixes(self) -> Iterator[Prefix]:
        return iter(self._candidates)

    def candidates_for(self, prefix: Prefix) -> List[BgpRoute]:
        return list(self._candidates.get(prefix, {}).values())

    def put(self, route: BgpRoute, source: Optional[str] = None) -> bool:
        """Insert/replace the path under adj-RIB-in key ``source``
        (defaults to the advertiser's name); True if changed."""
        key = source or route.from_node
        paths = self._candidates.setdefault(route.prefix, {})
        previous = paths.get(key)
        if previous is route or previous == route:
            return False
        paths[key] = route
        self._by_source.setdefault(key, set()).add(route.prefix)
        self._dirty.add(route.prefix)
        return True

    def withdraw(self, prefix: Prefix, source: str) -> bool:
        """Remove the path stored under ``source``; True if it existed."""
        paths = self._candidates.get(prefix)
        if not paths or source not in paths:
            return False
        del paths[source]
        self._by_source[source].discard(prefix)
        if not paths:
            del self._candidates[prefix]
        self._dirty.add(prefix)
        return True

    def replace_neighbor_routes(
        self, source: str, routes: Iterable[BgpRoute]
    ) -> bool:
        """Atomically replace every path stored under the adj-RIB-in key
        ``source`` (one key per session).

        This is the pull-model update: each round a node re-reads the full
        export of a neighbor, so stale paths (withdrawn upstream) must
        disappear.  Returns True when anything changed.
        """
        changed = False
        incoming: Dict[Prefix, BgpRoute] = {}
        for route in routes:
            incoming[route.prefix] = route
        # Withdraw paths the neighbor no longer exports.
        stale = [
            prefix
            for prefix in self._by_source.get(source, ())
            if prefix not in incoming
        ]
        for prefix in stale:
            changed |= self.withdraw(prefix, source)
        for route in incoming.values():
            changed |= self.put(route, source)
        return changed

    def select(self, prefix: Prefix) -> Tuple[BgpRoute, ...]:
        """Run the decision process for one prefix; returns the ECMP set."""
        paths = self._candidates.get(prefix)
        if not paths:
            self._best.pop(prefix, None)
            return ()
        ranked = sorted(paths.values(), key=decision_key)
        best = ranked[0]
        chosen: List[BgpRoute] = []
        for route in ranked:
            if ecmp_key(route) != ecmp_key(best):
                break
            chosen.append(route)
            if len(chosen) >= self.max_paths:
                break
        result = tuple(chosen)
        self._best[prefix] = result
        return result

    def refresh(self) -> None:
        """Re-select every prefix whose candidates changed since last call."""
        for prefix in self._dirty:
            self.select(prefix)
        self._dirty.clear()

    def best(self, prefix: Prefix) -> Tuple[BgpRoute, ...]:
        if prefix in self._dirty:
            self._dirty.discard(prefix)
            return self.select(prefix)
        return self._best.get(prefix, ())

    def best_routes(self) -> Dict[Prefix, Tuple[BgpRoute, ...]]:
        self.refresh()
        return dict(self._best)

    def clear(self) -> None:
        self._candidates.clear()
        self._best.clear()
        self._dirty.clear()
        self._by_source.clear()

    def fingerprint(self) -> int:
        """Order-independent hash of the selected routes (tests compare
        RIBs round by round with it)."""
        self.refresh()
        total = 0
        for prefix, routes in self._best.items():
            total ^= hash((prefix, routes))
        return total


class MainRib:
    """The merged RIB: best routes across protocols by admin distance."""

    def __init__(self) -> None:
        self._routes: Dict[Prefix, List[Route]] = {}
        self._bgp: Dict[Prefix, Tuple[BgpRoute, ...]] = {}

    def add(self, route: Route) -> None:
        existing = self._routes.setdefault(route.prefix, [])
        if route in existing:
            return
        if existing and existing[0].admin_distance < route.admin_distance:
            return
        if existing and existing[0].admin_distance > route.admin_distance:
            existing.clear()
        existing.append(route)

    def set_bgp(self, prefix: Prefix, routes: Tuple[BgpRoute, ...]) -> None:
        if routes:
            self._bgp[prefix] = routes
        else:
            self._bgp.pop(prefix, None)

    def routes_for(self, prefix: Prefix) -> List[Route]:
        return list(self._routes.get(prefix, []))

    def bgp_for(self, prefix: Prefix) -> Tuple[BgpRoute, ...]:
        return self._bgp.get(prefix, ())

    def prefixes(self) -> Iterator[Prefix]:
        seen = set(self._routes)
        for prefix in self._routes:
            yield prefix
        for prefix in self._bgp:
            if prefix not in seen:
                yield prefix

    def route_count(self) -> int:
        return sum(len(r) for r in self._routes.values()) + sum(
            len(r) for r in self._bgp.values()
        )

    def entries(self) -> Iterator[Tuple[Prefix, object]]:
        """Iterate (prefix, route) pairs across both tables.

        Non-BGP routes win ties with BGP at equal prefixes when their admin
        distance is lower; the FIB builder applies that rule, not the RIB.
        """
        for prefix, routes in self._routes.items():
            for route in routes:
                yield prefix, route
        for prefix, routes in self._bgp.items():
            for route in routes:
                yield prefix, route
