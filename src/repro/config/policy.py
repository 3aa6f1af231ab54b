"""Routing policy semantics: route maps, lists, and VSB transformations.

:class:`PolicyEngine` evaluates a device's route maps against BGP routes.
It implements first-match clause semantics, conjunctive match conditions,
and the full set of ``set`` actions in :mod:`repro.config.ast`, including
the AS_PATH-overwrite policy and the two vendor-specific interpretations of
``remove-private-AS`` described in the paper's §2.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional, Tuple

from . import ast
from .ast import (
    Action,
    DeviceConfig,
    MatchAsPathList,
    MatchCommunityList,
    MatchPrefixList,
    MatchTag,
    RemovePrivateAsMode,
    RouteMap,
    SetAsPathPrepend,
    SetAsPathReplace,
    SetCommunities,
    SetDeleteCommunities,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
    SetTag,
    SetWeight,
    is_private_as,
)

if TYPE_CHECKING:  # avoid a config <-> routing import cycle at runtime
    from ..routing.route import BgpRoute


class PolicyError(RuntimeError):
    """Raised when a policy references something that does not exist."""


def as_path_regex_matches(pattern: str, as_path: Tuple[int, ...]) -> bool:
    """Match a Cisco-style AS-path regex against an AS path.

    The vendor notation's ``_`` means "boundary" (start, end, or space);
    we translate it and match against the space-joined path string.
    """
    text = " ".join(str(asn) for asn in as_path)
    translated = pattern.replace("_", r"(?:^|$|\s)")
    try:
        return re.search(translated, text) is not None
    except re.error as exc:
        raise PolicyError(f"bad as-path regex {pattern!r}: {exc}") from exc


def apply_remove_private_as(
    as_path: Tuple[int, ...], mode: RemovePrivateAsMode
) -> Tuple[int, ...]:
    """Strip private ASNs per the vendor's interpretation (§2.1 VSB)."""
    if mode is RemovePrivateAsMode.ALL:
        return tuple(asn for asn in as_path if not is_private_as(asn))
    # LEADING: only the private ASNs before the first non-private one.
    result = list(as_path)
    index = 0
    while index < len(result) and is_private_as(result[index]):
        index += 1
    return tuple(result[index:])


class PolicyEngine:
    """Evaluates the route maps of one device."""

    def __init__(self, config: DeviceConfig) -> None:
        self._config = config

    # -- matching ----------------------------------------------------------

    def _clause_matches(self, clause, route: BgpRoute) -> bool:
        config = self._config
        for match in clause.matches:
            if isinstance(match, MatchPrefixList):
                plist = config.prefix_lists.get(match.name)
                if plist is None:
                    raise PolicyError(f"missing prefix-list {match.name}")
                if not plist.permits(route.prefix):
                    return False
            elif isinstance(match, MatchCommunityList):
                clist = config.community_lists.get(match.name)
                if clist is None:
                    raise PolicyError(f"missing community-list {match.name}")
                if not clist.permits(route.communities):
                    return False
            elif isinstance(match, MatchAsPathList):
                alist = config.as_path_lists.get(match.name)
                if alist is None:
                    raise PolicyError(f"missing as-path list {match.name}")
                if not self._as_path_list_permits(alist, route.as_path):
                    return False
            elif isinstance(match, MatchTag):
                # BGP routes carry no tag in this model; treated as no-match.
                return False
            else:
                raise PolicyError(f"unknown match clause {match!r}")
        return True

    @staticmethod
    def _as_path_list_permits(
        alist: ast.AsPathList, as_path: Tuple[int, ...]
    ) -> bool:
        for line in alist.lines:
            if as_path_regex_matches(line.regex, as_path):
                return line.action is Action.PERMIT
        return False

    # -- transformation ------------------------------------------------------

    def _apply_sets(self, clause, route: BgpRoute, own_asn: int) -> BgpRoute:
        """The clause's set actions, composed in clause order into one
        :meth:`~repro.routing.route.BgpRoute.evolve` (the route itself
        when they change nothing)."""
        config = self._config
        changes = {}
        communities = route.communities
        as_path = route.as_path
        for action in clause.sets:
            if isinstance(action, SetLocalPref):
                changes["local_pref"] = action.value
            elif isinstance(action, SetMed):
                changes["med"] = action.value
            elif isinstance(action, SetWeight):
                changes["weight"] = action.value
            elif isinstance(action, SetOrigin):
                # type(route.origin) keeps policy decoupled from the
                # routing package (both Origin enums share values).
                changes["origin"] = type(route.origin)(int(action.value))
            elif isinstance(action, SetCommunities):
                if action.additive:
                    communities = communities | frozenset(action.communities)
                else:
                    communities = frozenset(action.communities)
                changes["communities"] = communities
            elif isinstance(action, SetDeleteCommunities):
                clist = config.community_lists.get(action.community_list)
                if clist is None:
                    raise PolicyError(
                        f"missing community-list {action.community_list}"
                    )
                communities = frozenset(
                    value
                    for value in communities
                    if not clist.permits(frozenset([value]))
                )
                changes["communities"] = communities
            elif isinstance(action, SetAsPathPrepend):
                as_path = action.asns + as_path
                changes["as_path"] = as_path
            elif isinstance(action, SetAsPathReplace):
                asn = action.asn if action.asn is not None else own_asn
                as_path = (asn,)
                changes["as_path"] = as_path
            elif isinstance(action, SetNextHop):
                changes["next_hop"] = action.address
            elif isinstance(action, SetTag):
                pass  # tags do not affect BGP attributes in this model
            else:
                raise PolicyError(f"unknown set clause {action!r}")
        return route.evolve(**changes) if changes else route

    # -- entry point ---------------------------------------------------------

    def run(
        self, map_name: Optional[str], route: BgpRoute, own_asn: int
    ) -> Optional[BgpRoute]:
        """Apply route map ``map_name`` to ``route``.

        Returns the (possibly transformed) route on permit, or ``None`` on
        deny.  A missing map name means "no policy" and permits unchanged;
        a *named but undefined* map is a configuration error and denies
        everything, matching vendor behaviour for undefined route maps.
        """
        if map_name is None:
            return route
        route_map = self._config.route_maps.get(map_name)
        if route_map is None:
            return None
        for clause in route_map.sorted_clauses():
            if self._clause_matches(clause, route):
                if clause.action is Action.DENY:
                    return None
                return self._apply_sets(clause, route, own_asn)
        return None  # implicit deny at the end of a route map
