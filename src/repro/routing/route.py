"""Route value types shared by the control plane and the data plane.

Routes are immutable: the decision process and route maps never mutate a
route in place but derive new ones, and every derived BGP route comes from
:meth:`BgpRoute.evolve`.  Immutability is what makes it safe to hold the
same route object in many RIBs across workers and to hash routes as dict
keys and set members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import FrozenSet, Optional, Tuple

from ..net.ip import Prefix, format_ip


class Protocol(enum.Enum):
    """Route provenance; the value doubles as the display name."""

    CONNECTED = "connected"
    STATIC = "static"
    OSPF = "ospf"
    BGP = "bgp"
    IBGP = "ibgp"
    AGGREGATE = "aggregate"

    @property
    def admin_distance(self) -> int:
        return _ADMIN_DISTANCE[self]


_ADMIN_DISTANCE = {
    Protocol.CONNECTED: 0,
    Protocol.STATIC: 1,
    Protocol.BGP: 20,
    Protocol.AGGREGATE: 20,
    Protocol.OSPF: 110,
    Protocol.IBGP: 200,
}


class Origin(enum.IntEnum):
    """BGP origin attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


@dataclass(frozen=True)
class Route:
    """A generic (non-BGP) RIB entry."""

    prefix: Prefix
    protocol: Protocol
    next_hop: Optional[int] = None      # next-hop IP; None for connected
    next_hop_node: Optional[str] = None  # resolved adjacent device
    interface: Optional[str] = None     # static route out of an interface
    metric: int = 0
    admin_distance: int = 0
    tag: int = 0
    discard: bool = False               # Null0 static route

    def describe(self) -> str:
        nh = format_ip(self.next_hop) if self.next_hop is not None else "direct"
        return f"{self.prefix} [{self.protocol.value}] via {nh}"


@dataclass(frozen=True)
class BgpRoute:
    """A BGP path with the attributes the decision process compares.

    ``from_node`` records the advertising device; it is what the FIB builder
    resolves to an outgoing interface, and what convergence hashing uses to
    distinguish otherwise-equal ECMP paths.
    """

    prefix: Prefix
    next_hop: int
    from_node: str
    as_path: Tuple[int, ...] = ()
    local_pref: int = 100
    med: int = 0
    origin: Origin = Origin.IGP
    communities: FrozenSet[int] = frozenset()
    weight: int = 0
    ebgp: bool = True
    originator_id: int = 0              # router-id of the advertiser
    igp_cost: int = 0
    aggregate: bool = False
    suppressed: bool = False            # more-specific under summary-only

    @property
    def protocol(self) -> Protocol:
        if self.aggregate:
            return Protocol.AGGREGATE
        return Protocol.BGP if self.ebgp else Protocol.IBGP

    @property
    def as_path_length(self) -> int:
        return len(self.as_path)

    def evolve(self, **changes) -> "BgpRoute":
        """A copy with ``changes`` applied: ``dataclasses.replace`` without
        re-running ``__init__``.

        The copy's state is this instance's ``__dict__`` in its key order
        with ``changes`` merged over it, so it equals, hashes, prints and
        pickles exactly like the replaced route.  A name that is not a
        field grows the merged state; that raises ``TypeError``, as
        ``replace`` does."""
        route = object.__new__(type(self))
        state = route.__dict__
        state.update(self.__dict__)
        state.update(changes)
        if len(state) != len(_BGP_ROUTE_FIELDS):
            unknown = sorted(changes.keys() - _BGP_ROUTE_FIELDS)
            raise TypeError(f"BgpRoute has no field(s) {', '.join(unknown)}")
        return route

    def has_as(self, asn: int) -> bool:
        return asn in self.as_path

    def describe(self) -> str:
        path = " ".join(str(a) for a in self.as_path) or "(empty)"
        return (
            f"{self.prefix} via {format_ip(self.next_hop)} "
            f"as-path [{path}] lp={self.local_pref} med={self.med}"
        )


_BGP_ROUTE_FIELDS = frozenset(f.name for f in fields(BgpRoute))


def decision_key(route: BgpRoute):
    """Sort key implementing the BGP decision process (best sorts first).

    Order: higher weight, higher local-pref, shorter AS path, lower origin,
    lower MED, eBGP over iBGP, lower IGP cost, lower originator router-id,
    then lower advertiser name as the final deterministic tiebreak.
    """
    return (
        -route.weight,
        -route.local_pref,
        route.as_path_length,
        int(route.origin),
        route.med,
        0 if route.ebgp else 1,
        route.igp_cost,
        route.originator_id,
        route.from_node,
    )


def ecmp_key(route: BgpRoute):
    """Key prefix under which two routes are ECMP-equivalent.

    Everything in :func:`decision_key` except the final router-id/name
    tiebreaks: routes equal on this key may be installed together up to
    ``maximum-paths``.
    """
    return (
        -route.weight,
        -route.local_pref,
        route.as_path_length,
        int(route.origin),
        route.med,
        0 if route.ebgp else 1,
        route.igp_cost,
    )
