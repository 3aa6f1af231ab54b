"""Property checking: the five query types of §4.4.

A query is a 4-tuple ``(H, Vs, Vd, Vt)``: a checked header space, source
nodes, destination nodes, and transit (waypoint) nodes.  The checkers are
written against an abstract ``forward(sources, header_bdd)`` callable so
the same logic runs over the monolithic driver and over S2's distributed
DPO (which supplies its own forwarding function).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bdd.engine import FALSE, TRUE, BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..net.ip import Prefix
from .forwarding import FinalPacket, FinalState

# forward(sources, header_bdd, trace) -> finals
ForwardFn = Callable[[Sequence[str], int, bool], List[FinalPacket]]
# reach_by_closure(query, header_bdd) -> (reachable pairs, residual header)
ClosureFn = Callable[["Query", int], Tuple[Dict[Tuple[str, str], int], int]]


@dataclass(frozen=True)
class Query:
    """A §4.4 query.  ``header_space=None`` means the full header space."""

    sources: Tuple[str, ...]
    destinations: Tuple[str, ...] = ()
    transits: Tuple[str, ...] = ()
    header_space: Optional[Prefix] = None

    @classmethod
    def single_pair(
        cls, source: str, destination: str, prefix: Optional[Prefix] = None
    ) -> "Query":
        return cls(
            sources=(source,),
            destinations=(destination,),
            header_space=prefix,
        )


@dataclass
class ReachabilityResult:
    """Per (source, destination): the BDD of packets that arrived."""

    reachable: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def holds(self, source: str, destination: str) -> bool:
        return self.reachable.get((source, destination), FALSE) != FALSE

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted(
            pair for pair, bdd in self.reachable.items() if bdd != FALSE
        )


@dataclass(frozen=True)
class MultipathViolation:
    source: str
    states: Tuple[FinalState, FinalState]
    overlap: int  # BDD of the inconsistently treated packets


@dataclass(frozen=True)
class PropertyViolation:
    """A loop or blackhole witness."""

    state: FinalState
    node: str
    source: str
    bdd: int
    example: str  # human-readable witness header


class PropertyChecker:
    """Evaluates queries against a forwarding function."""

    def __init__(
        self,
        engine: BddEngine,
        encoding: HeaderEncoding,
        forward: ForwardFn,
        install_waypoints: Optional[Callable[[Sequence[str]], None]] = None,
        reach_by_closure: Optional[ClosureFn] = None,
    ) -> None:
        self._engine = engine
        self._encoding = encoding
        self._forward = forward
        self._install_waypoints = install_waypoints
        self._reach_by_closure = reach_by_closure

    def _header_bdd(self, query: Query) -> int:
        if query.header_space is None:
            return TRUE
        return self._encoding.prefix_bdd(self._engine, query.header_space)

    # -- reachability -------------------------------------------------------

    def check_reachability(
        self, query: Query, within: int = TRUE
    ) -> ReachabilityResult:
        """Packets from each source that ARRIVE at each destination.

        ``within`` (a header BDD in this checker's engine) restricts the
        injected header space further: the serving layer's commit
        rechecks only the destinations an announce made dirty.

        With a ``reach_by_closure`` hook, the pairs it answers come from
        there and only its residual header space is forwarded; forwarding
        runs only for a residual that is not FALSE.
        """
        header = self._engine.and_(self._header_bdd(query), within)
        result = ReachabilityResult()
        if self._reach_by_closure is not None:
            result.reachable, header = self._reach_by_closure(query, header)
        if header == FALSE:
            return result
        finals = self._forward(query.sources, header, False)
        wanted = set(query.destinations)
        for final in finals:
            if final.state is not FinalState.ARRIVE:
                continue
            if wanted and final.node not in wanted:
                continue
            key = (final.source, final.node)
            previous = result.reachable.get(key, FALSE)
            result.reachable[key] = self._engine.or_(previous, final.bdd)
        return result

    # -- waypointing ----------------------------------------------------------

    def check_waypoint(
        self, query: Query
    ) -> Dict[str, List[FinalPacket]]:
        """Check that all packets arriving at ``Vd`` visited every transit.

        Returns transit-node -> finals that *bypassed* it (empty = holds).
        The caller must have installed the §4.4 write rules (one metadata
        bit per transit) on the forwarding side before calling.
        """
        if self._install_waypoints is None:
            raise ValueError(
                "this checker's forwarding side has no waypoint support"
            )
        self._install_waypoints(query.transits)
        header = self._header_bdd(query)
        # Packets start with all waypoint bits clear.
        for index in range(len(query.transits)):
            var = self._encoding.metadata_var(index)
            header = self._engine.and_(header, self._engine.nvar(var))
        finals = self._forward(query.sources, header, False)
        wanted = set(query.destinations)
        violations: Dict[str, List[FinalPacket]] = {
            transit: [] for transit in query.transits
        }
        for final in finals:
            if final.state is not FinalState.ARRIVE:
                continue
            if wanted and final.node not in wanted:
                continue
            for index, transit in enumerate(query.transits):
                var = self._encoding.metadata_var(index)
                visited = self._engine.var(var)
                # pkt ∧ bdd_vt == pkt  ⟺  every packet visited vt
                if not self._engine.implies(final.bdd, visited):
                    violations[transit].append(final)
        return violations

    # -- multipath consistency -----------------------------------------------------

    def check_multipath_consistency(
        self, query: Query
    ) -> List[MultipathViolation]:
        """Find packets from one source with divergent final states."""
        if len(query.sources) != 1:
            raise ValueError("multipath consistency takes a single source")
        header = self._header_bdd(query)
        finals = self._forward(query.sources, header, False)
        violations: List[MultipathViolation] = []
        # Collapse finals per state first: |states| is 4, so the pairwise
        # comparison is constant-size regardless of path count.
        by_state: Dict[FinalState, int] = {}
        for final in finals:
            previous = by_state.get(final.state, FALSE)
            by_state[final.state] = self._engine.or_(previous, final.bdd)
        states = sorted(by_state, key=lambda s: s.value)
        for i, state_a in enumerate(states):
            for state_b in states[i + 1 :]:
                overlap = self._engine.and_(
                    by_state[state_a], by_state[state_b]
                )
                if overlap != FALSE:
                    violations.append(
                        MultipathViolation(
                            source=query.sources[0],
                            states=(state_a, state_b),
                            overlap=overlap,
                        )
                    )
        return violations

    # -- loop / blackhole ---------------------------------------------------------

    def find_violations(
        self, query: Query, states: FrozenSet[FinalState]
    ) -> List[PropertyViolation]:
        header = self._header_bdd(query)
        finals = self._forward(query.sources, header, False)
        violations: List[PropertyViolation] = []
        for final in finals:
            if final.state not in states:
                continue
            witness = self._engine.any_sat(final.bdd) or {}
            violations.append(
                PropertyViolation(
                    state=final.state,
                    node=final.node,
                    source=final.source,
                    bdd=final.bdd,
                    example=self._encoding.describe_assignment(witness),
                )
            )
        return violations

    def check_loop_free(self, query: Query) -> List[PropertyViolation]:
        return self.find_violations(query, frozenset([FinalState.LOOP]))

    def check_blackhole_free(self, query: Query) -> List[PropertyViolation]:
        return self.find_violations(
            query, frozenset([FinalState.BLACKHOLE])
        )
