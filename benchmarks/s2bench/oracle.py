"""Independent reference results and the ledger of checks.

The reference never comes from the stack under test: RIBs and verdicts
are recomputed by the monolithic ``SimulationEngine`` +
``DataPlaneVerifier`` on the same snapshot, and the distributed run's
FIBs are additionally walked with concrete packets by
``groundtruth.audit_verifier``.  All of it runs *after* the timed part
of a run (and outside ``setup_s``), so the reference costs the workload
neither time nor resident memory.

Verdicts are compared structurally: a BDD is reduced to the content
digest of its engine-independent serialisation, so "same packets", not
just "same pairs", is what is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.bdd.serialize import content_digest, serialize
from repro.dataplane.queries import PropertyChecker, Query
from repro.dataplane.verifier import DataPlaneVerifier, verifier_from_ribs
from repro.fuzz.oracle import normalize_ribs
from repro.groundtruth import audit_verifier
from repro.routing.engine import SimulationEngine

QUERY_KINDS = (
    "single_pair",
    "loop_free",
    "blackhole_free",
    "waypoint",
    "multipath",
)


@dataclass
class Ledger:
    """Checks passed / checks attempted; a refused or failed operation
    is a failed check."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def ok_ratio(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def _digest(engine, bdd: int) -> str:
    return content_digest(serialize(engine, bdd)).hex()


def execute_query(checker: PropertyChecker, spec: Dict[str, Any]):
    """Run one generated query spec against a checker (the timed part)."""
    kind = spec["kind"]
    if kind == "all_pair":
        nodes = tuple(spec["nodes"])
        return checker.check_reachability(
            Query(sources=nodes, destinations=nodes)
        )
    source = spec["source"]
    if kind == "single_pair":
        return checker.check_reachability(
            Query.single_pair(source, spec["destination"])
        )
    if kind == "loop_free":
        return checker.check_loop_free(Query(sources=(source,)))
    if kind == "blackhole_free":
        return checker.check_blackhole_free(Query(sources=(source,)))
    if kind == "waypoint":
        return checker.check_waypoint(
            Query(
                sources=(source,),
                destinations=(spec["destination"],),
                transits=(spec["transit"],),
            )
        )
    if kind == "multipath":
        return checker.check_multipath_consistency(Query(sources=(source,)))
    raise ValueError(f"unknown query kind {kind!r}")


def verdict(engine, encoding, spec: Dict[str, Any], result):
    """Engine-independent form of :func:`execute_query`'s result.  Must
    be taken before the next query: a distributed checker may reclaim
    the BDD nodes a result refers to.

    How a verdict's packets are split into finals depends on paths and
    worker boundaries, so finals are first united per key; a waypoint
    final may also carry packets that did visit the transit, so only its
    bypassing part (waypoint bit clear) is the verdict."""
    united: Dict[Tuple, int] = {}

    def add(key: Tuple, bdd: int) -> None:
        united[key] = engine.or_(united[key], bdd) if key in united else bdd

    kind = spec["kind"]
    if kind in ("single_pair", "all_pair"):
        for pair, bdd in result.reachable.items():
            if result.holds(*pair):
                add(pair, bdd)
    elif kind in ("loop_free", "blackhole_free"):
        for violation in result:
            add(
                (violation.state.name, violation.node, violation.source),
                violation.bdd,
            )
    elif kind == "waypoint":
        unvisited = engine.nvar(encoding.metadata_var(0))
        for transit, finals in result.items():
            for final in finals:
                add(
                    (transit, final.source, final.node),
                    engine.and_(final.bdd, unvisited),
                )
    else:  # multipath
        for violation in result:
            states = tuple(state.name for state in violation.states)
            add((violation.source, states), violation.overlap)
    return sorted((key, _digest(engine, bdd)) for key, bdd in united.items())


@dataclass
class Reference:
    """The monolithic answer for one snapshot."""

    ribs: Dict
    pairs: frozenset
    reachable: Dict[Tuple[str, str], int]  # pair -> BDD in verifier.engine
    verifier: DataPlaneVerifier


def reference(snapshot, encoding, tracer) -> Reference:
    """Spans make the monolithic stack's cost the per-layer baseline the
    distributed one is compared with (``cpo.framework_ratio``)."""
    with tracer.span("routing.mono_simulate"):
        engine = SimulationEngine(snapshot)
        ribs = engine.run()
    with tracer.span("predicates.mono_compile"):
        verifier = DataPlaneVerifier.from_simulation(
            engine, ribs, encoding=encoding
        )
        verifier.compile_predicates()
    with tracer.span("forwarding.mono_allpair"):
        allpair = verifier.all_pair_reachability()
    return Reference(
        ribs=normalize_ribs(ribs),
        pairs=frozenset(allpair.pairs()),
        reachable=allpair.reachable,
        verifier=verifier,
    )


def check_run_outputs(
    ledger: Ledger,
    ref: Reference,
    label: str,
    pairs: Sequence[Tuple[str, str]],
    ribs: Dict,
) -> None:
    """One cold rep's / one committed view's verdicts and RIBs."""
    got = frozenset(pairs)
    ledger.check(
        f"{label}.pairs",
        got == ref.pairs,
        f"{len(got ^ ref.pairs)} pairs differ from the monolithic verifier",
    )
    ledger.check(
        f"{label}.ribs",
        normalize_ribs(ribs) == ref.ribs,
        "RIBs differ from the monolithic engine",
    )


def ground_truth_audit(
    ledger: Ledger, tracer, snapshot, ribs: Dict, encoding,
    sources: Sequence[str],
) -> int:
    """Walk concrete packets through the FIBs the *distributed* RIBs
    yield; returns the number of packets walked."""
    with tracer.span("groundtruth.audit"):
        verifier = verifier_from_ribs(snapshot, ribs, encoding=encoding)
        report = audit_verifier(verifier, sources=sources, seed=0)
    ledger.check("groundtruth.audit", report.ok, report.summary())
    return report.packets_walked
