"""The differential oracle: one network, every engine, identical answers.

S2's headline claim (§5, Fig. 4–6) is that the distributed verifier is
*bit-identical* to monolithic simulation.  The oracle operationalizes
that claim as an executable check: run one generated network through

* the monolithic :class:`~repro.routing.engine.SimulationEngine`
  (the baseline truth),
* the monolithic engine *with prefix sharding*,
* the distributed pipeline on the in-process runtime, sharded and
  unsharded,
* optionally a run under an injected, recoverable fault plan, and
* optionally the socket runtime (workers behind TCP servers) under a
  sampled *network* fault plan — partitions, torn frames, reorders,
  slow links — exercising the hardened transport end to end,

then diff the normalized RIBs field by field, and (optionally) diff the
all-pair data-plane verdicts of the monolithic Batfish-style baseline
against the distributed checker.  Any mismatch is a :class:`Divergence`.

Route comparison goes through a :class:`RouteProjection` — an explicit
list of compared attributes — so tests can prove the oracle is not
vacuous: a mutant projection that skips ``med`` must *fail* to catch a
MED-only divergence that the full projection catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dist.controller import S2Controller, S2Options
from ..dist.faults import (
    FaultPlan,
    sample_host_loss_plan,
    sample_network_plan,
    sample_plan,
)
from ..dist.sharding import make_shards
from ..routing.engine import BgpResult, SimulationEngine
from ..routing.route import BgpRoute
from .generators import NetworkSpec, build_snapshot

#: Every attribute of :class:`~repro.routing.route.BgpRoute` that the
#: BGP decision process or the FIB builder can observe.  ``prefix`` is
#: the table key and therefore not listed.
DEFAULT_FIELDS: Tuple[str, ...] = (
    "next_hop",
    "from_node",
    "as_path",
    "local_pref",
    "med",
    "origin",
    "communities",
    "weight",
    "ebgp",
    "originator_id",
    "igp_cost",
    "aggregate",
    "suppressed",
)


def normalize_ribs(result: BgpResult):
    """Canonical object-level form for RIB equality across engines.

    ECMP sets are order-insensitive; everything else must match exactly.
    This is the comparison the equivalence *tests* use (the oracle uses
    the field-projected form below, which produces readable diffs).
    """
    return {
        host: {
            prefix: tuple(
                sorted(routes, key=lambda r: (r.from_node, r.next_hop))
            )
            for prefix, routes in table.items()
        }
        for host, table in result.items()
    }


@dataclass(frozen=True)
class RouteProjection:
    """The set of route attributes the oracle compares."""

    fields: Tuple[str, ...] = DEFAULT_FIELDS

    def view(self, route: BgpRoute) -> Tuple:
        """A canonical, totally-ordered tuple of the projected fields."""
        values = []
        for name in self.fields:
            value = getattr(route, name)
            if isinstance(value, frozenset):
                value = tuple(sorted(value))
            elif hasattr(value, "value") and not isinstance(value, int):
                value = value.value
            elif isinstance(value, bool):
                value = int(value)
            values.append(value)
        return tuple(values)

    def normalize(self, result: BgpResult) -> Dict[str, Dict[str, Tuple]]:
        """host -> prefix-string -> sorted tuple of route views."""
        normalized: Dict[str, Dict[str, Tuple]] = {}
        for host, table in result.items():
            normalized[host] = {
                str(prefix): tuple(sorted(self.view(r) for r in routes))
                for prefix, routes in table.items()
                if routes
            }
        return normalized


@dataclass(frozen=True)
class Divergence:
    """One observed difference between a variant and the baseline."""

    variant: str
    kind: str                 # "rib" | "dataplane" | "error"
    host: str = ""
    prefix: str = ""
    expected: str = ""
    got: str = ""

    def describe(self) -> str:
        if self.kind == "error":
            return f"[{self.variant}] run failed: {self.got}"
        where = f"{self.host} {self.prefix}".strip()
        return (
            f"[{self.variant}] {self.kind} mismatch at {where}: "
            f"expected {self.expected or '<absent>'}, "
            f"got {self.got or '<absent>'}"
        )


@dataclass
class OracleReport:
    """The outcome of one differential check."""

    spec: NetworkSpec
    variants_run: List[str] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    baseline_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.divergences and self.baseline_error is None

    def describe(self, limit: int = 10) -> str:
        if self.baseline_error is not None:
            return f"baseline failed: {self.baseline_error}"
        if not self.divergences:
            return f"ok ({', '.join(self.variants_run)})"
        lines = [d.describe() for d in self.divergences[:limit]]
        extra = len(self.divergences) - limit
        if extra > 0:
            lines.append(f"... and {extra} more")
        return "\n".join(lines)


@dataclass
class CheckPlan:
    """Which engine/runtime/sharding/fault combinations to compare."""

    workers: int = 3
    shards: int = 3
    scheme: str = "random"
    seed: int = 7                    # partition/shard seed
    include_faults: bool = False     # recoverable injected faults
    include_host_loss: bool = False  # one permanent worker loss mid-run
    include_socket: bool = False     # TCP workers + network faults (slow)
    fault_seed: int = 0
    check_dataplane: bool = False    # all-pair verdict comparison (slow)
    include_groundtruth: bool = False  # concrete packet-walk adjudication
    groundtruth_witnesses: int = 2   # packets sampled per verdict
    projection: RouteProjection = field(default_factory=RouteProjection)
    max_divergences: int = 25


class DifferentialOracle:
    """Runs one spec through the engine matrix and diffs the results."""

    def __init__(self, plan: Optional[CheckPlan] = None) -> None:
        self.plan = plan or CheckPlan()

    # -- variant runners --------------------------------------------------

    def _run_monolithic(
        self, spec: NetworkSpec, sharded: bool
    ) -> BgpResult:
        snapshot = build_snapshot(spec)
        engine = SimulationEngine(snapshot)
        if not sharded:
            return engine.run()
        shards = make_shards(snapshot, self.plan.shards, seed=self.plan.seed)
        return engine.run([s.prefixes for s in shards])

    def _run_distributed(
        self,
        spec: NetworkSpec,
        runtime: str,
        num_shards: int,
        fault_plan: Optional[FaultPlan] = None,
    ) -> BgpResult:
        snapshot = build_snapshot(spec)
        options = S2Options(
            num_workers=min(self.plan.workers, max(1, spec.size)),
            num_shards=num_shards,
            partition_scheme=self.plan.scheme,
            runtime=runtime,
            seed=self.plan.seed,
            fault_plan=fault_plan,
        )
        with S2Controller(snapshot, options) as controller:
            controller.run_control_plane()
            return controller.collected_ribs()

    def _variants(self) -> List[Tuple[str, Dict]]:
        plan = self.plan
        variants: List[Tuple[str, Dict]] = [
            ("mono-sharded", {"kind": "mono", "sharded": True}),
            ("dist-seq", {"kind": "dist", "runtime": "sequential",
                          "num_shards": 0}),
            ("dist-seq-sharded", {"kind": "dist", "runtime": "sequential",
                                  "num_shards": plan.shards}),
        ]
        if plan.include_faults:
            variants.append(
                ("dist-faulty",
                 {"kind": "dist", "runtime": "sequential",
                  "num_shards": plan.shards,
                  "faults": True}),
            )
        if plan.include_host_loss:
            # One worker dies permanently mid-run: its shards migrate to
            # the survivors and the degraded run must still match the
            # fault-free baseline bit for bit.
            variants.append(
                ("dist-host-loss",
                 {"kind": "dist", "runtime": "sequential",
                  "num_shards": plan.shards,
                  "host_loss": True}),
            )
        if plan.include_socket:
            # TCP workers under a sampled network-fault plan (partition /
            # reorder / slow_link / torn_frame): the chaos variant of the
            # paper's bit-identical claim.
            variants.append(
                ("dist-socket",
                 {"kind": "dist", "runtime": "socket",
                  "num_shards": plan.shards,
                  "network_faults": True}),
            )
        return variants

    # -- diffing ----------------------------------------------------------

    def _diff(
        self,
        variant: str,
        baseline: Dict[str, Dict[str, Tuple]],
        other: Dict[str, Dict[str, Tuple]],
    ) -> List[Divergence]:
        divergences: List[Divergence] = []
        for host in sorted(set(baseline) | set(other)):
            base_table = baseline.get(host, {})
            other_table = other.get(host, {})
            for prefix in sorted(set(base_table) | set(other_table)):
                expected = base_table.get(prefix)
                got = other_table.get(prefix)
                if expected == got:
                    continue
                divergences.append(
                    Divergence(
                        variant=variant,
                        kind="rib",
                        host=host,
                        prefix=prefix,
                        expected=_render_views(expected, self.plan),
                        got=_render_views(got, self.plan),
                    )
                )
                if len(divergences) >= self.plan.max_divergences:
                    return divergences
        return divergences

    def _check_dataplane(self, spec: NetworkSpec) -> List[Divergence]:
        """All-pair reachability: monolithic baseline vs distributed.

        One distributed run per case: its verdict on every source/holder
        pair must match the Batfish-style baseline's, or the pair is
        reported under variant ``dataplane``.
        """
        from ..baselines.batfish import BatfishVerifier
        from ..dataplane.queries import Query

        mono = BatfishVerifier(build_snapshot(spec), seed=self.plan.seed)
        expected = set(mono.all_pair_reachability().pairs())
        options = S2Options(
            num_workers=min(self.plan.workers, max(1, spec.size)),
            num_shards=self.plan.shards,
            partition_scheme=self.plan.scheme,
            seed=self.plan.seed,
        )
        with S2Controller(build_snapshot(spec), options) as controller:
            holders = tuple(controller.prefix_holders())
            got = set(
                controller.checker()
                .check_reachability(
                    Query(sources=holders, destinations=holders)
                )
                .pairs()
            )
        divergences: List[Divergence] = []
        for pair in sorted(expected ^ got):
            divergences.append(
                Divergence(
                    variant="dataplane",
                    kind="dataplane",
                    host=pair[0],
                    prefix=pair[1],
                    expected=(
                        "reachable" if pair in expected else "unreachable"
                    ),
                    got="reachable" if pair in got else "unreachable",
                )
            )
            if len(divergences) >= self.plan.max_divergences:
                break
        return divergences

    def _check_groundtruth(self, spec: NetworkSpec) -> List[Divergence]:
        """Third adjudicator: concrete packet walks over the monolithic
        FIBs must agree with the symbolic verdicts (no BDDs involved in
        the walking — see :mod:`repro.groundtruth`)."""
        from ..dataplane.verifier import DataPlaneVerifier
        from ..groundtruth import audit_verifier

        snapshot = build_snapshot(spec)
        engine = SimulationEngine(snapshot)
        routes = engine.run()
        dpv = DataPlaneVerifier.from_simulation(engine, routes)
        report = audit_verifier(
            dpv,
            seed=self.plan.seed,
            witnesses=self.plan.groundtruth_witnesses,
            near_misses=self.plan.groundtruth_witnesses,
        )
        divergences = []
        for mismatch in report.mismatches[: self.plan.max_divergences]:
            divergences.append(
                Divergence(
                    variant="groundtruth",
                    kind="groundtruth",
                    host=mismatch.source,
                    prefix=mismatch.packet,
                    expected=mismatch.expected,
                    got=f"{mismatch.got}; {mismatch.trace}",
                )
            )
        return divergences

    # -- entry point ------------------------------------------------------

    def check(self, spec: NetworkSpec) -> OracleReport:
        report = OracleReport(spec=spec)
        projection = self.plan.projection
        try:
            baseline = projection.normalize(
                self._run_monolithic(spec, sharded=False)
            )
        except Exception as exc:  # noqa: BLE001 — any failure is a finding
            report.baseline_error = f"{type(exc).__name__}: {exc}"
            return report
        report.variants_run.append("mono")
        for name, params in self._variants():
            try:
                if params["kind"] == "mono":
                    result = self._run_monolithic(spec, sharded=True)
                else:
                    fault_plan = None
                    if params.get("faults"):
                        fault_plan = sample_plan(
                            self.plan.fault_seed,
                            min(self.plan.workers, max(1, spec.size)),
                        )
                    elif params.get("host_loss"):
                        fault_plan = sample_host_loss_plan(
                            self.plan.fault_seed,
                            min(self.plan.workers, max(1, spec.size)),
                        )
                    elif params.get("network_faults"):
                        fault_plan = sample_network_plan(
                            self.plan.fault_seed,
                            min(self.plan.workers, max(1, spec.size)),
                        )
                    result = self._run_distributed(
                        spec,
                        runtime=params["runtime"],
                        num_shards=params["num_shards"],
                        fault_plan=fault_plan,
                    )
            except Exception as exc:  # noqa: BLE001
                report.divergences.append(
                    Divergence(
                        variant=name,
                        kind="error",
                        got=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            report.variants_run.append(name)
            report.divergences.extend(
                self._diff(name, baseline, projection.normalize(result))
            )
        if self.plan.check_dataplane and not report.divergences:
            try:
                report.divergences.extend(self._check_dataplane(spec))
                report.variants_run.append("dataplane")
            except Exception as exc:  # noqa: BLE001
                report.divergences.append(
                    Divergence(
                        variant="dataplane",
                        kind="error",
                        got=f"{type(exc).__name__}: {exc}",
                    )
                )
        if self.plan.include_groundtruth and not report.divergences:
            try:
                report.divergences.extend(self._check_groundtruth(spec))
                report.variants_run.append("groundtruth")
            except Exception as exc:  # noqa: BLE001
                report.divergences.append(
                    Divergence(
                        variant="groundtruth",
                        kind="error",
                        got=f"{type(exc).__name__}: {exc}",
                    )
                )
        return report


def adjudicate_groundtruth(
    spec: NetworkSpec,
    plan: Optional[CheckPlan] = None,
    witnesses: int = 2,
) -> Dict:
    """Adjudicate a known-divergent case with the concrete packet walker.

    The expect-divergent corpus gadgets are networks where two runtimes
    converge to *different* RIB fixed points (BGP disagree/oscillation
    gadgets), so "who is right?" cannot be settled by diffing RIBs.  The
    ground-truth oracle settles a weaker but decidable question instead:
    for each runtime's FIBs, do concrete packet walks reproduce that
    runtime's own symbolic verdicts?  A runtime whose data plane is
    self-consistent under the walk is a legitimate fixed point; one that
    is not has a genuine bug.

    Returns a JSON-serializable verdict recorded in the case's corpus
    ``metadata``:

    * ``sides_with`` — ``"both"`` when each runtime's data plane is
      internally confirmed (the divergence is purely a control-plane
      tie-break), ``"monolithic"``/``"divergent"`` when only one side
      survives the walk, ``"neither"`` when both fail.
    * ``reachable_pairs`` — how the two fixed points differ end to end.
    """
    from ..dataplane.verifier import verifier_from_ribs
    from ..groundtruth import audit_verifier

    plan = plan or CheckPlan()
    oracle = DifferentialOracle(plan)
    projection = plan.projection
    baseline_ribs = oracle._run_monolithic(spec, sharded=False)
    baseline_norm = projection.normalize(baseline_ribs)

    divergent_name: Optional[str] = None
    divergent_ribs: Optional[BgpResult] = None
    divergent_error: Optional[str] = None
    for name, params in oracle._variants():
        try:
            if params["kind"] == "mono":
                result = oracle._run_monolithic(spec, sharded=True)
            else:
                result = oracle._run_distributed(
                    spec,
                    runtime=params["runtime"],
                    num_shards=params["num_shards"],
                )
        except Exception as exc:  # noqa: BLE001 — oscillation gadgets
            # A variant that never converges *is* the divergence; it
            # produced no FIBs, so the walk cannot side with it.
            divergent_name = name
            divergent_error = f"{type(exc).__name__}: {exc}"
            break
        if oracle._diff(name, baseline_norm, projection.normalize(result)):
            divergent_name, divergent_ribs = name, result
            break

    def _audit(ribs: BgpResult) -> Tuple[Dict, set]:
        dpv = verifier_from_ribs(build_snapshot(spec), ribs)
        report = audit_verifier(
            dpv, seed=plan.seed, witnesses=witnesses, near_misses=witnesses
        )
        summary = {
            "ok": report.ok,
            "packets_walked": report.packets_walked,
            "mismatches": len(report.mismatches),
        }
        if report.mismatches:
            summary["first_mismatch"] = report.mismatches[0].describe()
        return summary, set(dpv.all_pair_reachability().pairs())

    verdict: Dict = {
        "adjudicator": "groundtruth-walk",
        "divergent_variant": divergent_name,
    }
    mono_summary, mono_pairs = _audit(baseline_ribs)
    verdict["monolithic"] = mono_summary
    if divergent_ribs is None:
        if divergent_error is not None:
            verdict["divergent"] = {"ok": False, "error": divergent_error}
        verdict["sides_with"] = (
            "monolithic" if mono_summary["ok"] else "neither"
        )
        return verdict
    div_summary, div_pairs = _audit(divergent_ribs)
    verdict["divergent"] = div_summary
    verdict["reachable_pairs"] = {
        "monolithic": len(mono_pairs),
        "divergent": len(div_pairs),
        "only_monolithic": sorted(
            f"{s}->{d}" for s, d in mono_pairs - div_pairs
        )[:10],
        "only_divergent": sorted(
            f"{s}->{d}" for s, d in div_pairs - mono_pairs
        )[:10],
    }
    if mono_summary["ok"] and div_summary["ok"]:
        verdict["sides_with"] = "both"
    elif mono_summary["ok"]:
        verdict["sides_with"] = "monolithic"
    elif div_summary["ok"]:
        verdict["sides_with"] = "divergent"
    else:
        verdict["sides_with"] = "neither"
    return verdict


def _render_views(views: Optional[Tuple], plan: CheckPlan) -> str:
    if views is None:
        return ""
    rendered = []
    for view in views:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(plan.projection.fields, view)
        )
        rendered.append(f"({pairs})")
    return " | ".join(rendered)
