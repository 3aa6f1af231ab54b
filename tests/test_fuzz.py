"""The fuzzing subsystem's own tests: generator validity invariants,
oracle sensitivity (a deliberately-blinded projection must miss what the
full projection catches), and shrinker convergence.
"""

import copy
import json
from dataclasses import replace

import pytest

from repro.config.loader import parse_device
from repro.fuzz.corpus import CorpusCase, load_corpus, save_case
from repro.fuzz.generators import (
    GeneratorProfile,
    NetworkSpec,
    NodeSpec,
    PRIVATE_ASN,
    build_snapshot,
    generate_spec,
    render_texts,
)
from repro.fuzz.oracle import (
    CheckPlan,
    DEFAULT_FIELDS,
    DifferentialOracle,
    RouteProjection,
)
from repro.fuzz.shrink import shrink_spec
from repro.routing.engine import ConvergenceError, SimulationEngine
from repro.routing.route import BgpRoute
from repro.net.ip import Prefix

SEEDS = range(30)


# The minimal MED/iBGP oscillation gadget (shrunken from a real fuzzing
# divergence; see tests/corpus/gadget-med-ibgp-oscillation.json): the
# distributed engines must *detect* its non-convergence, so the oracle
# has a guaranteed-divergent input.
def med_oscillation_spec() -> NetworkSpec:
    return NetworkSpec(
        nodes=[
            NodeSpec(index=0, asn=3001),
            NodeSpec(index=1, asn=3001),
            NodeSpec(
                index=7, asn=3008, networks=["10.7.0.0/24"], export_med=22
            ),
        ],
        links=[(0, 1), (0, 7), (1, 7)],
        seed=-1,
    )


class TestGeneratorValidity:
    def test_deterministic_per_seed(self):
        for seed in SEEDS:
            first = generate_spec(seed)
            second = generate_spec(seed)
            assert first.to_dict() == second.to_dict()
            assert render_texts(first) == render_texts(second)

    def test_specs_differ_across_seeds(self):
        dicts = {json.dumps(generate_spec(s).to_dict()) for s in SEEDS}
        assert len(dicts) > len(SEEDS) // 2

    def test_configs_parse_in_their_dialect(self):
        for seed in SEEDS:
            for hostname, (dialect, text) in render_texts(
                generate_spec(seed)
            ).items():
                config = parse_device(text, dialect)
                assert config.hostname == hostname
                assert config.bgp is not None

    def test_graphs_are_connected(self):
        for seed in SEEDS:
            spec = generate_spec(seed)
            assert spec.is_connected()
            assert any(node.networks for node in spec.nodes)

    def test_snapshots_simulate(self):
        for seed in SEEDS:
            result = SimulationEngine(
                build_snapshot(generate_spec(seed))
            ).run()
            assert result

    def test_feature_coverage_across_seeds(self):
        specs = [generate_spec(s) for s in range(80)]
        assert any(
            n.conditional for spec in specs for n in spec.nodes
        )
        assert any(
            n.aggregate for spec in specs for n in spec.nodes
        )
        assert any(
            n.dialect == "juniperish" for spec in specs for n in spec.nodes
        )
        assert any(
            n.v6_networks for spec in specs for n in spec.nodes
        )
        # at least one multi-node iBGP island somewhere
        assert any(
            len({n.asn for n in spec.nodes}) < spec.size for spec in specs
        )

    def test_spec_roundtrips_through_json(self):
        for seed in SEEDS:
            spec = generate_spec(seed)
            clone = NetworkSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone.to_dict() == spec.to_dict()


class TestGeneratorSafetyInvariants:
    """The structural constraints that keep every generated network at a
    unique BGP fixed point (so engine divergence is always a bug)."""

    def test_single_ibgp_island(self):
        for seed in range(100):
            spec = generate_spec(seed)
            sizes = {}
            for node in spec.nodes:
                sizes[node.asn] = sizes.get(node.asn, 0) + 1
            assert sum(1 for c in sizes.values() if c > 1) <= 1

    def test_island_policies_uniform(self):
        for seed in range(100):
            spec = generate_spec(seed)
            by_asn = {}
            for node in spec.nodes:
                by_asn.setdefault(node.asn, []).append(node)
            for island in by_asn.values():
                assert len({n.local_pref for n in island}) == 1
                assert len({n.export_med for n in island}) == 1

    def test_no_med_near_islands(self):
        for seed in range(100):
            spec = generate_spec(seed)
            counts = {}
            for node in spec.nodes:
                counts[node.asn] = counts.get(node.asn, 0) + 1
            islanders = {
                n.index for n in spec.nodes if counts[n.asn] > 1
            }
            exposed = set(islanders)
            for a, b in spec.links:
                if a in islanders:
                    exposed.add(b)
                if b in islanders:
                    exposed.add(a)
            for node in spec.nodes:
                if node.index in exposed:
                    assert node.export_med is None

    def test_private_decoys_only_on_leaves(self):
        for seed in range(100):
            spec = generate_spec(seed)
            degree = {n.index: 0 for n in spec.nodes}
            for a, b in spec.links:
                degree[a] += 1
                degree[b] += 1
            for node in spec.nodes:
                if node.export_private_prepend:
                    assert degree[node.index] == 1

    def test_at_most_one_private_stripper(self):
        for seed in range(100):
            spec = generate_spec(seed)
            assert (
                sum(1 for n in spec.nodes if n.remove_private_as) <= 1
            )


class TestOracleSensitivity:
    def test_flags_known_oscillation_gadget(self):
        report = DifferentialOracle(CheckPlan()).check(
            med_oscillation_spec()
        )
        assert not report.ok
        assert any(
            "ConvergenceError" in d.got
            for d in report.divergences
            if d.kind == "error"
        )

    def test_clean_seed_passes(self):
        report = DifferentialOracle(CheckPlan()).check(
            generate_spec(0)
        )
        assert report.ok
        assert "mono" in report.variants_run
        assert any(v.startswith("dist") for v in report.variants_run)

    def test_mutant_projection_misses_med_divergence(self):
        """The oracle is only as good as its projection: a mutant that
        skips ``med`` must miss a MED-only difference that the full
        projection catches — proving the comparison is not vacuous."""
        prefix = Prefix.parse("10.0.0.0/24")
        base = BgpRoute(
            prefix=prefix,
            next_hop=1,
            from_node="r1",
            as_path=(3001,),
            med=10,
        )
        mutated = {"r0": {prefix: (replace(base, med=20),)}}
        baseline = {"r0": {prefix: (base,)}}

        full = RouteProjection()
        assert full.normalize(baseline) != full.normalize(mutated)

        blinded = RouteProjection(
            fields=tuple(f for f in DEFAULT_FIELDS if f != "med")
        )
        assert blinded.normalize(baseline) == blinded.normalize(mutated)

    def test_diff_localizes_divergence(self):
        prefix = Prefix.parse("10.0.0.0/24")
        base = BgpRoute(
            prefix=prefix, next_hop=1, from_node="r1", as_path=(3001,)
        )
        oracle = DifferentialOracle(CheckPlan())
        projection = oracle.plan.projection
        divs = oracle._diff(
            "variant-x",
            projection.normalize({"r0": {prefix: (base,)}}),
            projection.normalize(
                {"r0": {prefix: (replace(base, local_pref=150),)}}
            ),
        )
        assert len(divs) == 1
        assert divs[0].host == "r0"
        assert divs[0].prefix == "10.0.0.0/24"
        assert "local_pref=150" in divs[0].got


class TestShrinker:
    def _hangs_distributed(self, spec) -> bool:
        from repro.dist.controller import S2Controller, S2Options

        try:
            SimulationEngine(build_snapshot(spec)).run()
        except Exception:
            return False
        try:
            with S2Controller(
                build_snapshot(spec),
                S2Options(
                    num_workers=min(3, spec.size), runtime="sequential"
                ),
            ) as controller:
                controller.run_control_plane()
            return False
        except ConvergenceError:
            return True
        except Exception:
            return False

    def test_converges_to_minimal_gadget(self):
        """Padding the known gadget with irrelevant structure and
        shrinking must strip the padding back off."""
        spec = med_oscillation_spec()
        padded = copy.deepcopy(spec)
        padded.nodes.append(
            NodeSpec(
                index=9,
                asn=3010,
                networks=["10.9.0.0/24"],
                v6_networks=["2001:db8:9::/64"],
                static_discards=["192.168.9.0/24"],
            )
        )
        padded.links.append((7, 9))
        padded.node(7).export_community = "65000:9"
        assert self._hangs_distributed(padded)

        result = shrink_spec(padded, self._hangs_distributed)
        assert self._hangs_distributed(result.spec)
        assert result.spec.size == 3
        assert result.spec.feature_count() < padded.feature_count()
        # 1-minimality: the gadget needs all three nodes and the MED
        assert result.spec.node(7).export_med is not None

    def test_never_mutates_input(self):
        spec = med_oscillation_spec()
        snapshot = json.dumps(spec.to_dict())
        shrink_spec(spec, self._hangs_distributed, max_evaluations=30)
        assert json.dumps(spec.to_dict()) == snapshot

    def test_returns_input_when_predicate_fails(self):
        spec = generate_spec(0)
        result = shrink_spec(spec, lambda s: False, max_evaluations=50)
        assert result.accepted == 0
        assert result.spec.to_dict() == spec.to_dict()


class TestCorpusFormat:
    def test_save_load_roundtrip(self, tmp_path):
        case = CorpusCase(
            name="roundtrip",
            description="seed-backed case",
            seed=5,
            profile={"max_nodes": 6},
        )
        save_case(case, str(tmp_path))
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0].name == "roundtrip"
        assert loaded[0].seed == 5
        assert (
            loaded[0].resolve_spec().to_dict()
            == generate_spec(5, GeneratorProfile(max_nodes=6)).to_dict()
        )

    def test_spec_cases_resolve_without_seed(self, tmp_path):
        case = CorpusCase(
            name="explicit",
            spec=med_oscillation_spec(),
            expect="divergent",
        )
        save_case(case, str(tmp_path))
        loaded = load_corpus(str(tmp_path))[0]
        assert loaded.expect == "divergent"
        assert loaded.resolve_spec().size == 3


class TestFuzzCli:
    def test_smoke_iterations_run_clean(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fuzz",
                "--iterations",
                "3",
                "--seed",
                "0",
                "--profile",
                "smoke",
            ]
        )
        assert code == 0
        assert "3/3 equivalent" in capsys.readouterr().out

    def test_divergence_sets_exit_code_and_saves(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        import repro.fuzz.generators as generators

        gadget = med_oscillation_spec()
        monkeypatch.setattr(
            generators,
            "generate_spec",
            lambda seed, profile=None: copy.deepcopy(gadget),
        )
        code = main(
            [
                "fuzz",
                "--iterations",
                "1",
                "--shrink",
                "--corpus-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        saved = load_corpus(str(tmp_path))
        assert len(saved) == 1
        assert saved[0].expect == "divergent"
