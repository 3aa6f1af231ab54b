"""Tests for prefix sharding: DPDG, components, packing, validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.loader import snapshot_from_texts
from repro.dist.sharding import (
    Dpdg,
    PrefixShard,
    build_dpdg,
    make_shards,
    pack_components,
    validate_shards,
)
from repro.net.fattree import FatTreeSpec, render_configs
from repro.net.ip import Prefix
from repro.routing.engine import collect_network_prefixes


class TestDpdg:
    def test_fattree_has_no_dependencies(self, fattree4):
        dpdg = build_dpdg(fattree4)
        assert dpdg.edges == set()
        assert len(dpdg.prefixes) == 8

    def test_dcn_aggregate_dependencies(self, dcn1):
        dpdg = build_dpdg(dcn1)
        agg = Prefix.parse("10.3.0.0/16")
        deps = {b for a, b in dpdg.edges if a == agg}
        # the 5-layer cluster's VLAN aggregate depends on its TOR /24s
        assert Prefix.parse("10.3.0.0/24") in deps
        assert Prefix.parse("10.3.5.0/24") in deps
        # but not on another cluster's prefixes
        assert Prefix.parse("10.1.0.0/24") not in deps

    def test_dcn_conditional_dependency(self, dcn1):
        dpdg = build_dpdg(dcn1)
        assert (
            Prefix.parse("0.0.0.0/0"),
            Prefix.parse("8.8.8.0/24"),
        ) in dpdg.edges

    def test_components_group_dependencies(self, dcn1):
        dpdg = build_dpdg(dcn1)
        components = dpdg.weakly_connected_components()
        by_prefix = {}
        for i, component in enumerate(components):
            for prefix in component:
                by_prefix[prefix] = i
        assert by_prefix[Prefix.parse("10.3.0.0/16")] == by_prefix[
            Prefix.parse("10.3.0.0/24")
        ]
        assert by_prefix[Prefix.parse("0.0.0.0/0")] == by_prefix[
            Prefix.parse("8.8.8.0/24")
        ]

    def test_components_cover_all_prefixes_once(self, dcn1):
        dpdg = build_dpdg(dcn1)
        components = dpdg.weakly_connected_components()
        flat = [p for c in components for p in c]
        assert len(flat) == len(set(flat)) == len(dpdg.prefixes)

    def test_manual_dpdg(self):
        dpdg = Dpdg()
        a, b, c = (Prefix.parse(f"10.{i}.0.0/16") for i in range(3))
        dpdg.add_prefix(c)
        dpdg.add_dependency(a, b)
        components = dpdg.weakly_connected_components()
        assert sorted(map(len, components)) == [1, 2]


class TestMakeShards:
    def test_exact_cover(self, fattree4):
        shards = make_shards(fattree4, 3)
        assert validate_shards(shards, fattree4) == []
        total = sum(len(s) for s in shards)
        assert total == len(collect_network_prefixes(fattree4))

    def test_dcn_cover_and_cosharding(self, dcn1):
        shards = make_shards(dcn1, 6)
        assert validate_shards(shards, dcn1) == []

    def test_fewer_components_than_shards(self, fattree4):
        shards = make_shards(fattree4, 100)
        assert len(shards) == 8  # one shard per prefix, no empties

    def test_single_shard(self, fattree4):
        shards = make_shards(fattree4, 1)
        assert len(shards) == 1
        assert len(shards[0]) == 8

    def test_membership_protocol(self, fattree4):
        shards = make_shards(fattree4, 2)
        p = Prefix.parse("10.0.0.0/24")
        assert any(p in shard for shard in shards)

    def test_invalid_count_rejected(self, fattree4):
        with pytest.raises(ValueError):
            make_shards(fattree4, 0)

    def test_deterministic_for_seed(self, dcn1):
        a = make_shards(dcn1, 5, seed=3)
        b = make_shards(dcn1, 5, seed=3)
        assert [s.prefixes for s in a] == [s.prefixes for s in b]

    def test_seed_shuffles_equal_size_components(self, fattree4):
        a = make_shards(fattree4, 4, seed=1)
        b = make_shards(fattree4, 4, seed=2)
        # same sizes, (almost certainly) different membership
        assert sorted(len(s) for s in a) == sorted(len(s) for s in b)


class TestPacking:
    def test_balanced_sizes(self):
        components = [[Prefix(i << 8, 24)] for i in range(40)]
        shards = pack_components(components, 8)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_large_component_isolated(self):
        big = [Prefix(i << 8, 24) for i in range(10)]
        small = [[Prefix((100 + i) << 8, 24)] for i in range(3)]
        shards = pack_components([big] + small, 2)
        sizes = sorted(len(s) for s in shards)
        assert sizes == [3, 10]

    @given(
        st.lists(
            st.integers(1, 6), min_size=1, max_size=20
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_lpt_bound(self, component_sizes, num_shards):
        """Greedy LPT never exceeds mean + largest-component size."""
        components = []
        counter = 0
        for size in component_sizes:
            component = []
            for _ in range(size):
                component.append(Prefix(counter << 8, 24))
                counter += 1
            components.append(component)
        shards = pack_components(components, num_shards)
        total = sum(component_sizes)
        effective = min(num_shards, len(components))
        mean = total / effective
        assert max(len(s) for s in shards) <= mean + max(component_sizes)

    @given(st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_cover_property(self, num_shards):
        components = [[Prefix(i << 8, 24)] for i in range(17)]
        shards = pack_components(components, num_shards)
        flat = {p for s in shards for p in s.prefixes}
        assert len(flat) == 17
        assert all(len(s) > 0 for s in shards)


def _singletons(count, start=0):
    return [[Prefix((start + i) << 8, 24)] for i in range(count)]


def _by_index(shards):
    return {shard.index: shard.prefixes for shard in shards}


def _ft4_with(edits):
    """FatTree k=4 with ``edits`` ({host: extra line}) added to each named
    device's ``router bgp`` block."""
    texts = dict(render_configs(FatTreeSpec(k=4)))
    for host, extra in edits.items():
        dialect, text = texts[host]
        lines = text.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("router bgp"))
        lines.insert(at + 1, extra)
        texts[host] = (dialect, "\n".join(lines) + "\n")
    return snapshot_from_texts(texts, name="ft4-edited")


class TestStickyPacking:
    """Repacking against the previous epoch's shards (serving mode)."""

    def test_placed_components_keep_their_index(self):
        previous = pack_components(_singletons(17), 4)
        grown = pack_components(
            _singletons(17) + _singletons(1, start=100), 4,
            previous=previous,
        )
        after = _by_index(grown)
        gained = []
        for shard in previous:
            assert shard.prefixes <= after[shard.index]
            gained.extend(after[shard.index] - shard.prefixes)
        assert gained == [Prefix(100 << 8, 24)]

    def test_new_component_lands_on_the_lightest_bin(self):
        previous = pack_components(_singletons(17), 4)
        sizes = {shard.index: len(shard) for shard in previous}
        lightest = min(sizes, key=lambda i: (sizes[i], i))
        new = Prefix(100 << 8, 24)
        grown = pack_components(
            _singletons(17) + [[new]], 4, previous=previous
        )
        assert new in _by_index(grown)[lightest]

    def test_new_component_fills_an_emptied_bin_first(self):
        components = _singletons(6)
        previous = pack_components(components, 3)
        emptied = previous[1]
        kept = [c for c in components if c[0] not in emptied.prefixes]
        shrunk = pack_components(kept, 3, previous=previous)
        assert sorted(shard.index for shard in shrunk) == [0, 2]
        new = Prefix(100 << 8, 24)
        grown = pack_components(kept + [[new]], 3, previous=shrunk)
        assert _by_index(grown)[1] == frozenset([new])

    def test_add_then_withdraw_restores_every_fingerprint(self, fattree4):
        previous = make_shards(fattree4, 8)
        added = make_shards(
            _ft4_with({"edge-0-0": " network 203.0.113.0 mask 255.255.255.0"}),
            8,
            previous=previous,
        )
        changed = [
            shard.index for shard, before in zip(added, previous)
            if shard.fingerprint() != before.fingerprint()
        ]
        assert len(added) == len(previous) and len(changed) == 1
        withdrawn = make_shards(fattree4, 8, previous=added)
        assert [(s.index, s.fingerprint()) for s in withdrawn] == [
            (s.index, s.fingerprint()) for s in previous
        ]

    def test_aggregate_merging_two_components_stays_valid(self, fattree4):
        previous = make_shards(fattree4, 8)
        owner = {p: s.index for s in previous for p in s.prefixes}
        a, b = Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")
        assert owner[a] != owner[b]
        merged = _ft4_with(
            {"agg-0-0": " aggregate-address 10.0.0.0 255.255.254.0"}
        )
        packed = make_shards(merged, 8, previous=previous)
        assert validate_shards(packed, merged) == []
        shards = _by_index(packed)
        home = min(owner[a], owner[b])
        assert shards[home] == {a, b, Prefix.parse("10.0.0.0/23")}
        assert max(owner[a], owner[b]) not in shards   # emptied
        for shard in previous:
            if not shard.prefixes & {a, b}:
                assert shards[shard.index] == shard.prefixes

    def test_a_packing_with_a_withdrawn_prefix_is_invalid(self, fattree4):
        grown = _ft4_with(
            {"edge-0-0": " network 203.0.113.0 mask 255.255.255.0"}
        )
        stale = make_shards(grown, 8)
        assert validate_shards(stale, grown) == []
        assert validate_shards(stale, fattree4) == [
            f"203.0.113.0/24 in shard {s.index} is not in the snapshot"
            for s in stale
            if Prefix.parse("203.0.113.0/24") in s
        ]

    def test_drift_bound_returns_exactly_the_cold_packing(self, fattree4):
        everything = frozenset(
            p for s in make_shards(fattree4, 1) for p in s.prefixes
        )
        lopsided = [PrefixShard(index=0, prefixes=everything)]
        shards = make_shards(fattree4, 4, previous=lopsided)
        assert [(s.index, s.prefixes) for s in shards] == [
            (s.index, s.prefixes) for s in make_shards(fattree4, 4)
        ]

    def test_within_the_bound_the_sticky_packing_stands(self, fattree4):
        cold = make_shards(fattree4, 4)
        swapped = [
            PrefixShard(index=3 - s.index, prefixes=s.prefixes) for s in cold
        ]
        shards = make_shards(fattree4, 4, previous=swapped)
        assert _by_index(shards) == _by_index(swapped)

    def test_cold_packing_matches_pinned_fingerprints(self, fattree4, dcn1):
        """Cold packing is unchanged by the sticky path."""
        assert [s.fingerprint() for s in make_shards(fattree4, 3)] == [
            "570c320908b17e10", "decd9bdd64d9f81d", "71c1f79b35adbc18",
        ]
        assert [s.fingerprint() for s in make_shards(dcn1, 6)] == [
            "978c14e8e7497057", "3cf5751a95d51fb6", "ca0c87477698d7f3",
            "818333b1c0e93c1a", "1e76a49f41ce42cc", "5abdcb43c47fa121",
        ]


class TestShardedEqualsUnsharded:
    """§4.5 correctness: sharding must not change the fixed point."""

    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_fattree(self, fattree4, fattree4_sim, num_shards):
        from repro.routing.engine import SimulationEngine

        _, unsharded = fattree4_sim
        engine = SimulationEngine(fattree4)
        shards = make_shards(fattree4, num_shards)
        sharded = engine.run([s.prefixes for s in shards])
        assert sharded == unsharded

    def test_dcn_with_dependencies(self, dcn1, dcn1_sim):
        from repro.routing.engine import SimulationEngine

        _, unsharded = dcn1_sim
        engine = SimulationEngine(dcn1)
        shards = make_shards(dcn1, 7)
        sharded = engine.run([s.prefixes for s in shards])
        assert sharded == unsharded


class TestShardQueries:
    def test_round_robin_balance(self):
        from repro.dist.sharding import shard_queries

        shards = shard_queries([f"edge-{i}" for i in range(10)], 4)
        assert len(shards) == 4
        sizes = sorted(len(s) for s in shards)
        assert sizes == [2, 2, 3, 3]
        flattened = sorted(s for shard in shards for s in shard)
        assert flattened == sorted(f"edge-{i}" for i in range(10))

    def test_fewer_sources_than_shards(self):
        from repro.dist.sharding import shard_queries

        shards = shard_queries(["a", "b"], 8)
        assert len(shards) == 2

    def test_empty_and_invalid(self):
        from repro.dist.sharding import shard_queries

        assert shard_queries([], 4) == []
        with pytest.raises(ValueError):
            shard_queries(["a"], 0)

    def test_deterministic(self):
        from repro.dist.sharding import shard_queries

        sources = ["z", "m", "a", "q"]
        assert shard_queries(sources, 2) == shard_queries(
            list(reversed(sources)), 2
        )
