"""Tests for the engine's bounded op-cache, GC/compaction, and roots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.engine import FALSE, TRUE, BddEngine

from tests.test_bdd import N_VARS, build, evaluate, formula


@pytest.fixture
def engine():
    return BddEngine(N_VARS)


def all_assignments(num_vars):
    for bits in range(1 << num_vars):
        yield {v: bool((bits >> v) & 1) for v in range(num_vars)}


class TestRootRegistry:
    def test_add_root_returns_id(self, engine):
        u = engine.var(3)
        assert engine.add_root(u) == u
        assert engine.root_count == 1

    def test_terminals_not_registered(self, engine):
        engine.add_root(TRUE)
        engine.add_root(FALSE)
        assert engine.root_count == 0

    def test_refcounted(self, engine):
        u = engine.var(0)
        engine.add_root(u)
        engine.add_root(u)
        engine.remove_root(u)
        assert engine.root_count == 1
        engine.remove_root(u)
        assert engine.root_count == 0

    def test_remove_unregistered_is_noop(self, engine):
        engine.remove_root(engine.var(5))
        assert engine.root_count == 0


class TestCollectGarbage:
    def test_node_count_shrinks_after_releasing_roots(self, engine):
        """The satellite acceptance case: dropping a root frees its nodes."""
        keep = engine.add_root(engine.and_(engine.var(0), engine.var(1)))
        junk = engine.add_root(
            engine.xor(engine.or_(engine.var(2), engine.var(3)), engine.var(4))
        )
        grown = engine.node_count
        engine.remove_root(junk)
        remap = engine.collect_garbage()
        assert engine.node_count < grown
        # terminals + the two internal nodes of var0 & var1
        assert engine.node_count == 2 + engine.size_of(remap[keep])
        assert engine.gc_runs == 1
        assert engine.gc_reclaimed_nodes == grown - engine.node_count

    def test_unrooted_engine_collects_to_terminals(self, engine):
        build(engine, ("xor", ("var", 0), ("and", ("var", 1), ("nvar", 2))))
        engine.collect_garbage()
        assert engine.node_count == 2

    def test_extra_roots_survive(self, engine):
        u = engine.or_(engine.var(0), engine.var(7))
        remap = engine.collect_garbage(extra_roots=[u])
        assert remap[u] in remap.values()
        assert engine.node_count == 2 + engine.size_of(remap[u])

    def test_registry_remapped_in_place(self, engine):
        engine.var(9)  # junk allocated before the root
        root = engine.add_root(engine.and_(engine.var(1), engine.var(2)))
        remap = engine.collect_garbage()
        assert set(engine._roots) == {remap[root]}
        # A further GC keeps the (remapped) root alive: terminals plus
        # the two internal nodes of x1 ∧ x2.
        engine.collect_garbage()
        assert engine.node_count == 4

    def test_ops_counter_not_reset(self, engine):
        engine.and_(engine.var(0), engine.var(1))
        ops = engine.ops
        engine.collect_garbage()
        assert engine.ops == ops

    @settings(max_examples=25, deadline=None)
    @given(tree=formula)
    def test_remap_preserves_semantics(self, tree):
        """Compaction renames ids but the function must be untouched."""
        engine = BddEngine(N_VARS)
        u = build(engine, tree)
        expected = [
            evaluate(engine, u, a) for a in all_assignments(N_VARS)
        ]
        engine.add_root(u)
        remap = engine.collect_garbage()
        v = remap[u]
        actual = [evaluate(engine, v, a) for a in all_assignments(N_VARS)]
        assert actual == expected

    def test_operations_correct_after_compaction(self, engine):
        a = engine.add_root(engine.or_(engine.var(0), engine.var(1)))
        b = engine.add_root(engine.and_(engine.var(1), engine.var(2)))
        remap = engine.collect_garbage()
        a2, b2 = remap[a], remap[b]
        # the flushed caches and rebuilt unique table must still canonize
        assert engine.and_(a2, b2) == engine.and_(b2, a2)
        assert engine.or_(a2, engine.not_(a2)) == TRUE
        assert engine.diff(b2, a2) == FALSE  # b implies a

    def test_compaction_keeps_children_first_and_dedups(self, engine):
        keep = engine.add_root(engine.cube({0: True, 5: False, 9: True}))
        for i in range(10):
            engine.xor(engine.var(i), engine.var((i + 3) % N_VARS))
        before = engine.node_count
        count = engine.sat_count(keep)
        keep = engine.collect_garbage()[keep]
        assert engine.node_count < before
        assert engine.sat_count(keep) == count
        for node in range(2, engine.node_count):
            assert engine.low_of(node) < node
            assert engine.high_of(node) < node
        # The rebuilt unique table dedups against the compacted nodes.
        assert engine.cube({0: True, 5: False, 9: True}) == keep

    def test_peak_node_count_tracks_high_water(self, engine):
        build(engine, ("xor", ("var", 0), ("xor", ("var", 1), ("var", 2))))
        grown = engine.node_count
        engine.collect_garbage()
        assert engine.node_count == 2
        assert engine.counters()["peak_node_count"] >= grown

    def test_flat_across_repeated_query_cycles(self):
        """The DPO usage pattern: permanent predicate roots, transient
        query work, GC at each boundary -> node count returns to baseline
        instead of growing monotonically."""
        engine = BddEngine(16)
        predicates = [
            engine.add_root(engine.and_(engine.var(i), engine.nvar(i + 1)))
            for i in range(0, 8, 2)
        ]
        baseline = engine.node_count
        counts = []
        for round_ in range(6):
            acc = FALSE
            for p in predicates:
                acc = engine.or_(acc, engine.and_(p, engine.var(8 + round_)))
            engine.collect_garbage()
            counts.append(engine.node_count)
        # Flat: every between-query GC lands on the same footprint (the
        # rooted predicates), never above the pre-query baseline.
        assert len(set(counts)) == 1
        assert counts[0] <= baseline


class TestBoundedCache:
    def test_cache_entries_bounded(self):
        engine = BddEngine(24, cache_limit=64)
        for i in range(0, 22):
            a = engine.xor(engine.var(i), engine.var((i + 3) % 22))
            b = engine.or_(engine.var((i + 7) % 22), a)
            engine.and_(a, engine.not_(b))
        counters = engine.counters()
        assert counters["cache_entries"] <= 2 * 64
        assert counters["cache_generation"] >= 1

    def test_eviction_preserves_semantics(self):
        bounded = BddEngine(10, cache_limit=8)
        roomy = BddEngine(10)
        tree = (
            "xor",
            ("or", ("var", 0), ("and", ("var", 1), ("var", 2))),
            ("and", ("nvar", 3), ("or", ("var", 4), ("nvar", 5))),
        )
        a, b = build(bounded, tree), build(roomy, tree)
        for assignment in all_assignments(6):
            full = dict(assignment)
            full.update({v: False for v in range(6, 10)})
            assert evaluate(bounded, a, full) == evaluate(roomy, b, full)

    def test_hit_and_miss_counters(self, engine):
        a = engine.or_(engine.var(0), engine.var(1))
        b = engine.and_(engine.var(2), engine.var(3))
        misses = engine.cache_misses
        engine.and_(a, b)
        assert engine.cache_misses > misses
        hits = engine.cache_hits
        engine.and_(b, a)  # commutative key canonicalization -> same entry
        assert engine.cache_hits > hits

    def test_hit_rate_in_counters(self, engine):
        engine.and_(engine.var(0), engine.var(1))
        counters = engine.counters()
        assert 0.0 <= counters["cache_hit_rate"] <= 1.0


class TestIte:
    @settings(max_examples=60, deadline=None)
    @given(tf=formula, tg=formula, th=formula)
    def test_ite_matches_definition(self, tf, tg, th):
        engine = BddEngine(N_VARS)
        f, g, h = build(engine, tf), build(engine, tg), build(engine, th)
        direct = engine.ite(f, g, h)
        expanded = engine.or_(
            engine.and_(f, g), engine.and_(engine.not_(f), h)
        )
        assert direct == expanded

    def test_ite_normalizations(self, engine):
        f = engine.var(0)
        g = engine.var(1)
        assert engine.ite(TRUE, f, g) == f
        assert engine.ite(FALSE, f, g) == g
        assert engine.ite(f, g, g) == g
        assert engine.ite(f, TRUE, FALSE) == f
        assert engine.ite(f, FALSE, TRUE) == engine.not_(f)
        assert engine.ite(f, f, g) == engine.or_(f, g)
        assert engine.ite(f, g, f) == engine.and_(f, g)
