"""Unit and property tests for the BDD engine and serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.engine import FALSE, TRUE, BddEngine, BddOverflowError
from repro.bdd.serialize import (
    content_digest,
    deserialize,
    from_bytes,
    serialize,
    to_bytes,
)

N_VARS = 12


@pytest.fixture
def engine():
    return BddEngine(N_VARS)


# A strategy for formulas: nested op trees evaluated into an engine.
formula = st.recursive(
    st.one_of(
        st.just(("const", 0)),
        st.just(("const", 1)),
        st.tuples(st.just("var"), st.integers(0, N_VARS - 1)),
        st.tuples(st.just("nvar"), st.integers(0, N_VARS - 1)),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("xor"), children, children),
        st.tuples(st.just("not"), children),
    ),
    max_leaves=12,
)


def build(engine: BddEngine, tree) -> int:
    op = tree[0]
    if op == "const":
        return tree[1]
    if op == "var":
        return engine.var(tree[1])
    if op == "nvar":
        return engine.nvar(tree[1])
    if op == "not":
        return engine.not_(build(engine, tree[1]))
    a, b = build(engine, tree[1]), build(engine, tree[2])
    return {"and": engine.and_, "or": engine.or_, "xor": engine.xor}[op](a, b)


def evaluate(engine: BddEngine, u: int, assignment) -> bool:
    """Evaluate a BDD under a complete assignment (ground truth)."""
    while u not in (FALSE, TRUE):
        var = engine.var_of(u)
        u = engine.high_of(u) if assignment[var] else engine.low_of(u)
    return u == TRUE


class TestBasics:
    def test_terminals(self, engine):
        assert engine.and_(TRUE, TRUE) == TRUE
        assert engine.and_(TRUE, FALSE) == FALSE
        assert engine.or_(FALSE, FALSE) == FALSE
        assert engine.not_(TRUE) == FALSE

    def test_var_nvar_complement(self, engine):
        v = engine.var(3)
        assert engine.not_(v) == engine.nvar(3)
        assert engine.and_(v, engine.nvar(3)) == FALSE
        assert engine.or_(v, engine.nvar(3)) == TRUE

    def test_hash_consing_canonical(self, engine):
        a = engine.and_(engine.var(0), engine.var(1))
        b = engine.and_(engine.var(1), engine.var(0))
        assert a == b

    def test_mk_eliminates_redundant(self, engine):
        v = engine.var(5)
        assert engine.mk(2, v, v) == v

    def test_var_out_of_range(self, engine):
        with pytest.raises(ValueError):
            engine.var(N_VARS)
        with pytest.raises(ValueError):
            engine.nvar(-1)

    def test_cube(self, engine):
        u = engine.cube({0: True, 3: False})
        assert u == engine.and_(engine.var(0), engine.nvar(3))

    def test_ite(self, engine):
        f, g, h = engine.var(0), engine.var(1), engine.var(2)
        ite = engine.ite(f, g, h)
        assert evaluate(engine, ite, {0: True, 1: True, 2: False})
        assert not evaluate(engine, ite, {0: True, 1: False, 2: True})
        assert evaluate(engine, ite, {0: False, 1: False, 2: True})

    def test_implies(self, engine):
        narrow = engine.cube({0: True, 1: True})
        wide = engine.var(0)
        assert engine.implies(narrow, wide)
        assert not engine.implies(wide, narrow)

    def test_node_limit_overflow(self):
        tiny = BddEngine(N_VARS, node_limit=8)
        with pytest.raises(BddOverflowError):
            u = TRUE
            for i in range(N_VARS):
                u = tiny.and_(u, tiny.var(i))

    def test_clear_caches_preserves_semantics(self, engine):
        a = engine.and_(engine.var(0), engine.var(1))
        engine.clear_caches()
        b = engine.and_(engine.var(0), engine.var(1))
        assert a == b


class TestQuantification:
    def test_exists_removes_var(self, engine):
        u = engine.cube({0: True, 1: False})
        out = engine.exists(u, 0)
        assert out == engine.nvar(1)
        assert 0 not in engine.support(out)

    def test_exists_unrelated_var(self, engine):
        u = engine.var(2)
        assert engine.exists(u, 5) == u

    def test_set_var(self, engine):
        u = engine.cube({0: True, 4: False})
        out = engine.set_var(u, 4, True)
        assert out == engine.cube({0: True, 4: True})

    def test_set_var_idempotent(self, engine):
        u = engine.var(1)
        once = engine.set_var(u, 4, True)
        assert engine.set_var(once, 4, True) == once

    def test_support(self, engine):
        u = engine.and_(engine.var(2), engine.or_(engine.var(7), engine.nvar(4)))
        assert engine.support(u) == [2, 4, 7]
        assert engine.support(TRUE) == []


class TestCounting:
    def test_sat_count_terminals(self, engine):
        assert engine.sat_count(FALSE) == 0
        assert engine.sat_count(TRUE) == 1 << N_VARS

    def test_sat_count_single_var(self, engine):
        assert engine.sat_count(engine.var(0)) == 1 << (N_VARS - 1)
        assert engine.sat_count(engine.var(N_VARS - 1)) == 1 << (N_VARS - 1)

    def test_sat_count_cube(self, engine):
        u = engine.cube({1: True, 2: False, 9: True})
        assert engine.sat_count(u) == 1 << (N_VARS - 3)

    def test_sat_count_over_subset(self, engine):
        u = engine.cube({0: True, 1: True})
        assert engine.sat_count(u, over_vars=4) == 4

    def test_sat_count_subset_rejects_dependence(self, engine):
        u = engine.var(8)
        with pytest.raises(ValueError):
            engine.sat_count(u, over_vars=4)

    def test_any_sat(self, engine):
        u = engine.cube({0: True, 5: False})
        assignment = engine.any_sat(u)
        assert assignment[0] is True and assignment[5] is False
        assert engine.any_sat(FALSE) is None
        assert engine.any_sat(TRUE) == {}

    @given(formula)
    @settings(max_examples=60, deadline=None)
    def test_any_sat_satisfies(self, tree):
        engine = BddEngine(N_VARS)
        u = build(engine, tree)
        witness = engine.any_sat(u)
        if witness is None:
            assert u == FALSE
        else:
            full = {i: witness.get(i, False) for i in range(N_VARS)}
            assert evaluate(engine, u, full)


class TestAlgebraicLaws:
    @given(formula, formula)
    @settings(max_examples=80, deadline=None)
    def test_de_morgan(self, ta, tb):
        engine = BddEngine(N_VARS)
        a, b = build(engine, ta), build(engine, tb)
        assert engine.not_(engine.and_(a, b)) == engine.or_(
            engine.not_(a), engine.not_(b)
        )

    @given(formula, formula)
    @settings(max_examples=60, deadline=None)
    def test_xor_definition(self, ta, tb):
        engine = BddEngine(N_VARS)
        a, b = build(engine, ta), build(engine, tb)
        assert engine.xor(a, b) == engine.or_(
            engine.diff(a, b), engine.diff(b, a)
        )

    @given(formula)
    @settings(max_examples=60, deadline=None)
    def test_double_negation(self, tree):
        engine = BddEngine(N_VARS)
        u = build(engine, tree)
        assert engine.not_(engine.not_(u)) == u

    @given(formula, formula, formula)
    @settings(max_examples=40, deadline=None)
    def test_distribution(self, ta, tb, tc):
        engine = BddEngine(N_VARS)
        a, b, c = (build(engine, t) for t in (ta, tb, tc))
        assert engine.and_(a, engine.or_(b, c)) == engine.or_(
            engine.and_(a, b), engine.and_(a, c)
        )

    @given(formula, st.dictionaries(st.integers(0, N_VARS - 1), st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_semantics_against_evaluation(self, tree, partial):
        engine = BddEngine(N_VARS)
        u = build(engine, tree)
        full = {i: partial.get(i, False) for i in range(N_VARS)}
        expected = _eval_tree(tree, full)
        assert evaluate(engine, u, full) == expected


def _eval_tree(tree, assignment) -> bool:
    op = tree[0]
    if op == "const":
        return bool(tree[1])
    if op == "var":
        return assignment[tree[1]]
    if op == "nvar":
        return not assignment[tree[1]]
    if op == "not":
        return not _eval_tree(tree[1], assignment)
    a = _eval_tree(tree[1], assignment)
    b = _eval_tree(tree[2], assignment)
    return {"and": a and b, "or": a or b, "xor": a != b}[op]


class TestSerialization:
    def test_terminal_roundtrip(self, engine):
        other = BddEngine(N_VARS)
        assert deserialize(other, serialize(engine, TRUE)) == TRUE
        assert deserialize(other, serialize(engine, FALSE)) == FALSE

    def test_var_count_mismatch_rejected(self, engine):
        other = BddEngine(N_VARS + 1)
        with pytest.raises(ValueError):
            deserialize(other, serialize(engine, engine.var(0)))

    def test_wire_bytes_grow_with_nodes(self, engine):
        small = serialize(engine, engine.var(0))
        big = serialize(
            engine, engine.cube({i: True for i in range(N_VARS)})
        )
        assert len(to_bytes(big)) > len(to_bytes(small))

    def test_bytes_roundtrip(self, engine):
        u = engine.xor(engine.var(0), engine.var(5))
        payload = serialize(engine, u)
        assert from_bytes(to_bytes(payload)) == payload

    @given(formula)
    @settings(max_examples=80, deadline=None)
    def test_cross_engine_transfer_preserves_function(self, tree):
        source = BddEngine(N_VARS)
        u = build(source, tree)
        destination = BddEngine(N_VARS)
        # warm the destination with unrelated nodes so ids differ
        destination.cube({0: True, 7: False})
        v = deserialize(destination, serialize(source, u))
        back = deserialize(source, serialize(destination, v))
        assert back == u

    @given(formula, formula)
    @settings(max_examples=40, deadline=None)
    def test_transfer_commutes_with_ops(self, ta, tb):
        source = BddEngine(N_VARS)
        a, b = build(source, ta), build(source, tb)
        destination = BddEngine(N_VARS)
        a2 = deserialize(destination, serialize(source, a))
        b2 = deserialize(destination, serialize(source, b))
        joined_there = destination.and_(a2, b2)
        joined_here = deserialize(
            destination, serialize(source, source.and_(a, b))
        )
        assert joined_there == joined_here

    @given(formula)
    @settings(max_examples=60, deadline=None)
    def test_bytes_roundtrip_property(self, tree):
        """to_bytes/from_bytes invert each other, terminals included."""
        engine = BddEngine(N_VARS)
        payload = serialize(engine, build(engine, tree))
        assert from_bytes(to_bytes(payload)) == payload


class TestFromBytesValidation:
    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(b"\x01\x02\x03")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(b"")

    def test_torn_body_rejected(self, engine):
        payload = serialize(engine, engine.var(3))
        data = to_bytes(payload)
        with pytest.raises(ValueError, match="torn"):
            from_bytes(data[:-5])
        with pytest.raises(ValueError, match="torn"):
            from_bytes(data + b"\x00\x00\x00")

    def test_forward_child_reference_rejected(self, engine):
        u = engine.and_(engine.var(0), engine.var(1))
        num_vars, root, triples = serialize(engine, u)
        # point the first triple's low child at a *later* slot
        var, _low, high = triples[0]
        broken = (num_vars, root, ((var, 3, high),) + triples[1:])
        with pytest.raises(ValueError, match="child slot"):
            from_bytes(to_bytes(broken))

    def test_root_out_of_range_rejected(self, engine):
        num_vars, _root, triples = serialize(engine, engine.var(0))
        broken = (num_vars, 2 + len(triples), triples)
        with pytest.raises(ValueError, match="root slot"):
            from_bytes(to_bytes(broken))

    def test_struct_error_never_escapes(self, engine):
        data = to_bytes(serialize(engine, engine.xor(engine.var(0), engine.var(1))))
        for cut in range(len(data)):
            try:
                from_bytes(data[:cut])
            except ValueError:
                pass  # the only acceptable failure mode


class TestContentDigest:
    def test_same_function_from_different_engines_digests_equal(self):
        """The wire format is canonical, so the digest is
        engine-independent."""
        a, b = BddEngine(N_VARS), BddEngine(N_VARS)
        b.cube({3: False, 9: True})  # skew b's node ids
        tree = ("or", ("var", 2), ("and", ("var", 5), ("nvar", 7)))
        pa, pb = serialize(a, build(a, tree)), serialize(b, build(b, tree))
        assert content_digest(pa) == content_digest(pb)

    def test_distinct_payloads_do_not_collide(self, engine):
        first = serialize(engine, engine.var(0))
        second = serialize(engine, engine.var(1))
        assert content_digest(first) != content_digest(second)


class TestOpCacheBounds:
    def test_hit_only_workload_keeps_cache_bounded(self):
        """Regression: promoting old-generation hits must rotate when
        the live generation fills, exactly like misses do.  Before the
        fix, a hit-dominated phase grew ``_cache`` without bound —
        every promotion inserted, and only misses checked the limit."""
        limit = 16
        engine = BddEngine(N_VARS, cache_limit=limit)
        pairs = [
            (engine.var(i), engine.nvar(j))
            for i in range(N_VARS)
            for j in range(N_VARS)
            if i != j
        ]
        # Warm phase: populate both generations with distinct entries.
        for a, b in pairs:
            engine.or_(a, b)
            assert len(engine._cache) <= limit
        generations_before = engine.cache_generation
        # Hit-only phase: every op is answered from cache (no new nodes,
        # no misses) yet the live generation must stay bounded.
        nodes_before = engine.node_count
        for _ in range(3):
            for a, b in pairs:
                engine.or_(a, b)
                assert len(engine._cache) <= limit
        assert engine.node_count == nodes_before
        assert engine.cache_generation > generations_before

    def test_promotion_still_hits_after_rotation(self):
        engine = BddEngine(N_VARS, cache_limit=4)
        a, b = engine.var(0), engine.var(1)
        u = engine.or_(a, b)
        hits_before = engine.cache_hits
        # Force rotations so the (OR, a, b) entry ages into _cache_old,
        # then query it again: the promotion path must return it.
        for i in range(2, 8):
            engine.or_(engine.var(i), engine.nvar(i - 1))
        assert engine.or_(a, b) == u
        assert engine.cache_hits > hits_before


class TestCubeValidation:
    def test_cube_rejects_out_of_range_index(self, engine):
        """Regression: ``cube`` must validate like ``var``/``nvar`` —
        an out-of-range index previously built a node at a phantom
        level, corrupting variable ordering silently."""
        with pytest.raises(ValueError, match="out of range"):
            engine.cube({N_VARS: True})
        with pytest.raises(ValueError, match="out of range"):
            engine.cube({-1: False})
        # In-range assignments are unaffected.
        assert engine.cube({0: True}) == engine.var(0)
