"""Engine mechanics once pinned against the flat kernel, now run on the
one remaining engine: node-limit overflow, cube index validation, ops
after GC compaction, and serialization across engine instances.
"""

import pytest

from repro.bdd.engine import TRUE, BddEngine, BddOverflowError
from repro.bdd.serialize import deserialize, serialize

N_VARS = 16


@pytest.fixture
def engine():
    return BddEngine(N_VARS)


def test_node_limit_overflow_still_raises():
    tiny = BddEngine(N_VARS, node_limit=8)
    with pytest.raises(BddOverflowError):
        u = TRUE
        for i in range(N_VARS):
            u = tiny.and_(u, tiny.var(i))


def test_cube_validates_index(engine):
    with pytest.raises(ValueError, match="out of range"):
        engine.cube({N_VARS: True})
    with pytest.raises(ValueError, match="out of range"):
        engine.cube({-1: False})


def test_gc_then_ops_stay_consistent(engine):
    a = engine.cube({1: True, 2: True})
    b = engine.cube({3: False})
    engine.add_root(a)
    engine.add_root(b)
    remap = engine.collect_garbage()
    a, b = remap[a], remap[b]
    union = engine.or_(a, b)
    assert engine.implies(a, union)
    assert engine.implies(b, union)


def test_serialization_crosses_kernels(engine):
    u = engine.or_(
        engine.cube({0: True, 4: False}), engine.cube({2: True})
    )
    payload = serialize(engine, u)
    other = BddEngine(N_VARS)
    v = deserialize(other, payload)
    assert other.sat_count(v) == engine.sat_count(u)
    back = deserialize(engine, serialize(other, v))
    assert back == u  # hash-consing makes the roundtrip exact
