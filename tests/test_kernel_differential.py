"""Differential testing of the BDD engine's garbage collector.

Collection compacts the node table and renames every survivor, so a
bug in the mark, the sweep or the remap shows up as a function that
silently changed.  The reference for each trace is the same trace with
every ``collect_garbage`` step skipped: node *ids* differ between the
two runs, so equivalence is checked on the canonical form (nodes
relabeled in children-first traversal order) plus the model count.

The pinned 200-seed corpus of random op traces (cube / apply / not /
ite / exists / set_var / apply_many / GC with root remapping) must
fingerprint identically with and without collection, forever.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd.engine import (
    FALSE,
    OP_AND,
    OP_OR,
    OP_XOR,
    TRUE,
    BddEngine,
)

N_VARS = 24
PINNED_SEEDS = range(200)


def fingerprint(engine, root):
    """Id-independent canonical form of one BDD."""
    ids = {FALSE: 0, TRUE: 1}
    triples = []
    for node, var, low, high in engine.nodes_of(root):
        ids[node] = len(ids)
        triples.append((var, ids[low], ids[high]))
    return tuple(triples), engine.sat_count(root)


def run_trace(engine, seed: int, steps: int = 120, collect: bool = True):
    """One seeded random op trace; returns periodic fingerprints.

    With ``collect=False`` every GC step keeps the node table as it is
    but drops the same unrooted nodes from the working set, so both
    runs make the same random choices over the same functions.
    """
    rng = random.Random(seed)
    nodes = [FALSE, TRUE]
    roots = []
    fps = []
    for step in range(steps):
        choice = rng.random()
        if choice < 0.2:
            bits = {
                rng.randrange(N_VARS): rng.random() < 0.5
                for _ in range(rng.randrange(1, 6))
            }
            nodes.append(engine.cube(bits))
        elif choice < 0.45:
            a, b = rng.choice(nodes), rng.choice(nodes)
            op = rng.choice((OP_AND, OP_OR, OP_XOR))
            nodes.append(engine.apply(op, a, b))
        elif choice < 0.6:
            nodes.append(engine.not_(rng.choice(nodes)))
        elif choice < 0.7:
            f, g, h = (rng.choice(nodes) for _ in range(3))
            nodes.append(engine.ite(f, g, h))
        elif choice < 0.8:
            nodes.append(
                engine.exists(rng.choice(nodes), rng.randrange(N_VARS))
            )
        elif choice < 0.86:
            nodes.append(
                engine.set_var(
                    rng.choice(nodes),
                    rng.randrange(N_VARS),
                    rng.random() < 0.5,
                )
            )
        elif choice < 0.93:
            ops = rng.sample(nodes, min(len(nodes), rng.randrange(2, 9)))
            nodes.append(engine.apply_many(OP_OR, ops))
        else:
            u = rng.choice(nodes)
            engine.add_root(u)
            roots.append(u)
            if collect:
                remap = engine.collect_garbage(extra_roots=())
            else:
                remap = {FALSE: FALSE, TRUE: TRUE}
                for root in roots:
                    remap.update((n, n) for n, *_ in engine.nodes_of(root))
            nodes = [remap.get(n, n) for n in nodes if n in remap]
            roots = [remap[r] for r in roots]
            if not nodes:
                nodes = [FALSE, TRUE]
        if step % 17 == 0 and nodes[-1] > TRUE:
            fps.append(fingerprint(engine, nodes[-1]))
    for r in roots:
        fps.append(fingerprint(engine, r))
    return fps


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_pinned_trace_corpus(seed):
    """The 200-seed pinned corpus: collection preserves every function."""
    collected = run_trace(BddEngine(N_VARS, node_limit=1 << 20), seed)
    reference = run_trace(
        BddEngine(N_VARS, node_limit=1 << 20), seed, collect=False
    )
    assert collected == reference


def test_apply_many_matches_fold():
    engine = BddEngine(N_VARS)
    rng = random.Random(11)
    operands = [
        engine.cube(
            {rng.randrange(N_VARS): rng.random() < 0.5 for _ in range(3)}
        )
        for _ in range(25)
    ]
    for op in (OP_AND, OP_OR, OP_XOR):
        folded = operands[0]
        for u in operands[1:]:
            folded = engine.apply(op, folded, u)
        assert engine.apply_many(op, operands) == folded
    # Identity elements for the empty operand set.
    assert engine.apply_many(OP_AND, []) == TRUE
    assert engine.apply_many(OP_OR, []) == FALSE
    assert engine.apply_many(OP_XOR, []) == FALSE
