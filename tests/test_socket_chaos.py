"""Chaos fuzzing: the differential oracle over TCP workers.

The CI chaos-smoke bar: pinned-seed networks run under the ``socket``
runtime with a *sampled* network-fault plan (partition / reorder /
slow_link / torn_frame, drawn from the same seed every time) and must
still converge to the monolithic oracle's RIBs bit-for-bit.  This is
the fuzzed generalization of the hand-written acceptance scenario in
``test_socket_runtime.py``.
"""

from __future__ import annotations

import pytest

from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import generate_spec
from repro.fuzz.oracle import CheckPlan, DifferentialOracle

#: Pinned generator seeds.  Each draws a different sampled network-fault
#: plan (the fault seed follows the generator seed), so together they
#: cover several of the four network kinds.
GENERATOR_SEEDS = [3, 11]

EQUIVALENT_CASES = [
    case
    for case in load_corpus(DEFAULT_CORPUS_DIR)
    if case.expect == "equivalent"
]


def _chaos_plan(fault_seed: int) -> CheckPlan:
    return CheckPlan(include_socket=True, fault_seed=fault_seed)


def test_sampled_network_plans_cover_the_kinds():
    """The sampled plans actually exercise the chaos surface: across a
    seed range, every network kind is drawn at least once."""
    from repro.dist.faults import NETWORK_KINDS, sample_network_plan

    drawn = set()
    for seed in range(24):
        plan = sample_network_plan(seed, num_workers=3)
        drawn.update(spec.kind for spec in plan.specs)
        assert plan.specs, f"seed {seed} drew an empty plan"
        for spec in plan.specs:
            assert spec.kind in NETWORK_KINDS
            assert spec.times >= 1        # bounded, so runs terminate
    assert drawn == set(NETWORK_KINDS)


@pytest.mark.parametrize("seed", GENERATOR_SEEDS)
def test_generated_network_converges_over_chaotic_sockets(seed):
    spec = generate_spec(seed)
    report = DifferentialOracle(_chaos_plan(fault_seed=seed)).check(spec)
    assert report.baseline_error is None, report.describe()
    assert report.ok, (
        f"seed {seed} diverged under socket chaos:\n{report.describe()}"
    )


@pytest.mark.parametrize(
    "case",
    EQUIVALENT_CASES[:2],
    ids=[case.name for case in EQUIVALENT_CASES[:2]],
)
def test_corpus_case_converges_over_chaotic_sockets(case):
    spec = case.resolve_spec()
    report = DifferentialOracle(_chaos_plan(fault_seed=1)).check(spec)
    assert report.baseline_error is None, report.describe()
    assert report.ok, f"{case.name} diverged:\n{report.describe()}"
