"""Replay every stored fuzz case against the differential oracle.

``tests/corpus/`` is the fuzzer's long-term memory: shrunken oscillation
gadgets that must stay *detected* (``expect: divergent``) and
feature-dense generated networks that must stay *equivalent* across
every engine.  A case failing here means either an engine regression or
an oracle that went blind.
"""

import pytest

from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.oracle import (
    CheckPlan,
    DifferentialOracle,
    adjudicate_groundtruth,
)

CASES = load_corpus(DEFAULT_CORPUS_DIR)
DIVERGENT = [case for case in CASES if case.expect == "divergent"]


def test_corpus_is_populated():
    assert len(CASES) >= 5
    assert any(case.expect == "divergent" for case in CASES)
    assert any(case.expect == "equivalent" for case in CASES)


def test_corpus_names_match_files():
    for case in CASES:
        assert case.path is not None
        assert case.path.endswith(f"{case.name}.json")
        assert case.description  # every stored case explains itself


@pytest.mark.parametrize(
    "case", CASES, ids=[case.name for case in CASES]
)
def test_replay(case):
    spec = case.resolve_spec()
    # include_groundtruth: the concrete packet-walk adjudicator runs as
    # a third check on every equivalent case (it only fires when the
    # RIB diff is clean, so divergent gadgets skip it naturally).
    plan = CheckPlan()
    plan.include_groundtruth = True
    report = DifferentialOracle(plan).check(spec)
    assert report.baseline_error is None, report.describe()
    if case.expect == "equivalent":
        assert report.ok, f"{case.name} regressed:\n{report.describe()}"
        assert "groundtruth" in report.variants_run
    else:
        assert not report.ok, (
            f"{case.name} is a known-divergent gadget the oracle must "
            "flag, but every engine now agrees — if an engine change "
            "legitimately fixed it, promote the case to expect: "
            "equivalent with a note"
        )


def test_every_divergent_gadget_is_adjudicated():
    """Each expect-divergent gadget carries a recorded ground-truth
    verdict saying which runtime the concrete packet walk sides with."""
    assert DIVERGENT
    for case in DIVERGENT:
        verdict = case.metadata.get("groundtruth")
        assert verdict is not None, (
            f"{case.name} has no recorded ground-truth adjudication — "
            "run repro.fuzz.oracle.adjudicate_groundtruth and save it "
            "in the case metadata"
        )
        assert verdict["sides_with"] in (
            "monolithic", "divergent", "both", "neither"
        )
        assert verdict["divergent_variant"], (
            "an expect-divergent case must name the variant that "
            "diverged from the monolithic baseline"
        )


@pytest.mark.parametrize(
    "case", DIVERGENT, ids=[case.name for case in DIVERGENT]
)
def test_gadget_adjudication_is_reproducible(case):
    """Recompute the concrete-walk adjudication and check it still
    matches the verdict pinned in the corpus metadata."""
    recorded = case.metadata["groundtruth"]
    fresh = adjudicate_groundtruth(case.resolve_spec(), CheckPlan())
    assert fresh["sides_with"] == recorded["sides_with"], (
        f"{case.name}: the concrete walk now sides with "
        f"{fresh['sides_with']!r} but the corpus records "
        f"{recorded['sides_with']!r} — re-run the adjudicator and "
        "update the stored metadata if an engine change is responsible"
    )
    assert fresh["divergent_variant"] == recorded["divergent_variant"]
    assert fresh["monolithic"]["ok"] == recorded["monolithic"]["ok"]
