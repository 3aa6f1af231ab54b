"""``BgpRoute.evolve`` against ``dataclasses.replace`` on the real policy path.

Every derived BGP route (export and import transforms, route-map set
actions, aggregates, prepends) is built by ``BgpRoute.evolve``, which
copies the instance state instead of re-running ``__init__``.  The
reference below swaps it for a ``dataclasses.replace`` wrapper by
monkeypatch; socket workers are forked, so the patch reaches them too.
Both must produce the same RIBs, the same flushed shard files byte for
byte, and the same per-prefix transform memo hits — on socket those are
``==`` hits on routes that arrived unpickled.  A copy that dropped or
reordered a field would show in one of them.
"""

from __future__ import annotations

import dataclasses
import glob
import os

import pytest

from repro import S2Options
from repro.dist.controller import S2Controller
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import build_snapshot
from repro.routing.engine import ConvergenceError, SimulationEngine
from repro.routing.route import BgpRoute

from tests.conftest import normalize_ribs

CORPUS = load_corpus(DEFAULT_CORPUS_DIR)


def _install_replace(monkeypatch) -> list:
    """Route every ``evolve`` through ``dataclasses.replace``; the returned
    list counts the in-process calls."""
    calls = []

    def replaced(self, **changes):
        calls.append(1)
        return dataclasses.replace(self, **changes)

    monkeypatch.setattr(BgpRoute, "evolve", replaced)
    return calls


def _both_ways(monkeypatch, run):
    """``run()`` with ``evolve``, then with the ``replace`` reference."""
    evolved = run()
    with monkeypatch.context() as patch:
        calls = _install_replace(patch)
        replaced = run()
    return evolved, replaced, calls


def _monolith(snapshot):
    engine = SimulationEngine(snapshot)
    try:
        return normalize_ribs(engine.run()), engine.stats.bgp_rounds
    except ConvergenceError as exc:
        return (exc.rounds, exc.still_changing), engine.stats.bgp_rounds


def test_dcn1_monolith_matches_replace(dcn1, monkeypatch):
    evolved, replaced, calls = _both_ways(
        monkeypatch, lambda: _monolith(dcn1)
    )
    assert calls, "the reference was never used"
    assert evolved == replaced


@pytest.mark.parametrize("case", CORPUS, ids=[case.name for case in CORPUS])
def test_corpus_monolith_matches_replace(case, monkeypatch):
    snapshot = build_snapshot(case.resolve_spec())
    evolved, replaced, _ = _both_ways(monkeypatch, lambda: _monolith(snapshot))
    assert evolved == replaced


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_dcn1_flushes_the_same_bytes(runtime, dcn1, tmp_path, monkeypatch):
    """Sequential: the shard files of DCN ×1 are byte-identical.  Socket:
    boundary routes arrive as unpickled copies, so the import memo's
    ``==`` must hit exactly as often for evolved routes as for replaced
    ones."""
    options = dict(num_workers=4, num_shards=8, runtime=runtime)
    if runtime == "socket":
        options.update(num_workers=2, num_shards=2)
    runs = iter(("evolve", "replace"))

    def run():
        store_dir = str(tmp_path / next(runs))
        opts = S2Options(store_dir=store_dir, **options)
        with S2Controller(dcn1, opts) as controller:
            stats = controller.run_control_plane()
            ribs = normalize_ribs(controller.collected_ribs())
        files = {}
        for path in sorted(glob.glob(os.path.join(store_dir, "*.rib"))):
            with open(path, "rb") as handle:
                files[os.path.basename(path)] = handle.read()
        counts = (
            stats.bgp_rounds,
            stats.route_flush_bytes,
            stats.total_selected_routes,
            stats.transforms_computed,
            stats.transforms_reused,
        )
        return ribs, files, counts

    evolved, replaced, _ = _both_ways(monkeypatch, run)
    _, files, counts = evolved
    assert files and counts[1] == sum(len(data) for data in files.values())
    assert counts[4] > 0, "the transform memo never hit"
    assert evolved == replaced
