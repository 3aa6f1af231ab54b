"""Warm boot over a damaged store degrades to a cold start, typed.

The two-phase commit (manifest, then ``EPOCH`` tag) means a store is
trustworthy only when the pair agrees and both parse.  Each kind of
damage must surface as a *typed* error — :class:`CorruptShardError` for
unparsable files, :class:`EpochMismatchError` for a torn commit — and
:class:`VerifierSession` must respond by falling back to a cold start
(recording why), never by serving stale or torn state.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil

import pytest

from repro.config.loader import snapshot_from_texts
from repro.dataplane.queries import Query
from repro.dist.controller import S2Controller, S2Options
from repro.dist.faults import FaultPlan, FaultSpec
from repro.dist.storage import (
    CorruptShardError,
    EpochMismatchError,
    RouteStore,
)
from repro.net.fattree import FatTreeSpec, build_fattree, render_configs
from repro.net.ip import Prefix
from repro.serve import ConfigTextDelta, VerifierSession

from tests.conftest import normalize_ribs, one_shard_per_batch
from tests.test_ip import parent_prefix_ops, raw_prefix

NUM_WORKERS = 2
NUM_SHARDS = 4


def _options(store_dir, **overrides) -> S2Options:
    defaults = dict(
        num_workers=NUM_WORKERS,
        num_shards=NUM_SHARDS,
        store_dir=str(store_dir),
    )
    defaults.update(overrides)
    return S2Options(**defaults)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A committed store at epoch 1, plus the snapshot it describes."""
    texts = render_configs(FatTreeSpec(k=4))
    snapshot = snapshot_from_texts(texts, name="ft4-resume")
    host = sorted(
        h
        for h, (_d, t) in texts.items()
        if any(
            line.strip().startswith("network ")
            for line in t.splitlines()
        )
    )[0]
    dialect, text = texts[host]
    lines = text.splitlines()
    last_net = max(
        i
        for i, line in enumerate(lines)
        if line.strip().startswith("network ")
    )
    lines.insert(last_net + 1, " network 203.0.113.0 mask 255.255.255.0")
    delta = ConfigTextDelta(
        hostname=host, text="\n".join(lines), dialect=dialect
    )
    store_dir = tmp_path_factory.mktemp("seed") / "store"
    with VerifierSession(snapshot, _options(store_dir)) as session:
        result = session.apply_delta(delta, timeout=300)
        assert result.epoch == 1
        final_snapshot = session.snapshot
        view = session.reachability()
        expected = (normalize_ribs(view.ribs), view.pairs)
    return str(store_dir), final_snapshot, expected


@pytest.fixture
def store_copy(seeded, tmp_path):
    """A private copy of the committed store, safe to damage."""
    store_dir, final_snapshot, expected = seeded
    copy = tmp_path / "store"
    shutil.copytree(store_dir, copy)
    return str(copy), final_snapshot, expected


def _boot(store_dir, snapshot, **overrides) -> VerifierSession:
    return VerifierSession(snapshot, _options(store_dir, **overrides))


def _assert_serves_expected(session, expected) -> None:
    ribs, pairs = expected
    view = session.reachability()
    assert normalize_ribs(view.ribs) == ribs
    assert view.pairs == pairs


# -- the happy path ---------------------------------------------------------


def test_warm_boot_adopts_the_committed_epoch(store_copy):
    store_dir, snapshot, expected = store_copy
    with _boot(store_dir, snapshot) as session:
        assert session.warm_booted
        assert session.boot_fallback is None
        assert session.epoch == 1
        assert session.health()["warm_boot"]
        _assert_serves_expected(session, expected)


# -- typed damage at the storage layer --------------------------------------


def test_corrupt_manifest_raises_typed_error(store_copy):
    store_dir, _snapshot, _expected = store_copy
    store = RouteStore(store_dir)
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        handle.write('{"truncated": ')
    with pytest.raises(CorruptShardError):
        store.read_manifest()


def test_corrupt_epoch_tag_raises_typed_error(store_copy):
    store_dir, _snapshot, _expected = store_copy
    store = RouteStore(store_dir)
    with open(store.epoch_tag_path, "w", encoding="utf-8") as handle:
        handle.write("not json at all")
    with pytest.raises(CorruptShardError):
        store.read_epoch_tag()
    with open(store.epoch_tag_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"epoch": "one"}))
    with pytest.raises(CorruptShardError):
        store.read_epoch_tag()


def _write_shard_file(store: RouteStore, payload: bytes) -> None:
    with open(store._path(0, 0), "wb") as handle:
        handle.write(payload)


def test_an_out_of_range_prefix_raises_typed_error(tmp_path):
    """A prefix is validated as it is read, so a shard file holding an
    impossible one fails at the read, typed."""
    store = RouteStore(str(tmp_path))
    _write_shard_file(store, pickle.dumps({"r1": {raw_prefix(0, 40): ()}}))
    with pytest.raises(CorruptShardError, match="prefix length"):
        store.read_shard(0, 0)
    _write_shard_file(store, pickle.dumps({"r1": {raw_prefix(0, 8, 64): ()}}))
    with pytest.raises(CorruptShardError, match="width"):
        store.read_shard(0, 0)


def _parent_shard_file(network: int, length: int) -> bytes:
    """``{"r1": {prefix: ()}}`` with the prefix in the pre-``__reduce__``
    format (its state a field dict with no stored hash)."""
    return b"".join([
        pickle.PROTO, b"\x04",
        pickle.EMPTY_DICT, pickle.SHORT_BINUNICODE, b"\x02r1",
        pickle.EMPTY_DICT, parent_prefix_ops(network, length),
        pickle.EMPTY_TUPLE, pickle.SETITEM, pickle.SETITEM, pickle.STOP,
    ])


def test_a_parent_format_shard_file_loads_or_fails_typed(tmp_path):
    """A store file written before prefixes pickled through their
    canonical reduce still loads, and its prefixes hash at once (no
    ``AttributeError`` at the first lookup); a bad one fails typed."""
    store = RouteStore(str(tmp_path))
    _write_shard_file(store, _parent_shard_file(10 << 24, 8))
    routes = store.read_shard(0, 0)
    assert routes["r1"][Prefix.parse("10.0.0.0/8")] == ()
    _write_shard_file(store, _parent_shard_file(10 << 24, 33))
    with pytest.raises(CorruptShardError, match="prefix length"):
        store.read_shard(0, 0)


# -- the session falls back to a cold start ---------------------------------


def test_corrupt_manifest_falls_back_to_cold_start(store_copy):
    store_dir, snapshot, expected = store_copy
    store = RouteStore(store_dir)
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        handle.write("{[garbage")
    with _boot(store_dir, snapshot) as session:
        assert not session.warm_booted
        assert "CorruptShardError" in session.boot_fallback
        assert session.health()["boot_fallback"] == session.boot_fallback
        assert session.epoch == 0  # a fresh history, not the old one
        _assert_serves_expected(session, expected)


def test_epoch_tag_mismatch_falls_back_to_cold_start(store_copy):
    """A torn commit: the manifest advanced but the tag did not (or
    vice versa).  The RIB files cannot be trusted."""
    store_dir, snapshot, expected = store_copy
    RouteStore(store_dir).write_epoch_tag(99)
    with _boot(store_dir, snapshot) as session:
        assert not session.warm_booted
        assert "EpochMismatchError" in session.boot_fallback
        _assert_serves_expected(session, expected)


def test_missing_epoch_tag_falls_back_to_cold_start(store_copy):
    store_dir, snapshot, expected = store_copy
    os.unlink(RouteStore(store_dir).epoch_tag_path)
    with _boot(store_dir, snapshot) as session:
        assert not session.warm_booted
        assert "EpochMismatchError" in session.boot_fallback
        _assert_serves_expected(session, expected)


def test_incompatible_options_fall_back_to_cold_start(store_copy):
    store_dir, snapshot, expected = store_copy
    with _boot(store_dir, snapshot, num_workers=3) as session:
        assert not session.warm_booted
        assert session.boot_fallback is not None
        _assert_serves_expected(session, expected)


def test_empty_store_is_a_plain_cold_start(tmp_path, store_copy):
    _store, snapshot, expected = store_copy
    with _boot(tmp_path / "fresh", snapshot) as session:
        assert not session.warm_booted
        assert session.boot_fallback is None  # nothing there ≠ damage
        _assert_serves_expected(session, expected)


# -- listed files after a membership change ---------------------------------


@pytest.mark.parametrize("damage", ["missing", "torn"])
def test_a_missing_or_torn_listed_file_after_a_loss_fails_typed(
    tmp_path, damage
):
    """After worker 1's host dies at shard 2 the manifest lists workers
    0 and 2 as the writers of shards 2 and 3.  A resume on the full
    fleet reads their files for worker 1's nodes too, so one of them
    missing or torn is damage, raised typed — never read as empty."""
    snapshot = build_fattree(4)
    options = S2Options(
        num_workers=3, num_shards=NUM_SHARDS, store_dir=str(tmp_path)
    )
    options.worker_capacity = one_shard_per_batch(snapshot, options)
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, shard=2, command="step",
                round=1, heal_after=100,
            )
        ]
    )
    lossy = dataclasses.replace(options, fault_plan=plan)
    with S2Controller(snapshot, lossy) as controller:
        controller.run_control_plane()
        assert controller.manifest.written()[2] == (
            (0, 2), controller.partition.digest
        )
    store = RouteStore(str(tmp_path))
    if damage == "missing":
        os.unlink(store._path(2, 2))
    else:
        with open(store._path(2, 2), "wb") as handle:
            handle.write(b"\x80\x05 torn")
    with S2Controller.resume(snapshot, options) as controller:
        controller.run_control_plane()
        with pytest.raises(CorruptShardError, match="shard0002"):
            controller.collected_ribs()
        with pytest.raises(CorruptShardError, match="shard0002"):
            controller.build_data_plane()
