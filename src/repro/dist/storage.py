"""Per-shard route persistence (§3.1: "write it to persistent storage").

When a prefix shard finishes, each worker flushes the shard's selected
routes to disk and frees the in-memory RIBs, which is what caps peak
memory at one shard's footprint.  The store really writes pickle files
under a spool directory, so the flush cost and the reload path are
genuine.  Durable state is keyed by what it describes: a file
``worker{w}-shard{i}.rib`` holds the nodes its writer ``w`` owned when
it flushed index ``i``, and is never re-keyed.  Each flush index records
its writers and the digest of the assignment they flushed under
(:meth:`RunManifest.mark_shard`); a reader of index ``i`` reads its own
file when ``i`` was written by the current fleet under the current
assignment, else every writer's file of ``i``, keeping the nodes it owns
(:meth:`RouteStore.shard_files`).  So a worker loss or rejoin moves no
bytes, and a store resumed under another membership is read right.  A
full data-plane build reads every index; after an announce-only epoch a
worker reads only the indices that epoch recomputed, and so does the
serving session's RIB view.

Each store counts its metadata operations: ``durable_writes`` (temp file,
fsync, rename) and ``unlinks``.  A worker's flush writes through its own
store object, so the controller counts those files from the replies.

The store doubles as the **checkpoint substrate** of the fault-tolerance
layer: every file is written to a temp name and :func:`os.replace`-d into
place (a worker killed mid-flush can never leave a torn shard pickle), a
:class:`RunManifest` records which shards have converged and who wrote
them (so a killed run can be resumed, skipping them), and per-writer
OSPF checkpoints let a respawned worker rejoin without re-running the
IGP fixed point.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..net.ip import Prefix
from ..routing.route import BgpRoute
from .sharding import PrefixShard

# node -> prefix -> selected ECMP routes
ShardRoutes = Dict[str, Dict[Prefix, Tuple[BgpRoute, ...]]]
# flush index -> (its writers, the digest of the assignment they
# flushed under)
Written = Dict[int, Tuple[Tuple[int, ...], str]]

MANIFEST_NAME = "manifest.json"
EPOCH_TAG_NAME = "EPOCH"


class CorruptShardError(RuntimeError):
    """A persisted shard file failed to deserialize (torn/corrupt write)."""

    def __init__(self, path: str, cause: Exception) -> None:
        super().__init__(
            f"corrupt shard file {path}: {type(cause).__name__}: {cause}"
        )
        self.path = path


class EpochMismatchError(RuntimeError):
    """The store's epoch tag disagrees with its manifest.

    A serve session commits an epoch in two places — the manifest and the
    ``EPOCH`` tag file — written back to back.  A crash between the two
    writes (or a checkpoint restored from a different epoch's backup)
    leaves them disagreeing, and the RIB files cannot be trusted to all
    belong to either epoch.  Callers must treat the store as damaged and
    fall back to a cold start instead of serving mixed-epoch state.
    """

    def __init__(self, manifest_epoch: int, tag_epoch: Optional[int]) -> None:
        super().__init__(
            f"store epoch tag {tag_epoch!r} does not match manifest epoch "
            f"{manifest_epoch!r}; refusing to warm-boot from mixed-epoch "
            "state"
        )
        self.manifest_epoch = manifest_epoch
        self.tag_epoch = tag_epoch


@dataclass
class RunManifest:
    """Atomic record of a run's recovery state (one JSON file per store).

    Written after OSPF convergence and after every shard flush, so a
    restarted controller (:meth:`~repro.dist.controller.S2Controller.
    resume`) knows exactly which work survives.  ``options_hash`` guards
    against resuming with incompatible options or a different snapshot;
    ``shard_prefixes`` is the packing the flush indices refer to, so a
    resumed run (or a warm-booted session) repacks nothing and trusts a
    converged index only while it still holds the same prefixes.  Each
    converged index records its writers and assignment digest, and
    ``ospf_writers`` the workers whose checkpoint files hold the IGP
    result.
    """

    version: int = 1
    options_hash: str = ""
    seed: int = 0
    num_workers: int = 0
    num_shards: int = 0
    ospf_done: bool = False
    ospf_writers: List[int] = field(default_factory=list)
    # str(flush index) -> {"status": "converged", "rounds": int,
    #                      "writers": [worker id], "layout": digest}
    shards: Dict[str, Dict] = field(default_factory=dict)
    # Serving state: the committed epoch this manifest belongs to.
    epoch: int = 0
    # str(flush index) -> the shard's sorted prefix texts
    shard_prefixes: Dict[str, List[str]] = field(default_factory=dict)

    def mark_shard(
        self,
        flush_index: int,
        rounds: int = 0,
        writers: Sequence[int] = (),
        layout: str = "",
    ) -> None:
        self.shards[str(flush_index)] = {
            "status": "converged",
            "rounds": rounds,
            "writers": list(writers),
            "layout": layout,
        }

    def written(self) -> Written:
        """Each converged flush index whose writers were recorded."""
        return {
            int(index): (tuple(entry["writers"]), entry.get("layout", ""))
            for index, entry in self.shards.items()
            if entry.get("status") == "converged" and entry.get("writers")
        }

    def is_shard_done(self, flush_index: int) -> bool:
        entry = self.shards.get(str(flush_index))
        return bool(entry) and entry.get("status") == "converged"

    def converged(self, shard: Optional[PrefixShard]) -> bool:
        """Whether ``shard``'s flush index converged *with the prefixes
        it holds now* (``None``: the single pass of an unsharded run)."""
        if shard is None:
            return self.is_shard_done(0)
        return (
            self.is_shard_done(shard.index)
            and self.shard_prefixes.get(str(shard.index))
            == shard.prefix_list()
        )

    def record_packing(self, shards: List[PrefixShard]) -> None:
        self.shard_prefixes = {
            str(shard.index): shard.prefix_list() for shard in shards
        }

    def packing(self) -> Optional[List[PrefixShard]]:
        """The recorded packing, or None when none was recorded or it
        does not parse."""
        if not self.shard_prefixes:
            return None
        try:
            return [
                PrefixShard(
                    index=int(index),
                    prefixes=frozenset(Prefix.parse(p) for p in prefixes),
                )
                for index, prefixes in sorted(
                    self.shard_prefixes.items(), key=lambda kv: int(kv[0])
                )
            ]
        except (AttributeError, TypeError, ValueError):
            return None

    def completed_shards(self) -> List[int]:
        return sorted(
            int(index)
            for index, entry in self.shards.items()
            if entry.get("status") == "converged"
        )

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        names = [each.name for each in fields(cls)]
        return cls(**{name: data[name] for name in names if name in data})


class RouteStore:
    """Spool directory holding per-(worker, shard) route files."""

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="s2-routes-")
            self._owned = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._owned = False
        self.directory = directory
        self.bytes_written = 0
        self.durable_writes = 0
        self.unlinks = 0

    def _path(self, worker_id: int, shard_index: int) -> str:
        return os.path.join(
            self.directory, f"worker{worker_id:03d}-shard{shard_index:04d}.rib"
        )

    def _ospf_path(self, worker_id: int) -> str:
        return os.path.join(self.directory, f"worker{worker_id:03d}.ospf")

    def _atomic_write(self, path: str, payload: bytes) -> None:
        """Crash-safe write: temp file in the same directory, then rename.

        ``os.replace`` is atomic on POSIX, so readers (and a resumed run)
        either see the complete previous file or the complete new one —
        never a torn prefix.  The pid suffix keeps concurrent worker
        processes from clobbering each other's temp files.
        """
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        self.durable_writes += 1

    def _unlink(self, name: str) -> None:
        """Remove one file of the directory; a missing one is no error."""
        try:
            os.unlink(os.path.join(self.directory, name))
        except OSError:
            return
        self.unlinks += 1

    def _load(self, path: str) -> ShardRoutes:
        with open(path, "rb") as handle:
            try:
                return pickle.load(handle)
            except (
                pickle.UnpicklingError,
                EOFError,
                AttributeError,
                ImportError,
                IndexError,
                ValueError,
            ) as exc:
                raise CorruptShardError(path, exc) from exc

    # -- shard files -----------------------------------------------------

    def write_shard(
        self, worker_id: int, shard_index: int, routes: ShardRoutes
    ) -> int:
        """Persist one worker's results for one shard; returns bytes."""
        payload = pickle.dumps(routes, protocol=pickle.HIGHEST_PROTOCOL)
        self.write_shard_payload(worker_id, shard_index, payload)
        return len(payload)

    def read_shard(self, worker_id: int, shard_index: int) -> ShardRoutes:
        return self._load(self._path(worker_id, shard_index))

    def read_shard_payload(
        self, worker_id: int, shard_index: int
    ) -> Optional[bytes]:
        """Raw bytes of one shard file, or None if it was never flushed
        (a writer with no routes in a shard still flushes an empty dict).
        """
        try:
            with open(self._path(worker_id, shard_index), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def write_shard_payload(
        self, worker_id: int, shard_index: int, payload: bytes
    ) -> None:
        """Install pre-serialized shard bytes (epoch carry-over path).

        Used by the serving layer to move a *clean* shard's results to
        its index in the next epoch without deserializing them — the
        bytes are byte-identical to what a recompute would flush.
        """
        self._atomic_write(self._path(worker_id, shard_index), payload)
        self.bytes_written += len(payload)

    def clear_shard_files(self, keep: Iterable[int] = ()) -> None:
        """Remove the RIB shard files except the ``keep`` flush indices
        (OSPF state and manifest stay).

        The between-epoch reset: OSPF checkpoints stay valid across an
        announce-only delta, and the shards it left clean keep their
        files in place; every other ``.rib`` file is recomputed.
        """
        kept = tuple(f"-shard{index:04d}.rib" for index in keep)
        for name in os.listdir(self.directory):
            if ".tmp." in name or (
                name.endswith(".rib") and not name.endswith(kept)
            ):
                self._unlink(name)

    def worker_shard_indices(self, worker_id: int) -> List[int]:
        """Flush indices of one worker's persisted shard files, sorted."""
        prefix = f"worker{worker_id:03d}-shard"
        suffix = ".rib"
        indices: List[int] = []
        for name in os.listdir(self.directory):
            if name.startswith(prefix) and name.endswith(suffix):
                indices.append(int(name[len(prefix):-len(suffix)]))
        return sorted(indices)

    def shard_files(
        self,
        workers: Iterable[int],
        indices: Optional[Iterable[int]] = None,
        foreign: Optional[Mapping[int, Sequence[int]]] = None,
    ) -> List[Tuple[int, int]]:
        """The ``(writer, flush index)`` files the ``workers`` read, each
        once: of each index a worker persisted (and each ``foreign``
        one) or of ``indices``, its own file, but every writer's file of
        a ``foreign`` index — one written under another assignment, so
        the nodes a worker owns now may sit in any of them."""
        foreign = foreign or {}
        files: Dict[Tuple[int, int], None] = {}
        for worker_id in workers:
            own = indices
            if own is None:
                own = set(self.worker_shard_indices(worker_id)).union(foreign)
            for index in sorted(own):
                for writer in foreign.get(index, (worker_id,)):
                    files[writer, index] = None
        return list(files)

    def merged_routes(self, files: Iterable[Tuple[int, int]]) -> ShardRoutes:
        """Union of the routes of the ``(writer, flush index)`` files
        (:meth:`shard_files`); a missing one is damage, raised typed."""
        merged: ShardRoutes = {}
        for writer, index in files:
            path = self._path(writer, index)
            try:
                shard_routes = self._load(path)
            except FileNotFoundError as exc:
                raise CorruptShardError(path, exc) from exc
            for node, routes in shard_routes.items():
                merged.setdefault(node, {}).update(routes)
        return merged

    # -- run manifest ----------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def write_manifest(self, manifest: RunManifest) -> None:
        self._atomic_write(
            self.manifest_path, manifest.to_json().encode("utf-8")
        )

    def read_manifest(self) -> Optional[RunManifest]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return RunManifest.from_json(handle.read())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError) as exc:
            raise CorruptShardError(self.manifest_path, exc) from exc

    # -- epoch tag -------------------------------------------------------

    @property
    def epoch_tag_path(self) -> str:
        return os.path.join(self.directory, EPOCH_TAG_NAME)

    def write_epoch_tag(self, epoch: int) -> None:
        """Stamp the store with its committed epoch (atomic).

        Written immediately after the committed manifest; the pair
        agreeing is what a warm boot verifies before trusting the RIB
        files (:class:`EpochMismatchError` otherwise).
        """
        self._atomic_write(
            self.epoch_tag_path,
            json.dumps({"epoch": epoch}).encode("utf-8"),
        )

    def read_epoch_tag(self) -> Optional[int]:
        try:
            with open(self.epoch_tag_path, "r", encoding="utf-8") as handle:
                data = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError) as exc:
            raise CorruptShardError(self.epoch_tag_path, exc) from exc
        epoch = data.get("epoch")
        if not isinstance(epoch, int):
            raise CorruptShardError(
                self.epoch_tag_path,
                ValueError(f"epoch tag holds {epoch!r}, expected an int"),
            )
        return epoch

    # -- OSPF checkpoints ------------------------------------------------

    def write_ospf_state(self, worker_id: int, state) -> int:
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        self._atomic_write(self._ospf_path(worker_id), payload)
        return len(payload)

    def read_ospf_state(self, worker_id: int):
        try:
            return self._load(self._ospf_path(worker_id))
        except FileNotFoundError:
            return None

    # -- run lifecycle ---------------------------------------------------

    def clear_run_state(self) -> None:
        """Remove shard files, checkpoints, and temp leftovers.

        Called when a *fresh* (non-resume) run reuses a persistent store
        directory, so stale shards from an earlier run can't pollute
        its reads.
        """
        for name in os.listdir(self.directory):
            if (
                name.endswith(".rib")
                or name.endswith(".ospf")
                or name == MANIFEST_NAME
                or name == EPOCH_TAG_NAME
                or ".tmp." in name
            ):
                self._unlink(name)
        self.bytes_written = 0

    def close(self) -> None:
        if self._owned and os.path.isdir(self.directory):
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "RouteStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
