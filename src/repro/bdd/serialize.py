"""Cross-engine BDD serialization (the JDD-BDDIO equivalent, §5.1).

When a symbolic packet crosses a worker boundary, its BDD must be encoded
on the sending worker's engine and re-encoded on the receiving worker's
engine (§4.3, option 2).  The wire format is a flat tuple of node triples
in children-first order plus the root index, so deserialization is a
single bottom-up pass of hash-consing ``mk`` calls — re-canonicalizing the
function in the destination engine regardless of how either table grew.

Because the format is canonical for a given function (children-first DFS
order from the root), *identical symbolic packets serialize identically*,
which is what the send-side :class:`SendDedupCache` exploits: payloads are
content-hashed, and a payload already shipped to a peer is charged only a
small digest-reference instead of the full node list.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Sequence, Tuple

from .engine import FALSE, TRUE, BddEngine

# (num_vars, root_slot, ((var, low_slot, high_slot), ...))
# Slots 0/1 are the terminals; internal nodes start at slot 2 in the order
# they appear in the triples tuple.
SerializedBdd = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]

_HEADER = struct.Struct("<II")
_TRIPLE = struct.Struct("<III")

# What a dedup-aware transport ships for an already-seen payload: a
# 16-byte content digest plus a 4-byte length/flags word.
DEDUP_REF_BYTES = 20


def serialize(engine: BddEngine, root: int) -> SerializedBdd:
    """Encode ``root`` as an engine-independent triple list."""
    slot_of = {FALSE: 0, TRUE: 1}
    triples: List[Tuple[int, int, int]] = []
    for node, var, low, high in engine.nodes_of(root):
        slot_of[node] = len(triples) + 2
        triples.append((var, slot_of[low], slot_of[high]))
    return engine.num_vars, slot_of.get(root, root), tuple(triples)


def deserialize(engine: BddEngine, payload: SerializedBdd) -> int:
    """Rebuild a serialized BDD inside ``engine``; returns the new root."""
    num_vars, root_slot, triples = payload
    if num_vars != engine.num_vars:
        raise ValueError(
            f"variable-count mismatch: payload {num_vars}, "
            f"engine {engine.num_vars}"
        )
    ids: List[int] = [FALSE, TRUE]
    for var, low_slot, high_slot in triples:
        ids.append(engine.mk(var, ids[low_slot], ids[high_slot]))
    return ids[root_slot]


def packed_size(payload: SerializedBdd) -> int:
    """Wire size in bytes under a dense fixed-width packing.

    Each triple packs into 12 bytes (var, low, high as uint32) plus an
    8-byte header — the figure the communication accounting charges for a
    cross-worker symbolic packet.
    """
    _num_vars, _root, triples = payload
    return 8 + 12 * len(triples)


def to_bytes(payload: SerializedBdd) -> bytes:
    """Actually pack the payload (content digests hash these bytes)."""
    num_vars, root, triples = payload
    parts = [_HEADER.pack(num_vars, root)]
    for var, low, high in triples:
        parts.append(_TRIPLE.pack(var, low, high))
    return b"".join(parts)


def from_bytes(data: bytes) -> SerializedBdd:
    """Inverse of :func:`to_bytes`, with full payload validation.

    Corrupt checkpoints and torn transport frames land here, so
    malformed input must surface as a clear :class:`ValueError` rather
    than an uncaught ``struct.error`` or a bogus BDD: the header must be
    complete, the body a whole number of 12-byte triples, the root slot in
    range, and every child slot must reference an earlier slot (the
    children-first invariant ``deserialize`` rebuilds from).
    """
    if len(data) < 8:
        raise ValueError(
            f"truncated BDD payload: {len(data)} bytes, need at least an "
            f"8-byte header"
        )
    body = len(data) - 8
    if body % 12:
        raise ValueError(
            f"torn BDD payload: {body} body bytes is not a whole number "
            f"of 12-byte node triples ({body % 12} trailing bytes)"
        )
    num_vars, root = _HEADER.unpack_from(data, 0)
    triples: List[Tuple[int, int, int]] = []
    offset = 8
    for slot in range(2, 2 + body // 12):
        var, low, high = _TRIPLE.unpack_from(data, offset)
        if low >= slot or high >= slot:
            raise ValueError(
                f"corrupt BDD payload: slot {slot} references child slot "
                f"{max(low, high)} (children must precede parents)"
            )
        triples.append((var, low, high))
        offset += 12
    if root >= 2 + len(triples):
        raise ValueError(
            f"corrupt BDD payload: root slot {root} out of range "
            f"(payload has {len(triples)} internal nodes)"
        )
    return num_vars, root, tuple(triples)


def content_digest(payload: SerializedBdd) -> bytes:
    """A 16-byte content hash of the canonical wire encoding."""
    return hashlib.blake2b(to_bytes(payload), digest_size=16).digest()


class SendDedupCache:
    """Content-hashed memory of payloads already shipped to one peer.

    The serialized form of a BDD is canonical, so the same symbolic
    packet re-crossing a worker boundary in a later round (or a later
    query of the same run) hashes to the same digest.  A dedup-aware
    transport then sends a :data:`DEDUP_REF_BYTES`-sized reference instead
    of the node list, and the communication accounting charges only that
    delta.

    Bounded the same way as the engine's op-cache: two generations with
    wholesale eviction of the older one — forgetting an entry merely
    forfeits a future dedup hit.
    """

    def __init__(self, max_entries: int = 1 << 14) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._current: Dict[bytes, int] = {}
        self._previous: Dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_saved = 0

    def __len__(self) -> int:
        return len(self._current) + len(self._previous)

    def offer(self, payload: SerializedBdd) -> Tuple[bool, int]:
        """Record a payload about to be sent.

        Returns ``(duplicate, wire_bytes)`` where ``wire_bytes`` is what
        the transport actually ships: the full :func:`packed_size` on
        first sight, :data:`DEDUP_REF_BYTES` on a repeat.
        """
        digest = content_digest(payload)
        size = self._current.get(digest)
        if size is None:
            size = self._previous.get(digest)
            if size is not None:
                self._current[digest] = size
        if size is not None:
            # A terminal payload packs smaller than a digest reference;
            # never charge more than simply resending it.
            wire = min(size, DEDUP_REF_BYTES)
            self.hits += 1
            self.bytes_saved += size - wire
            return True, wire
        self.misses += 1
        size = packed_size(payload)
        self._current[digest] = size
        if len(self._current) >= self.max_entries:
            self._previous = self._current
            self._current = {}
        return False, size


def transfer(
    source: BddEngine, root: int, destination: BddEngine
) -> Tuple[int, int]:
    """Serialize ``root`` out of ``source`` and rebuild it in
    ``destination``; returns ``(new_root, wire_bytes)``."""
    payload = serialize(source, root)
    return deserialize(destination, payload), packed_size(payload)
