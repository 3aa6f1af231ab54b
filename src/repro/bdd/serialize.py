"""Cross-engine BDD serialization (the JDD-BDDIO equivalent, §5.1).

When a symbolic packet crosses a worker boundary, its BDD must be encoded
on the sending worker's engine and re-encoded on the receiving worker's
engine (§4.3, option 2).  The wire format is a flat tuple of node triples
in children-first order plus the root index, so deserialization is a
single bottom-up pass of hash-consing ``mk`` calls — re-canonicalizing the
function in the destination engine regardless of how either table grew.

Because the format is canonical for a given function (children-first DFS
order from the root), *identical symbolic packets serialize identically*:
:func:`content_digest` of the same function is the same on every engine.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Tuple

from .engine import FALSE, TRUE, BddEngine

# (num_vars, root_slot, ((var, low_slot, high_slot), ...))
# Slots 0/1 are the terminals; internal nodes start at slot 2 in the order
# they appear in the triples tuple.
SerializedBdd = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]

_HEADER = struct.Struct("<II")
_TRIPLE = struct.Struct("<III")


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


def to_bytes(payload: SerializedBdd) -> bytes:
    """Pack the payload into bytes (content digests hash these bytes)."""
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
