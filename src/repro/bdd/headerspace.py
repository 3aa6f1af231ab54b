"""Packet-header encoding over BDD variables (§4.3).

A header is a bit vector: the 5-tuple fields (up to 104 bits) followed by
``m`` metadata bits used by path-sensitive checks such as waypointing.
Which 5-tuple fields are actually encoded is configurable — the queries in
the paper's evaluation constrain only the destination address, and leaving
the unconstrained 72 bits out of the encoding shrinks every BDD without
changing any verdict.  Enabling all fields yields exactly the paper's
``104 + m`` layout.

Variable order: dst, src, proto, sport, dport (each MSB-first), then
metadata bits last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.ast import Acl, AclLine, Action
from ..net.ip import Prefix
from .engine import FALSE, TRUE, BddEngine

FIELD_WIDTHS = {
    "dst": 32,
    "src": 32,
    "proto": 8,
    "sport": 16,
    "dport": 16,
}
ALL_FIELDS: Tuple[str, ...] = ("dst", "src", "proto", "sport", "dport")


@dataclass(frozen=True)
class HeaderEncoding:
    """Assignment of header fields and metadata bits to BDD variables.

    ``address_bits`` selects the address family of the dst/src fields:
    32 (IPv4, the default and the paper's scope) or 128 (IPv6 — this
    reproduction's implementation of the paper's future work; a verifier
    runs one pass per family, each with its own encoding).
    """

    fields: Tuple[str, ...] = ("dst",)
    metadata_bits: int = 0
    address_bits: int = 32

    def __post_init__(self) -> None:
        for name in self.fields:
            if name not in FIELD_WIDTHS:
                raise ValueError(f"unknown header field {name!r}")
        if "dst" not in self.fields:
            raise ValueError("the dst field is mandatory")
        if self.address_bits not in (32, 128):
            raise ValueError("address_bits must be 32 or 128")

    def width_of(self, name: str) -> int:
        if name in ("dst", "src"):
            return self.address_bits
        return FIELD_WIDTHS[name]

    @property
    def header_bits(self) -> int:
        return sum(self.width_of(name) for name in self.fields)

    @property
    def num_vars(self) -> int:
        return self.header_bits + self.metadata_bits

    def field_base(self, name: str) -> int:
        """First variable index of field ``name``."""
        base = 0
        for candidate in self.fields:
            if candidate == name:
                return base
            base += self.width_of(candidate)
        raise KeyError(f"field {name!r} not encoded")

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def metadata_var(self, index: int) -> int:
        if not 0 <= index < self.metadata_bits:
            raise IndexError(f"metadata bit {index} out of range")
        return self.header_bits + index

    def make_engine(self, node_limit: int = 1 << 24) -> BddEngine:
        """A fresh private BDD engine over this encoding's variables."""
        return BddEngine(self.num_vars, node_limit=node_limit)

    # -- field constraints ----------------------------------------------------

    def prefix_bdd(
        self, engine: BddEngine, prefix: Prefix, fld: str = "dst"
    ) -> int:
        """The packets whose ``fld`` address lies in ``prefix``."""
        if prefix.width != self.address_bits:
            raise ValueError(
                f"{prefix} is a {prefix.width}-bit prefix but this "
                f"encoding's addresses are {self.address_bits}-bit"
            )
        base = self.field_base(fld)
        assignments = {
            base + i: bool(bit) for i, bit in enumerate(prefix.bits())
        }
        return engine.cube(assignments)

    def prefix_set_bdd(
        self,
        engine: BddEngine,
        prefixes: Sequence[Prefix],
        fld: str = "dst",
    ) -> int:
        """The union of a whole prefix *set* in one bulk compilation.

        Equivalent to folding :meth:`prefix_bdd` results with ``or_`` but
        built from a binary trie of the prefixes in a single bottom-up
        pass of hash-consing ``mk`` calls — zero apply operations, and
        subsumed prefixes (covered by a shorter one in the set) collapse
        for free.  This is the bulk path FIB/predicate compilation and
        query header sets use.
        """
        width = self.address_bits
        for prefix in prefixes:
            if prefix.width != width:
                raise ValueError(
                    f"{prefix} is a {prefix.width}-bit prefix but this "
                    f"encoding's addresses are {width}-bit"
                )
        # Trie node: [low_child, high_child, covered]; ``covered`` marks a
        # prefix ending here (its whole subtree is in the set).
        root = [None, None, False]
        for prefix in prefixes:
            node = root
            for bit in prefix.bits():
                if node[2]:
                    break  # already covered by a shorter prefix
                if node[bit] is None:
                    node[bit] = [None, None, False]
                node = node[bit]
            else:
                node[2] = True
                node[0] = node[1] = None  # subsume anything longer
        base = self.field_base(fld)

        def build(node, depth: int) -> int:
            if node is None:
                return FALSE
            if node[2]:
                return TRUE
            return engine.mk(
                base + depth,
                build(node[0], depth + 1),
                build(node[1], depth + 1),
            )

        return build(root, 0)

    def value_bdd(self, engine: BddEngine, fld: str, value: int) -> int:
        """The packets whose ``fld`` equals ``value`` exactly."""
        base = self.field_base(fld)
        width = self.width_of(fld)
        assignments = {
            base + i: bool((value >> (width - 1 - i)) & 1)
            for i in range(width)
        }
        return engine.cube(assignments)

    def range_bdd(
        self, engine: BddEngine, fld: str, low: int, high: int
    ) -> int:
        """The packets with ``low <= fld <= high`` (inclusive).

        Out-of-domain bounds are clamped to ``[0, 2**width - 1]`` before
        the aligned-block walk: a negative ``low`` would otherwise feed
        Python's floor-mod into the block alignment and emit wrong cubes.
        """
        width = self.width_of(fld)
        if low > high:
            return FALSE
        if low <= 0 and high >= (1 << width) - 1:
            return TRUE
        low = max(low, 0)
        high = min(high, (1 << width) - 1)
        base = self.field_base(fld)
        result = FALSE
        # Cover [low, high] with maximal power-of-two aligned blocks, each
        # of which is a cube over the leading bits.
        position = low
        while position <= high:
            block = 1
            while (
                position % (block * 2) == 0
                and position + block * 2 - 1 <= high
            ):
                block *= 2
            fixed_bits = width - block.bit_length() + 1
            assignments = {
                base + i: bool((position >> (width - 1 - i)) & 1)
                for i in range(fixed_bits)
            }
            result = engine.or_(result, engine.cube(assignments))
            position += block
        return result

    # -- ACL compilation ----------------------------------------------------------

    def acl_line_bdd(self, engine: BddEngine, line: AclLine) -> int:
        """The packet set matched by one ACL line.

        Constraints on fields that are not part of the encoding are
        treated as wildcard (documented in DESIGN.md): the verdict is then
        conservative for the encoded fields.
        """
        result = TRUE
        if line.dst is not None:
            if line.dst.width != self.address_bits:
                return FALSE  # other-family line: matches no packet here
            result = engine.and_(
                result, self.prefix_bdd(engine, line.dst, "dst")
            )
        if line.src is not None and self.has_field("src"):
            if line.src.width != self.address_bits:
                return FALSE
            result = engine.and_(
                result, self.prefix_bdd(engine, line.src, "src")
            )
        if line.protocol is not None and self.has_field("proto"):
            result = engine.and_(
                result, self.value_bdd(engine, "proto", line.protocol)
            )
        if line.src_port is not None and self.has_field("sport"):
            low, high = line.src_port
            result = engine.and_(
                result, self.range_bdd(engine, "sport", low, high)
            )
        if line.dst_port is not None and self.has_field("dport"):
            low, high = line.dst_port
            result = engine.and_(
                result, self.range_bdd(engine, "dport", low, high)
            )
        return result

    def acl_bdd(self, engine: BddEngine, acl: Acl) -> int:
        """The packets an ACL permits, under first-match semantics with an
        implicit trailing deny."""
        permitted = FALSE
        covered = FALSE
        for line in acl.sorted_lines():
            matched = self.acl_line_bdd(engine, line)
            fresh = engine.diff(matched, covered)
            if line.action is Action.PERMIT:
                permitted = engine.or_(permitted, fresh)
            covered = engine.or_(covered, matched)
        return permitted

    # -- diagnostics ----------------------------------------------------------------

    def describe_assignment(self, assignment: Dict[int, bool]) -> str:
        """Human-readable rendering of :meth:`BddEngine.any_sat` output."""
        parts: List[str] = []
        for name in self.fields:
            base = self.field_base(name)
            width = self.width_of(name)
            value = 0
            known = False
            for i in range(width):
                bit = assignment.get(base + i)
                if bit:
                    value |= 1 << (width - 1 - i)
                if bit is not None:
                    known = True
            if known:
                if name in ("dst", "src"):
                    from ..net.ip import format_address

                    parts.append(
                        f"{name}={format_address(value, self.address_bits)}"
                    )
                else:
                    parts.append(f"{name}={value}")
        for i in range(self.metadata_bits):
            bit = assignment.get(self.metadata_var(i))
            if bit is not None:
                parts.append(f"meta[{i}]={int(bit)}")
        return " ".join(parts) if parts else "any"
