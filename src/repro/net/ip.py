"""IP address and prefix primitives (IPv4 and IPv6).

Everything in the verifier speaks addresses as plain integers wrapped in a
small immutable :class:`Prefix` value carrying its family width (32 or 128
bits).  We avoid the standard-library ``ipaddress`` objects on the hot
paths; ``ipaddress`` is used only to parse/format IPv6 text.

Prefixes key every RIB, shard, boundary batch and FIB, so a prefix is
built to be cheap as a key: its hash is computed once, at construction,
and a prefix that arrives by pickle (an RPC frame, a shard assignment, a
store file) is the process's one canonical instance of its value, so
equal prefixes from different sources are one object and dict and set
lookups stop at the identity check.

IPv6 is this reproduction's implementation of the paper's first-listed
future-work item — the paper's S2 supports IPv4 only (§7).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

MAX_IPV4 = (1 << 32) - 1
MAX_IPV6 = (1 << 128) - 1
V4 = 32
V6 = 128


class AddressError(ValueError):
    """Raised when an IPv4 address or prefix string is malformed."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted quad.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"not a 32-bit value: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv6(text: str) -> int:
    """Parse IPv6 text into a 128-bit integer."""
    try:
        return int(ipaddress.IPv6Address(text.strip()))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise AddressError(f"not an IPv6 address: {text!r}") from exc


def format_ipv6(value: int) -> str:
    """Format a 128-bit integer in canonical compressed IPv6 notation."""
    if not 0 <= value <= MAX_IPV6:
        raise AddressError(f"not a 128-bit value: {value}")
    return str(ipaddress.IPv6Address(value))


def format_address(value: int, width: int = V4) -> str:
    """Format an address of either family."""
    return format_ip(value) if width == V4 else format_ipv6(value)


def mask_for(length: int, width: int = V4) -> int:
    """Return the network mask for a prefix ``length`` as an integer."""
    if not 0 <= length <= width:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    full = (1 << width) - 1
    return (full << (width - length)) & full


def mask_to_length(mask: int) -> int:
    """Convert a contiguous netmask integer to a prefix length.

    >>> mask_to_length(parse_ip("255.255.255.0"))
    24
    """
    length = bin(mask & MAX_IPV4).count("1")
    if mask_for(length) != mask:
        raise AddressError(f"non-contiguous mask: {format_ip(mask)}")
    return length


@dataclass(frozen=True, order=True)
class Prefix:
    """An IP prefix: a network address, a length, and a family width.

    ``width`` is 32 (IPv4, the default) or 128 (IPv6).  The network
    address is always stored masked, so two textual spellings of the same
    prefix compare equal.  Instances are immutable and totally ordered
    (by network, length, then family), which lets RIBs keep them in
    sorted containers and lets tests compare route tables directly.

    The hash is ``hash((network, length, width))``, computed once by the
    constructor.  It hashes ints only, so it is the same in every process
    under any ``PYTHONHASHSEED``, and set and dict iteration orders over
    prefixes repeat across runs and workers.

    A prefix pickles as its three fields and unpickles through
    :func:`_canonical`, which validates them with the constructor and
    returns the process's one instance of that value.  The pickled bytes
    therefore never depend on what was done to a prefix before (hashed,
    compared, copied).
    """

    network: int
    length: int
    width: int = V4

    def __post_init__(self) -> None:
        if self.width not in (V4, V6):
            raise AddressError(f"unsupported address width: {self.width}")
        if not 0 <= self.length <= self.width:
            raise AddressError(f"prefix length out of range: {self.length}")
        masked = self.network & mask_for(self.length, self.width)
        if masked != self.network:
            object.__setattr__(self, "network", masked)
        object.__setattr__(
            self, "_hash", hash((masked, self.length, self.width))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return _canonical, (self.network, self.length, self.width)

    def __setstate__(self, state) -> None:
        """Load a prefix pickled before :meth:`__reduce__` existed (its
        state the field dict): validate it as the constructor does.  A
        state that is not such a dict raises :class:`AddressError`."""
        try:
            for name in ("network", "length", "width"):
                object.__setattr__(self, name, state[name])
        except (KeyError, TypeError) as exc:
            raise AddressError(f"not a prefix state: {state!r}") from exc
        self.__post_init__()

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/24"`` / ``"2001:db8::/48"`` (or a bare host
        address of either family) into a prefix."""
        text = text.strip()
        if "/" in text:
            addr_text, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise AddressError(f"bad prefix length in {text!r}")
            if ":" in addr_text:
                return cls(parse_ipv6(addr_text), int(length_text), V6)
            return cls(parse_ip(addr_text), int(length_text))
        if ":" in text:
            return cls(parse_ipv6(text), V6, V6)
        return cls(parse_ip(text), V4)

    @classmethod
    def parse_v6(cls, text: str) -> "Prefix":
        """Parse IPv6 prefix text (rejects IPv4)."""
        prefix = cls.parse(text)
        if prefix.width != V6:
            raise AddressError(f"not an IPv6 prefix: {text!r}")
        return prefix

    @classmethod
    def from_ip_mask(cls, addr: str, mask: str) -> "Prefix":
        """Build a prefix from Cisco-style ``address mask`` notation."""
        return cls(parse_ip(addr), mask_to_length(parse_ip(mask)))

    @classmethod
    def host(cls, value: int, width: int = V4) -> "Prefix":
        """A host prefix (/32 or /128) for a single address."""
        return cls(value, width, width)

    @property
    def is_ipv6(self) -> bool:
        return self.width == V6

    @property
    def mask(self) -> int:
        return mask_for(self.length, self.width)

    @property
    def broadcast(self) -> int:
        """The highest address covered by this prefix."""
        full = (1 << self.width) - 1
        return self.network | (full ^ self.mask)

    @property
    def num_addresses(self) -> int:
        return 1 << (self.width - self.length)

    def contains_ip(self, value: int) -> bool:
        """True when the address ``value`` falls inside this prefix."""
        return (value & self.mask) == self.network

    def contains(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or more specific than ``self``.

        Prefixes of different families never contain each other.
        """
        return (
            self.width == other.width
            and self.length <= other.length
            and self.contains_ip(other.network)
        )

    def overlaps(self, other: "Prefix") -> bool:
        """True when the address sets of the two prefixes intersect."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: int) -> "Prefix":
        """The covering prefix of ``new_length`` bits (must not be longer)."""
        if new_length > self.length:
            raise AddressError(
                f"supernet length {new_length} longer than /{self.length}"
            )
        return Prefix(
            self.network & mask_for(new_length, self.width),
            new_length,
            self.width,
        )

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subdivision of this prefix into /``new_length`` pieces."""
        if new_length < self.length:
            raise AddressError(
                f"subnet length {new_length} shorter than /{self.length}"
            )
        step = 1 << (self.width - new_length)
        for network in range(self.network, self.broadcast + 1, step):
            yield Prefix(network, new_length, self.width)

    def bits(self) -> Tuple[int, ...]:
        """The first ``length`` bits of the network address, MSB first.

        This is the key used by the LPM trie and the BDD encoder.
        """
        top = self.width - 1
        return tuple(
            (self.network >> (top - i)) & 1 for i in range(self.length)
        )

    def __str__(self) -> str:
        return f"{format_address(self.network, self.width)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


#: The canonical instance of every prefix value this process unpickled.
#: It only grows, and holds the prefixes of the networks the process
#: verified.
_CANONICAL: Dict[Tuple[int, int, int], Prefix] = {}


def _canonical(network: int, length: int, width: int) -> Prefix:
    """The unpickling constructor of :class:`Prefix`: this process's one
    instance of the value, built (and so validated) on first sight."""
    key = (network, length, width)
    prefix = _CANONICAL.get(key)
    if prefix is None:
        prefix = _CANONICAL.setdefault(key, Prefix(network, length, width))
    return prefix


def summarize(prefixes: List[Prefix]) -> List[Prefix]:
    """Collapse a list of prefixes into a minimal covering list.

    Removes prefixes already covered by another entry and merges adjacent
    sibling prefixes bottom-up.  Used by route aggregation when deciding
    which contributors an aggregate suppresses.
    """
    work = sorted(set(prefixes))
    # Drop entries covered by an earlier (shorter or equal) prefix.
    kept: List[Prefix] = []
    for prefix in work:
        if not any(other.contains(prefix) for other in kept):
            kept.append(prefix)
    # Merge sibling pairs until a fixed point.
    merged = True
    while merged:
        merged = False
        kept.sort()
        result: List[Prefix] = []
        i = 0
        while i < len(kept):
            current = kept[i]
            if (
                i + 1 < len(kept)
                and current.width == kept[i + 1].width
                and current.length == kept[i + 1].length
                and current.length > 0
                and current.supernet(current.length - 1)
                == kept[i + 1].supernet(current.length - 1)
            ):
                result.append(current.supernet(current.length - 1))
                merged = True
                i += 2
            else:
                result.append(current)
                i += 1
        kept = result
    return kept
