"""Unit and property tests for IPv4 primitives."""

import os
import pickle
import struct
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import (
    AddressError,
    Prefix,
    _canonical,
    format_ip,
    mask_for,
    mask_to_length,
    parse_ip,
    summarize,
)

ips = st.integers(min_value=0, max_value=(1 << 32) - 1)
lengths = st.integers(min_value=0, max_value=32)
prefixes = st.builds(Prefix, ips, lengths)


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_ip("10.0.0.1") == (10 << 24) | 1

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == (1 << 32) - 1

    def test_format_basic(self):
        assert format_ip((192 << 24) | (168 << 16) | 5) == "192.168.0.5"

    @pytest.mark.parametrize(
        "bad", ["10.0.0", "10.0.0.0.0", "10.0.0.256", "a.b.c.d", "", "10..0.1"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ip(1 << 32)
        with pytest.raises(AddressError):
            format_ip(-1)

    @given(ips)
    def test_roundtrip(self, value):
        assert parse_ip(format_ip(value)) == value


class TestMasks:
    def test_mask_for_24(self):
        assert format_ip(mask_for(24)) == "255.255.255.0"

    def test_mask_for_0(self):
        assert mask_for(0) == 0

    def test_mask_for_32(self):
        assert mask_for(32) == (1 << 32) - 1

    def test_mask_to_length(self):
        assert mask_to_length(parse_ip("255.255.254.0")) == 23

    def test_non_contiguous_mask_rejected(self):
        with pytest.raises(AddressError):
            mask_to_length(parse_ip("255.0.255.0"))

    @given(lengths)
    def test_mask_roundtrip(self, length):
        assert mask_to_length(mask_for(length)) == length


class TestPrefix:
    def test_parse_slash(self):
        p = Prefix.parse("10.1.2.0/24")
        assert p.length == 24
        assert format_ip(p.network) == "10.1.2.0"

    def test_parse_bare_host(self):
        assert Prefix.parse("1.2.3.4").length == 32

    def test_host_bits_masked(self):
        # two spellings of the same prefix compare equal
        assert Prefix.parse("10.1.2.99/24") == Prefix.parse("10.1.2.0/24")

    def test_from_ip_mask(self):
        p = Prefix.from_ip_mask("172.16.4.0", "255.255.252.0")
        assert p == Prefix.parse("172.16.4.0/22")

    def test_str(self):
        assert str(Prefix.parse("10.0.0.0/8")) == "10.0.0.0/8"

    def test_invalid_length(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)

    def test_contains_ip(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains_ip(parse_ip("10.200.1.1"))
        assert not p.contains_ip(parse_ip("11.0.0.0"))

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.3.0.0/16")
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/9")
        b = Prefix.parse("10.0.0.0/8")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_supernet(self):
        assert Prefix.parse("10.1.2.0/24").supernet(16) == Prefix.parse(
            "10.1.0.0/16"
        )

    def test_supernet_rejects_longer(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/8").supernet(9)

    def test_subnets(self):
        subs = list(Prefix.parse("10.0.0.0/23").subnets(24))
        assert subs == [
            Prefix.parse("10.0.0.0/24"),
            Prefix.parse("10.0.1.0/24"),
        ]

    def test_subnets_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/24").subnets(23))

    def test_bits(self):
        assert Prefix.parse("192.0.0.0/3").bits() == (1, 1, 0)
        assert Prefix.parse("0.0.0.0/0").bits() == ()

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/30").num_addresses == 4

    def test_broadcast(self):
        assert (
            format_ip(Prefix.parse("10.0.0.0/24").broadcast) == "10.0.0.255"
        )

    def test_ordering_is_total(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert sorted([c, b, a]) == [a, b, c]

    @given(prefixes, prefixes)
    def test_contains_implies_overlap(self, a, b):
        if a.contains(b):
            assert a.overlaps(b)

    @given(prefixes, prefixes)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(prefixes)
    def test_parse_str_roundtrip(self, p):
        assert Prefix.parse(str(p)) == p

    @given(prefixes, st.integers(min_value=0, max_value=32))
    def test_supernet_contains(self, p, n):
        if n <= p.length:
            assert p.supernet(n).contains(p)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_bits_reconstruct_network(self, value):
        p = Prefix(value, 24)
        rebuilt = 0
        for bit in p.bits():
            rebuilt = (rebuilt << 1) | bit
        rebuilt <<= 32 - p.length
        assert rebuilt == p.network


class TestSummarize:
    def test_merges_siblings(self):
        merged = summarize(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")]
        )
        assert merged == [Prefix.parse("10.0.0.0/23")]

    def test_drops_covered(self):
        merged = summarize(
            [Prefix.parse("10.0.0.0/8"), Prefix.parse("10.5.0.0/16")]
        )
        assert merged == [Prefix.parse("10.0.0.0/8")]

    def test_keeps_disjoint(self):
        ps = [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.2.0/24")]
        assert summarize(ps) == sorted(ps)

    def test_empty(self):
        assert summarize([]) == []

    @given(st.lists(prefixes, max_size=12))
    def test_summary_covers_inputs(self, ps):
        merged = summarize(ps)
        for p in ps:
            assert any(m.contains(p) for m in merged)

    @given(st.lists(prefixes, max_size=12))
    def test_summary_is_minimal_form(self, ps):
        merged = summarize(ps)
        # no element covers another
        for i, a in enumerate(merged):
            for j, b in enumerate(merged):
                if i != j:
                    assert not a.contains(b)


# -- a prefix as a value: one hash, one canonical instance -----------------


def parent_prefix_ops(network: int, length: int, width: int = 32) -> bytes:
    """The pickle opcodes of a prefix as a frozen dataclass with no
    ``__reduce__`` pickles (how stores written before the canonical
    reduce hold them): the class, ``NEWOBJ``, then ``BUILD`` with the
    field dict, with no stored hash.  Spelled out opcode by opcode."""

    def key(name: str) -> bytes:
        return pickle.SHORT_BINUNICODE + bytes([len(name)]) + name.encode()

    def integer(value: int) -> bytes:
        return pickle.BININT + struct.pack("<i", value)

    return b"".join([
        pickle.GLOBAL, b"repro.net.ip\nPrefix\n",
        pickle.EMPTY_TUPLE, pickle.NEWOBJ,
        pickle.EMPTY_DICT, pickle.MARK,
        key("network"), integer(network),
        key("length"), integer(length),
        key("width"), integer(width),
        pickle.SETITEMS, pickle.BUILD,
    ])


def parent_format(network: int, length: int, width: int = 32) -> bytes:
    return (
        pickle.PROTO + b"\x04"
        + parent_prefix_ops(network, length, width)
        + pickle.STOP
    )


def raw_prefix(network: int, length: int, width: int = 32):
    """An object that pickles as a current-format prefix with raw,
    unchecked fields (what a damaged or hostile file can hold)."""

    class Raw:
        def __reduce__(self):
            return _canonical, (network, length, width)

    return Raw()


SAMPLES = ["10.1.2.0/24", "0.0.0.0/0", "192.168.0.1/32", "2001:db8::/48"]


class TestPickle:
    @given(prefixes)
    def test_hash_is_the_field_tuple_hash(self, p):
        assert hash(p) == hash((p.network, p.length, p.width))

    @given(prefixes)
    def test_unpickled_prefixes_are_one_instance(self, p):
        twin = Prefix(p.network, p.length, p.width)
        assert twin is not p
        first = pickle.loads(pickle.dumps(p))
        assert first == p and hash(first) == hash(p)
        assert pickle.loads(pickle.dumps(twin)) is first
        assert pickle.loads(pickle.dumps(first)) is first

    @given(prefixes)
    def test_pickled_bytes_do_not_depend_on_use(self, p):
        untouched = pickle.dumps(Prefix(p.network, p.length, p.width))
        hash(p)
        assert p == Prefix(p.network, p.length, p.width)
        assert not p < p
        assert pickle.dumps(p) == untouched

    def test_another_hash_seed_unpickles_to_the_local_instance(self):
        """Pickled in a process with another ``PYTHONHASHSEED``, a prefix
        loads as this process's canonical instance, hashing the same."""
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        script = (
            "import pickle, sys\n"
            "from repro.net.ip import Prefix\n"
            "ps = [Prefix.parse(t) for t in sys.argv[1:]]\n"
            "sys.stdout.buffer.write("
            "pickle.dumps((ps, [hash(p) for p in ps], hash('seed'))))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script, *SAMPLES],
            env=env, capture_output=True, check=True, timeout=60,
        ).stdout
        remote, remote_hashes, remote_str_hash = pickle.loads(out)
        assert remote_str_hash != hash("seed")  # really another seed
        for text, got, remote_hash in zip(SAMPLES, remote, remote_hashes):
            local = pickle.loads(pickle.dumps(Prefix.parse(text)))
            assert got is local
            assert hash(got) == remote_hash == hash(Prefix.parse(text))

    def test_unpickling_validates(self):
        assert pickle.loads(pickle.dumps(raw_prefix(0, 8))) == Prefix(0, 8)
        with pytest.raises(AddressError):
            pickle.loads(pickle.dumps(raw_prefix(0, 40)))

    def test_parent_format_loads_and_hashes(self):
        loaded = pickle.loads(parent_format((10 << 24) | (1 << 16), 16))
        assert loaded == Prefix.parse("10.1.0.0/16")
        assert hash(loaded) == hash(Prefix.parse("10.1.0.0/16"))
        assert {loaded: 1}[Prefix.parse("10.1.0.0/16")] == 1
        assert pickle.dumps(loaded) == pickle.dumps(Prefix.parse("10.1.0.0/16"))

    def test_parent_format_is_validated(self):
        with pytest.raises(AddressError):
            pickle.loads(parent_format(0, 40))
        unmasked = pickle.loads(parent_format((10 << 24) | 5, 8))
        assert unmasked == Prefix.parse("10.0.0.0/8")
