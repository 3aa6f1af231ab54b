"""Tests for FIB construction and longest-prefix-match lookup."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.fib import (
    Fib,
    FibAction,
    FibEntry,
    NextHop,
    NextHopResolver,
    build_fib,
)
from repro.net.ip import Prefix
from repro.routing.engine import SimulationEngine
from repro.routing.route import BgpRoute, Protocol, Route


def entry(prefix_text, action=FibAction.FORWARD, hops=("eth0",)):
    return FibEntry(
        prefix=Prefix.parse(prefix_text),
        action=action,
        next_hops=tuple(NextHop(iface=h, node=f"via-{h}") for h in hops)
        if action is FibAction.FORWARD
        else (),
    )


class TestTrie:
    def test_lookup_longest_match(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8", hops=("a",)))
        fib.add(entry("10.1.0.0/16", hops=("b",)))
        fib.add(entry("10.1.2.0/24", hops=("c",)))
        assert fib.lookup(Prefix.parse("10.1.2.3").network).next_hops[0].iface == "c"
        assert fib.lookup(Prefix.parse("10.1.9.9").network).next_hops[0].iface == "b"
        assert fib.lookup(Prefix.parse("10.9.9.9").network).next_hops[0].iface == "a"

    def test_lookup_miss(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8"))
        assert fib.lookup(Prefix.parse("11.0.0.0").network) is None

    def test_default_route_matches_everything(self):
        fib = Fib("r")
        fib.add(entry("0.0.0.0/0", hops=("d",)))
        assert fib.lookup(0).next_hops[0].iface == "d"
        assert fib.lookup((1 << 32) - 1).next_hops[0].iface == "d"

    def test_replacement(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8", hops=("a",)))
        fib.add(entry("10.0.0.0/8", hops=("b",)))
        assert len(fib) == 1
        assert fib.lookup(Prefix.parse("10.0.0.1").network).next_hops[0].iface == "b"

    def test_remove_prunes_the_branch_and_keeps_the_rest(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8", hops=("a",)))
        fib.add(entry("10.1.2.0/24", hops=("c",)))
        fib.remove(Prefix.parse("10.1.2.0/24"))
        fib.remove(Prefix.parse("10.9.0.0/16"))  # absent: a no-op
        assert [e.prefix for e in fib.entries()] == [Prefix.parse("10.0.0.0/8")]
        assert fib.lookup(Prefix.parse("10.1.2.3").network).next_hops[0].iface == "a"
        # The /8 node is a leaf again: the /24's branch is gone.
        node = fib.trie_root()
        for bit in Prefix.parse("10.0.0.0/8").bits():
            node = node.children[bit]
        assert node.children == [None, None]
        fib.remove(Prefix.parse("10.0.0.0/8"))
        assert len(fib) == 0 and fib.trie_root().children == [None, None]

    def test_entries_sorted_most_specific_first(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8"))
        fib.add(entry("10.1.2.0/24"))
        fib.add(entry("10.1.0.0/16"))
        lengths = [e.prefix.length for e in fib.entries()]
        assert lengths == [24, 16, 8]

    def test_entry_for(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8"))
        assert fib.entry_for(Prefix.parse("10.0.0.0/8")) is not None
        assert fib.entry_for(Prefix.parse("10.0.0.0/9")) is None

    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1), st.integers(0, 32)
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, (1 << 32) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookup_matches_bruteforce(self, raw_prefixes, probe):
        fib = Fib("r")
        prefixes = [Prefix(n, l) for n, l in raw_prefixes]
        for i, prefix in enumerate(prefixes):
            fib.add(
                FibEntry(
                    prefix=prefix,
                    action=FibAction.FORWARD,
                    next_hops=(NextHop(iface=f"e{i}", node="x"),),
                )
            )
        got = fib.lookup(probe)
        matching = [p for p in set(prefixes) if p.contains_ip(probe)]
        if not matching:
            assert got is None
        else:
            best = max(matching, key=lambda p: p.length)
            assert got.prefix == best


def _shape(node):
    """A trie as nested tuples: (entry, child 0, child 1)."""
    if node is None:
        return None
    return (node.entry, _shape(node.children[0]), _shape(node.children[1]))


#: A small prefix universe (a few top bits of each family), so adds
#: replace, removes hit and branches get pruned.
FIB_PREFIXES = [
    Prefix(network << (32 - length), length)
    for length in range(0, 4)
    for network in range(1 << length)
] + [Prefix.parse(text) for text in ("::/0", "2001:db8::/32", "8000::/1")]
fib_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(FIB_PREFIXES),
            st.sampled_from(list(FibAction)),
        ),
        st.tuples(st.just("remove"), st.sampled_from(FIB_PREFIXES)),
        st.tuples(st.just("use"), st.sampled_from(["lookup", "trie_root"])),
    ),
    max_size=30,
)


def _probes():
    probes = [(0, 32), ((1 << 32) - 1, 32), (0, 128), (1 << 127, 128)]
    for prefix in FIB_PREFIXES:
        probes.append((prefix.network, prefix.width))
        probes.append((prefix.broadcast, prefix.width))
    return probes


class TestLazyTries:
    @given(fib_ops)
    @settings(max_examples=200, deadline=None)
    def test_lazy_tries_equal_an_eager_reference(self, ops):
        """The tries are built on the first ``lookup`` or ``trie_root``
        and kept in step from then on: after any interleaving of adds
        and removes, before and after that first use, ``lookup``,
        ``trie_root`` and ``entries()`` equal those of a FIB whose tries
        existed from the start."""
        lazy, eager = Fib("r"), Fib("r")
        eager.trie_root()  # tries from the start: every add walks them
        used = False
        for op in ops:
            if op[0] == "add":
                _, prefix, action = op
                for fib in (lazy, eager):
                    fib.add(FibEntry(prefix=prefix, action=action))
            elif op[0] == "remove":
                for fib in (lazy, eager):
                    fib.remove(op[1])
            elif op[1] == "lookup":
                for address, width in _probes():
                    got = lazy.lookup(address, width)
                    assert got == eager.lookup(address, width)
                used = True
            else:
                for width in (32, 128):
                    got = _shape(lazy.trie_root(width))
                    assert got == _shape(eager.trie_root(width))
                used = True
            assert (lazy._roots is not None) == used
            assert lazy.entries() == eager.entries()
            assert len(lazy) == len(eager)
        for width in (32, 128):
            assert _shape(lazy.trie_root(width)) == _shape(
                eager.trie_root(width)
            )
        for address, width in _probes():
            assert lazy.lookup(address, width) == eager.lookup(address, width)

    def test_a_closure_read_builds_no_trie(self):
        fib = Fib("r")
        fib.add(entry("10.0.0.0/8"))
        fib.remove(Prefix.parse("10.0.0.0/8"))
        fib.add(entry("10.1.0.0/16"))
        assert fib.entry_for(Prefix.parse("10.1.0.0/16")) is not None
        assert list(fib.prefixes()) == [Prefix.parse("10.1.0.0/16")]
        assert fib._roots is None


class TestBuildFib:
    @pytest.fixture(scope="class")
    def env(self, fattree4_sim, fattree4):
        engine, routes = fattree4_sim
        resolver = NextHopResolver.from_snapshot(fattree4)
        return engine, routes, resolver

    def test_local_prefix_receives(self, env):
        engine, routes, resolver = env
        node = engine.nodes["edge-0-0"]
        fib = build_fib("edge-0-0", node.local_prefixes, [], routes["edge-0-0"], resolver)
        own = next(iter(node.local_prefixes))
        assert fib.entry_for(own).action is FibAction.RECEIVE

    def test_bgp_ecmp_installs_multiple_hops(self, env):
        engine, routes, resolver = env
        node = engine.nodes["edge-0-0"]
        fib = build_fib("edge-0-0", node.local_prefixes, [], routes["edge-0-0"], resolver)
        remote = Prefix.parse("10.1.1.0/24")
        fib_entry = fib.entry_for(remote)
        assert fib_entry.action is FibAction.FORWARD
        assert len(fib_entry.next_hops) == 2
        assert {h.node for h in fib_entry.next_hops} == {"agg-0-0", "agg-0-1"}

    def test_connected_beats_bgp(self, env):
        engine, routes, resolver = env
        prefix = Prefix.parse("10.5.0.0/24")
        connected = Route(
            prefix=prefix, protocol=Protocol.CONNECTED, admin_distance=0
        )
        bgp = {
            prefix: (
                BgpRoute(prefix=prefix, next_hop=1, from_node="x"),
            )
        }
        fib = build_fib("edge-0-0", frozenset(), [connected], bgp, resolver)
        assert fib.entry_for(prefix).action is FibAction.RECEIVE

    def test_static_beats_bgp(self, env):
        engine, routes, resolver = env
        prefix = Prefix.parse("10.5.0.0/24")
        static = Route(
            prefix=prefix,
            protocol=Protocol.STATIC,
            admin_distance=1,
            discard=True,
        )
        node = engine.nodes["edge-0-0"]
        session_peer = node.sessions[0].peer_ip
        bgp = {
            prefix: (
                BgpRoute(prefix=prefix, next_hop=session_peer, from_node="agg-0-0"),
            )
        }
        fib = build_fib("edge-0-0", frozenset(), [static], bgp, resolver)
        assert fib.entry_for(prefix).action is FibAction.DROP

    def test_discard_static_becomes_drop(self, env):
        _, _, resolver = env
        prefix = Prefix.parse("192.168.0.0/16")
        static = Route(
            prefix=prefix, protocol=Protocol.STATIC, discard=True,
            admin_distance=1,
        )
        fib = build_fib("edge-0-0", frozenset(), [static], {}, resolver)
        assert fib.entry_for(prefix).action is FibAction.DROP

    def test_unresolvable_next_hop_becomes_drop(self, env):
        _, _, resolver = env
        prefix = Prefix.parse("10.5.0.0/24")
        bgp = {
            prefix: (
                BgpRoute(prefix=prefix, next_hop=12345, from_node="nowhere"),
            )
        }
        fib = build_fib("edge-0-0", frozenset(), [], bgp, resolver)
        assert fib.entry_for(prefix).action is FibAction.DROP

    def test_resolver_maps_addresses(self, env, fattree4):
        _, _, resolver = env
        link = next(iter(fattree4.topology.links()))
        a_addr = fattree4.topology.interface_address(link.a)
        hop = resolver.resolve(link.b.node, a_addr)
        assert hop is not None
        assert hop.node == link.a.node
        assert hop.iface == link.b.interface

    def test_resolver_unknown_address(self, env):
        _, _, resolver = env
        assert resolver.resolve("edge-0-0", 999) is None
