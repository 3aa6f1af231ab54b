"""Tests for IPv6 support (the paper's §7 future work, implemented).

Covers the family-aware prefix type, parsing in both dialects, dual-stack
control-plane simulation, per-family FIBs, and the two-pass (per-family)
data-plane verification — distributed included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderEncoding
from repro.dataplane.fib import Fib, FibAction, FibEntry, NextHop
from repro.dataplane.queries import Query
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Controller, S2Options
from repro.dist.sharding import make_shards, validate_shards
from repro.net.dcn import build_dcn, cluster_vlan6_aggregate, vlan6_prefix
from repro.net.ip import AddressError, Prefix, format_ipv6, parse_ipv6
from repro.routing.engine import SimulationEngine, collect_network_prefixes

v6_ints = st.integers(min_value=0, max_value=(1 << 128) - 1)
v6_lengths = st.integers(min_value=0, max_value=128)


@pytest.fixture(scope="module")
def dcn6():
    return build_dcn(scale=1, ipv6=True)


@pytest.fixture(scope="module")
def dcn6_sim(dcn6):
    engine = SimulationEngine(dcn6)
    routes = engine.run()
    return engine, routes


class TestPrefixV6:
    def test_parse_and_format(self):
        p = Prefix.parse("2001:db8::/48")
        assert p.is_ipv6 and p.width == 128 and p.length == 48
        assert str(p) == "2001:db8::/48"

    def test_bare_host(self):
        p = Prefix.parse("2001:db8::1")
        assert p.length == 128

    def test_host_bits_masked(self):
        assert Prefix.parse("2001:db8::ffff/64") == Prefix.parse(
            "2001:db8::/64"
        )

    def test_parse_v6_rejects_v4(self):
        with pytest.raises(AddressError):
            Prefix.parse_v6("10.0.0.0/8")

    def test_invalid_text(self):
        with pytest.raises(AddressError):
            parse_ipv6("zzzz::1::")

    def test_families_never_contain_each_other(self):
        v4 = Prefix.parse("0.0.0.0/0")
        v6 = Prefix.parse("::/0")
        assert not v4.contains(v6)
        assert not v6.contains(v4)
        assert not v4.overlaps(v6)

    def test_containment_within_v6(self):
        outer = Prefix.parse("2001:db8::/32")
        inner = Prefix.parse("2001:db8:3:4::/64")
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_bits_width(self):
        p = Prefix.parse("8000::/1")
        assert p.bits() == (1,)
        assert Prefix.parse("::/0").bits() == ()

    def test_supernet_subnets(self):
        p = Prefix.parse("2001:db8:3::/48")
        assert p.supernet(32) == Prefix.parse("2001:db8::/32")
        subs = list(Prefix.parse("2001:db8::/47").subnets(48))
        assert len(subs) == 2 and all(s.width == 128 for s in subs)

    def test_distinct_from_same_int_v4(self):
        # same (network, length) in different families are different keys
        v4 = Prefix(0, 0)
        v6 = Prefix(0, 0, 128)
        assert v4 != v6
        assert len({v4, v6}) == 2

    @given(v6_ints)
    @settings(max_examples=50, deadline=None)
    def test_text_roundtrip(self, value):
        assert parse_ipv6(format_ipv6(value)) == value

    @given(v6_ints, v6_lengths)
    @settings(max_examples=50, deadline=None)
    def test_str_parse_roundtrip(self, network, length):
        p = Prefix(network, length, 128)
        assert Prefix.parse(str(p)) == p

    @given(v6_ints, v6_lengths)
    @settings(max_examples=50, deadline=None)
    def test_contains_own_network(self, network, length):
        p = Prefix(network, length, 128)
        assert p.contains_ip(p.network)
        assert p.contains_ip(p.broadcast)


class TestParsersV6:
    def test_cisco_v6_network_and_aggregate(self):
        from repro.config import parse_cisco

        cfg = parse_cisco(
            "hostname r\n"
            "router bgp 65001\n"
            " neighbor 10.0.0.1 remote-as 65002\n"
            " network 2001:db8:1:2::/64\n"
            " aggregate-address 2001:db8:1::/48 summary-only\n"
        )
        assert Prefix.parse("2001:db8:1:2::/64") in cfg.bgp.networks
        agg = cfg.bgp.aggregates[0]
        assert agg.prefix == Prefix.parse("2001:db8:1::/48")
        assert agg.summary_only

    def test_juniper_v6_network(self):
        from repro.config import parse_juniper

        cfg = parse_juniper(
            "system { host-name r; }\n"
            "routing-options { autonomous-system 65001; }\n"
            "protocols { bgp { network 2001:db8::/32; } }\n"
        )
        assert cfg.bgp.networks == [Prefix.parse("2001:db8::/32")]


class TestDualStackControlPlane:
    def test_v6_prefixes_collected(self, dcn6):
        prefixes = collect_network_prefixes(dcn6)
        v6 = {p for p in prefixes if p.is_ipv6}
        assert vlan6_prefix(0, 0) in v6
        assert cluster_vlan6_aggregate(3) in v6

    def test_v6_routes_propagate(self, dcn6_sim):
        _, routes = dcn6_sim
        assert vlan6_prefix(1, 0) in routes["c0-t0-0"]

    def test_v6_aggregation_summary_only(self, dcn6_sim):
        _, routes = dcn6_sim
        tor = routes["c0-t0-0"]
        assert cluster_vlan6_aggregate(3) in tor
        assert vlan6_prefix(3, 0) not in tor

    def test_v6_dpdg_cosharding(self, dcn6):
        shards = make_shards(dcn6, 8)
        assert validate_shards(shards, dcn6) == []
        holder = {p: s.index for s in shards for p in s.prefixes}
        assert holder[cluster_vlan6_aggregate(3)] == holder[vlan6_prefix(3, 0)]

    def test_v4_results_unchanged_by_dual_stack(self, dcn1_sim, dcn6_sim):
        _, v4_only = dcn1_sim
        _, dual = dcn6_sim
        for host, table in v4_only.items():
            dual_v4 = {
                p: r for p, r in dual[host].items() if not p.is_ipv6
            }
            assert set(dual_v4) == set(table), host


class TestFibV6:
    def test_separate_tries(self):
        fib = Fib("r")
        fib.add(
            FibEntry(
                prefix=Prefix.parse("::/0"),
                action=FibAction.FORWARD,
                next_hops=(NextHop(iface="v6default", node="x"),),
            )
        )
        fib.add(
            FibEntry(
                prefix=Prefix.parse("0.0.0.0/0"),
                action=FibAction.DROP,
            )
        )
        v6_hit = fib.lookup(parse_ipv6("2001:db8::1"), width=128)
        assert v6_hit.action is FibAction.FORWARD
        v4_hit = fib.lookup(0, width=32)
        assert v4_hit.action is FibAction.DROP

    def test_entries_family_filter(self):
        fib = Fib("r")
        fib.add(FibEntry(prefix=Prefix.parse("10.0.0.0/8"), action=FibAction.DROP))
        fib.add(FibEntry(prefix=Prefix.parse("2001::/16"), action=FibAction.DROP))
        assert len(fib.entries()) == 2
        assert len(fib.entries(width=128)) == 1
        assert fib.entries(width=128)[0].prefix.is_ipv6

    def test_v6_lpm(self):
        fib = Fib("r")
        fib.add(
            FibEntry(
                prefix=Prefix.parse("2001:db8::/32"),
                action=FibAction.FORWARD,
                next_hops=(NextHop(iface="a", node="x"),),
            )
        )
        fib.add(
            FibEntry(
                prefix=Prefix.parse("2001:db8:3::/48"),
                action=FibAction.FORWARD,
                next_hops=(NextHop(iface="b", node="y"),),
            )
        )
        hit = fib.lookup(parse_ipv6("2001:db8:3::9"), width=128)
        assert hit.next_hops[0].iface == "b"


class TestEncodingV6:
    def test_128_bit_layout(self):
        enc = HeaderEncoding(fields=("dst",), address_bits=128, metadata_bits=2)
        assert enc.num_vars == 130
        assert enc.metadata_var(0) == 128

    def test_prefix_bdd_family_guard(self):
        enc = HeaderEncoding(address_bits=128)
        engine = enc.make_engine()
        with pytest.raises(ValueError):
            enc.prefix_bdd(engine, Prefix.parse("10.0.0.0/8"))

    def test_v4_encoding_rejects_v6_prefix(self):
        enc = HeaderEncoding()
        engine = enc.make_engine()
        with pytest.raises(ValueError):
            enc.prefix_bdd(engine, Prefix.parse("2001:db8::/48"))

    def test_sat_count_over_v6(self):
        enc = HeaderEncoding(address_bits=128)
        engine = enc.make_engine()
        u = enc.prefix_bdd(engine, Prefix.parse("2001:db8::/32"))
        assert engine.sat_count(u, 128) == 1 << 96

    def test_bad_address_bits(self):
        with pytest.raises(ValueError):
            HeaderEncoding(address_bits=64)


class TestTwoPassVerification:
    def test_monolithic_v6_pass(self, dcn6_sim):
        engine, routes = dcn6_sim
        dpv = DataPlaneVerifier.from_simulation(
            engine, routes, encoding=HeaderEncoding(address_bits=128)
        )
        query = Query(
            sources=("c0-t0-0",),
            destinations=("c1-t0-0",),
            header_space=vlan6_prefix(1, 0),
        )
        assert dpv.check_reachability(query).holds("c0-t0-0", "c1-t0-0")

    def test_v6_unrouted_space_blackholes(self, dcn6_sim):
        engine, routes = dcn6_sim
        dpv = DataPlaneVerifier.from_simulation(
            engine, routes, encoding=HeaderEncoding(address_bits=128)
        )
        violations = dpv.checker().check_blackhole_free(
            Query(
                sources=("c0-t0-0",),
                header_space=Prefix.parse("fd00::/8"),
            )
        )
        assert violations  # no v6 default route: ULA space blackholes

    def test_distributed_v6_pass(self, dcn6):
        options = S2Options(
            num_workers=4,
            num_shards=6,
            encoding=HeaderEncoding(address_bits=128),
        )
        with S2Controller(dcn6, options) as controller:
            checker = controller.checker()
            query = Query(
                sources=("c0-t0-0",),
                destinations=("c3-t0-0",),
                header_space=vlan6_prefix(3, 0),
            )
            result = checker.check_reachability(query)
            assert result.holds("c0-t0-0", "c3-t0-0")
            # No ACL touches the class: the closure answered it.
            assert controller.dpo.stats.closure_pairs == 1
            header = controller.options.encoding.prefix_bdd(
                controller.dpo.engine, vlan6_prefix(3, 0)
            )
            controller.dpo.forward(query.sources, header)
            assert controller.dpo.stats.packets_crossed > 0

    def test_distributed_v6_ribs_match_monolithic(self, dcn6, dcn6_sim):
        from tests.conftest import normalize_ribs

        _, expected = dcn6_sim
        with S2Controller(
            dcn6, S2Options(num_workers=4, num_shards=6)
        ) as controller:
            controller.run_control_plane()
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)
