"""Tests for route types, the BGP decision process, and the RIBs."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import Prefix
from repro.routing.rib import BgpRib, MainRib
from repro.routing.route import (
    BgpRoute,
    Origin,
    Protocol,
    Route,
    decision_key,
    ecmp_key,
)

P = Prefix.parse("10.0.0.0/24")


def route(**overrides) -> BgpRoute:
    base = dict(
        prefix=P,
        next_hop=1,
        from_node="n1",
        as_path=(100,),
        local_pref=100,
        med=0,
        origin=Origin.IGP,
        weight=0,
        ebgp=True,
        originator_id=1,
        igp_cost=0,
    )
    base.update(overrides)
    return BgpRoute(**base)


class TestDecisionProcess:
    def test_higher_weight_wins(self):
        assert decision_key(route(weight=10)) < decision_key(route(weight=0))

    def test_higher_local_pref_wins(self):
        assert decision_key(route(local_pref=200)) < decision_key(
            route(local_pref=100)
        )

    def test_shorter_as_path_wins(self):
        assert decision_key(route(as_path=(1,))) < decision_key(
            route(as_path=(1, 2))
        )

    def test_lower_origin_wins(self):
        assert decision_key(route(origin=Origin.IGP)) < decision_key(
            route(origin=Origin.INCOMPLETE)
        )

    def test_lower_med_wins(self):
        assert decision_key(route(med=5)) < decision_key(route(med=50))

    def test_ebgp_beats_ibgp(self):
        assert decision_key(route(ebgp=True)) < decision_key(
            route(ebgp=False)
        )

    def test_lower_igp_cost_wins(self):
        assert decision_key(route(igp_cost=1)) < decision_key(
            route(igp_cost=9)
        )

    def test_router_id_breaks_ties(self):
        assert decision_key(route(originator_id=1)) < decision_key(
            route(originator_id=2)
        )

    def test_attribute_precedence(self):
        # local-pref dominates AS-path length
        long_but_preferred = route(local_pref=200, as_path=(1, 2, 3, 4))
        short = route(local_pref=100, as_path=(1,))
        assert decision_key(long_but_preferred) < decision_key(short)
        # AS-path length dominates MED
        assert decision_key(route(as_path=(1,), med=99)) < decision_key(
            route(as_path=(1, 2), med=0)
        )

    def test_ecmp_key_ignores_final_tiebreaks(self):
        a = route(originator_id=1, from_node="a")
        b = route(originator_id=2, from_node="b")
        assert ecmp_key(a) == ecmp_key(b)
        assert decision_key(a) != decision_key(b)

    @given(
        st.lists(
            st.builds(
                route,
                local_pref=st.integers(0, 300),
                med=st.integers(0, 100),
                as_path=st.lists(
                    st.integers(1, 70000), max_size=4
                ).map(tuple),
                originator_id=st.integers(1, 50),
                ebgp=st.booleans(),
                weight=st.integers(0, 10),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_best_is_minimal_under_key(self, routes):
        best = min(routes, key=decision_key)
        assert all(decision_key(best) <= decision_key(r) for r in routes)


class TestRouteHelpers:
    def test_has_as(self):
        assert route(as_path=(5, 6)).has_as(5)
        assert not route(as_path=(5, 6)).has_as(7)

    def test_protocol_property(self):
        assert route(ebgp=True).protocol is Protocol.BGP
        assert route(ebgp=False).protocol is Protocol.IBGP
        assert route(aggregate=True).protocol is Protocol.AGGREGATE

    def test_describe(self):
        text = route().describe()
        assert "10.0.0.0/24" in text and "100" in text

    def test_admin_distances_ordered(self):
        assert (
            Protocol.CONNECTED.admin_distance
            < Protocol.STATIC.admin_distance
            < Protocol.BGP.admin_distance
            < Protocol.OSPF.admin_distance
            < Protocol.IBGP.admin_distance
        )


# One strategy per BgpRoute field; the evolve property below draws a route
# and a change set over every one of them.
ROUTE_FIELDS = {
    "prefix": st.builds(
        Prefix,
        network=st.integers(0, 2**32 - 1),
        length=st.integers(0, 32),
    ) | st.sampled_from(
        [Prefix.parse("2001:db8::/48"), Prefix.parse("0.0.0.0/0")]
    ),
    "next_hop": st.integers(0, 2**32 - 1),
    "from_node": st.text(max_size=8),
    "as_path": st.lists(st.integers(1, 2**32 - 1), max_size=5).map(tuple),
    "local_pref": st.integers(0, 2**32 - 1),
    "med": st.integers(0, 2**32 - 1),
    "origin": st.sampled_from(list(Origin)),
    "communities": st.frozensets(st.integers(0, 2**32 - 1), max_size=4),
    "weight": st.integers(0, 65535),
    "ebgp": st.booleans(),
    "originator_id": st.integers(0, 2**32 - 1),
    "igp_cost": st.integers(0, 1000),
    "aggregate": st.booleans(),
    "suppressed": st.booleans(),
}


def change_sets():
    return st.sets(st.sampled_from(sorted(ROUTE_FIELDS))).flatmap(
        lambda names: st.fixed_dictionaries(
            {name: ROUTE_FIELDS[name] for name in names}
        )
    )


class TestEvolve:
    def test_strategies_cover_every_field(self):
        assert set(ROUTE_FIELDS) == {
            f.name for f in dataclasses.fields(BgpRoute)
        }

    def test_init_does_nothing_evolve_skips(self):
        # evolve bypasses __init__; that is only sound while __init__ does
        # no more than assign every field from its argument.
        assert not hasattr(BgpRoute, "__post_init__")
        for f in dataclasses.fields(BgpRoute):
            assert f.init and f.default_factory is dataclasses.MISSING

    @given(st.fixed_dictionaries(ROUTE_FIELDS), change_sets())
    def test_evolve_is_replace(self, attrs, changes):
        source = BgpRoute(**attrs)
        before = pickle.dumps(source)
        evolved = source.evolve(**changes)
        replaced = dataclasses.replace(source, **changes)
        assert evolved == replaced
        assert hash(evolved) == hash(replaced)
        assert repr(evolved) == repr(replaced)
        assert list(evolved.__dict__) == list(replaced.__dict__)
        assert pickle.dumps(evolved) == pickle.dumps(replaced)
        assert type(evolved) is BgpRoute
        # The source is untouched, and the copy is as frozen as it.
        assert pickle.dumps(source) == before
        assert source == BgpRoute(**attrs)
        # Hashing and comparing leave no trace in the pickled bytes of a
        # route or its prefix: untouched equal copies pickle the same.
        prefix = source.prefix
        untouched = Prefix(prefix.network, prefix.length, prefix.width)
        untouched_bytes = pickle.dumps(untouched)
        hash(source), hash(prefix), hash(evolved)
        assert prefix == untouched and not prefix < untouched
        assert pickle.dumps(prefix) == untouched_bytes
        assert pickle.dumps(source) == before == pickle.dumps(
            BgpRoute(**{**attrs, "prefix": untouched})
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            evolved.med = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            evolved.unknown = 1

    @given(st.fixed_dictionaries(ROUTE_FIELDS))
    def test_evolve_of_an_unpickled_route(self, attrs):
        source = pickle.loads(pickle.dumps(BgpRoute(**attrs)))
        evolved = source.evolve(med=7)
        assert pickle.dumps(evolved) == pickle.dumps(
            dataclasses.replace(source, med=7)
        )

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            route().evolve(bogus=1)
        with pytest.raises(TypeError, match="protocol"):
            route().evolve(med=1, protocol=Protocol.BGP)


class TestBgpRib:
    def test_put_and_best(self):
        rib = BgpRib(max_paths=4)
        rib.put(route(from_node="a", originator_id=2))
        rib.put(route(from_node="b", originator_id=1))
        best = rib.best(P)
        assert len(best) == 2  # ECMP: equal on everything but router-id

    def test_max_paths_caps_ecmp(self):
        rib = BgpRib(max_paths=2)
        for i in range(5):
            rib.put(route(from_node=f"n{i}", originator_id=i))
        assert len(rib.best(P)) == 2

    def test_best_ordering_is_deterministic(self):
        rib = BgpRib(max_paths=3)
        for i in (3, 1, 2):
            rib.put(route(from_node=f"n{i}", originator_id=i))
        assert [r.originator_id for r in rib.best(P)] == [1, 2, 3]

    def test_put_idempotent(self):
        rib = BgpRib()
        assert rib.put(route(from_node="a"))
        assert not rib.put(route(from_node="a"))

    def test_put_replaces_same_source(self):
        rib = BgpRib()
        rib.put(route(from_node="a", local_pref=100))
        assert rib.put(route(from_node="a", local_pref=200))
        assert rib.best(P)[0].local_pref == 200
        assert len(rib.candidates_for(P)) == 1

    def test_withdraw(self):
        rib = BgpRib()
        rib.put(route(from_node="a"))
        assert rib.withdraw(P, "a")
        assert rib.best(P) == ()
        assert not rib.withdraw(P, "a")

    def test_replace_neighbor_routes_withdraws_stale(self):
        rib = BgpRib()
        other = Prefix.parse("10.9.0.0/24")
        rib.replace_neighbor_routes(
            "a", [route(from_node="a"), route(from_node="a", prefix=other)]
        )
        assert rib.best(other)
        # neighbor stops exporting `other`
        changed = rib.replace_neighbor_routes("a", [route(from_node="a")])
        assert changed
        assert rib.best(other) == ()
        assert rib.best(P)

    def test_replace_neighbor_routes_no_change(self):
        rib = BgpRib()
        rib.replace_neighbor_routes("a", [route(from_node="a")])
        assert not rib.replace_neighbor_routes("a", [route(from_node="a")])

    def test_replace_does_not_disturb_other_neighbors(self):
        rib = BgpRib(max_paths=4)
        rib.replace_neighbor_routes("a", [route(from_node="a", originator_id=1)])
        rib.replace_neighbor_routes("b", [route(from_node="b", originator_id=2)])
        rib.replace_neighbor_routes("a", [])
        assert [r.from_node for r in rib.best(P)] == ["b"]

    def test_fingerprint_changes_on_best_change(self):
        rib = BgpRib()
        before = rib.fingerprint()
        rib.put(route(from_node="a"))
        assert rib.fingerprint() != before

    def test_fingerprint_order_independent(self):
        a = BgpRib(max_paths=4)
        b = BgpRib(max_paths=4)
        r1, r2 = route(from_node="x", originator_id=1), route(
            from_node="y", originator_id=2
        )
        a.put(r1), a.put(r2)
        b.put(r2), b.put(r1)
        assert a.fingerprint() == b.fingerprint()

    def test_len_counts_candidates(self):
        rib = BgpRib()
        rib.put(route(from_node="a"))
        rib.put(route(from_node="b"))
        rib.put(route(from_node="a", prefix=Prefix.parse("10.9.0.0/24")))
        assert len(rib) == 3

    def test_clear(self):
        rib = BgpRib()
        rib.put(route(from_node="a"))
        rib.clear()
        assert len(rib) == 0 and rib.best(P) == ()


class TestMainRib:
    def test_lower_admin_distance_wins(self):
        rib = MainRib()
        rib.add(Route(prefix=P, protocol=Protocol.OSPF, admin_distance=110))
        rib.add(Route(prefix=P, protocol=Protocol.STATIC, admin_distance=1))
        routes = rib.routes_for(P)
        assert len(routes) == 1 and routes[0].protocol is Protocol.STATIC

    def test_higher_admin_distance_ignored(self):
        rib = MainRib()
        rib.add(Route(prefix=P, protocol=Protocol.STATIC, admin_distance=1))
        rib.add(Route(prefix=P, protocol=Protocol.OSPF, admin_distance=110))
        assert rib.routes_for(P)[0].protocol is Protocol.STATIC

    def test_equal_distance_accumulates_ecmp(self):
        rib = MainRib()
        rib.add(
            Route(prefix=P, protocol=Protocol.OSPF, next_hop=1, admin_distance=110)
        )
        rib.add(
            Route(prefix=P, protocol=Protocol.OSPF, next_hop=2, admin_distance=110)
        )
        assert len(rib.routes_for(P)) == 2

    def test_duplicate_route_not_added(self):
        rib = MainRib()
        r = Route(prefix=P, protocol=Protocol.STATIC, admin_distance=1)
        rib.add(r)
        rib.add(r)
        assert len(rib.routes_for(P)) == 1

    def test_prefixes_iterates_both_tables(self):
        rib = MainRib()
        rib.add(Route(prefix=P, protocol=Protocol.CONNECTED))
        other = Prefix.parse("10.2.0.0/24")
        rib.set_bgp(other, (route(prefix=other),))
        assert set(rib.prefixes()) == {P, other}

    def test_set_bgp_empty_removes(self):
        rib = MainRib()
        rib.set_bgp(P, (route(),))
        rib.set_bgp(P, ())
        assert rib.bgp_for(P) == ()

    def test_route_count(self):
        rib = MainRib()
        rib.add(Route(prefix=P, protocol=Protocol.CONNECTED))
        rib.set_bgp(
            Prefix.parse("10.2.0.0/24"),
            (route(), route(from_node="z", originator_id=9)),
        )
        assert rib.route_count() == 3
