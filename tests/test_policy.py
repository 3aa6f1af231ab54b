"""Tests for route-map evaluation and VSB transformations."""

import pickle
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.config import parse_cisco
from repro.config import ast
from repro.config.ast import (
    Action,
    CommunityList,
    CommunityListLine,
    DeviceConfig,
    RemovePrivateAsMode,
    RouteMapClause,
    SetAsPathPrepend,
    SetAsPathReplace,
    SetCommunities,
    SetDeleteCommunities,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
    SetTag,
    SetWeight,
)
from repro.config.policy import (
    PolicyEngine,
    PolicyError,
    apply_remove_private_as,
    as_path_regex_matches,
)
from repro.net.ip import Prefix
from repro.routing.route import BgpRoute, Origin

BASE = BgpRoute(
    prefix=Prefix.parse("10.1.0.0/24"),
    next_hop=1,
    from_node="peer",
    as_path=(65002, 65003),
    communities=frozenset(),
)


def engine_from(config_text: str) -> PolicyEngine:
    return PolicyEngine(parse_cisco("hostname t\n" + config_text))


class TestMatches:
    def test_prefix_list_match_permits(self):
        engine = engine_from(
            "ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24\n"
            "route-map RM permit 10\n"
            " match ip address prefix-list PL\n"
            " set local-preference 300\n"
        )
        out = engine.run("RM", BASE, own_asn=65001)
        assert out is not None and out.local_pref == 300

    def test_prefix_list_no_match_falls_to_implicit_deny(self):
        engine = engine_from(
            "ip prefix-list PL seq 5 permit 172.16.0.0/12 le 24\n"
            "route-map RM permit 10\n"
            " match ip address prefix-list PL\n"
        )
        assert engine.run("RM", BASE, own_asn=65001) is None

    def test_community_list_match(self):
        engine = engine_from(
            "ip community-list standard CL permit 65000:1\n"
            "route-map RM permit 10\n"
            " match community CL\n"
        )
        tagged = BASE.__class__(**{**BASE.__dict__, "communities": frozenset([(65000 << 16) | 1])})
        assert engine.run("RM", tagged, 65001) is not None
        assert engine.run("RM", BASE, 65001) is None

    def test_as_path_list_match(self):
        engine = engine_from(
            "ip as-path access-list AP permit _65003$\n"
            "route-map RM permit 10\n"
            " match as-path AP\n"
        )
        assert engine.run("RM", BASE, 65001) is not None

    def test_conjunctive_matches(self):
        engine = engine_from(
            "ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24\n"
            "ip community-list standard CL permit 65000:1\n"
            "route-map RM permit 10\n"
            " match ip address prefix-list PL\n"
            " match community CL\n"
            "route-map RM permit 20\n"
        )
        # first clause fails on community; second (empty-match) permits
        out = engine.run("RM", BASE, 65001)
        assert out == BASE

    def test_clause_order_by_seq(self):
        engine = engine_from(
            "route-map RM permit 20\n"
            " set local-preference 20\n"
            "route-map RM permit 10\n"
            " set local-preference 10\n"
        )
        out = engine.run("RM", BASE, 65001)
        assert out.local_pref == 10

    def test_deny_clause_drops(self):
        engine = engine_from(
            "ip prefix-list PL seq 5 permit 10.1.0.0/24\n"
            "route-map RM deny 10\n"
            " match ip address prefix-list PL\n"
            "route-map RM permit 20\n"
        )
        assert engine.run("RM", BASE, 65001) is None

    def test_missing_map_name_denies(self):
        engine = engine_from("")
        assert engine.run("GHOST", BASE, 65001) is None

    def test_none_map_permits_unchanged(self):
        engine = engine_from("")
        assert engine.run(None, BASE, 65001) == BASE

    def test_missing_prefix_list_raises(self):
        engine = engine_from(
            "route-map RM permit 10\n match ip address prefix-list NOPE\n"
        )
        with pytest.raises(PolicyError):
            engine.run("RM", BASE, 65001)


class TestSets:
    def test_set_med_and_weight(self):
        engine = engine_from(
            "route-map RM permit 10\n set metric 55\n set weight 9\n"
        )
        out = engine.run("RM", BASE, 65001)
        assert out.med == 55 and out.weight == 9

    def test_set_origin(self):
        engine = engine_from("route-map RM permit 10\n set origin incomplete\n")
        assert engine.run("RM", BASE, 65001).origin is Origin.INCOMPLETE

    def test_set_community_replaces(self):
        engine = engine_from("route-map RM permit 10\n set community 65000:9\n")
        out = engine.run("RM", BASE, 65001)
        assert out.communities == frozenset([(65000 << 16) | 9])

    def test_set_community_additive(self):
        engine = engine_from(
            "route-map RM permit 10\n set community 65000:9 additive\n"
        )
        start = BgpRoute(
            **{**BASE.__dict__, "communities": frozenset([(65000 << 16) | 1])}
        )
        out = engine.run("RM", start, 65001)
        assert out.communities == frozenset(
            [(65000 << 16) | 1, (65000 << 16) | 9]
        )

    def test_comm_list_delete(self):
        engine = engine_from(
            "ip community-list standard CL permit 65000:1\n"
            "route-map RM permit 10\n set comm-list CL delete\n"
        )
        start = BgpRoute(
            **{
                **BASE.__dict__,
                "communities": frozenset(
                    [(65000 << 16) | 1, (65000 << 16) | 2]
                ),
            }
        )
        out = engine.run("RM", start, 65001)
        assert out.communities == frozenset([(65000 << 16) | 2])

    def test_as_path_prepend(self):
        engine = engine_from(
            "route-map RM permit 10\n set as-path prepend 65001 65001\n"
        )
        out = engine.run("RM", BASE, 65001)
        assert out.as_path == (65001, 65001, 65002, 65003)

    def test_as_path_overwrite_uses_own_asn(self):
        engine = engine_from(
            "route-map RM permit 10\n set as-path replace any\n"
        )
        out = engine.run("RM", BASE, own_asn=64700)
        assert out.as_path == (64700,)

    def test_set_next_hop(self):
        engine = engine_from(
            "route-map RM permit 10\n set ip next-hop 9.9.9.9\n"
        )
        out = engine.run("RM", BASE, 65001)
        assert out.next_hop == Prefix.parse("9.9.9.9").network


class TestAsPathRegex:
    @pytest.mark.parametrize(
        "pattern,path,expected",
        [
            ("^65002_", (65002, 65003), True),
            ("^65003_", (65002, 65003), False),
            ("_65003$", (65002, 65003), True),
            ("_65002_", (65002, 65003), True),
            ("_6500_", (65002, 65003), False),  # no partial-number match
            ("^$", (), True),
            ("^$", (65002,), False),
            (".*", (1, 2, 3), True),
        ],
    )
    def test_patterns(self, pattern, path, expected):
        assert as_path_regex_matches(pattern, path) == expected

    def test_bad_regex_raises(self):
        with pytest.raises(PolicyError):
            as_path_regex_matches("(((", (1,))


class TestRemovePrivateAs:
    def test_all_mode_strips_every_private(self):
        path = (64512, 3000, 65534, 4200)
        out = apply_remove_private_as(path, RemovePrivateAsMode.ALL)
        assert out == (3000, 4200)

    def test_leading_mode_strips_only_prefix(self):
        path = (64512, 3000, 65534, 4200)
        out = apply_remove_private_as(path, RemovePrivateAsMode.LEADING)
        assert out == (3000, 65534, 4200)

    def test_modes_agree_on_all_private(self):
        path = (64512, 64513)
        assert apply_remove_private_as(path, RemovePrivateAsMode.ALL) == ()
        assert apply_remove_private_as(path, RemovePrivateAsMode.LEADING) == ()

    def test_modes_agree_on_no_private(self):
        path = (3000, 4200)
        for mode in RemovePrivateAsMode:
            assert apply_remove_private_as(path, mode) == path

    def test_vsb_divergence_is_observable(self):
        """The §2.1 motivating example: the two vendors produce different
        paths for private-after-public mixes."""
        path = (3000, 64601)
        assert apply_remove_private_as(
            path, RemovePrivateAsMode.ALL
        ) != apply_remove_private_as(path, RemovePrivateAsMode.LEADING)


# -- one copy per clause ------------------------------------------------------


def _reference_apply_sets(engine, clause, route, own_asn):
    """The one-``evolve``-per-action chain that ``_apply_sets`` replaced,
    kept as the reference."""
    config = engine._config
    for action in clause.sets:
        if isinstance(action, SetLocalPref):
            route = route.evolve(local_pref=action.value)
        elif isinstance(action, SetMed):
            route = route.evolve(med=action.value)
        elif isinstance(action, SetWeight):
            route = route.evolve(weight=action.value)
        elif isinstance(action, SetOrigin):
            route = route.evolve(origin=type(route.origin)(int(action.value)))
        elif isinstance(action, SetCommunities):
            if action.additive:
                communities = route.communities | frozenset(action.communities)
            else:
                communities = frozenset(action.communities)
            route = route.evolve(communities=communities)
        elif isinstance(action, SetDeleteCommunities):
            clist = config.community_lists[action.community_list]
            route = route.evolve(
                communities=frozenset(
                    value
                    for value in route.communities
                    if not clist.permits(frozenset([value]))
                )
            )
        elif isinstance(action, SetAsPathPrepend):
            route = route.evolve(as_path=action.asns + route.as_path)
        elif isinstance(action, SetAsPathReplace):
            asn = action.asn if action.asn is not None else own_asn
            route = route.evolve(as_path=(asn,))
        elif isinstance(action, SetNextHop):
            route = route.evolve(next_hop=action.address)
    return route


#: Odd communities are deleted by ``set comm-list ODD delete``.
ODD_CONFIG = DeviceConfig(
    hostname="t",
    community_lists={
        "ODD": CommunityList(
            "ODD",
            [CommunityListLine(Action.PERMIT, (v,)) for v in (1, 3, 5, 7)],
        )
    },
)
communities = st.integers(0, 7)
asns = st.integers(1, 70000)
set_actions = st.one_of(
    st.builds(SetLocalPref, st.integers(0, 500)),
    st.builds(SetMed, st.integers(0, 500)),
    st.builds(SetWeight, st.integers(0, 500)),
    st.builds(SetOrigin, st.sampled_from(list(ast.Origin))),
    st.builds(
        SetCommunities,
        st.lists(communities, max_size=3).map(tuple),
        st.booleans(),
    ),
    st.just(SetDeleteCommunities("ODD")),
    st.builds(
        SetAsPathPrepend, st.lists(asns, min_size=1, max_size=3).map(tuple)
    ),
    st.builds(SetAsPathReplace, st.none() | asns),
    st.builds(SetNextHop, st.integers(0, 2**32 - 1)),
    st.builds(SetTag, st.integers(0, 10)),
)


@given(
    st.lists(set_actions, max_size=6),
    st.frozensets(communities, max_size=4),
    st.lists(asns, max_size=3).map(tuple),
)
@example(
    [SetCommunities((1, 2), additive=True), SetDeleteCommunities("ODD")],
    frozenset([3, 4]),
    (65002,),
)
@example(
    [SetAsPathPrepend((65001, 65001)), SetAsPathReplace(None)],
    frozenset(),
    (65002, 65003),
)
@example(
    [SetAsPathReplace(64999), SetAsPathPrepend((65001,))],
    frozenset(),
    (65002,),
)
def test_a_clause_is_one_copy_equal_to_the_action_chain(
    actions, route_communities, as_path
):
    """A matched clause's set actions compose in clause order into one
    ``evolve`` (none when nothing changes) that equals the chain of one
    ``evolve`` per action, down to the pickled bytes."""
    engine = PolicyEngine(ODD_CONFIG)
    clause = RouteMapClause(seq=10, action=Action.PERMIT, sets=list(actions))
    route = BgpRoute(
        prefix=Prefix.parse("10.1.0.0/24"),
        next_hop=1,
        from_node="peer",
        as_path=as_path,
        communities=route_communities,
    )
    want = _reference_apply_sets(engine, clause, route, 65001)
    copies = []
    evolve = BgpRoute.evolve

    def counting(self, **changes):
        copies.append(changes)
        return evolve(self, **changes)

    with mock.patch.object(BgpRoute, "evolve", counting):
        got = engine._apply_sets(clause, route, 65001)
    assert got == want
    assert pickle.dumps(got) == pickle.dumps(want)
    effective = [a for a in actions if not isinstance(a, SetTag)]
    assert len(copies) == (1 if effective else 0)
    if not effective:
        assert got is route
