"""All-pair reachability by destination-class closure vs the monolith.

The distributed checker answers every destination class no ACL touches
by a graph closure over the workers' FIB next hops and forwards only the
rest symbolically.  Its per-pair BDDs must be the monolithic
``DataPlaneVerifier``'s, content for content: on the synthesized
topologies, the pinned corpus and seeded fuzz networks (both runtimes),
on ACL'd networks (whose touched classes must take the symbolic
residual), under installed waypoint bits (the whole query symbolic), past
the hop bound, through Null0 drops and exit ports, under IPv6, and under
``within`` and ``header_space`` restrictions.  A crash at the closure's
one fan-out recovers through replay.
"""

from __future__ import annotations

import ast
import functools

import pytest

from repro import FaultPlan, FaultSpec, S2Options
from repro.bdd.engine import FALSE, TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.bdd.serialize import content_digest, serialize
from repro.config.loader import snapshot_from_texts
from repro.core.s2 import S2Verifier
from repro.dataplane.classes import (
    RECEIVE,
    SINK,
    closure_pairs,
    device_actions,
    nearest_parents,
    parent_indexes,
    with_ancestors,
)
from repro.dataplane.queries import Query
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Controller
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import build_snapshot, generate_spec
from repro.net.fattree import FatTreeSpec, render_configs
from repro.net.ip import Prefix
from repro.obs.report import class_closure
from repro.routing.engine import ConvergenceError, SimulationEngine

from tests.test_dataplane import line_env  # noqa: F401 — fixture
from tests.test_ipv6 import dcn6, vlan6_prefix  # noqa: F401 — fixture

RUNTIMES = ["sequential", "socket"]
FUZZ_SEEDS = range(200)
#: Every fourth fuzz seed also runs over real TCP: a socket fleet forks
#: its workers per network, and the sample keeps the file under a minute.
SOCKET_FUZZ_SEEDS = range(0, 200, 4)
# ACL'd probe: telnet is denied out of one aggregation switch's first port.
ACL_ENCODING = HeaderEncoding(fields=("dst", "proto", "dport"))


def digests(engine, reachable):
    """Engine-independent per-pair content; a FALSE pair is a failure."""
    assert all(bdd != FALSE for bdd in reachable.values())
    return {
        pair: content_digest(serialize(engine, bdd))
        for pair, bdd in reachable.items()
    }


def monolith(snapshot, options):
    """The reference over the monolithic engine's own fixed point."""
    engine = SimulationEngine(snapshot)
    routes = engine.run()
    return DataPlaneVerifier.from_simulation(
        engine, routes, encoding=options.encoding, max_hops=options.max_hops
    )


def converge(controller):
    """The distributed control plane; a divergent corpus case (the
    synchronous rounds oscillate) lands in the monolithic sweep's fixed
    point through the controller's own sequential path instead."""
    try:
        controller.run_control_plane()
    except ConvergenceError:
        controller._sequential_fallback()
        controller._cp_done = True


def compare(
    snapshot, options, query=None, within=None, transits=(), want=None
):
    """Closure-checked vs monolithic per-pair digests, and the DPO stats.

    ``query`` defaults to every device to every device; ``within`` is a
    prefix list restricting the header as the serve commit does;
    ``transits`` installs waypoint bits on both sides first.  ``want``,
    when given, is the monolithic digests computed already."""
    nodes = tuple(sorted(snapshot.configs))
    query = query or Query(sources=nodes, destinations=nodes)
    with S2Controller(snapshot, options) as controller:
        converge(controller)
        checker = controller.checker()
        dpo = controller.dpo
        if transits:
            dpo.install_waypoints(transits)
        header = TRUE
        if within is not None:
            header = options.encoding.prefix_set_bdd(dpo.engine, within)
        got = digests(
            dpo.engine, checker.check_reachability(query, header).reachable
        )
        stats = dpo.stats
    if want is None:
        want = reference_digests(snapshot, options, query, within, transits)
    return got, want, stats


def reference_digests(snapshot, options, query, within=None, transits=()):
    """The monolithic side of :func:`compare`."""
    reference = monolith(snapshot, options)
    if transits:
        reference.install_waypoints(transits)
    header = TRUE
    if within is not None:
        header = options.encoding.prefix_set_bdd(reference.engine, within)
    return digests(
        reference.engine,
        reference.checker().check_reachability(query, header).reachable,
    )


# -- (a) content-equal on every network family ---------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("name", ["fattree4", "dcn1"])
def test_synthesized_networks(name, runtime, request):
    snapshot = request.getfixturevalue(name)
    got, want, stats = compare(
        snapshot, S2Options(num_workers=4, num_shards=8, runtime=runtime)
    )
    assert got == want and got
    assert stats.closure_pairs == len(got)
    assert stats.symbolic_classes == 0 and stats.supersteps == 0


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_corpus_cases(runtime):
    cases = load_corpus()
    assert len(cases) == 8
    for case in cases:
        snapshot = build_snapshot(case.resolve_spec())
        got, want, _ = compare(
            snapshot, S2Options(num_workers=2, num_shards=2, runtime=runtime)
        )
        assert got == want and got, case.name


@functools.lru_cache(maxsize=None)
def fuzz_case(seed):
    """One fuzz seed's snapshot and monolithic digests, parsed and
    computed once for both runtimes' parametrizations."""
    snapshot = build_snapshot(generate_spec(seed))
    nodes = tuple(sorted(snapshot.configs))
    want = reference_digests(
        snapshot, S2Options(), Query(sources=nodes, destinations=nodes)
    )
    return snapshot, want


@pytest.mark.parametrize(
    "runtime, seeds",
    [("sequential", FUZZ_SEEDS), ("socket", SOCKET_FUZZ_SEEDS)],
)
def test_fuzz_seeds(runtime, seeds):
    for seed in seeds:
        snapshot, want = fuzz_case(seed)
        got, _, _ = compare(
            snapshot,
            S2Options(num_workers=3, num_shards=2, runtime=runtime),
            want=want,
        )
        assert got == want, f"seed {seed}"


# -- (b) ACL-touched classes take the symbolic residual --------------------


def acl_fattree4():
    texts = render_configs(FatTreeSpec(k=4))
    dialect, text = texts["agg-0-0"]
    text = text.replace(
        "interface eth0\n",
        "ip access-list extended NOTELNET\n"
        " 10 deny tcp any any eq 23\n"
        " 20 permit ip any any\n"
        "!\n"
        "interface eth0\n"
        " ip access-group NOTELNET out\n",
        1,
    )
    texts["agg-0-0"] = (dialect, text)
    return snapshot_from_texts(texts, name="fattree-k4-acl")


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_acl_on_an_aggregation_switch(runtime):
    got, want, stats = compare(
        acl_fattree4(),
        S2Options(
            num_workers=3, num_shards=2, runtime=runtime, encoding=ACL_ENCODING
        ),
    )
    assert got == want
    assert stats.symbolic_classes > 0 and stats.supersteps > 0
    assert stats.closure_pairs > 0  # the untouched classes still close


def test_acl_line(line_env):  # noqa: F811 — the imported fixture
    snapshot, _, _, encoding = line_env
    got, want, stats = compare(
        snapshot, S2Options(num_workers=2, encoding=encoding)
    )
    assert got == want
    assert ("src", "dst") in got  # everything but telnet gets through
    assert stats.symbolic_classes > 0 and stats.supersteps > 0


# -- (c) installed waypoint bits keep the whole query symbolic --------------


def test_waypoints_keep_the_query_symbolic(fattree4):
    options = S2Options(
        num_workers=3, num_shards=2, encoding=HeaderEncoding(metadata_bits=1)
    )
    got, want, stats = compare(fattree4, options, transits=("core-0",))
    assert got == want
    assert stats.closure_pairs == 0 and stats.closure_classes == 0
    assert stats.supersteps > 0


# -- (d) hop bound, drops and exits, IPv6, restrictions ---------------------


@pytest.mark.parametrize("max_hops, pairs", [(3, 16), (4, 64)])
def test_hop_bound(fattree4, max_hops, pairs):
    """Edge to edge is 2 hops inside a pod and 4 across: a bound of 3
    cuts every cross-pod pair, a bound of 4 keeps them."""
    edges = tuple(sorted(n for n in fattree4.configs if n.startswith("edge")))
    got, want, _ = compare(
        fattree4,
        S2Options(num_workers=3, num_shards=2, max_hops=max_hops),
        query=Query(sources=edges, destinations=edges),
    )
    assert got == want
    assert len(got) == pairs


def test_null0_and_exit_ports(line_env):  # noqa: F811 — the imported fixture
    """mid drops 192.168/16 to Null0 and sends 203.0.113/24 out of a
    port with no peer: neither class arrives anywhere."""
    snapshot, _, _, encoding = line_env
    options = S2Options(num_workers=2, encoding=encoding)
    for text in ("192.168.0.0/16", "203.0.113.0/24"):
        got, want, stats = compare(snapshot, options, within=[Prefix.parse(text)])
        assert got == want == {}
        assert stats.closure_classes > 0 and stats.symbolic_classes == 0


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_ipv6(dcn6, runtime):  # noqa: F811 — the imported fixture
    got, want, stats = compare(
        dcn6,
        S2Options(
            num_workers=4,
            num_shards=6,
            runtime=runtime,
            encoding=HeaderEncoding(address_bits=128),
        ),
    )
    assert got == want and got
    assert stats.closure_pairs == len(got)


def test_within_and_header_space(dcn6):  # noqa: F811 — the imported fixture
    options = S2Options(
        num_workers=4, num_shards=6, encoding=HeaderEncoding(address_bits=128)
    )
    nodes = tuple(sorted(dcn6.configs))
    dirty = [vlan6_prefix(3, 0), vlan6_prefix(1, 1)]
    got, want, stats = compare(dcn6, options, within=dirty)
    assert got == want and got
    assert stats.closure_classes <= 4  # the dirty classes, not all of them
    query = Query(
        sources=nodes, destinations=nodes, header_space=vlan6_prefix(3, 0)
    )
    got, want, _ = compare(dcn6, options, query=query)
    assert got == want and got
    assert {d for _, d in got} == {"c3-t0-0"}


# -- (e) a crash at the closure's fan-out --------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_crash_at_class_actions_replays(fattree4, runtime):
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=1, command="class_actions")]
    )
    options = S2Options(
        num_workers=3, num_shards=2, runtime=runtime, fault_plan=plan
    )
    with S2Verifier(fattree4, options) as verifier:
        result = verifier.verify()
    assert plan.count("crash") == 1, "the injected crash never fired"
    assert result.status == "ok"
    assert result.reachable_pairs == 64
    assert result.dp_stats.query_replays >= 1
    assert result.dp_stats.closure_pairs >= 64


# -- the pure module ------------------------------------------------------------


def test_actions_inherit_the_nearest_containing_entry():
    top, mid, leaf = (
        Prefix.parse(t) for t in ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24")
    )
    other = Prefix.parse("192.0.2.0/24")
    parents = nearest_parents([leaf, top, other, mid])
    assert parents == {top: None, mid: top, leaf: mid, other: None}
    classes = with_ancestors([leaf, other], parents)
    assert classes == [top, mid, leaf, other]  # upward-closed, shortest first
    own = {top: (("b",), False), leaf: (RECEIVE, False)}
    assert parent_indexes(classes) == [-1, 0, 1, -1]
    actions = device_actions(classes, parent_indexes(classes), own.get)
    assert actions == [
        (("b",), False), (("b",), False), (RECEIVE, False), (SINK, False)
    ]


def test_closure_groups_and_bounds():
    a, b = Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")
    chain = {"s": ("m",), "m": ("d",), "d": RECEIVE}
    nodes = ("s", "m", "d")
    groups, pairs = closure_pairs({a: chain, b: dict(chain)}, nodes, ["d"], 2)
    assert groups == [(a, b)]  # equal actions: one group
    assert pairs == {("s", "d"): [0], ("m", "d"): [0], ("d", "d"): [0]}
    _, pairs = closure_pairs({a: chain}, nodes, ["d"], 1)
    assert ("s", "d") not in pairs  # two hops past a bound of one


def test_the_monolith_does_not_import_the_closure():
    """The monolithic verifier stays the purely symbolic oracle."""
    from repro.dataplane import verifier

    with open(verifier.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert "classes" not in imported and ".classes" not in imported
    assert not hasattr(verifier, "closure_pairs")


def test_report_line():
    spans = [
        {"name": "dpo.closure", "attrs": {
            "classes": 125, "groups": 114, "pairs": 361, "symbolic_classes": 2,
        }},
        {"name": "dpo.forward", "attrs": {}},
    ]
    assert class_closure(spans) == (
        "class closure: 361 pairs over 1 checks from 125 classes in 114 "
        "groups, 2 ACL-touched classes forwarded symbolically"
    )
    assert class_closure(spans[1:]) is None
