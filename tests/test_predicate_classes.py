"""Predicates compiled per forwarding action equal the entry-keyed walk.

:func:`compile_predicates` walks the FIB trie once, holding one region
per *action class* (drop, receive, or a tuple of egress interfaces) at
every trie node.  The walk it replaced held one region per FIB entry and
ORed them back together per interface afterwards; that walk is kept here
as the reference.  BDDs are canonical and serialize children-first, so
the same predicate built in two engines serializes to the same bytes:
every device's ``receive``, ``drop``, forward and ACL predicates, and
their key sets, must match byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.engine import FALSE, OP_OR, TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.bdd.serialize import serialize, to_bytes
from repro.config.ast import DeviceConfig
from repro.dataplane.fib import Fib, FibAction, FibEntry, NextHop
from repro.dataplane.predicates import PortPredicates, compile_predicates
from repro.dataplane.verifier import DataPlaneVerifier
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import build_snapshot, generate_spec
from repro.net.folded_clos import build_folded_clos
from repro.net.ip import Prefix
from repro.routing.engine import SimulationEngine

ENCODINGS = (HeaderEncoding(), HeaderEncoding(address_bits=128))


def reference_compile(config, fib, engine, encoding):
    """The entry-keyed trie walk: one region per FIB entry per node."""
    width = encoding.address_bits
    base = encoding.field_base("dst")

    def walk(node, depth, inherited):
        if node is None:
            return {inherited: TRUE}
        effective = node.entry if node.entry is not None else inherited
        if depth == width:
            return {effective: TRUE}
        low = walk(node.children[0], depth + 1, effective)
        high = walk(node.children[1], depth + 1, effective)
        return {
            key: engine.mk(
                base + depth, low.get(key, FALSE), high.get(key, FALSE)
            )
            for key in low.keys() | high.keys()
        }

    regions = walk(fib.trie_root(width), 0, None)
    predicates = PortPredicates(node=fib.node)
    drop, receive, forward = [], [], {}
    for entry, region in regions.items():
        if entry is None or entry.action is FibAction.DROP:
            drop.append(region)
        elif entry.action is FibAction.RECEIVE:
            receive.append(region)
        else:
            for hop in entry.next_hops:
                forward.setdefault(hop.iface, []).append(region)
    predicates.drop = engine.apply_many(OP_OR, drop)
    predicates.receive = engine.apply_many(OP_OR, receive)
    for iface, iface_regions in forward.items():
        predicates.forward[iface] = engine.apply_many(OP_OR, iface_regions)
    for iface in config.interfaces.values():
        if iface.acl_in is not None and iface.acl_in in config.acls:
            predicates.acl_in[iface.name] = encoding.acl_bdd(
                engine, config.acls[iface.acl_in]
            )
        if iface.acl_out is not None and iface.acl_out in config.acls:
            predicates.acl_out[iface.name] = encoding.acl_bdd(
                engine, config.acls[iface.acl_out]
            )
    return predicates


def dump(engine, predicates):
    """Every predicate's serialized bytes, keyed by table and port."""

    def table(name, entries):
        return {
            (name, port): to_bytes(serialize(engine, root))
            for port, root in entries.items()
        }

    out = table(
        "fixed", {"receive": predicates.receive, "drop": predicates.drop}
    )
    out.update(table("forward", predicates.forward))
    out.update(table("acl_in", predicates.acl_in))
    out.update(table("acl_out", predicates.acl_out))
    return out


def assert_same_predicates(config, fib):
    for encoding in ENCODINGS:
        engine = encoding.make_engine()
        got = dump(engine, compile_predicates(config, fib, engine, encoding))
        engine = encoding.make_engine()
        want = dump(engine, reference_compile(config, fib, engine, encoding))
        assert got.keys() == want.keys(), (fib.node, encoding.address_bits)
        assert got == want, (fib.node, encoding.address_bits)


def assert_network_matches(snapshot):
    engine = SimulationEngine(snapshot)
    dpv = DataPlaneVerifier.from_simulation(engine, engine.run())
    for hostname, fib in dpv.fibs.items():
        assert_same_predicates(snapshot.configs[hostname], fib)


# -- synthesized topologies ------------------------------------------------


def test_fattree4(fattree4):
    assert_network_matches(fattree4)


def test_fattree6(fattree6):
    assert_network_matches(fattree6)


def test_dcn1(dcn1):
    assert_network_matches(dcn1)


def test_folded_clos_two_dcs():
    assert_network_matches(build_folded_clos(dcs=2))


# -- fuzz corpus and generated networks ------------------------------------

CASES = load_corpus(DEFAULT_CORPUS_DIR)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_corpus_case(case):
    assert_network_matches(build_snapshot(case.resolve_spec()))


def test_generated_networks():
    for seed in range(50):
        assert_network_matches(build_snapshot(generate_spec(seed)))


# -- random FIBs: ECMP sets that share interfaces, both families ----------

IFACES = ("e0", "e1", "e2", "e3")

fib_entries = st.lists(
    st.tuples(
        st.sampled_from((32, 128)),
        st.integers(0, (1 << 128) - 1),
        st.integers(0, 128),
        st.one_of(
            st.sampled_from(["recv", "drop"]),
            st.lists(st.sampled_from(IFACES), min_size=1, max_size=3),
        ),
    ),
    min_size=1,
    max_size=16,
)


def random_fib(raw):
    fib = Fib("r")
    for width, network, length, action in raw:
        prefix = Prefix(network % (1 << width), min(length, width), width)
        if action == "recv":
            fib.add(FibEntry(prefix=prefix, action=FibAction.RECEIVE))
        elif action == "drop":
            fib.add(FibEntry(prefix=prefix, action=FibAction.DROP))
        else:
            hops = tuple(
                NextHop(iface=iface, node=f"n{i}", address=i)
                for i, iface in enumerate(action)
            )
            fib.add(
                FibEntry(
                    prefix=prefix, action=FibAction.FORWARD, next_hops=hops
                )
            )
    return fib


@given(fib_entries)
@settings(max_examples=60, deadline=None)
def test_random_fibs(raw):
    assert_same_predicates(DeviceConfig(hostname="r"), random_fib(raw))


# -- determinism -----------------------------------------------------------

_COUNT_DCN_COMPILE = """
from repro.dataplane.verifier import DataPlaneVerifier
from repro.net.dcn import build_dcn
from repro.routing.engine import SimulationEngine
engine = SimulationEngine(build_dcn(scale=1))
dpv = DataPlaneVerifier.from_simulation(engine, engine.run())
dpv.compile_predicates()
print(dpv.engine.node_count, dpv.engine.ops)
dpv.all_pair_reachability()
print(dpv.engine.ops)
"""


def test_dcn_compile_counts_ignore_the_hash_seed():
    """Node count and apply ops of a compile, and the apply ops of one
    all-pair reachability check after it, repeat from process to
    process, even under different string-hash seeds: the merge iterates
    small-int class ids, never sets keyed by strings, entries or ``None``
    (whose hash is its address on some Pythons)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_DCN_COMPILE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        counts.append(out.stdout.split())
    assert counts[0] == counts[1]
