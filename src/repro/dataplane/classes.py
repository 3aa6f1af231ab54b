"""Destination classes: reachability as a graph closure (DESIGN.md,
"Destination classes").

Outside ACL'd ports and waypoint bits, a device treats a packet by its
destination address alone: the longest FIB entry containing it picks
receive, drop, or the egress interfaces.  Cut the address space by the
union of every device's FIB prefixes and each piece — a *class* — is
treated alike by every device.  For a class that no ACL touches, "A
reaches B" is then a graph question over the devices' next hops, with no
BDD: B receives the class, and A reaches B in at most ``max_hops`` hops.

A class is named by its prefix ``p`` and holds the addresses whose longest
match in the global set is ``p`` (its *atom*: ``p`` minus its children in
the set).  Every device prefix is in the global set, so a device's action
for ``p`` is its own entry for ``p`` or, failing that, its action for
``p``'s nearest containing global prefix — one dict lookup per device and
class, in shortest-first order.

Actions are device ids, never BDDs: :data:`RECEIVE`, a sink (``()``: a
drop, or an exit out of a port with no peer), or the sorted successor
devices.  The BDD work is one atom per class and build, then per check
one AND per class and one OR per group and per reachable pair; the wire
and the workers see only the classes a check's header space touches.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bdd.engine import FALSE, BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..net.ip import Prefix

#: A device's action for a class: ``RECEIVE``, or the successor devices
#: (the empty tuple is a sink — the class is dropped or exits there).
Action = Optional[Tuple[str, ...]]
RECEIVE: Action = None
SINK: Action = ()

Pair = Tuple[str, str]


def shortest_first(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """The prefixes, each after every prefix that contains it."""
    return sorted(set(prefixes), key=lambda p: (p.length, p.network))


def nearest_parents(
    classes: Iterable[Prefix],
) -> Dict[Prefix, Optional[Prefix]]:
    """Each class's nearest containing class (None for a top class).

    Prefixes nest or are disjoint, so in (network, length) order every
    class's containing classes sit on a stack of nested ones.
    """
    parents: Dict[Prefix, Optional[Prefix]] = {}
    stack: List[Prefix] = []
    for prefix in sorted(set(classes), key=lambda p: (p.network, p.length)):
        while stack and not stack[-1].contains(prefix):
            stack.pop()
        parents[prefix] = stack[-1] if stack else None
        stack.append(prefix)
    return parents


def with_ancestors(
    wanted: Iterable[Prefix], parents: Mapping[Prefix, Optional[Prefix]]
) -> List[Prefix]:
    """``wanted`` plus every class containing one, shortest first: the
    upward-closed request :func:`device_actions` needs."""
    closed: Set[Prefix] = set()
    for prefix in wanted:
        while prefix is not None and prefix not in closed:
            closed.add(prefix)
            prefix = parents[prefix]
    return shortest_first(closed)


def parent_indexes(classes: Sequence[Prefix]) -> List[int]:
    """Each class's nearest containing class as an index into
    ``classes`` (-1 for a top class)."""
    position = {prefix: index for index, prefix in enumerate(classes)}
    parents = nearest_parents(classes)
    return [
        -1 if parents[prefix] is None else position[parents[prefix]]
        for prefix in classes
    ]


def device_actions(
    classes: Sequence[Prefix],
    parents: Sequence[int],
    own_action: Callable[[Prefix], Optional[Tuple[Action, bool]]],
) -> List[Tuple[Action, bool]]:
    """One device's ``(action, acl_touched)`` per class.

    ``classes`` must be upward-closed and shortest first (as
    :func:`with_ancestors` returns them) and ``parents`` their
    :func:`parent_indexes`; ``own_action(p)`` is the device's own entry
    for ``p``, or None when it has none.  A class the device holds no
    containing entry for matches nothing there: a sink.
    """
    found: List[Tuple[Action, bool]] = []
    for prefix, parent in zip(classes, parents):
        own = own_action(prefix)
        if own is None:
            own = found[parent] if parent >= 0 else (SINK, False)
        found.append(own)
    return found


def child_classes(
    parents: Mapping[Prefix, Optional[Prefix]],
) -> Dict[Prefix, List[Prefix]]:
    """Each class's nearest contained classes (absent for a leaf), in
    ``parents``' order."""
    children: Dict[Prefix, List[Prefix]] = defaultdict(list)
    for prefix, parent in parents.items():
        if parent is not None:
            children[parent].append(prefix)
    return dict(children)


def class_atoms(
    engine: BddEngine,
    encoding: HeaderEncoding,
    classes: Sequence[Prefix],
    parents: Mapping[Prefix, Optional[Prefix]],
) -> Dict[Prefix, int]:
    """Each of ``classes``' atom (``prefix_bdd(p)`` minus its children
    in ``parents``, the whole set); classes their children cover
    entirely are left out.  An atom depends on its class and children
    alone."""
    children = child_classes(parents)
    atoms: Dict[Prefix, int] = {}
    for prefix in classes:
        atom = encoding.prefix_bdd(engine, prefix)
        inner = children.get(prefix)
        if inner:
            atom = engine.diff(atom, encoding.prefix_set_bdd(engine, inner))
        if atom != FALSE:
            atoms[prefix] = atom
    return atoms


def _sources_within(
    target: str,
    predecessors: Mapping[str, List[str]],
    max_hops: int,
) -> Iterable[str]:
    """Devices whose shortest path to ``target`` is at most ``max_hops``
    hops (``target`` itself at 0): a reverse BFS."""
    seen = {target}
    frontier = deque([(target, 0)])
    while frontier:
        node, hops = frontier.popleft()
        yield node
        if hops == max_hops:
            continue
        for previous in predecessors.get(node, ()):
            if previous not in seen:
                seen.add(previous)
                frontier.append((previous, hops + 1))


def closure_pairs(
    rows: Mapping[Prefix, Mapping[str, Action]],
    sources: Iterable[str],
    destinations: Iterable[str],
    max_hops: int,
) -> Tuple[List[Tuple[Prefix, ...]], Dict[Pair, List[int]]]:
    """Reachable pairs by closure.

    ``rows[p]`` maps each device to its action for class ``p``.  Classes
    whose actions agree on every device form one group; per group, a
    reverse BFS from each wanted receiver (every receiver when
    ``destinations`` is empty) finds the sources within ``max_hops`` —
    the symbolic forwarder's hop bound.  Returns the groups and, per
    reachable ``(source, destination)``, the indexes of its groups.
    """
    by_actions: Dict[Tuple, List[Prefix]] = {}
    for prefix in sorted(rows, key=lambda p: (p.length, p.network)):
        key = tuple(sorted(rows[prefix].items()))
        by_actions.setdefault(key, []).append(prefix)
    wanted = set(destinations)
    sources = set(sources)
    groups: List[Tuple[Prefix, ...]] = []
    pairs: Dict[Pair, List[int]] = {}
    for key, members in by_actions.items():
        index = len(groups)
        groups.append(tuple(members))
        predecessors: Dict[str, List[str]] = defaultdict(list)
        receivers = []
        for device, action in key:
            if action is RECEIVE:
                if not wanted or device in wanted:
                    receivers.append(device)
            else:
                for successor in action:
                    predecessors[successor].append(device)
        for receiver in receivers:
            for source in _sources_within(receiver, predecessors, max_hops):
                if source in sources:
                    pairs.setdefault((source, receiver), []).append(index)
    return groups, pairs
