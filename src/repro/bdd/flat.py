"""The flat-array BDD kernel: int32 node storage + open-addressed tables.

:class:`FlatBddEngine` is a drop-in replacement for the dict-of-tuples
:class:`~repro.bdd.engine.BddEngine` that keeps the node table in three
preallocated ``array``-module int32 parallel arrays (``_var``, ``_low``,
``_high``) indexed by node id, grown by doubling, with

* a **unique table with packed integer keys** — the triple
  ``(var, low, high)`` is packed into one int (``var<<60 | low<<30 |
  high``) and looked up in a CPython dict.  CPython dicts *are*
  open-addressed hash tables probed in C; keying them with a packed int
  keeps that C-speed probing while eliminating the per-key tuple
  allocation of the dict engine.  (A hand-rolled ``array('i')`` probe
  loop was measured ~2x slower here: three boxed array reads plus
  Python-bytecode hashing per probe lose badly to one C dict lookup.)
* a **direct-mapped open-addressed op-cache** — a fixed power-of-two
  pair of ``array('q')``/``array('i')`` arrays addressed by hashing the
  packed key ``(op << 60) | (a << 30) | b``.  Collisions overwrite (the
  classic BDD-package design): eviction is O(1) and the cache footprint
  is *exactly* ``cache_limit`` slots of 12 bytes, no matter how long the
  engine lives, versus the dict engine's two rotating generations of
  tuple-keyed dict entries.  Three-operand ``ite`` keys exceed the
  packed int64 key space and use a small bounded dict memo instead
  (``ite`` largely normalizes into the binary ops, which share the flat
  cache).

The hot paths (``apply``, ``cube``) inline both the cache probe and the
hash-consing ``mk`` miss path: in CPython the helper-call and
tuple-allocation overhead of the dict engine's ``_cache_get`` /
``_cache_put`` / ``mk`` round trips costs more than the lookups
themselves, and eliminating it is where the per-apply speedup comes
from.

Batched compilation is the other half of the kernel: :meth:`apply_many`
reduces a whole operand *set* pairwise (balanced, not a left fold), and
pairs with :meth:`HeaderEncoding.prefix_set_bdd`'s one-pass trie build
so whole predicate sets compile without ever materializing one
accumulator per operand.  The base engine exposes ``apply_many`` as a
plain left fold — exactly what callers used to spell by hand — which
keeps the dict kernel an honest comparison baseline and the two kernels
differentially testable call-for-call.

Packed op-cache keys reserve 30 bits per operand, so the flat kernel
caps ``node_limit`` at ``2**30`` — far beyond the paper's ``O(2**32)``
*bytes*-scale tables at model scale (the dict engine remains selectable
for anything larger).

Node ids keep the append-only invariant (children precede parents), so
serialization and the analysis helpers work unchanged;
:meth:`collect_garbage` compacts the parallel arrays **in place**
(survivors only ever move to smaller ids) and rebuilds the unique table
in one dict comprehension.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Tuple

from .engine import (
    DEFAULT_CACHE_LIMIT,
    FALSE,
    OP_AND,
    OP_EXISTS,
    OP_NOT,
    OP_OR,
    OP_XOR,
    TRUE,
    BddEngine,
    BddOverflowError,
)

#: Bits reserved per operand in a packed key; bounds node ids.
NODE_SHIFT = 30
MAX_FLAT_NODE_LIMIT = 1 << NODE_SHIFT

#: Initial node-array capacity (slots); grown by doubling.
_INITIAL_NODE_CAPACITY = 1 << 10


class FlatBddEngine(BddEngine):
    """A reduced, ordered BDD manager over flat int32 arrays."""

    kernel = "flat"

    def __init__(
        self,
        num_vars: int,
        node_limit: int = 1 << 24,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        if node_limit > MAX_FLAT_NODE_LIMIT:
            raise ValueError(
                f"the flat kernel packs node ids into {NODE_SHIFT}-bit "
                f"key fields; node_limit {node_limit} exceeds "
                f"{MAX_FLAT_NODE_LIMIT} (use the dict kernel instead)"
            )
        super().__init__(num_vars, node_limit, cache_limit)
        # -- node table: preallocated int32 parallel arrays --------------
        capacity = _INITIAL_NODE_CAPACITY
        self._var = array("i", bytes(4 * capacity))
        self._low = array("i", bytes(4 * capacity))
        self._high = array("i", bytes(4 * capacity))
        self._var[FALSE] = self._var[TRUE] = num_vars
        self._low[TRUE] = self._high[TRUE] = TRUE
        self._count = 2
        # -- unique table: packed-int keyed (var<<60 | low<<30 | high);
        # terminals are never hash-consed, so every stored id is >= 2 ----
        self._unique: Dict[int, int] = {}
        # -- direct-mapped open-addressed op cache (key 0 == empty; no
        # real packed key is 0 because the terminal operand cases are
        # handled before the cache and OP_NOT/OP_EXISTS are nonzero) -----
        size = 1
        while size < cache_limit:
            size <<= 1
        self._cmask = size - 1
        # ite keys are three-operand and do not fit a packed int64 slot.
        self._ite_memo: Dict[Tuple[int, int, int], int] = {}
        self.clear_caches()
        # The base engine's dict generations are unused; keep inert empty
        # dicts so introspection written against the base stays harmless.
        self._cache = {}
        self._cache_old = {}

    # -- structure -------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def node_count(self) -> int:
        return self._count

    def _grow_nodes(self) -> None:
        pad = bytes(4 * self._count)  # double
        self._var.frombytes(pad)
        self._low.frombytes(pad)
        self._high.frombytes(pad)

    def mk(self, var: int, low: int, high: int) -> int:
        """Hash-consed node constructor over the packed-key table."""
        if low == high:
            return low
        key = (var << 60) | (low << NODE_SHIFT) | high
        found = self._unique.get(key)
        if found is not None:
            return found
        count = self._count
        if count >= self.node_limit:
            raise BddOverflowError(
                f"BDD node table exceeded {self.node_limit} nodes"
            )
        tvar = self._var
        if count == len(tvar):
            self._grow_nodes()
            tvar = self._var
        tvar[count] = var
        self._low[count] = low
        self._high[count] = high
        self._unique[key] = count
        self._count = count + 1
        return count

    # -- literals --------------------------------------------------------

    def cube(self, assignments: Dict[int, bool]) -> int:
        """Conjunction of literals with the ``mk`` miss path inlined."""
        u = TRUE
        unique = self._unique
        num_vars = self.num_vars
        for index in sorted(assignments, reverse=True):
            if not 0 <= index < num_vars:
                raise ValueError(f"variable {index} out of range")
            if assignments[index]:
                low, high = FALSE, u
            else:
                low, high = u, FALSE
            key = (index << 60) | (low << 30) | high
            u = unique.get(key)
            if u is None:
                count = self._count
                if count >= self.node_limit:
                    raise BddOverflowError(
                        f"BDD node table exceeded {self.node_limit} nodes"
                    )
                if count == len(self._var):
                    self._grow_nodes()
                self._var[count] = index
                self._low[count] = low
                self._high[count] = high
                unique[key] = count
                self._count = count + 1
                u = count
        return u

    # -- boolean operations ----------------------------------------------

    def apply(self, op: int, a: int, b: int) -> int:
        """Memoized Shannon apply with the cache and cons probes inlined."""
        if op == OP_AND:
            if a == b:
                return a
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
        elif op == OP_OR:
            if a == b:
                return a
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
        elif op == OP_XOR:
            if a == b:
                return FALSE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == TRUE:
                return self.not_(b)
            if b == TRUE:
                return self.not_(a)
        else:
            raise ValueError(f"unknown binary op {op}")
        if a > b:  # all three ops are commutative: canonicalize the key
            a, b = b, a
        key = (op << 60) | (a << 30) | b
        ckeys = self._ckeys
        slot = (key ^ (key >> 29)) & self._cmask
        if ckeys[slot] == key:
            self.cache_hits += 1
            return self._cvals[slot]
        self.cache_misses += 1
        self.ops += 1
        tvar, tlow, thigh = self._var, self._low, self._high
        var_a, var_b = tvar[a], tvar[b]
        if var_a < var_b:
            top = var_a
            a_low, a_high = tlow[a], thigh[a]
            b_low = b_high = b
        elif var_b < var_a:
            top = var_b
            a_low = a_high = a
            b_low, b_high = tlow[b], thigh[b]
        else:
            top = var_a
            a_low, a_high = tlow[a], thigh[a]
            b_low, b_high = tlow[b], thigh[b]
        low = self.apply(op, a_low, b_low)
        high = self.apply(op, a_high, b_high)
        if low == high:
            result = low
        else:
            ukey = (top << 60) | (low << 30) | high
            unique = self._unique
            result = unique.get(ukey)
            if result is None:
                count = self._count
                if count >= self.node_limit:
                    raise BddOverflowError(
                        f"BDD node table exceeded {self.node_limit} nodes"
                    )
                tvar = self._var
                if count == len(tvar):
                    self._grow_nodes()
                    tvar = self._var
                tvar[count] = top
                self._low[count] = low
                self._high[count] = high
                unique[ukey] = count
                self._count = count + 1
                result = count
        if not ckeys[slot]:
            self._cache_filled += 1
        ckeys[slot] = key
        self._cvals[slot] = result
        return result

    def apply_many(self, op: int, operands: Iterable[int]) -> int:
        """Compile a whole operand set in one balanced pairwise reduction.

        Semantically identical to folding :meth:`apply` left to right
        (the base engine's implementation), but pairs the operands like a
        merge sort: intermediate results stay small and cache-local
        instead of one near-final accumulator being traversed once per
        operand, which is where the bulk-compile win over the dict
        kernel's fold comes from on disjoint predicate sets.
        """
        items = list(operands)
        if not items:
            if op == OP_AND:
                return TRUE
            if op in (OP_OR, OP_XOR):
                return FALSE
            raise ValueError(f"unknown binary op {op}")
        apply_ = self.apply
        while len(items) > 1:
            paired = [
                apply_(op, items[i], items[i + 1])
                for i in range(0, len(items) - 1, 2)
            ]
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def not_(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        key = (OP_NOT << 60) | a
        ckeys = self._ckeys
        slot = (key ^ (key >> 29)) & self._cmask
        if ckeys[slot] == key:
            self.cache_hits += 1
            return self._cvals[slot]
        self.cache_misses += 1
        self.ops += 1
        result = self.mk(
            self._var[a], self.not_(self._low[a]), self.not_(self._high[a])
        )
        if not ckeys[slot]:
            self._cache_filled += 1
        ckeys[slot] = key
        self._cvals[slot] = result
        # Negation is an involution: prime the reverse direction too.
        rkey = (OP_NOT << 60) | result
        rslot = (rkey ^ (rkey >> 29)) & self._cmask
        if not ckeys[rslot]:
            self._cache_filled += 1
        ckeys[rslot] = rkey
        self._cvals[rslot] = a
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if f == g:
            g = TRUE  # ite(f, f, h) == f ∨ h
        elif f == h:
            h = FALSE  # ite(f, g, f) == f ∧ g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self.not_(f)
        if g == TRUE:
            return self.apply(OP_OR, f, h)
        if h == FALSE:
            return self.apply(OP_AND, f, g)
        if g == FALSE:
            return self.apply(OP_AND, self.not_(f), h)
        if h == TRUE:
            return self.apply(OP_OR, self.not_(f), g)
        memo = self._ite_memo
        key = (f, g, h)
        found = memo.get(key)
        if found is not None:
            self.cache_hits += 1
            return found
        self.cache_misses += 1
        self.ops += 1
        tvar = self._var
        top = min(tvar[f], tvar[g], tvar[h])
        if tvar[f] == top:
            f_low, f_high = self._low[f], self._high[f]
        else:
            f_low = f_high = f
        if tvar[g] == top:
            g_low, g_high = self._low[g], self._high[g]
        else:
            g_low = g_high = g
        if tvar[h] == top:
            h_low, h_high = self._low[h], self._high[h]
        else:
            h_low = h_high = h
        result = self.mk(
            top,
            self.ite(f_low, g_low, h_low),
            self.ite(f_high, g_high, h_high),
        )
        if len(memo) >= self.cache_limit:
            memo.clear()  # bounded like the flat cache: drop wholesale
        memo[key] = result
        return result

    def exists(self, u: int, var: int) -> int:
        if u in (FALSE, TRUE):
            return u
        node_var = self._var[u]
        if node_var > var:
            return u
        key = (OP_EXISTS << 60) | (u << NODE_SHIFT) | var
        ckeys = self._ckeys
        slot = (key ^ (key >> 29)) & self._cmask
        if ckeys[slot] == key:
            self.cache_hits += 1
            return self._cvals[slot]
        self.cache_misses += 1
        self.ops += 1
        if node_var == var:
            result = self.apply(OP_OR, self._low[u], self._high[u])
        else:
            result = self.mk(
                node_var,
                self.exists(self._low[u], var),
                self.exists(self._high[u], var),
            )
        if not ckeys[slot]:
            self._cache_filled += 1
        ckeys[slot] = key
        self._cvals[slot] = result
        return result

    # -- caches ----------------------------------------------------------

    def clear_caches(self) -> None:
        """Zero the op-cache slots (the node table itself is kept).

        The old arrays are released before the new ones are allocated,
        and repetition fills them without a ``bytes`` temporary, so the
        engine never holds two op caches at once.
        """
        size = self._cmask + 1
        self._ckeys = self._cvals = None
        self._ckeys = array("q", [0]) * size
        self._cvals = array("i", [0]) * size
        self._cache_filled = 0  # occupied op-cache slots (gauge)
        self._ite_memo.clear()

    # -- garbage collection ----------------------------------------------

    def collect_garbage(
        self, extra_roots: Iterable[int] = ()
    ) -> Dict[int, int]:
        """Mark-and-sweep, compacting the parallel arrays **in place**.

        Survivors only ever move to smaller ids (children stay ahead of
        parents), so one ascending pass rewrites the arrays without
        reallocating them; the unique table is rebuilt in a single dict
        comprehension afterwards.  Same contract as the dict engine:
        returns the old→new remap and remaps registered roots in place.
        """
        old_count = self._count
        if old_count > self.peak_node_count:
            self.peak_node_count = old_count
        live = bytearray(old_count)
        live[FALSE] = live[TRUE] = 1
        stack = [u for u in self._roots]
        stack.extend(u for u in extra_roots if u > TRUE)
        tvar, tlow, thigh = self._var, self._low, self._high
        while stack:
            u = stack.pop()
            if live[u]:
                continue
            live[u] = 1
            low, high = tlow[u], thigh[u]
            if not live[low]:
                stack.append(low)
            if not live[high]:
                stack.append(high)
        remap: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        next_id = 2
        for u in range(2, old_count):
            if not live[u]:
                continue
            remap[u] = next_id
            tvar[next_id] = tvar[u]
            tlow[next_id] = remap[tlow[u]]
            thigh[next_id] = remap[thigh[u]]
            next_id += 1
        self._count = next_id
        self._unique = {
            (tvar[i] << 60) | (tlow[i] << 30) | thigh[i]: i
            for i in range(2, next_id)
        }
        self.clear_caches()  # op memos reference pre-compaction ids
        self._roots = {remap[u]: count for u, count in self._roots.items()}
        self.gc_runs += 1
        self.gc_reclaimed_nodes += old_count - next_id
        return remap

    # -- observability ----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Engine health counters, with the flat kernel's table gauges."""
        lookups = self.cache_hits + self.cache_misses
        if self._count > self.peak_node_count:
            self.peak_node_count = self._count
        return {
            "node_count": self._count,
            "peak_node_count": self.peak_node_count,
            "ops": self.ops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "cache_generation": self.cache_generation,
            "cache_entries": self._cache_filled + len(self._ite_memo),
            "gc_runs": self.gc_runs,
            "gc_reclaimed_nodes": self.gc_reclaimed_nodes,
            "root_count": len(self._roots),
            # -- flat-kernel table gauges (absent on the dict engine) ----
            "kernel_flat": 1.0,
            "cache_capacity": self._cmask + 1,
            "node_capacity": len(self._var),
        }
