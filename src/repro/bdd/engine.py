"""A from-scratch reduced ordered BDD engine.

Each S2 worker owns a *private* engine instance (§4.3 option 2): BDD
operations on one worker never contend with another's, and each node table
stays small.  The table capacity is configurable so the paper's node-table
saturation behaviour (bounded by ``O(2^32)``) can be reproduced at model
scale — exceeding it raises :class:`BddOverflowError`.  It is the one
engine on every path: workers, the DPO controller, the monolithic
verifier and the baselines all build it through
:meth:`HeaderEncoding.make_engine`.

Implementation notes: nodes are hash-consed triples ``(var, low, high)``
stored in parallel lists and addressed by integer id; ``0``/``1`` are the
terminal FALSE/TRUE.  ``mk`` only ever appends, so a node's children
always have smaller ids — the invariant both serialization (children
first) and table compaction lean on.

Binary and unary operations all route through one memoized ``apply``
whose op-cache is **size-bounded with generation-tagged eviction**: when
the live generation fills up it becomes the previous generation and a
fresh dict takes over; lookups consult both and promote hits.  Memo
eviction is always semantically safe (a miss just recomputes), so the
cache footprint stays bounded at roughly ``2 * cache_limit`` entries no
matter how long the engine lives.

Dead nodes are reclaimed by :meth:`collect_garbage`: a mark-and-sweep
from the engine's **external-root registry** (plus any extra roots the
caller passes) followed by node-table **compaction**.  Compaction renames
every surviving node, so the collector returns an ``old id -> new id``
remap which holders of raw BDD ints (predicate tables, packet buffers)
apply to their own state; registered roots are remapped in place.

Recursion depth is bounded by the variable count (packet headers are at
most a few hundred bits), so plain recursion is safe and fast.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

FALSE = 0
TRUE = 1

# Op tags for the unified apply cache.  Binary op keys are (op, a, b) with
# a <= b for the commutative ops; ITE keys are (OP_ITE, f, g, h).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3
OP_EXISTS = 4
OP_ITE = 5

DEFAULT_CACHE_LIMIT = 1 << 18


class BddOverflowError(RuntimeError):
    """The node table exceeded its configured capacity."""


class BddEngine:
    """A reduced, ordered BDD manager over ``num_vars`` Boolean variables."""

    def __init__(
        self,
        num_vars: int,
        node_limit: int = 1 << 24,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        if num_vars <= 0:
            raise ValueError("num_vars must be positive")
        if cache_limit <= 0:
            raise ValueError("cache_limit must be positive")
        self.num_vars = num_vars
        self.node_limit = node_limit
        self.cache_limit = cache_limit
        # Optional observability hook: the owning worker points this at
        # its tracer so op *batches* (never individual applies) can be
        # spanned; None keeps the engine entirely tracing-free.
        self.tracer = None
        # Parallel arrays indexed by node id; slots 0/1 are terminals and
        # carry a sentinel variable one past the last real level.
        self._var: List[int] = [num_vars, num_vars]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Two-generation bounded op-cache (current + previous).
        self._cache: Dict[Tuple[int, ...], int] = {}
        self._cache_old: Dict[Tuple[int, ...], int] = {}
        self.ops = 0  # performed (cache-missing) apply steps
        # -- counters (exposed via counters() / repro.obs.metrics) --
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_generation = 0  # eviction (rotation) count
        self.gc_runs = 0
        self.gc_reclaimed_nodes = 0
        self.peak_node_count = 2  # largest table a collection started from
        # External-root registry: node id -> refcount.  GC keeps exactly
        # these (plus terminals plus caller-passed extras) alive.
        self._roots: Dict[int, int] = {}

    # -- structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._var)

    @property
    def node_count(self) -> int:
        return len(self._var)

    def var_of(self, u: int) -> int:
        return self._var[u]

    def low_of(self, u: int) -> int:
        return self._low[u]

    def high_of(self, u: int) -> int:
        return self._high[u]

    def mk(self, var: int, low: int, high: int) -> int:
        """Hash-consed node constructor (the only way nodes are created)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._var) >= self.node_limit:
            raise BddOverflowError(
                f"BDD node table exceeded {self.node_limit} nodes"
            )
        node_id = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node_id
        return node_id

    # -- literals ------------------------------------------------------------

    def var(self, index: int) -> int:
        """The BDD for "variable ``index`` is 1"."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable {index} out of range")
        return self.mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """The BDD for "variable ``index`` is 0"."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable {index} out of range")
        return self.mk(index, TRUE, FALSE)

    def cube(self, assignments: Dict[int, bool]) -> int:
        """Conjunction of literals, built bottom-up without apply calls."""
        u = TRUE
        for index in sorted(assignments, reverse=True):
            if not 0 <= index < self.num_vars:
                raise ValueError(f"variable {index} out of range")
            if assignments[index]:
                u = self.mk(index, FALSE, u)
            else:
                u = self.mk(index, u, FALSE)
        return u

    # -- the bounded op-cache ------------------------------------------------

    def _cache_get(self, key: Tuple[int, ...]) -> Optional[int]:
        found = self._cache.get(key)
        if found is None:
            found = self._cache_old.get(key)
            if found is not None:
                # Promote into the live generation — and rotate if that
                # fills it, exactly like _cache_put, so a hit-dominated
                # phase cannot grow _cache past cache_limit.
                cache = self._cache
                cache[key] = found
                if len(cache) >= self.cache_limit:
                    self._cache_old = cache
                    self._cache = {}
                    self.cache_generation += 1
        if found is not None:
            self.cache_hits += 1
            return found
        self.cache_misses += 1
        return None

    def _cache_put(self, key: Tuple[int, ...], value: int) -> None:
        cache = self._cache
        cache[key] = value
        if len(cache) >= self.cache_limit:
            # Generation-tagged eviction: the filled generation becomes
            # the previous one (still consulted, read-only), the oldest
            # generation is dropped wholesale.  O(1), no per-entry LRU.
            self._cache_old = cache
            self._cache = {}
            self.cache_generation += 1

    # -- boolean operations --------------------------------------------------

    def apply(self, op: int, a: int, b: int) -> int:
        """Unified memoized Shannon-expansion apply for the binary ops."""
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
        key = (op, a, b)
        found = self._cache_get(key)
        if found is not None:
            return found
        self.ops += 1
        var_a, var_b = self._var[a], self._var[b]
        top = min(var_a, var_b)
        a_low, a_high = (
            (self._low[a], self._high[a]) if var_a == top else (a, a)
        )
        b_low, b_high = (
            (self._low[b], self._high[b]) if var_b == top else (b, b)
        )
        result = self.mk(
            top, self.apply(op, a_low, b_low), self.apply(op, a_high, b_high)
        )
        self._cache_put(key, result)
        return result

    def apply_many(self, op: int, operands: Iterable[int]) -> int:
        """Combine a whole operand set under one binary op.

        A left-to-right fold of :meth:`apply`.  Empty operand sets return
        the op's identity.
        """
        items = iter(operands)
        first = next(items, None)
        if first is None:
            if op == OP_AND:
                return TRUE
            if op in (OP_OR, OP_XOR):
                return FALSE
            raise ValueError(f"unknown binary op {op}")
        result = first
        for operand in items:
            result = self.apply(op, result, operand)
        return result

    def and_(self, a: int, b: int) -> int:
        return self.apply(OP_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self.apply(OP_OR, a, b)

    def xor(self, a: int, b: int) -> int:
        return self.apply(OP_XOR, a, b)

    def not_(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        key = (OP_NOT, a)
        found = self._cache_get(key)
        if found is not None:
            return found
        self.ops += 1
        result = self.mk(
            self._var[a], self.not_(self._low[a]), self.not_(self._high[a])
        )
        self._cache_put(key, result)
        self._cache_put((OP_NOT, result), a)  # negation is an involution
        return result

    def diff(self, a: int, b: int) -> int:
        """Set difference ``a ∧ ¬b``."""
        return self.and_(a, self.not_(b))

    def implies(self, a: int, b: int) -> bool:
        """True when the packet set ``a`` is a subset of ``b``."""
        return self.diff(a, b) == FALSE

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else ``(f ∧ g) ∨ (¬f ∧ h)`` as a first-class operation.

        Normalized before the cache is consulted: terminal cases return
        immediately, ``ite(f, f, h)`` / ``ite(f, g, f)`` collapse their
        redundant argument, and two-operand shapes are delegated to the
        cheaper binary ops so they share those cache entries.
        """
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
            return self.or_(f, h)
        if h == FALSE:
            return self.and_(f, g)
        if g == FALSE:
            return self.and_(self.not_(f), h)
        if h == TRUE:
            return self.or_(self.not_(f), g)
        key = (OP_ITE, f, g, h)
        found = self._cache_get(key)
        if found is not None:
            return found
        self.ops += 1
        top = min(self._var[f], self._var[g], self._var[h])

        def cofactors(u: int) -> Tuple[int, int]:
            if self._var[u] == top:
                return self._low[u], self._high[u]
            return u, u

        f_low, f_high = cofactors(f)
        g_low, g_high = cofactors(g)
        h_low, h_high = cofactors(h)
        result = self.mk(
            top,
            self.ite(f_low, g_low, h_low),
            self.ite(f_high, g_high, h_high),
        )
        self._cache_put(key, result)
        return result

    def exists(self, u: int, var: int) -> int:
        """Existential quantification of one variable."""
        if u in (FALSE, TRUE):
            return u
        node_var = self._var[u]
        if node_var > var:
            return u
        key = (OP_EXISTS, u, var)
        found = self._cache_get(key)
        if found is not None:
            return found
        self.ops += 1
        if node_var == var:
            result = self.or_(self._low[u], self._high[u])
        else:
            result = self.mk(
                node_var,
                self.exists(self._low[u], var),
                self.exists(self._high[u], var),
            )
        self._cache_put(key, result)
        return result

    def set_var(self, u: int, var: int, value: bool) -> int:
        """Force ``var`` to ``value`` in every packet of ``u``.

        This is the waypoint "write rule" (§4.4): quantify the bit away,
        then conjoin the literal.
        """
        literal = self.var(var) if value else self.nvar(var)
        return self.and_(self.exists(u, var), literal)

    # -- analysis ---------------------------------------------------------------------

    def sat_count(self, u: int, over_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments.

        By default counts over all ``num_vars`` variables.  With
        ``over_vars`` given, counts over the first ``over_vars`` variables
        only — ``u`` must not depend on any later variable (checked).
        """
        width = self.num_vars if over_vars is None else over_vars
        if width < self.num_vars:
            support = self.support(u)
            if support and support[-1] >= width:
                raise ValueError(
                    f"BDD depends on variable {support[-1]} >= {width}"
                )
        memo: Dict[int, int] = {FALSE: 0, TRUE: 1}

        def count(node: int) -> int:
            """Assignments over variables [var(node), num_vars)."""
            found = memo.get(node)
            if found is not None:
                return found
            var = self._var[node]
            low, high = self._low[node], self._high[node]
            total = count(low) * (1 << (self._var[low] - var - 1)) + count(
                high
            ) * (1 << (self._var[high] - var - 1))
            memo[node] = total
            return total

        if u == FALSE:
            return 0
        full = count(u) << self._var[u]  # extend below the root to var 0
        return full >> (self.num_vars - width)

    def any_sat(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (unset variables are free), or None."""
        if u == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        while u != TRUE:
            if self._low[u] != FALSE:
                assignment[self._var[u]] = False
                u = self._low[u]
            else:
                assignment[self._var[u]] = True
                u = self._high[u]
        return assignment

    def support(self, u: int) -> List[int]:
        """The variables ``u`` actually depends on, ascending."""
        seen = set()
        result = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node in (FALSE, TRUE) or node in seen:
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(result)

    def nodes_of(self, u: int) -> Iterator[Tuple[int, int, int, int]]:
        """Reachable nodes of ``u`` as (id, var, low, high), children first.

        This is the serialization order: every child id precedes its
        parents, so a consumer can rebuild bottom-up with plain ``mk``.
        """
        seen = set()
        order: List[int] = []

        def visit(node: int) -> None:
            if node in (FALSE, TRUE) or node in seen:
                return
            seen.add(node)
            visit(self._low[node])
            visit(self._high[node])
            order.append(node)

        visit(u)
        for node in order:
            yield node, self._var[node], self._low[node], self._high[node]

    def size_of(self, u: int) -> int:
        """Number of internal nodes reachable from ``u``."""
        return sum(1 for _ in self.nodes_of(u))

    def clear_caches(self) -> None:
        """Drop operation memos (the node table itself is kept)."""
        self._cache.clear()
        self._cache_old.clear()

    # -- external-root registry + garbage collection ----------------------

    def add_root(self, u: int) -> int:
        """Protect ``u`` (and everything reachable from it) across GC.

        Refcounted: the same id may be registered by several holders.
        Terminals need no protection and are ignored.  Returns ``u``.
        """
        if u > TRUE:
            self._roots[u] = self._roots.get(u, 0) + 1
        return u

    def remove_root(self, u: int) -> None:
        """Drop one protection refcount of ``u`` (no-op for terminals)."""
        if u <= TRUE:
            return
        count = self._roots.get(u)
        if count is None:
            return
        if count <= 1:
            del self._roots[u]
        else:
            self._roots[u] = count - 1

    def clear_roots(self) -> None:
        self._roots.clear()

    @property
    def root_count(self) -> int:
        return len(self._roots)

    def collect_garbage(
        self, extra_roots: Iterable[int] = ()
    ) -> Dict[int, int]:
        """Mark-and-sweep from the root registry, then compact the table.

        Everything reachable from the registered roots plus
        ``extra_roots`` survives; every other node is reclaimed and the
        parallel arrays are compacted (ids are renamed).  Returns the
        ``old id -> new id`` remap over surviving nodes (terminals map to
        themselves) so callers holding raw ints can rewrite them;
        registered roots are remapped in place.  Op caches reference old
        ids and are flushed.
        """
        old_count = len(self._var)
        if old_count > self.peak_node_count:
            self.peak_node_count = old_count
        # -- mark ---------------------------------------------------------
        live = bytearray(old_count)
        live[FALSE] = live[TRUE] = 1
        stack: List[int] = [u for u in self._roots]
        stack.extend(u for u in extra_roots if u > TRUE)
        lows, highs = self._low, self._high
        while stack:
            u = stack.pop()
            if live[u]:
                continue
            live[u] = 1
            low, high = lows[u], highs[u]
            if not live[low]:
                stack.append(low)
            if not live[high]:
                stack.append(high)
        # -- sweep + compact ----------------------------------------------
        # Children always have smaller ids than their parents, so one
        # ascending pass can rewrite child pointers as it goes.
        remap: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        new_var = [self.num_vars, self.num_vars]
        new_low = [FALSE, TRUE]
        new_high = [FALSE, TRUE]
        variables = self._var
        for u in range(2, old_count):
            if not live[u]:
                continue
            remap[u] = len(new_var)
            new_var.append(variables[u])
            new_low.append(remap[lows[u]])
            new_high.append(remap[highs[u]])
        self._var, self._low, self._high = new_var, new_low, new_high
        self._unique = {
            (new_var[i], new_low[i], new_high[i]): i
            for i in range(2, len(new_var))
        }
        self._cache = {}
        self._cache_old = {}
        self._roots = {
            remap[u]: count for u, count in self._roots.items()
        }
        self.gc_runs += 1
        self.gc_reclaimed_nodes += old_count - len(new_var)
        return remap

    # -- observability ----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Engine health counters, ready for ``repro.obs.metrics``.

        Read-only (scalars and ``len()``), so another thread may take
        them mid-operation.  The table only grows between collections,
        and each collection records the size it started from, so the
        high water is that record or the current size.
        """
        lookups = self.cache_hits + self.cache_misses
        nodes = len(self._var)
        return {
            "node_count": nodes,
            "peak_node_count": max(self.peak_node_count, nodes),
            "ops": self.ops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "cache_generation": self.cache_generation,
            "cache_entries": len(self._cache) + len(self._cache_old),
            "gc_runs": self.gc_runs,
            "gc_reclaimed_nodes": self.gc_reclaimed_nodes,
            "root_count": len(self._roots),
        }

    def batch(self, name: str, **attrs):
        """Span one batch of BDD work (predicate compile, forward wave).

        The per-apply hot path stays untouched: the batch span reads the
        ``ops``/``node_count`` counters at entry and exit and records the
        deltas as attributes.  With no tracer attached (the default) this
        returns the shared no-op span.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            from ..obs.tracer import NULL_SPAN

            return NULL_SPAN
        return _EngineBatch(self, tracer, name, attrs)


class _EngineBatch:
    """Context manager recording one engine op batch as a span."""

    __slots__ = ("_engine", "_span", "_ops", "_nodes")

    def __init__(self, engine: BddEngine, tracer, name: str, attrs) -> None:
        self._engine = engine
        self._span = tracer.span(name, category="bdd", **attrs)

    def __enter__(self) -> "_EngineBatch":
        self._ops = self._engine.ops
        self._nodes = self._engine.node_count
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._span.set(
            ops=self._engine.ops - self._ops,
            nodes_allocated=self._engine.node_count - self._nodes,
            node_count=self._engine.node_count,
        )
        return self._span.__exit__(*exc)

    def set(self, **attrs) -> "_EngineBatch":
        self._span.set(**attrs)
        return self
