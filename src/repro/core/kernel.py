"""The unrolled layered DAG and its array-backed execution kernel.

Every algorithm in the library — exact counting (Section 6.2's DP),
Lemma-15 enumeration, exact uniform generation, the length-spectrum
sweeps and the FPRAS's prefix-set bookkeeping — consumes the same object:
the automaton unrolled ``n`` times into a layered DAG whose vertices are
``(layer, state)`` pairs.  Its live layers come from one function,
:func:`unroll_layers`: forward reach from the start (the reachable view
of Algorithm 5, step 3) and, when trimmed, the Lemma 15 pruning to
vertices that also reach a final vertex (the enumeration and sampling
view).

:class:`CompiledDAG` stores those layers in dense, integer-indexed
arrays:

* per layer ``t``, the live states in a fixed total order (sorted by
  ``repr``, the edge order Algorithm 1 requires), with an index map
  state → local integer;
* per layer, a CSR-style flat edge list ``(src_idx, symbol_idx,
  dst_idx)`` sorted per source by ``(repr(symbol), repr(target))``;
* forward/backward run-count tables stored as ``array('q')`` when every
  entry fits a machine word, spilling to plain Python lists when the
  bignum counts overflow 64 bits — exactness is never sacrificed;
* a lazily built reverse CSR for backward walks (the FPRAS's
  ``T_b(s_i^α)`` queries).

All computation streams over integer arrays.  Set-based views
(``layer`` / ``successors`` / ``predecessors`` / ...) keep the
correspondence with the paper's ``s_t^j`` vertices direct: ``s_t^j`` is
live ⟺ ``j in kernel.layer(t)``.

Reachable-mode kernels additionally support *incremental length
extension* (:meth:`CompiledDAG.extend_to`): appending layers to an
existing compilation instead of recompiling from scratch, which turns
length-spectrum sweeps from quadratic into linear total work.

Every layer applies the same transition relation, so the layers turn
periodic after a short transient.  :func:`unroll_layers` steps each
distinct layer once and interns equal layers to one frozenset; the
kernel gives equal layers one sorted state tuple, one index map and one
``final_indices`` tuple, and equal ``(t, t + 1)`` layer pairs one CSR
block.  Layers are shared only under the *exact-type rule*
(:func:`_exact_layer`): layer 0 and every successor set hold only
states that are exactly ``int`` or ``str``, or only tuples of them.
``1`` and ``True``, or ``(1, 2)`` and ``(True, 2)``, are equal without
being interchangeable, so a source that reaches such states is lowered
unshared.  Nothing mutates a shared block in place:
:meth:`CompiledDAG.extend_to` appends, and copying a borrowed kernel
onto owned arrays replaces list entries.

The kernel is *source-generic*: construction only reads the NFA
interface (``initial`` / ``finals`` membership / ``out_edges`` /
``alphabet`` / ``has_epsilon``).  Every kernel is built by the one
lowering, :func:`repro.core.plan.lower_plan`, which hands it a memoized
plan source; a concrete automaton is lowered as its
:class:`~repro.core.plan.Atom` (:func:`compile_nfa`).  Composite plans
carry their :class:`~repro.core.plan.LoweringStats` in
:attr:`CompiledDAG.lowering`; it is ``None`` for ``Atom`` roots.
"""

from __future__ import annotations

from array import array
from itertools import chain
from random import Random
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Collection,
    Container,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    TypeAlias,
)

from repro.automata.nfa import NFA, State, Symbol, Word
from repro.core import accel as _accel
from repro.errors import EmptyWitnessSetError, InvalidAutomatonError
from repro.obs import metrics as _obs_metrics
from repro.obs import names as metric_names

if TYPE_CHECKING:
    import os

    from repro.core.accel import NumpyAccel
    from repro.core.plan import LoweringStats

#: Largest count representable in the packed ``array('q')`` spine.
_INT64_MAX = 2**63 - 1

#: One run-count row: packed when every entry fits int64, spilled to a
#: plain list when the bignum counts overflow — or, on an mmap-restored
#: kernel, an int64 ``memoryview`` borrowed from the snapshot buffer.
#: All three answer ``row[i]`` with a Python int, so consumers never
#: branch.
CountRow: TypeAlias = "array[int] | list[int] | memoryview[int]"

#: One CSR integer block (offsets / symbol indices / dst indices);
#: borrowed as an int64 ``memoryview`` on mmap-restored kernels.
_IntArray: TypeAlias = "array[int] | memoryview[int]"


class AutomatonSource(Protocol):
    """The read interface kernel compilation needs from its source.

    Satisfied by :class:`~repro.automata.nfa.NFA`, by the memoized
    symbolic source :func:`repro.core.plan.lower_plan` builds, and by
    the snapshot stand-in a restored kernel carries.
    """

    @property
    def initial(self) -> State: ...

    @property
    def finals(self) -> Container[State]: ...

    @property
    def alphabet(self) -> AbstractSet[Symbol]: ...

    @property
    def has_epsilon(self) -> bool: ...

    def out_edges(self, state: State) -> Iterable[tuple[Symbol, State]]: ...


#: State types whose equal values are interchangeable: two equal ints,
#: strings or tuples of them have the same types, which is not so for
#: ``1``, ``True`` and ``1.0``, ``0.0`` and ``-0.0``, or ``(1, 2)`` and
#: ``(True, 2)`` (their ``repr``, hence the kernel order, differs).
_EXACT = frozenset({int, str})


def _exact_layer(states: Collection[State]) -> bool:
    """The exact-type rule: every state is exactly an ``int`` or ``str``,
    or every state is a tuple of them.  Equal layers that pass it hold
    the same states, so they may be shared."""
    kinds = set(map(type, states))
    return _EXACT.issuperset(kinds) or (
        kinds == {tuple} and _EXACT.issuperset(map(type, chain.from_iterable(states)))
    )


def _index_map(states: Sequence[State]) -> dict[State, int]:
    """A layer's state → local index map."""
    return dict(zip(states, range(len(states))))


def _pack_counts(counts: list[int]) -> CountRow:
    """Pack a per-layer count row into ``array('q')``, spilling to a list.

    The spill keeps exact bignum arithmetic available: both containers
    answer ``row[i]`` with a Python int, so consumers never branch.
    """
    if counts and max(counts) > _INT64_MAX:
        return counts
    return array("q", counts)


def unroll_layers(
    source: AutomatonSource,
    n: int,
    trimmed: bool,
    first: frozenset[State] | None = None,
) -> tuple[list[frozenset[State]], list[frozenset[State]]]:
    """The live layers of ``source`` unrolled ``n`` times (Section 6.2).

    Returns ``(forward, live)``.  ``forward[t]`` holds the states reached
    from layer 0 in exactly ``t`` steps; layer 0 is ``first``, by default
    ``{source.initial}``.  ``live`` is ``forward`` itself (the reachable
    view of Algorithm 5, step 3) or, when ``trimmed``, its Lemma 15
    pruning: a state stays live at layer ``t`` iff it also reaches a
    final state in the remaining ``n - t`` steps.

    A state's successors do not depend on its layer, so each state's
    successor set is computed once per call and shared by every layer
    and by both passes.  For the same reason the forward step of a layer,
    and the Lemma 15 prune of a ``(forward[t], live[t + 1])`` pair, are
    computed once, and equal layers are interned to one frozenset: once
    the layers turn periodic, a step is a dict lookup.  This holds while
    layer 0 and every successor set pass the exact-type rule.  A
    successor set of other types turns sharing off and the forward pass
    starts over: which of two equal states of different types (``1`` and
    ``True``) a union keeps depends on the order it meets them, and an
    interned layer may iterate in another order than the one it replaced.
    """
    forward, live, _ = _unroll(source, n, trimmed, first)
    return forward, live


def _unroll(
    source: AutomatonSource,
    n: int,
    trimmed: bool,
    first: frozenset[State] | None,
) -> tuple[list[frozenset[State]], list[frozenset[State]], bool]:
    """:func:`unroll_layers`, and whether layer 0 and every successor
    set passed the exact-type rule (the layers were shared)."""
    if n < 0:
        raise ValueError("word length must be ≥ 0")
    out_edges = source.out_edges
    after: dict[State, frozenset[State]] = {}
    start = frozenset({source.initial}) if first is None else first
    interned: dict[frozenset[State], frozenset[State]] = {}

    def reach(share: bool) -> list[frozenset[State]] | None:
        """The forward layers, or None once sharing meets another type."""
        stepped: dict[frozenset[State], frozenset[State]] = {}
        forward = [interned.setdefault(start, start) if share else start]
        for _ in range(n):
            current = forward[-1]
            reached = stepped.get(current) if share else None
            if reached is None:
                states: set[State] = set()
                for state in current:
                    targets = after.get(state)
                    if targets is None:
                        targets = frozenset(target for _, target in out_edges(state))
                        after[state] = targets
                        if share and not _exact_layer(targets):
                            return None
                    states |= targets
                reached = frozenset(states)
                if share:
                    reached = stepped[current] = interned.setdefault(reached, reached)
            forward.append(reached)
        return forward

    share = _exact_layer(start)
    forward = reach(True) if share else None
    if forward is None:
        share = False
        after.clear()
        forward = reach(False)
        assert forward is not None  # only a sharing pass gives up
    if not trimmed:
        return forward, forward, share
    finals = source.finals
    # Built back to front, then reversed into layer order.
    last = frozenset(state for state in forward[n] if state in finals)
    live = [interned.setdefault(last, last) if share else last]
    pruned: dict[tuple[frozenset[State], frozenset[State]], frozenset[State]] = {}
    for t in range(n - 1, -1, -1):
        layer, later = forward[t], live[-1]
        kept = pruned.get((layer, later)) if share else None
        if kept is None:
            kept = frozenset(
                state for state in layer if not later.isdisjoint(after[state])
            )
            if share:
                kept = pruned[layer, later] = interned.setdefault(kept, kept)
        live.append(kept)
    live.reverse()
    return forward, live, share


class CompiledDAG:
    """Integer-indexed compilation of an unrolled layered DAG.

    Parameters
    ----------
    nfa:
        The underlying ε-free automaton — or any source exposing the
        same read interface (``initial``, ``finals`` membership,
        ``out_edges``, ``alphabet``, ``has_epsilon``), e.g. the memoized
        plan source :func:`repro.core.plan.lower_plan` builds.
    n:
        The word length (number of symbol layers).
    trimmed:
        ``True`` for the Lemma 15 pruning (every vertex lies on a
        start→final path — the enumeration/sampling view), ``False`` for
        reachable-only vertices (the FPRAS / spectrum view, which also
        supports :meth:`extend_to`).
    layers:
        Optional precomputed live-state sets, one frozenset per layer
        (the ``live`` half of :func:`unroll_layers`, which
        :func:`~repro.core.plan.lower_plan` computes for its stats);
        when omitted they are computed from the source.

    Layers that are the same frozenset (:func:`unroll_layers` interns
    equal layers under the exact-type rule) share one sorted state tuple,
    one index map and one ``final_indices`` tuple; ``_twin[t]`` is the
    first layer whose objects layer ``t`` holds.  Layer pairs with the
    same twins share one CSR block.  Count rows stay per layer, and no
    shared object is mutated in place.
    """

    __slots__ = (
        "nfa",
        "n",
        "trimmed",
        "symbols",
        "_symbol_index",
        "_states",
        "_index",
        "_twin",
        "_edge_start",
        "_edge_symbol",
        "_edge_dst",
        "_redge",
        "_forward",
        "_backward",
        "_layer_sets",
        "_finals_idx",
        "lowering",
        "_backend",
        "_backend_settled",
        "_accel_state",
        "_borrow_owner",
    )

    nfa: AutomatonSource
    n: int
    trimmed: bool
    symbols: tuple[Symbol, ...]
    _symbol_index: dict[Symbol, int]
    _states: list[tuple[State, ...]]
    _index: list[dict[State, int]]
    _twin: list[int]
    _edge_start: list[_IntArray]
    _edge_symbol: list[_IntArray]
    _edge_dst: list[_IntArray]
    _redge: dict[int, tuple[_IntArray, _IntArray, _IntArray]]
    _forward: list[CountRow] | None
    _backward: list[CountRow] | None
    _layer_sets: dict[int, frozenset[State]]
    _finals_idx: dict[int, tuple[int, ...]]
    lowering: LoweringStats | None
    _backend: NumpyAccel | None
    _backend_settled: bool
    _accel_state: dict[tuple[str, int], object]
    _borrow_owner: object | None

    def __init__(
        self,
        nfa: AutomatonSource,
        n: int,
        trimmed: bool,
        layers: Sequence[frozenset[State]] | None = None,
    ) -> None:
        if nfa.has_epsilon:
            raise InvalidAutomatonError("kernel compilation requires an ε-free NFA")
        if n < 0:
            raise ValueError("word length must be ≥ 0")
        self.nfa = nfa
        self.n = n
        self.trimmed = trimmed
        if layers is None:
            _, layers = unroll_layers(nfa, n, trimmed)
        self.symbols = tuple(sorted(nfa.alphabet, key=repr))
        self._symbol_index = {s: i for i, s in enumerate(self.symbols)}
        self._states = []
        self._index = []
        self._twin = []
        self._edge_start = []
        self._edge_symbol = []
        self._edge_dst = []
        self._layer_sets = {}
        self._add_layers(layers)
        self._redge = {}
        self._forward = None
        self._backward = None
        self._finals_idx = {}
        #: LoweringStats when this kernel came from a plan lowering.
        self.lowering = None
        # The execution backend is settled later (see `accel`).
        self._backend = None
        self._backend_settled = False
        #: Per-kernel caches owned by the accel backend (NumPy views of
        #: the CSR arrays and derived per-layer arrays).
        self._accel_state = {}
        #: The buffer (e.g. an mmap) whose memory this kernel borrows;
        #: None when every array is owned.  See kernel_from_mmap.
        self._borrow_owner = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def set_kernel_backend(self, name: str | None) -> "CompiledDAG":
        """Select the execution backend (``"pure"``, ``"numpy"``, ``"auto"``).

        ``None`` re-reads ``$REPRO_KERNEL_BACKEND`` (default pure).  The
        NumPy backend silently falls back to the pure path when NumPy is
        not importable — results are bit-identical either way, so the
        choice is purely about speed.  Returns ``self`` for chaining.
        """
        self.accel = _accel.resolve(name)
        return self

    @property
    def accel(self) -> NumpyAccel | None:
        """The execution backend (``None`` = the canonical pure path).

        Construction and snapshot restore leave it unsettled.  It is
        settled by an assignment (:meth:`set_kernel_backend`, the
        facade) or else by the first read, which takes
        ``$REPRO_KERNEL_BACKEND``'s default.  Each settling counts the
        kernel in ``repro_kernel_backend_total`` under the backend it
        then runs on, so a kernel whose owner picks its backend is never
        counted under the default as well.
        """
        if not self._backend_settled:
            self.accel = _accel.resolve(None)
        return self._backend

    @accel.setter
    def accel(self, backend: NumpyAccel | None) -> None:
        self._backend = backend
        self._backend_settled = True
        self._accel_state = {}
        _obs_metrics().counter(
            metric_names.KERNEL_BACKEND_SELECTED,
            labels={"backend": backend.name if backend is not None else "pure"},
        ).inc()

    @property
    def kernel_backend(self) -> str:
        """Name of the active execution backend (``"numpy"`` / ``"pure"``)."""
        return self.accel.name if self.accel is not None else "pure"

    def _note_spill(self, site: str) -> None:
        """Count one accel → pure fallback (the backend declined the
        call — e.g. bignum-spilled rows NumPy int64 cannot hold)."""
        _obs_metrics().counter(
            metric_names.ACCEL_SPILLS, labels={"site": site}
        ).inc()

    def _add_layers(self, layers: Iterable[frozenset[State]]) -> None:
        """Append ``layers`` after the kernel's last layer, each with the
        CSR block from the layer before it.

        A layer that is the same object as an earlier one of ``layers``,
        or as the kernel's last layer, takes that layer's state tuple and
        index map; a layer pair whose twins repeat an earlier pair's
        takes that pair's CSR block.
        """
        states, index, twin = self._states, self._index, self._twin
        seen: dict[frozenset[State], tuple[frozenset[State], int]] = {}
        if states:
            last = self.layer(len(states) - 1)
            seen[last] = (last, twin[-1])
        blocks: dict[tuple[int, int], int] = {}
        for layer in layers:
            t = len(states)
            entry = seen.get(layer)
            if entry is not None and entry[0] is layer:
                first = entry[1]
                states.append(states[first])
                index.append(index[first])
            else:
                first = t
                seen[layer] = (layer, t)
                ordered = tuple(sorted(layer, key=repr))
                states.append(ordered)
                index.append(_index_map(ordered))
            twin.append(first)
            if not t:
                continue
            block = blocks.setdefault((twin[t - 1], first), t - 1)
            if block == t - 1:
                self._append_edge_layer(t - 1)
            else:
                for arrays in (self._edge_start, self._edge_symbol, self._edge_dst):
                    arrays.append(arrays[block])

    def _append_edge_layer(self, t: int) -> None:
        """Build the CSR edge block for layer ``t`` → ``t + 1``."""
        index_next = self._index[t + 1]
        symbol_index = self._symbol_index
        offsets = array("l", [0])
        edge_symbol = array("l")
        edge_dst = array("l")
        out_edges = self.nfa.out_edges
        for state in self._states[t]:
            edges = []
            for symbol, target in out_edges(state):
                j = index_next.get(target)
                if j is not None:
                    edges.append((symbol_index[symbol], j))
            # Symbol indices and dst indices are both assigned in repr
            # order, so this integer sort is the (repr(symbol),
            # repr(state)) order Algorithm 1 walks.
            edges.sort()
            for symbol_i, j in edges:
                edge_symbol.append(symbol_i)
                edge_dst.append(j)
            offsets.append(len(edge_symbol))
        self._edge_start.append(offsets)
        self._edge_symbol.append(edge_symbol)
        self._edge_dst.append(edge_dst)

    def extend_to(self, new_n: int) -> "CompiledDAG":
        """Extend a reachable-mode compilation to length ``new_n`` in place.

        Appends layers ``n+1 .. new_n`` (and their edge blocks and —
        when already built — forward count rows) without recompiling the
        prefix, so a length sweep costs the same as one compilation at
        the final length.  A source that reaches equal states of other
        types (outside the exact-type rule) steps the forward pass again
        from layer 0, keeping the prefix's arrays, so that the new layers
        equal a fresh compilation's.  Trimmed kernels cannot be extended:
        Lemma 15 pruning depends on the final layer, so extension would
        invalidate every earlier layer.
        """
        if self.trimmed:
            raise InvalidAutomatonError(
                "incremental extension requires a reachable-mode kernel "
                "(trimmed pruning depends on the final layer)"
            )
        if new_n <= self.n:
            return self
        if self._borrow_owner is not None:
            # An mmap-restored kernel borrows its arrays from the
            # snapshot buffer; appending layers must never mutate (or
            # resize away from) memory the store still owns, so the
            # kernel first copies itself onto owned arrays.
            self._materialize_owned()
        grown, _, exact = _unroll(self.nfa, new_n - self.n, False, self.layer(self.n))
        if not exact:
            # Which of two equal states of other types a layer keeps
            # depends on the order its union meets them, and layer n,
            # rebuilt from its sorted tuple, may iterate in another order
            # than the unrolling's.  Unrolling again from layer 0 gives
            # the layers a kernel compiled at new_n has.
            grown, _, _ = _unroll(self.nfa, new_n, False, None)
            grown = grown[self.n :]
        self._add_layers(grown[1:])
        if self._forward is not None:
            for t in range(self.n, new_n):
                row = (
                    self.accel.forward_step_row(self, t, self._forward[t])
                    if self.accel is not None
                    else None
                )
                if row is None:
                    if self.accel is not None:
                        self._note_spill("forward_step_row")
                    row = _pack_counts(self._forward_step(t, self._forward[t]))
                self._forward.append(row)
        self.n = new_n
        # Backward counts and final-layer adapters depend on n; drop
        # them (forward rows stay valid), and the accel caches with them.
        self._backward = None
        self._finals_idx.clear()
        self._accel_state = {}
        return self

    def _materialize_owned(self) -> None:
        """Copy every borrowed (snapshot-backed) buffer into owned arrays.

        After this the kernel holds no reference into its snapshot
        buffer: edge blocks become fresh ``array('l')`` and count rows
        fresh ``array('q')`` (byte-identical contents — the borrow mode
        only engages on LP64), so in-place mutation is safe and the
        buffer can be unmapped.
        """
        for blocks in (self._edge_start, self._edge_symbol, self._edge_dst):
            for t, block in enumerate(blocks):
                if isinstance(block, memoryview):
                    fresh = array("l")
                    fresh.frombytes(block.tobytes())
                    blocks[t] = fresh
        for table in (self._forward, self._backward):
            if table is None:
                continue
            for t, row in enumerate(table):
                if isinstance(row, memoryview):
                    owned = array("q")
                    owned.frombytes(row.tobytes())
                    table[t] = owned
        self._accel_state = {}
        self._borrow_owner = None

    # ------------------------------------------------------------------
    # Integer-level structure
    # ------------------------------------------------------------------

    def layer_size(self, t: int) -> int:
        """Number of live states at layer ``t``."""
        return len(self._states[t])

    def layer_states(self, t: int) -> tuple[State, ...]:
        """Live states at layer ``t`` in index (= repr) order."""
        return self._states[t]

    def state_at(self, t: int, i: int) -> State:
        """The state object behind index ``i`` of layer ``t``."""
        return self._states[t][i]

    def index_of(self, t: int, state: State) -> int | None:
        """Local index of ``state`` at layer ``t`` (None when not live)."""
        return self._index[t].get(state)

    def symbol_at(self, i: int) -> Symbol:
        """The symbol object behind symbol index ``i``."""
        return self.symbols[i]

    def out_edge_range(self, t: int, i: int) -> tuple[int, int]:
        """Offsets ``[start, end)`` of vertex ``(t, i)``'s edges in the flat arrays."""
        starts = self._edge_start[t]
        return starts[i], starts[i + 1]

    def final_indices(self, t: int) -> tuple[int, ...]:
        """Indices of accepting states at layer ``t`` (ascending)."""
        cached = self._finals_idx.get(t)
        if cached is None:
            twin = self._twin[t]
            if twin != t:
                cached = self.final_indices(twin)
            else:
                finals = self.nfa.finals
                cached = tuple(
                    i for i, state in enumerate(self._states[t]) if state in finals
                )
            self._finals_idx[t] = cached
        return cached

    def _reverse_edges(self, t: int) -> tuple[_IntArray, _IntArray, _IntArray]:
        """Reverse CSR for edges into layer ``t`` (``1 ≤ t ≤ n``), keyed by dst."""
        cached = self._redge.get(t)
        if cached is not None:
            return cached
        if not 1 <= t <= self.n:
            raise ValueError(f"layer {t} has no incoming edges")
        edge_symbol = self._edge_symbol[t - 1]
        edge_dst = self._edge_dst[t - 1]
        edge_start = self._edge_start[t - 1]
        size = len(self._states[t])
        counts = [0] * size
        for j in edge_dst:
            counts[j] += 1
        starts = array("l", [0] * (size + 1))
        for j in range(size):
            starts[j + 1] = starts[j] + counts[j]
        fill = list(starts[:size])
        r_symbol = array("l", [0]) * len(edge_dst)
        r_src = array("l", r_symbol)
        for src in range(len(self._states[t - 1])):
            for e in range(edge_start[src], edge_start[src + 1]):
                j = edge_dst[e]
                slot = fill[j]
                r_symbol[slot] = edge_symbol[e]
                r_src[slot] = src
                fill[j] = slot + 1
        cached = (starts, r_symbol, r_src)
        self._redge[t] = cached
        return cached

    def in_edges_idx(self, t: int, i: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(symbol_idx, src_idx)`` over edges into vertex ``(t, i)``."""
        starts, r_symbol, r_src = self._reverse_edges(t)
        for e in range(starts[i], starts[i + 1]):
            yield r_symbol[e], r_src[e]

    def predecessor_groups(
        self, t: int, indices: Iterable[int]
    ) -> dict[Symbol, frozenset[int]]:
        """``{b: T_b}`` with ``T_b`` the layer-``t-1`` predecessor *indices*.

        The integer-indexed form of the paper's Algorithm 4 step 3 / the
        ``T_b(s_i^α)`` partition of Algorithm 5 — what the FPRAS's
        backward walks consume.
        """
        if t <= 0:
            return {}
        if self.accel is not None:
            indices = list(indices)
            accelerated = self.accel.predecessor_groups(self, t, indices)
            if accelerated is not None:
                return accelerated
            self._note_spill("predecessor_groups")
        starts, r_symbol, r_src = self._reverse_edges(t)
        grouped: dict[int, set[int]] = {}
        for i in indices:
            for e in range(starts[i], starts[i + 1]):
                grouped.setdefault(r_symbol[e], set()).add(r_src[e])
        symbols = self.symbols
        return {symbols[si]: frozenset(group) for si, group in grouped.items()}

    def step_indices(
        self, t: int, indices: Iterable[int], symbol: Symbol
    ) -> frozenset[int]:
        """Layer-``t+1`` indices reachable from ``indices`` by one ``symbol`` edge.

        The prefix-set step the FPRAS's membership machinery uses:
        reading a word through the kernel layer by layer yields exactly
        the ``reach`` sets of Algorithm 4 step 3(a), as local indices.
        """
        symbol_i = self._symbol_index.get(symbol)
        if symbol_i is None or t >= self.n:
            return frozenset()
        if self.accel is not None:
            indices = list(indices)
            accelerated = self.accel.step_indices(self, t, indices, symbol_i)
            if accelerated is not None:
                return accelerated
            self._note_spill("step_indices")
        starts = self._edge_start[t]
        edge_symbol = self._edge_symbol[t]
        edge_dst = self._edge_dst[t]
        out: set[int] = set()
        for i in indices:
            for e in range(starts[i], starts[i + 1]):
                if edge_symbol[e] == symbol_i:
                    out.add(edge_dst[e])
        return frozenset(out)

    # ------------------------------------------------------------------
    # Run-count tables (array-backed, bignum-spill)
    # ------------------------------------------------------------------

    def _forward_step(self, t: int, current: Sequence[int]) -> list[int]:
        nxt = [0] * len(self._states[t + 1])
        starts = self._edge_start[t]
        edge_dst = self._edge_dst[t]
        for i, ways in enumerate(current):
            if not ways:
                continue
            for e in range(starts[i], starts[i + 1]):
                nxt[edge_dst[e]] += ways
        return nxt

    def forward_counts(self) -> list[CountRow]:
        """``table[t][i]`` = number of length-``t`` paths start → ``(t, i)``."""
        if self._forward is None:
            table = self.accel.forward_table(self) if self.accel is not None else None
            if table is None:
                if self.accel is not None:
                    self._note_spill("forward_table")
                first = [0] * len(self._states[0])
                i0 = self._index[0].get(self.nfa.initial)
                if i0 is not None:
                    first[i0] = 1
                table = [_pack_counts(first)]
                for t in range(self.n):
                    table.append(_pack_counts(self._forward_step(t, table[t])))
            self._forward = table
        return self._forward

    def backward_counts(self) -> list[CountRow]:
        """``table[t][i]`` = number of paths ``(t, i)`` → accepting layer-``n`` states."""
        if self._backward is None and self.accel is not None:
            self._backward = self.accel.backward_table(self)
            if self._backward is None:
                self._note_spill("backward_table")
        if self._backward is None:
            n = self.n
            last = [0] * len(self._states[n])
            for i in self.final_indices(n):
                last[i] = 1
            # Built back-to-front (rows[-1] is always table[t + 1]),
            # then reversed into layer order.
            rows: list[CountRow] = [_pack_counts(last)]
            for t in range(n - 1, -1, -1):
                starts = self._edge_start[t]
                edge_dst = self._edge_dst[t]
                nxt = rows[-1]
                current = [0] * len(self._states[t])
                for i in range(len(current)):
                    total = 0
                    for e in range(starts[i], starts[i + 1]):
                        total += nxt[edge_dst[e]]
                    current[i] = total
                rows.append(_pack_counts(current))
            rows.reverse()
            self._backward = rows
        return self._backward

    @property
    def total_runs(self) -> int:
        """Number of accepting runs of length ``n`` (= words iff unambiguous)."""
        back = self.backward_counts()
        i0 = self._index[0].get(self.nfa.initial)
        return back[0][i0] if i0 is not None else 0

    def spectrum_counts(self) -> list[int]:
        """``[|runs_0|, …, |runs_n|]`` — per-length accepting-run counts.

        One forward table read per layer: the whole spectrum costs a
        single compilation instead of ``n`` separate unrollings.  Only
        meaningful on reachable-mode kernels (trimmed layers are pruned
        against length-``n`` acceptance, which would zero shorter
        lengths' finals).
        """
        forward = self.forward_counts()
        return [
            sum(forward[t][i] for i in self.final_indices(t))
            for t in range(self.n + 1)
        ]

    def forward_dicts(self) -> list[dict[State, int]]:
        """The forward table in the seed ``list[dict[State, int]]`` shape."""
        forward = self.forward_counts()
        return [
            {
                self._states[t][i]: ways
                for i, ways in enumerate(forward[t])
                if ways
            }
            for t in range(self.n + 1)
        ]

    def backward_dicts(self) -> list[dict[State, int]]:
        """The backward table in the seed ``list[dict[State, int]]`` shape."""
        backward = self.backward_counts()
        return [
            {
                self._states[t][i]: ways
                for i, ways in enumerate(backward[t])
                if ways
            }
            for t in range(self.n + 1)
        ]

    # ------------------------------------------------------------------
    # Uniform run sampling (unranking through the backward table)
    # ------------------------------------------------------------------

    def sample_word(self, generator: Random) -> Word:
        """One exactly-uniform accepting *run*'s word (uniform over words
        iff the automaton is unambiguous — the Section 5.3.3 chain).
        One ``randrange(total_runs)`` call; see :meth:`sample_batch`."""
        return self.sample_batch(1, generator)[0]

    def sample_batch(self, k: int, generator: Random | Sequence[Random]) -> list[Word]:
        """``k`` independent uniform draws, each the unranking of one rank.

        Draw ``d`` takes a rank ``r < total_runs`` with one ``randrange``
        call and returns run number ``r`` of Algorithm 1's order (the
        recursive method on the Section 5.3.3 chain): at each vertex it
        scans the edge block, subtracting ``backward[t + 1][dst]`` until
        the rank falls inside an edge, and follows that edge.  Every run
        has one rank, so the draw is exactly uniform over runs; edges of
        weight 0 (reachable-mode kernels) are skipped by the scan.  All
        ``k`` draws walk layer by layer, so each layer's arrays are
        looked up once per batch.

        ``generator`` may be one shared ``Random`` — the ranks are then
        its next ``k`` ``randrange(total_runs)`` calls, in draw order,
        so ``k`` :meth:`sample_word` calls draw the same words — or a
        sequence of ``k`` per-sample generators (deterministic
        substreams, see :func:`repro.utils.rng.spawn_seq`) that each
        make one call.  Draw ``i`` then depends solely on its own stream
        and not on which other draws share the pass — what makes
        coalesced service batches byte-identical to serving each request
        alone.  The NumPy backend walks the same ranks.
        """
        if k < 0:
            raise ValueError("sample count must be ≥ 0")
        if k == 0:
            return []
        total = self.total_runs
        if total == 0:
            raise EmptyWitnessSetError(f"the automaton accepts no word of length {self.n}")
        if isinstance(generator, Random):
            ranks = [generator.randrange(total) for _ in range(k)]
        else:
            if len(generator) != k:
                raise ValueError(
                    f"need one generator per draw: got {len(generator)} for k={k}"
                )
            ranks = [g.randrange(total) for g in generator]
        if self.accel is not None:
            accelerated = self.accel.sample_batch(self, ranks)
            if accelerated is not None:
                return accelerated
            self._note_spill("sample_batch")
        backward = self.backward_counts()
        symbols = self.symbols
        states = [self._index[0][self.nfa.initial]] * k
        columns: list[list[Symbol]] = []
        for t in range(self.n):
            starts = self._edge_start[t]
            edge_symbol = self._edge_symbol[t]
            edge_dst = self._edge_dst[t]
            weights = backward[t + 1]
            column: list[Symbol] = []
            for d, rank in enumerate(ranks):
                e = starts[states[d]]
                j = edge_dst[e]
                weight = weights[j]
                while rank >= weight:
                    rank -= weight
                    e += 1
                    j = edge_dst[e]
                    weight = weights[j]
                ranks[d] = rank
                states[d] = j
                column.append(symbols[edge_symbol[e]])
            columns.append(column)
        return list(zip(*columns)) if columns else [() for _ in range(k)]

    # ------------------------------------------------------------------
    # Snapshots (the service layer's persistence format)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize this kernel into the compact binary snapshot format.

        Round-trips the CSR edge arrays, the per-layer state index maps
        and whichever run-count tables (including bignum-spill rows) have
        been built, so a restored kernel answers count / sample /
        spectrum queries without re-lowering.  See
        :mod:`repro.service.snapshot` for the format.
        """
        from repro.service.snapshot import kernel_to_bytes

        return kernel_to_bytes(self)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        source_resolver: Callable[[], AutomatonSource] | None = None,
    ) -> "CompiledDAG":
        """Restore a kernel from :meth:`to_bytes` output.

        ``source_resolver`` optionally supplies a zero-argument callable
        returning the original automaton/plan source; it is only invoked
        if the restored kernel is asked to :meth:`extend_to` a greater
        length (the one operation that needs transitions beyond the
        snapshot).
        """
        from repro.service.snapshot import kernel_from_bytes

        return kernel_from_bytes(data, source_resolver=source_resolver)

    @classmethod
    def from_mmap(
        cls,
        path: str | os.PathLike[str],
        source_resolver: Callable[[], AutomatonSource] | None = None,
    ) -> "CompiledDAG":
        """Restore a kernel that *borrows* its arrays from an mmap of ``path``.

        Instead of copying the snapshot into fresh arrays, the CSR
        blocks and packed count rows become int64 memoryviews over the
        mapped file, so a warm start pages data in lazily on first
        touch.  :meth:`extend_to` copies-on-extend before mutating.
        Requires a version ≥ 2 snapshot and an LP64 platform; otherwise
        this quietly degrades to a full-copy restore (and the mapping is
        closed).  See :func:`repro.service.snapshot.kernel_from_mmap`.
        """
        from repro.service.snapshot import kernel_from_mmap

        return kernel_from_mmap(path, source_resolver=source_resolver)

    # ------------------------------------------------------------------
    # Set-based views (the paper-facing s_t^j API)
    # ------------------------------------------------------------------

    @property
    def layers(self) -> list[frozenset[State]]:
        """All live-state sets, one frozenset per layer."""
        return [self.layer(t) for t in range(self.n + 1)]

    def layer(self, t: int) -> frozenset[State]:
        """Live states at layer ``t`` (0 ≤ t ≤ n)."""
        twin = self._twin[t]
        cached = self._layer_sets.get(twin)
        if cached is None:
            cached = frozenset(self._states[twin])
            self._layer_sets[twin] = cached
        return cached

    @property
    def final_states(self) -> frozenset[State]:
        """Live accepting states at the last layer."""
        states = self._states[self.n]
        return frozenset(states[i] for i in self.final_indices(self.n))

    @property
    def is_empty(self) -> bool:
        """True iff the automaton accepts no word of length ``n``."""
        return not self.final_indices(self.n)

    def successors(self, t: int, state: State) -> Iterator[tuple[Symbol, State]]:
        """Edges from vertex ``(t, state)`` into layer ``t + 1`` (live only)."""
        if t >= self.n:
            return
        i = self._index[t].get(state)
        if i is None:
            return
        symbols = self.symbols
        states_next = self._states[t + 1]
        edge_symbol = self._edge_symbol[t]
        edge_dst = self._edge_dst[t]
        start, end = self.out_edge_range(t, i)
        for e in range(start, end):
            yield symbols[edge_symbol[e]], states_next[edge_dst[e]]

    def ordered_successors(self, t: int, state: State) -> list[tuple[Symbol, State]]:
        """Successor edges in the fixed (repr, repr) total order.

        The CSR blocks are already stored in that order, so this is a
        plain materialization — no per-call sort.
        """
        return list(self.successors(t, state))

    def predecessors(self, t: int, state: State, symbol: Symbol) -> frozenset[State]:
        """Live states ``p`` at layer ``t - 1`` with ``p --symbol--> state``."""
        if t <= 0:
            return frozenset()
        i = self._index[t].get(state)
        if i is None:
            return frozenset()
        symbol_i = self._symbol_index.get(symbol)
        if symbol_i is None:
            return frozenset()
        states_prev = self._states[t - 1]
        return frozenset(
            states_prev[src] for si, src in self.in_edges_idx(t, i) if si == symbol_i
        )

    def predecessor_sets(
        self, t: int, states: frozenset[State]
    ) -> dict[Symbol, frozenset[State]]:
        """For each symbol b, the set ``T_b`` of layer-(t-1) predecessors (as states)."""
        index = self._index[t]
        indices = [index[state] for state in states if state in index]
        states_prev = self._states[t - 1] if t >= 1 else ()
        return {
            symbol: frozenset(states_prev[i] for i in group)
            for symbol, group in self.predecessor_groups(t, indices).items()
        }

    def vertex_count(self) -> int:
        """Total number of live vertices across all layers."""
        return sum(len(states) for states in self._states)

    def edge_count(self) -> int:
        """Total number of live edges."""
        return sum(len(block) for block in self._edge_dst)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        mode = "trimmed" if self.trimmed else "reachable"
        return (
            f"<CompiledDAG n={self.n} {mode} vertices={self.vertex_count()} "
            f"edges={self.edge_count()}>"
        )


def compile_nfa(nfa: NFA, n: int, trimmed: bool = True) -> CompiledDAG:
    """Lower ``nfa``'s length-``n`` unrolling to the kernel, as its ``Atom``.

    ``trimmed=True`` gives the Lemma 15 pruning (count / sample /
    enumerate); ``trimmed=False`` the reachable-only FPRAS / spectrum
    view, which supports :meth:`CompiledDAG.extend_to`.
    """
    from repro.core.plan import lower_plan

    return lower_plan(nfa, n, trimmed)


def kernel_matches_nfa(kernel: CompiledDAG, nfa: NFA) -> bool:
    """Does ``kernel`` plausibly describe the same language as ``nfa``?

    Kernels lowered from an automaton (an ``Atom`` root) compare it
    exactly.  Composite plan kernels carry a symbolic source whose
    language cannot be compared without the materialization the plan
    route avoids, so they — and snapshot-restored kernels — are only
    *sanity* checked on the cheap invariants a matching facade pairing
    always satisfies — same initial state and same alphabet (a plan's
    :meth:`~repro.core.plan.Plan.to_nfa` rendering preserves both).
    That catches accidental cross-alphabet mixups but NOT two unrelated
    plans sharing both labels; callers handing a plan-lowered kernel to
    the expert constructors that call this (``FprasState(kernel=)``,
    ``uniform_run_sampler(kernel=)``) are responsible for the pairing.
    The facade always pairs a witness set with its own cached kernels.
    """
    from repro.core.plan import Atom

    source = kernel.nfa
    plan = getattr(source, "plan", None)
    if isinstance(plan, Atom):
        return plan.nfa == nfa
    if isinstance(source, NFA):
        return source == nfa
    return source.initial == nfa.initial and source.alphabet == nfa.alphabet


__all__ = [
    "AutomatonSource",
    "CompiledDAG",
    "CountRow",
    "compile_nfa",
    "kernel_matches_nfa",
    "unroll_layers",
]
