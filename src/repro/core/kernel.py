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
  ``T_b(s_i^α)`` partitions, :meth:`CompiledDAG.predecessor_groups`).

All computation streams over integer arrays, and the paper's algorithms
read the kernel at that level: CSR blocks, packed count rows and
predecessor index groups.  The set-based views ``layer``, ``layers``,
``layer_states``, ``successors`` and ``final_states`` keep the
correspondence with the paper's ``s_t^j`` vertices direct: ``s_t^j`` is
live ⟺ ``j in kernel.layer(t)``.

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
unshared.

A kernel is a value: it is built once at its length, by the lowering or
by a snapshot restore, and never changed after, so a shared block is
never written.  A query at another length (a spectrum past ``n``) reads
a kernel lowered at that length.

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


class KernelSource(Protocol):
    """What a built kernel still reads from its source (:attr:`CompiledDAG.nfa`).

    Satisfied by every :class:`AutomatonSource` and by the snapshot
    stand-in a restored kernel carries.
    """

    @property
    def initial(self) -> State: ...

    @property
    def finals(self) -> Container[State]: ...

    @property
    def alphabet(self) -> AbstractSet[Symbol]: ...


class AutomatonSource(KernelSource, Protocol):
    """The read interface kernel compilation needs from its source.

    Satisfied by :class:`~repro.automata.nfa.NFA` and by the memoized
    symbolic source :func:`repro.core.plan.lower_plan` builds.
    """

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
    source: AutomatonSource, n: int, trimmed: bool
) -> tuple[list[frozenset[State]], list[frozenset[State]]]:
    """The live layers of ``source`` unrolled ``n`` times (Section 6.2).

    Returns ``(forward, live)``.  ``forward[t]`` holds the states reached
    from ``{source.initial}`` in exactly ``t`` steps.  ``live`` is
    ``forward`` itself (the reachable view of Algorithm 5, step 3) or,
    when ``trimmed``, its Lemma 15 pruning: a state stays live at layer
    ``t`` iff it also reaches a final state in the remaining ``n - t``
    steps.

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
    if n < 0:
        raise ValueError("word length must be ≥ 0")
    out_edges = source.out_edges
    after: dict[State, frozenset[State]] = {}
    start = frozenset({source.initial})
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
        return forward, forward
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
    return forward, live


class CompiledDAG:
    """Integer-indexed compilation of an unrolled layered DAG.

    Parameters
    ----------
    nfa:
        The underlying ε-free automaton — or any source exposing the
        same read interface (``initial``, ``finals`` membership,
        ``out_edges``, ``alphabet``, ``has_epsilon``), e.g. the memoized
        plan source :func:`repro.core.plan.lower_plan` builds.  The
        CSR blocks read its edges once, here; the kernel keeps it as
        :attr:`nfa` for its initial state, finals and alphabet.
    n:
        The word length (number of symbol layers).
    trimmed:
        ``True`` for the Lemma 15 pruning (every vertex lies on a
        start→final path — the enumeration/sampling view), ``False`` for
        reachable-only vertices (the FPRAS / spectrum view).
    layers:
        Optional precomputed live-state sets, one frozenset per layer
        (the ``live`` half of :func:`unroll_layers`, which
        :func:`~repro.core.plan.lower_plan` computes for its stats);
        when omitted they are computed from the source.

    Layers that are the same frozenset (:func:`unroll_layers` interns
    equal layers under the exact-type rule) share one sorted state tuple,
    one index map and one ``final_indices`` tuple; ``_twin[t]`` is the
    first layer whose objects layer ``t`` holds.  Layer pairs with the
    same twins share one CSR block.  Count rows stay per layer.  A
    kernel never changes its length or layers after construction, so no
    shared object is mutated.
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

    nfa: KernelSource
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
        self._add_layers(layers, nfa)
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

    def _add_layers(
        self, layers: Iterable[frozenset[State]], source: AutomatonSource
    ) -> None:
        """Lay out ``layers``, each with the CSR block from the layer
        before it, read from ``source``'s edges.

        A layer that is the same object as an earlier one takes that
        layer's state tuple and index map; a layer pair whose twins
        repeat an earlier pair's takes that pair's CSR block.
        """
        states, index, twin = self._states, self._index, self._twin
        seen: dict[frozenset[State], tuple[frozenset[State], int]] = {}
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
                self._append_edge_layer(t - 1, source)
            else:
                for arrays in (self._edge_start, self._edge_symbol, self._edge_dst):
                    arrays.append(arrays[block])

    def _append_edge_layer(self, t: int, source: AutomatonSource) -> None:
        """Build the CSR edge block for layer ``t`` → ``t + 1``."""
        index_next = self._index[t + 1]
        symbol_index = self._symbol_index
        offsets = array("l", [0])
        edge_symbol = array("l")
        edge_dst = array("l")
        out_edges = source.out_edges
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

    # ------------------------------------------------------------------
    # Integer-level structure
    # ------------------------------------------------------------------

    def layer_size(self, t: int) -> int:
        """Number of live states at layer ``t``."""
        return len(self._states[t])

    def layer_states(self, t: int) -> tuple[State, ...]:
        """Live states at layer ``t`` in index (= repr) order."""
        return self._states[t]

    def index_of(self, t: int, state: State) -> int | None:
        """Local index of ``state`` at layer ``t`` (None when not live)."""
        return self._index[t].get(state)

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
    def from_bytes(cls, data: bytes) -> "CompiledDAG":
        """Restore a kernel from :meth:`to_bytes` output."""
        from repro.service.snapshot import kernel_from_bytes

        return kernel_from_bytes(data)

    @classmethod
    def from_mmap(cls, path: str | os.PathLike[str]) -> "CompiledDAG":
        """Restore a kernel that *borrows* its arrays from an mmap of ``path``.

        Instead of copying the snapshot into fresh arrays, the CSR
        blocks and packed count rows become int64 memoryviews over the
        mapped file, so a warm start pages data in lazily on first
        touch.  Requires an LP64 platform; elsewhere this quietly
        degrades to a full-copy restore (and the mapping is closed).  See
        :func:`repro.service.snapshot.kernel_from_mmap`.
        """
        from repro.service.snapshot import kernel_from_mmap

        return kernel_from_mmap(path)

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
        """Edges from vertex ``(t, state)`` into layer ``t + 1`` (live
        only), in the CSR block's (repr, repr) order."""
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
    view.
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
    "KernelSource",
    "compile_nfa",
    "kernel_matches_nfa",
    "unroll_layers",
]
