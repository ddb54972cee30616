"""The NumPy-accelerated kernel execution backend (optional).

The :class:`~repro.core.kernel.CompiledDAG` hot loops — count-table
sweeps, :meth:`~repro.core.kernel.CompiledDAG.extend_to` forward rows,
batched sampling and the FPRAS's prefix-set bookkeeping — are pure
Python over ``array('q')`` rows.  This module provides the same sweeps
as vectorized NumPy passes over zero-copy views of the kernel's CSR
arrays, selected per kernel via ``kernel_backend=`` on the facade, the
``$REPRO_KERNEL_BACKEND`` environment switch, or
:meth:`CompiledDAG.set_kernel_backend`.

Design contract (what makes the backend safe to switch on):

* **The pure path stays canonical.**  NumPy is optional: this module
  imports it lazily and only here (enforced by the ``accel-isolation``
  lint rule), and every accelerated entry point returns ``None`` to
  mean "take the exact Python path" — when NumPy is absent, when a
  count row has spilled to bignums, or when the workload is too small
  for vectorization to pay.
* **Bit-identical results.**  Count tables are built with the same
  value semantics (rows pack to ``array('q')`` exactly when the pure
  packer would), and sampling unranks the *same* ranks the pure
  ``sample_batch`` draws (one ``randrange`` per draw, made by the
  kernel before either walk) — per-draw RNG substream semantics survive
  acceleration, so seeded outputs are byte-identical across backends.
* **Overflow safety.**  Packed ``int64`` rows vectorize; a conservative
  float64 pre-sum guard (``2**62``) hands any layer that could reach
  the int64 range back to the exact bignum path, and spilled rows are
  never touched by NumPy at all.

The vectorized count sweeps use an exact wraparound trick: per-block
cumulative sums are recovered from a single (silently wrapping) int64
``cumsum`` by subtracting each block's base — exact in two's complement
whenever the true per-block totals stay below ``2**63``, which the
packed representation already guarantees.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import UnknownBackendError

if TYPE_CHECKING:
    from repro.automata.nfa import Symbol, Word
    from repro.core.kernel import CompiledDAG, CountRow

#: Environment variable selecting the process-default kernel backend.
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Backend names :func:`resolve` accepts.
BACKEND_NAMES = ("auto", "numpy", "pure")

#: Conservative bound for the vectorized int64 count sweeps: when a
#: layer's float64 weight pre-sum reaches this, the exact Python path
#: finishes the table (true row values could approach the int64 range).
_SAFE_SUM = float(2**62)

#: Below this many edges, the per-call NumPy overhead beats the win;
#: FPRAS set queries this small stay on the pure path.
_MIN_VECTOR_EDGES = 64

#: The CSR edge blocks are ``array('l')``; the zero-copy int64 views
#: (and the snapshot borrow mode) assume the LP64 layout where that is
#: 8 bytes.  On ILP32/LLP64 platforms the backend silently stays pure.
_LP64 = array("l").itemsize == 8

_np: Any = None
_np_checked = False


def _numpy() -> Any:
    """The lazily imported ``numpy`` module, or ``None`` when absent."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            numpy = None  # type: ignore[assignment]
        _np = numpy
    return _np


def numpy_available() -> bool:
    """True when the optional NumPy dependency can be imported."""
    return _numpy() is not None


def resolve(name: str | None) -> NumpyAccel | None:
    """Map a backend name onto an execution backend (``None`` = pure).

    ``None`` consults ``$REPRO_KERNEL_BACKEND`` and defaults to
    ``"pure"``.  ``"numpy"`` and ``"auto"`` both fall back to the pure
    path automatically when NumPy is not importable — acceleration is
    an optimization, never an availability requirement.  Unknown names
    raise :class:`~repro.errors.UnknownBackendError`.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or "pure"
    if name == "pure":
        return None
    if name in ("numpy", "auto"):
        return _singleton() if (_LP64 and numpy_available()) else None
    raise UnknownBackendError(name, available=BACKEND_NAMES)


class NumpyAccel:
    """Vectorized kernel sweeps over zero-copy views of the CSR arrays.

    Stateless apart from the NumPy module handle: per-kernel caches
    (array views, per-edge sources, reverse orderings) live
    in the kernel's own ``_accel_state`` dict so they follow the
    kernel's lifetime and are dropped by ``extend_to`` /
    ``set_kernel_backend``.
    """

    name = "numpy"

    # ------------------------------------------------------------------
    # Per-kernel cached views
    # ------------------------------------------------------------------

    def _edges(self, kernel: CompiledDAG, t: int) -> Any:
        """``(start, symbol, dst)`` int64 views of layer ``t``'s CSR block."""
        state = kernel._accel_state
        cached = state.get(("edges", t))
        if cached is None:
            np = _numpy()
            cached = (
                np.frombuffer(kernel._edge_start[t], dtype=np.int64),
                np.frombuffer(kernel._edge_symbol[t], dtype=np.int64),
                np.frombuffer(kernel._edge_dst[t], dtype=np.int64),
            )
            state[("edges", t)] = cached
        return cached

    def _row_view(self, row: CountRow) -> Any:
        """Zero-copy int64 view of a packed count row (``None`` if spilled)."""
        if isinstance(row, list):
            return None
        return _numpy().frombuffer(row, dtype=_numpy().int64)

    def _reverse(self, kernel: CompiledDAG, t: int) -> Any:
        """Vectorized reverse-CSR view for edges into layer ``t``.

        ``(starts, r_symbol, r_src)`` with the same contents as the
        kernel's ``_reverse_edges`` arrays (grouped by destination; the
        stable sort preserves forward edge order within each group).
        """
        state = kernel._accel_state
        cached = state.get(("redge", t))
        if cached is None:
            np = _numpy()
            start, symbol, dst = self._edges(kernel, t - 1)
            size = len(kernel._states[t])
            src_of_edge = np.repeat(
                np.arange(len(start) - 1, dtype=np.int64), np.diff(start)
            )
            order = np.argsort(dst, kind="stable")
            starts = np.searchsorted(dst[order], np.arange(size + 1, dtype=np.int64))
            cached = (starts, symbol[order], src_of_edge[order])
            state[("redge", t)] = cached
        return cached

    # ------------------------------------------------------------------
    # Count tables
    # ------------------------------------------------------------------

    def _pack_np_row(self, np_row: Any) -> CountRow:
        """A finished int64 NumPy row → the kernel's packed container."""
        row = array("q")
        row.frombytes(np_row.tobytes())
        return row

    def _segment_sums(self, weights: Any, start: Any, lengths: Any) -> Any:
        """Exact per-block sums of ``weights`` over the CSR blocks.

        One ``np.add.reduceat`` pass; exact in two's complement because
        the caller guarantees every true block total stays below the
        int64 range.  ``reduceat`` rejects indices at ``len(weights)``,
        where the empty blocks of a layer's last vertices start, so the
        pass runs over ``weights`` with one zero appended; it ends each
        block at the next start.  An empty block yields the entry at its
        start (not 0), so those are zeroed after.
        """
        np = _numpy()
        padded = np.concatenate((weights, np.zeros(1, dtype=np.int64)))
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(padded, start[:-1])
        return np.where(lengths > 0, sums, 0)

    def backward_table(self, kernel: CompiledDAG) -> list[CountRow] | None:
        """The full backward count table, or ``None`` (pure path).

        Each step is one gather + segmented sum over the forward CSR.
        When the float64 pre-sum guard trips, the remaining layers are
        finished on the exact Python path, so the returned table is
        always complete and value-identical to the pure build.
        """
        np = _numpy()
        if np is None:
            return None
        from repro.core.kernel import _pack_counts

        n = kernel.n
        last = [0] * len(kernel._states[n])
        for i in kernel.final_indices(n):
            last[i] = 1
        rows: list[CountRow] = [_pack_counts(last)]
        for t in range(n - 1, -1, -1):
            current = self._row_view(rows[-1])
            if current is not None:
                start, _, dst = self._edges(kernel, t)
                lengths = np.diff(start)
                # Conservative overflow guard without a full float pass:
                # every vertex's true total is at most max-count × its
                # out-degree.
                bound = float(current.max(initial=0)) * float(
                    lengths.max(initial=0)
                )
                if bound < _SAFE_SUM:
                    row_np = self._segment_sums(current[dst], start, lengths)
                    rows.append(self._pack_np_row(row_np))
                    continue
            # Exact bignum path for this and every earlier layer.
            starts_l = kernel._edge_start[t]
            dst_l = kernel._edge_dst[t]
            nxt = rows[-1]
            counts = [0] * len(kernel._states[t])
            for i in range(len(counts)):
                total = 0
                for e in range(starts_l[i], starts_l[i + 1]):
                    total += nxt[dst_l[e]]
                counts[i] = total
            rows.append(_pack_counts(counts))
        rows.reverse()
        return rows

    def _src_of_edge(self, kernel: CompiledDAG, t: int) -> Any:
        """Per-edge source index for layer ``t``'s forward CSR block."""
        state = kernel._accel_state
        cached = state.get(("esrc", t))
        if cached is None:
            np = _numpy()
            start = self._edges(kernel, t)[0]
            cached = np.repeat(
                np.arange(len(start) - 1, dtype=np.int64), np.diff(start)
            )
            state[("esrc", t)] = cached
        return cached

    def forward_step_row(
        self, kernel: CompiledDAG, t: int, current: CountRow
    ) -> CountRow | None:
        """One vectorized forward step (layer ``t`` → ``t + 1``), or ``None``.

        The scatter-add runs directly on the forward CSR via
        ``np.add.at`` (exact in two's complement under the wraparound
        trick) — an order of magnitude cheaper than building the
        destination-sorted reverse ordering.  Guarded the same way as
        :meth:`backward_table`.
        """
        np = _numpy()
        if np is None:
            return None
        current_np = self._row_view(current)
        if current_np is None:
            return None
        _, _, dst = self._edges(kernel, t)
        weights = current_np[self._src_of_edge(kernel, t)]
        if float(weights.sum(dtype=np.float64)) >= _SAFE_SUM:
            return None
        row_np = np.zeros(len(kernel._states[t + 1]), dtype=np.int64)
        with np.errstate(over="ignore"):
            np.add.at(row_np, dst, weights)
        return self._pack_np_row(row_np)

    def forward_table(self, kernel: CompiledDAG) -> list[CountRow] | None:
        """The full forward count table, or ``None`` (pure path)."""
        if _numpy() is None:
            return None
        from repro.core.kernel import _pack_counts

        first = [0] * len(kernel._states[0])
        i0 = kernel._index[0].get(kernel.nfa.initial)
        if i0 is not None:
            first[i0] = 1
        table: list[CountRow] = [_pack_counts(first)]
        for t in range(kernel.n):
            row = self.forward_step_row(kernel, t, table[t])
            if row is None:
                row = _pack_counts(kernel._forward_step(t, table[t]))
            table.append(row)
        return table

    # ------------------------------------------------------------------
    # Batched sampling
    # ------------------------------------------------------------------

    def sample_batch(self, kernel: CompiledDAG, ranks: list[int]) -> list[Word] | None:
        """The pure ``sample_batch`` walk over the same ``ranks``, vectorized.

        Per layer, the backward weights of the *visited* vertex blocks
        are laid out compactly and summed per block (one ``cumsum``,
        exact by the wraparound trick since each visited block's true
        total is a packed ``backward`` count ``< 2**63``).  A batched
        ``bisect_right`` of every rank in its block picks the edge the
        pure scan stops at (skipping weight-0 edges), and the rank then
        drops by the edge's exclusive prefix — work proportional to the
        draws' out-edges, not the layer's.

        Returns ``None`` (pure path) when NumPy is absent or any
        backward row spilled to bignums.
        """
        np = _numpy()
        if np is None:
            return None
        backward = kernel.backward_counts()
        if any(isinstance(row, list) for row in backward):
            return None
        k = len(ranks)
        symbols = kernel.symbols
        states = np.full(k, kernel._index[0][kernel.nfa.initial], dtype=np.int64)
        left = np.array(ranks, dtype=np.int64)
        picked = np.empty((k, kernel.n), dtype=np.int64)
        for t in range(kernel.n):
            start, symbol, dst = self._edges(kernel, t)
            nxt = self._row_view(backward[t + 1])
            unique, inverse = np.unique(states, return_inverse=True)
            # positions[cstart[u]:cstart[u+1]] are the flat edge indices
            # of the u-th visited vertex; lcum over that slice is its
            # running (inclusive) weight.
            ulo = start[unique]
            lengths = start[unique + 1] - ulo
            cstart = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(lengths))
            )
            positions = np.arange(int(cstart[-1]), dtype=np.int64) + np.repeat(
                ulo - cstart[:-1], lengths
            )
            weights = nxt[dst[positions]]
            with np.errstate(over="ignore"):
                cum = np.cumsum(weights)
                ext = np.concatenate((np.zeros(1, dtype=np.int64), cum))
                lcum = cum - np.repeat(ext[cstart[:-1]], lengths)
            # Batched bisect_right of each rank over its compact block.
            lo = cstart[:-1][inverse]
            hi = cstart[1:][inverse]
            while True:
                active = lo < hi
                if not bool(active.any()):
                    break
                mid = np.where(active, (lo + hi) >> 1, 0)
                go_right = active & (lcum[mid] <= left)
                lo = np.where(go_right, mid + 1, lo)
                hi = np.where(active & ~go_right, mid, hi)
            left -= lcum[lo] - weights[lo]
            chosen = positions[lo]
            picked[:, t] = symbol[chosen]
            states = dst[chosen]
        return [tuple(symbols[i] for i in row) for row in picked.tolist()]

    # ------------------------------------------------------------------
    # FPRAS prefix-set bookkeeping
    # ------------------------------------------------------------------

    def _flat_positions(self, starts: Any, indices: Any) -> Any:
        """Flat array positions covering ``[starts[i], starts[i+1])`` for
        every ``i`` in ``indices`` (``None`` when too small to pay)."""
        np = _numpy()
        base = starts[indices]
        lengths = starts[indices + 1] - base
        total = int(lengths.sum())
        if total < _MIN_VECTOR_EDGES:
            return None
        ends = np.cumsum(lengths)
        return (
            np.arange(total, dtype=np.int64)
            + np.repeat(base - (ends - lengths), lengths)
        )

    def step_indices(
        self, kernel: CompiledDAG, t: int, indices: Iterable[int], symbol_i: int
    ) -> frozenset[int] | None:
        """Vectorized one-symbol prefix-set step (``None`` = pure path)."""
        np = _numpy()
        if np is None:
            return None
        idx = np.fromiter(indices, dtype=np.int64)
        if len(idx) == 0:
            return frozenset()
        start, symbol, dst = self._edges(kernel, t)
        positions = self._flat_positions(start, idx)
        if positions is None:
            return None
        matched = positions[symbol[positions] == symbol_i]
        return frozenset(np.unique(dst[matched]).tolist())

    def predecessor_groups(
        self, kernel: CompiledDAG, t: int, indices: Iterable[int]
    ) -> dict[Symbol, frozenset[int]] | None:
        """Vectorized ``{b: T_b}`` predecessor partition (``None`` = pure)."""
        np = _numpy()
        if np is None:
            return None
        idx = np.fromiter(indices, dtype=np.int64)
        if len(idx) == 0:
            return {}
        starts, r_symbol, r_src = self._reverse(kernel, t)
        positions = self._flat_positions(starts, idx)
        if positions is None:
            return None
        grouped: dict[Symbol, frozenset[int]] = {}
        hit_symbols = r_symbol[positions]
        hit_src = r_src[positions]
        for si in np.unique(hit_symbols).tolist():
            grouped[kernel.symbols[si]] = frozenset(
                np.unique(hit_src[hit_symbols == si]).tolist()
            )
        return grouped


_instance: NumpyAccel | None = None


def _singleton() -> NumpyAccel:
    global _instance
    if _instance is None:
        _instance = NumpyAccel()
    return _instance


__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "NumpyAccel",
    "numpy_available",
    "resolve",
]
