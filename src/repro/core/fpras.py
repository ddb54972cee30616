"""The FPRAS for #NFA (Section 6, Algorithms 2, 4 and 5) — the paper's headline.

Given an NFA ``N`` with ``m`` states, a length ``n`` (unary) and an error
``δ``, estimate ``|L_n(N)|`` within relative error δ, in time polynomial
in ``n``, ``m`` and ``1/δ``.  The algorithm:

1. Unroll ``N`` into the layered DAG ``N_unroll`` (reachable vertices
   only — Algorithm 5 step 3).
2. Process vertices layer by layer.  For each live vertex ``s`` keep

   * ``R(s)`` — an estimate of ``|U(s)|``, the number of distinct strings
     labelling start→``s`` paths, and
   * ``X(s)`` — a *sketch*: a multiset of ``k`` uniform samples of
     ``U(s)`` (or ``U(s)`` itself when ``|U(s)| ≤ k`` — the vertex is then
     *exactly handled*, Algorithm 5 step 4).

3. ``R(s)`` for a sketched vertex is assembled from the predecessors'
   sketches by the ≺-ordered inclusion–exclusion estimate

   ``W̃_b = Σ_{s' ∈ T_b} R(s') · |X(s') ∖ ⋃_{s'' ≺ s'} U(s'')| / |X(s')|``

   (Algorithm 5 step 5a), where membership ``x ∈ U(s'')`` is decided
   exactly by running ``x`` through the automaton (a reachability check,
   memoized).

4. Samples for ``X(s)`` are drawn by the backward random walk ``Sample``
   (Algorithm 4): starting from ``{s}``, repeatedly partition the current
   vertex set's predecessors by symbol, pick a symbol with probability
   proportional to its ``W̃`` estimate, prepend it to the word, and
   finally *reject* with the accumulated probability correction
   ``φ = e⁻⁴/R(s) · Π p_b⁻¹`` — the Jerrum–Valiant–Vazirani trick that
   converts approximately-uniform proposals into exactly uniform output
   (Proposition 18).

5. The final estimate is ``R(s_final)`` where ``s_final`` aggregates the
   accepting states of the last layer (Remark 1's virtual vertex).

The walk table
--------------
Every ``(t, vertex set)`` a walk visits is interned once as an integer
node of a walk table.  On its first visit the node records its
predecessor partition as the repr-ordered symbols, the cumulative
``W̃`` bounds, their total, each choice's probability and the child
node of each symbol; a later step is one list index, one ``random()``
and one ``bisect``.  A node at layer ``t`` reads only the sketches of
layer ``t − 1``, which are final before any walk reaches ``t``, so the
table never goes stale.  The draw order is the plain walk's: one
``random()`` per step, picked against the same sequential running
sums, then the acceptance coin, so fixed seeds give bit-identical
estimates, sketches and witnesses.

Faithfulness vs. practicality
-----------------------------
The paper sets ``k = ⌈(nm/δ)^64⌉`` and retry budget ``⌈(nm/δ)^4⌉`` so the
Hoeffding/union-bound bookkeeping in the proof goes through; those values
are astronomically infeasible to *run*.  :class:`FprasParameters` keeps
every structural element of the algorithm and makes the two budgets
tunable; ``FprasParameters.paper_faithful()`` reproduces the proof
constants, ``FprasParameters.practical()`` (default) uses
``k = clamp((nm/δ)^ε)`` with ε = 1 and a generous retry budget.  The
ablation benchmark A1 maps the k-vs-error frontier empirically.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from repro.automata.nfa import NFA, Symbol, Word
from repro.core.exact import count_words_exact
from repro.core.kernel import CompiledDAG, compile_nfa, kernel_matches_nfa
from repro.errors import EmptyWitnessSetError, InvalidAutomatonError
from repro.obs import metrics as _obs_metrics
from repro.obs import names as metric_names
from repro.utils.rng import make_rng

#: Acceptance constant of Algorithm 5: samples are accepted with
#: probability φ that starts at e⁻⁴/R(s).  (See Proposition 18: with good
#: estimates, e⁻⁵ ≤ φ·R/|U| ≤ e⁻³, so acceptance stays bounded away from
#: both 0 and 1.)
REJECTION_CONSTANT = math.exp(-4)


@dataclass(frozen=True)
class FprasParameters:
    """Tunable budgets of the FPRAS (see module docstring).

    Attributes
    ----------
    sample_size:
        Explicit sketch size ``k``; when None, derived as
        ``clamp((n·m/δ)^sample_size_exponent, min_sample_size,
        max_sample_size)``.
    sample_size_exponent:
        The paper's 64; default 1.0 (ablation A1 explores this).
    min_sample_size / max_sample_size:
        Clamps for the derived ``k``.
    retry_budget:
        Attempts allowed per needed sample before declaring failure; the
        paper's ⌈(nm/δ)⁴⌉.  None derives ``max(64, 40·e⁴)`` ≈ expected
        number of tries for 2⁻ⁿ escape probability at the paper's
        acceptance rate.
    rejection_constant:
        The e⁻⁴ of Algorithm 5 (ablation A2 explores this).
    exhaustive_length:
        Below this ``n``, count exactly by brute force (Algorithm 5
        step 1 uses n ≤ 12 for the binary alphabet).
    """

    sample_size: int | None = None
    sample_size_exponent: float = 1.0
    min_sample_size: int = 16
    max_sample_size: int = 4096
    retry_budget: int | None = None
    rejection_constant: float = REJECTION_CONSTANT
    exhaustive_length: int = 6

    @classmethod
    def paper_faithful(cls) -> "FprasParameters":
        """The literal constants of Algorithm 5 — for contemplation.

        ``k = (nm/δ)^64`` with no clamps; running this on any nontrivial
        instance will exhaust the lifetime of the solar system, which is
        the gap Section 7 of the paper acknowledges.
        """
        return cls(
            sample_size=None,
            sample_size_exponent=64.0,
            min_sample_size=1,
            max_sample_size=10**300,
            retry_budget=None,
            exhaustive_length=12,
        )

    @classmethod
    def practical(cls, k: int | None = None) -> "FprasParameters":
        """Defaults tuned for laptop-scale runs (the library default)."""
        return cls(sample_size=k)

    def resolve_k(self, n: int, m: int, delta: float) -> int:
        if self.sample_size is not None:
            return max(1, self.sample_size)
        base = (max(1, n) * max(1, m)) / delta
        derived = math.ceil(base**self.sample_size_exponent)
        return int(min(self.max_sample_size, max(self.min_sample_size, derived)))

    def resolve_retries(self) -> int:
        if self.retry_budget is not None:
            return max(1, self.retry_budget)
        # Expected ~e⁴/φ₀-ish tries per success; 40·e⁴ ≈ 2184 gives a
        # < e⁻⁴⁰ chance of spuriously failing a healthy vertex.
        return max(64, math.ceil(40 * math.e**4))


@dataclass
class _Entry:
    """Per-vertex bookkeeping: the pair (R(s), X(s)) of Algorithm 5."""

    estimate: float                 # R(s)
    sketch: list                    # X(s): list of words (multiset)
    exact: bool                     # exactly handled?
    exact_set: frozenset | None     # U(s) when exactly handled


#: One expanded walk-table node: ``(symbols, bounds, total, probabilities,
#: children)``.  ``symbols`` are the repr-ordered labels of the node's
#: predecessor partition, ``bounds`` the running sums of their W̃,
#: ``total`` the builtin ``sum`` of the W̃, ``probabilities`` each W̃
#: over ``total`` and ``children`` the node id of each symbol's
#: predecessor group.
_WalkNode = tuple[
    tuple[Symbol, ...], tuple[float, ...], float, tuple[float, ...], tuple[int, ...]
]


class FprasFailure(Exception):
    """Internal signal: the algorithm hit a failure event (outputs 0).

    Mirrors Algorithm 5 steps 5(b)/5(c)(iii).  :func:`approx_count_nfa`
    converts it into the paper's "output 0" convention; callers that
    prefer an exception can use ``FprasState`` directly.
    """


@dataclass
class FprasDiagnostics:
    """Observability counters for experiments and tests."""

    k: int = 0
    exactly_handled: int = 0
    sketched: int = 0
    sample_draws: int = 0
    sample_rejections: int = 0
    sample_walk_failures: int = 0
    reach_cache_misses: int = 0
    used_exhaustive: bool = False
    layers: int = 0


class FprasState:
    """The preprocessed FPRAS data structures for one ``(N, n, δ)`` instance.

    Construction runs Algorithm 5's layer loop and therefore does all the
    heavy lifting; afterwards

    * :attr:`estimate` is the count estimate ``R(s_final)``, and
    * :meth:`sample_witness` draws exactly-uniform witnesses using the
      same ``Sample`` machinery (this is what the PLVUG of Corollary 23
      wraps).

    All per-vertex bookkeeping is integer-indexed over the compiled
    kernel (:class:`~repro.core.kernel.CompiledDAG`): vertices are local
    layer indices, the fixed linear order ≺ on each layer is index order
    (indices are assigned in repr order, reproducing the seed's
    ordering), and predecessor partitions / prefix-set steps run on the
    kernel's flat edge arrays.  A caller holding a reachable-mode kernel
    for ``(nfa, n)`` (e.g. the :class:`repro.api.WitnessSet` facade)
    passes it as ``kernel`` to skip recompilation.

    Every ``Sample`` walk — sketch filling, :meth:`sample_witness` and
    :meth:`propose_witness` — runs on one walk table (see the module
    docstring): each visited ``(t, vertex set)`` is expanded once into
    its symbols, cumulative W̃ bounds and child nodes, so a step costs a
    list index, a ``random()`` and a ``bisect``.  Walks consume the RNG
    exactly as the plain walk does, one ``random()`` per step and then
    the acceptance coin.

    The prefix-set steps and predecessor partitions execute on whatever
    execution backend the kernel carries
    (:meth:`~repro.core.kernel.CompiledDAG.set_kernel_backend`): with
    the NumPy backend the flat-array sweeps vectorize, and because every
    consumer here iterates the resulting frozensets through ``sorted``
    / ``min`` order, fixed-seed estimates are bit-identical across
    backends.

    A finished construction adds its walk, rejection, walk-failure and
    reach-cache-miss counts to the ``repro_fpras_*_total`` counters.
    """

    def __init__(
        self,
        nfa: NFA,
        n: int,
        delta: float = 0.1,
        rng: random.Random | int | None = None,
        params: FprasParameters | None = None,
        kernel: CompiledDAG | None = None,
    ):
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if n < 0:
            raise ValueError("n must be ≥ 0")
        self.nfa = nfa.without_epsilon()
        self.n = n
        self.delta = delta
        self.params = params or FprasParameters()
        self.rng = make_rng(rng)
        self.diagnostics = FprasDiagnostics()
        if kernel is None:
            kernel = compile_nfa(self.nfa, n, trimmed=False)
        elif kernel.trimmed or kernel.n < n or not kernel_matches_nfa(kernel, self.nfa):
            raise InvalidAutomatonError(
                "the FPRAS needs a reachable-mode kernel of the same "
                f"automaton at length ≥ {n}"
            )
        self.kernel: CompiledDAG = kernel
        self.k = self.params.resolve_k(n, self.nfa.num_states, delta)
        self.retries = self.params.resolve_retries()
        self.diagnostics.k = self.k
        self.diagnostics.layers = n
        self._entries: list[dict[int, _Entry]] = [dict() for _ in range(n + 1)]
        start = kernel.index_of(0, self.nfa.initial)
        self._reach_cache: dict[Word, frozenset] = {
            (): frozenset() if start is None else frozenset({start})
        }
        # The W̃ memo and the walk table (see the module docstring).  Both
        # are sound: a layer's entries are immutable once written, and a
        # walk node at layer t reads only the W̃ of layer t-1.  The memo
        # serves the estimates and the many walk nodes sharing a group.
        self._w_cache: dict[tuple[int, frozenset], float] = {}
        self._walk_ids: dict[tuple[int, frozenset], int] = {}
        self._walk_keys: list[tuple[int, frozenset]] = []
        self._walk_nodes: list[_WalkNode | None] = []
        self.failed = False
        self.estimate: float = 0.0
        self._final_exact_union: frozenset | None = None
        self._run()

    # ------------------------------------------------------------------
    # Membership machinery
    # ------------------------------------------------------------------

    def _reach(self, prefix: Word) -> frozenset:
        """Layer-``|prefix|`` vertex indices reachable by reading ``prefix``.

        ``x ∈ U(s_t^j)`` ⟺ ``index(j) ∈ reach(x)`` (with ``|x| = t``):
        this is the breadth-first-search membership test of Algorithm 4
        step 3(a), shared across all sketches via the cache and stepped
        through the kernel's flat edge arrays.
        """
        cached = self._reach_cache.get(prefix)
        if cached is not None:
            return cached
        base = self._reach(prefix[:-1])
        result = self.kernel.step_indices(len(prefix) - 1, base, prefix[-1])
        self._reach_cache[prefix] = result
        self.diagnostics.reach_cache_misses += 1
        return result

    # ------------------------------------------------------------------
    # The W̃ estimator (Algorithm 5 step 5a / Algorithm 4 step 3a)
    # ------------------------------------------------------------------

    def _w_tilde(self, layer: int, group: Iterable[int]) -> float:
        """Estimate ``|⋃_{s ∈ group} U(s)|`` from the groups' sketches.

        ``group`` holds vertex *indices* at ``layer``; it is processed in
        the global order ≺ (= index order), each vertex contributing
        ``R(s)`` scaled by the sketch fraction that is *not* already
        covered by earlier vertices.  For a sample ``x ∈ X(s)`` the
        earlier-coverage test reduces to: is the minimum of ``reach(x) ∩
        group`` equal to ``s``'s index?  (``s`` itself is always in
        ``reach(x)`` because ``x ∈ U(s)``.)
        """
        group_set = frozenset(group)
        cache_key = (layer, group_set)
        cached = self._w_cache.get(cache_key)
        if cached is not None:
            return cached
        ordered = sorted(group_set)
        total = 0.0
        for position, vertex in enumerate(ordered):
            entry = self._entries[layer][vertex]
            if not entry.sketch:
                continue
            if position == 0:
                total += entry.estimate
                continue
            fresh = 0
            for x in entry.sketch:
                if min(self._reach(x) & group_set) == vertex:
                    fresh += 1
            total += entry.estimate * (fresh / len(entry.sketch))
        self._w_cache[cache_key] = total
        return total

    # ------------------------------------------------------------------
    # The walk table
    # ------------------------------------------------------------------

    def _walk_node(self, t: int, vertices: frozenset) -> int:
        """The walk-table node id of ``(t, vertices)``, interned on first use."""
        key = (t, vertices)
        node = self._walk_ids.get(key)
        if node is None:
            node = self._walk_ids[key] = len(self._walk_keys)
            self._walk_keys.append(key)
            self._walk_nodes.append(None)
        return node

    def _expand(self, node: int) -> _WalkNode:
        """Build ``node``'s entry from its ``{b: T_b}`` predecessor partition.

        Runs on the node's first visit, when every layer below it is
        final, and computes the W̃ of exactly the groups the plain walk
        would (so the reach-cache diagnostics do not move).
        """
        t, vertices = self._walk_keys[node]
        groups = self.kernel.predecessor_groups(t, vertices)
        symbols = tuple(sorted(groups, key=repr))
        weights = [self._w_tilde(t - 1, groups[b]) for b in symbols]
        # ``total`` scales the pick and the bounds are the running sums it
        # is compared against.  Keep the builtin sum apart from the bounds:
        # from Python 3.12 on it is compensated, so the two can differ.
        total = sum(weights)
        entry = (
            symbols,
            tuple(accumulate(weights)),
            total,
            tuple(w / total for w in weights) if total > 0 else (),
            tuple(self._walk_node(t - 1, groups[b]) for b in symbols),
        )
        self._walk_nodes[node] = entry
        return entry

    @cached_property
    def _final_node(self) -> int:
        """The walk node of the last layer's accepting vertices."""
        return self._walk_node(self.n, frozenset(self.kernel.final_indices(self.n)))

    # ------------------------------------------------------------------
    # Sample (Algorithm 4)
    # ------------------------------------------------------------------

    def _sample_walk(
        self, node: int, generator: random.Random, phi0: float | None = None
    ) -> Word | None:
        """One invocation of ``Sample(T, ε, φ₀)``; None on failure.

        Walks backwards from walk node ``node`` (a set ``T`` of vertex
        indices at some layer) to layer 0, choosing symbols with
        probability proportional to the sketched union estimates and
        accumulating the acceptance probability φ.  With ``phi0=None``
        the walk has no φ and no rejection: it returns whatever word it
        reaches (:meth:`propose_witness`).
        """
        phi = phi0
        if phi is not None and not 0 < phi < 1:
            self.diagnostics.sample_walk_failures += 1
            return None
        nodes = self._walk_nodes
        draw = generator.random
        suffix: list[Symbol] = []
        for _ in range(self._walk_keys[node][0]):
            symbols, bounds, total, probabilities, children = (
                nodes[node] or self._expand(node)
            )
            if total <= 0:
                self.diagnostics.sample_walk_failures += 1
                return None
            # The first running sum above the pick; past the last one
            # (rounding), the last symbol.
            chosen = bisect_right(bounds, draw() * total)
            if chosen == len(bounds):
                chosen -= 1
            if phi is not None:
                probability = probabilities[chosen]
                if probability <= 0:
                    self.diagnostics.sample_walk_failures += 1
                    return None
                phi /= probability
                if phi >= 1:
                    # Step 1 of Algorithm 4 at the next recursion level.
                    self.diagnostics.sample_walk_failures += 1
                    return None
            suffix.append(symbols[chosen])
            node = children[chosen]
        # Layer 0: the node is ⊆ {initial} by construction of the DAG.
        if phi is None or draw() < phi:
            return tuple(reversed(suffix))
        self.diagnostics.sample_rejections += 1
        return None

    def _draw_samples(self, layer: int, vertex: int, node: int, estimate: float) -> list:
        """Fill a sketch with ``k`` uniform samples of ``U(vertex@layer)``.

        The walks start at the vertex's own node, whose first partition
        is the vertex's predecessor groups.  Each needed sample is
        attempted up to the retry budget; exhausting it is Algorithm 5's
        failure event 5(c)(iii).
        """
        phi0 = self.params.rejection_constant / estimate
        sketch: list = []
        while len(sketch) < self.k:
            drawn = None
            for _ in range(self.retries):
                self.diagnostics.sample_draws += 1
                drawn = self._sample_walk(node, self.rng, phi0)
                if drawn is not None:
                    break
            if drawn is None:
                raise FprasFailure(
                    f"sampling failed at layer {layer} vertex {vertex}: "
                    f"no acceptance in {self.retries} attempts"
                )
            sketch.append(drawn)
        return sketch

    # ------------------------------------------------------------------
    # The layer loop (Algorithm 5 steps 4–5)
    # ------------------------------------------------------------------

    def _run(self) -> None:
        try:
            self._run_inner()
        except FprasFailure:
            # Algorithm 5's convention: failure events output 0.
            self.failed = True
            self.estimate = 0.0
        self._note_diagnostics()

    def _note_diagnostics(self) -> None:
        """Add this construction's walk counts to the obs counters (once
        per state, so the walk loop itself records nothing)."""
        registry = _obs_metrics()
        d = self.diagnostics
        registry.counter(metric_names.FPRAS_WALKS).inc(d.sample_draws)
        registry.counter(metric_names.FPRAS_REJECTIONS).inc(d.sample_rejections)
        registry.counter(metric_names.FPRAS_WALK_FAILURES).inc(d.sample_walk_failures)
        registry.counter(metric_names.FPRAS_REACH_CACHE_MISSES).inc(
            d.reach_cache_misses
        )

    def _run_inner(self) -> None:
        sigma_size = max(1, len(self.nfa.alphabet))
        if self.n <= self.params.exhaustive_length or sigma_size**self.n <= self.k:
            # Algorithm 5 step 1: tiny instances are counted exactly.
            self.diagnostics.used_exhaustive = True
            self.estimate = float(count_words_exact(self.nfa, self.n))
            self._final_exact_union = None
            self._exhaustive = True
            return
        self._exhaustive = False

        # Layer 0: the start vertex, exactly handled with U = {ε}.
        start = self.kernel.index_of(0, self.nfa.initial)
        self._entries[0][start] = _Entry(
            estimate=1.0, sketch=[()], exact=True, exact_set=frozenset({()})
        )
        self.diagnostics.exactly_handled += 1

        for t in range(1, self.n + 1):
            for vertex in range(self.kernel.layer_size(t)):
                self._process_vertex(t, vertex)

        finals = list(self.kernel.final_indices(self.n))
        if not finals:
            self.estimate = 0.0
            self._final_exact_union = frozenset()
            return
        if all(self._entries[self.n][s].exact for s in finals):
            union: set = set()
            for s in finals:
                union |= self._entries[self.n][s].exact_set
            self._final_exact_union = frozenset(union)
            self.estimate = float(len(union))
            return
        self._final_exact_union = None
        self.estimate = self._w_tilde(self.n, finals)
        if self.estimate <= 0:
            raise FprasFailure("final estimate collapsed to zero")

    def _process_vertex(self, t: int, vertex: int) -> None:
        predecessors = self.kernel.predecessor_groups(t, (vertex,))
        # Algorithm 5 step 4: try the exactly-handled route first.
        if all(
            self._entries[t - 1][p].exact
            for group in predecessors.values()
            for p in group
        ):
            exact_words: set = set()
            for symbol, group in predecessors.items():
                for p in group:
                    for x in self._entries[t - 1][p].exact_set:
                        exact_words.add(x + (symbol,))
            if len(exact_words) <= self.k:
                self._entries[t][vertex] = _Entry(
                    estimate=float(len(exact_words)),
                    sketch=list(exact_words),
                    exact=True,
                    exact_set=frozenset(exact_words),
                )
                self.diagnostics.exactly_handled += 1
                return
        # Algorithm 5 step 5: sketched route.  R(s) = Σ_b W̃_b is the last
        # running sum of the vertex's own walk node, where its k samples'
        # walks (Sample({s}, ε, e⁻⁴/R)) start.
        node = self._walk_node(t, frozenset({vertex}))
        bounds = self._expand(node)[1]
        estimate = bounds[-1] if bounds else 0.0
        if estimate <= 0:
            raise FprasFailure(f"R collapsed to zero at layer {t} vertex {vertex}")
        sketch = self._draw_samples(t, vertex, node, estimate)
        self._entries[t][vertex] = _Entry(
            estimate=estimate, sketch=sketch, exact=False, exact_set=None
        )
        self.diagnostics.sketched += 1

    # ------------------------------------------------------------------
    # Public results
    # ------------------------------------------------------------------

    @property
    def count_estimate(self) -> float:
        """The estimate ``R(s_final)`` of ``|L_n(N)|`` (0.0 on failure)."""
        return self.estimate

    def estimate_at_length(self, t: int) -> float:
        """Estimate ``|L_t(N)|`` for any ``t ≤ n`` from the same sketches.

        A practical optimization in the spirit of Section 7: the layer
        loop already built ``(R, X)`` for every vertex of every layer, and
        ``|L_t(N)| = |⋃_{f ∈ F} U(s_t^f)|`` is one more ≺-ordered union
        estimate over the accepting states of layer ``t``.  One
        preprocessing pass therefore yields the whole count spectrum
        ``t = 0..n`` instead of ``n`` separate FPRAS runs.
        """
        if not 0 <= t <= self.n:
            raise ValueError(f"length {t} outside 0..{self.n}")
        if self.failed:
            return 0.0
        if self.diagnostics.used_exhaustive:
            return float(count_words_exact(self.nfa, t))
        finals = list(self.kernel.final_indices(t))
        if not finals:
            return 0.0
        if all(self._entries[t][vertex].exact for vertex in finals):
            union: set = set()
            for vertex in finals:
                union |= self._entries[t][vertex].exact_set
            return float(len(union))
        return self._w_tilde(t, finals)

    def estimate_spectrum(self) -> list[float]:
        """``[|L_0|, …, |L_n|]`` estimates from one preprocessing pass."""
        return [self.estimate_at_length(t) for t in range(self.n + 1)]

    def is_exact(self) -> bool:
        """True when the run produced an exact count (tiny instance or all
        accepting vertices exactly handled)."""
        return self.diagnostics.used_exhaustive or self._final_exact_union is not None

    def sample_witness(self, rng: random.Random | int | None = None) -> Word | None:
        """Draw one uniform witness of ``L_n(N)``; None means *fail*.

        This is a single Las Vegas attempt (Corollary 23's ``G``):
        conditioned on returning a word, the distribution is uniform over
        ``L_n(N)``.  Returns None on the rejection branch; wrap with
        :class:`repro.core.plvug.LasVegasUniformGenerator` for retries.

        Raises
        ------
        EmptyWitnessSetError
            When ``L_n(N) = ∅`` (the paper's ⊥ output).
        """
        return self._witness(rng, rejection=True)

    def propose_witness(self, rng: random.Random | int | None = None) -> Word | None:
        """One almost-uniform witness: the ``Sample`` walk without φ.

        The walk from the accepting vertices keeps the word it reaches,
        with no rejection coin, so its law is ``Π p_b`` — uniform only as
        far as the W̃ estimates are exact (the generator of
        :class:`repro.core.almost_uniform.AlmostUniformGenerator`).
        Exact regimes draw uniformly.  None means the walk hit a
        zero-weight stratum or the construction failed.

        Raises
        ------
        EmptyWitnessSetError
            When ``L_n(N) = ∅``.
        """
        return self._witness(rng, rejection=False)

    def _witness(self, rng: random.Random | int | None, rejection: bool) -> Word | None:
        generator = make_rng(rng) if rng is not None else self.rng
        if not self.kernel.final_indices(self.n) or (
            self.estimate <= 0 and not self.failed and self.is_exact()
        ):
            raise EmptyWitnessSetError(f"no witnesses of length {self.n}")
        if self.is_exact():
            universe = self._exhaustive_universe()
            if not universe:
                raise EmptyWitnessSetError(f"no witnesses of length {self.n}")
            return universe[generator.randrange(len(universe))]
        if self.failed:
            return None
        phi0 = self.params.rejection_constant / self.estimate if rejection else None
        return self._sample_walk(self._final_node, generator, phi0)

    def _exhaustive_universe(self) -> list:
        """Materialized witness list for the exact regimes (cached)."""
        cached = getattr(self, "_universe_cache", None)
        if cached is not None:
            return cached
        if self._final_exact_union is not None:
            universe = sorted(self._final_exact_union)
        else:
            from repro.automata.operations import words_of_length

            universe = words_of_length(self.nfa, self.n)
        self._universe_cache = universe
        return universe


def approx_count_nfa(
    nfa: NFA,
    n: int,
    delta: float = 0.1,
    rng: random.Random | int | None = None,
    params: FprasParameters | None = None,
) -> float:
    """FPRAS estimate of ``|L_n(nfa)|`` (Theorem 22's interface).

    Returns the estimate; failure events return 0.0 exactly as in
    Algorithm 5.  For diagnostics, sampling access and exactness
    information, build a :class:`FprasState` instead.
    """
    return FprasState(nfa, n, delta=delta, rng=rng, params=params).count_estimate
