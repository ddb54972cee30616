"""Exact uniform generation for unambiguous NFAs (Section 5.3.3).

The paper's generator walks the self-reduction: at each step it computes
the exact counts of witnesses extending the current prefix by each symbol
(via the polynomial-time counter of Section 5.3.2 applied to ψ-reduced
automata), picks a symbol with probability proportional to its count, and
recurses.  The telescoping product in Section 5.3.3 shows the resulting
distribution is exactly uniform.

Two implementations:

* :func:`sample_word_ufa` — the production sampler.  Mathematically the
  same chain, but instead of rebuilding ψ-automata it walks the unrolled
  DAG with a precomputed *backward run-count table* (``#completions`` per
  vertex).  One table build is O(n·|δ|), then every sample costs
  O(n·deg) bignum work.  Sampling uses ``Random.randrange`` over exact
  integer cumulative sums — no floating point, so the distribution is
  *exactly* uniform, matching the paper's claim (not merely almost
  uniform).
* :func:`sample_word_ufa_via_psi` — the letter-for-letter Section 5.3.3
  procedure (build ψ twice per step, count each side, flip the coin).
  Quadratically slower; kept as a cross-validation oracle — the test
  suite checks both samplers agree in distribution.

Both raise :class:`EmptyWitnessSetError` when ``L_n(N) = ∅`` (callers
preferring the paper's ⊥ convention use :func:`sample_word_ufa_or_none`).
"""

from __future__ import annotations

import random

from repro.automata.nfa import NFA, Word
from repro.automata.unambiguous import require_unambiguous
from repro.core.exact import count_accepting_runs_of_length
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.core.selfreduce import SelfReduction
from repro.errors import EmptyWitnessSetError
from repro.utils.rng import make_rng


class ExactUniformSampler:
    """Reusable exact uniform sampler over ``L_n(nfa)`` for unambiguous ``nfa``.

    Compiles the pruned unrolling into the integer-indexed
    :class:`~repro.core.kernel.CompiledDAG` once (edge arrays plus the
    backward count table); every :meth:`sample` is then an O(n·log deg)
    table-guided walk, and :meth:`sample_batch` draws many witnesses in a
    single layer-by-layer pass.  Amortizes the Section 5.3.3
    preprocessing across many draws, which is how the uniform-generation
    experiments (E7) use it.  The :class:`repro.api.WitnessSet` facade
    draws on its own cached kernel with the same two kernel calls.
    """

    def __init__(self, nfa: NFA, n: int, check: bool = True):
        prepared = (
            require_unambiguous(nfa, context="exact uniform sampling")
            if check
            else nfa.without_epsilon()
        )
        self.n = n
        self.kernel: CompiledDAG = compile_nfa(prepared, n, trimmed=True)
        self.total = self.kernel.total_runs

    @property
    def count(self) -> int:
        """|L_n(N)| — a byproduct of the table build."""
        return self.total

    def sample(self, rng: random.Random | int | None = None) -> Word:
        """Draw one exactly-uniform word of ``L_n(N)``.

        Raises :class:`EmptyWitnessSetError` on an empty witness set.
        """
        return self.kernel.sample_word(make_rng(rng))

    def sample_batch(self, count: int, rng=None) -> list[Word]:
        """``count`` independent uniform witnesses in one table-guided pass.

        Same distribution as ``count`` calls to :meth:`sample` (each
        draw walks the identical Section 5.3.3 chain) but the per-layer
        grouping resolves each vertex's weights once per layer, not once
        per draw.  ``rng`` may also be a sequence of ``count`` per-draw
        generators (deterministic substreams — see
        :meth:`CompiledDAG.sample_batch`).  Raises
        :class:`EmptyWitnessSetError` when ``W = ∅``.
        """
        if isinstance(rng, (list, tuple)):
            return self.kernel.sample_batch(count, rng)
        return self.kernel.sample_batch(count, make_rng(rng))

    def sample_many(self, count: int, rng: random.Random | int | None = None) -> list[Word]:
        generator = make_rng(rng)
        return [self.sample(generator) for _ in range(count)]


def sample_word_ufa(
    nfa: NFA, n: int, rng: random.Random | int | None = None, check: bool = True
) -> Word:
    """One-shot exact uniform sample from ``L_n(nfa)`` (unambiguous ``nfa``)."""
    return ExactUniformSampler(nfa, n, check=check).sample(rng)


def sample_word_ufa_or_none(
    nfa: NFA, n: int, rng: random.Random | int | None = None, check: bool = True
) -> Word | None:
    """Like :func:`sample_word_ufa` but returns None (the paper's ⊥) when empty."""
    sampler = ExactUniformSampler(nfa, n, check=check)
    if sampler.count == 0:
        return None
    return sampler.sample(rng)


def sample_word_ufa_via_psi(
    nfa: NFA, n: int, rng: random.Random | int | None = None, check: bool = True
) -> Word:
    """The literal Section 5.3.3 sampler, via ψ-reductions and recounting.

    At step ``k'``: build ``ψ((N', 0^{k'}), a)`` for every symbol ``a``,
    count each reduced automaton's witnesses with the exact counter, and
    choose a symbol with probability ``count_a / Σ count``.  The paper
    writes the binary case; this is the obvious Σ-ary generalization.

    O(n · |Σ| · (ψ cost + counting cost)) per sample — the reference
    implementation against which :func:`sample_word_ufa` is validated.
    """
    prepared = (
        require_unambiguous(nfa, context="exact uniform sampling (ψ route)")
        if check
        else nfa.without_epsilon()
    )
    generator = make_rng(rng)
    current = SelfReduction(prepared, n)
    if count_accepting_runs_of_length(current.nfa, current.k) == 0:
        raise EmptyWitnessSetError(f"the automaton accepts no word of length {n}")
    symbols_out: list = []
    ordered_alphabet = sorted(prepared.alphabet, key=repr)
    while current.strip_count() > 0:
        weighted: list[tuple] = []
        for symbol in ordered_alphabet:
            reduced = current.step(symbol)
            weight = count_accepting_runs_of_length(reduced.nfa, reduced.k)
            if weight:
                weighted.append((symbol, reduced, weight))
        total = sum(weight for _, _, weight in weighted)
        pick = generator.randrange(total)
        accumulated = 0
        for symbol, reduced, weight in weighted:
            accumulated += weight
            if pick < accumulated:
                symbols_out.append(symbol)
                current = reduced
                break
    return tuple(symbols_out)
