"""The naive Monte Carlo estimator of Section 6.1 — and why it fails.

The estimator the paper dismisses before presenting its FPRAS:

1. count the total number ``P`` of accepting *paths* of length ``n``
   (easy: the run-count DP);
2. sample an accepting path uniformly (backward-count walk), read off
   its word ``x``;
3. compute ``P_x``, the number of accepting paths labelled ``x``;
4. output the average of ``P / P_x`` over ``N`` samples.

It is unbiased: each word ``x`` is drawn with probability ``P_x / P``
and contributes ``P / P_x``, so the expectation is the number of accepted
words.  But its variance is driven by ``max_x P/P_x · |L|``-style ratios:
on families where run counts differ exponentially across words (e.g.
:func:`repro.automata.random_gen.ambiguity_blowup`), achieving relative
error δ needs exponentially many samples — experiment E5 measures exactly
this collapse against the FPRAS at equal sample budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.automata.nfa import NFA, Word
from repro.core.kernel import CompiledDAG, compile_nfa, kernel_matches_nfa
from repro.errors import EmptyWitnessSetError, InvalidAutomatonError
from repro.utils.rng import make_rng


class uniform_run_sampler:
    """Sample uniform accepting *runs* (paths) of length ``n``.

    The run distribution is exactly what the Section 5.3.3 sampler uses —
    but over runs, not words: on ambiguous automata the induced word
    distribution is biased toward high-multiplicity words, which is the
    whole problem.  Walks are table-guided over the compiled kernel
    (pass a cached trimmed ``kernel`` to share preprocessing); the count
    tables stay inspectable through :attr:`kernel`.
    """

    def __init__(self, nfa: NFA, n: int, kernel: CompiledDAG | None = None):
        self.nfa = nfa.without_epsilon()
        self.n = n
        if kernel is None:
            kernel = compile_nfa(self.nfa, n, trimmed=True)
        elif kernel.n != n or not kernel_matches_nfa(kernel, self.nfa):
            raise InvalidAutomatonError(
                f"kernel mismatch: compiled for n={kernel.n}, sampler needs "
                f"length {n} of the same automaton"
            )
        self.kernel = kernel
        self.total_runs = self.kernel.total_runs

    def __call__(self, rng: random.Random | int | None = None) -> Word:
        if self.total_runs == 0:
            raise EmptyWitnessSetError(f"no accepting runs of length {self.n}")
        return self.kernel.sample_word(make_rng(rng))


@dataclass
class MonteCarloEstimate:
    """The E5 observable bundle: estimate plus variance diagnostics."""

    estimate: float
    total_paths: int
    samples: int
    ratios: list  # the per-sample P/P_x values

    @property
    def empirical_relative_std(self) -> float:
        if not self.ratios or self.estimate == 0:
            return 0.0
        mean = sum(self.ratios) / len(self.ratios)
        variance = sum((r - mean) ** 2 for r in self.ratios) / max(1, len(self.ratios) - 1)
        return (variance**0.5) / mean if mean else 0.0


def naive_montecarlo_count(
    nfa: NFA,
    n: int,
    samples: int,
    rng: random.Random | int | None = None,
    kernel: CompiledDAG | None = None,
) -> MonteCarloEstimate:
    """Run the Section 6.1 estimator with ``samples`` path draws.

    ``kernel`` optionally supplies an already-compiled trimmed kernel of
    ``(nfa, n)`` (e.g. from a :class:`repro.api.WitnessSet` cache) so the
    estimator skips its own compilation.
    """
    generator = make_rng(rng)
    stripped = nfa.without_epsilon()
    sampler = uniform_run_sampler(stripped, n, kernel=kernel)
    if sampler.total_runs == 0:
        return MonteCarloEstimate(estimate=0.0, total_paths=0, samples=0, ratios=[])
    total_paths = sampler.total_runs
    ratios: list[float] = []
    for _ in range(samples):
        w = sampler(generator)
        multiplicity = stripped.count_accepting_runs(w)
        ratios.append(total_paths / multiplicity)
    estimate = sum(ratios) / len(ratios)
    return MonteCarloEstimate(
        estimate=estimate, total_paths=total_paths, samples=samples, ratios=ratios
    )
