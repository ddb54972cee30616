"""A1 — ablation: sketch size k versus FPRAS error.

The paper's k = (nm/δ)^64 exists for the proof; this ablation maps the
practical frontier on a fixed hard instance: error falls roughly as
1/√k (the Hoeffding shape) and is already within δ = 0.3 at k ≈ 32–64.
The paper-faithful k for this instance is also printed for perspective.

Instance choice matters: on families whose per-vertex predecessor unions
are disjoint (e.g. the blowup family) the sketch fractions are exact and
error is 0 at every k — sampling noise only enters through *overlapping*
unions.  We therefore ablate on the Σ*·101·Σ* pattern automaton, whose
guess-the-occurrence structure overlaps heavily.
"""

from __future__ import annotations

import pytest

from repro.automata.random_gen import contains_pattern_nfa
from repro.core.exact import count_words_exact
from repro.core.fpras import FprasParameters, approx_count_nfa
from repro.papers.constants import PaperConstants
from repro.utils.stats import relative_error, summarize_errors

N = 14
NFA = contains_pattern_nfa("101")
EXACT = count_words_exact(NFA, N)


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128])
def test_error_vs_k(benchmark, observe, k):
    params = FprasParameters(sample_size=k)

    def run():
        return approx_count_nfa(NFA, N, delta=0.3, rng=1, params=params)

    benchmark.pedantic(run, rounds=1, iterations=1)
    errors = [
        relative_error(approx_count_nfa(NFA, N, delta=0.3, rng=seed, params=params), EXACT)
        for seed in range(8)
    ]
    summary = summarize_errors(errors, delta=0.3)
    observe(
        "A1",
        f"k={k:<4} median-err={summary.median:6.3f} max-err={summary.maximum:6.3f} "
        f"within-δ={summary.within_delta_fraction:.2f}",
    )
    if k >= 32:
        # The FPRAS contract (≥ 3/4 of runs within δ) from k ≈ 32 on.
        assert summary.within_delta_fraction >= 0.75


def test_paper_k_for_perspective(benchmark, observe):
    m = NFA.without_epsilon().num_states
    paper_k = benchmark(PaperConstants().sample_size, N, m, 0.3)
    observe(
        "A1",
        f"paper-faithful k for this instance (n={N}, m={m}, δ=0.3): ≈ 10^{len(str(paper_k)) - 1}",
    )
    assert paper_k > 10**100
