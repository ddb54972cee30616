"""Almost-uniform generation WITHOUT rejection — the JVV notion, measured.

Section 2.4 contrasts the paper's PLVUG (exactly uniform conditioned on
success) with [JVV86]'s weaker *fully polynomial almost uniform
generator*, which may return witnesses with probabilities in
``[φ(x) − δ, φ(x) + δ]``.  The FPRAS machinery yields such a generator
for free: run the ``Sample`` walk and simply *keep* the first word it
produces, skipping the rejection step.  The walk's output distribution is
``P(w) = Π p_b ≈ |U(w-path)|-proportional`` — close to uniform exactly
when the W̃ estimates are good.

:class:`AlmostUniformGenerator` packages that: it never fails (no
rejection), is faster per draw by the ≈ e⁴ rejection factor, and its
deviation from uniformity is a measurable function of the sketch quality
(ablation A2's companion; the test suite bounds its total-variation
distance on small supports and verifies the PLVUG beats it).
"""

from __future__ import annotations

import random

from repro.automata.nfa import NFA, Word
from repro.core.fpras import FprasParameters, FprasState
from repro.core.unroll import accepted_word_exists
from repro.errors import EmptyWitnessSetError
from repro.utils.rng import make_rng


class AlmostUniformGenerator:
    """Rejection-free witness generation at almost-uniform quality.

    Same preprocessing as the FPRAS / PLVUG; each draw is one backward
    walk accepted unconditionally.  Use when throughput matters more than
    exact uniformity (e.g. fuzzing inputs from a regex); use the PLVUG
    when the uniform law itself is the deliverable.
    """

    def __init__(
        self,
        nfa: NFA,
        n: int,
        delta: float = 0.1,
        rng: random.Random | int | None = None,
        params: FprasParameters | None = None,
    ):
        self.rng = make_rng(rng)
        self.nfa = nfa.without_epsilon()
        self.n = n
        if not accepted_word_exists(self.nfa, n):
            self.state = None
        else:
            self.state = FprasState(self.nfa, n, delta=delta, rng=self.rng, params=params)

    def generate(self) -> Word:
        """One draw; raises on an empty witness set, never fails otherwise."""
        if self.state is None:
            raise EmptyWitnessSetError(f"no witnesses of length {self.n}")
        # One walk, acceptance forced: re-run only on structural walk
        # failures (zero-weight strata), not on the rejection coin.
        for _ in range(64):
            drawn = self.state.propose_witness(self.rng)
            if drawn is not None:
                return drawn
        raise EmptyWitnessSetError(
            "walks repeatedly hit zero-weight strata; estimates degenerate"
        )

    def sample_many(self, count: int) -> list[Word]:
        return [self.generate() for _ in range(count)]


def total_variation_from_uniform(samples, support) -> float:
    """½ Σ_w |p̂(w) − 1/|support|| — the almost-uniform quality metric."""
    support = list(support)
    if not support:
        raise ValueError("empty support")
    from collections import Counter

    counts = Counter(samples)
    n = len(samples)
    uniform = 1 / len(support)
    return 0.5 * sum(abs(counts.get(w, 0) / n - uniform) for w in support)
