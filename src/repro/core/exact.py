"""Exact counting (Section 5.3.2) and the DP tables behind it.

For an *unambiguous* NFA, accepted words of length ``n`` are in bijection
with accepting runs, and accepting runs are counted by the obvious
layer-by-layer dynamic program — the paper phrases this as membership of
the function in ``#L`` (and hence ``FP``); the DP below is the standard
polynomial-time evaluation of that #L function.  All arithmetic is exact
Python bignum.

Provided:

* :func:`count_accepting_runs_of_length` — the raw run-count DP (any NFA).
* :func:`count_words_ufa` — exact ``|L_n(N)|`` for unambiguous ``N``
  (checks unambiguity unless told not to).
* :func:`count_words_exact` — exact ``|L_n(N)|`` for *any* NFA via
  on-the-fly subset construction: exponential worst case, the baseline the
  FPRAS is measured against.
* :func:`length_spectrum` — counts across a range of lengths, from one
  kernel or one subset-construction pass.

The run-count DP runs on the integer-indexed
:class:`~repro.core.kernel.CompiledDAG` arrays: its forward and backward
tables are the kernel's packed rows (``forward_counts`` /
``backward_counts``, indexed as ``layer_states``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.automata.nfa import NFA
from repro.automata.unambiguous import require_unambiguous
from repro.core.kernel import compile_nfa


def count_accepting_runs_of_length(nfa: NFA, n: int) -> int:
    """Number of accepting *runs* of length ``n`` (any ε-free NFA).

    O(n·|δ|) time, bignum-exact.  Equals ``|L_n(N)|`` iff ``N`` is
    unambiguous at length ``n``.
    """
    return compile_nfa(nfa, n, trimmed=False).total_runs


def count_words_ufa(nfa: NFA, n: int, check: bool = True) -> int:
    """Exact ``|L_n(N)|`` for an unambiguous NFA (Section 5.3.2).

    With ``check=True`` (default) the automaton's unambiguity is verified
    first (O(m²·|Σ|)); pass ``check=False`` when the caller already holds
    a certificate (e.g. the automaton came from a determinization).

    Raises
    ------
    AmbiguityError
        If ``check`` is on and the automaton is ambiguous — silently
        returning a run count would over-report the number of words.
    """
    if check:
        nfa = require_unambiguous(nfa, context="exact word counting")
    else:
        nfa = nfa.without_epsilon()
    return count_accepting_runs_of_length(nfa, n)


def _subset_layers(stripped: NFA, n: int) -> Iterator[dict[frozenset, int]]:
    """Layers ``0..n`` of the subset-construction DP over the ε-free
    ``stripped``.

    ``counts[S]`` = number of distinct length-``t`` words whose reachable
    state set is exactly ``S``; each word extends deterministically, so
    summing over accepting subsets at layer ``t`` (:func:`_accepted`)
    gives ``|L_t(N)|`` exactly.  The number of distinct subsets
    encountered bounds the cost — exponential in the worst case.
    """
    counts: dict[frozenset, int] = {frozenset({stripped.initial}): 1}
    yield counts
    for _ in range(n):
        nxt: dict[frozenset, int] = {}
        for subset, ways in counts.items():
            for symbol in stripped.alphabet:
                target: set = set()
                for state in subset:
                    target |= stripped.successors(state, symbol)
                if target:
                    key = frozenset(target)
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
        yield counts


def _accepted(counts: dict[frozenset, int], finals: frozenset) -> int:
    """The words of one :func:`_subset_layers` layer that are accepted."""
    return sum(ways for subset, ways in counts.items() if not finals.isdisjoint(subset))


def count_words_exact(nfa: NFA, n: int) -> int:
    """Exact ``|L_n(N)|`` for an arbitrary NFA, via subset-construction DP
    (:func:`_subset_layers`).

    This is the ground-truth baseline for the FPRAS experiments (and the
    reason an FPRAS is needed at all).
    """
    stripped = nfa.without_epsilon()
    for counts in _subset_layers(stripped, n):
        pass
    return _accepted(counts, stripped.finals)


def length_spectrum(nfa: NFA, lengths: Sequence[int], exact_nfa: bool = False) -> dict[int, int]:
    """``{n: |L_n(N)|}`` for each requested length.

    With ``exact_nfa=False`` the automaton must be unambiguous (fast DP);
    with ``exact_nfa=True`` the subset-construction counts are used
    instead, every length read off one pass up to the longest.
    """
    lengths = list(lengths)
    if min(lengths, default=0) < 0:
        raise ValueError("word length must be ≥ 0")
    if exact_nfa:
        stripped = nfa.without_epsilon()
        layers = _subset_layers(stripped, max(lengths, default=0))
        totals = [_accepted(counts, stripped.finals) for counts in layers]
        return {n: totals[n] for n in lengths}
    stripped = require_unambiguous(nfa, context="length spectrum")
    if not lengths:
        return {}
    # One reachable-mode compilation at the maximum length answers every
    # requested length from its per-layer forward counts — a linear sweep
    # instead of one unrolling per length.
    spectrum = compile_nfa(stripped, max(lengths), trimmed=False).spectrum_counts()
    return {n: spectrum[n] for n in lengths}


def run_count_by_word(nfa: NFA, n: int) -> dict[tuple, int]:
    """Map every accepted length-``n`` word to its number of accepting runs.

    Brute force (enumerates the language) — diagnostics and tests only.
    The multiset of values is the "ambiguity profile" that governs the
    naive Monte Carlo estimator's variance (Section 6.1).
    """
    from repro.automata.operations import words_of_length

    stripped = nfa.without_epsilon()
    return {
        w: stripped.count_accepting_runs(w) for w in words_of_length(stripped, n)
    }
