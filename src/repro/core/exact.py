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
* :func:`forward_run_table` / :func:`backward_run_table` — per-layer count
  tables reused by the exact sampler and the enumerator.
* :func:`length_spectrum` — counts across a range of lengths.

All table computation runs on the integer-indexed
:class:`~repro.core.kernel.CompiledDAG` arrays; the dict-shaped tables
these functions return are adapter views over the packed rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.automata.nfa import NFA, State
from repro.automata.unambiguous import require_unambiguous
from repro.core.kernel import CompiledDAG, compile_nfa


def forward_run_table(dag: CompiledDAG) -> list[dict[State, int]]:
    """``table[t][q]`` = number of length-``t`` paths start → ``(t, q)``.

    Counts *runs* (paths), not words; the two coincide exactly on
    unambiguous automata, which is the content of Section 5.3.2.  The DP
    runs over the integer-indexed :class:`CompiledDAG` kernel; this
    adapter renders the array rows back into the per-state dict shape.
    """
    return dag.forward_dicts()


def backward_run_table(dag: CompiledDAG) -> list[dict[State, int]]:
    """``table[t][q]`` = number of length-``(n - t)`` paths ``(t, q)`` → finals.

    The sampler's lookahead table: at layer ``t`` it tells each live state
    how many accepting completions it has.  Computed on the kernel's flat
    edge arrays; states with zero completions are omitted from the dicts,
    matching the seed implementation.
    """
    return dag.backward_dicts()


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


def count_words_exact(nfa: NFA, n: int) -> int:
    """Exact ``|L_n(N)|`` for an arbitrary NFA, via subset-construction DP.

    ``counts[S]`` = number of distinct length-``t`` words whose reachable
    state set is exactly ``S``; each word extends deterministically, so
    summing over accepting subsets at layer ``n`` is exact.  The number of
    distinct subsets encountered bounds the cost — exponential in the
    worst case.  This is the ground-truth baseline for the FPRAS
    experiments (and the reason an FPRAS is needed at all).
    """
    stripped = nfa.without_epsilon()
    counts: dict[frozenset, int] = {frozenset({stripped.initial}): 1}
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
    return sum(ways for subset, ways in counts.items() if subset & stripped.finals)


def length_spectrum(nfa: NFA, lengths: Sequence[int], exact_nfa: bool = False) -> dict[int, int]:
    """``{n: |L_n(N)|}`` for each requested length.

    With ``exact_nfa=False`` the automaton must be unambiguous (fast DP);
    with ``exact_nfa=True`` the subset-construction count is used instead.
    """
    if exact_nfa:
        return {n: count_words_exact(nfa, n) for n in lengths}
    stripped = require_unambiguous(nfa, context="length spectrum")
    lengths = list(lengths)
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
