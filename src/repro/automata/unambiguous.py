"""Unambiguity: testing, certification and measurement.

An NFA is *unambiguous* (a UFA) when every accepted word has exactly one
accepting run.  This is the defining property of the paper's MEM-UFA
problem, complete for ``RelationUL`` (Proposition 12): the exact counter,
the constant-delay enumerator and the exact uniform sampler of Section 5.3
are only correct on UFAs.

The test is the classical *self-product* criterion: build the product of
the automaton with itself; the automaton is ambiguous iff some useful
product state ``(p, q)`` with ``p ≠ q`` lies on an accepting product
path.  That runs in O(m²·|Σ|) — polynomial, as required for a class
membership check.

There is one walk: every source — a concrete :class:`NFA` (as its
:class:`~repro.core.plan.Atom`) or a symbolic plan of
:mod:`repro.core.plan` — is wrapped by
:func:`~repro.core.plan.memoized_source` and its self-product pairs are
explored lazily, so no product state exists beyond the pairs the walk
actually reaches.

Also provided:

* :func:`ambiguity_counts` — for diagnostics and the Monte Carlo baseline:
  the number of accepting runs per accepted word length (max/total).
* :func:`disambiguate` — an equivalent UFA via determinization (worst-case
  exponential; DFAs are trivially unambiguous).  Used by tests to compare
  the UL pipeline against the NL pipeline on the same language.
"""

from __future__ import annotations

from collections import deque

from repro.automata.dfa import determinize
from repro.automata.nfa import NFA
from repro.errors import AmbiguityError


def is_unambiguous(source) -> bool:
    """Decide unambiguity in O(m²·|Σ|) via the self-product construction.

    ``source`` is an :class:`NFA` (ε-eliminated as its
    :class:`~repro.core.plan.Atom`) or any lazy automaton source (a
    :class:`repro.core.plan.Plan`); either way it is checked on the
    memoized on-the-fly successor interface.  Only the forward-reachable
    pairs of the self-product ever exist, and usefulness of a divergent
    pair is decided by the backward sweep below, so dead branches never
    trigger a false positive and no pre-trim is needed.
    """
    # The pair walk revisits each component state many times, so its
    # successor blocks are memoized once here.
    from repro.core.plan import memoized_source

    source = memoized_source(source)

    # One forward DFS over the self-product, expanding each pair once,
    # records the reached pairs, the off-diagonal ("divergent") ones, and
    # the reverse adjacency the backward sweep needs.
    start = (source.initial, source.initial)
    seen = {start}
    stack = [start]
    diagonal_escaped: set = set()
    reverse: dict[tuple, set] = {}
    while stack:
        pair = stack.pop()
        for symbol, target_a in source.out_edges(pair[0]):
            for target_b in source.successors(pair[1], symbol):
                target = (target_a, target_b)
                reverse.setdefault(target, set()).add(pair)
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
                    if target_a != target_b:
                        diagonal_escaped.add(target)

    if not diagonal_escaped:
        return True

    # A divergent pair (p, q), p ≠ q, witnesses ambiguity iff both legs can
    # reach final states by the same word suffix — i.e. iff (p, q) can reach
    # a pair of finals in the product.  Backward BFS from final pairs.
    finals = source.finals
    final_pairs = {(p, q) for p, q in seen if p in finals and q in finals}
    if not final_pairs:
        return True
    coreachable = set(final_pairs)
    frontier = deque(final_pairs)
    while frontier:
        pair = frontier.popleft()
        for predecessor in reverse.get(pair, ()):
            if predecessor not in coreachable:
                coreachable.add(predecessor)
                frontier.append(predecessor)
    return not (diagonal_escaped & coreachable)


def require_unambiguous(nfa: NFA, context: str = "this operation") -> NFA:
    """Raise :class:`AmbiguityError` unless ``nfa`` is unambiguous.

    Returns the ε-free trimmed automaton, which is what the Section 5.3
    algorithms consume.
    """
    stripped = nfa.without_epsilon().trim()
    if not is_unambiguous(stripped):
        raise AmbiguityError(
            f"{context} requires an unambiguous NFA, but the given automaton "
            "has a word with more than one accepting run; disambiguate() or "
            "use the RelationNL algorithms (FPRAS / PLVUG) instead"
        )
    return stripped


def disambiguate(nfa: NFA) -> NFA:
    """An equivalent unambiguous NFA, via subset construction.

    DFAs have at most one run per word, hence are unambiguous.  Worst-case
    exponential — this is the cost the RelationUL algorithms avoid *when
    the input is already unambiguous*; the paper's separation between the
    two classes is exactly that this step is infeasible in general.
    """
    return determinize(nfa.without_epsilon()).to_nfa().trim()


def ambiguity_counts(nfa: NFA, length: int) -> tuple[int, int, int]:
    """Measure ambiguity at word length ``length``.

    Returns ``(distinct_words, accepting_runs, max_runs_per_word)`` where
    ``accepting_runs`` counts accepting *paths* of length ``length`` and
    ``distinct_words`` counts accepted *words*.  Their ratio (and the max)
    quantifies the variance blow-up of the naive Monte Carlo estimator
    (Section 6.1): the estimator's relative variance scales with
    ``max_runs / min_runs`` across accepted words.

    Exponential in ``length`` for the word count (uses the brute-force
    enumerator); intended for diagnostics at small sizes.
    """
    from repro.automata.operations import words_of_length

    stripped = nfa.without_epsilon()
    accepted = words_of_length(stripped, length)
    run_counts = [stripped.count_accepting_runs(w) for w in accepted]
    return (
        len(accepted),
        sum(run_counts),
        max(run_counts, default=0),
    )
