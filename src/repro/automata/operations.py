"""Language algebra on NFAs: union, intersection, concatenation, star, ...

These constructions follow the textbook recipes with fresh-state labelling
that keeps results well-formed regardless of source state names: every
operation relabels operands into disjoint namespaces before combining.

There is one product construction, the lazy
:class:`repro.core.plan.Product` node: :func:`intersection` is its
materialized, trimmed rendering.  Callers that lower straight into the
:class:`~repro.core.kernel.CompiledDAG` kernel build the plan nodes of
:mod:`repro.core.plan` (``Product``, ``Union``, ``Concat``, ``Star``,
``Relabel``) directly and never materialize the intermediate automaton.
"""

from __future__ import annotations

from repro.automata.dfa import determinize, minimize
from repro.automata.nfa import EPSILON, NFA


def _tagged(nfa: NFA, tag: object) -> NFA:
    """Relabel every state as ``(tag, state)`` to force disjointness."""
    transitions = [
        ((tag, source), symbol, (tag, target)) for source, symbol, target in nfa.transitions
    ]
    return NFA(
        [(tag, state) for state in nfa.states],
        nfa.alphabet,
        transitions,
        (tag, nfa.initial),
        [(tag, state) for state in nfa.finals],
    )


def union(left: NFA, right: NFA) -> NFA:
    """NFA accepting L(left) ∪ L(right) (fresh initial state, ε-fan-out)."""
    a = _tagged(left, 0)
    b = _tagged(right, 1)
    initial = ("u", 0)
    states = set(a.states) | set(b.states) | {initial}
    transitions = set(a.transitions) | set(b.transitions)
    transitions.add((initial, EPSILON, a.initial))
    transitions.add((initial, EPSILON, b.initial))
    return NFA(
        states,
        left.alphabet | right.alphabet,
        transitions,
        initial,
        set(a.finals) | set(b.finals),
    )


def concatenate(left: NFA, right: NFA) -> NFA:
    """NFA accepting L(left)·L(right) (ε-edges from left finals to right start)."""
    a = _tagged(left, 0)
    b = _tagged(right, 1)
    states = set(a.states) | set(b.states)
    transitions = set(a.transitions) | set(b.transitions)
    for final in a.finals:
        transitions.add((final, EPSILON, b.initial))
    return NFA(states, left.alphabet | right.alphabet, transitions, a.initial, b.finals)


def star(nfa: NFA) -> NFA:
    """NFA accepting L(nfa)* (Thompson star with a fresh initial/final state)."""
    a = _tagged(nfa, 0)
    hub = ("star", 0)
    states = set(a.states) | {hub}
    transitions = set(a.transitions)
    transitions.add((hub, EPSILON, a.initial))
    for final in a.finals:
        transitions.add((final, EPSILON, hub))
    return NFA(states, nfa.alphabet, transitions, hub, [hub])


def plus(nfa: NFA) -> NFA:
    """NFA accepting L(nfa)+ = L·L*."""
    return concatenate(nfa, star(nfa))


def optional(nfa: NFA) -> NFA:
    """NFA accepting L(nfa) ∪ {ε}."""
    a = _tagged(nfa, 0)
    hub = ("opt", 0)
    states = set(a.states) | {hub}
    transitions = set(a.transitions) | {(hub, EPSILON, a.initial)}
    return NFA(states, nfa.alphabet, transitions, hub, set(a.finals) | {hub})


def repeat(nfa: NFA, low: int, high: int | None) -> NFA:
    """NFA for L{low,high} (bounded repetition; ``high=None`` means ∞)."""
    if low < 0 or (high is not None and high < low):
        raise ValueError(f"invalid repetition bounds {{{low},{high}}}")
    result = NFA.only_empty_word(nfa.alphabet)
    for _ in range(low):
        result = concatenate(result, nfa)
    if high is None:
        return concatenate(result, star(nfa))
    tail = optional(nfa)
    for _ in range(high - low):
        result = concatenate(result, tail)
    return result


def intersection(left: NFA, right: NFA) -> NFA:
    """Product NFA accepting L(left) ∩ L(right).

    The materialized, trimmed rendering of the lazy
    :class:`~repro.core.plan.Product` node: operands are ε-eliminated
    (as plan atoms), states are ``(left, right)`` pairs, and the result
    keeps the useful pairs over the shared alphabet — the classical
    explore-everything-then-trim construction.
    """
    from repro.core.plan import Product

    return Product(left, right).to_nfa().trim()


def difference(left: NFA, right: NFA) -> NFA:
    """NFA for L(left) \\ L(right), via right's complement DFA.

    Exponential in ``right`` (determinization) — test/ground-truth use only.
    """
    alphabet = left.alphabet | right.alphabet
    widened = NFA(
        right.states, alphabet, right.transitions, right.initial, right.finals
    )
    complement_dfa = determinize(widened).complement()
    return intersection(left, complement_dfa.to_nfa())


def reverse(nfa: NFA) -> NFA:
    """NFA for the reversal language L(nfa)^R.

    Flips every edge, makes the old initial state final, and fans a fresh
    initial state into the old finals by ε.
    """
    hub = ("rev", 0)
    serial = 0
    while hub in nfa.states:  # stay fresh under iterated reversal
        serial += 1
        hub = ("rev", serial)
    states = set(nfa.states) | {hub}
    transitions = {
        (target, symbol, source) for source, symbol, target in nfa.transitions
    }
    for final in nfa.finals:
        transitions.add((hub, EPSILON, final))
    return NFA(states, nfa.alphabet, transitions, hub, [nfa.initial])


def canonical_minimal_dfa(nfa: NFA) -> "object":
    """The minimal complete DFA of L(nfa), renumbered canonically.

    Convenience used by tests that compare languages structurally.
    """
    return minimize(determinize(nfa.without_epsilon()))


def words_of_length(nfa: NFA, length: int, limit: int | None = None) -> list[tuple]:
    """Brute-force: all length-``length`` words in L(nfa), lexicographic.

    Exponential in ``length``; ground truth for small instances.  Symbols
    are ordered by ``repr`` for determinism.  ``limit`` caps the output
    (useful to bail out early in property tests).
    """
    stripped = nfa.without_epsilon()
    symbols = sorted(stripped.alphabet, key=repr)
    results: list[tuple] = []

    def extend(prefix: tuple, states: frozenset) -> bool:
        """DFS over prefixes; returns False when the limit is hit."""
        if not states:
            return True
        if len(prefix) == length:
            if states & stripped.finals:
                results.append(prefix)
                if limit is not None and len(results) >= limit:
                    return False
            return True
        for symbol in symbols:
            nxt = set()
            for state in states:
                nxt |= stripped.successors(state, symbol)
            if nxt and not extend(prefix + (symbol,), frozenset(nxt)):
                return False
        return True

    extend((), frozenset({stripped.initial}))
    return results
