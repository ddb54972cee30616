"""Enumeration of ``L_n(N)``: constant delay for UFAs, polynomial delay for NFAs.

Two enumerators, matching the two halves of the paper:

* :func:`enumerate_words_ufa` — Algorithm 1 (Section 5.3.1).  After the
  polynomial preprocessing (building the Lemma 15 pruned DAG), outputs
  arrive with delay ``O(|y|)`` independent of the input size: the
  traversal keeps the current path and, for the next word, advances the
  deepest layer whose vertex has a next edge and re-walks only the
  layers below it.  It can start at any word's offset by unranking that
  offset through the backward count table, so a page of words resumes
  in O(n) from an integer cursor.  Correct (duplicate-free) only on
  unambiguous automata, because distinct DAG paths must denote distinct
  words.

* :func:`enumerate_words_nfa` — polynomial delay for arbitrary NFAs
  (Theorem 2; the paper derives it from self-reducibility + the
  polynomial existence test via [Sch09] Theorem 4.9).  We implement the
  specialization of that generic result to MEM-NFA: a *flashlight* DFS
  over word prefixes that only descends into symbols for which an
  accepting completion exists — the existence test being a set-of-states
  reachability lookup against the pruned DAG's layers.  Duplicates are
  impossible because the traversal is over the prefix tree of the
  language, not over runs.

Both are generators: preprocessing happens on first ``next()``, and the
delay guarantees are measured (not just asserted) in benchmarks E1/E2.
"""

from __future__ import annotations

from typing import Iterator

from repro.automata.nfa import NFA, State, Symbol, Word
from repro.automata.unambiguous import require_unambiguous
from repro.core.kernel import CompiledDAG, compile_nfa, unroll_layers


def enumerate_words_ufa(nfa: NFA, n: int, check: bool = True) -> Iterator[Word]:
    """Enumerate ``L_n(nfa)`` with constant delay (Algorithm 1).

    Parameters
    ----------
    nfa:
        The automaton; must be unambiguous (verified when ``check``).
    n:
        Witness length.
    check:
        Verify unambiguity during preprocessing (O(m²·|Σ|)).

    Yields
    ------
    Words (tuples of symbols) of length ``n``, without repetition, in the
    DAG's edge order (lexicographic in each vertex's ordered successor
    list).
    """
    if check:
        prepared = require_unambiguous(nfa, context="constant-delay enumeration")
    else:
        prepared = nfa.without_epsilon()
    return _algorithm1(compile_nfa(prepared, n, trimmed=True), 0)


def enumerate_words_dag(dag: CompiledDAG, offset: int = 0) -> Iterator[Word]:
    """Algorithm 1 over an already-built Lemma-15 pruned kernel, from word
    number ``offset`` of its order on (nothing when ``offset ≥ |W|``).

    Lets callers that cache the unrolling (the :class:`repro.api.
    WitnessSet` facade, the samplers) enumerate without re-unrolling,
    and page through the words at any integer offset.  The kernel must
    come from the trimmed unrolling of an unambiguous ε-free automaton,
    or the enumeration may repeat words.
    """
    if offset < 0:
        raise ValueError("enumeration offset must be ≥ 0")
    return _algorithm1(dag, offset)


def _algorithm1(kernel: CompiledDAG, offset: int) -> Iterator[Word]:
    """The paper's Algorithm 1 on a Lemma-15-pruned compiled kernel.

    The walk keeps the current path: per layer, the flat index of its
    edge, the end of that vertex's CSR block, and the edge's symbol.
    After a word is yielded (Step 4), the deepest layer whose edge has a
    successor in its block advances to it (Steps 5–8), and the layers
    below re-walk from there; when no layer can advance the enumeration
    is complete (Step 6: STOP).  The CSR blocks already hold each
    vertex's successors in the fixed total order Algorithm 1 requires,
    and every edge lies on an accepting path (Lemma 15 pruning), so a
    word costs O(n) at worst — the paper's constant delay — and only its
    changed suffix beyond copying it out.

    A layer re-walks to its vertex's first edge, except while ``offset``
    is positive: the first walk then unranks ``offset`` through the
    backward table, as :meth:`CompiledDAG.sample_batch` does for one
    draw, subtracting ``backward[t + 1][dst]`` until the rank falls
    inside an edge.  Rank 0 below a vertex is its first-edge path, so
    ``offset = 0`` reads no count table.  For n = 0 (the k = 0 corner
    case of Section 5.2) the only word is the empty one, which pruning
    has already decided.
    """
    if kernel.is_empty:
        return
    n = kernel.n
    symbols = kernel.symbols
    edge_start = kernel._edge_start
    edge_symbol = kernel._edge_symbol
    edge_dst = kernel._edge_dst
    state = kernel.index_of(0, kernel.nfa.initial)
    if state is None:  # pragma: no cover - is_empty ruled this out
        return
    backward = kernel.backward_counts() if offset else []
    if offset and offset >= backward[0][state]:
        return
    edge = [0] * n
    end = [0] * n
    word: list[Symbol] = [None] * n
    depth = 0
    while True:
        # Step 3: re-walk the layers below the one that advanced.
        for t in range(depth, n):
            starts = edge_start[t]
            e = starts[state]
            if offset:
                weights = backward[t + 1]
                weight = weights[edge_dst[t][e]]
                while offset >= weight:
                    offset -= weight
                    e += 1
                    weight = weights[edge_dst[t][e]]
            edge[t] = e
            end[t] = starts[state + 1]
            word[t] = symbols[edge_symbol[t][e]]
            state = edge_dst[t][e]
        yield tuple(word)  # Step 4
        # Steps 5–8: the deepest layer with a next edge advances to it.
        depth = n - 1
        while depth >= 0 and edge[depth] + 1 == end[depth]:
            depth -= 1
        if depth < 0:
            return  # Step 6: STOP
        e = edge[depth] + 1
        edge[depth] = e
        word[depth] = symbols[edge_symbol[depth][e]]
        state = edge_dst[depth][e]
        depth += 1


def enumerate_words_nfa(nfa: NFA, n: int) -> Iterator[Word]:
    """Enumerate ``L_n(nfa)`` with polynomial delay (any NFA).

    Flashlight search over word prefixes.  The DFS node for a prefix ``w``
    carries the set of states reachable by ``w`` (restricted to the pruned
    DAG layers, which encode "an accepting completion exists"); a symbol
    ``a`` is explored iff the stepped set is nonempty.  Each output is
    therefore reached after at most ``n`` successful extension tests, and
    each test costs O(|δ|) — polynomial delay in the input size, and no
    duplicates since distinct leaves of the prefix tree are distinct words.
    """
    prepared = nfa.without_epsilon()
    _, live = unroll_layers(prepared, n, trimmed=True)
    if not live[n]:
        return
    symbols = sorted(prepared.alphabet, key=repr)

    # stack holds (prefix, live state set at len(prefix)); DFS in reverse
    # symbol order so words come out in lexicographic symbol-repr order.
    stack: list[tuple[Word, frozenset[State]]] = [((), live[0])]
    while stack:
        prefix, states = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        layer_next = live[len(prefix) + 1]
        for symbol in reversed(symbols):
            nxt: set[State] = set()
            for state in states:
                nxt |= prepared.successors(state, symbol)
            nxt &= layer_next
            if nxt:
                stack.append((prefix + (symbol,), frozenset(nxt)))


def enumerate_words(nfa: NFA, n: int) -> Iterator[Word]:
    """Enumerate ``L_n(nfa)`` picking the best applicable algorithm.

    Uses the constant-delay Algorithm 1 when the automaton is unambiguous
    and the polynomial-delay flashlight otherwise — the dispatch a user of
    the two complexity classes would perform by hand.
    """
    stripped = nfa.without_epsilon().trim()
    from repro.automata.unambiguous import is_unambiguous

    if is_unambiguous(stripped):
        return enumerate_words_ufa(stripped, n, check=False)
    return enumerate_words_nfa(stripped, n)


__all__ = [
    "enumerate_words",
    "enumerate_words_ufa",
    "enumerate_words_dag",
    "enumerate_words_nfa",
]
