"""Enumeration of ``L_n(N)``: constant delay for UFAs, polynomial delay for NFAs.

Two enumerators, matching the two halves of the paper:

* :func:`enumerate_words_ufa` — Algorithm 1 (Section 5.3.1).  After the
  polynomial preprocessing (building the Lemma 15 pruned DAG), outputs
  arrive with delay ``O(|y|)`` independent of the input size: the
  traversal keeps a list of *decision points* (vertices where more than
  one outgoing edge exists) and replays the stored prefix to emit the
  next word, exactly as in the paper's pseudo-code.  Correct (duplicate-
  free) only on unambiguous automata, because distinct DAG paths must
  denote distinct words.

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

from itertools import islice
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
    return _algorithm1(compile_nfa(prepared, n, trimmed=True), [])


def enumerate_words_dag(dag: CompiledDAG) -> Iterator[Word]:
    """Algorithm 1 over an already-built Lemma-15 pruned kernel.

    Lets callers that cache the unrolling (the :class:`repro.api.
    WitnessSet` facade, the samplers) enumerate without re-unrolling.
    The kernel must come from the trimmed unrolling of an unambiguous
    ε-free automaton, or the enumeration may repeat words.
    """
    return _algorithm1(dag, [])


def _algorithm1(kernel: CompiledDAG, decisions: list[list[int]]) -> Iterator[Word]:
    """The paper's Algorithm 1 on a Lemma-15-pruned compiled kernel.

    ``decisions`` is the paper's ``list`` structure (append / pop /
    last): the ``[layer, state_idx, edge_index]`` decision points of the
    current path, only vertices with ≥ 2 live successors recorded.  An
    empty list starts from the first word; a cursor checked by
    :func:`_validated_cursor` resumes mid-way.  The list is advanced in
    place.

    Each output is produced by replaying the stored decisions from the
    start vertex (Step 3).  Before the word is yielded (Step 4), the
    list already moves on to the next word's path: exhausted decision
    points are dropped (Steps 5–7) and the deepest remaining one is
    advanced (Step 8).  So right after a yield, ``decisions`` describes
    the next word, and an empty list means the enumeration is complete
    (Step 6: STOP).

    The kernel's CSR blocks already hold each vertex's successors in the
    fixed total order Algorithm 1 requires, so the walk is pure integer
    indexing; every visited edge lies on an accepting path (Lemma 15
    pruning), so the work per output is O(n) — the paper's constant
    delay.  For n = 0 (the k = 0 corner case of Section 5.2) the only
    word is the empty one, which pruning has already decided.
    """
    if kernel.is_empty:
        return
    n = kernel.n
    symbols = kernel.symbols
    edge_start = kernel._edge_start
    edge_symbol = kernel._edge_symbol
    edge_dst = kernel._edge_dst
    start_index = kernel.index_of(0, kernel.nfa.initial)
    if start_index is None:  # pragma: no cover - is_empty ruled this out
        return

    while True:
        # Step 3: walk from the start, replaying stored decisions and taking
        # the first edge everywhere else; record new decision points.
        word_out: list[Symbol] = []
        state = start_index
        replay = 0
        for t in range(n):
            starts = edge_start[t]
            base = starts[state]
            degree = starts[state + 1] - base
            if replay < len(decisions) and decisions[replay][0] == t:
                index = decisions[replay][2]
                replay += 1
            else:
                index = 0
                if degree > 1:
                    decisions.append([t, state, 0])
                    replay = len(decisions)
            word_out.append(symbols[edge_symbol[t][base + index]])
            state = edge_dst[t][base + index]

        # Steps 5–7: drop exhausted decision points; Step 8: advance the
        # deepest remaining one.
        while decisions:
            t, vertex, index = decisions[-1]
            starts = edge_start[t]
            if index + 1 < starts[vertex + 1] - starts[vertex]:
                decisions[-1][2] += 1
                break
            decisions.pop()
        yield tuple(word_out)  # Step 4
        if not decisions:
            return  # Step 6: STOP


def algorithm1_page(
    kernel: CompiledDAG, cursor: list[object] | None, count: int
) -> tuple[list[Word], list[list[int]] | None]:
    """One resumable *page* of Algorithm 1: up to ``count`` words plus the
    cursor for the next page.

    The cursor is the paper's decision-point list itself — the
    ``[layer, state_index, edge_index]`` triples describing the path of
    the *next* word to emit — so resuming costs one O(n) replay, never a
    re-walk of the ``offset`` words already served.  ``cursor=None``
    starts from the beginning; a returned cursor of ``None`` means the
    enumeration is exhausted.  Cursors are plain JSON-able integer lists
    (the service's paging protocol ships them to clients verbatim), and a
    malformed or stale cursor raises ``ValueError`` instead of yielding
    wrong words: every replayed triple is checked against the kernel's
    actual layers, states and degrees.

    Page boundaries are invisible in the output: concatenating pages of
    any sizes reproduces :func:`enumerate_words_dag` exactly.
    """
    if count < 0:
        raise ValueError("page size must be ≥ 0")
    if kernel.is_empty:
        return [], None
    decisions = _validated_cursor(kernel, cursor)
    words = list(islice(_algorithm1(kernel, decisions), count))
    return words, None if words and not decisions else decisions


def _validated_cursor(
    kernel: CompiledDAG, cursor: list[object] | None
) -> list[list[int]]:
    """The cursor as a fresh mutable decisions list, or ``ValueError``.

    Replays the cursor's path through the kernel, checking that each
    triple names a real decision point (layers strictly increasing,
    state index matching the replayed walk, edge index within degree and
    on a vertex with ≥ 2 successors) *and* that no branching vertex
    along the replayed prefix is missing its triple — Algorithm 1
    records every decision point it passes, so a gap means the cursor
    was not produced by this enumeration and replaying it would emit
    wrong (or endlessly repeating) words.  A client can never crash the
    kernel walk, or silently receive the wrong page, with a corrupt or
    stale cursor.
    """
    if cursor is None:
        return []
    bad = ValueError("invalid enumeration cursor")
    if not isinstance(cursor, list):
        raise bad
    decisions: list[list[int]] = []
    for entry in cursor:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 3
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        ):
            raise bad
        decisions.append(list(entry))
    state = kernel.index_of(0, kernel.nfa.initial)
    if state is None:  # pragma: no cover - callers check is_empty first
        raise bad
    replay = 0
    for t in range(kernel.n):
        starts = kernel._edge_start[t]
        if not 0 <= state < len(starts) - 1:  # pragma: no cover - defensive
            raise bad
        base = starts[state]
        degree = starts[state + 1] - base
        if replay < len(decisions):
            if decisions[replay][0] == t:
                entry = decisions[replay]
                if entry[1] != state or not 0 <= entry[2] < degree or degree < 2:
                    raise bad
                index = entry[2]
                replay += 1
            else:
                # Still replaying recorded decisions: every branching
                # vertex up to the last triple must have its own triple.
                if degree > 1:
                    raise bad
                index = 0
        else:
            # Past the recorded prefix: fresh branching is fine (the
            # walk discovers new decision points here, as in the paper).
            index = 0
        state = kernel._edge_dst[t][base + index]
    if replay != len(decisions):
        raise bad
    return decisions


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
    "algorithm1_page",
]
