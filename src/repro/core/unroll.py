"""Unrolling an NFA into a layered DAG (Section 6.2 and Lemma 15).

Both halves of the paper consume the same object: the automaton ``N``
unrolled ``n`` times into a directed acyclic graph whose vertices are
``(layer, state)`` pairs.

* Lemma 15 (Section 5.3.1) prunes the DAG to vertices on a path from the
  start vertex to a final vertex — the enumerator must never wander into a
  dead branch, or the constant delay is ruined.
* Algorithm 5 (Section 6.4, step 3) only removes vertices unreachable from
  the start — the FPRAS's per-vertex sets ``U(s)`` are prefix sets and
  must not be restricted by what happens later in the word.

These are the paper-facing names for both views.  Each returns the
:class:`~repro.core.kernel.CompiledDAG` kernel, whose live layers come
from :func:`repro.core.kernel.unroll_layers`; the correspondence with
the paper's ``s_t^j`` vertices stays direct (``s_t^j`` live ⟺
``j in dag.layer(t)``).
"""

from __future__ import annotations

from repro.automata.nfa import NFA
from repro.core.kernel import CompiledDAG, compile_nfa, unroll_layers


def unroll(nfa: NFA, n: int) -> CompiledDAG:
    """Unroll ``nfa`` for length ``n``, removing only unreachable vertices.

    This is the FPRAS view (Algorithm 5, step 3).
    """
    return compile_nfa(nfa, n, trimmed=False)


def unroll_trimmed(nfa: NFA, n: int) -> CompiledDAG:
    """Unroll and prune to vertices on start→final paths (Lemma 15).

    This is the enumeration view: every edge of the result is part of an
    accepting path, so depth-first traversal never backtracks out of a
    dead branch.
    """
    return compile_nfa(nfa, n, trimmed=True)


def accepted_word_exists(nfa: NFA, n: int) -> bool:
    """Does ``nfa`` accept any word of length ``n``?  (O(n·|δ|).)

    The existence test that [Sch09]'s polynomial-delay enumeration needs,
    and the guard the samplers use before doing any work.  Forward reach
    only: no kernel arrays are built.
    """
    stripped = nfa.without_epsilon()
    forward, _ = unroll_layers(stripped, n, trimmed=False)
    return not forward[n].isdisjoint(stripped.finals)


def lemma15_graph(nfa: NFA, n: int) -> tuple[CompiledDAG, tuple, frozenset]:
    """The Lemma 15 package: (pruned DAG, start vertex, final vertices).

    Returned in the vertex naming of the paper (``(state, layer)`` pairs)
    for the figure-reproduction tests; algorithmic callers use the
    kernel directly.
    """
    dag = unroll_trimmed(nfa, n)
    start = (dag.nfa.initial, 0)
    finals = frozenset((state, n) for state in dag.final_states)
    return dag, start, finals
