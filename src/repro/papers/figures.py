"""Reconstruction of the paper's two figures (experiment F1/F2).

The paper's only figures are worked examples in Section 5.3.1:

* **Figure 1** — a 7-state unambiguous NFA over {a, b} with initial state
  q0 and unique final state qF.  The figure's edge labels are garbled in
  the text extraction, so we reconstruct the automaton from the
  constraints the surrounding prose pins down: (i) it is unambiguous,
  (ii) its k = 3 pruned unrolling is Figure 2 with live layers
  {q0} / {q1, q2} / {q3, q4} / {qF} and q5 pruned away, (iii) vertex
  (q3, 2) has exactly the two outgoing edges a and b (the worked
  enumeration exhausts them after outputting aaa then aab), and (iv) the
  enumeration's first decision point is (q0, 0) with the a-edge first.
  The wiring below satisfies all four:

  ====== ======== ========
  from   symbol   to
  ====== ======== ========
  q0     a        q1
  q0     b        q2
  q1     a        q3
  q2     a        q3
  q2     b        q4
  q3     a, b     qF
  q4     a, b     qF
  q5     b        q4       (q5 is drawn but off every accepting path)
  ====== ======== ========

  Unambiguity holds because the state at layer 2 (q3 vs q4) is determined
  by the second symbol.  The q5 arc's exact placement is immaterial: the
  text's point is that pruning removes vertices off accepting paths, so
  any wiring that keeps it useless reproduces the figure's role.  We
  attach it as a state unreachable from q0.

* **Figure 2** — the unrolled, pruned DAG of Figure 1 for k = 3, with
  vertices (q0,0), (q1,1), (q2,1), (q3,2), (q4,2), (qF,3): exactly the
  layered graph our Lemma 15 construction yields, and the worked
  enumeration of Section 5.3.1 outputs the words aaa, aab, ... starting
  with the all-'a' path.

:func:`figure2_expected_words` returns the language the DAG encodes so
the tests can check both the structure and the enumeration order claims
("the first output is aaa, the second is aab").
"""

from __future__ import annotations

from repro.automata.nfa import NFA


def figure1_nfa() -> NFA:
    """The unambiguous NFA of Figure 1."""
    transitions = [
        ("q0", "a", "q1"),
        ("q0", "b", "q2"),
        ("q1", "a", "q3"),
        ("q2", "a", "q3"),
        ("q2", "b", "q4"),
        ("q3", "a", "qF"),
        ("q3", "b", "qF"),
        ("q4", "a", "qF"),
        ("q4", "b", "qF"),
        # q5 is drawn in the figure but lies on no accepting path; the text
        # uses it to motivate pruning.  Wire it off the useful region.
        ("q5", "b", "q4"),
    ]
    return NFA(
        ["q0", "q1", "q2", "q3", "q4", "q5", "qF"],
        ["a", "b"],
        transitions,
        "q0",
        ["qF"],
    )


def figure2_dag_description() -> dict:
    """The pruned-unrolling structure Figure 2 depicts (k = 3).

    Returns the expected live vertices per layer for comparison with
    the layers of :func:`repro.core.unroll.unroll_trimmed` on
    :func:`figure1_nfa` (``kernel.layer(t)``, the Lemma 15 pruning of
    :func:`repro.core.kernel.unroll_layers`).
    """
    return {
        0: {"q0"},
        1: {"q1", "q2"},
        2: {"q3", "q4"},
        3: {"qF"},
    }


def figure2_expected_words() -> list[tuple]:
    """All words of L_3 of the Figure 1 automaton, lexicographically.

    Derived by hand from the DAG: paths q0→{q1,q2}→{q3,q4}→qF.
    """
    words = set()
    nfa = figure1_nfa()
    # Brute force over {a,b}^3 against the defining automaton keeps this
    # list honest if the figure transcription ever changes.
    for x in "ab":
        for y in "ab":
            for z in "ab":
                if nfa.accepts((x, y, z)):
                    words.add((x, y, z))
    return sorted(words)
