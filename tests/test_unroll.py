"""Unit tests for the unrolled DAG (Section 6.2 / Lemma 15)."""

from __future__ import annotations

import pytest

from repro.automata.nfa import EPSILON, NFA, word
from repro.automata.random_gen import random_nfa
from repro.core.unroll import (
    accepted_word_exists,
    lemma15_graph,
    unroll,
    unroll_trimmed,
)
from repro.papers.figures import figure1_nfa, figure2_dag_description


class TestUnroll:
    def test_layer_zero_is_initial(self, even_zeros_dfa):
        dag = unroll(even_zeros_dfa, 3)
        assert dag.layer(0) == frozenset({"even"})

    def test_forward_reachability(self, even_zeros_dfa):
        dag = unroll(even_zeros_dfa, 3)
        for t in range(1, 4):
            assert dag.layer(t) == frozenset({"even", "odd"})

    def test_unroll_strips_epsilon(self):
        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b"), ("b", "0", "b")], "a", ["b"])
        dag = unroll(nfa, 2)  # unroll() ε-eliminates before layering
        assert not dag.is_empty

    def test_rejects_negative_length(self, even_zeros_dfa):
        with pytest.raises(ValueError):
            unroll(even_zeros_dfa, -1)

    def test_final_states(self, even_zeros_dfa):
        dag = unroll(even_zeros_dfa, 2)
        assert dag.final_states == frozenset({"even"})

    def test_is_empty(self):
        nfa = NFA.single_word(word("ab"))
        assert unroll(nfa.without_epsilon(), 3).is_empty
        assert not unroll(nfa.without_epsilon(), 2).is_empty

    def test_predecessor_sets(self, even_zeros_dfa):
        """``T_b`` of ``{odd}`` at layer 1: its predecessor index groups,
        mapped through layer 0's states."""
        dag = unroll(even_zeros_dfa, 2)
        groups = dag.predecessor_groups(1, [dag.index_of(1, "odd")])
        previous = dag.layer_states(0)
        preds = {symbol: {previous[i] for i in group} for symbol, group in groups.items()}
        assert preds == {"0": {"even"}}

    def test_successors_restricted_to_live(self):
        nfa = NFA(
            ["s", "f", "x"],
            ["0"],
            [("s", "0", "f"), ("f", "0", "x")],
            "s",
            ["f"],
        )
        dag = unroll_trimmed(nfa, 1)
        assert list(dag.successors(0, "s")) == [("0", "f")]
        assert list(dag.successors(1, "f")) == []


class TestTrimmed:
    def test_trims_non_coreachable(self):
        nfa = NFA(
            ["s", "good", "dead"],
            ["0"],
            [("s", "0", "good"), ("s", "0", "dead")],
            "s",
            ["good"],
        )
        dag = unroll_trimmed(nfa, 1)
        assert dag.layer(1) == frozenset({"good"})
        # Untrimmed keeps both.
        assert unroll(nfa, 1).layer(1) == frozenset({"good", "dead"})

    def test_every_live_state_has_live_successor(self, rng):
        for _ in range(8):
            nfa = random_nfa(6, rng=rng, density=1.5)
            dag = unroll_trimmed(nfa, 5)
            for t in range(dag.n):
                for state in dag.layer(t):
                    assert list(dag.successors(t, state)), (t, state)

    def test_empty_when_no_witness(self):
        nfa = NFA.empty_language("01")
        dag = unroll_trimmed(nfa, 4)
        assert dag.is_empty
        assert all(not dag.layer(t) for t in range(1, 5))

    def test_vertex_and_edge_counts(self, even_zeros_dfa):
        dag = unroll_trimmed(even_zeros_dfa, 2)
        assert dag.vertex_count() == 1 + 2 + 1  # even / even,odd / even
        assert dag.edge_count() == 2 + 2


class TestExistence:
    def test_accepted_word_exists(self, even_zeros_dfa):
        for n in range(5):
            assert accepted_word_exists(even_zeros_dfa, n)

    def test_no_word_of_wrong_length(self):
        nfa = NFA.single_word(word("abc"))
        assert accepted_word_exists(nfa.without_epsilon(), 3)
        assert not accepted_word_exists(nfa.without_epsilon(), 2)

    def test_length_zero(self, even_zeros_dfa):
        assert accepted_word_exists(even_zeros_dfa, 0)
        shifted = NFA(
            even_zeros_dfa.states,
            even_zeros_dfa.alphabet,
            even_zeros_dfa.transitions,
            "even",
            ["odd"],
        )
        assert not accepted_word_exists(shifted, 0)


class TestFigure2:
    """Experiment F2: the paper's Figure 2 structure."""

    def test_layers_match_figure(self):
        dag, start, finals = lemma15_graph(figure1_nfa(), 3)
        expected = figure2_dag_description()
        for t, states in expected.items():
            assert dag.layer(t) == frozenset(states), f"layer {t}"
        assert start == ("q0", 0)
        assert finals == frozenset({("qF", 3)})

    def test_q5_pruned(self):
        dag, _, _ = lemma15_graph(figure1_nfa(), 3)
        for t in range(4):
            assert "q5" not in dag.layer(t)
