"""Tests for JSON round-trips and DOT export."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.automata.nfa import EPSILON, NFA
from repro.automata.random_gen import random_nfa
from repro.automata.serialization import (
    nfa_from_document,
    nfa_from_json,
    nfa_to_dot,
    nfa_to_json,
    unrolled_dag_to_dot,
)
from repro.core.plan import Product, as_plan, lower_plan
from repro.core.unroll import unroll, unroll_trimmed
from repro.errors import InvalidAutomatonError
from repro.papers.figures import figure1_nfa


class TestJsonRoundTrip:
    def test_simple(self, even_zeros_dfa):
        assert nfa_from_json(nfa_to_json(even_zeros_dfa)) == even_zeros_dfa

    def test_epsilon_edges(self):
        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b")], "a", ["b"])
        assert nfa_from_json(nfa_to_json(nfa)) == nfa

    def test_tuple_states(self):
        nfa = NFA(
            [("q", 0), ("q", 1)],
            ["x"],
            [(("q", 0), "x", ("q", 1))],
            ("q", 0),
            [("q", 1)],
        )
        assert nfa_from_json(nfa_to_json(nfa)) == nfa

    def test_frozenset_symbols(self):
        # The spanner evaluator's marker-set symbols.
        symbol = frozenset({("open", "x")})
        nfa = NFA(["a", "b"], [symbol, frozenset()], [("a", symbol, "b")], "a", ["b"])
        assert nfa_from_json(nfa_to_json(nfa)) == nfa

    def test_random_round_trips(self, rng):
        for _ in range(5):
            nfa = random_nfa(6, rng=rng)
            assert nfa_from_json(nfa_to_json(nfa)) == nfa

    def test_parsed_document_decodes_like_text(self, rng):
        # The service decodes spec documents JSON has already parsed.
        for _ in range(5):
            text = nfa_to_json(random_nfa(6, rng=rng))
            assert nfa_from_document(json.loads(text)) == nfa_from_json(text)
        with pytest.raises(InvalidAutomatonError):
            nfa_from_document({"format": "something-else"})

    def test_rejects_wrong_format(self):
        with pytest.raises(InvalidAutomatonError):
            nfa_from_json(json.dumps({"format": "something-else"}))

    def test_rejects_wrong_version(self, even_zeros_dfa):
        document = json.loads(nfa_to_json(even_zeros_dfa))
        document["version"] = 999
        with pytest.raises(InvalidAutomatonError):
            nfa_from_json(json.dumps(document))

    def test_unserializable_state_raises(self):
        class Opaque:
            def __hash__(self):
                return 1

            def __eq__(self, other):
                return isinstance(other, Opaque)

        state = Opaque()
        nfa = NFA([state], ["0"], [], state, [])
        with pytest.raises(InvalidAutomatonError):
            nfa_to_json(nfa)

    def test_indent_option(self, even_zeros_dfa):
        pretty = nfa_to_json(even_zeros_dfa, indent=2)
        assert "\n" in pretty
        assert nfa_from_json(pretty) == even_zeros_dfa


class TestDot:
    def test_contains_states_and_labels(self, even_zeros_dfa):
        dot = nfa_to_dot(even_zeros_dfa)
        assert dot.startswith("digraph")
        assert '"even"' in dot and '"odd"' in dot
        assert "doublecircle" in dot  # the final state

    def test_parallel_edges_merged(self):
        nfa = NFA(["s", "t"], ["0", "1"], [("s", "0", "t"), ("s", "1", "t")], "s", ["t"])
        assert '"0,1"' in nfa_to_dot(nfa)

    def test_epsilon_label(self):
        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b")], "a", ["b"])
        assert "ε" in nfa_to_dot(nfa)

    def test_unrolled_dag_dot_matches_figure2(self):
        dag = unroll_trimmed(figure1_nfa().without_epsilon(), 3)
        dot = unrolled_dag_to_dot(dag)
        # Six live vertices of Figure 2, all present; q5 absent.
        for label in ["q0,0", "q1,1", "q2,1", "q3,2", "q4,2", "qF,3"]:
            assert label in dot
        assert "q5" not in dot
        assert "rank=same" in dot

    def test_unrolled_dag_dot_matches_golden(self):
        """The DOT text of trimmed, reachable and plan kernels, pinned by
        SHA-256: vertices in repr order, edges in CSR block order."""
        figure1 = figure1_nfa().without_epsilon()
        product = Product(as_plan("(ab|ba)*"), as_plan("(a|b)*aa(a|b)*"))
        dags = {
            "figure1-trimmed-3": unroll_trimmed(figure1, 3),
            "figure1-reachable-5": unroll(figure1, 5),
            "random-trimmed-6": unroll_trimmed(random_nfa(6, rng=20190621, density=1.8), 6),
            "product-trimmed-8": lower_plan(product, 8, trimmed=True),
        }
        digests = {
            name: hashlib.sha256(unrolled_dag_to_dot(dag).encode()).hexdigest()
            for name, dag in dags.items()
        }
        assert digests == {
            "figure1-trimmed-3": "65ad3ebb20ada8611054a278b03309c58a26e5ba98aff403cd014cb78291f6a2",
            "figure1-reachable-5": "6e33b6a6809e99feedf025a188c93bfd06381c479b451630dda1bbbee03f3289",
            "random-trimmed-6": "c4fd647229fff40b112480edfec80f4dce330aa27eb6bcae775a18c89c06ab49",
            "product-trimmed-8": "5645d4139b6dda50f6979bb22c873abe8c246f7ac68ae5268c8e8d701fea872c",
        }
