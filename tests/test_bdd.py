"""Tests for OBDDs and nOBDDs (Corollaries 9–10)."""

from __future__ import annotations

import pytest

from repro.api import WitnessSet
from repro.automata.unambiguous import is_unambiguous
from repro.bdd.builders import (
    conj,
    disj,
    neg,
    obdd_from_formula,
    random_nobdd,
    var,
)
from repro.bdd.nobdd import DecisionNode, EvalNobddRelation, GuessNode, NOBDD
from repro.bdd.obdd import (
    OBDD,
    EvalObddRelation,
    OBDDNode,
    TERMINAL_FALSE,
    TERMINAL_TRUE,
)
from repro.core.exact import count_words_exact
from repro.errors import InvalidAutomatonError


def xor_obdd() -> OBDD:
    """x0 ⊕ x1 as an explicit OBDD."""
    return OBDD(
        nodes={
            "r": OBDDNode("x0", "lo", "hi"),
            "lo": OBDDNode("x1", TERMINAL_FALSE, TERMINAL_TRUE),
            "hi": OBDDNode("x1", TERMINAL_TRUE, TERMINAL_FALSE),
        },
        root="r",
        order=["x0", "x1"],
    )


class TestOBDD:
    def test_evaluate(self):
        d = xor_obdd()
        assert d.evaluate({"x0": 0, "x1": 1}) == 1
        assert d.evaluate({"x0": 1, "x1": 1}) == 0

    def test_order_violation_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            OBDD(
                nodes={
                    "r": OBDDNode("x1", "child", TERMINAL_TRUE),
                    "child": OBDDNode("x0", TERMINAL_FALSE, TERMINAL_TRUE),
                },
                root="r",
                order=["x0", "x1"],
            )

    def test_dangling_child_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            OBDD(nodes={"r": OBDDNode("x0", "ghost", TERMINAL_TRUE)}, root="r", order=["x0"])

    def test_constant_function(self):
        d = OBDD(nodes={}, root=TERMINAL_TRUE, order=["x0", "x1"])
        assert d.evaluate({"x0": 0, "x1": 1}) == 1
        nfa = d.to_nfa()
        assert count_words_exact(nfa, 2) == 4

    def test_to_nfa_counts(self):
        d = xor_obdd()
        assert count_words_exact(d.to_nfa(), 2) == 2

    def test_to_nfa_unambiguous(self):
        assert is_unambiguous(xor_obdd().to_nfa())

    def test_skipped_variables_free(self):
        # f = x0 over order [x0, x1, x2]: 4 models.
        d = OBDD(
            nodes={"r": OBDDNode("x0", TERMINAL_FALSE, TERMINAL_TRUE)},
            root="r",
            order=["x0", "x1", "x2"],
        )
        assert count_words_exact(d.to_nfa(), 3) == 4

    def test_relation_suite(self, rng):
        d = xor_obdd()
        ws = WitnessSet.from_compiled(EvalObddRelation(), d)
        assert ws.is_unambiguous
        assert ws.count() == 2
        models = list(ws.enumerate())
        assert len(models) == 2
        for model in models:
            assert d.evaluate(model) == 1
        assert d.evaluate(ws.sample(rng=rng)) == 1


class TestObddFromFormula:
    @pytest.mark.parametrize(
        "formula,order,expected_models",
        [
            (conj(var("a"), var("b")), ["a", "b"], 1),
            (disj(var("a"), var("b")), ["a", "b"], 3),
            (neg(var("a")), ["a"], 1),
            (disj(conj(var("a"), var("b")), conj(neg(var("a")), var("c"))), ["a", "b", "c"], 4),
        ],
    )
    def test_model_counts(self, formula, order, expected_models):
        d = obdd_from_formula(formula, order)
        assert len(d.satisfying_assignments_brute()) == expected_models
        assert count_words_exact(d.to_nfa(), len(order)) == expected_models

    def test_agreement_with_formula(self):
        formula = disj(conj(var("a"), neg(var("b"))), var("c"))
        order = ["a", "b", "c"]
        d = obdd_from_formula(formula, order)
        for mask in range(8):
            assignment = {v: (mask >> i) & 1 for i, v in enumerate(order)}
            assert d.evaluate(assignment) == formula.evaluate(assignment)

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            obdd_from_formula(var("z"), ["a"])

    def test_reduction_shares_nodes(self):
        # (a ∧ c) ∨ (b ∧ c): the 'c' cofactor is shared.
        formula = disj(conj(var("a"), var("c")), conj(var("b"), var("c")))
        d = obdd_from_formula(formula, ["a", "b", "c"])
        assert len(d.nodes) <= 4


class TestNOBDD:
    def test_guess_union_semantics(self):
        # Branch 1: x0 ∧ x1; branch 2: ¬x0 ∧ x1 → union is x1.
        nb = NOBDD(
            nodes={
                "root": GuessNode(("b1", "b2")),
                "b1": DecisionNode("x0", None, "c1"),
                "c1": DecisionNode("x1", None, TERMINAL_TRUE),
                "b2": DecisionNode("x0", "c2", None),
                "c2": DecisionNode("x1", None, TERMINAL_TRUE),
            },
            root="root",
            order=["x0", "x1"],
        )
        assert nb.evaluate({"x0": 0, "x1": 1}) == 1
        assert nb.evaluate({"x0": 1, "x1": 1}) == 1
        assert nb.evaluate({"x0": 1, "x1": 0}) == 0
        assert count_words_exact(nb.to_nfa(), 2) == 2

    def test_overlapping_branches_ambiguous_but_correct(self):
        # Both branches accept x0=1,x1=1: two runs, one model.
        nb = NOBDD(
            nodes={
                "root": GuessNode(("b1", "b2")),
                "b1": DecisionNode("x0", None, "c1"),
                "c1": DecisionNode("x1", None, TERMINAL_TRUE),
                "b2": DecisionNode("x0", None, "c2"),
                "c2": DecisionNode("x1", None, TERMINAL_TRUE),
            },
            root="root",
            order=["x0", "x1"],
        )
        nfa = nb.to_nfa()
        assert count_words_exact(nfa, 2) == 1
        assert not is_unambiguous(nfa)

    def test_random_nobdd_consistent_and_counted(self):
        for seed in range(4):
            nb = random_nobdd(5, branches=3, rng=seed)
            assert nb.check_consistency()
            brute = sum(
                nb.evaluate({f"x{i}": (mask >> i) & 1 for i in range(5)})
                for mask in range(32)
            )
            assert count_words_exact(nb.to_nfa(), 5) == brute

    def test_relation_decode(self):
        from repro.automata.operations import words_of_length

        nb = random_nobdd(4, rng=2)
        relation = EvalNobddRelation()
        compiled = relation.compile(nb)
        for w in words_of_length(compiled.nfa, 4):
            model = relation.decode_witness(nb, w)
            assert nb.evaluate(model) == 1

    def test_empty_guess_rejected(self):
        with pytest.raises(InvalidAutomatonError):
            NOBDD(nodes={"root": GuessNode(())}, root="root", order=["x0"])
