"""Tests for the relation framework, reductions (Prop. 11) and the class
suites (Theorems 2 and 5) on the WitnessSet facade."""

from __future__ import annotations

import pytest

from repro.api import WitnessSet
from repro.automata.nfa import NFA, word
from repro.automata.operations import words_of_length
from repro.automata.unambiguous import require_unambiguous
from repro.core.classes import SpanLFunction
from repro.core.fpras import FprasParameters
from repro.core.reductions import (
    MemNfaRelation,
    MemUfaRelation,
    completeness_reduction,
)
from repro.core.relations import PaddedWitness
from repro.dnf.formulas import random_dnf
from repro.dnf.relation import SatDnfRelation, dnf_transducer
from repro.errors import AmbiguityError, EmptyWitnessSetError

FAST = FprasParameters(sample_size=48)


class TestMemRelations:
    def test_mem_nfa_identity(self, endswith_one_nfa):
        relation = MemNfaRelation()
        compiled = relation.compile((endswith_one_nfa, 4))
        assert compiled.length == 4
        assert sorted(relation.witnesses((endswith_one_nfa, 4))) == words_of_length(
            endswith_one_nfa, 4
        )

    def test_mem_ufa_rejects_ambiguous(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError):
            MemUfaRelation().compile((endswith_one_nfa, 4))

    def test_witness_count(self, even_zeros_dfa):
        assert MemNfaRelation().witness_count_exact((even_zeros_dfa, 5)) == 16


class TestCompletenessReduction:
    def test_enumeration_transfers(self):
        phi = random_dnf(6, 3, 2, rng=4)
        relation = SatDnfRelation()
        reduction = completeness_reduction(relation)
        via_reduction = sorted(reduction.enumerate(phi))
        direct = sorted(relation.compile(phi).nfa.accepts(w) for w in via_reduction)
        assert all(direct)
        assert len(via_reduction) == phi.count_models_brute()

    def test_counting_transfers(self):
        phi = random_dnf(6, 3, 2, rng=4)
        reduction = completeness_reduction(SatDnfRelation())
        assert reduction.count_exact(phi) == phi.count_models_brute()

    def test_approx_counting_transfers(self):
        phi = random_dnf(7, 3, 2, rng=4)
        reduction = completeness_reduction(SatDnfRelation())
        exact = phi.count_models_brute()
        estimate = reduction.count_approx(phi, delta=0.3, rng=0)
        assert abs(estimate - exact) <= 0.4 * exact

    def test_sampling_transfers(self):
        phi = random_dnf(6, 3, 2, rng=4)
        reduction = completeness_reduction(SatDnfRelation())
        w = reduction.sample(phi, rng=1)
        assert w is not None
        assert phi.evaluate(tuple(int(b) for b in w))


class TestRelationULSolver:
    """Theorem 5's exact suite, behind ``require_unambiguous``."""

    def test_full_suite(self, even_zeros_dfa, rng):
        ws = WitnessSet.from_nfa(require_unambiguous(even_zeros_dfa), 5)
        assert ws.is_unambiguous
        assert ws.count() == 16
        words = list(ws.enumerate())
        assert len(words) == 16
        assert ws.sample(rng=rng) in set(words)

    def test_rejects_ambiguous(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError):
            require_unambiguous(endswith_one_nfa)
        assert not WitnessSet.from_nfa(endswith_one_nfa, 4).is_unambiguous

    def test_sample_or_none_empty(self, rng):
        ws = WitnessSet.from_nfa(NFA.empty_language("01"), 3)
        assert ws.sample(rng=rng) is None

    def test_sample_empty_raises(self, rng):
        ws = WitnessSet.from_nfa(NFA.empty_language("01"), 3)
        with pytest.raises(EmptyWitnessSetError):
            ws.sample(1, rng=rng)
        with pytest.raises(EmptyWitnessSetError):
            ws.sample_batch(1, rng=rng)


class TestRelationNLSolver:
    """Theorem 2's suite (FPRAS, PLVUG) on an ambiguous automaton."""

    def test_full_suite(self, endswith_one_nfa, rng):
        ws = WitnessSet.from_nfa(
            endswith_one_nfa, 8, delta=0.3, rng=rng, params=FAST
        )
        assert not ws.is_unambiguous
        exact = 2**8 - 1
        assert ws.count_exact() == exact
        estimate = ws.count(backend="fpras")
        assert abs(estimate - exact) <= 0.4 * exact
        words = list(ws.enumerate())
        assert len(words) == exact
        w = ws.sample()
        assert w is not None and endswith_one_nfa.accepts(w)

    def test_sample_many(self, endswith_one_nfa, rng):
        ws = WitnessSet.from_nfa(
            endswith_one_nfa, 8, delta=0.3, rng=rng, params=FAST
        )
        samples = ws.sample(5)
        assert len(samples) == 5
        assert all(endswith_one_nfa.accepts(w) for w in samples)


class TestRelationFacades:
    """``WitnessSet.from_compiled``: a relation's witnesses, decoded."""

    def test_relation_nl_on_dnf(self, rng):
        phi = random_dnf(7, 3, 2, rng=8)
        ws = WitnessSet.from_compiled(
            SatDnfRelation(), phi, delta=0.3, rng=rng, params=FAST
        )
        exact = phi.count_models_brute()
        assert ws.count_exact() == exact
        estimate = ws.count(backend="fpras")
        assert abs(estimate - exact) <= 0.4 * exact
        assignment = ws.sample()
        assert phi.evaluate(assignment)
        enumerated = list(ws.enumerate())
        assert len(enumerated) == exact

    def test_relation_ul_on_disjoint_dnf(self, rng):
        # A DNF whose terms are disjoint compiles to an unambiguous NFA,
        # so the facade runs the exact suite on it.
        from repro.dnf.formulas import DNFFormula, DNFTerm

        phi = DNFFormula(
            num_variables=4,
            terms=(DNFTerm.from_dict({0: 0}), DNFTerm.from_dict({0: 1, 1: 1})),
        )
        ws = WitnessSet.from_compiled(SatDnfRelation(), phi)
        assert ws.is_unambiguous
        assert ws.count() == phi.count_models_brute()
        assignment = ws.sample(rng=rng)
        assert phi.evaluate(assignment)


class TestSpanL:
    def test_spanl_function_exact_and_approx(self):
        phi = random_dnf(7, 3, 2, rng=9)
        fn = SpanLFunction(
            dnf_transducer(), witness_length=lambda f: f.num_variables, name="#DNF"
        )
        exact = fn.exact(phi)
        assert exact == phi.count_models_brute()
        estimate = fn.approx(phi, delta=0.3, rng=2, params=FAST)
        assert abs(estimate - exact) <= 0.4 * exact


class TestPaddedWitness:
    def test_pad_strip_roundtrip(self):
        helper = PaddedWitness()
        w = word("ab")
        padded = helper.pad(w, 5)
        assert len(padded) == 5
        assert helper.strip(padded) == w

    def test_pad_too_long(self):
        with pytest.raises(ValueError):
            PaddedWitness().pad(word("abc"), 2)
