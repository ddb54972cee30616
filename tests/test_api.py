"""The WitnessSet facade: cross-domain agreement, caching, backends.

The acceptance story of the API redesign: one query object built once
answers count / sample / enumerate for every application domain without
recompiling (verified against the pre-existing direct call paths and
through the cache-hit counters), and counting strategies are selected by
name from the solver-backend registry.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import WitnessSet, backends
from repro.api import SEEDED_SKETCHES_KEPT
from repro.automata import compile_regex, is_unambiguous
from repro.automata.operations import words_of_length
from repro.automata.random_gen import ambiguity_blowup
from repro.core.exact import count_accepting_runs_of_length, count_words_exact
from repro.core.fpras import FprasParameters
from repro.errors import (
    BackendError,
    EmptyWitnessSetError,
    InvalidRelationInputError,
    UnknownBackendError,
)

FAST = FprasParameters(sample_size=48)


# ----------------------------------------------------------------------
# Regex / raw NFA
# ----------------------------------------------------------------------


class TestRegexFacade:
    def test_count_matches_direct_paths(self):
        for pattern, n in [("(ab|ba)*", 6), ("(a|b)*a(a|b)*", 5), ("a*b*", 4)]:
            ws = WitnessSet.from_regex(pattern, n, alphabet="ab")
            nfa = compile_regex(pattern, alphabet="ab")
            assert ws.count() == len(words_of_length(nfa, n))

    def test_class_dispatch_matches_direct(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 6, alphabet="ab")
        assert ws.is_unambiguous
        stripped = ws.nfa.without_epsilon().trim()
        assert ws.count() == count_accepting_runs_of_length(stripped, 6)

        ambiguous = WitnessSet.from_regex("(a|b)*a(a|b)*", 5, alphabet="ab")
        assert not ambiguous.is_unambiguous
        assert ambiguous.count() == count_words_exact(
            ambiguous.nfa.without_epsilon().trim(), 5
        )

    def test_enumerate_matches_direct(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 6, alphabet="ab")
        nfa = compile_regex("(ab|ba)*", alphabet="ab")
        assert sorted(ws.enumerate()) == sorted(words_of_length(nfa, 6))

    def test_enumerate_limit(self):
        ws = WitnessSet.from_regex("(a|b)*", 4, alphabet="ab")
        assert len(list(ws.enumerate(limit=5))) == 5

    def test_samples_lie_in_language(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab")
        support = set(words_of_length(ws.nfa, 8))
        for w in ws.sample(25, rng=3):
            assert w in support

    def test_ambiguous_sampling_via_plvug(self):
        ws = WitnessSet.from_nfa(ambiguity_blowup(5), 10, delta=0.3, params=FAST, rng=1)
        assert not ws.is_unambiguous
        support = set(words_of_length(ws.stripped, 10))
        samples = ws.sample(10, rng=2)
        assert len(samples) == 10
        assert set(samples) <= support

    def test_empty_witness_set(self):
        ws = WitnessSet.from_regex("aa", 3, alphabet="ab")
        assert ws.count() == 0
        assert ws.sample(rng=0) is None
        with pytest.raises(EmptyWitnessSetError):
            ws.sample(2, rng=0)
        assert list(ws.enumerate()) == []

    def test_spectrum(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 6, alphabet="ab")
        spectrum = ws.spectrum()
        assert spectrum == {0: 1, 1: 0, 2: 2, 3: 0, 4: 4, 5: 0, 6: 8}

    def test_contains(self):
        ws = WitnessSet.from_regex("(ab)*", 4, alphabet="ab")
        assert ws.contains(("a", "b", "a", "b"))
        assert not ws.contains(("b", "a", "b", "a"))
        assert not ws.contains(("a", "b"))

    def test_describe(self):
        facts = WitnessSet.from_regex("(ab)*", 4, alphabet="ab").describe()
        assert facts["class"] == "RelationUL"
        assert facts["source"] == "regex"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WitnessSet.from_regex("a*", -1, alphabet="a")


# ----------------------------------------------------------------------
# Caching: the no-recompilation guarantee
# ----------------------------------------------------------------------


class TestCaching:
    def test_artifacts_built_exactly_once(self):
        ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 9, alphabet="ab")
        ws.count()
        ws.sample(5, rng=0)
        list(ws.enumerate(limit=10))
        ws.spectrum()
        first_misses = dict(ws.stats.misses)
        # Every artifact was computed exactly once ...
        assert all(count == 1 for count in first_misses.values())
        assert ws.stats.misses["stripped"] == 1
        assert ws.stats.misses["dag"] == 1
        # ... and a second round of queries only ever hits.
        ws.count()
        ws.sample(5, rng=1)
        list(ws.enumerate(limit=10))
        assert dict(ws.stats.misses) == first_misses
        assert ws.stats.hit_count > 0

    def test_fpras_sketch_cached_per_delta_and_seed(self):
        ws = WitnessSet.from_nfa(ambiguity_blowup(4), 8, params=FAST)
        first = ws.count(backend="fpras", delta=0.3, rng=7)
        assert ws.count(backend="fpras", delta=0.3, rng=7) == first
        assert ws.stats.misses[("fpras", 0.3, 7)] == 1
        assert ws.stats.hits[("fpras", 0.3, 7)] == 1
        ws.count(backend="fpras", delta=0.2, rng=7)
        assert ws.stats.misses[("fpras", 0.2, 7)] == 1

    def test_seeded_sketches_are_bounded(self):
        ws = WitnessSet.from_nfa(ambiguity_blowup(4), 8, params=FAST)
        unseeded = ws.fpras_state(0.3)
        sketches = []
        for seed in range(100):
            ws.count(backend="fpras", delta=0.3, rng=seed)
            # The sketch an estimate just built is still found by its seed.
            sketches.append(weakref.ref(ws.fpras_state(0.3, rng=seed)))
            assert ws.stats.hits[("fpras", 0.3, seed)] == 1
        gc.collect()
        alive = [ref() for ref in sketches if ref() is not None]
        assert len(alive) <= SEEDED_SKETCHES_KEPT
        assert ws.fpras_state(0.3) is unseeded
        # Use, not construction, sets the order: a reused seed survives.
        ws.fpras_state(0.3, rng=96)
        ws.fpras_state(0.3, rng=100)
        assert ws.stats.misses[("fpras", 0.3, 96)] == 1
        assert sketches[96]() is ws.fpras_state(0.3, rng=96)
        assert ws.fpras_state(0.3, rng=0) is not None
        assert ws.stats.misses[("fpras", 0.3, 0)] == 2


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------


class TestBackends:
    def test_at_least_four_strategies_registered(self):
        names = set(backends.available())
        assert {"exact", "fpras", "kannan", "montecarlo", "karp_luby"} <= names

    def test_unknown_backend_is_a_clear_error(self):
        ws = WitnessSet.from_regex("(ab)*", 4, alphabet="ab")
        with pytest.raises(UnknownBackendError, match="unknown solver backend 'nope'"):
            ws.count(backend="nope")
        with pytest.raises(UnknownBackendError, match="exact"):
            backends.get("nope")

    def test_method_alias_and_epsilon_alias(self):
        ws = WitnessSet.from_nfa(ambiguity_blowup(4), 8, params=FAST)
        exact = ws.count()
        estimate = ws.count(method="fpras", epsilon=0.3, rng=1)
        assert abs(estimate - exact) <= 0.45 * exact
        with pytest.raises(ValueError):
            ws.count("exact", method="fpras")

    def test_approximate_backends_track_exact(self):
        ws = WitnessSet.from_nfa(ambiguity_blowup(4), 8, params=FAST)
        exact = ws.count()
        for name in ("montecarlo", "kannan"):
            estimate = ws.count(backend=name, rng=5)
            assert abs(estimate - exact) <= 0.5 * exact
        assert ws.count(backend="naive") == exact

    def test_karp_luby_requires_dnf_source(self):
        ws = WitnessSet.from_regex("(ab)*", 4, alphabet="ab")
        with pytest.raises(BackendError, match="dnf"):
            ws.count(backend="karp_luby")

    def test_custom_backend_registration(self):
        class Constant(backends.SolverBackend):
            name = "constant-42"
            exact = True

            def count(self, witness_set, **options):
                return 42

        backends.register(Constant())
        try:
            ws = WitnessSet.from_regex("(ab)*", 4, alphabet="ab")
            assert ws.count(backend="constant-42") == 42
            with pytest.raises(BackendError, match="already registered"):
                backends.register(Constant())
        finally:
            backends.unregister("constant-42")
        assert "constant-42" not in backends.available()

    def test_register_rejects_non_backend(self):
        with pytest.raises(BackendError):
            backends.register(lambda ws: 0)


# ----------------------------------------------------------------------
# Domain constructors
# ----------------------------------------------------------------------


class TestDnfFacade:
    TEXT = "x0 & x2 & !x5 | !x1 & x3 | x4 & x5"

    def test_count_matches_brute_force(self):
        ws = WitnessSet.from_dnf(self.TEXT)
        assert ws.count() == ws.instance.count_models_brute()

    def test_text_and_formula_inputs_agree(self):
        from repro.dnf.formulas import parse_dnf

        phi = parse_dnf(self.TEXT)
        assert WitnessSet.from_dnf(phi).count() == WitnessSet.from_dnf(self.TEXT).count()

    def test_via_transducer_route_agrees(self):
        ws = WitnessSet.from_dnf(self.TEXT, via_transducer=True)
        assert ws.count() == WitnessSet.from_dnf(self.TEXT).count()

    def test_samples_are_models(self):
        ws = WitnessSet.from_dnf(self.TEXT, params=FAST, rng=0)
        for assignment in ws.sample(10, rng=2):
            assert ws.instance.evaluate(assignment)

    def test_karp_luby_backend(self):
        ws = WitnessSet.from_dnf(self.TEXT)
        exact = ws.count()
        assert abs(ws.count(backend="karp_luby", rng=1) - exact) <= 0.3 * exact

    def test_bad_input_rejected(self):
        with pytest.raises(InvalidRelationInputError):
            WitnessSet.from_dnf(12345)


class TestObddFacade:
    def _obdd(self):
        from repro.bdd.builders import conj, disj, neg, obdd_from_formula, var

        formula = disj(conj(var("a"), var("b")), conj(neg(var("a")), var("c")))
        return obdd_from_formula(formula, ["a", "b", "c"])

    def test_count_matches_brute_force(self):
        obdd = self._obdd()
        ws = WitnessSet.from_obdd(obdd)
        assert ws.count() == len(obdd.satisfying_assignments_brute())
        assert ws.source == "obdd"

    def test_models_decode_and_evaluate(self):
        obdd = self._obdd()
        ws = WitnessSet.from_obdd(obdd)
        for model in ws.enumerate():
            assert obdd.evaluate(model) == 1
        assert obdd.evaluate(ws.sample(rng=0)) == 1

    def test_nobdd_route(self):
        from repro.bdd.builders import random_nobdd

        nobdd = random_nobdd(8, branches=3, rng=21)
        ws = WitnessSet.from_obdd(nobdd, delta=0.3, params=FAST, rng=1)
        assert ws.source == "nobdd"
        exact = ws.count()
        estimate = ws.count(backend="fpras", rng=2)
        if exact:
            assert abs(estimate - exact) <= 0.5 * exact
            assert nobdd.evaluate(ws.sample(rng=3)) == 1

    def test_bad_input_rejected(self):
        with pytest.raises(InvalidRelationInputError):
            WitnessSet.from_obdd("not a diagram")


class TestRpqFacade:
    def test_grid_counts_match_closed_form(self):
        import math

        from repro.graphdb.graph import grid_graph

        side = 4
        n = 2 * (side - 1)
        ws = WitnessSet.from_rpq(grid_graph(side, side), "(r|d)*", (0, 0),
                                 (side - 1, side - 1), n)
        assert ws.count() == math.comb(n, side - 1)

    def test_agrees_with_rpq_evaluator(self):
        from repro.graphdb.graph import social_graph
        from repro.graphdb.rpq import RPQ, RpqEvaluator

        g = social_graph(20, rng=9)
        people = sorted(g.vertices)
        source, target = people[0], people[5]
        ws = WitnessSet.from_rpq(g, "k(k|f)*k", source, target, 4)
        evaluator = RpqEvaluator(g, RPQ("k(k|f)*k"), source, target, 4)
        assert ws.count() == evaluator.count_exact()

    def test_sampled_witnesses_are_paths(self):
        from repro.graphdb.graph import grid_graph
        from repro.graphdb.rpq import Path

        g = grid_graph(4, 4)
        ws = WitnessSet.from_rpq(g, "(r|d)*", (0, 0), (3, 3), 6)
        path = ws.sample(rng=1)
        assert isinstance(path, Path)
        assert path.is_path_of(g)
        assert path.source == (0, 0) and path.target == (3, 3)

    def test_deterministic_query_lands_in_relation_ul(self):
        from repro.graphdb.graph import social_graph

        g = social_graph(15, rng=4)
        people = sorted(g.vertices)
        ws = WitnessSet.from_rpq(g, "k(k|f)*k", people[0], people[3], 4,
                                 deterministic_query=True)
        assert ws.is_unambiguous


class TestSpannerFacade:
    def _instance(self):
        from repro.spanners.eva import extraction_eva

        rule = extraction_eva("ab", "V", content_symbols="cd", alphabet="abcd")
        return rule, "cabdcabcc"

    def test_agrees_with_spanner_evaluator(self):
        from repro.spanners.evaluation import SpannerEvaluator

        rule, document = self._instance()
        ws = WitnessSet.from_spanner(rule, document)
        evaluator = SpannerEvaluator(rule, document)
        assert ws.count() == evaluator.count_exact()
        assert sorted(map(repr, ws.enumerate())) == sorted(
            map(repr, evaluator.mappings())
        )

    def test_sampled_mapping_is_an_extraction(self):
        rule, document = self._instance()
        ws = WitnessSet.from_spanner(rule, document, rng=0)
        mapping = ws.sample(rng=1)
        assert repr(mapping) in {repr(m) for m in ws.enumerate()}


class TestCfgFacade:
    def _grammar(self):
        from repro.grammars import CNFGrammar

        return CNFGrammar(
            nonterminals=["S", "A", "B", "T"],
            terminals=["a", "b"],
            rules=[
                ("S", ("A", "T")),
                ("T", ("S", "B")),
                ("S", ("A", "B")),
                ("A", ("a",)),
                ("B", ("b",)),
            ],
            start="S",
        )

    def test_count_and_enumeration_match_grammar(self):
        grammar = self._grammar()  # a^n b^n: one word per even length
        ws = WitnessSet.from_cfg(grammar, 6)
        assert ws.count() == len(grammar.words_of_length(6))
        assert sorted(ws.enumerate()) == sorted(grammar.words_of_length(6))
        assert ws.is_unambiguous  # the trie is deterministic

    def test_sample_is_a_grammar_word(self):
        grammar = self._grammar()
        ws = WitnessSet.from_cfg(grammar, 4)
        assert ws.sample(rng=0) in set(grammar.words_of_length(4))

    def test_limit_guard(self):
        from repro.grammars import CNFGrammar

        full = CNFGrammar(
            nonterminals=["S", "A", "B"],
            terminals=["a", "b"],
            rules=[
                ("S", ("A", "S")),
                ("S", ("B", "S")),
                ("S", ("A", "A")),
                ("S", ("A", "B")),
                ("S", ("B", "A")),
                ("S", ("B", "B")),
                ("A", ("a",)),
                ("B", ("b",)),
            ],
            start="S",
        )
        with pytest.raises(InvalidRelationInputError, match="slice exceeds"):
            WitnessSet.from_cfg(full, 8, limit=16)


class TestFromCompiled:
    def test_wraps_any_relation(self):
        from repro.dnf.formulas import parse_dnf
        from repro.dnf.relation import SatDnfRelation

        phi = parse_dnf("x0 & x1 | !x2")
        ws = WitnessSet.from_compiled(SatDnfRelation(), phi)
        assert ws.count() == phi.count_models_brute()
        assert ws.source == "SAT-DNF"
