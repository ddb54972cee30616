"""Unit tests for ambiguity testing, certification and measurement."""

from __future__ import annotations

import random

import pytest

from repro.automata.nfa import EPSILON, NFA, word
from repro.automata.operations import words_of_length
from repro.automata.random_gen import ambiguity_blowup, random_nfa, random_ufa
from repro.automata.unambiguous import (
    ambiguity_counts,
    disambiguate,
    is_unambiguous,
    require_unambiguous,
)
from repro.errors import AmbiguityError


def _untrimmed(nfa: NFA, seed: int | None = None) -> NFA:
    """``nfa`` behind a fresh ε-entry, with a dead state every state can
    step into on every symbol, plus one random ε-edge when ``seed`` is
    given (the only change that can alter the language)."""
    states = sorted(nfa.states)
    transitions = set(nfa.transitions)
    transitions.add(("start", EPSILON, nfa.initial))
    if seed is not None:
        generator = random.Random(seed)
        transitions.add((generator.choice(states), EPSILON, generator.choice(states)))
    for state in states + ["dead"]:
        for symbol in nfa.alphabet:
            transitions.add((state, symbol, "dead"))
    return NFA(states + ["start", "dead"], nfa.alphabet, transitions, "start", nfa.finals)


class TestIsUnambiguous:
    def test_dfa_is_unambiguous(self, even_zeros_dfa):
        assert is_unambiguous(even_zeros_dfa)

    def test_classic_ambiguous(self, endswith_one_nfa):
        assert not is_unambiguous(endswith_one_nfa)

    def test_blowup_family_ambiguous(self):
        assert not is_unambiguous(ambiguity_blowup(2))

    def test_empty_language_unambiguous(self):
        assert is_unambiguous(NFA.empty_language("01"))

    def test_dead_nondeterminism_ignored(self):
        # Two runs exist for '0' but only one reaches a final state:
        # ambiguity must look at ACCEPTING runs only.
        nfa = NFA(
            ["s", "f", "dead"],
            ["0"],
            [("s", "0", "f"), ("s", "0", "dead")],
            "s",
            ["f"],
        )
        assert is_unambiguous(nfa)

    def test_parallel_paths_detected(self):
        # Two distinct accepting runs for '01'.
        nfa = NFA(
            ["s", "m1", "m2", "f"],
            ["0", "1"],
            [
                ("s", "0", "m1"),
                ("s", "0", "m2"),
                ("m1", "1", "f"),
                ("m2", "1", "f"),
            ],
            "s",
            ["f"],
        )
        assert not is_unambiguous(nfa)

    def test_agreement_with_run_counts(self, rng):
        """Oracle check: unambiguous ⟺ every accepted word has one run.

        Each random automaton is checked trimmed and also untrimmed, with
        ε-edges and a nondeterministic dead branch: the certificate walks
        the automaton as given, and the runs are counted on its ε-free
        form."""
        for index in range(15):
            raw = random_nfa(5, density=1.3, rng=rng)
            ufa = random_ufa(5, rng=index)
            inputs = (
                raw.without_epsilon().trim(),
                _untrimmed(raw),
                _untrimmed(raw, seed=index),
                _untrimmed(ufa),
            )
            for nfa in inputs:
                runs = nfa.without_epsilon()
                claimed = is_unambiguous(nfa)
                truly = all(
                    runs.count_accepting_runs(w) == 1
                    for n in range(8)
                    for w in words_of_length(runs, n)
                )
                assert claimed == truly

    def test_random_ufa_generator_delivers(self, rng):
        for _ in range(10):
            assert is_unambiguous(random_ufa(7, rng=rng))


class TestRequireUnambiguous:
    def test_passes_through_ufa(self, even_zeros_dfa):
        out = require_unambiguous(even_zeros_dfa)
        assert not out.has_epsilon

    def test_raises_on_ambiguous(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError):
            require_unambiguous(endswith_one_nfa)

    def test_error_mentions_context(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError, match="my-operation"):
            require_unambiguous(endswith_one_nfa, context="my-operation")


class TestDisambiguate:
    def test_result_unambiguous_same_language(self, endswith_one_nfa):
        ufa = disambiguate(endswith_one_nfa)
        assert is_unambiguous(ufa)
        for w in ["", "0", "1", "0101", "0000"]:
            assert ufa.accepts(word(w)) == endswith_one_nfa.accepts(word(w))

    def test_blowup_family(self):
        amb = ambiguity_blowup(3)
        ufa = disambiguate(amb)
        assert is_unambiguous(ufa)
        for n in range(8):
            assert len(words_of_length(ufa, n)) == len(words_of_length(amb, n))


class TestAmbiguityCounts:
    def test_blowup_profile(self):
        amb = ambiguity_blowup(3)
        words, runs, max_runs = ambiguity_counts(amb, 6)
        assert words == 8          # one word per b-mask over 3 gadgets
        assert max_runs == 8       # the all-a word has 2^3 runs
        assert runs > words        # strictly ambiguous

    def test_ufa_profile(self, even_zeros_dfa):
        words, runs, max_runs = ambiguity_counts(even_zeros_dfa, 4)
        assert words == runs == 8
        assert max_runs == 1

    def test_empty(self):
        words, runs, max_runs = ambiguity_counts(NFA.empty_language("01"), 3)
        assert (words, runs, max_runs) == (0, 0, 0)
