"""Tests for witnesses of length at most n: the §2.1 padding and the
padded witness set ``WitnessSet.up_to``."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from test_trim import automata

from repro.api import WitnessSet
from repro.automata.nfa import NFA, word
from repro.automata.operations import words_of_length
from repro.automata.random_gen import random_ufa
from repro.automata.unambiguous import is_unambiguous
from repro.core.exact import count_words_exact
from repro.core.fpras import FprasParameters
from repro.core.spectrum import PAD, pad_automaton
from repro.errors import EmptyWitnessSetError
from repro.utils.stats import chi_square_uniformity

FAST = FprasParameters(sample_size=48)


class TestPadAutomaton:
    def test_padded_counts(self, even_zeros_dfa):
        padded = pad_automaton(even_zeros_dfa)
        n = 5
        expected = sum(count_words_exact(even_zeros_dfa, length) for length in range(n + 1))
        assert count_words_exact(padded, n) == expected

    def test_padding_is_parseable(self, even_zeros_dfa):
        padded = pad_automaton(even_zeros_dfa)
        w = word("11") + (PAD, PAD)
        assert padded.accepts(w)
        ws = WitnessSet.up_to(even_zeros_dfa, 4)
        assert ws.decode(w) == word("11")
        assert ws.contains(word("11")) and not ws.contains(word("11") + (PAD,))

    def test_pad_only_at_end(self, even_zeros_dfa):
        padded = pad_automaton(even_zeros_dfa)
        assert not padded.accepts((PAD, "1", "1"))

    def test_preserves_unambiguity(self, even_zeros_dfa):
        assert is_unambiguous(pad_automaton(even_zeros_dfa))

    def test_collision_rejected(self):
        nfa = NFA(["q"], [PAD], [], "q", ["q"])
        with pytest.raises(ValueError):
            pad_automaton(nfa)


class TestSpectrumSolverUfa:
    """``WitnessSet.up_to`` on unambiguous automata."""

    def test_count(self, even_zeros_dfa):
        ws = WitnessSet.up_to(even_zeros_dfa, 5)
        expected = sum(count_words_exact(even_zeros_dfa, length) for length in range(6))
        assert ws.is_unambiguous
        assert ws.count() == expected
        assert ws.count_exact() == expected

    def test_sampling_support(self, even_zeros_dfa, rng):
        ws = WitnessSet.up_to(even_zeros_dfa, 4, rng=rng)
        support = [
            w
            for length in range(5)
            for w in words_of_length(even_zeros_dfa, length)
        ]
        samples = ws.sample(len(support) * 60)
        result = chi_square_uniformity(samples, support)
        assert not result.rejects_uniformity()

    def test_empty(self, rng):
        ws = WitnessSet.up_to(NFA.empty_language("01"), 4, rng=rng)
        assert ws.count() == 0
        assert ws.sample() is None
        with pytest.raises(EmptyWitnessSetError):
            ws.sample(1)

    def test_random_ufa_agrees_with_exact(self, rng):
        ufa = random_ufa(6, rng=5, ensure_nonempty_length=4)
        ws = WitnessSet.up_to(ufa, 5, rng=rng)
        assert ws.count() == sum(count_words_exact(ufa, length) for length in range(6))


class TestSpectrumSolverNfa:
    """``WitnessSet.up_to`` on an ambiguous automaton."""

    def test_approx_count_tracks_exact(self, endswith_one_nfa, rng):
        ws = WitnessSet.up_to(endswith_one_nfa, 7, delta=0.3, rng=rng, params=FAST)
        assert not ws.is_unambiguous
        exact = ws.count()
        assert exact == sum(2**length - 1 for length in range(8))
        estimate = ws.count(backend="fpras", delta=0.3)
        assert abs(estimate - exact) <= 0.35 * exact

    def test_sample_is_witness(self, endswith_one_nfa, rng):
        ws = WitnessSet.up_to(endswith_one_nfa, 6, delta=0.3, rng=rng, params=FAST)
        for w in ws.sample(5):
            assert len(w) <= 6
            assert endswith_one_nfa.accepts(w)

    def test_enumeration_complete(self, endswith_one_nfa):
        out = list(WitnessSet.up_to(endswith_one_nfa, 4).enumerate())
        assert len(out) == sum(2**length - 1 for length in range(5))
        assert len(out) == len(set(out))


def assert_up_to_is_the_union(nfa: NFA, n: int) -> None:
    """``up_to(nfa, n)`` against the per-length languages ``L_0..L_n``."""
    ws = WitnessSet.up_to(nfa, n, store=False)
    assert ws.count() == sum(count_words_exact(nfa, length) for length in range(n + 1))
    out = list(ws.enumerate())
    assert len(out) == len(set(out))
    assert set(out) == {
        w for length in range(n + 1) for w in words_of_length(nfa, length)
    }
    alphabet = sorted(nfa.alphabet)
    for length in range(n + 2):
        for w in itertools.product(alphabet, repeat=length):
            assert ws.contains(w) == (length <= n and nfa.accepts(w)), w


class TestUpToDifferential:
    @settings(max_examples=200, deadline=None)
    @given(nfa=automata(), n=st.integers(0, 8))
    def test_matches_the_per_length_languages(self, nfa, n):
        assert is_unambiguous(pad_automaton(nfa)) == is_unambiguous(nfa)
        assert_up_to_is_the_union(nfa, n)

    # random_ufa draws partial DFAs, so unambiguous automata.
    @settings(max_examples=100, deadline=None)
    @given(
        ufa=st.builds(random_ufa, st.integers(1, 8), rng=st.integers(0, 2**32)),
        n=st.integers(0, 8),
    )
    def test_random_ufas(self, ufa, n):
        assert is_unambiguous(pad_automaton(ufa))
        assert_up_to_is_the_union(ufa, n)
