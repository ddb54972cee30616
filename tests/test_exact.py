"""Unit tests for exact counting (Section 5.3.2) and the DP tables."""

from __future__ import annotations

import pytest

from repro.automata.nfa import NFA, word
from repro.automata.random_gen import ambiguity_blowup, divisibility_dfa, random_nfa, random_ufa
from repro.baselines.naive import brute_force_count
from repro.core.exact import (
    count_accepting_runs_of_length,
    count_words_exact,
    count_words_ufa,
    length_spectrum,
    run_count_by_word,
)
from repro.core.unroll import unroll, unroll_trimmed
from repro.errors import AmbiguityError


class TestRunCounting:
    def test_even_zeros(self, even_zeros_dfa):
        # DFA: runs = words = 2^{n-1} for n ≥ 1.
        for n in range(1, 8):
            assert count_accepting_runs_of_length(even_zeros_dfa, n) == 2 ** (n - 1)

    def test_zero_length(self, even_zeros_dfa):
        assert count_accepting_runs_of_length(even_zeros_dfa, 0) == 1

    def test_run_inflation_on_ambiguous(self, endswith_one_nfa):
        # Runs: each word with k ones contributes k runs: total = n·2^{n-1}.
        for n in range(1, 7):
            assert count_accepting_runs_of_length(endswith_one_nfa, n) == n * 2 ** (n - 1)

    def test_blowup_runs(self):
        nfa = ambiguity_blowup(4)
        # Each gadget contributes (2 runs for 'aa' + 1 for 'ba'): total 3^4.
        assert count_accepting_runs_of_length(nfa.without_epsilon(), 8) == 3**4


class TestCountWordsUfa:
    def test_matches_brute_force(self, even_zeros_dfa):
        for n in range(6):
            assert count_words_ufa(even_zeros_dfa, n) == brute_force_count(even_zeros_dfa, n)

    def test_raises_on_ambiguous(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError):
            count_words_ufa(endswith_one_nfa, 4)

    def test_check_skip(self, even_zeros_dfa):
        assert count_words_ufa(even_zeros_dfa, 4, check=False) == 8

    def test_random_ufas(self, rng):
        for _ in range(8):
            ufa = random_ufa(6, rng=rng)
            for n in range(5):
                assert count_words_ufa(ufa, n) == brute_force_count(ufa, n)


class TestCountWordsExact:
    def test_matches_brute_force_ambiguous(self, endswith_one_nfa):
        for n in range(7):
            assert count_words_exact(endswith_one_nfa, n) == 2**n - 1

    def test_random_nfas(self, rng):
        for _ in range(8):
            nfa = random_nfa(5, density=1.6, rng=rng)
            for n in range(5):
                assert count_words_exact(nfa, n) == brute_force_count(nfa, n)

    def test_divisibility_counts(self):
        nfa = divisibility_dfa(2, 3)
        # Multiples of 3 among 0..2^n-1 (with leading zeros): floor((2^n-1)/3)+1.
        for n in range(1, 10):
            assert count_words_exact(nfa, n) == (2**n - 1) // 3 + 1

    def test_bignum_counts(self):
        # 2^200 words — must be exact, not float.
        full = NFA.full_language("01").without_epsilon()
        assert count_words_exact(full, 200) == 2**200

    def test_empty_language(self):
        assert count_words_exact(NFA.empty_language("01"), 5) == 0

    def test_zero_length(self):
        assert count_words_exact(NFA.only_empty_word("01"), 0) == 1
        assert count_words_exact(NFA.empty_language("01"), 0) == 0


class TestTables:
    """The kernel's packed count rows, indexed as ``layer_states``."""

    def test_forward_totals(self, even_zeros_dfa):
        dag = unroll(even_zeros_dfa, 4)
        table = dag.forward_counts()
        # Total runs of length t is 2^t for this complete DFA.
        for t in range(5):
            assert sum(table[t]) == 2**t

    def test_backward_matches_forward(self, rng):
        """Σ_q fwd[t][q]·bwd[t][q] is the total accepting-run count, ∀t."""
        for _ in range(5):
            nfa = random_nfa(5, density=1.5, rng=rng)
            dag = unroll_trimmed(nfa, 6)
            fwd = dag.forward_counts()
            bwd = dag.backward_counts()
            total = count_accepting_runs_of_length(nfa.without_epsilon(), 6)
            for t in range(7):
                assert sum(f * b for f, b in zip(fwd[t], bwd[t])) == total

    def test_backward_at_final_layer(self, even_zeros_dfa):
        dag = unroll_trimmed(even_zeros_dfa, 3)
        bwd = dag.backward_counts()
        assert dict(zip(dag.layer_states(3), bwd[3])) == {"even": 1}


class TestSpectrumAndProfiles:
    def test_length_spectrum_ufa(self, even_zeros_dfa):
        spectrum = length_spectrum(even_zeros_dfa, range(5))
        assert spectrum == {0: 1, 1: 1, 2: 2, 3: 4, 4: 8}

    def test_length_spectrum_exact_mode(self, endswith_one_nfa, rng):
        spectrum = length_spectrum(endswith_one_nfa, [2, 3], exact_nfa=True)
        assert spectrum == {2: 3, 3: 7}
        assert length_spectrum(endswith_one_nfa, [], exact_nfa=True) == {}
        for exact_nfa in (False, True):
            with pytest.raises(ValueError):
                length_spectrum(endswith_one_nfa, [3, -1], exact_nfa=exact_nfa)
        # One subset pass answers lengths in any order, repeated, as the
        # per-length count does.
        for _ in range(5):
            nfa = random_nfa(6, density=1.8, rng=rng)
            lengths = [7, 0, 3, 7, 1]
            assert length_spectrum(nfa, lengths, exact_nfa=True) == {
                n: count_words_exact(nfa, n) for n in lengths
            }

    def test_run_count_by_word(self, endswith_one_nfa):
        profile = run_count_by_word(endswith_one_nfa, 3)
        assert profile[word("111")] == 3
        assert profile[word("100")] == 1
        assert len(profile) == 7
