"""End-to-end integration tests: the library's top-level story.

These exercise the public API the README advertises: regex → NFA →
count / enumerate / sample, class dispatch, and the agreement of every
counting route on shared instances.
"""

from __future__ import annotations

import pytest

import repro
from repro import WitnessSet
from repro.automata import ambiguity_blowup, compile_regex, is_unambiguous
from repro.automata.operations import words_of_length
from repro.core import FprasParameters
from repro.errors import EmptyWitnessSetError

FAST = FprasParameters(sample_size=48)


class TestTopLevelApi:
    def test_count_words_dispatch_ufa(self):
        nfa = compile_regex("(ab)*", alphabet="ab")
        assert WitnessSet.from_nfa(nfa, 6).count() == 1

    def test_count_words_dispatch_ambiguous(self):
        nfa = compile_regex("(a|b)*a(a|b)*", alphabet="ab")
        # Words containing at least one 'a': 2^5 - 1.
        assert WitnessSet.from_nfa(nfa, 5).count() == 31

    def test_uniform_sample_ufa(self):
        nfa = compile_regex("(ab|ba)*", alphabet="ab")
        w = WitnessSet.from_nfa(nfa, 6).sample(rng=1)
        assert w is not None
        assert nfa.accepts(w)

    def test_uniform_sample_empty(self):
        nfa = compile_regex("aa", alphabet="ab")
        assert WitnessSet.from_nfa(nfa, 3).sample(rng=1) is None

    def test_uniform_samples_batch(self):
        nfa = compile_regex("(a|b){4}", alphabet="ab")
        samples = WitnessSet.from_nfa(nfa, 4).sample(20, rng=2)
        assert len(samples) == 20
        assert all(nfa.accepts(w) for w in samples)

    def test_uniform_samples_ambiguous_route(self):
        nfa = ambiguity_blowup(7)
        samples = WitnessSet.from_nfa(nfa, 14, delta=0.3).sample(5, rng=3)
        assert len(samples) == 5
        stripped = nfa.without_epsilon()
        assert all(stripped.accepts(w) for w in samples)

    def test_enumerate_words_api(self):
        nfa = compile_regex("a*b", alphabet="ab")
        assert list(repro.enumerate_words(nfa, 3)) == [tuple("aab")]


class TestCountingRoutesAgree:
    """Every counting path must tell the same story on shared instances."""

    @pytest.mark.parametrize("pattern", ["(ab|ba)*", "(a|b)*ab", "a*b*a*"])
    def test_regex_counts(self, pattern):
        nfa = compile_regex(pattern, alphabet="ab")
        for n in (0, 1, 4, 6):
            brute = len(words_of_length(nfa, n))
            assert WitnessSet.from_nfa(nfa, n).count() == brute
            assert repro.count_words_exact(nfa, n) == brute

    def test_fpras_tracks_exact_across_lengths(self):
        nfa = ambiguity_blowup(6)
        for n in (4, 8, 12):
            exact = repro.count_words_exact(nfa, n)
            estimate = repro.approx_count_nfa(nfa, n, delta=0.3, rng=5, params=FAST)
            if exact == 0:
                assert estimate == 0
            else:
                assert abs(estimate - exact) <= 0.4 * exact


class TestRegexSamplingStory:
    """The headline use case: uniform strings of a regex at a length."""

    def test_unambiguous_pattern_exact_route(self):
        nfa = compile_regex("(ab|ba)+", alphabet="ab")
        assert is_unambiguous(nfa)
        support = set(words_of_length(nfa, 6))
        ws = WitnessSet.from_nfa(nfa, 6)
        seen = {ws.sample(rng=seed) for seed in range(60)}
        assert seen <= support
        assert len(seen) == len(support)  # all 8 words show up in 60 draws

    def test_ambiguous_pattern_plvug_route(self):
        nfa = compile_regex("(a|b)*a(a|b)*", alphabet="ab")
        assert not is_unambiguous(nfa)
        support = set(words_of_length(nfa, 7))
        generator = repro.LasVegasUniformGenerator(nfa, 7, rng=9, delta=0.3, params=FAST)
        for w in generator.sample_many(20):
            assert w in support

    def test_sampling_respects_language_not_run_counts(self):
        """The PLVUG must not over-sample high-multiplicity words.

        On the blowup family the all-'0' word has 2^depth runs but must
        appear ≈ 1/2^depth of the time, not ≈ 20%.
        """
        depth = 6
        nfa = ambiguity_blowup(depth)
        n = 2 * depth
        generator = repro.LasVegasUniformGenerator(nfa, n, rng=13, delta=0.3, params=FAST)
        samples = generator.sample_many(300)
        all_zero = tuple("0" * n)
        share = samples.count(all_zero) / len(samples)
        assert share < 0.10  # uniform share is 1/64 ≈ 1.6%; biased would be ≈ 20%


class TestErrorSurface:
    def test_empty_witness_errors_are_informative(self):
        nfa = compile_regex("ab", alphabet="ab")
        sampler = repro.ExactUniformSampler(nfa, 5)
        with pytest.raises(EmptyWitnessSetError, match="length 5"):
            sampler.sample()

    def test_version_exposed(self):
        assert repro.__version__
