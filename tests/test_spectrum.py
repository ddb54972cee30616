"""Tests for witnesses of length at most n (the §2.1 padding and the
padded witness set ``WitnessSet.up_to``) and for spectra past n, which
read a reachable kernel lowered at their own length."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from test_layer_sharing import mixed_type_nfas
from test_trim import automata

from repro.api import WitnessSet
from repro.automata.nfa import NFA, word
from repro.automata.operations import words_of_length
from repro.automata.random_gen import random_ufa
from repro.automata.unambiguous import is_unambiguous
from repro.core.exact import count_words_exact
from repro.core.fpras import FprasParameters
from repro.core.plan import Product
from repro.core.spectrum import PAD, pad_automaton
from repro.errors import EmptyWitnessSetError
from repro.service import KernelStore
from repro.service.protocol import witness_set_from_spec
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


def assert_spectrum_past_n(build, n: int, m: int, counts: list[int]) -> None:
    """On both kernel backends, ``build(n).spectrum(m)`` after
    ``spectrum()`` equals ``build(m).spectrum()`` and ``counts[ℓ]`` for
    every ``ℓ ≤ m``."""
    expected = dict(enumerate(counts))
    for backend in ("pure", "numpy"):
        ws = build(n, kernel_backend=backend)
        assert ws.spectrum() == {length: counts[length] for length in range(n + 1)}
        assert ws.spectrum(m) == expected
        assert build(m, kernel_backend=backend).spectrum() == expected


class TestSpectrumPastN:
    """``spectrum(m)`` for ``m > n`` reads a reachable kernel lowered at
    ``m`` and leaves the set's own kernels at ``n``."""

    @settings(max_examples=150, deadline=None)
    @given(
        nfa=st.one_of(automata(), mixed_type_nfas()),
        n=st.integers(0, 10),
        extra=st.integers(1, 12),
    )
    def test_matches_a_set_at_m(self, nfa, n, extra):
        m = n + extra
        counts = [count_words_exact(nfa, length) for length in range(m + 1)]

        def build(length, **options):
            return WitnessSet.from_nfa(nfa, length, store=False, **options)

        assert_spectrum_past_n(build, n, m, counts)

    # A product of two unambiguous automata is unambiguous, so the plan
    # route lowers both spectra, the longer one over the shared memo.
    @settings(max_examples=60, deadline=None)
    @given(
        left=st.builds(random_ufa, st.integers(1, 6), rng=st.integers(0, 2**32)),
        right=st.builds(random_ufa, st.integers(1, 6), rng=st.integers(0, 2**32)),
        n=st.integers(0, 10),
        extra=st.integers(1, 12),
    )
    def test_plan_matches_a_set_at_m(self, left, right, n, extra):
        m = n + extra
        plan = Product(left, right)
        product = plan.to_nfa()
        counts = [count_words_exact(product, length) for length in range(m + 1)]

        def build(length, **options):
            return WitnessSet.from_plan(plan, length, store=False, **options)

        assert_spectrum_past_n(build, n, m, counts)

    def test_reachable_kernel_keeps_its_length(self, even_zeros_dfa):
        ws = WitnessSet.from_nfa(even_zeros_dfa, 6, store=False)
        assert ws.spectrum(12)[12] == count_words_exact(even_zeros_dfa, 12)
        assert ws.reachable_kernel.n == ws.n

    def test_lowering_time_counts_a_spectrum_past_n(self, even_zeros_dfa):
        ws = WitnessSet.from_nfa(even_zeros_dfa, 6, store=False)
        ws.spectrum()
        before = ws.describe()["lowering_seconds"]
        ws.spectrum(12)
        assert ws.describe()["lowering_seconds"] > before

    def test_warm_restart_answers_from_the_store(self, tmp_path):
        """A warm set answers a spectrum past n from the reachable kernel
        a cold set stored at that length, without building its automaton."""
        spec = {"kind": "regex", "pattern": "(ab|ba)*(a|b)?", "alphabet": "ab", "n": 12}
        root = tmp_path / "kernels"
        cold = witness_set_from_spec(spec, store=KernelStore(root))
        expected = cold.spectrum(16)
        store = KernelStore(root, mmap=True)
        warm = witness_set_from_spec(spec, store=store)
        assert warm.spectrum(16) == expected
        assert warm._pending is not None
        assert store.path_for(cold.fingerprint(), 16, False).exists()
        assert store.stats.hits == store.stats.mmap_hits == 1
