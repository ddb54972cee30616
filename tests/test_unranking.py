"""Exact draws are unrankings of one ``randrange`` rank.

A draw takes ``r = randrange(total_runs)`` and walks the backward count
table, subtracting the completions of each edge it passes; it returns
run number ``r`` of Algorithm 1's order.  The checks: every rank maps to
the run Algorithm 1 lists at that position, on trimmed and on
reachable-mode kernels (whose weight-0 edges the walk skips); a draw
makes exactly one ``randrange`` call, with ``total_runs``; a shared
generator gives ``sample(k)`` and ``sample_batch(k)`` the same words; and
the NumPy walk returns the pure walk's words for the same ranks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import WitnessSet
from repro.automata.operations import reverse
from repro.automata.random_gen import random_ufa
from repro.automata.regex import compile_regex
from repro.automata.unambiguous import is_unambiguous
from repro.core import accel
from repro.core.enumeration import enumerate_words_dag
from repro.core.kernel import compile_nfa
from repro.errors import EmptyWitnessSetError
from repro.utils.rng import make_rng, substreams
from test_accel import both_backends


class Scripted(random.Random):
    """A generator whose ``randrange`` returns scripted ranks and
    records the bound of each call."""

    ranks: list[int]
    bounds: list[int]

    def randrange(self, stop):  # type: ignore[override]
        self.bounds.append(stop)
        return self.ranks.pop(0)


def scripted(*ranks: int) -> Scripted:
    generator = Scripted(0)
    generator.ranks, generator.bounds = list(ranks), []
    return generator


@st.composite
def unambiguous(draw):
    """A random partial DFA, or its reversal: a UFA that is not
    deterministic (ε fans its fresh initial state into the old finals)."""
    nfa = random_ufa(
        draw(st.integers(1, 8)),
        alphabet=draw(st.sampled_from(["ab", "abc"])),
        completeness=draw(st.sampled_from([0.5, 0.8, 1.0])),
        final_fraction=draw(st.sampled_from([0.3, 0.6])),
        rng=draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        nfa = reverse(nfa)
    return nfa.without_epsilon()


@settings(max_examples=80, deadline=None)
@given(unambiguous(), st.integers(0, 8))
def test_every_rank_unranks_to_its_run_in_algorithm1_order(nfa, n):
    assert is_unambiguous(nfa)
    trimmed = compile_nfa(nfa, n, trimmed=True)
    reachable = compile_nfa(nfa, n, trimmed=False)
    total = trimmed.total_runs
    assert reachable.total_runs == total
    listed = list(enumerate_words_dag(trimmed))
    assert len(listed) == total
    for kernel in (trimmed, reachable):
        assert [kernel.sample_word(scripted(r)) for r in range(total)] == listed
    if not total:
        with pytest.raises(EmptyWitnessSetError):
            trimmed.sample_word(scripted(0))


@settings(max_examples=40, deadline=None)
@given(unambiguous(), st.integers(1, 8), st.integers(1, 6), st.data())
def test_one_randrange_per_draw(nfa, n, k, data):
    kernel = compile_nfa(nfa, n, trimmed=data.draw(st.booleans()))
    total = kernel.total_runs
    if not total:
        return
    ranks = data.draw(st.lists(st.integers(0, total - 1), min_size=k, max_size=k))
    single = scripted(ranks[0])
    kernel.sample_word(single)
    assert single.bounds == [total]
    shared = scripted(*ranks)
    words = kernel.sample_batch(k, shared)
    assert shared.bounds == [total] * k
    assert words == [kernel.sample_word(scripted(r)) for r in ranks]
    streams = [scripted(r) for r in ranks]
    assert kernel.sample_batch(k, streams) == words
    assert [stream.bounds for stream in streams] == [[total]] * k


@settings(max_examples=40, deadline=None)
@given(unambiguous(), st.integers(0, 8), st.integers(0, 2**32), st.integers(1, 12))
def test_sample_equals_sample_batch_on_one_seed(nfa, n, seed, k):
    ws = WitnessSet(nfa, n, store=False)
    if not ws.nonempty:
        return
    assert ws.sample(k, seed=seed) == ws.sample_batch(k, seed=seed)


needs_numpy = pytest.mark.skipif(
    accel.resolve("numpy") is None, reason="NumPy backend unavailable"
)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(unambiguous(), st.integers(0, 8), st.booleans(), st.integers(0, 2**32))
def test_numpy_walk_equals_pure_walk(nfa, n, trimmed, seed):
    pure, fast = both_backends(nfa, n, trimmed)
    if not pure.total_runs:
        return
    assert pure.sample_batch(40, random.Random(seed)) == fast.sample_batch(
        40, random.Random(seed)
    )
    assert pure.sample_batch(40, substreams(make_rng(seed), 40)) == fast.sample_batch(
        40, substreams(make_rng(seed), 40)
    )


@needs_numpy
@pytest.mark.parametrize("trimmed", [True, False])
def test_numpy_walk_equals_pure_walk_on_a_spilled_kernel(trimmed):
    """((a|b)(a|b|c))* at n=64: 6**32 runs, past int64, so the NumPy
    backend hands the walk to the pure path with the same ranks."""
    nfa = compile_regex("((a|b)(a|b|c))*", alphabet=list("abc")).without_epsilon()
    pure, fast = both_backends(nfa, 64, trimmed)
    assert fast.total_runs == 6**32
    assert any(isinstance(row, list) for row in fast.backward_counts())
    assert pure.sample_batch(30, random.Random(4)) == fast.sample_batch(
        30, random.Random(4)
    )
    assert pure.sample_batch(30, substreams(make_rng(4), 30)) == fast.sample_batch(
        30, substreams(make_rng(4), 30)
    )
