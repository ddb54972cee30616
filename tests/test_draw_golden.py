"""Golden digests of seeded exact draws.

A seeded exact draw is one ``randrange(total_runs)`` rank, unranked
through the backward count table, so the words below depend only on the
witness set, the seed and the draw count.  A change to the walk, to the
rank draw or to how a batch derives its streams changes a digest here.
Such a change is a new seed contract: declare it in CHANGES.md and
README, then re-pin.

Each set pins two digests: one for a shared generator (``sample(k,
seed)`` and ``sample_batch(k, seed)`` draw the same words) and one for
per-draw substreams (``sample_batch(..., use_substreams=True)`` and the
protocol's ``draw_samples``).  The NumPy backend walks the same ranks,
so it reproduces every digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import WitnessSet
from repro.automata.random_gen import random_ufa
from repro.core import accel
from repro.service.protocol import draw_samples

K = 25
SEED = 2019

#: set name -> (shared-generator digest, substream digest)
GOLDEN = {
    "ufa": (
        "83661915a56f045558126005eaa4bdfebe07054ae8ef6da57d7ed2d9766bd1f7",
        "f9ada2decb03983a29e7c6be869a731cbe1612b7784f76faf79a71ffd098cd77",
    ),
    "bignum": (
        "c98eda123b6465d3cab1e6a757f783ac68b5e5dda37a5a038e4d613ec0de2911",
        "152e8ec4dd4e0305ce8c80a624074980243ff154288947346d9208301c11ec0f",
    ),
    "intersection": (
        "f39edac8141ee7b984afdcbe64ad1efab0aff2c89f22d0c6bbd1b38615ec9e56",
        "f2e6436d37b3d0ab54774de6f45149afd538c8f6ee1741c228db89531b029dc5",
    ),
    "up_to": (
        "fe6ce46d0180f8fc311c739ec89ef16f9535444f0a1b23d7d62bc9bd76b6fb85",
        "92c6f1a4bdfd13a4bd7ea236414f955f51b1352f99af9e6a44658555f0710e70",
    ),
}


def witness_set(name: str, backend: str) -> WitnessSet:
    options = {"store": False, "kernel_backend": backend}
    if name == "ufa":  # counts fit int64
        nfa = random_ufa(40, rng=11, completeness=0.9, ensure_nonempty_length=30)
        return WitnessSet(nfa, 30, **options)
    if name == "bignum":  # 6**32 words: count rows spill past int64
        return WitnessSet.from_regex("((a|b)(a|b|c))*", 64, alphabet="abc", **options)
    if name == "intersection":  # a lazy Product plan of two UFAs
        return WitnessSet.from_intersection(
            "(aa|ab|b)*", "(a|b)*a(a|b)(a|b)", 24, **options
        )
    nfa = random_ufa(12, rng=5, completeness=0.8, ensure_nonempty_length=9)
    return WitnessSet.up_to(nfa, 12, **options)


def digest(words: list) -> str:
    return hashlib.sha256(repr(words).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "backend",
    [
        "pure",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                accel.resolve("numpy") is None, reason="NumPy backend unavailable"
            ),
        ),
    ],
)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_exact_draws_match_golden(name, backend):
    ws = witness_set(name, backend)
    assert ws.is_unambiguous
    assert ws.kernel.kernel_backend == backend
    shared, streams = GOLDEN[name]
    assert digest(ws.sample(K, seed=SEED)) == shared
    assert digest(ws.sample_batch(K, seed=SEED)) == shared
    assert digest(ws.sample_batch(K, seed=SEED, use_substreams=True)) == streams
    assert digest(draw_samples(ws, K, SEED)) == streams
