"""E-API — the WitnessSet facade's cache removes per-call recompilation.

The pre-facade top-level helpers re-ran ``without_epsilon().trim()``,
the ambiguity check, and the unroll/count-table preprocessing on every
call, so a count followed by a sample on the same language paid the
expensive work twice.  Recorded here:

* cold (a fresh facade per query — the old behaviour) vs warm (one
  facade, cached artifacts) cost of the count+sample+enum triple.
"""

from __future__ import annotations

import time

from repro.api import WitnessSet
from workloads import ufa_sweep

N = 64
QUERY_ROUNDS = 30


def _query_triple(ws: WitnessSet) -> None:
    ws.count()
    ws.sample(1, rng=0)
    next(iter(ws.words()))


def test_facade_cache_speedup(observe):
    m, ufa = ufa_sweep(sizes=(80,))[0]

    # COUNT: warm calls are O(1) dict lookups vs the full preprocessing.
    cold_rounds = 5
    start = time.perf_counter()
    for _ in range(cold_rounds):
        WitnessSet.from_nfa(ufa, N).count()
    cold_count = (time.perf_counter() - start) / cold_rounds

    ws = WitnessSet.from_nfa(ufa, N)
    ws.count()  # prime
    start = time.perf_counter()
    for _ in range(QUERY_ROUNDS):
        ws.count()
    warm_count = (time.perf_counter() - start) / QUERY_ROUNDS

    # The mixed triple still pays the (inherent) per-draw sampling walk,
    # but none of the preprocessing.
    start = time.perf_counter()
    for _ in range(cold_rounds):
        _query_triple(WitnessSet.from_nfa(ufa, N))
    cold_triple = (time.perf_counter() - start) / cold_rounds
    _query_triple(ws)
    start = time.perf_counter()
    for _ in range(QUERY_ROUNDS):
        _query_triple(ws)
    warm_triple = (time.perf_counter() - start) / QUERY_ROUNDS

    observe(
        "E-API",
        f"m={m} n={N} count: cold={cold_count * 1e3:7.2f}ms "
        f"warm={warm_count * 1e6:7.1f}µs ({cold_count / warm_count:8.0f}x) | "
        f"count+sample+enum: cold={cold_triple * 1e3:7.2f}ms "
        f"warm={warm_triple * 1e3:7.2f}ms ({cold_triple / warm_triple:5.1f}x)",
    )
    # Counting on a warm facade must be orders of magnitude cheaper than
    # re-preprocessing (conservative bound; typically ≫ 100x) ...
    assert warm_count < cold_count / 10
    # ... the mixed workload must still amortize all shared state ...
    assert warm_triple < cold_triple
    # ... and no artifact is ever built twice.
    assert all(count == 1 for count in ws.stats.misses.values())
