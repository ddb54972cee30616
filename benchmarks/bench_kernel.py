"""K1 — the array-backed CompiledDAG kernel vs the seed dict path.

Claims measured (and asserted, so regressions fail the suite):

* K1a: count + sample on a 200-state random NFA at n = 100 is faster
  through the integer-indexed kernel than through the seed
  frozenset/dict walk it replaced (tables built per-state dicts and the
  sampler re-sorted each vertex's successors per step).
* K1b: ``sample_batch(1000)`` beats 1000 single ``sample()`` calls on
  the same prebuilt sampler — the batched layer-by-layer pass amortizes
  the per-layer lookups.
* K1c: the kernel path agrees exactly with the seed path (counts and
  distributions are the same chain) across the application reductions —
  DNF, RPQ and CFG witness sets give identical exact counts through the
  registry.
* K1d: the NumPy kernel backend is ≥ 10x faster than the pure path on a
  large count + 1000-sample-burst workload, with byte-identical seeded
  samples (skipped when NumPy is not installed).

The seed implementations are inlined below (verbatim logic from the
pre-kernel tree) so the comparison stays honest as the library moves on.
"""

from __future__ import annotations

import time

import pytest

from repro.api import WitnessSet
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_ufa
from repro.core import accel
from repro.core.exact_sampler import ExactUniformSampler
from repro.core.kernel import compile_nfa
from repro.utils.rng import make_rng

M = 200          # automaton states (the ISSUE-2 acceptance instance)
N = 100          # witness length
SAMPLES = 500    # single-draw count inside the count+sample workload
BATCH = 1000     # batched-draw comparison size
SEED = 20190621


def _instance():
    return random_ufa(M, rng=SEED, completeness=0.95, ensure_nonempty_length=N)


# ----------------------------------------------------------------------
# The seed dict path, inlined verbatim from the pre-kernel tree
# ----------------------------------------------------------------------


class UnrolledDAG:
    """The seed unrolling: live-state frozensets per layer, adjacency
    answered from the NFA's per-symbol transition maps."""

    def __init__(self, nfa: NFA, n: int):
        self.nfa = nfa
        self.n = n
        forward: list[frozenset] = [frozenset({nfa.initial})]
        for _ in range(n):
            nxt: set = set()
            for state in forward[-1]:
                for symbol in nfa.alphabet:
                    nxt |= nfa.successors(state, symbol)
            forward.append(frozenset(nxt))
        alive: list[frozenset] = [frozenset(nfa.finals & forward[n])]
        for t in range(n - 1, -1, -1):
            later = alive[0]
            current: set = set()
            for state in forward[t]:
                for symbol in nfa.alphabet:
                    if nfa.successors(state, symbol) & later:
                        current.add(state)
                        break
            alive.insert(0, frozenset(current))
        self.layers = alive

    def layer(self, t: int) -> frozenset:
        return self.layers[t]

    def successors(self, t: int, state):
        if t >= self.n:
            return
        later = self.layers[t + 1]
        for symbol, target in self.nfa.out_edges(state):
            if target in later:
                yield symbol, target

    def sorted_successors(self, t: int, state) -> list:
        return sorted(self.successors(t, state), key=lambda edge: (repr(edge[0]), repr(edge[1])))


def unroll_trimmed(nfa: NFA, n: int) -> UnrolledDAG:
    return UnrolledDAG(nfa.without_epsilon(), n)


def seed_backward_table(dag: UnrolledDAG) -> list[dict]:
    nfa = dag.nfa
    table: list[dict] = [dict() for _ in range(dag.n + 1)]
    table[dag.n] = {state: 1 for state in dag.layer(dag.n) & nfa.finals}
    for t in range(dag.n - 1, -1, -1):
        current: dict = {}
        for state in dag.layer(t):
            total = 0
            for _, target in dag.successors(t, state):
                total += table[t + 1].get(target, 0)
            if total:
                current[state] = total
        table[t] = current
    return table


def seed_sample(dag: UnrolledDAG, back: list[dict], generator) -> tuple:
    state = dag.nfa.initial
    symbols: list = []
    for t in range(dag.n):
        choices: list[tuple] = []
        for symbol, target in dag.sorted_successors(t, state):
            weight = back[t + 1].get(target, 0)
            if weight:
                choices.append((symbol, target, weight))
        total = back[t][state]
        pick = generator.randrange(total)
        accumulated = 0
        for symbol, target, weight in choices:
            accumulated += weight
            if pick < accumulated:
                symbols.append(symbol)
                state = target
                break
    return tuple(symbols)


def seed_count_and_sample(nfa) -> tuple[int, float]:
    started = time.perf_counter()
    dag = unroll_trimmed(nfa, N)
    back = seed_backward_table(dag)
    count = sum(back[0].get(state, 0) for state in dag.layer(0))
    generator = make_rng(7)
    for _ in range(SAMPLES):
        seed_sample(dag, back, generator)
    return count, time.perf_counter() - started


def kernel_count_and_sample(nfa) -> tuple[int, float]:
    started = time.perf_counter()
    kernel = compile_nfa(nfa, N, trimmed=True)
    count = kernel.total_runs
    generator = make_rng(7)
    for _ in range(SAMPLES):
        kernel.sample_word(generator)
    return count, time.perf_counter() - started


def _best_of(runs: int, workload, *args):
    result = None
    best = float("inf")
    for _ in range(runs):
        result, seconds = workload(*args)
        best = min(best, seconds)
    return result, best


def test_count_sample_kernel_beats_seed_dict_path(observe):
    nfa = _instance()
    seed_count, seed_seconds = _best_of(3, seed_count_and_sample, nfa)
    kernel_count, kernel_seconds = _best_of(3, kernel_count_and_sample, nfa)
    assert kernel_count == seed_count
    speedup = seed_seconds / kernel_seconds
    observe(
        "K1a",
        f"m={M} n={N} count+{SAMPLES} samples: seed={seed_seconds:.3f}s "
        f"kernel={kernel_seconds:.3f}s speedup={speedup:.2f}x",
    )
    assert kernel_seconds < seed_seconds, (
        f"kernel path ({kernel_seconds:.3f}s) must beat the seed dict path "
        f"({seed_seconds:.3f}s)"
    )


def test_sample_batch_beats_single_draws(observe):
    sampler = ExactUniformSampler(_instance(), N, check=False)
    sampler.sample_batch(8, make_rng(0))  # warm up the walk

    generator = make_rng(11)
    started = time.perf_counter()
    singles = [sampler.sample(generator) for _ in range(BATCH)]
    single_seconds = time.perf_counter() - started

    generator = make_rng(11)
    started = time.perf_counter()
    batch = sampler.sample_batch(BATCH, generator)
    batch_seconds = time.perf_counter() - started

    assert len(batch) == len(singles) == BATCH
    assert len(batch[0]) == N
    speedup = single_seconds / batch_seconds
    observe(
        "K1b",
        f"{BATCH} draws at n={N}: singles={single_seconds:.3f}s "
        f"batch={batch_seconds:.3f}s speedup={speedup:.2f}x",
    )
    assert batch_seconds < single_seconds, (
        f"sample_batch ({batch_seconds:.3f}s) must beat {BATCH} single draws "
        f"({single_seconds:.3f}s)"
    )


# ----------------------------------------------------------------------
# K1d — the NumPy backend vs the pure path (ISSUE-8 acceptance gate)
# ----------------------------------------------------------------------

# A "trapdoor" rolling-hash DFA sized so the count-table sweeps carry
# real vector width (~3000-state layers, out-degree 512, ~10.5M DAG
# edges) while the witness count stays packed (32 live symbols per
# state → 32^9 ≈ 2^46 words, far below the int64 spill point).  The
# dead mirror keeps every layer's CSR block full without inflating the
# count: 480 of the 512 edges per live state carry weight 0.
ACCEL_N = 9          # witness length (layers)
ACCEL_M = 1543       # rolling-hash modulus (prime)
ACCEL_SYMS = 512     # alphabet size = out-degree of every state
ACCEL_LIVE = 32      # live (non-trapdoor) symbols per state
ACCEL_MULT = 769     # mixing multiplier (fills layers within 2 steps)
ACCEL_MIN_SPEEDUP = 10.0


def _trapdoor_dfa() -> NFA:
    """Complete DFA: states are (hash, alive); dead states never accept."""
    transitions = []
    for c in range(ACCEL_M):
        alive, dead = c * 2 + 1, c * 2
        for i in range(ACCEL_SYMS):
            target = (ACCEL_MULT * c + i) % ACCEL_M
            transitions.append((dead, i, target * 2))
            trapdoor = (c + i) % (ACCEL_SYMS // ACCEL_LIVE) != 3
            transitions.append((alive, i, target * 2 if trapdoor else target * 2 + 1))
    return NFA(
        states=set(range(2 * ACCEL_M)),
        alphabet=set(range(ACCEL_SYMS)),
        transitions=set(transitions),
        initial=1,
        finals=set(range(1, 2 * ACCEL_M, 2)),
    )


def _reset_kernel_caches(kernel) -> None:
    """Drop every derived table so the next workload is a cold build."""
    kernel._forward = None
    kernel._backward = None
    kernel._redge.clear()
    kernel._accel_state.clear()


def _count_and_burst(kernel) -> tuple:
    started = time.perf_counter()
    count = kernel.total_runs          # cold backward count-table build
    words = kernel.sample_batch(BATCH, make_rng(7))
    return (count, words), time.perf_counter() - started


def test_numpy_backend_speedup_over_pure(observe):
    """K1d: ≥ 10x on count + burst, samples byte-identical (gated)."""
    if accel.resolve("numpy") is None:
        pytest.skip("NumPy backend unavailable (pure-only environment)")
    kernel = compile_nfa(_trapdoor_dfa(), ACCEL_N, trimmed=False)
    results = {}
    seconds = {}
    for backend in ("pure", "numpy", "pure", "numpy"):
        kernel.set_kernel_backend(backend)
        _reset_kernel_caches(kernel)
        result, elapsed = _count_and_burst(kernel)
        results[backend] = result
        seconds[backend] = min(seconds.get(backend, float("inf")), elapsed)
    assert results["pure"][0] == results["numpy"][0] == 32**ACCEL_N
    assert results["pure"][1] == results["numpy"][1], (
        "seeded samples must be byte-identical between backends"
    )
    speedup = seconds["pure"] / seconds["numpy"]
    observe(
        "K1d",
        f"states/layer={2 * ACCEL_M} degree={ACCEL_SYMS} n={ACCEL_N} "
        f"count+{BATCH}-burst: pure={seconds['pure']:.3f}s "
        f"numpy={seconds['numpy']:.3f}s speedup={speedup:.2f}x",
    )
    assert speedup >= ACCEL_MIN_SPEEDUP, (
        f"NumPy backend speedup {speedup:.2f}x below the "
        f"{ACCEL_MIN_SPEEDUP:.0f}x acceptance gate"
    )


def test_kernel_agrees_across_reductions(observe):
    """K1c: identical exact counts through the registry on the app matrix."""
    from repro.grammars import CNFGrammar
    from repro.graphdb.graph import grid_graph

    cases = {
        "dnf": WitnessSet.from_dnf("x0 & !x2 | x1 & x3"),
        "rpq": WitnessSet.from_rpq(grid_graph(3, 3), "(r|d)*", (0, 0), (2, 2), 4),
        "cfg": WitnessSet.from_cfg(
            CNFGrammar(
                ["S", "A", "B", "T"],
                ["a", "b"],
                [("S", ("A", "T")), ("T", ("S", "B")), ("S", ("A", "B")),
                 ("A", ("a",)), ("B", ("b",))],
                "S",
            ),
            8,
        ),
    }
    for source, ws in cases.items():
        exact = ws.count(backend="exact")
        naive = ws.count(backend="naive")
        assert exact == naive, source
        observe("K1c", f"{source}: exact={exact} naive={naive} (agree)")
