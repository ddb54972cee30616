"""E12 — OBDD / nOBDD evaluation (Corollaries 9–10).

OBDDs: exact model counting and uniform model sampling through the
RelationUL pipeline.  nOBDDs: the ambiguous case through the FPRAS.
"""

from __future__ import annotations

import pytest

from repro.bdd.builders import conj, disj, neg, obdd_from_formula, random_nobdd, var
from repro.bdd.nobdd import EvalNobddRelation
from repro.bdd.obdd import EvalObddRelation
from repro.core.exact import count_words_exact, count_words_ufa
from repro.core.exact_sampler import ExactUniformSampler
from repro.core.fpras import approx_count_nfa
from workloads import BENCH_FPRAS, SEED


def staircase_formula(width: int):
    """(x0 ∧ x1) ∨ (x2 ∧ x3) ∨ … — a formula with a compact OBDD."""
    parts = [conj(var(f"x{2 * i}"), var(f"x{2 * i + 1}")) for i in range(width)]
    return disj(*parts) if len(parts) > 1 else parts[0]


@pytest.mark.parametrize("width", [3, 5, 7])
def test_obdd_model_counting(benchmark, observe, width):
    order = [f"x{i}" for i in range(2 * width)]
    obdd = obdd_from_formula(staircase_formula(width), order)
    relation = EvalObddRelation()
    compiled = relation.compile(obdd)

    def count():
        return count_words_ufa(compiled.nfa, compiled.length, check=False)

    models = benchmark(count)
    # Inclusion–exclusion: 4^w - 3^w models of the staircase.
    expected = 4**width - 3**width
    observe("E12", f"OBDD staircase width={width} vars={2*width} models={models} (expected {expected})")
    assert models == expected


def test_obdd_uniform_model_sampling(benchmark, observe):
    order = [f"x{i}" for i in range(10)]
    obdd = obdd_from_formula(staircase_formula(5), order)
    relation = EvalObddRelation()
    compiled = relation.compile(obdd)
    sampler = ExactUniformSampler(compiled.nfa, compiled.length, check=False)
    benchmark(sampler.sample, 0)
    for seed in range(10):
        model = relation.decode_witness(obdd, sampler.sample(seed))
        assert obdd.evaluate(model) == 1
    observe("E12", "OBDD sampling: 10/10 sampled assignments are models")


@pytest.mark.parametrize("num_vars", [8, 12])
def test_nobdd_fpras(benchmark, observe, num_vars):
    nobdd = random_nobdd(num_vars, branches=4, rng=SEED)
    compiled = EvalNobddRelation().compile(nobdd)
    exact = count_words_exact(compiled.nfa, compiled.length)

    def estimate():
        return approx_count_nfa(
            compiled.nfa, compiled.length, delta=0.3, rng=2, params=BENCH_FPRAS
        )

    value = benchmark.pedantic(estimate, rounds=1, iterations=1)
    observe("E12", f"nOBDD vars={num_vars} exact-models={exact} fpras={value:.1f}")
    if exact:
        assert abs(value - exact) <= 0.4 * exact
