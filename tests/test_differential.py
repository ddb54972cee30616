"""Differential fuzzing: every counting / enumeration / sampling path
must agree on every instance.

The paper gives several independent routes to the same numbers — the
run-count DP, the subset counter, brute-force Σⁿ sweeps, Algorithm 1
enumeration (streamed and paged), the per-length spectrum — plus the
service layer's snapshot/store round-trips, which must be *byte*
faithful.  This suite generates seeded random instances (regexes and
NFAs, including ε-heavy, empty-language, unary and non-ASCII alphabets)
and cross-checks all of them against each other for n = 0..8.

Everything is deterministic (fixed seeds, plain ``random.Random``), so a
failure here is a real cross-path mismatch, never flake.
"""

from __future__ import annotations

import random

import pytest

from repro.api import WitnessSet
from repro.automata import EPSILON, NFA
from repro.automata.random_gen import random_nfa, random_ufa
from repro.service import KernelStore
from repro.service.protocol import render_witness

SEED = 20190621

ALPHABETS = ["ab", "01", "αβ", "a", "abc"]  # incl. non-ASCII and unary

#: Lengths swept per instance (0 is the paper's k = 0 corner case).
LENGTHS = (0, 1, 2, 3, 5, 8)


# ----------------------------------------------------------------------
# Instance generators (all seeded, all deterministic)
# ----------------------------------------------------------------------


def random_regex(rng: random.Random, alphabet: str, depth: int = 3) -> str:
    """A random regex over ``alphabet`` using the library's syntax."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(alphabet)
    shape = rng.random()
    if shape < 0.35:
        return random_regex(rng, alphabet, depth - 1) + random_regex(
            rng, alphabet, depth - 1
        )
    if shape < 0.6:
        return (
            "("
            + random_regex(rng, alphabet, depth - 1)
            + "|"
            + random_regex(rng, alphabet, depth - 1)
            + ")"
        )
    if shape < 0.85:
        return "(" + random_regex(rng, alphabet, depth - 1) + ")*"
    return "(" + random_regex(rng, alphabet, depth - 1) + ")?"


def epsilon_heavy_nfa(rng: random.Random, alphabet: str, states: int = 7) -> NFA:
    """A random NFA where roughly half the transitions are ε-moves."""
    ids = list(range(states))
    transitions = []
    for source in ids:
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(ids)
            if rng.random() < 0.5:
                transitions.append((source, EPSILON, target))
            else:
                transitions.append((source, rng.choice(alphabet), target))
    finals = rng.sample(ids, rng.randint(1, max(1, states // 2)))
    return NFA(ids, list(alphabet), transitions, 0, finals)


def regex_instances() -> list[tuple[str, str, str]]:
    cases = []
    rng = random.Random(SEED)
    for alphabet in ALPHABETS:
        for index in range(8):
            pattern = random_regex(rng, alphabet)
            cases.append((f"re-{alphabet}-{index}", pattern, alphabet))
    return cases


def nfa_instances() -> list[tuple[str, NFA]]:
    cases: list[tuple[str, NFA]] = []
    for index in range(6):
        cases.append(
            (
                f"nfa-ambiguous-{index}",
                random_nfa(6, rng=SEED + index, density=1.8),
            )
        )
        cases.append(
            (
                f"nfa-ufa-{index}",
                random_ufa(8, rng=SEED + index, completeness=0.85),
            )
        )
        cases.append(
            (
                f"nfa-epsilon-{index}",
                epsilon_heavy_nfa(random.Random(SEED + index), "ab"),
            )
        )
    cases.append(
        (
            "nfa-nonascii",
            random_nfa(6, alphabet=("α", "β"), rng=SEED, density=1.6),
        )
    )
    cases.append(
        (
            "nfa-unary",
            random_nfa(5, alphabet=("a",), rng=SEED + 1, density=1.2),
        )
    )
    # Empty language: the only final state is unreachable.
    cases.append(
        (
            "nfa-empty-language",
            NFA([0, 1, 2], "ab", [(0, "a", 0), (0, "b", 0), (1, "a", 2)], 0, [2]),
        )
    )
    # ε-cycle into the final state: witnesses exist at every length.
    cases.append(
        (
            "nfa-epsilon-cycle",
            NFA(
                [0, 1, 2],
                "ab",
                [(0, EPSILON, 1), (1, "a", 2), (2, EPSILON, 0), (2, "b", 2)],
                0,
                [2],
            ),
        )
    )
    return cases


def _witness_sets(case, n, store=False):
    kind = case[0]
    if kind.startswith("re"):
        _, pattern, alphabet = case
        return WitnessSet.from_regex(pattern, n, alphabet=alphabet, store=store)
    return WitnessSet.from_nfa(case[1], n, store=store)


# ----------------------------------------------------------------------
# The differential checks
# ----------------------------------------------------------------------


def _cross_check(ws: WitnessSet) -> int:
    """count() vs naive vs enumeration vs spectrum — all must agree."""
    count = ws.count()
    assert count == ws.count("naive"), "count(exact) != count(naive)"
    enumerated = list(ws.enumerate())
    assert count == len(enumerated), "count != len(list(enumerate()))"
    assert len(set(map(render_witness, enumerated))) == len(enumerated), (
        "enumeration repeated a witness"
    )
    assert count == ws.spectrum(ws.n)[ws.n], "count != spectrum(n)[n]"
    # Paged enumeration must equal the streamed order, at any page size.
    paged: list = []
    cursor = None
    while True:
        page, cursor = ws.enumerate_page(3, cursor)
        paged.extend(page)
        if cursor is None:
            break
    assert list(map(render_witness, paged)) == list(map(render_witness, enumerated)), (
        "paged enumeration diverged from streamed enumeration"
    )
    return count


@pytest.mark.parametrize("case", regex_instances(), ids=lambda c: c[0])
def test_regex_cross_backend(case):
    for n in LENGTHS:
        _cross_check(_witness_sets(case, n))


@pytest.mark.parametrize("case", nfa_instances(), ids=lambda c: c[0])
def test_nfa_cross_backend(case):
    for n in LENGTHS:
        _cross_check(_witness_sets(case, n))


@pytest.mark.parametrize(
    "case", regex_instances()[:8] + nfa_instances()[:8], ids=lambda c: c[0]
)
def test_store_round_trip_is_byte_identical(case, tmp_path):
    """Snapshot/store round-trips: counts and seeded sample streams of a
    store-restored witness set are byte-identical to fresh compilation."""
    store = KernelStore(tmp_path / "kernels")
    for n in (3, 5, 8):
        fresh = _witness_sets(case, n)
        cold = _witness_sets(case, n, store=store)
        assert cold.count() == fresh.count()
        warm = _witness_sets(case, n, store=store)
        assert warm.count() == fresh.count()
        assert warm.spectrum(n) == fresh.spectrum(n)
        if fresh.count():
            draws_fresh = fresh.sample_batch(6, seed=7, use_substreams=True)
            draws_cold = cold.sample_batch(6, seed=7, use_substreams=True)
            draws_warm = warm.sample_batch(6, seed=7, use_substreams=True)
            rendered = [render_witness(w) for w in draws_fresh]
            assert [render_witness(w) for w in draws_cold] == rendered
            assert [render_witness(w) for w in draws_warm] == rendered
            assert list(map(render_witness, warm.enumerate())) == list(
                map(render_witness, fresh.enumerate())
            )


@pytest.mark.parametrize("index", range(12))
def test_intersection_matches_brute_force(index):
    """Lazy-product plans vs the dumbest possible intersection: filter
    one language's brute-force words through the other automaton."""
    from repro.automata.regex import compile_regex
    from repro.baselines.naive import brute_force_words

    rng = random.Random(SEED + index)
    alphabet = rng.choice(["ab", "01", "αβ"])
    left = random_regex(rng, alphabet)
    right = random_regex(rng, alphabet)
    right_nfa = compile_regex(right, alphabet=list(alphabet)).without_epsilon()
    for n in (0, 2, 4, 6):
        ws = WitnessSet.from_intersection(
            compile_regex(left, alphabet=list(alphabet)),
            compile_regex(right, alphabet=list(alphabet)),
            n,
            store=False,
        )
        left_nfa = compile_regex(left, alphabet=list(alphabet)).without_epsilon()
        expected = sorted(
            w for w in brute_force_words(left_nfa, n) if right_nfa.accepts(w)
        )
        assert ws.count() == len(expected), (left, right, n)
        assert ws.count("naive") == len(expected), (left, right, n)
        assert sorted(ws.enumerate()) == expected, (left, right, n)
        # Paged (service) route over the plan-lowered kernel.
        paged: list = []
        cursor = None
        while True:
            page, cursor = ws.enumerate_page(2, cursor)
            paged.extend(page)
            if cursor is None:
                break
        assert sorted(paged) == expected, (left, right, n)


@pytest.mark.parametrize("index", range(6))
def test_dnf_paths_agree(index):
    """DNF witness sets: facade count vs naive vs enumeration."""
    rng = random.Random(SEED + index)
    num_variables = rng.randint(2, 6)
    clauses = []
    for _ in range(rng.randint(1, 4)):
        picked = rng.sample(range(num_variables), rng.randint(1, num_variables))
        clauses.append(
            " & ".join(
                ("!" if rng.random() < 0.5 else "") + f"x{v}" for v in picked
            )
        )
    formula = " | ".join(clauses)
    ws = WitnessSet.from_dnf(formula, store=False)
    brute = sum(
        1
        for bits in range(2**num_variables)
        if any(
            all(
                (bits >> v) & 1 == (0 if literal.startswith("!") else 1)
                for literal in clause.split(" & ")
                for v in [int(literal.lstrip("!").lstrip("x"))]
            )
            for clause in clauses
        )
    )
    assert ws.count() == brute, formula
    assert ws.count("naive") == brute, formula
    assert len(list(ws.enumerate())) == brute, formula


def test_seed_alias_matches_rng():
    """sample(seed=7) and sample(rng=7) draw identical streams."""
    ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 9, alphabet="ab", store=False)
    assert ws.sample(5, rng=7) == ws.sample(5, seed=7)
    assert ws.sample_batch(5, rng=7) == ws.sample_batch(5, seed=7)
    assert ws.sample_batch(5, rng=7, use_substreams=True) == ws.sample_batch(
        5, seed=7, use_substreams=True
    )
    with pytest.raises(ValueError):
        ws.sample(2, rng=7, seed=7)
    with pytest.raises(TypeError):
        ws.sample(2, seed="seven")
