"""Unit + statistical tests for the #NFA FPRAS (Algorithm 5, Theorem 22)."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random

import pytest

from repro import obs
from repro.automata.nfa import NFA
from repro.automata.random_gen import (
    ambiguity_blowup,
    contains_pattern_nfa,
    random_nfa,
)
from repro.core.almost_uniform import AlmostUniformGenerator
from repro.core.exact import count_words_exact
from repro.core.fpras import FprasParameters, FprasState, approx_count_nfa
from repro.core.plvug import LasVegasUniformGenerator
from repro.obs import names as metric_names
from repro.papers.constants import PaperConstants

FAST = FprasParameters(sample_size=48)


class TestParameters:
    def test_default_k_scales(self):
        params = FprasParameters()
        assert params.resolve_k(10, 10, 0.5) >= params.min_sample_size
        assert params.resolve_k(100, 100, 0.01) == params.max_sample_size

    def test_explicit_k_wins(self):
        assert FprasParameters(sample_size=7).resolve_k(100, 100, 0.1) == 7

    def test_paper_faithful_matches_constants(self):
        paper = FprasParameters.paper_faithful()
        constants = PaperConstants()
        n, m, delta = 3, 2, 0.5
        assert paper.resolve_k(n, m, delta) == constants.sample_size(n, m, delta)

    def test_paper_k_is_astronomical(self):
        # (nm/δ)^64 for a toy instance exceeds the number of atoms in the
        # observable universe — the documented reason 'practical' exists.
        assert PaperConstants().sample_size(4, 4, 0.1) > 10**80

    def test_retry_budget_default(self):
        assert FprasParameters().resolve_retries() >= 64

    def test_delta_validation(self, even_zeros_dfa):
        with pytest.raises(ValueError):
            FprasState(even_zeros_dfa, 3, delta=0.0)
        with pytest.raises(ValueError):
            FprasState(even_zeros_dfa, 3, delta=1.5)

    def test_negative_length(self, even_zeros_dfa):
        with pytest.raises(ValueError):
            FprasState(even_zeros_dfa, -1)


class TestExhaustiveRegime:
    def test_small_n_is_exact(self, endswith_one_nfa):
        state = FprasState(endswith_one_nfa, 5, delta=0.3, rng=0, params=FAST)
        assert state.diagnostics.used_exhaustive
        assert state.is_exact()
        assert state.count_estimate == 2**5 - 1

    def test_empty_language(self):
        state = FprasState(NFA.empty_language("01"), 5, delta=0.3, rng=0, params=FAST)
        assert state.count_estimate == 0.0

    def test_zero_length(self, even_zeros_dfa):
        state = FprasState(even_zeros_dfa, 0, delta=0.3, rng=0, params=FAST)
        assert state.count_estimate == 1.0


class TestExactlyHandledRegime:
    def test_thin_language_exact_via_sketches(self):
        # A single-word language at any length: every vertex has |U| = 1,
        # so the whole computation stays exactly handled.
        nfa = NFA.single_word(tuple("01" * 8), alphabet="01").without_epsilon()
        state = FprasState(nfa, 16, delta=0.3, rng=0, params=FAST)
        assert state.count_estimate == 1.0
        assert state.is_exact()
        assert state.diagnostics.sketched == 0


class TestApproximation:
    @pytest.mark.parametrize("depth", [7, 8])
    def test_blowup_family(self, depth):
        nfa = ambiguity_blowup(depth)
        n = 2 * depth
        exact = count_words_exact(nfa, n)
        estimate = approx_count_nfa(nfa, n, delta=0.3, rng=11, params=FAST)
        assert abs(estimate - exact) <= 0.35 * exact

    def test_pattern_family(self):
        nfa = contains_pattern_nfa("101")
        exact = count_words_exact(nfa, 13)
        estimate = approx_count_nfa(nfa, 13, delta=0.3, rng=5, params=FAST)
        assert abs(estimate - exact) <= 0.35 * exact

    def test_success_probability(self):
        """The FPRAS contract: ≥ 3/4 of runs land within δ.

        We run a seed battery on one instance and require at least the
        contract fraction (with slack for the finite battery).
        """
        nfa = ambiguity_blowup(6)
        n = 12
        exact = count_words_exact(nfa, n)
        delta = 0.3
        hits = 0
        runs = 12
        for seed in range(runs):
            estimate = approx_count_nfa(nfa, n, delta=delta, rng=seed, params=FAST)
            if abs(estimate - exact) <= delta * exact:
                hits += 1
        assert hits / runs >= 0.75

    def test_deterministic_given_seed(self):
        nfa = contains_pattern_nfa("11")
        a = approx_count_nfa(nfa, 12, delta=0.3, rng=42, params=FAST)
        b = approx_count_nfa(nfa, 12, delta=0.3, rng=42, params=FAST)
        assert a == b

    def test_random_nfas_reasonable(self, rng):
        for seed in (1, 2):
            nfa = random_nfa(8, density=1.8, rng=seed, ensure_nonempty_length=10)
            exact = count_words_exact(nfa, 10)
            estimate = approx_count_nfa(nfa, 10, delta=0.3, rng=rng, params=FAST)
            assert abs(estimate - exact) <= 0.5 * exact  # generous: small k


class TestSampling:
    def test_witnesses_only(self):
        nfa = ambiguity_blowup(7)
        n = 14
        state = FprasState(nfa, n, delta=0.3, rng=3, params=FAST)
        stripped = nfa.without_epsilon()
        drawn = 0
        for _ in range(400):
            w = state.sample_witness()
            if w is not None:
                assert stripped.accepts(w)
                drawn += 1
        assert drawn > 0

    def test_exact_regime_sampling(self, endswith_one_nfa, rng):
        state = FprasState(endswith_one_nfa, 4, delta=0.3, rng=rng, params=FAST)
        support = set()
        for _ in range(100):
            w = state.sample_witness(rng)
            assert w is not None  # exact regime never rejects
            support.add(w)
        assert support <= {w for w in support if endswith_one_nfa.accepts(w)}


class TestDiagnostics:
    def test_counters_populated(self):
        nfa = ambiguity_blowup(7)
        state = FprasState(nfa, 14, delta=0.3, rng=0, params=FAST)
        d = state.diagnostics
        assert d.k == 48
        assert d.sketched > 0
        assert d.sample_draws >= d.sketched * d.k
        assert d.layers == 14

    def test_one_estimate_moves_obs_counters_by_its_diagnostics(self, monkeypatch):
        monkeypatch.setattr("repro.obs.registry._enabled", True)
        fields = {
            metric_names.FPRAS_WALKS: "sample_draws",
            metric_names.FPRAS_REJECTIONS: "sample_rejections",
            metric_names.FPRAS_WALK_FAILURES: "sample_walk_failures",
            metric_names.FPRAS_REACH_CACHE_MISSES: "reach_cache_misses",
        }
        before = {name: obs.metrics().counter(name).as_value() for name in fields}
        state = FprasState(ambiguity_blowup(7), 14, delta=0.3, rng=0, params=FAST)
        assert state.diagnostics.sample_rejections > 0
        for name, field in fields.items():
            moved = obs.metrics().counter(name).as_value() - before[name]
            assert moved == getattr(state.diagnostics, field), name


# ----------------------------------------------------------------------
# Golden seeded identity: fixed seeds pin every estimate, sketch and draw
# ----------------------------------------------------------------------
#
# The values below are literal outputs for fixed seeds.  Any change to
# the walk, the W̃ estimator or the order in which the RNG is consumed
# shows up here, even one that moves both kernel backends together.
# Every instance is over {0, 1}: with two symbols the builtin ``sum`` of
# the W̃ is one rounding on every Python version (3.12's compensated
# ``sum`` agrees), so the values hold on 3.10-3.12.

GOLDEN_PARAMS = FprasParameters(sample_size=16)
GOLDEN_SEED = 11
GOLDEN_INSTANCES = {
    "random-m10": (
        lambda: random_nfa(10, density=1.8, rng=3, ensure_nonempty_length=12),
        12,
    ),
    "contains-101": (lambda: contains_pattern_nfa("101"), 14),
    "blowup-7": (lambda: ambiguity_blowup(7), 14),
}

#: Per instance: ``witnesses`` holds "attempts:word" of the first witness
#: ``sample_witness`` returns from each ``random.Random(s)``, s = 0..49;
#: ``almost_uniform`` is ``AlmostUniformGenerator.sample_many(50)`` and
#: ``las_vegas`` is ``LasVegasUniformGenerator.sample_many(20)``.
GOLDEN = {
    "random-m10": {
        "estimate": 3125.780204772949,
        "spectrum": [
            0.0, 0.0, 2.0, 6.0, 12.0, 24.0, 49.6875, 94.4296875, 186.48828125,
            359.9296875, 722.82763671875, 1622.7723922729492, 3125.780204772949,
        ],
        "diagnostics": {
            "k": 16,
            "exactly_handled": 30,
            "sketched": 66,
            "sample_draws": 53676,
            "sample_rejections": 52620,
            "sample_walk_failures": 0,
            "reach_cache_misses": 934,
            "used_exhaustive": False,
            "layers": 12,
        },
        "sketches": "4578d5b6daf11f0d",
        "witnesses": (
            "31:111101011101 76:011011001101 103:010101110111 "
            "18:111101100101 123:111001011100 41:011110001010 "
            "237:001110101011 33:001000001011 5:001110110011 "
            "25:111000001011 24:111101100100 123:010001110100 "
            "7:110010101100 13:011010101100 62:001010011101 "
            "33:111100001000 89:011011110111 39:111000000001 "
            "33:001011100001 60:110100010010 107:010000110111 "
            "193:000110001100 75:111110011101 26:001000101101 "
            "46:010011110001 110:110100000001 10:000000001111 "
            "34:111100101101 123:111100101011 132:001101101110 "
            "38:010111111011 75:001011100000 25:000010001000 "
            "3:000011001001 21:010001111111 35:010101111010 "
            "12:111011110000 48:000100001001 60:001001000111 "
            "13:000101011000 166:110011001101 145:000101101100 "
            "79:000100101001 10:010011111110 13:010110101111 "
            "46:110011111010 63:011010101011 32:000100000011 "
            "24:110101101101 117:000001100010"
        ),
        "almost_uniform": (
            "110100100011 010000100110 110011111011 010001010110 "
            "001011001111 011110000001 010000010101 111011110101 "
            "001101111010 000111111000 111011100100 010101011010 "
            "110000010001 001100110000 111000101100 011111101001 "
            "110011110011 011001011111 000111001111 110110101111 "
            "111100000010 001110011110 110110010101 011101011010 "
            "001000101100 001011100110 110011101111 010111111010 "
            "001000100111 001110101101 011101101000 010100000110 "
            "010000100010 110011011001 000001001000 011100111000 "
            "010000011001 110011000011 110000000000 111111110000 "
            "010011000000 000111010011 011110101101 111000010100 "
            "011001001110 001000011101 001110100100 111011101110 "
            "001000010001 010001111001"
        ),
        "las_vegas": (
            "111100010110 000100101000 001001000000 010100010100 "
            "001111101101 011001101001 010000100011 010010100010 "
            "111110011100 111111101101 000000111011 010100110011 "
            "110010101111 010000000011 111111000000 110001110011 "
            "110010111100 011110111110 010110101100 010011001001"
        ),
    },
    "contains-101": {
        "estimate": 12214.985055997968,
        "spectrum": [
            0.0, 0.0, 0.0, 1.0, 4.0, 11.0, 27.0, 58.1875, 119.28125,
            280.197265625, 635.8575439453125, 1368.7507019042969,
            2821.766809463501, 5609.371065378189, 12214.985055997968,
        ],
        "diagnostics": {
            "k": 16,
            "exactly_handled": 18,
            "sketched": 36,
            "sample_draws": 30982,
            "sample_rejections": 30406,
            "sample_walk_failures": 0,
            "reach_cache_misses": 720,
            "used_exhaustive": False,
            "layers": 14,
        },
        "sketches": "ad8440b0c63e5bf5",
        "witnesses": (
            "25:01010011111000 12:00110101100101 128:00111110111001 "
            "56:00111010001100 12:10011110011010 169:00010101011010 "
            "27:01111110100111 83:11000101011010 78:11101010010000 "
            "53:01101000010000 5:01011100001000 57:11100010110000 "
            "72:10111111101111 70:10100011101011 74:00010000101101 "
            "7:11110111101000 19:01010101001110 29:00110010001011 "
            "12:10110011110110 5:11101100100100 28:11111100010110 "
            "214:01011110100101 10:10001001101000 75:10100011001010 "
            "23:11000001101101 9:10010010001101 57:11011011101101 "
            "77:00001011101100 36:01111101110011 131:10110110101010 "
            "12:10011010010010 61:10110001011001 44:10110011001011 "
            "6:01101101100100 142:10011101111000 14:10001110101000 "
            "5:00101100010101 40:01000100001101 11:01011100000010 "
            "33:10110111010001 222:11000010110010 19:10111111001111 "
            "18:11011001110001 5:00101010001101 10:00011011001110 "
            "3:10110111111110 4:01001011101000 68:10001101000110 "
            "140:01001010100010 37:00101001010111"
        ),
        "almost_uniform": (
            "11110101011000 10100001010001 10110101010101 11000111101010 "
            "00110010110011 11111110111011 10101010101000 10001000001101 "
            "10000001110101 11010001110111 11011101111000 11011001010111 "
            "00110010001010 01010101101110 00010001010010 11011100000011 "
            "10111110101001 10001111011010 11011011010011 11101000000111 "
            "00101111001101 10100001000110 10100111110111 01000101111110 "
            "01010101110010 11010100011101 10100000000101 00011001110101 "
            "11100101101101 10101100110011 11110101011101 11111001101000 "
            "11001100010101 00011101101010 11000110011010 11011111001110 "
            "10111100010101 11011001010111 00110110100011 01011010011001 "
            "01010001011110 00110010100110 01111101010001 10101110111010 "
            "10100101101100 10111000000010 00110100001000 10111001100001 "
            "11000010011011 10011010010000"
        ),
        "las_vegas": (
            "10100010111111 11001101111110 11011111100010 10011101001010 "
            "11111011110011 01000010011101 10100011101001 10111111110101 "
            "11100000001101 11010001100101 01111101011000 10101001011111 "
            "11010110010010 11001011000100 01100000110111 01000101001111 "
            "00101000000101 00111011001010 11101110000100 11000101100011"
        ),
    },
    "blowup-7": {
        "estimate": 128.0,
        "spectrum": [
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 128.0,
        ],
        "diagnostics": {
            "k": 16,
            "exactly_handled": 20,
            "sketched": 9,
            "sample_draws": 7379,
            "sample_rejections": 7235,
            "sample_walk_failures": 0,
            "reach_cache_misses": 222,
            "used_exhaustive": False,
            "layers": 14,
        },
        "sketches": "01ee5e0c2ce1da2e",
        "witnesses": (
            "25:00000010101000 12:00100000100000 128:00101010101000 "
            "56:00101010001000 12:10001010001010 169:00000000000010 "
            "27:00101010100010 83:10000000001010 78:10100010000000 "
            "57:00001010101000 5:00001000001000 57:10100010100000 "
            "72:10101010101010 70:10100010101010 74:00000000101000 "
            "7:10100010001000 19:00000000001010 29:00100010001010 "
            "12:10100010101010 5:10001000100000 28:10101000000010 "
            "214:00001010100000 10:10001000101000 75:10100010001010 "
            "23:10000000101000 9:10000010001000 57:10001010101010 "
            "77:00001010001000 36:00101000100010 131:10100010101010 "
            "12:10001010000010 61:10100000001000 44:10100010001010 "
            "66:10101010100000 142:10001000100000 14:10001010000000 "
            "5:00101000000000 40:00000000001000 11:00101000000010 "
            "33:10100010000000 222:10000010100010 19:10101010001010 "
            "18:10101000100000 5:00101010001000 10:00000010001010 "
            "3:10100010101010 4:00001010101000 169:10001000100010 "
            "140:00001010100010 37:00101000001010"
        ),
        "almost_uniform": (
            "10100010001010 10001000000000 00000010000000 00101000000010 "
            "10100000001000 00000010000010 00101000101010 00100000001010 "
            "00000000000010 00100000101010 00101000001010 00000010000000 "
            "10101000101010 10100010101000 10100010101000 00101000101010 "
            "00100000100000 10101010100010 00001010101010 00101010101000 "
            "00101010000000 00100010100010 00101010101000 10101010000010 "
            "10100000000010 10101010101010 10001000101010 10001000000010 "
            "00100000100010 10001010001010 00101010101000 10101000001000 "
            "00001010101000 10001010001000 00100010101010 10100000000010 "
            "00100010100000 00001010100000 10000000100010 00101010000010 "
            "00000000100000 10000010101000 10001010100000 10100000101010 "
            "00001010101000 10100010001010 10101010000000 10000010000000 "
            "00100000100000 10101010100010"
        ),
        "las_vegas": (
            "00101010100010 00101010000010 10001010100000 00000000000010 "
            "10000000100010 10001000100000 00101010001010 00100010000010 "
            "00100000001010 00001010001010 10001000001010 10101010000000 "
            "10000010000000 00001000101000 10100000100000 10001000100000 "
            "10101010001010 00001010100010 10100010000010 10101010001000"
        ),
    },
}


def _sketch_digest(state: FprasState) -> str:
    """Digest of every vertex's ``(R(s), X(s))``, each sketch as a multiset.

    Exactly handled sketches are ``list(set)`` of string tuples, so their
    order follows ``PYTHONHASHSEED``; sorting makes the digest stable.
    """
    digest = hashlib.sha256()
    for t, layer in enumerate(state._entries):
        for vertex in sorted(layer):
            entry = layer[vertex]
            record = (t, vertex, entry.estimate, entry.exact, sorted(entry.sketch))
            digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


def _first_witness(state: FprasState, generator: random.Random) -> str:
    for attempt in itertools.count(1):
        word = state.sample_witness(generator)
        if word is not None:
            return f"{attempt}:{''.join(word)}"
    raise AssertionError("unreachable")


@pytest.mark.parametrize("backend", ["pure", "numpy"])
@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_golden_seeded_identity(name, backend, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    make, n = GOLDEN_INSTANCES[name]
    golden = GOLDEN[name]
    nfa = make()

    state = FprasState(nfa, n, delta=0.3, rng=GOLDEN_SEED, params=GOLDEN_PARAMS)
    assert state.count_estimate == golden["estimate"]
    assert state.estimate_spectrum() == golden["spectrum"]
    assert dataclasses.asdict(state.diagnostics) == golden["diagnostics"]
    assert _sketch_digest(state) == golden["sketches"]
    witnesses = [_first_witness(state, random.Random(s)) for s in range(50)]
    assert witnesses == golden["witnesses"].split()

    almost = AlmostUniformGenerator(
        nfa, n, delta=0.3, rng=GOLDEN_SEED, params=GOLDEN_PARAMS
    )
    drawn = ["".join(w) for w in almost.sample_many(50)]
    assert drawn == golden["almost_uniform"].split()

    las_vegas = LasVegasUniformGenerator(
        nfa, n, delta=0.3, rng=GOLDEN_SEED, params=GOLDEN_PARAMS
    )
    drawn = ["".join(w) for w in las_vegas.sample_many(20)]
    assert drawn == golden["las_vegas"].split()
