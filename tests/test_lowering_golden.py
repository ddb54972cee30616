"""Golden lowering outputs: the snapshot bytes of unrolled kernels.

Every route that builds an unrolled DAG — concrete NFAs, ε-NFAs, plan
products, RPQs, spanners, incremental extension — must keep producing
the same kernels.  This module pins the SHA-256 of
:meth:`~repro.core.kernel.CompiledDAG.to_bytes` for the trimmed kernel
(with its backward table) and the reachable kernel (with its forward
table) of each instance, plus the words of the polynomial-delay
enumerator and the answers of the existence test.  A change to layer
contents, state order, edge order, count rows or lowering stats shows up
as a digest mismatch.  Everything runs under the pure backend and, when
NumPy is importable, under the NumPy backend: snapshot bytes do not
depend on the backend.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import WitnessSet
from repro.automata.random_gen import random_nfa, random_ufa
from repro.automata.regex import parse, thompson
from repro.core import accel
from repro.core.enumeration import enumerate_words_nfa
from repro.core.unroll import accepted_word_exists
from repro.graphdb.graph import grid_graph
from repro.spanners.eva import extraction_eva

BACKENDS = [
    "pure",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            accel.resolve("numpy") is None, reason="NumPy not importable"
        ),
    ),
]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch) -> str:
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)
    return request.param


def _instances(backend: str) -> dict[str, WitnessSet]:
    options = {"store": False, "kernel_backend": backend}
    return {
        # The K1 bench instance: a 200-state UFA unrolled 100 times.
        "k1": WitnessSet(
            random_ufa(200, rng=20190621, completeness=0.95, ensure_nonempty_length=100),
            100,
            **options,
        ),
        # 6^32 words: the count rows spill past int64.
        "spill": WitnessSet.from_regex("((a|b)(a|b|c))*", 64, alphabet="abc", **options),
        "epsilon": WitnessSet(
            thompson(parse("(a|b)*a(b|c)?(ab)*"), "abc"), 9, **options
        ),
        "intersection": WitnessSet.from_intersection(
            "(ab|ba)*", "(a|b)*aa(a|b)*", 10, **options
        ),
        "rpq": WitnessSet.from_rpq(
            grid_graph(4, 4), "(r|d)*", (0, 0), (3, 3), 6, **options
        ),
        "spanner": WitnessSet.from_spanner(
            extraction_eva("ab", "V", content_symbols="cd", alphabet="abcd"),
            "cabdcabcc",
            **options,
        ),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: name → (trimmed kernel + backward table, reachable kernel + forward table).
KERNEL_DIGESTS = {
    "k1": (
        "54769efa9050096b151352889f40415a58362055e3a482583def55e30faf20c4",
        "2638853769a5fd685741e03b7555d8b51f0cef2646d7c587eb062debf5730063",
    ),
    "spill": (
        "ed2c3f113f732d97095498d2eeae4e101fe1f2b817b2278f1a92e88ac4785dd3",
        "838f64c6bb3628a322dfff3f2c42180c5d1197fc455d08aeb8ff4362dd5e587c",
    ),
    "epsilon": (
        "81132c46dae7f1824285c3cc7c23f11118b796499de24306c06e6ed9b3b61923",
        "a137513a865ec56dedec8beba5010e7847d9fbf2a824f0ab64473e873b5c2856",
    ),
    "intersection": (
        "a2ad391fc3458bef65816a8d24109a3d444db3884b5b10eb623ccc90cdc10395",
        "887cea07e41cccb76b781f32466185d38f5b0fb1c23dfe3e2da3521b8f08df57",
    ),
    "rpq": (
        "a7c5ed3004bd8cd8b63335c553abfddd946ea7995c2e3947192f5282f1f045d1",
        "fd9bcef5b78da1e738cebeaccdaa0384b944d282880642554d45c05559829eb0",
    ),
    "spanner": (
        "9d56781d335cd2d35fc1ecc3c82a0d4b179ea2b62371144a9753e2d39440a41d",
        "0c932501e3e489c96a43f7e41d6b9b0f4e14bd831798452aab4a8ff506d9467b",
    ),
}

#: name → reachable kernel + forward table after ``spectrum(2n)`` (the
#: unambiguous route, which extends the kernel in place).
EXTENDED_DIGESTS = {
    "spill": "3df4931ecdddf810cd18e675488afe496dd79f498f91a469409cee8c7a4257be",
    "rpq": "4f77f46a1dc01ee921e7e59c08cac2fb75ec0b0a33c2eaf959e7393347771c38",
}


def test_kernel_snapshots_match_golden(backend):
    for name, ws in _instances(backend).items():
        kernel = ws.kernel
        kernel.backward_counts()
        reachable = ws.reachable_kernel
        reachable.forward_counts()
        assert (
            _digest(kernel.to_bytes()),
            _digest(reachable.to_bytes()),
        ) == KERNEL_DIGESTS[name], name


def test_extended_kernels_match_golden(backend):
    instances = _instances(backend)
    for name, expected in EXTENDED_DIGESTS.items():
        ws = instances[name]
        ws.spectrum(2 * ws.n)
        reachable = ws.reachable_kernel
        assert reachable.n == 2 * ws.n
        assert _digest(reachable.to_bytes()) == expected, name


def test_polynomial_delay_enumeration_matches_golden(backend):
    # An ambiguous NFA: the flashlight search walks word prefixes.
    nfa = random_nfa(6, rng=20190621, density=1.8)
    words = list(enumerate_words_nfa(nfa, 6))
    assert len(words) == len(set(words)) == 64
    assert (
        _digest(repr(words).encode())
        == "655e19a014e38988ab9914db36af7a126b3c955e0cc606aa1fae7bfb2dc3f0b9"
    )


def test_existence_matches_golden(backend):
    answers = [
        [accepted_word_exists(random_nfa(5, rng=seed, density=0.7), n) for n in range(7)]
        for seed in range(8)
    ]
    assert answers == [
        [bool(v) for v in row]
        for row in [
            [0, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0],
            [1, 1, 1, 1, 1, 1, 1],
            [0, 0, 1, 0, 1, 1, 1],
            [1, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 1, 1, 1, 1],
            [1, 0, 1, 1, 1, 1, 1],
        ]
    ]
