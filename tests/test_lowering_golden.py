"""Golden lowering outputs: the snapshot bytes of unrolled kernels.

Every route that builds an unrolled DAG — concrete NFAs, ε-NFAs, plan
products, RPQs, spanners, spectra past ``n`` — must keep producing the
same kernels.  This module pins the SHA-256 of the snapshot bytes
(:func:`~repro.service.snapshot.kernel_to_bytes`) for the trimmed kernel
(with its backward table) and the reachable kernel (with its forward
table) of each instance, the first words each instance enumerates, the
words of the polynomial-delay enumerator and the answers of the
existence test.  A change to layer contents, state order, edge order,
count rows or lowering stats shows up as a digest mismatch, and a kernel
restored from its snapshot, by copy or over an mmap, must re-encode to
the same digest.
Everything runs under the pure backend and, when NumPy is importable,
under the NumPy backend: snapshot bytes do not depend on the backend.
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
from repro.service.snapshot import kernel_from_bytes, kernel_from_mmap, kernel_to_bytes
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


def _kernels(ws: WitnessSet):
    """The trimmed kernel with its backward table and the reachable
    kernel with its forward table."""
    kernel = ws.kernel
    kernel.backward_counts()
    reachable = ws.reachable_kernel
    reachable.forward_counts()
    return kernel, reachable


#: name → snapshot digests of (trimmed kernel + backward table,
#: reachable kernel + forward table).
KERNEL_DIGESTS_V3 = {
    "k1": (
        "deb99577733b7ba2dc15acc0284d077da1415974ea4bbed0589794d36b81f4da",
        "4d9aab8d0a1d604eb31d0ebc5ffa026dbfc57a090b1875998c46477df6c1d550",
    ),
    "spill": (
        "a41b8bc02ab78da92dd21f493eae98a0cc582dab4b8f0c4efbbd826264a26738",
        "845b761268d8fe36a481389577f43c741df2556ab671b0b3872f13dd8ec46e4e",
    ),
    "epsilon": (
        "6babb711aba5308d232345eb32f8167df609bec3cf674f74ea33b94fc59c6f47",
        "04cd173df9080a0d2c555deac17854c87e52566975ec0aca5fc4a39780cb1bc3",
    ),
    "intersection": (
        "bf52b9c8587ef0e664133765df8f9f56bb2ad1ad97c34732351ef4751429d051",
        "8736f1b587492b95dc73667c14d604a3648cf0aee778021340a2c752b987ca2a",
    ),
    "rpq": (
        "614cba73ffb9ee6928c048adcdef514ee9d1a05a76c444a21ee4451a3a72abdb",
        "a92e7c406a30980bab89aebae9ecf854c88476fb7444c28a69b39f0282a07f8a",
    ),
    "spanner": (
        "03543bd3d8ed44451f0176fdd4581581af624e249542c63c94dc4c8f9535d461",
        "887112cc114a18b3e05afcee7488bb29b78ae1e7af77030133a58a1504e7797c",
    ),
}

#: name → snapshot digest of the reachable kernel + forward table that
#: ``spectrum(2n)`` reads on the unambiguous route: a kernel lowered at
#: ``2n``.
EXTENDED_DIGESTS = {
    "spill": "c9953c9043c9d468a77a2c4bc18cc23e2bae58a4180703613400b50f07da4688",
    "rpq": "e2c0f7248b5a2774a76d3b24bef49c5c7b1ea45ef03e6d90fe7a4fea7f933f37",
}


def test_kernel_snapshots_match_golden(backend):
    for name, ws in _instances(backend).items():
        assert (
            tuple(_digest(kernel.to_bytes()) for kernel in _kernels(ws))
            == KERNEL_DIGESTS_V3[name]
        ), name


def test_v3_snapshots_restore_the_golden_kernels(backend, tmp_path):
    """A kernel restored from its snapshot, by copy or over an mmap,
    re-encodes to the golden digest."""
    for name, ws in _instances(backend).items():
        for kernel, expected in zip(_kernels(ws), KERNEL_DIGESTS_V3[name]):
            path = tmp_path / f"{name}-{kernel.trimmed}.kern"
            path.write_bytes(kernel.to_bytes())
            for restored in (kernel_from_bytes(path.read_bytes()), kernel_from_mmap(path)):
                assert _digest(kernel_to_bytes(restored)) == expected, name


def test_extended_kernels_match_golden(backend):
    instances = _instances(backend)
    for name, expected in EXTENDED_DIGESTS.items():
        ws = instances[name]
        reachable = ws._load_or_build_kernel(trimmed=False, n=2 * ws.n)
        counts = reachable.spectrum_counts()
        assert ws.spectrum(2 * ws.n) == dict(enumerate(counts)), name
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


#: name → SHA-256 of ``repr(list(ws.words(limit=1000)))``: Algorithm 1's
#: order on the unambiguous instances, the flashlight's on the others.
WORD_DIGESTS = {
    "k1": "98a94cddbe81b6ddbe3220d434543079fce9655c12a9575dd568718e2c7e4d27",
    "spill": "21f3e305f1f3efe931686b978ebefb0a2f698a4faa80e83607bdbf979b0798a7",
    "epsilon": "72ef92f7fe1ee870671e68ac6675009a7e2bd042a8cf8bdfbbede922ca75c55f",
    "intersection": "123988cb2abdaa3c07ca79289db1bdd685d0e149d1788d207afd950588ab1a8c",
    "rpq": "349068d8fb25b9135a95cb842f17fe8e4950442fbcd85da78a9efce5ccef017a",
    "spanner": "300543ff2f98f535d53c6e8fa28718989711ebeed348a6e7a86750a6269295fb",
}


def test_constant_delay_enumeration_matches_golden(backend):
    for name, ws in _instances(backend).items():
        words = list(ws.words(limit=1000))
        assert _digest(repr(words).encode()) == WORD_DIGESTS[name], name


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
