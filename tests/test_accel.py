"""Differential suite for the accelerated kernel backend and the mmap
snapshot tier (ISSUE 8).

The NumPy backend's contract is *bit-identity*: every count, sample,
spectrum and FPRAS estimate must equal the canonical pure-Python path's
output exactly — same values, same container packing, the same ranks
(one ``randrange`` per draw).  These tests run both backends side by
side on the same seeded inputs and compare; when NumPy is not installed
they still run, because ``resolve("numpy")`` then degrades to the pure
path and equality holds trivially (the CI matrix covers both legs).

The mmap tier's contract: a zero-copy restored kernel answers every
query identically to a full-deserialize restore and survives store
eviction of its backing file on POSIX.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.nfa import NFA
from repro.automata.random_gen import random_ufa
from repro.core import accel
from repro.core.fpras import FprasParameters, FprasState
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.errors import UnknownBackendError
from repro.obs.names import KERNEL_BACKEND_SELECTED
from repro.service.snapshot import (
    MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    kernel_from_bytes,
    kernel_from_mmap,
    kernel_to_bytes,
)
from repro.service.store import KernelStore
from repro.utils.rng import make_rng, substreams
from test_trim import automata

LP64 = array("l").itemsize == 8


def ufa(states=40, n=30, seed=7):
    return random_ufa(states, rng=seed, completeness=0.9, ensure_nonempty_length=n)


def spill_nfa():
    """Complete 2-symbol all-accepting DFA: counts reach 2**n (spills)."""
    return NFA(
        states={"s"},
        alphabet={"a", "b"},
        transitions={("s", "a", "s"), ("s", "b", "s")},
        initial="s",
        finals={"s"},
    )


def dead_end_nfa():
    """A layer's last states have no out-edges: the NumPy backward sweep
    once ended the layer's last nonempty block one edge short."""
    return NFA(
        states={0, 1, 2},
        alphabet={"a", "b"},
        transitions={(0, "a", 2), (0, "b", 1), (2, "a", 0), (2, "b", 1)},
        initial=0,
        finals={1},
    )


def both_backends(nfa, n, trimmed):
    pure = compile_nfa(nfa, n, trimmed=trimmed).set_kernel_backend("pure")
    fast = compile_nfa(nfa, n, trimmed=trimmed).set_kernel_backend("numpy")
    return pure, fast


def rows_equal(a, b):
    assert [list(r) for r in a] == [list(r) for r in b]
    # Same packing decision too: accel rows must be array('q') exactly
    # when the pure packer would pack, lists exactly when it spills.
    assert [type(r).__name__ for r in a] == [type(r).__name__ for r in b]


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_resolve_pure_and_unknown():
    assert accel.resolve("pure") is None
    with pytest.raises(UnknownBackendError):
        accel.resolve("cuda")


def test_resolve_env_default(monkeypatch):
    monkeypatch.delenv(accel.BACKEND_ENV, raising=False)
    assert accel.resolve(None) is None  # default is the pure path
    monkeypatch.setenv(accel.BACKEND_ENV, "pure")
    assert accel.resolve(None) is None
    monkeypatch.setenv(accel.BACKEND_ENV, "numpy")
    resolved = accel.resolve(None)
    if accel.numpy_available() and LP64:
        assert resolved is not None and resolved.name == "numpy"
    else:
        assert resolved is None
    monkeypatch.setenv(accel.BACKEND_ENV, "not-a-backend")
    with pytest.raises(UnknownBackendError):
        accel.resolve(None)


def test_resolve_falls_back_without_numpy(monkeypatch):
    # Simulate an interpreter with no numpy: the explicit "numpy" and
    # "auto" selections silently degrade to the pure path.
    monkeypatch.setattr(accel, "_np", None)
    monkeypatch.setattr(accel, "_np_checked", True)
    assert not accel.numpy_available()
    assert accel.resolve("numpy") is None
    assert accel.resolve("auto") is None
    kernel = compile_nfa(ufa(10, n=6), 6).set_kernel_backend("numpy")
    assert kernel.kernel_backend == "pure"
    assert kernel.total_runs == compile_nfa(ufa(10, n=6), 6).total_runs


def test_kernel_backend_property_and_env(monkeypatch):
    monkeypatch.delenv(accel.BACKEND_ENV, raising=False)
    kernel = compile_nfa(ufa(10, n=6), 6)
    assert kernel.kernel_backend == "pure"
    monkeypatch.setenv(accel.BACKEND_ENV, "numpy")
    kernel = compile_nfa(ufa(10, n=6), 6)
    expected = "numpy" if (accel.numpy_available() and LP64) else "pure"
    assert kernel.kernel_backend == expected


# ----------------------------------------------------------------------
# Differential: counts, sampling, spectrum, FPRAS
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trimmed", [True, False])
def test_count_tables_bit_identical(trimmed):
    for nfa, n in ((ufa(), 30), (dead_end_nfa(), 3), (dead_end_nfa(), 5)):
        pure, fast = both_backends(nfa, n, trimmed)
        rows_equal(pure.forward_counts(), fast.forward_counts())
        rows_equal(pure.backward_counts(), fast.backward_counts())
        assert pure.total_runs == fast.total_runs
        if not trimmed:
            assert pure.spectrum_counts() == fast.spectrum_counts()
    assert fast.total_runs == 1  # aaaab, the one word of length 5


@pytest.mark.skipif(accel.resolve("numpy") is None, reason="NumPy backend unavailable")
@settings(max_examples=300, deadline=None)
@given(automata(), st.integers(0, 6), st.booleans(), st.booleans())
def test_count_tables_match_pure_on_dead_ends(nfa, n, trimmed, sink):
    """Pure against NumPy forward and backward tables on automata with
    dead ends.  With ``sink``, every state also steps on ``a`` to a dead
    end that sorts last in its layer, so a reachable layer's last block
    is always empty."""
    source = nfa.without_epsilon()
    if sink:
        source = NFA(
            states=source.states | {99},
            alphabet=source.alphabet,
            transitions=source.transitions | {(s, "a", 99) for s in source.states},
            initial=source.initial,
            finals=source.finals,
        )
    pure, fast = both_backends(source, n, trimmed)
    rows_equal(pure.forward_counts(), fast.forward_counts())
    rows_equal(pure.backward_counts(), fast.backward_counts())


def test_count_tables_spill_identical():
    # Counts reach 2**70: rows spill to bignum lists; the accel path
    # must hand the whole table to the exact pure code and still match.
    pure, fast = both_backends(spill_nfa(), 70, False)
    assert fast.total_runs == 2**70
    rows_equal(pure.backward_counts(), fast.backward_counts())
    rows_equal(pure.forward_counts(), fast.forward_counts())


def test_sample_batch_byte_identical_shared_generator():
    pure, fast = both_backends(ufa(), 30, True)
    assert pure.sample_batch(500, random.Random(42)) == fast.sample_batch(
        500, random.Random(42)
    )
    # The draws consume the shared stream identically (one randrange
    # per draw): the generators end in the same state.
    g1, g2 = random.Random(7), random.Random(7)
    pure.sample_batch(50, g1)
    fast.sample_batch(50, g2)
    assert g1.getstate() == g2.getstate()


def test_sample_batch_byte_identical_substreams():
    pure, fast = both_backends(ufa(), 30, True)
    a = pure.sample_batch(64, substreams(make_rng(9), 64))
    b = fast.sample_batch(64, substreams(make_rng(9), 64))
    assert a == b


def test_sample_batch_spilled_rows_fall_back():
    pure, fast = both_backends(spill_nfa(), 70, True)
    assert pure.sample_batch(20, random.Random(3)) == fast.sample_batch(
        20, random.Random(3)
    )


def test_step_indices_and_predecessor_groups_identical():
    pure, fast = both_backends(ufa(), 30, False)
    for t in (0, 5, 29):
        idx = list(range(pure.layer_size(t)))
        for symbol in pure.symbols:
            assert pure.step_indices(t, idx, symbol) == fast.step_indices(
                t, idx, symbol
            )
        # Tiny index sets exercise the small-workload pure fallback.
        for symbol in pure.symbols:
            assert pure.step_indices(t, idx[:1], symbol) == fast.step_indices(
                t, idx[:1], symbol
            )
    for t in (1, 6, 30):
        idx = list(range(pure.layer_size(t)))
        assert pure.predecessor_groups(t, idx) == fast.predecessor_groups(t, idx)
        assert pure.predecessor_groups(t, idx[:1]) == fast.predecessor_groups(
            t, idx[:1]
        )
    # Iterables (not just lists) must work on the accel path too.
    assert pure.step_indices(5, iter(range(3)), pure.symbols[0]) == fast.step_indices(
        5, iter(range(3)), fast.symbols[0]
    )


def test_spectrum_solver_backend_identical():
    import repro

    nfa = ufa(25, n=20, seed=11)
    pure = repro.WitnessSet(nfa, 20, kernel_backend="pure")
    fast = repro.WitnessSet(nfa, 20, kernel_backend="numpy")
    assert pure.spectrum(20) == fast.spectrum(20)
    # Past n, each backend reads a reachable kernel lowered at 30.
    assert pure.spectrum(30) == fast.spectrum(30)


def test_fpras_estimates_bit_identical():
    nfa = ufa(20, n=12, seed=5)
    params = FprasParameters(sample_size=32)
    estimates = []
    for backend in ("pure", "numpy"):
        kernel = compile_nfa(nfa, 12, trimmed=False).set_kernel_backend(backend)
        state = FprasState(nfa, 12, delta=0.3, rng=123, params=params, kernel=kernel)
        estimates.append(state.count_estimate)
    assert estimates[0] == estimates[1]


def test_witness_set_backend_selection_and_describe():
    import repro

    nfa = ufa(15, n=10, seed=2)
    ws_pure = repro.WitnessSet(nfa, 10, kernel_backend="pure")
    ws_fast = repro.WitnessSet(nfa, 10, kernel_backend="numpy")
    expected = "numpy" if (accel.numpy_available() and LP64) else "pure"
    assert ws_pure.describe()["kernel_backend"] == "pure"
    assert ws_fast.describe()["kernel_backend"] == expected
    assert ws_fast.kernel.kernel_backend == expected
    assert ws_pure.count_exact() == ws_fast.count_exact()
    assert ws_pure.sample(rng=4) == ws_fast.sample(rng=4)
    with pytest.raises(UnknownBackendError):
        repro.WitnessSet(nfa, 10, kernel_backend="tpu")


@pytest.mark.skipif(accel.resolve("numpy") is None, reason="NumPy backend unavailable")
def test_backend_counter_counts_each_kernel_once(monkeypatch, tmp_path):
    """``repro_kernel_backend_total`` counts each kernel once, under the
    backend it runs on: a facade-built kernel, a store-restored kernel
    and an at-most-n set's kernel all settle on NumPy here, while the
    environment default is pure."""
    import repro
    from repro import obs
    from repro.service import KernelStore

    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    nfa = ufa(15, n=10, seed=2)

    def selections() -> dict[str, float]:
        counters = obs.metrics().snapshot()["counters"]
        return {
            backend: counters.get(
                obs.series_key(KERNEL_BACKEND_SELECTED, {"backend": backend}), 0
            )
            for backend in ("pure", "numpy")
        }

    try:
        obs.reset_metrics()
        repro.WitnessSet(nfa, 10, kernel_backend="numpy", store=False).count()
        assert selections() == {"pure": 0, "numpy": 1}

        repro.WitnessSet(nfa, 10, store=KernelStore(tmp_path)).count()
        warm_store = KernelStore(tmp_path)
        obs.reset_metrics()
        repro.WitnessSet(nfa, 10, kernel_backend="numpy", store=warm_store).count()
        assert warm_store.stats.hits == 1
        assert selections() == {"pure": 0, "numpy": 1}

        obs.reset_metrics()
        # The facade lowers lazily: one query builds the kernel.
        repro.WitnessSet.up_to(nfa, 12, kernel_backend="numpy", store=False).count()
        assert selections() == {"pure": 0, "numpy": 1}
    finally:
        obs.set_enabled(was_enabled)
        obs.reset_metrics()


# ----------------------------------------------------------------------
# Snapshot v2 + mmap tier
# ----------------------------------------------------------------------


def built_kernel(n=20, trimmed=False):
    nfa = ufa(30, n=n, seed=3)
    kernel = compile_nfa(nfa, n, trimmed=trimmed)
    kernel.forward_counts()
    kernel.backward_counts()
    return nfa, kernel


def test_snapshot_v2_payload_is_aligned():
    _, kernel = built_kernel()
    data = kernel_to_bytes(kernel)
    assert data[: len(MAGIC)] == MAGIC
    import struct

    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    payload_start = len(MAGIC) + 4 + header_len
    payload_start += (-payload_start) % 8
    assert payload_start % 8 == 0
    assert SNAPSHOT_VERSION == 3


def test_snapshot_v2_roundtrip_and_v1_still_loads():
    _, kernel = built_kernel()
    for version in (1, 2, 3):
        restored = kernel_from_bytes(kernel_to_bytes(kernel, version=version))
        assert restored._borrow_owner is None
        assert [list(r) for r in restored.forward_counts()] == [
            list(r) for r in kernel.forward_counts()
        ]
        assert restored.total_runs == kernel.total_runs
    with pytest.raises(SnapshotError):
        kernel_to_bytes(kernel, version=4)


@pytest.mark.skipif(not LP64, reason="borrow mode requires LP64")
def test_from_mmap_borrows_and_answers_identically(tmp_path):
    nfa, kernel = built_kernel()
    path = tmp_path / "kernel.kern"
    path.write_bytes(kernel_to_bytes(kernel))
    mapped = CompiledDAG.from_mmap(path)
    assert mapped._borrow_owner is not None
    assert isinstance(mapped._edge_start[0], memoryview)
    assert isinstance(mapped.forward_counts()[0], memoryview)
    rows_ok = [list(r) for r in mapped.forward_counts()] == [
        list(r) for r in kernel.forward_counts()
    ]
    assert rows_ok
    assert mapped.total_runs == kernel.total_runs
    assert mapped.sample_batch(30, random.Random(5)) == kernel.sample_batch(
        30, random.Random(5)
    )
    assert mapped.spectrum_counts() == kernel.spectrum_counts()


def test_mmap_v1_snapshot_degrades_to_copy(tmp_path):
    _, kernel = built_kernel()
    path = tmp_path / "legacy.kern"
    path.write_bytes(kernel_to_bytes(kernel, version=1))
    restored = kernel_from_mmap(path)
    assert restored._borrow_owner is None  # copied; the mapping is closed
    assert restored.total_runs == kernel.total_runs


def test_mmap_corrupt_and_empty_files_raise(tmp_path):
    empty = tmp_path / "empty.kern"
    empty.write_bytes(b"")
    with pytest.raises(SnapshotError):
        kernel_from_mmap(empty)
    garbage = tmp_path / "garbage.kern"
    garbage.write_bytes(b"not a snapshot at all")
    with pytest.raises(SnapshotError):
        kernel_from_mmap(garbage)


def test_store_mmap_mode_hits_and_quarantines(tmp_path):
    from repro.service.fingerprint import fingerprint_source

    nfa, kernel = built_kernel()
    fp = fingerprint_source(nfa)
    store = KernelStore(tmp_path, mmap=True)
    assert store.get(fp, kernel.n, False) is None  # miss
    store.put(fp, kernel.n, False, kernel)
    restored = store.get(fp, kernel.n, False)
    assert restored is not None
    assert restored.total_runs == kernel.total_runs
    if LP64:
        assert restored._borrow_owner is not None
        assert store.stats.mmap_hits == 1
    # Corrupt entries are quarantined exactly like the copying path.
    path = store.path_for(fp, kernel.n, False)
    path.write_bytes(b"RPROKRN1garbage")
    assert store.get(fp, kernel.n, False) is None
    assert store.stats.corrupt == 1
    assert not path.exists()


@pytest.mark.skipif(os.name != "posix", reason="unlink-under-mmap is POSIX")
def test_store_eviction_under_live_mmap(tmp_path):
    # A kernel handed out as an mmap view keeps working after the store
    # evicts (unlinks) its backing snapshot — the page cache holds the
    # mapping alive until the last reference drops.
    from repro.service.fingerprint import fingerprint_source

    nfa, kernel = built_kernel()
    fp = fingerprint_source(nfa)
    store = KernelStore(tmp_path, max_bytes=1, mmap=True)  # evict everything
    store.put(fp, kernel.n, False, kernel)
    live = store.get(fp, kernel.n, False)
    if live is None:
        # put() already evicted past the 1-byte budget before any get.
        store.max_bytes = 10**9
        store.put(fp, kernel.n, False, kernel)
        live = store.get(fp, kernel.n, False)
        store.max_bytes = 1
    assert live is not None
    store._evict_over_budget()
    assert store.entries() == []  # the file is gone...
    assert live.total_runs == kernel.total_runs  # ...the kernel is not
    assert live.sample_batch(10, random.Random(1)) == kernel.sample_batch(
        10, random.Random(1)
    )


@pytest.mark.skipif(not LP64, reason="borrow mode requires LP64")
def test_mmap_kernel_reserializes_identically(tmp_path):
    # A borrowed kernel can be snapshotted again: memoryview rows are
    # packed sections, same as the arrays they view.
    _, kernel = built_kernel()
    data = kernel_to_bytes(kernel)
    path = tmp_path / "kernel.kern"
    path.write_bytes(data)
    mapped = kernel_from_mmap(path)
    assert kernel_to_bytes(mapped) == data
