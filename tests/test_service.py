"""Tests for the serving subsystem: fingerprints, snapshots, the kernel
store, deterministic substreams, the engine and the JSON-lines server."""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading

import pytest

from repro.api import WitnessSet
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_nfa, random_ufa
from repro.automata.serialization import nfa_to_json
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.core.plan import Product, as_plan, lower_plan
from repro.service import (
    Engine,
    FingerprintError,
    KernelStore,
    ServiceClient,
    SnapshotError,
    draw_samples,
    draw_samples_coalesced,
    fingerprint_source,
    kernel_from_bytes,
    kernel_to_bytes,
    serve_stdio,
    serve_tcp,
    spec_key,
    witness_set_from_spec,
)
from repro.service.protocol import WitnessSetCache, execute_group, render_witness
from repro.service.snapshot import kernel_from_mmap
from repro.utils.rng import make_rng, spawn_seq, substreams
from test_accel import with_snapshot_version

SEED = 20190621

SPEC = {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab", "n": 10}
SPEC2 = {
    "kind": "intersection",
    "left": {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab"},
    "right": {"kind": "regex", "pattern": "(a|b)*aa(a|b)*", "alphabet": "ab"},
    "n": 10,
}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_structural_identity(self):
        a = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        b = NFA(a.states, a.alphabet, a.transitions, a.initial, a.finals)
        assert fingerprint_source(a) == fingerprint_source(b)

    def test_different_automata_differ(self):
        a = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        b = random_ufa(20, rng=SEED + 1, completeness=0.9, ensure_nonempty_length=8)
        assert fingerprint_source(a) != fingerprint_source(b)

    def test_plan_fingerprints(self):
        left, right = as_plan("(ab|ba)*"), as_plan("(a|b)*")
        product = Product(left, right)
        again = Product(as_plan("(ab|ba)*"), as_plan("(a|b)*"))
        assert fingerprint_source(product) == fingerprint_source(again)
        assert fingerprint_source(product) != fingerprint_source(left)
        # Operand order matters (products are not canonicalized across
        # commutation — two spellings are two plans).
        assert fingerprint_source(product) != fingerprint_source(
            Product(as_plan("(a|b)*"), as_plan("(ab|ba)*"))
        )

    def test_witness_set_fingerprint_cached(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        assert ws.fingerprint() == ws.fingerprint()
        assert ws.stats.hits.get("fingerprint", 0) >= 1

    def test_unserializable_state_raises(self):
        marker = object()
        nfa = NFA([marker], ["a"], [(marker, "a", marker)], marker, [marker])
        with pytest.raises(FingerprintError):
            fingerprint_source(nfa)

    def test_stable_across_hash_seeds(self):
        """The store contract: the fingerprint must not depend on the
        process's hash randomization."""
        nfa = random_ufa(12, rng=SEED, completeness=0.9, ensure_nonempty_length=6)
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.automata.random_gen import random_ufa\n"
            "from repro.service import fingerprint_source\n"
            f"nfa = random_ufa(12, rng={SEED}, completeness=0.9, "
            "ensure_nonempty_length=6)\n"
            "print(fingerprint_source(nfa))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout.strip())
        outputs.add(fingerprint_source(nfa))
        assert len(outputs) == 1


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def _assert_kernel_equivalent(kernel: CompiledDAG, restored: CompiledDAG):
    assert restored.n == kernel.n
    assert restored.trimmed == kernel.trimmed
    assert restored.symbols == kernel.symbols
    assert restored.total_runs == kernel.total_runs
    assert restored.vertex_count() == kernel.vertex_count()
    assert restored.edge_count() == kernel.edge_count()
    for t in range(kernel.n + 1):
        assert restored.layer_states(t) == kernel.layer_states(t)
        assert restored.final_indices(t) == kernel.final_indices(t)
    if kernel.total_runs:
        assert kernel.sample_batch(8, random.Random(3)) == restored.sample_batch(
            8, random.Random(3)
        )


def _mixed_label_nfa() -> NFA:
    """Tuple states mixing int, bool, float, str and None, some nested,
    over symbols of several types."""
    states = [
        (0, True, 1.5, "a", None),
        (1, False, -0.0, "é"),
        ((2, True), (None, 2.0)),
        (3.0, (False, ("b", 0))),
        (True, 1),
    ]
    alphabet = [True, 0, 2.5, "x", (1, None)]
    transitions = [
        (source, symbol, states[(index + offset) % len(states)])
        for index, source in enumerate(states)
        for offset, symbol in enumerate(alphabet)
        if offset % 2 == index % 2 or offset == 4
    ]
    return NFA(states, alphabet, transitions, states[0], states[2:])


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ufa_round_trip(self, seed):
        nfa = random_ufa(
            10 + seed * 3, rng=SEED + seed, completeness=0.85,
            ensure_nonempty_length=8,
        )
        kernel = compile_nfa(nfa.without_epsilon(), 8, trimmed=True)
        kernel.backward_counts()
        _assert_kernel_equivalent(kernel, kernel_from_bytes(kernel_to_bytes(kernel)))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nfa_reachable_round_trip(self, seed):
        nfa = random_nfa(
            8 + seed * 2, rng=SEED + seed, density=1.6, ensure_nonempty_length=6
        )
        kernel = compile_nfa(nfa.without_epsilon(), 6, trimmed=False)
        kernel.forward_counts()
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert restored.spectrum_counts() == kernel.spectrum_counts()
        _assert_kernel_equivalent(kernel, restored)

    def test_label_table_keeps_equal_labels_of_other_types_apart(self):
        """``(1, 2)`` and ``(True, 2)`` are equal in Python but encode
        differently: layers holding either restore with their own,
        and repeated int-tuple labels share a table entry."""
        import struct

        from repro.service.snapshot import MAGIC

        nfa = NFA(
            [0, (1, 2), (True, 2)],
            ["a"],
            [(0, "a", (1, 2)), ((1, 2), "a", (True, 2)), ((True, 2), "a", 0)],
            0,
            [0, (1, 2)],
        )
        kernel = compile_nfa(nfa, 4, trimmed=False)
        layers = [repr(kernel.layer_states(t)) for t in range(5)]
        assert "True" in layers[2] and "True" not in layers[1] + layers[3]
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert [repr(restored.layer_states(t)) for t in range(5)] == layers
        product = lower_plan(Product(as_plan("(ab|ba)*"), as_plan("(ab)*(a|b)?")), 20, trimmed=True)
        data = kernel_to_bytes(product)
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        header = json.loads(data[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
        assert len(header["labels"][1]) < product.vertex_count() == sum(header["layers"])

    def test_plan_kernel_round_trip_keeps_lowering(self):
        plan = Product(as_plan("(ab|ba)*"), as_plan("(a|b)*aa(a|b)*"))
        kernel = lower_plan(plan, 10, trimmed=True)
        kernel.backward_counts()
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        _assert_kernel_equivalent(kernel, restored)
        assert restored.lowering is not None
        assert restored.lowering.as_dict() == kernel.lowering.as_dict()

    def test_bignum_spill_round_trip(self):
        # (a|b)* at n=80 counts 2^80 ≫ 2^63: the backward table spills.
        ws = WitnessSet.from_regex("(a|b)*", 80, alphabet="ab", store=False)
        kernel = ws.kernel
        assert kernel.total_runs == 2**80
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert restored.total_runs == 2**80
        assert kernel.sample_batch(4, random.Random(1)) == restored.sample_batch(
            4, random.Random(1)
        )

    def test_seeded_sample_streams_identical(self):
        nfa = random_ufa(25, rng=SEED, completeness=0.9, ensure_nonempty_length=12)
        kernel = compile_nfa(nfa.without_epsilon(), 12, trimmed=True)
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            assert [kernel.sample_word(a) for _ in range(5)] == [
                restored.sample_word(b) for _ in range(5)
            ]

    @pytest.mark.parametrize("restore", ["copy", "mmap"])
    def test_labels_keep_their_exact_types(self, restore, tmp_path):
        """``1`` for ``True`` (or ``0`` for ``-0.0``) passes an ``==``
        check, so compare the ``repr`` of every restored label."""
        mixed = _mixed_label_nfa()
        plain = NFA(
            ["p", "q"], mixed.alphabet,
            [("p", symbol, "q") for symbol in mixed.alphabet]
            + [("q", symbol, "p") for symbol in mixed.alphabet],
            "p", ["p", "q"],
        )
        # (1, 2) labels layer 0 and the equal (True, 2) layers 2 and 4.
        aliased = NFA(
            [(1, 2), "x"], ["a"],
            [((1, 2), "a", "x"), ("x", "a", (True, 2))],
            (1, 2), [(1, 2)],
        )
        kernels = [
            compile_nfa(mixed, 5, trimmed=True),
            compile_nfa(mixed, 5, trimmed=False),
            lower_plan(Product(mixed, plain), 5, trimmed=True),
            compile_nfa(aliased, 4, trimmed=True),
        ]
        for index, kernel in enumerate(kernels):
            kernel.backward_counts()
            data = kernel_to_bytes(kernel)
            if restore == "copy":
                restored = kernel_from_bytes(data)
            else:
                path = tmp_path / f"kernel{index}.kern"
                path.write_bytes(data)
                restored = kernel_from_mmap(path)
            assert repr(restored.symbols) == repr(kernel.symbols)
            for t in range(kernel.n + 1):
                assert repr(restored.layer_states(t)) == repr(kernel.layer_states(t))
            assert kernel_to_bytes(restored) == data

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            kernel_from_bytes(b"garbage that is not a snapshot")

    def test_truncated_rejected(self):
        nfa = random_ufa(10, rng=SEED, completeness=0.9, ensure_nonempty_length=6)
        data = kernel_to_bytes(compile_nfa(nfa.without_epsilon(), 6, trimmed=True))
        with pytest.raises(SnapshotError):
            kernel_from_bytes(data[: len(data) // 2])

    def test_tail_truncation_and_padding_rejected(self):
        """Losing (or gaining) whole 8-byte rows at the end must fail the
        restore, not produce a kernel that crashes later."""
        nfa = random_ufa(12, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        kernel = compile_nfa(nfa.without_epsilon(), 8, trimmed=True)
        kernel.backward_counts()
        data = kernel_to_bytes(kernel)
        for mutated in (data[:-8], data[:-16], data + b"\x00" * 8):
            with pytest.raises(SnapshotError):
                kernel_from_bytes(mutated)


# ----------------------------------------------------------------------
# KernelStore
# ----------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return KernelStore(tmp_path / "kernels")


class TestKernelStore:
    def _kernel(self, seed=0, n=8):
        nfa = random_ufa(
            12, rng=SEED + seed, completeness=0.9, ensure_nonempty_length=n
        )
        kernel = compile_nfa(nfa.without_epsilon(), n, trimmed=True)
        kernel.backward_counts()
        return fingerprint_source(nfa), kernel

    def test_put_get_round_trip(self, store):
        fp, kernel = self._kernel()
        assert store.get(fp, 8, True) is None
        assert store.put(fp, 8, True, kernel)
        restored = store.get(fp, 8, True)
        assert restored is not None
        assert restored.total_runs == kernel.total_runs
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_keys_distinguish_mode_and_length(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        assert store.get(fp, 8, False) is None
        assert store.get(fp, 9, True) is None

    def test_corruption_recovery(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        path = store.path_for(fp, 8, True)
        path.write_bytes(b"RPROKRN1" + b"\x00" * 16)  # valid magic, garbage body
        assert store.get(fp, 8, True) is None
        assert store.stats.corrupt == 1
        assert not path.exists()  # quarantined
        # The store heals: a fresh put serves hits again.
        store.put(fp, 8, True, kernel)
        assert store.get(fp, 8, True) is not None

    def test_truncated_entry_recovery(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        path = store.path_for(fp, 8, True)
        path.write_bytes(path.read_bytes()[:40])
        assert store.get(fp, 8, True) is None
        assert store.stats.corrupt == 1

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "damage", ["id_past_table", "negative_id", "truncated_row", "truncated_last_row"]
    )
    def test_corrupt_label_ids_are_quarantined(self, store, damage, mmap):
        """A version-3 snapshot whose label ids are out of range, or whose
        id row is one id short (header and payload kept consistent), is
        refused at load by copy and by mmap, and the store deletes it."""
        import struct

        from repro.service.snapshot import MAGIC

        fp, kernel = self._kernel(1)
        data = kernel_to_bytes(kernel)
        (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
        start = len(MAGIC) + 4 + header_len
        header = json.loads(data[len(MAGIC) + 4 : start])
        payload = data[start + (-start) % 8 :]
        layers = header["layers"]
        if damage == "id_past_table":
            payload = struct.pack("<q", len(header["labels"][1])) + payload[8:]
        elif damage == "negative_id":
            payload = struct.pack("<q", -1) + payload[8:]
        else:
            # A short row in a layer whose last state is not final: only
            # the per-layer size checks can tell.
            t = len(layers) - 1
            if damage == "truncated_row":
                t = next(
                    t
                    for t in range(1, len(layers) - 1)
                    if max(header["finals_idx"][t], default=-1) < layers[t] - 1
                )
            cut = 8 * (sum(layers[: t + 1]) - 1)
            layers[t] -= 1
            payload = payload[:cut] + payload[cut + 8 :]
        text = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode()
        prefix = MAGIC + struct.pack("<I", len(text)) + text
        bad = prefix + b"\x00" * (-len(prefix) % 8) + payload

        path = store.path_for(fp, 8, True)
        path.parent.mkdir(parents=True)
        path.write_bytes(bad)
        with pytest.raises(SnapshotError):
            kernel_from_bytes(bad)
        with pytest.raises(SnapshotError):
            kernel_from_mmap(path)
        store.mmap = mmap
        assert store.get(fp, 8, True) is None
        assert store.stats.corrupt == 1 and not path.exists()

    def test_lru_eviction(self, store):
        fp0, kernel0 = self._kernel(0)
        entry_size = len(kernel_to_bytes(kernel0))
        store.max_bytes = int(entry_size * 2.5)  # room for two entries
        store.put(fp0, 8, True, kernel0)
        fp1, kernel1 = self._kernel(1)
        store.put(fp1, 8, True, kernel1)
        assert store.stats.evictions == 0
        # Touch fp0 so fp1 becomes the LRU victim.
        os.utime(store.path_for(fp1, 8, True), (1, 1))
        assert store.get(fp0, 8, True) is not None
        fp2, kernel2 = self._kernel(2)
        store.put(fp2, 8, True, kernel2)
        assert store.stats.evictions >= 1
        assert store.get(fp1, 8, True) is None      # evicted
        assert store.get(fp0, 8, True) is not None  # kept (recently used)
        assert store.get(fp2, 8, True) is not None  # newest

    def test_orphaned_sidecars_evicted_with_their_snapshots(self, store):
        fp0, kernel0 = self._kernel(0)
        store.put_meta(fp0, {"unambiguous": True})
        store.put(fp0, 8, True, kernel0)
        # A budget that fits one snapshot: storing fp1 evicts fp0's
        # snapshot, and fp0's now-stranded sidecar goes with it.
        store.max_bytes = int(len(kernel_to_bytes(kernel0)) * 1.5)
        fp1, kernel1 = self._kernel(1)
        store.put(fp1, 8, True, kernel1)
        assert store.get(fp0, 8, True) is None
        assert store.get_meta(fp0) is None
        assert store.get(fp1, 8, True) is not None

    def test_meta_round_trip(self, store):
        store.put_meta("ab" * 32, {"unambiguous": True})
        store.put_meta("ab" * 32, {"other": 1})
        assert store.get_meta("ab" * 32) == {"unambiguous": True, "other": 1}
        assert store.get_meta("cd" * 32) is None

    def test_tolerates_entries_vanishing_under_it(self, store):
        """A sibling process's evictor may unlink entries (or whole
        fan-out dirs) between a listing and the stat/read that follows;
        every store operation must treat that as a miss, not a crash."""
        fingerprints = []
        for seed in range(4):
            fp, kernel = self._kernel(seed)
            store.put(fp, 8, True, kernel)
            store.put_meta(fp, {"unambiguous": True})
            fingerprints.append(fp)
        # Simulate the concurrent evictor: delete files behind the
        # store's back, including one whole fan-out directory.
        victims = store.entries()[:2]
        for path in victims:
            path.unlink()
        import shutil

        shutil.rmtree(store.path_for(fingerprints[0], 8, True).parent, ignore_errors=True)
        # Listing, sizing, reads and eviction scans all stay calm.
        assert isinstance(store.total_bytes(), int)
        store._evict_over_budget()
        for fp in fingerprints:
            store.get(fp, 8, True)  # hit or clean miss, never a crash
        fp_new, kernel_new = self._kernel(9)
        assert store.put(fp_new, 8, True, kernel_new)
        assert store.get(fp_new, 8, True) is not None

    def test_lru_scan_tolerates_race_on_stat(self, store, monkeypatch):
        """The exact race: an entry vanishes between the LRU scan's
        listing and its stat call."""
        from pathlib import Path

        fp, kernel = self._kernel(0)
        store.put(fp, 8, True, kernel)
        store.max_bytes = 1  # force an eviction pass on next put
        real_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self.suffix == ".kern" and os.path.exists(self):
                os.unlink(self)  # another process just evicted it
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        fp2, kernel2 = self._kernel(1)
        store.put(fp2, 8, True, kernel2)  # must not raise
        monkeypatch.setattr(Path, "stat", real_stat)
        assert isinstance(store.total_bytes(), int)


def _restart_spec(kind: str) -> dict:
    """An unambiguous word-valued spec of ``kind`` at n=12."""
    def document(seed):
        nfa = random_ufa(24, rng=seed, completeness=0.9, ensure_nonempty_length=12)
        return json.loads(nfa_to_json(nfa))

    if kind == "regex":
        return {"kind": "regex", "pattern": "(ab|ba)*(a|b)?", "alphabet": "ab", "n": 12}
    if kind == "nfa":
        return {"kind": "nfa", "nfa": document(SEED), "n": 12}
    return {
        "kind": "intersection",
        "left": {"kind": "nfa", "nfa": document(SEED)},
        "right": {"kind": "nfa", "nfa": document(SEED + 1)},
        "n": 12,
    }


def _fresh(nfa: NFA) -> NFA:
    """An equal automaton with no transition index built yet, as another
    process decodes it."""
    return NFA(nfa.states, nfa.alphabet, nfa.transitions, nfa.initial, nfa.finals)


def _assert_no_certificate_or_lowering(ws: WitnessSet) -> None:
    """What a warm start skips.  The certificate walk and the lowering
    both read the source plan and its successor memo, and a lowering
    adds its wall time; the stripped automaton, which the set hashes for
    its fingerprint, never gets its transition indexes built."""
    assert "source" not in ws._cache and "adjacency" not in ws._cache
    assert ws._lowering_seconds == 0.0
    for index_slot in (NFA._delta, NFA._rdelta):
        with pytest.raises(AttributeError):
            index_slot.__get__(ws.stripped, NFA)


class TestWitnessSetStoreWiring:
    def test_warm_start_hits_store(self, store):
        nfa = random_ufa(30, rng=SEED, completeness=0.9, ensure_nonempty_length=16)
        cold = WitnessSet.from_nfa(nfa, 16, store=store)
        count = cold.count()
        samples = cold.sample_batch(5, rng=3, use_substreams=True)
        warm = WitnessSet.from_nfa(_fresh(nfa), 16, store=store)
        assert warm.count() == count
        assert warm.sample_batch(5, rng=3, use_substreams=True) == samples
        assert store.stats.hits >= 1
        # The warm set never unrolled, certified or lowered anything: its
        # kernel came from the snapshot and its certificate from the meta.
        assert "dag" not in warm._cache
        _assert_no_certificate_or_lowering(warm)

    @pytest.mark.parametrize("kind", ["regex", "nfa", "intersection"])
    def test_warm_restart_does_no_automaton_work(self, tmp_path, kind, monkeypatch):
        """A restart whose spec is aliased in the store answers from the
        stored kernel alone: the deferred automaton is never built and
        never fingerprinted."""
        from repro.service import fingerprint as fingerprint_module
        from repro.service import protocol

        spec = _restart_spec(kind)
        root = tmp_path / "kernels"
        cold = witness_set_from_spec(spec, store=KernelStore(root))
        answers = (cold.count(), cold.sample_batch(20, rng=5, use_substreams=True))
        assert answers[0] > 0 and cold.is_unambiguous

        built = []
        word_source = protocol._word_source
        monkeypatch.setattr(
            protocol, "_word_source", lambda spec: built.append(spec) or word_source(spec)
        )

        def no_fingerprint(source):
            raise AssertionError("a warm restart fingerprinted its automaton")

        monkeypatch.setattr(fingerprint_module, "fingerprint_source", no_fingerprint)
        store = KernelStore(root, mmap=True)
        warm = witness_set_from_spec(spec, store=store)
        assert warm.count() == answers[0]
        assert warm.sample_batch(20, rng=5, use_substreams=True) == answers[1]
        assert warm.nonempty
        assert built == [] and warm._pending is not None
        assert store.stats.hits == 1 and store.stats.misses == 0
        assert store.stats.alias_hits == 1 and store.stats.alias_misses == 0

    def test_restart_over_a_store_without_aliases(self, tmp_path):
        """A store written before aliases existed (snapshots, no alias
        files) is read as it is: the first restart fingerprints its
        automaton, never strips or indexes it, rewrites no snapshot and
        adds only the alias; the second restart is an alias hit."""
        spec = _restart_spec("intersection")
        root = tmp_path / "kernels"
        cold_store = KernelStore(root)
        cold = witness_set_from_spec(spec, store=cold_store)
        answers = (cold.count(), cold.sample_batch(20, rng=5, use_substreams=True))
        for path in root.glob("*/*.alias"):
            path.unlink()
        snapshots = {path: path.read_bytes() for path in cold_store.entries()}
        files = set(root.glob("*/*"))

        first_store = KernelStore(root, mmap=True)
        first = witness_set_from_spec(spec, store=first_store)
        assert (first.count(), first.sample_batch(20, rng=5, use_substreams=True)) == answers
        assert first_store.stats.as_dict() == dict(
            first_store.stats.as_dict(), hits=1, misses=0, stores=0, corrupt=0,
            alias_hits=0, alias_misses=1,
        )
        assert {path: path.read_bytes() for path in cold_store.entries()} == snapshots
        added = set(root.glob("*/*")) - files
        assert [path.name for path in added] == [f"{spec_key(spec)}.alias"]
        assert "stripped" not in first.stats.misses
        for nfa in (first.plan.left.nfa, first.plan.right.nfa):
            for index_slot in (NFA._delta, NFA._rdelta):
                with pytest.raises(AttributeError):
                    index_slot.__get__(nfa, NFA)

        second_store = KernelStore(root, mmap=True)
        second = witness_set_from_spec(spec, store=second_store)
        assert (second.count(), second.sample_batch(20, rng=5, use_substreams=True)) == answers
        assert second_store.stats.alias_hits == 1 and second._pending is not None

    def test_deferred_set_answers_like_the_eager_set(self, tmp_path):
        """What needs the automaton (membership, describe, the FPRAS)
        builds it on first use and answers exactly as a cold set."""
        spec = _restart_spec("intersection")
        root = tmp_path / "kernels"
        witness_set_from_spec(spec, store=KernelStore(root)).count()
        store = KernelStore(root)
        deferred = witness_set_from_spec(spec, store=store)
        eager = witness_set_from_spec(spec)
        assert deferred._pending is not None
        words = eager.sample(6, rng=3) + [("a",) * 12, ("b",) * 12, ("a",) * 11]
        assert [deferred.contains(w) for w in words] == [eager.contains(w) for w in words]
        assert deferred._pending is None

        def facts(ws):
            return dict(ws.describe(), lowering_seconds=None)

        assert facts(deferred) == facts(eager)
        fpras = {"backend": "fpras", "delta": 0.3, "rng": 7}
        assert deferred.count(**fpras) == eager.count(**fpras)
        assert deferred.spectrum(16) == eager.spectrum(16)
        assert store.stats.corrupt == 0 and store.stats.alias_hits == 1

    @pytest.mark.parametrize("garbage", [b"\x00\xff not json", b'{"fingerprint": "abc"}', b"[1, 2]"])
    def test_garbage_alias_is_quarantined(self, tmp_path, garbage):
        """An unreadable alias counts as corrupt and is deleted; the set
        builds from its spec, answers as cold, and writes a good alias."""
        spec = _restart_spec("regex")
        root = tmp_path / "kernels"
        cold = witness_set_from_spec(spec, store=KernelStore(root))
        answers = (cold.count(), cold.sample_batch(20, rng=5, use_substreams=True))
        alias = KernelStore(root).alias_path_for(spec_key(spec))
        alias.write_bytes(garbage)

        store = KernelStore(root)
        warm = witness_set_from_spec(spec, store=store)
        assert store.stats.corrupt == 1 and not alias.exists()
        assert warm._pending is None  # built from the spec, as on a cold start
        assert (warm.count(), warm.sample_batch(20, rng=5, use_substreams=True)) == answers
        assert store.stats.alias_misses == 1 and store.stats.hits == 1
        assert json.loads(alias.read_text())["fingerprint"] == cold.fingerprint()

    def test_mismatched_alias_is_replaced_and_never_written_under(self, tmp_path):
        """An alias pointing at another automaton's kernels: once the set
        builds its own automaton it counts the alias as corrupt, replaces
        it, drops what it read under it, and stores nothing under it."""
        spec, other = _restart_spec("regex"), _restart_spec("nfa")
        root = tmp_path / "kernels"
        right = witness_set_from_spec(spec, store=KernelStore(root))
        right.count()
        wrong = witness_set_from_spec(other, store=KernelStore(root))
        wrong.count()
        alias = KernelStore(root).alias_path_for(spec_key(spec))
        record = json.loads(alias.read_text())
        alias.write_text(json.dumps(dict(record, fingerprint=wrong.fingerprint())))

        def wrong_entries():
            return {
                path: path.read_bytes()
                for path in root.glob(f"*/{wrong.fingerprint()}*")
            }

        before = wrong_entries()
        assert right.count() != wrong.count()

        store = KernelStore(root)
        ws = witness_set_from_spec(spec, store=store)
        assert ws.count() == wrong.count()  # served from the alias, unchecked
        assert ws.contains(right.sample(rng=1))  # builds the automaton
        assert store.stats.corrupt == 1
        assert ws.fingerprint() == right.fingerprint()
        assert ws.count() == right.count()
        assert ws.spectrum(14) == right.spectrum(14)
        assert json.loads(alias.read_text()) == record
        assert wrong_entries() == before

    def test_alias_to_a_fingerprint_with_no_entries(self, tmp_path):
        """An alias naming a fingerprint the store holds nothing for: the
        first kernel miss builds the automaton, finds the alias wrong,
        and the set answers and stores under its true fingerprint only."""
        from repro.service.fingerprint import FINGERPRINT_VERSION
        from repro.service.protocol import SPEC_VERSION

        spec = _restart_spec("regex")
        right = witness_set_from_spec(spec)
        root = tmp_path / "kernels"
        store = KernelStore(root)
        bogus = "ab" * 32
        version = f"{FINGERPRINT_VERSION}.{SPEC_VERSION}"
        store.put_alias(spec_key(spec), version, bogus)

        ws = witness_set_from_spec(spec, store=store)
        assert ws.sample_batch(20, rng=5, use_substreams=True) == right.sample_batch(
            20, rng=5, use_substreams=True
        )
        assert (ws.count(), ws.spectrum(14)) == (right.count(), right.spectrum(14))
        assert store.stats.corrupt == 1 and store.stats.stores == 2
        assert not list(root.glob(f"*/{bogus}*"))
        assert store.get_alias(spec_key(spec), version) == right.fingerprint()

    def test_alias_of_spec_version_1_is_a_miss(self, tmp_path):
        """Spec version 1 aliased a spec key to the fingerprint of the
        automaton the spec decodes; since version 2 a set fingerprints
        its trimmed automaton.  A version-1 alias to the raw fingerprint
        is a miss: the set builds its automaton, answers as a cold build
        does, and rewrites the alias under the current version, with
        nothing counted corrupt."""
        from repro.service.fingerprint import FINGERPRINT_VERSION
        from repro.service.protocol import SPEC_VERSION

        spec = _restart_spec("nfa")
        document = spec["nfa"]
        # A dead state the initial state reaches, and an unreachable one.
        document["states"] += [1000, 1001]
        zero, one = document["alphabet"]
        document["transitions"] += [
            [document["initial"], zero, 1000],
            [1000, one, 1000],
            [1001, zero, document["initial"]],
        ]
        cold = witness_set_from_spec(spec)
        answers = (cold.count(), cold.sample_batch(20, rng=5, use_substreams=True))
        raw = fingerprint_source(cold.nfa)
        assert raw != cold.fingerprint()

        # What version 1 left: the kernel and certificate under the raw
        # fingerprint, and the spec key aliased to it.
        root = tmp_path / "kernels"
        old = KernelStore(root)
        old.put(raw, 12, True, cold.kernel)
        old.put_meta(raw, {"unambiguous": cold.is_unambiguous})
        old.put_alias(spec_key(spec), "1.1", raw)

        store = KernelStore(root)
        ws = witness_set_from_spec(spec, store=store)
        assert ws._pending is None  # built from the spec, as on a cold start
        assert (ws.count(), ws.sample_batch(20, rng=5, use_substreams=True)) == answers
        assert ws.fingerprint() == cold.fingerprint()
        assert store.stats.alias_misses == 1 and store.stats.alias_hits == 0
        assert store.stats.corrupt == 0 and store.stats.hits == 0
        version = f"{FINGERPRINT_VERSION}.{SPEC_VERSION}"
        assert version == "1.2"
        assert store.get_alias(spec_key(spec), version) == cold.fingerprint()

    @pytest.mark.parametrize("kind", ["regex", "nfa", "intersection"])
    def test_seeded_outputs_match_across_restarts_and_snapshot_versions(
        self, tmp_path, kind
    ):
        """Cold and warm sets (by copy and by mmap) give the same counts,
        seeded draws, enumeration pages and spectra.  A store whose
        snapshots carry an older layout's version (1 or 2) quarantines
        each one it reads; the set lowers its kernels again and answers
        as the cold set did, and the next restart reads the snapshots it
        stored in their place."""
        spec = _restart_spec(kind)

        def outputs(store):
            ws = witness_set_from_spec(spec, store=store)
            first, cursor = ws.enumerate_page(7)
            return (
                ws.count(),
                ws.sample_batch(25, rng=9, use_substreams=True),
                first,
                ws.enumerate_page(5, cursor),
                ws.spectrum(),
            )

        root = tmp_path / "kernels"
        cold = outputs(KernelStore(root))
        assert outputs(KernelStore(root)) == cold
        assert outputs(KernelStore(root, mmap=True)) == cold
        for version, mmap in ((1, False), (2, True)):
            entries = KernelStore(root).entries()
            assert len(entries) == 2  # the trimmed and the reachable kernel
            for path in entries:
                path.write_bytes(with_snapshot_version(path.read_bytes(), version))
            store = KernelStore(root, mmap=mmap)
            assert outputs(store) == cold
            assert store.stats.as_dict() == dict(
                store.stats.as_dict(), hits=0, corrupt=2, stores=2
            )
            healed = KernelStore(root, mmap=mmap)
            assert outputs(healed) == cold
            assert healed.stats.as_dict() == dict(
                healed.stats.as_dict(), hits=2, corrupt=0, stores=0
            )

    def test_warm_first_sample_reads_the_stored_kernel(self, tmp_path):
        """A warm NFA-sourced set whose first query draws (no count
        first) answers from the stored kernel alone: the emptiness test
        reads the kernel the sampler uses, restored once and run on the
        set's own backend."""
        nfa = random_ufa(24, rng=SEED, completeness=0.9, ensure_nonempty_length=12)
        root = tmp_path / "kernels"
        cold = WitnessSet.from_nfa(nfa, 12, store=KernelStore(root))
        drawn = cold.sample_batch(20, rng=5, use_substreams=True)

        store = KernelStore(root, mmap=True)
        warm = WitnessSet.from_nfa(_fresh(nfa), 12, store=store, kernel_backend="numpy")
        assert warm.sample_batch(20, rng=5, use_substreams=True) == drawn
        assert store.stats.hits == 1 and store.stats.misses == 0
        _assert_no_certificate_or_lowering(warm)
        assert warm.kernel.kernel_backend == warm.describe()["kernel_backend"]

    def test_ambiguity_certificate_persisted(self, store):
        nfa = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=10)
        assert WitnessSet.from_nfa(nfa, 10, store=store).is_unambiguous
        warm = WitnessSet.from_nfa(_fresh(nfa), 10, store=store)
        assert warm.is_unambiguous
        _assert_no_certificate_or_lowering(warm)  # certificate came from meta

    def test_plan_backed_sets_round_trip(self, store):
        # An unambiguous product, so count/sample run on the kernel
        # (ambiguous plans fall back to the subset counter, which never
        # compiles — nothing to persist).
        operands = ("(ab|ba)*", "(ab)*(a|b)?", 10)
        baseline = WitnessSet.from_intersection(*operands, store=False)
        assert baseline.is_unambiguous
        cold = WitnessSet.from_intersection(*operands, store=store)
        assert cold.count() == baseline.count()
        warm = WitnessSet.from_intersection(*operands, store=store)
        assert warm.count() == baseline.count()
        assert store.stats.hits >= 1
        assert warm.describe()["lowering"] is not None

    def test_unfingerprintable_source_opts_out(self, store):
        marker = object()
        nfa = NFA([marker], ["a"], [(marker, "a", marker)], marker, [marker])
        ws = WitnessSet.from_nfa(nfa, 4, store=store)
        assert ws.count() == 1  # still answers, just without persistence
        assert store.stats.stores == 0

    def test_spectrum_past_n_on_restored_kernel(self, store):
        nfa = random_ufa(15, rng=SEED, completeness=0.95, ensure_nonempty_length=12)
        cold = WitnessSet.from_nfa(nfa, 6, store=store)
        baseline = WitnessSet.from_nfa(nfa, 6, store=False)
        assert cold.spectrum() == baseline.spectrum()
        warm = WitnessSet.from_nfa(nfa, 6, store=store)
        # Past n, the set lowers and stores a reachable kernel at 10.
        assert warm.spectrum(10) == baseline.spectrum(10)


# ----------------------------------------------------------------------
# Deterministic substreams
# ----------------------------------------------------------------------


class TestSubstreams:
    def test_spawn_seq_deterministic_and_order_free(self):
        streams_a = [spawn_seq(make_rng(5), i) for i in (0, 1, 2)]
        streams_b = [spawn_seq(make_rng(5), i) for i in (2, 1, 0)][::-1]
        assert [g.random() for g in streams_a] == [g.random() for g in streams_b]

    def test_spawn_seq_does_not_advance_parent(self):
        parent = make_rng(5)
        before = parent.getstate()
        spawn_seq(parent, 3)
        assert parent.getstate() == before

    def test_distinct_indices_distinct_streams(self):
        parent = make_rng(5)
        values = {spawn_seq(parent, i).getrandbits(64) for i in range(32)}
        assert len(values) == 32

    def test_sample_batch_substreams_prefix_stable(self):
        """Draw i depends only on (seed, i): a longer batch extends a
        shorter one instead of reshuffling it."""
        ws = WitnessSet.from_regex("(ab|ba)*", 12, alphabet="ab", store=False)
        small = ws.sample_batch(3, rng=9, use_substreams=True)
        large = ws.sample_batch(7, rng=9, use_substreams=True)
        assert large[:3] == small

    def test_repeated_batches_on_live_rng_differ(self):
        """use_substreams with a shared generator must not replay the
        same batch (the parent is ticked once per call); an integer seed
        replays by design."""
        ws = WitnessSet.from_regex("(a|b)*", 16, alphabet="ab", store=False)
        shared_rng = make_rng(3)
        first = ws.sample_batch(4, rng=shared_rng, use_substreams=True)
        second = ws.sample_batch(4, rng=shared_rng, use_substreams=True)
        assert first != second
        assert ws.sample_batch(4, rng=3, use_substreams=True) == ws.sample_batch(
            4, rng=3, use_substreams=True
        )

    def test_coalesced_equals_separate(self):
        ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 11, alphabet="ab", store=False)
        requests = [(3, 7), (2, 8), (4, 7)]
        coalesced = draw_samples_coalesced(ws, requests)
        separate = [draw_samples(ws, k, seed) for k, seed in requests]
        assert coalesced == separate

    def test_ambiguous_route_coalesced_equals_separate(self):
        ws = WitnessSet.from_regex("(a|b)*a(a|b)*", 8, alphabet="ab", store=False)
        assert not ws.is_unambiguous
        requests = [(2, 1), (3, 2)]
        assert draw_samples_coalesced(ws, requests) == [
            draw_samples(ws, k, seed) for k, seed in requests
        ]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def _mixed_requests():
    return [
        {"id": 1, "op": "count", "spec": SPEC},
        {"id": 2, "op": "sample", "spec": SPEC, "k": 3, "seed": 7},
        {"id": 3, "op": "sample", "spec": SPEC, "k": 2, "seed": 8},
        {"id": 4, "op": "count", "spec": SPEC2},
        {"id": 5, "op": "sample_batch", "spec": SPEC2, "k": 4, "seed": 9},
        {"id": 6, "op": "spectrum", "spec": SPEC, "max_length": 6},
        {"id": 7, "op": "describe", "spec": SPEC2},
        {"id": 8, "op": "ping"},
    ]


def _results(responses):
    return {response["id"]: response.get("result") for response in responses}


class TestEngine:
    def test_in_process_execution(self):
        with Engine(workers=0) as engine:
            responses = engine.execute(_mixed_requests())
        assert all(response["ok"] for response in responses)
        results = _results(responses)
        assert results[1] == 32
        assert len(results[2]) == 3 and len(results[3]) == 2
        assert results[6][0] == [0, 1]

    def test_same_spec_samples_coalesce(self):
        with Engine(workers=0) as engine:
            responses = engine.execute(_mixed_requests())
        by_id = {response["id"]: response for response in responses}
        assert by_id[2].get("coalesced") == 2
        assert by_id[3].get("coalesced") == 2

    def test_multiworker_matches_in_process(self):
        requests = _mixed_requests()
        with Engine(workers=0) as local:
            base = _results(local.execute(requests))
        with Engine(workers=2) as pool:
            assert _results(pool.execute(requests)) == base
            # Affinity: repeating the batch lands specs on the same
            # workers, so every kernel is already resident.
            pool.execute(requests)
            aggregated = pool.stats()
            per_worker = pool.stats(per_worker=True)
        assert aggregated["hits"] > 0
        assert aggregated["hits"] == sum(entry["hits"] for entry in per_worker)
        assert aggregated["workers"] == 2 and aggregated["alive"] == 2

    def test_affinity_routing_is_deterministic(self):
        with Engine(workers=4) as engine:
            key = spec_key(SPEC)
            assert engine.route(key) == engine.route(key)
            engine.close()

    def test_error_isolation(self):
        requests = [
            {"id": 1, "op": "count", "spec": SPEC},
            {"id": 2, "op": "nonsense", "spec": SPEC},
            {"id": 3, "op": "count", "spec": {"kind": "bogus"}},
        ]
        with Engine(workers=0) as engine:
            responses = engine.execute(requests)
        assert responses[0]["ok"]
        assert not responses[1]["ok"] and not responses[2]["ok"]
        assert responses[2]["error_type"] == "ProtocolError"

    def test_duplicate_ids_across_clients_stay_positional(self):
        """Two clients may both say id 'c0' in one batch: responses are
        matched by batch position, never by the client-chosen id."""
        requests = [
            {"id": "c0", "op": "count", "spec": SPEC},
            {"id": "c0", "op": "count", "spec": SPEC2},
        ]
        for workers in (0, 2):
            with Engine(workers=workers) as engine:
                for _ in range(3):  # repeat: completion order varies
                    responses = engine.execute([dict(r) for r in requests])
                    assert [r["result"] for r in responses] == [32, 26]
                    assert all("__seq" not in r for r in responses)

    def test_dead_worker_fails_fast_instead_of_hanging(self):
        with Engine(workers=2) as engine:
            victim = engine.route(spec_key(SPEC))
            engine._processes[victim].terminate()
            engine._processes[victim].join(timeout=5)
            responses = engine.execute(
                [
                    {"id": 1, "op": "count", "spec": SPEC},
                    {"id": 2, "op": "count", "spec": SPEC2},
                ]
            )
        by_id = {response["id"]: response for response in responses}
        assert not by_id[1]["ok"] and by_id[1]["error_type"] == "EngineError"
        # The surviving worker keeps serving (unless SPEC2 shares the
        # dead worker's route, in which case it also fails fast).
        if engine.route(spec_key(SPEC2)) != victim:
            assert by_id[2]["ok"] and by_id[2]["result"] == 26

    def test_dead_worker_restarts_for_next_batch(self):
        with Engine(workers=2) as engine:
            victim = engine.route(spec_key(SPEC))
            engine._processes[victim].terminate()
            engine._processes[victim].join(timeout=5)
            first = engine.execute([{"id": 1, "op": "count", "spec": SPEC}])
            assert not first[0]["ok"]  # in-flight batch still fails fast
            # Failing the batch respawned the worker: the same spec
            # routes to the live replacement and answers again.
            second = engine.execute([{"id": 2, "op": "count", "spec": SPEC}])
            assert second[0]["ok"] and second[0]["result"] == 32

    def test_invalid_k_never_steals_sibling_witnesses(self):
        good = {"id": 2, "op": "sample", "spec": SPEC, "k": 2, "seed": 5}
        with Engine(workers=0) as engine:
            solo = engine.execute([dict(good)])[0]["result"]
            responses = engine.execute(
                [{"id": 1, "op": "sample", "spec": SPEC, "k": -1, "seed": 4}, good]
            )
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "ProtocolError"
        assert responses[1]["ok"] and responses[1]["result"] == solo

    @pytest.mark.parametrize("seed", ["x", 4.5, [1], True, -7])
    def test_bad_seed_is_a_protocol_error(self, seed):
        """A seed that is not an integer ≥ 0 is refused, never coerced:
        ``true`` is not seed 1, and -7 is not seed 7."""
        requests = [
            {"id": 1, "op": "sample", "spec": SPEC, "k": 2, "seed": seed},
            {"id": 2, "op": "sample_batch", "spec": SPEC2, "k": 3, "seed": seed},
            {"id": 3, "op": "count", "spec": SPEC, "backend": "fpras", "seed": seed},
            {"id": 4, "op": "count", "spec": SPEC2, "seed": seed},
        ]
        with Engine(workers=0) as engine:
            responses = engine.execute(requests)
        for response in responses:
            assert not response["ok"] and response["error_type"] == "ProtocolError"
            assert "seed" in response["error"]

    def test_bad_seed_never_steals_sibling_witnesses(self):
        good = [
            {"id": 2, "op": "sample", "spec": SPEC, "k": 2, "seed": 5},
            {"id": 3, "op": "sample_batch", "spec": SPEC, "k": 4, "seed": 6},
        ]
        with Engine(workers=0) as engine:
            solo = [engine.execute([dict(request)])[0]["result"] for request in good]
            responses = engine.execute(
                [{"id": 1, "op": "sample", "spec": SPEC, "k": 2, "seed": -5}]
                + [dict(request) for request in good]
            )
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "ProtocolError"
        assert [response["result"] for response in responses[1:]] == solo
        # The bad seed is split off before coalescing, so the good
        # siblings still share one kernel pass.
        assert [response.get("coalesced") for response in responses[1:]] == [2, 2]

    @pytest.mark.parametrize("max_length", [-3, True, 4.5, "x"])
    def test_bad_spectrum_bound_is_a_protocol_error(self, max_length):
        request = {"id": 1, "op": "spectrum", "spec": SPEC, "max_length": max_length}
        with Engine(workers=0) as engine:
            response = engine.execute([request])[0]
        assert not response["ok"] and response["error_type"] == "ProtocolError"
        assert "max_length" in response["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta", "0.3"),
            ("delta", [0.3]),
            ("delta", True),
            ("delta", 0),
            ("delta", 1),
            ("delta", -0.2),
            ("delta", float("nan")),
            ("delta", float("inf")),
            ("options", "x"),
            ("options", [1]),
            ("options", {"rng": 5}),
            ("options", {"delta": 0.2}),
            ("options", {"epsilon": 0.2}),
            ("options", {"backend": "exact"}),
            ("options", {"method": "fpras"}),
        ],
    )
    def test_bad_count_argument_is_a_protocol_error(self, field, value):
        """A count's ``delta`` must be a number strictly between 0 and 1
        (``true`` is not δ = 1, and ``"0.3"`` is not 0.3), and its
        ``options`` an object that sets none of the request's own
        keywords, on every backend."""
        requests = [
            {"id": 1, "op": "count", "spec": SPEC, "backend": "fpras", field: value},
            {"id": 2, "op": "count", "spec": SPEC, "backend": "montecarlo", field: value},
            {"id": 3, "op": "count", "spec": SPEC2, field: value},
        ]
        with Engine(workers=0) as engine:
            responses = engine.execute(requests)
        for response in responses:
            assert not response["ok"] and response["error_type"] == "ProtocolError"
            assert field in response["error"]

    def test_good_count_arguments_still_answer(self):
        requests = [
            {"id": 1, "op": "count", "spec": SPEC, "backend": "fpras", "delta": 0.3, "seed": 1},
            {"id": 2, "op": "count", "spec": SPEC, "delta": None, "options": None},
            {
                "id": 3,
                "op": "count",
                "spec": SPEC,
                "backend": "montecarlo",
                "delta": 0.5,
                "seed": 2,
                "options": {"samples": 500},
            },
        ]
        with Engine(workers=0) as engine:
            responses = engine.execute(requests)
        assert all(response["ok"] for response in responses)
        assert responses[1]["result"] == 32
        assert 0 < responses[0]["result"] and 0 < responses[2]["result"]

    def test_shared_store_across_workers(self, tmp_path):
        root = tmp_path / "kernels"
        requests = [{"id": 1, "op": "count", "spec": SPEC}]
        with Engine(workers=0, store_root=root) as engine:
            engine.execute(requests)
        assert KernelStore(root).entries()
        with Engine(workers=2, store_root=root) as pool:
            responses = pool.execute(requests)
        assert responses[0]["result"] == 32

    def test_engine_honours_store_env_default(self, tmp_path, monkeypatch):
        root = tmp_path / "env-kernels"
        monkeypatch.setenv("REPRO_KERNEL_STORE", str(root))
        with Engine(workers=0) as engine:
            engine.execute([{"id": 1, "op": "count", "spec": SPEC}])
        assert KernelStore(root).entries(), "env-default store must persist kernels"
        with Engine(workers=0, store_root=False) as engine:
            assert engine.store_root is None  # explicit opt-out wins


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


class TestSpecs:
    def test_witness_set_from_spec_matches_facade(self):
        assert witness_set_from_spec(SPEC).count() == WitnessSet.from_regex(
            "(ab|ba)*", 10, alphabet="ab", store=False
        ).count()

    def test_spec_key_stable_under_field_order(self):
        shuffled = {"n": 10, "pattern": "(ab|ba)*", "kind": "regex", "alphabet": "ab"}
        assert spec_key(SPEC) == spec_key(shuffled)

    def test_dnf_spec(self):
        ws = witness_set_from_spec({"kind": "dnf", "formula": "x0 & !x1 | x2"})
        assert ws.count() == WitnessSet.from_dnf("x0 & !x1 | x2", store=False).count()

    def test_nfa_spec_round_trip(self):
        from repro.automata.serialization import nfa_to_json

        nfa = random_ufa(8, rng=SEED, completeness=0.9, ensure_nonempty_length=5)
        spec = {"kind": "nfa", "nfa": json.loads(nfa_to_json(nfa)), "n": 5}
        assert witness_set_from_spec(spec).count() == WitnessSet.from_nfa(
            nfa, 5, store=False
        ).count()

    def test_resident_sets_answer_alike_on_ambiguous_specs(self):
        """Two resident caches (two workers, restarts or transports)
        answer an ambiguous spec alike, whatever each served before: the
        sketch Las Vegas draws walk comes from RESIDENT_SEED, and an
        unseeded FPRAS count never draws on the set's own stream."""
        spec = {"kind": "regex", "pattern": "(0|1)*101(0|1)*", "alphabet": "01", "n": 11}
        key = spec_key(spec)
        sample = {"op": "sample", "k": 20, "seed": 7, "spec": spec}
        count = {"op": "count", "backend": "fpras", "delta": 0.5, "spec": spec}
        first, second = WitnessSetCache(), WitnessSetCache()
        drawn = execute_group(first, key, [sample])
        counted = execute_group(first, key, [count])
        assert counted[0]["ok"] and drawn[0]["ok"]
        assert execute_group(second, key, [count]) == counted
        assert execute_group(second, key, [sample]) == drawn

    def test_render_witness_does_not_import_the_cli(self):
        """The wire renders witnesses itself: serving never loads the
        CLI (argparse and every command) just to format a word."""
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.service.protocol import render_witness\n"
            "assert render_witness(('a', 'b')) == 'ab'\n"
            "print('repro.cli' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


def _request_lines(requests):
    return "".join(json.dumps(request) + "\n" for request in requests)


class TestServeStdio:
    def test_round_trip(self):
        stdin = io.StringIO(
            _request_lines(
                [
                    {"id": 1, "op": "count", "spec": SPEC},
                    {"id": 2, "op": "sample", "spec": SPEC, "k": 2, "seed": 7},
                ]
            )
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        results = {response["id"]: response["result"] for response in responses}
        assert results[1] == 32 and len(results[2]) == 2

    def test_malformed_line_answers_error(self):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout)
        response = json.loads(stdout.getvalue().splitlines()[0])
        assert not response["ok"]

    def test_shutdown_stops_loop(self):
        stdin = io.StringIO(_request_lines([{"id": 1, "op": "shutdown"}]))
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout)
        assert json.loads(stdout.getvalue().splitlines()[0])["result"] == "bye"

    def test_oversized_line_answers_error_and_recovers(self):
        """The unbounded-buffering regression: a huge line gets a
        one-line JSON error and later requests still work."""
        stdin = io.StringIO(
            "x" * 5000 + "\n" + _request_lines([{"id": 1, "op": "count", "spec": SPEC}])
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout, max_line=1024)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert not responses[0]["ok"] and "too long" in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["result"] == 32

    def test_non_selectable_fallback_is_bounded_too(self):
        """The no-fd fallback path must cap every readline call: a
        100 KB line against a 1 KB bound is read in bounded slices, gets
        the error, and the stream stays usable."""
        payload = "x" * 100_000 + "\n" + _request_lines(
            [{"id": 1, "op": "count", "spec": SPEC}]
        )

        class NoFilenoReader:
            def __init__(self, text):
                self.text = text
                self.offset = 0
                self.max_requested = 0

            def readline(self, size=-1):
                assert size >= 0, "the fallback reader must cap readline"
                self.max_requested = max(self.max_requested, size)
                end = self.text.find("\n", self.offset, self.offset + size)
                end = self.offset + size if end == -1 else end + 1
                chunk = self.text[self.offset:end]
                self.offset = end
                return chunk

        reader = NoFilenoReader(payload)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=reader, stdout=stdout, max_line=1024)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert not responses[0]["ok"] and "too long" in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["result"] == 32
        assert reader.max_requested <= 1025  # never a whole-line read

    def test_real_pipe_oversized_line_discards_bounded(self):
        """Over a real pipe the reader never buffers past max_line: the
        oversized line is discarded up to its newline (even when it
        spans many reads) and the stream stays usable."""
        read_fd, write_fd = os.pipe()
        payload = (
            b"y" * 4000
            + b" more of the same line\n"
            + _request_lines([{"id": 2, "op": "count", "spec": SPEC}]).encode()
            + _request_lines([{"id": 9, "op": "shutdown"}]).encode()
        )
        os.write(write_fd, payload)
        os.close(write_fd)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            with os.fdopen(read_fd, "r") as stdin:
                serve_stdio(engine, stdin=stdin, stdout=stdout, max_line=1024)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert any(
            not r["ok"] and "too long" in r.get("error", "") for r in responses
        )
        assert any(r.get("id") == 2 and r.get("result") == 32 for r in responses)

    def test_real_pipe_batches_and_coalesces(self):
        """Over an actual pipe (fd framing), a pipelined burst lands in
        one engine batch, so same-spec samples coalesce."""
        read_fd, write_fd = os.pipe()
        requests = [
            {"id": i, "op": "sample", "spec": SPEC, "k": 1, "seed": i}
            for i in range(4)
        ]
        payload = _request_lines(requests) + _request_lines(
            [{"id": 99, "op": "shutdown"}]
        )
        os.write(write_fd, payload.encode("utf-8"))
        os.close(write_fd)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            with os.fdopen(read_fd, "r") as stdin:
                assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        samples = [r for r in responses if isinstance(r.get("id"), int) and r["id"] < 4]
        assert len(samples) == 4 and all(r["ok"] for r in samples)
        assert all(r.get("coalesced") == 4 for r in samples)

    def test_pump_batches_every_request_queued_when_its_window_closes(self):
        """With no straggler window, requests queued before the pump wakes
        still form one batch: the pump takes everything already queued
        when its window closes, so the burst coalesces."""
        import asyncio
        import types

        from repro.service.server import AsyncWitnessServer, _Pending

        async def scenario(engine):
            server = AsyncWitnessServer(engine, batch_window=0)
            server._start()
            loop = asyncio.get_running_loop()
            conn = types.SimpleNamespace(closed=False)
            futures = []
            for i in range(4):
                request = {"id": i, "op": "sample", "spec": SPEC, "k": 1, "seed": i}
                futures.append(loop.create_future())
                server._queue.put_nowait(
                    _Pending(request, conn, None, future=futures[-1], received=loop.time())
                )
            pump = loop.create_task(server._pump())
            try:
                responses = await asyncio.wait_for(asyncio.gather(*futures), 30)
            finally:
                pump.cancel()
            return server.batches, responses

        with Engine(workers=0) as engine:
            batches, responses = asyncio.run(scenario(engine))
        assert batches == 1
        assert [r["coalesced"] for r in responses] == [4, 4, 4, 4]
        ws = witness_set_from_spec(SPEC)
        assert [r["result"] for r in responses] == [
            [render_witness(w) for w in draw_samples(ws, 1, i)] for i in range(4)
        ]

    def test_stream_answers_chunk_lines(self):
        stdin = io.StringIO(
            _request_lines(
                [
                    {
                        "id": "s",
                        "op": "enumerate",
                        "spec": SPEC,
                        "stream": True,
                        "chunk_size": 3,
                        "limit": 7,
                    }
                ]
            )
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        chunks = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [len(chunk["chunk"]) for chunk in chunks] == [3, 3, 1]
        assert [chunk["done"] for chunk in chunks] == [False, False, True]
        local = WitnessSet.from_regex("(ab|ba)*", 10, alphabet="ab", store=False)
        expected = [render_witness(w) for w in itertools.islice(local.enumerate(), 7)]
        assert [w for chunk in chunks for w in chunk["chunk"]] == expected

    def test_cancel_stops_a_stream(self):
        huge = {"kind": "regex", "pattern": "(a|b)*", "alphabet": "ab", "n": 40}
        stdin = io.StringIO(
            _request_lines(
                [
                    {
                        "id": "s",
                        "op": "enumerate",
                        "spec": huge,
                        "stream": True,
                        "chunk_size": 1,
                        "limit": 50,
                    },
                    {"id": "c", "op": "cancel", "target": "s"},
                ]
            )
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert {"id": "c", "ok": True, "result": "cancelled"} in responses
        assert not any(r.get("done") and r.get("ok") for r in responses)

    def test_timeout_ms_answers_timeout(self):
        stdin = io.StringIO(
            _request_lines(
                [
                    {"id": 1, "op": "count", "spec": SPEC, "timeout_ms": 0.001},
                    {"id": 2, "op": "count", "spec": SPEC},
                ]
            )
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout)
        responses = {
            r["id"]: r for r in map(json.loads, stdout.getvalue().splitlines())
        }
        assert responses[1]["error_type"] == "TimeoutError"
        assert responses[2]["result"] == 32

    def test_requests_are_counted_and_timed(self):
        from repro import obs
        from repro.obs import names as metric_names
        from repro.obs.registry import series_key

        before = obs.metrics().snapshot()["counters"]
        stdin = io.StringIO(_request_lines([{"id": 1, "op": "count", "spec": SPEC}]))
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=io.StringIO())
        after = obs.metrics().snapshot()
        key = series_key(metric_names.SERVER_REQUESTS, {"op": "count"})
        assert after["counters"].get(key, 0) == before.get(key, 0) + 1
        assert metric_names.REQUEST_SECONDS in after["histograms"]

    def test_slow_stdout_keeps_its_only_client(self):
        """A stdout slower than write_timeout slows the client down but
        never drops it: every response arrives."""
        import asyncio
        import time

        from repro.service.server import AsyncWitnessServer

        class SlowStdout(io.StringIO):
            def write(self, text):
                time.sleep(0.2)
                return super().write(text)

        stdin = io.StringIO(
            _request_lines(
                [{"id": i, "op": "count", "spec": SPEC} for i in range(3)]
            )
        )
        stdout = SlowStdout()
        with Engine(workers=0) as engine:
            server = AsyncWitnessServer(engine, write_timeout=0.05)
            assert asyncio.run(server.run_stdio(stdin, stdout)) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert sorted(r["id"] for r in responses) == [0, 1, 2]
        assert all(r["result"] == 32 for r in responses)

    def test_undecodable_text_line_answers_error(self):
        """A text-stream line that is not valid UTF-8 (a lone surrogate)
        is answered as malformed, and the session reads on."""
        stdin = io.StringIO(
            '"\ud800"\n' + _request_lines([{"id": 1, "op": "count", "spec": SPEC}])
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert not responses[0]["ok"]
        assert responses[1]["result"] == 32


def _start_tcp_server(engine, **kwargs):
    from repro.service.server import start_tcp_server_thread

    return start_tcp_server_thread(engine, **kwargs)


@pytest.fixture
def tcp_server():
    engine = Engine(workers=0)
    thread, (host, port) = _start_tcp_server(engine, batch_window=0.05)
    yield host, port
    try:
        with ServiceClient(host, port, timeout=5) as client:
            client.shutdown()
    except OSError:
        pass
    thread.join(timeout=10)
    engine.close()


class TestServeTcp:
    def test_count_and_sample(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            assert client.result("count", SPEC) == 32
            samples = client.result("sample", SPEC, k=3, seed=7)
        with Engine(workers=0) as engine:
            local = engine.execute(
                [{"id": 0, "op": "sample", "spec": SPEC, "k": 3, "seed": 7}]
            )[0]["result"]
        assert samples == local

    def test_pipelined_batch_coalesces(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            responses = client.send(
                [
                    {"op": "sample", "spec": SPEC, "k": 2, "seed": 1},
                    {"op": "sample", "spec": SPEC, "k": 2, "seed": 2},
                    {"op": "count", "spec": SPEC},
                ]
            )
        assert all(response["ok"] for response in responses)
        # Both samples arrived in one socket write → one kernel pass.
        assert responses[0].get("coalesced") == 2

    def test_ping_and_stats(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            assert client.result("ping") == "pong"
            stats = client.result("stats")
            detailed = client.result("stats", per_worker=True)
        # Server-level stats aggregate every worker's counters plus the
        # pool-wide merged metrics snapshot.
        assert "served" in stats
        assert "workers" not in stats  # per-worker list is opt-in
        assert stats["engine"]["workers"] >= 1
        assert "counters" in stats["metrics"]
        assert all("resident" in worker for worker in detailed["workers"])

    def test_malformed_line_gets_error_response(self, tcp_server):
        import socket as socket_module

        host, port = tcp_server
        with socket_module.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile().readline())
        assert not response["ok"]


# ----------------------------------------------------------------------
# The async TCP server: concurrency, bounds, deadlines, streaming
# ----------------------------------------------------------------------


BIG_SPEC = {"kind": "regex", "pattern": "(a|b)*", "alphabet": "ab", "n": 40}


class TestAsyncServe:
    def test_32_concurrent_clients_with_isolation(self, tcp_server):
        """≥ 32 simultaneous connections, each with its own seeded
        requests; every response matches the in-process facade."""
        host, port = tcp_server
        outcomes: list = [None] * 32
        errors: list = []

        def client_main(index):
            try:
                with ServiceClient(host, port, timeout=30) as client:
                    count = client.result("count", SPEC)
                    samples = client.result("sample", SPEC, k=2, seed=index)
                    outcomes[index] = (count, samples)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append((index, error))

        threads = [
            threading.Thread(target=client_main, args=(i,)) for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert all(outcome is not None for outcome in outcomes)
        with Engine(workers=0) as local:
            for index, (count, samples) in enumerate(outcomes):
                assert count == 32
                expected = local.execute(
                    [{"id": 0, "op": "sample", "spec": SPEC, "k": 2, "seed": index}]
                )[0]["result"]
                assert samples == expected, f"client {index} diverged"

    def test_oversized_line_answers_error_and_closes(self):
        """An endless line is answered with a one-line JSON error at the
        max-line bound — the reader never buffers it."""
        import socket as socket_module

        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, max_line=4096)
        try:
            with socket_module.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"z" * 300_000)  # no newline, 73x the bound
                sock.settimeout(10)
                data = b""
                while b"\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                response = json.loads(data.split(b"\n")[0])
            assert not response["ok"]
            assert "too long" in response["error"]
            # The server stays healthy for the next client.
            with ServiceClient(host, port) as client:
                assert client.result("count", SPEC) == 32
                client.shutdown()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_request_deadline_answers_timeout(self):
        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(
            engine, request_timeout=0.0001, batch_window=0.05
        )
        try:
            with ServiceClient(host, port) as client:
                response = client.request("count", SPEC)
                assert not response["ok"]
                assert response["error_type"] == "TimeoutError"
                # A per-request override beats the server default.
                response = client.request("count", SPEC, timeout_ms=30_000)
                assert response["ok"] and response["result"] == 32
                client.shutdown()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_cross_connection_coalescing(self, tcp_server):
        """Same-spec sample bursts from *different* connections land in
        one engine batch (the old server only coalesced within one)."""
        host, port = tcp_server
        barrier = threading.Barrier(6)
        coalesced: list = []

        def one_client(seed):
            with ServiceClient(host, port, timeout=30) as client:
                barrier.wait(timeout=10)
                response = client.request("sample", SPEC, k=1, seed=seed)
                assert response["ok"]
                coalesced.append(response.get("coalesced", 1))

        threads = [threading.Thread(target=one_client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(coalesced) == 6
        # At least one batch merged requests from distinct connections.
        assert max(coalesced) >= 2, coalesced

    def test_streamed_enumeration_pages_through(self, tcp_server):
        host, port = tcp_server
        ws = witness_set_from_spec(SPEC)
        from repro.service.protocol import render_witness

        expected = [render_witness(w) for w in ws.enumerate()]
        with ServiceClient(host, port) as client:
            streamed = list(client.enumerate(SPEC, chunk_size=5))
        assert streamed == expected

    def test_streamed_enumeration_never_materializes(self, tcp_server):
        """First witnesses of a 2^40-word set arrive immediately; the
        abandoned stream is cancelled and the connection stays usable."""
        host, port = tcp_server
        with ServiceClient(host, port, timeout=30) as client:
            stream = client.enumerate(BIG_SPEC, chunk_size=20)
            first = [next(stream) for _ in range(50)]
            stream.close()  # sends cancel; residual chunks are skipped
            assert len(set(first)) == 50
            assert all(len(w) == 40 for w in first)
            # Same connection keeps serving after the abandoned stream.
            assert client.result("count", SPEC) == 32
            assert list(client.enumerate(SPEC, limit=7, chunk_size=3)) == [
                w for w in list(client.enumerate(SPEC, chunk_size=50))[:7]
            ]

    def test_stream_resumes_from_cursor(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            full = list(client.enumerate(SPEC, chunk_size=4))
            stream = client.enumerate(SPEC, chunk_size=4)
            head = [next(stream) for _ in range(4)]  # exactly one chunk
            cursor = client.last_cursor
            stream.close()
            assert cursor is not None
            tail = list(client.enumerate(SPEC, chunk_size=4, cursor=cursor))
        assert head + tail == full

    def test_paged_enumerate_request_response(self, tcp_server):
        """The non-streamed op: one request, one page, explicit cursor."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            page = client.result("enumerate", SPEC, chunk_size=10)
            assert len(page["items"]) == 10 and not page["done"]
            rest = client.result("enumerate", SPEC, cursor=page["cursor"])
            assert rest["done"] and len(page["items"]) + len(rest["items"]) == 32
            bogus = client.request("enumerate", SPEC, cursor=[[0, 0, 99]])
            assert not bogus["ok"] and bogus["error_type"] == "ProtocolError"

    def test_out_of_range_cursor_is_rejected_not_mispaged(self):
        """A cursor past the last witness's offset must raise, never page
        wrong words (or walk off the kernel's edge blocks server-side)."""
        spec = {"kind": "regex", "pattern": "(a|b)(a|b)", "alphabet": "ab", "n": 2}
        ws = witness_set_from_spec(spec)
        assert ws.is_unambiguous and ws.count() == 4
        assert ws.enumerate_page(10, 4) == ([], None)
        with pytest.raises(ValueError, match="invalid enumeration cursor"):
            ws.enumerate_page(10, 5)
        with Engine(workers=0) as engine:
            response = engine.execute(
                [{"id": 1, "op": "enumerate", "spec": spec, "cursor": 5}]
            )[0]
        assert not response["ok"] and response["error_type"] == "ProtocolError"

    @pytest.mark.parametrize("cursor", ["past_end", -1, True, 1.0, "7", [[0, 0, 1]]])
    @pytest.mark.parametrize("pattern", ["(a|b)*", "(a|b)*a(a|b)*"])
    def test_bad_cursor_is_rejected(self, pattern, cursor):
        """Only None or an integer offset in [0, |W|] is a cursor, on both
        routes; the old decision-list format is rejected too."""
        spec = {"kind": "regex", "pattern": pattern, "alphabet": "ab", "n": 3}
        ws = witness_set_from_spec(spec)
        assert ws.is_unambiguous == (pattern == "(a|b)*") and ws.count() > 0
        if cursor == "past_end":
            cursor = ws.count() + 1
        with pytest.raises(ValueError, match="invalid enumeration cursor"):
            ws.enumerate_page(2, cursor)
        with Engine(workers=0) as engine:
            response = engine.execute(
                [{"id": 1, "op": "enumerate", "spec": spec, "cursor": cursor}]
            )[0]
        assert not response["ok"] and response["error_type"] == "ProtocolError"

    def test_zero_chunk_size_is_rejected_not_spun(self):
        """chunk_size=0 would page empty chunks forever; it must be a
        protocol error on every route."""
        with Engine(workers=0) as engine:
            response = engine.execute(
                [{"id": 1, "op": "enumerate", "spec": SPEC, "chunk_size": 0}]
            )[0]
            assert not response["ok"] and response["error_type"] == "ProtocolError"

    def test_zero_chunk_stream_errors_cleanly_over_tcp(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            with pytest.raises(Exception) as excinfo:
                list(client.enumerate(SPEC, chunk_size=0))
            assert "chunk_size" in str(excinfo.value)
            assert client.result("count", SPEC) == 32  # connection survives

    def test_pump_survives_engine_exceptions(self):
        """An exploding batch is answered with error responses; the pump
        (and therefore the server) keeps serving the next batch."""

        class FlakyEngine(Engine):
            def __init__(self):
                super().__init__(workers=0)
                self.boom = True

            def execute(self, requests):
                if self.boom:
                    self.boom = False
                    raise RuntimeError("engine exploded")
                return super().execute(requests)

        engine = FlakyEngine()
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port) as client:
                first = client.request("count", SPEC)
                assert not first["ok"] and first["error_type"] == "RuntimeError"
                assert "engine exploded" in first["error"]
                # The pump survived: the very next request succeeds.
                assert client.result("count", SPEC) == 32
                client.shutdown()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_cancel_matches_every_stream_with_that_id(self, tcp_server):
        """Two streams reusing one request id: cancel stops them both
        (the registry must not lose track of the survivor)."""
        import socket as socket_module

        host, port = tcp_server
        with socket_module.create_connection((host, port), timeout=15) as sock:
            stream_request = {
                "id": "dup",
                "op": "enumerate",
                "spec": BIG_SPEC,
                "stream": True,
                "chunk_size": 5,
            }
            reader = sock.makefile()
            sock.sendall(
                json.dumps(stream_request).encode() + b"\n"
                + json.dumps(stream_request).encode() + b"\n"
            )
            for _ in range(2):  # one chunk from each stream
                assert json.loads(reader.readline())["ok"]
            sock.sendall(
                json.dumps({"id": "kill", "op": "cancel", "target": "dup"}).encode()
                + b"\n"
            )
            cancelled = 0
            deadline = 200  # lines, not seconds: both streams are fast
            while cancelled < 2 and deadline:
                response = json.loads(reader.readline())
                if response.get("id") == "kill":
                    assert response["result"] == "cancelled"
                if (
                    response.get("id") == "dup"
                    and not response.get("ok")
                    and response.get("error_type") == "CancelledError"
                ):
                    cancelled += 1
                deadline -= 1
            assert cancelled == 2, "both duplicate-id streams must be cancelled"
            # And the connection still serves regular requests.
            sock.sendall(
                json.dumps({"id": "after", "op": "count", "spec": SPEC}).encode()
                + b"\n"
            )
            while True:
                response = json.loads(reader.readline())
                if response.get("id") == "after":
                    assert response["ok"] and response["result"] == 32
                    break

    def test_paused_stream_survives_interleaved_requests(self, tcp_server):
        """Other requests on the same client while a stream generator is
        paused must not swallow the stream's in-flight chunks."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            expected = list(client.enumerate(SPEC, chunk_size=50))
            stream = client.enumerate(SPEC, chunk_size=4)
            head = [next(stream) for _ in range(2)]
            # Interleave: send() reads the socket and must buffer (not
            # drop) any stream chunks it encounters.
            assert client.result("count", SPEC) == 32
            rest = list(stream)
        assert head + rest == expected

    def test_slow_reader_does_not_stall_other_clients(self):
        """A client that stops reading its (large) response only stalls
        itself: response writes are detached from the batching pump."""
        import socket as socket_module
        import time as time_module

        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, write_timeout=5.0)
        try:
            slow = socket_module.create_connection((host, port), timeout=60)
            slow.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096)
            slow.sendall(
                json.dumps(
                    {"id": "s", "op": "sample", "spec": SPEC, "k": 40_000, "seed": 1}
                ).encode()
                + b"\n"
            )
            time_module.sleep(1.5)  # execution done; the write now stalls
            started = time_module.perf_counter()
            with ServiceClient(host, port) as quick:
                assert quick.result("ping") == "pong"
                assert quick.result("count", SPEC) == 32
            elapsed = time_module.perf_counter() - started
            assert elapsed < 2.0, (
                f"other clients stalled {elapsed:.1f}s behind a slow reader"
            )
            slow.close()
            with ServiceClient(host, port) as client:
                client.shutdown()
        finally:
            thread.join(timeout=15)
            engine.close()

    def test_limit_terminated_stream_is_resumable(self, tcp_server):
        """A --limit-bounded stream's final chunk carries the resume
        cursor; continuing from it completes the enumeration exactly."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            expected = list(client.enumerate(SPEC, chunk_size=50))
            first = list(client.enumerate(SPEC, limit=10, chunk_size=5))
            cursor = client.last_cursor
            assert len(first) == 10 and cursor is not None
            rest = list(client.enumerate(SPEC, cursor=cursor, chunk_size=50))
        assert first + rest == expected

    def test_connection_cap_refuses_politely(self):
        import socket as socket_module

        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, max_connections=2)
        try:
            first = ServiceClient(host, port)
            second = ServiceClient(host, port)
            assert first.result("ping") == "pong"  # both fully admitted
            assert second.result("ping") == "pong"
            with socket_module.create_connection((host, port), timeout=10) as sock:
                response = json.loads(sock.makefile().readline())
            assert not response["ok"]
            assert "too many connections" in response["error"]
            first.close()
            second.shutdown()
            second.close()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_graceful_shutdown_drains_pending(self):
        """Requests already queued when shutdown arrives are answered."""
        import time

        from repro import obs
        from repro.obs import names as metric_names
        from repro.obs.registry import series_key

        key = series_key(metric_names.SERVER_REQUESTS, {"op": "count"})

        def counted() -> float:
            return obs.metrics().snapshot()["counters"].get(key, 0)

        was_enabled = obs.enabled()
        obs.set_enabled(True)
        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, batch_window=0.2)
        try:
            with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as other:
                # Queue work, then shut down within the same batch window.
                before = counted()
                other.sock.sendall(
                    json.dumps({"id": "w1", "op": "count", "spec": SPEC}).encode()
                    + b"\n"
                )
                # The server counts a request and enqueues it in one
                # event-loop step, so once the count has moved, w1 is
                # queued before the shutdown below can be read.
                deadline = time.monotonic() + 10
                while counted() == before:
                    assert time.monotonic() < deadline, "w1 was never read"
                    time.sleep(0.001)
                client.shutdown()
                response = json.loads(other._read_line())
            assert response["id"] == "w1"
            assert response["ok"] and response["result"] == 32
        finally:
            thread.join(timeout=15)
            assert not thread.is_alive(), "server did not drain and exit"
            engine.close()
            obs.set_enabled(was_enabled)

    def test_streaming_with_worker_pool(self):
        """Chunks page through the multiprocess engine's affinity worker
        and stay byte-identical to the in-process enumeration."""
        engine = Engine(workers=2)
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port, timeout=30) as client:
                streamed = list(client.enumerate(SPEC, chunk_size=7))
                client.shutdown()
            ws = witness_set_from_spec(SPEC)
            from repro.service.protocol import render_witness

            assert streamed == [render_witness(w) for w in ws.enumerate()]
        finally:
            thread.join(timeout=15)
            engine.close()
