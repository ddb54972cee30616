"""Kernels whose equal layers share blocks equal a per-layer reference build.

Every layer of the unrolled DAG applies the same transition relation, so
:func:`~repro.core.kernel.unroll_layers` interns equal layers, and the
kernel, the snapshot encoder and the restore give equal layers one state
tuple, one index map and one CSR block.  These tests compare each shared
kernel with a reference written out here that builds every layer on its
own: forward reach and the Lemma 15 prune with one fresh frozenset per
layer, each layer sorted by ``repr`` with its own index map, each CSR
block from the source's edges, and the count tables by direct dynamic
programming.  Snapshot bytes and seeded draws are compared
with a kernel lowered from the reference layers, which shares nothing,
and copy and mmap restores must equal the lowered kernel.

The work-counter tests gate the work itself, not wall time: how many
CSR blocks a lowering builds and how many index maps a restore builds.
"""

from __future__ import annotations

import itertools
import json
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.automata import EPSILON, NFA
from repro.automata.regex import compile_regex
from repro.core.kernel import CompiledDAG, compile_nfa, unroll_layers
from repro.core.plan import Atom, Product, Star, Union, as_plan, lower_plan
from repro.service.snapshot import (
    MAGIC,
    kernel_from_bytes,
    kernel_from_mmap,
    kernel_to_bytes,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# The per-layer reference build
# ----------------------------------------------------------------------


def reference_layers(source, n, trimmed):
    """The live layers, one fresh frozenset per layer and no memo of
    layers: the unrolling every kernel was built from before layers were
    shared (its union order decides which of two equal states of
    different types a layer keeps)."""
    after = {}
    forward = [frozenset({source.initial})]
    for _ in range(n):
        reached = set()
        for state in forward[-1]:
            targets = after.get(state)
            if targets is None:
                targets = after[state] = frozenset(t for _, t in source.out_edges(state))
            reached |= targets
        forward.append(frozenset(reached))
    if not trimmed:
        return forward
    finals = source.finals
    live = [frozenset(s for s in forward[n] if s in finals)]
    for t in range(n - 1, -1, -1):
        later = live[-1]
        live.append(frozenset(s for s in forward[t] if not later.isdisjoint(after[s])))
    live.reverse()
    return live


def reference_build(source, layers):
    """States, index maps, CSR blocks, finals and both count tables of
    ``layers``, each layer built on its own."""
    n = len(layers) - 1
    symbols = tuple(sorted(source.alphabet, key=repr))
    symbol_index = {s: i for i, s in enumerate(symbols)}
    states = [tuple(sorted(layer, key=repr)) for layer in layers]
    index = [{s: i for i, s in enumerate(row)} for row in states]
    blocks = []
    for t in range(n):
        starts, edge_symbols, dsts = [0], [], []
        for state in states[t]:
            edges = sorted(
                (symbol_index[a], index[t + 1][b])
                for a, b in source.out_edges(state)
                if b in index[t + 1]
            )
            edge_symbols.extend(a for a, _ in edges)
            dsts.extend(b for _, b in edges)
            starts.append(len(dsts))
        blocks.append((starts, edge_symbols, dsts))
    finals = [tuple(i for i, s in enumerate(row) if s in source.finals) for row in states]
    forward = [[0] * len(row) for row in states]
    if source.initial in index[0]:
        forward[0][index[0][source.initial]] = 1
    for t, (starts, _, dsts) in enumerate(blocks):
        for i, ways in enumerate(forward[t]):
            for e in range(starts[i], starts[i + 1]):
                forward[t + 1][dsts[e]] += ways
    backward = [[0] * len(row) for row in states]
    for i in finals[n]:
        backward[n][i] = 1
    for t in range(n - 1, -1, -1):
        starts, _, dsts = blocks[t]
        for i in range(len(states[t])):
            backward[t][i] = sum(backward[t + 1][dsts[e]] for e in range(starts[i], starts[i + 1]))
    return {
        "symbols": symbols,
        "states": states,
        "index": index,
        "blocks": blocks,
        "finals": finals,
        "forward": forward,
        "backward": backward,
    }


def assert_matches_reference(kernel, ref):
    """Every per-layer structure of ``kernel`` equals the reference, with
    the states' exact types (``repr`` tells ``1`` from ``True``)."""
    n = len(ref["states"]) - 1
    assert kernel.n == n
    assert kernel.symbols == ref["symbols"]
    assert repr([kernel.layer_states(t) for t in range(n + 1)]) == repr(ref["states"])
    for t in range(n + 1):
        assert kernel._index[t] == ref["index"][t]
        assert repr(sorted(kernel._index[t].items(), key=repr)) == repr(
            sorted(ref["index"][t].items(), key=repr)
        )
        assert kernel.final_indices(t) == ref["finals"][t]
    for t, (starts, edge_symbols, dsts) in enumerate(ref["blocks"]):
        assert list(kernel._edge_start[t]) == starts
        assert list(kernel._edge_symbol[t]) == edge_symbols
        assert list(kernel._edge_dst[t]) == dsts
    assert [list(row) for row in kernel.forward_counts()] == ref["forward"]
    assert [list(row) for row in kernel.backward_counts()] == ref["backward"]


def unshared_kernel(source, n, trimmed, layers):
    """A kernel lowered from fresh copies of ``layers``: no two layers are
    the same object, so nothing is shared."""
    return CompiledDAG(source, n, trimmed, layers=[frozenset(list(layer)) for layer in layers])


_FILES = itertools.count()


def check_kernel(kernel, tmp_path, seed=7):
    """``kernel`` against the reference build, the unshared kernel's
    snapshot bytes and seeded draws, and its own copy and mmap restores.
    The reference reads the plan behind a lowered kernel's memoized
    source, so it shares no memo with the kernel."""
    source = getattr(kernel.nfa, "plan", kernel.nfa)
    layers = reference_layers(source, kernel.n, kernel.trimmed)
    ref = reference_build(source, layers)
    assert_matches_reference(kernel, ref)
    plain = unshared_kernel(source, kernel.n, kernel.trimmed, layers)
    plain.lowering = kernel.lowering  # a plan lowering's stats, in the header
    assert_matches_reference(plain, ref)
    assert kernel_to_bytes(kernel) == kernel_to_bytes(plain)
    if kernel.total_runs:
        assert kernel.sample_batch(25, random.Random(seed)) == plain.sample_batch(
            25, random.Random(seed)
        )
        streams = [random.Random(seed + i) for i in range(10)]
        again = [random.Random(seed + i) for i in range(10)]
        assert kernel.sample_batch(10, streams) == plain.sample_batch(10, again)
    data = kernel_to_bytes(kernel)
    # A fresh file per check: a mapped file is never rewritten.
    path = tmp_path / f"kernel{next(_FILES)}.kern"
    path.write_bytes(data)
    for restored in (kernel_from_bytes(data), kernel_from_mmap(path)):
        assert_matches_reference(restored, ref)
        assert kernel_to_bytes(restored) == data


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------


@st.composite
def random_nfas(draw, max_states=6):
    """Random NFAs over ``ab`` with ε-moves and (often) dead states."""
    m = draw(st.integers(1, max_states))
    transitions = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1), st.sampled_from(["a", "b", EPSILON]), st.integers(0, m - 1)
            ),
            max_size=3 * m,
        )
    )
    finals = draw(st.lists(st.integers(0, m - 1), max_size=m))
    return NFA(range(m), "ab", transitions, 0, finals)


def _variants(value):
    """Values equal to the int ``value`` but of other types."""
    return [value, float(value)] + ([bool(value)] if value in (0, 1) else [])


@st.composite
def mixed_type_nfas(draw, max_states=4):
    """NFAs whose transitions name a state through values that are equal
    but differently typed: ``1`` / ``True`` / ``1.0``, or ``(1, 2)`` /
    ``(True, 2)`` when the states are pairs."""
    m = draw(st.integers(2, max_states))
    pairs = draw(st.booleans())

    def name(value):
        picked = draw(st.sampled_from(_variants(value)))
        return (picked, 2) if pairs else picked

    transitions = [
        (name(s), a, name(t))
        for s, a, t in draw(
            st.lists(
                st.tuples(st.integers(0, m - 1), st.sampled_from("ab"), st.integers(0, m - 1)),
                min_size=1,
                max_size=3 * m,
            )
        )
    ]
    states = [(v, 2) if pairs else v for v in range(m)]
    finals = [name(v) for v in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))]
    return NFA(states, "ab", transitions, name(0), finals)


REGEXES = ["(ab|ba)*", "(a|b)*a(a|b)", "(aab|b)*", "a*b*", "((a|b)(a|b|c))*", "(abc|acb|b)*c?"]


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------


class TestAgainstReference:
    @SETTINGS
    @given(nfa=random_nfas(), n=st.integers(0, 30), trimmed=st.booleans())
    def test_random_nfas(self, nfa, n, trimmed, tmp_path):
        check_kernel(compile_nfa(nfa, n, trimmed=trimmed), tmp_path)

    @SETTINGS
    @given(nfa=mixed_type_nfas(), n=st.integers(0, 12), trimmed=st.booleans())
    def test_equal_states_of_other_types(self, nfa, n, trimmed, tmp_path):
        check_kernel(compile_nfa(nfa, n, trimmed=trimmed), tmp_path)

    @SETTINGS
    @given(
        left=random_nfas(max_states=4),
        right=random_nfas(max_states=4),
        n=st.integers(0, 25),
        trimmed=st.booleans(),
        shape=st.sampled_from(["product", "union", "star", "nested"]),
    )
    def test_plans(self, left, right, n, trimmed, shape, tmp_path):
        # Nested plans have tuples of tuples as states, outside the
        # exact-type rule: they lower unshared.
        plan = {
            "product": lambda: Product(left, right),
            "union": lambda: Union(left, right),
            "star": lambda: Star(left),
            "nested": lambda: Star(Union(left, right)),
        }[shape]()
        check_kernel(lower_plan(plan, n, trimmed=trimmed), tmp_path)

    @pytest.mark.parametrize("pattern", REGEXES)
    @pytest.mark.parametrize("trimmed", [True, False])
    def test_regexes_at_length_60(self, pattern, trimmed, tmp_path):
        kernel = compile_nfa(compile_regex(pattern), 60, trimmed=trimmed)
        assert len(set(kernel._twin)) < kernel.n + 1  # the layers repeat
        check_kernel(kernel, tmp_path)

    @pytest.mark.parametrize("pattern", REGEXES)
    def test_regex_products(self, pattern, tmp_path):
        plan = Product(as_plan(pattern), as_plan("(a|b|c)*(ab|ba)(a|b|c)*"))
        check_kernel(lower_plan(plan, 40, trimmed=True), tmp_path)

    def test_the_typed_label_table_case(self, tmp_path):
        """The snapshot suite's ``(1, 2)`` / ``(True, 2)`` automaton keeps
        the reference's labels at every length."""
        nfa = NFA(
            [0, (1, 2), (True, 2)],
            ["a"],
            [(0, "a", (1, 2)), ((1, 2), "a", (True, 2)), ((True, 2), "a", 0)],
            0,
            [0, (1, 2)],
        )
        for n in range(12):
            for trimmed in (True, False):
                check_kernel(compile_nfa(nfa, n, trimmed=trimmed), tmp_path)


    def test_layers_mixing_ints_and_tuples(self, tmp_path):
        """Layer 2 holds ``3`` and ``(0, 1)``: every successor set passes
        the exact-type rule, so the layer is shared in memory, but the
        label table gives a mixed layer fresh ids at each repeat."""
        nfa = NFA(
            [0, 1, 2, 3, (0, 1)],
            "ab",
            [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", (0, 1)), (3, "b", 0), ((0, 1), "b", 0)],
            0,
            [0, 3],
        )
        for trimmed in (True, False):
            kernel = compile_nfa(nfa, 30, trimmed=trimmed)
            assert kernel._twin[5] == 2 and kernel.layer_states(5) is kernel.layer_states(2)
            check_kernel(kernel, tmp_path)


class TestUnrolling:
    @SETTINGS
    @given(nfa=random_nfas(), n=st.integers(0, 30), trimmed=st.booleans())
    def test_layers_equal_the_reference(self, nfa, n, trimmed):
        source = Atom(nfa)
        _, live = unroll_layers(source, n, trimmed)
        assert live == reference_layers(source, n, trimmed)

    def test_equal_layers_are_one_object(self):
        source = Atom(compile_regex("(ab|ba)*"))
        forward, live = unroll_layers(source, 50, trimmed=True)
        for layers in (forward, live):
            for t in range(len(layers)):
                first = layers.index(layers[t])
                assert layers[first] is layers[t]

    def test_layers_of_other_types_are_not_interned(self):
        nfa = NFA([1, 2], ["a"], [(1, "a", 2), (2, "a", True)], 1, [1])
        forward, _ = unroll_layers(Atom(nfa), 6, trimmed=False)
        assert forward[2] == forward[0] and forward[2] is not forward[0]
        assert repr(forward[2]) == "frozenset({True})"


# ----------------------------------------------------------------------
# Work counters and mutation guards
# ----------------------------------------------------------------------


def _row_offsets(data):
    """Payload offset of each CSR row of a version-3 snapshot, keyed by
    ``(block, "start" | "symbol" | "dst")``."""
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(bytes(data[start : start + header_len]))
    offset = start + header_len
    offset += -offset % 8
    offset += 8 * sum(header["layers"])
    offsets = {}
    for t, entry in enumerate(header["edges"]):
        for key in ("start", "symbol", "dst"):
            offsets[t, key] = offset
            offset += 8 * entry[key]
    return offsets


def _spy(monkeypatch, owner, name):
    """Count the calls of ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestWork:
    def test_one_block_per_distinct_layer_pair(self, monkeypatch):
        calls = _spy(monkeypatch, CompiledDAG, "_append_edge_layer")
        kernel = compile_nfa(compile_regex("(ab|ba)*"), 2000, trimmed=True)
        pairs = {(kernel._twin[t], kernel._twin[t + 1]) for t in range(kernel.n)}
        assert len(pairs) == 3
        assert len(calls) == 3
        assert kernel.total_runs == 2**1000

    def test_one_index_map_per_distinct_layer(self, monkeypatch):
        import repro.core.kernel as kernel_module
        import repro.service.snapshot as snapshot_module

        lowered = _spy(monkeypatch, kernel_module, "_index_map")
        kernel = compile_nfa(compile_regex("(ab|ba)*"), 2000, trimmed=True)
        assert len(lowered) == len(set(kernel._twin)) == 3
        kernel.backward_counts()
        data = kernel_to_bytes(kernel)
        restored_maps = _spy(monkeypatch, snapshot_module, "_index_map")
        restored = kernel_from_bytes(data)
        assert len(restored_maps) == 3
        assert restored._twin == kernel._twin
        assert restored._index[2] is restored._index[2000]
        assert restored._edge_dst[1] is restored._edge_dst[1999]
        assert restored.total_runs == kernel.total_runs

    def test_restore_rebuilds_a_block_whose_bytes_differ(self, tmp_path):
        """A repeated layer pair takes its candidate's arrays only when the
        bytes are the same: a block written differently restores, and
        encodes again, as written."""
        kernel = compile_nfa(compile_regex("(ab|ba)*"), 6, trimmed=True)
        assert kernel._edge_dst[3] is kernel._edge_dst[1]
        data = bytearray(kernel_to_bytes(kernel))
        offset = _row_offsets(data)[3, "dst"]
        changed = kernel._edge_dst[1][::-1]
        assert list(changed) != list(kernel._edge_dst[1])
        data[offset : offset + len(changed) * changed.itemsize] = changed.tobytes()
        restored = kernel_from_bytes(bytes(data))
        assert restored._edge_dst[3] is not restored._edge_dst[1]
        assert list(restored._edge_dst[3]) == list(changed)
        assert list(restored._edge_dst[1]) == list(kernel._edge_dst[1])
        assert restored._edge_dst[5] is restored._edge_dst[1]
        path = tmp_path / "changed.kern"
        path.write_bytes(data)
        for again in (restored, kernel_from_mmap(path)):
            assert kernel_to_bytes(again) == data
