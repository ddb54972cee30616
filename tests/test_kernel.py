"""The array-backed :class:`CompiledDAG` kernel: structure, tables,
sampling — and the backend agreement matrix across every application
domain (the acceptance bar for the kernel refactor)."""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

from repro import WitnessSet, backends
from repro.automata.nfa import NFA, word
from repro.automata.operations import words_of_length
from repro.automata.random_gen import random_nfa, random_ufa
from repro.core.enumeration import enumerate_words_dag, enumerate_words_ufa
from repro.core.exact import count_accepting_runs_of_length, length_spectrum
from repro.core.fpras import FprasParameters, FprasState
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.core.unroll import unroll, unroll_trimmed
from repro.errors import EmptyWitnessSetError, InvalidAutomatonError
from repro.utils.rng import make_rng

FAST = FprasParameters(sample_size=48)


class SeedUnrolledDAG:
    """The seed set-based unrolling, kept as the oracle for the kernel.

    Layers come from per-symbol successor sets, queries from the NFA's
    transition maps — no code shared with :func:`unroll_layers`.
    """

    def __init__(self, nfa: NFA, n: int, trimmed: bool):
        self.nfa = nfa
        forward = [frozenset({nfa.initial})]
        for _ in range(n):
            forward.append(frozenset().union(*map(self._step, forward[-1])))
        self.layers = forward
        if trimmed:
            self.layers = [nfa.finals & forward[n]]
            for t in range(n - 1, -1, -1):
                later = self.layers[0]
                alive = frozenset(s for s in forward[t] if self._step(s) & later)
                self.layers.insert(0, alive)
        self.final_states = self.layers[n] & nfa.finals

    def _step(self, state):
        nfa = self.nfa
        return frozenset().union(*(nfa.successors(state, a) for a in nfa.alphabet))

    def layer(self, t):
        return self.layers[t]

    def ordered_successors(self, t, state):
        live = [(a, q) for a, q in self.nfa.out_edges(state) if q in self.layers[t + 1]]
        return sorted(live, key=lambda edge: (repr(edge[0]), repr(edge[1])))

    def predecessors(self, t, state, symbol):
        return self.nfa.predecessors(state, symbol) & self.layers[t - 1]

    def predecessor_sets(self, t, states):
        groups = {
            a: frozenset().union(*(self.predecessors(t, s, a) for s in states))
            for a in self.nfa.alphabet
        }
        return {a: group for a, group in groups.items() if group}


def predecessor_sets(kernel, t, states):
    """The kernel's ``T_b`` partition of ``states`` at layer ``t``:
    :meth:`~CompiledDAG.predecessor_groups` of their indices, mapped
    through ``layer_states(t - 1)``."""
    previous = kernel.layer_states(t - 1)
    indices = [kernel.index_of(t, state) for state in states]
    return {
        symbol: frozenset(previous[i] for i in group)
        for symbol, group in kernel.predecessor_groups(t, indices).items()
    }


def count_table(kernel, rows):
    """Packed count rows as ``{state: count}`` per layer, zipped with
    ``layer_states``; zero counts are left out, as in the seed tables."""
    return [
        {state: ways for state, ways in zip(kernel.layer_states(t), row) if ways}
        for t, row in enumerate(rows)
    ]


class TestStructureMatchesUnrolledDAG:
    """The kernel's views and index-level structure reproduce the seed
    set-based DAG exactly."""

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_random_nfas(self, trimmed, rng):
        for _ in range(4):
            nfa = random_nfa(
                6, density=1.5, rng=rng, ensure_nonempty_length=5
            ).without_epsilon()
            dag = SeedUnrolledDAG(nfa, 5, trimmed)
            kernel = (unroll_trimmed if trimmed else unroll)(nfa, 5)
            assert kernel.layers == list(dag.layers)
            assert kernel.final_states == dag.final_states
            assert kernel.is_empty == (not dag.final_states)
            assert kernel.vertex_count() == sum(map(len, dag.layers))
            assert kernel.edge_count() == sum(
                len(dag.ordered_successors(t, state))
                for t in range(5)
                for state in dag.layer(t)
            )
            for t in range(5):
                for state in dag.layer(t):
                    assert list(kernel.successors(t, state)) == dag.ordered_successors(
                        t, state
                    )
            for t in range(1, 6):
                layer = dag.layer(t)
                assert predecessor_sets(kernel, t, layer) == dag.predecessor_sets(t, layer)
                for state in layer:
                    groups = predecessor_sets(kernel, t, [state])
                    for symbol in nfa.alphabet:
                        assert groups.get(symbol, frozenset()) == dag.predecessors(
                            t, state, symbol
                        )

    def test_index_maps_are_repr_ordered(self, even_zeros_dfa):
        kernel = compile_nfa(even_zeros_dfa, 4)
        for t in range(5):
            states = kernel.layer_states(t)
            assert list(states) == sorted(states, key=repr)
            for i, state in enumerate(states):
                assert kernel.index_of(t, state) == i

    def test_epsilon_rejected(self):
        from repro.automata.nfa import EPSILON

        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b")], "a", ["b"])
        with pytest.raises(InvalidAutomatonError):
            CompiledDAG(nfa, 2, trimmed=False)


class TestCountTables:
    def test_dict_adapters_match_seed_shapes(self, even_zeros_dfa):
        """The seed's dict-shaped tables, read off the packed rows through
        ``layer_states`` (:func:`count_table`)."""
        dag = unroll_trimmed(even_zeros_dfa, 4)
        forward = count_table(dag, dag.forward_counts())
        backward = count_table(dag, dag.backward_counts())
        assert forward[0] == {"even": 1}
        assert backward[4] == {"even": 1}
        for t in range(5):
            crossing = sum(
                forward[t].get(state, 0) * backward[t].get(state, 0)
                for state in dag.layer(t)
            )
            assert crossing == 2**3

    def test_total_runs_equals_dp_count(self, rng):
        for _ in range(5):
            nfa = random_nfa(7, density=1.6, rng=rng).without_epsilon()
            kernel = compile_nfa(nfa, 6, trimmed=False)
            reachable = unroll(nfa, 6)
            expected = sum(
                ways
                for state, ways in zip(reachable.layer_states(6), reachable.forward_counts()[6])
                if state in nfa.finals
            )
            assert kernel.total_runs == expected

    def test_bignum_spill_keeps_exactness(self):
        # Σ* over two symbols: |L_n| = 2^n, far beyond int64 at n = 96.
        nfa = NFA.full_language("ab")
        kernel = compile_nfa(nfa, 96)
        assert kernel.total_runs == 2**96
        assert isinstance(kernel.backward_counts()[0], list)  # spilled row
        assert isinstance(kernel.backward_counts()[96], array)  # packed row

    def test_spectrum_counts_match_per_length_dp(self, rng):
        nfa = random_ufa(8, rng=rng, ensure_nonempty_length=8)
        kernel = compile_nfa(nfa, 8, trimmed=False)
        assert kernel.spectrum_counts() == [
            count_accepting_runs_of_length(nfa, t) for t in range(9)
        ]

    def test_length_spectrum_single_compilation(self, even_zeros_dfa):
        assert length_spectrum(even_zeros_dfa, range(5)) == {
            0: 1,
            1: 1,
            2: 2,
            3: 4,
            4: 8,
        }
        assert length_spectrum(even_zeros_dfa, [3, 1]) == {1: 1, 3: 4}
        assert length_spectrum(even_zeros_dfa, []) == {}


class TestKernelSampling:
    def test_samples_are_witnesses(self, even_zeros_dfa, rng):
        kernel = compile_nfa(even_zeros_dfa, 6)
        support = set(words_of_length(even_zeros_dfa, 6))
        for _ in range(30):
            assert kernel.sample_word(rng) in support

    def test_batch_matches_support_and_size(self, even_zeros_dfa, rng):
        kernel = compile_nfa(even_zeros_dfa, 6)
        support = set(words_of_length(even_zeros_dfa, 6))
        batch = kernel.sample_batch(200, rng)
        assert len(batch) == 200
        assert set(batch) <= support

    def test_batch_is_uniformish(self, even_zeros_dfa, rng):
        kernel = compile_nfa(even_zeros_dfa, 4)
        support = set(words_of_length(even_zeros_dfa, 4))
        counts = Counter(kernel.sample_batch(4000, rng))
        assert set(counts) == support
        expected = 4000 / len(support)
        for hits in counts.values():
            assert 0.5 * expected < hits < 1.5 * expected

    def test_batch_deterministic_given_seed(self, even_zeros_dfa):
        kernel = compile_nfa(even_zeros_dfa, 8)
        assert kernel.sample_batch(20, make_rng(5)) == kernel.sample_batch(
            20, make_rng(5)
        )

    def test_empty_and_degenerate_batches(self, even_zeros_dfa, rng):
        kernel = compile_nfa(even_zeros_dfa, 6)
        assert kernel.sample_batch(0, rng) == []
        with pytest.raises(ValueError):
            kernel.sample_batch(-1, rng)
        with pytest.raises(EmptyWitnessSetError):
            compile_nfa(NFA.empty_language("01"), 4).sample_batch(3, rng)

    def test_zero_length_batch(self, even_zeros_dfa, rng):
        assert compile_nfa(even_zeros_dfa, 0).sample_batch(3, rng) == [(), (), ()]

    def test_sampler_facade_batch(self, even_zeros_dfa, rng):
        ws = WitnessSet.from_nfa(even_zeros_dfa, 6)
        support = set(words_of_length(even_zeros_dfa, 6))
        batch = ws.sample_batch(50, rng=rng)
        assert len(batch) == 50
        assert set(batch) <= support
        with pytest.raises(EmptyWitnessSetError):
            WitnessSet.from_nfa(NFA.empty_language("01"), 3).sample_batch(2)

    def test_facade_batch_ambiguous_route(self, endswith_one_nfa, rng):
        ws = WitnessSet.from_nfa(endswith_one_nfa, 4, params=FAST, rng=rng)
        support = set(words_of_length(endswith_one_nfa, 4))
        assert set(ws.sample_batch(10)) <= support


class TestKernelEnumeration:
    def test_enumerates_language(self, rng):
        for _ in range(4):
            ufa = random_ufa(7, rng=rng, ensure_nonempty_length=6)
            via_kernel = list(enumerate_words_dag(compile_nfa(ufa, 6)))
            assert sorted(via_kernel) == sorted(words_of_length(ufa.without_epsilon(), 6))
            assert via_kernel == list(enumerate_words_ufa(ufa, 6))


class TestFprasOnKernel:
    def test_shared_kernel_matches_owned_kernel(self, endswith_one_nfa):
        kernel = compile_nfa(endswith_one_nfa, 9, trimmed=False)
        shared = FprasState(endswith_one_nfa, 9, rng=7, params=FAST, kernel=kernel)
        owned = FprasState(endswith_one_nfa, 9, rng=7, params=FAST)
        assert shared.count_estimate == owned.count_estimate
        assert shared.kernel is kernel

    def test_rejects_mismatched_kernel(self, endswith_one_nfa, even_zeros_dfa):
        with pytest.raises(InvalidAutomatonError):
            FprasState(
                endswith_one_nfa,
                6,
                kernel=compile_nfa(endswith_one_nfa, 6, trimmed=True),
            )
        with pytest.raises(InvalidAutomatonError):
            FprasState(
                endswith_one_nfa, 6, kernel=compile_nfa(even_zeros_dfa, 6, trimmed=False)
            )


class TestBackendAgreementMatrix:
    """Every registry backend agrees with the exact count on every
    application domain the paper covers — NFA, DNF, OBDD, RPQ, CFG."""

    TOLERANCE = 0.5  # generous relative bar for the randomized backends

    def _witness_sets(self):
        from repro.bdd.builders import conj, disj, neg, obdd_from_formula, var
        from repro.graphdb.graph import grid_graph
        from repro.grammars import CNFGrammar

        yield "nfa", WitnessSet.from_regex(
            "(ab|ba)*(a|b)?", 7, alphabet="ab", params=FAST, rng=11
        )
        yield "dnf", WitnessSet.from_dnf("x0 & !x2 | x1 & x3 | !x0 & x2", params=FAST, rng=11)
        obdd = obdd_from_formula(
            disj(conj(var("a"), var("b")), neg(var("c"))), ["a", "b", "c"]
        )
        yield "obdd", WitnessSet.from_obdd(obdd, params=FAST, rng=11)
        yield "rpq", WitnessSet.from_rpq(
            grid_graph(3, 3), "(r|d)*", (0, 0), (2, 2), 4, params=FAST, rng=11
        )
        grammar = CNFGrammar(
            nonterminals=["S", "A", "B", "T"],
            terminals=["a", "b"],
            rules=[
                ("S", ("A", "T")),
                ("T", ("S", "B")),
                ("S", ("A", "B")),
                ("A", ("a",)),
                ("B", ("b",)),
            ],
            start="S",
        )
        yield "cfg", WitnessSet.from_cfg(grammar, 6, params=FAST, rng=11)

    def test_all_backends_agree_with_exact(self):
        for source, ws in self._witness_sets():
            exact = ws.count()
            assert exact == ws.count(backend="naive"), source
            assert exact > 0, source
            for name in backends.available():
                solver = backends.get(name)
                if solver.requires_source is not None and solver.requires_source != source:
                    continue
                estimate = ws.count(backend=name, rng=5)
                assert estimate == pytest.approx(exact, rel=self.TOLERANCE), (
                    source,
                    name,
                    estimate,
                    exact,
                )

    def test_spectrum_extension_does_not_corrupt_counts(self, even_zeros_dfa):
        ws = WitnessSet.from_nfa(even_zeros_dfa, 9)
        assert ws.spectrum(15)[15] == 2**14  # a reachable kernel at 15
        assert ws.count() == 2**8            # trimmed kernel untouched
        assert ws.count(backend="fpras", rng=0) >= 0  # FPRAS still valid at n=9

    def test_run_sampler_rejects_mismatched_kernel(self, even_zeros_dfa):
        from repro.baselines.montecarlo import uniform_run_sampler

        with pytest.raises(InvalidAutomatonError):
            uniform_run_sampler(
                even_zeros_dfa, 8, kernel=compile_nfa(even_zeros_dfa, 5)
            )
