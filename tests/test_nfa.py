"""Unit tests for repro.automata.nfa."""

from __future__ import annotations

import pickle

import pytest

from repro.automata.nfa import EPSILON, NFA, word, word_str
from repro.errors import InvalidAutomatonError


class TestConstruction:
    def test_basic_properties(self, even_zeros_dfa):
        assert even_zeros_dfa.num_states == 2
        assert even_zeros_dfa.num_transitions == 4
        assert even_zeros_dfa.alphabet == frozenset({"0", "1"})
        assert even_zeros_dfa.initial == "even"
        assert even_zeros_dfa.finals == frozenset({"even"})

    def test_rejects_unknown_initial(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], ["0"], [], "missing", [])

    def test_rejects_unknown_final(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], ["0"], [], "a", ["missing"])

    def test_rejects_transition_with_unknown_source(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], ["0"], [("ghost", "0", "a")], "a", [])

    def test_rejects_transition_with_unknown_target(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], ["0"], [("a", "0", "ghost")], "a", [])

    def test_rejects_symbol_outside_alphabet(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], ["0"], [("a", "9", "a")], "a", [])

    def test_rejects_epsilon_in_alphabet(self):
        with pytest.raises(InvalidAutomatonError):
            NFA(["a"], [EPSILON], [], "a", [])

    def test_epsilon_transitions_allowed(self):
        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b")], "a", ["b"])
        assert nfa.has_epsilon
        assert nfa.accepts(())

    def test_duplicate_transitions_collapse(self):
        nfa = NFA(["a"], ["0"], [("a", "0", "a"), ("a", "0", "a")], "a", ["a"])
        assert nfa.num_transitions == 1

    def test_equality_and_hash(self, even_zeros_dfa):
        clone = NFA(
            even_zeros_dfa.states,
            even_zeros_dfa.alphabet,
            even_zeros_dfa.transitions,
            even_zeros_dfa.initial,
            even_zeros_dfa.finals,
        )
        assert clone == even_zeros_dfa
        assert hash(clone) == hash(even_zeros_dfa)

    def test_inequality(self, even_zeros_dfa, abc_chain_nfa):
        assert even_zeros_dfa != abc_chain_nfa

    def test_epsilon_singleton_survives_pickle(self):
        assert pickle.loads(pickle.dumps(EPSILON)) is EPSILON


def _index_built(nfa: NFA) -> bool:
    try:
        NFA._delta.__get__(nfa, NFA)
    except AttributeError:
        return False
    return True


class TestLazyIndexes:
    def test_built_by_the_first_query_only(self, endswith_one_nfa):
        nfa = NFA(
            endswith_one_nfa.states,
            endswith_one_nfa.alphabet,
            endswith_one_nfa.transitions,
            endswith_one_nfa.initial,
            endswith_one_nfa.finals,
        )
        assert not _index_built(nfa)
        assert pickle.loads(pickle.dumps(nfa)) == nfa
        assert nfa.accepts(word("0101"))
        assert _index_built(nfa)
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            nfa.missing

    def test_complete_under_concurrent_first_use(self):
        """Threads racing to the first query of a shared automaton each
        see both indexes in full."""
        import random
        import sys
        import threading

        rng = random.Random(7)
        states = range(40)
        transitions = [
            (source, symbol, rng.randrange(40))
            for source in states
            for symbol in "abc"
            for _ in range(2)
        ]
        reference = NFA(states, "abc", transitions, 0, [1, 2])

        def answers(nfa):
            return [
                (nfa.successors(state, symbol), nfa.predecessors(state, symbol))
                for state in states
                for symbol in "abc"
            ]

        expected = answers(reference)
        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared = NFA(states, "abc", transitions, 0, [1, 2])
                barrier = threading.Barrier(workers)
                seen = []

                def query(shared=shared, barrier=barrier, seen=seen):
                    barrier.wait(timeout=10)
                    seen.append(answers(shared))

                threads = [threading.Thread(target=query) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(seen) == workers
                assert all(result == expected for result in seen)
        finally:
            sys.setswitchinterval(interval)


class TestWordHelpers:
    def test_word_from_string(self):
        assert word("abc") == ("a", "b", "c")

    def test_word_str_roundtrip(self):
        assert word_str(word("0110")) == "0110"

    def test_word_of_empty(self):
        assert word("") == ()


class TestAcceptance:
    def test_accepts_even_zeros(self, even_zeros_dfa):
        assert even_zeros_dfa.accepts(word("0101100"))  # 4 zeros... count: 0,1,0,1,1,0,0 -> 4 zeros
        assert not even_zeros_dfa.accepts(word("0"))
        assert even_zeros_dfa.accepts(word(""))

    def test_accepts_with_nondeterminism(self, endswith_one_nfa):
        assert endswith_one_nfa.accepts(word("0001"))
        assert endswith_one_nfa.accepts(word("1000"))
        assert not endswith_one_nfa.accepts(word("0000"))

    def test_rejects_symbol_not_in_alphabet_word(self, even_zeros_dfa):
        assert not even_zeros_dfa.accepts(word("2"))

    def test_epsilon_in_word_rejected(self, even_zeros_dfa):
        with pytest.raises(InvalidAutomatonError):
            even_zeros_dfa.accepts((EPSILON,))

    def test_empty_language(self):
        nfa = NFA.empty_language("01")
        for w in ["", "0", "1", "01"]:
            assert not nfa.accepts(word(w))

    def test_only_empty_word(self):
        nfa = NFA.only_empty_word("01")
        assert nfa.accepts(())
        assert not nfa.accepts(word("0"))

    def test_single_word(self):
        nfa = NFA.single_word(word("aba"))
        assert nfa.accepts(word("aba"))
        assert not nfa.accepts(word("ab"))
        assert not nfa.accepts(word("abab"))

    def test_full_language(self):
        nfa = NFA.full_language("ab")
        for w in ["", "a", "bbb", "abab"]:
            assert nfa.accepts(word(w))


class TestRuns:
    def test_count_accepting_runs_matches_enumeration(self, endswith_one_nfa):
        w = word("1101")
        runs = list(endswith_one_nfa.accepting_runs(w))
        assert len(runs) == endswith_one_nfa.count_accepting_runs(w)
        assert len(runs) == 3  # one per '1'

    def test_runs_are_valid(self, endswith_one_nfa):
        w = word("101")
        for run in endswith_one_nfa.accepting_runs(w):
            assert run[0] == endswith_one_nfa.initial
            assert run[-1] in endswith_one_nfa.finals
            for i, symbol in enumerate(w):
                assert run[i + 1] in endswith_one_nfa.successors(run[i], symbol)

    def test_run_limit(self, endswith_one_nfa):
        runs = list(endswith_one_nfa.accepting_runs(word("1111"), limit=2))
        assert len(runs) == 2

    def test_unambiguous_has_single_run(self, even_zeros_dfa):
        assert even_zeros_dfa.count_accepting_runs(word("0011")) == 1

    def test_runs_require_epsilon_free(self):
        nfa = NFA(["a", "b"], ["0"], [("a", EPSILON, "b")], "a", ["b"])
        with pytest.raises(InvalidAutomatonError):
            list(nfa.accepting_runs(()))


class TestEpsilonRemoval:
    def test_removal_preserves_language(self):
        nfa = NFA(
            ["s", "m", "f"],
            ["a", "b"],
            [("s", EPSILON, "m"), ("m", "a", "f"), ("s", "b", "f")],
            "s",
            ["f"],
        )
        stripped = nfa.without_epsilon()
        assert not stripped.has_epsilon
        for w in ["a", "b", "ab", ""]:
            assert nfa.accepts(word(w)) == stripped.accepts(word(w))

    def test_epsilon_to_final_makes_source_final(self):
        nfa = NFA(["s", "f"], ["a"], [("s", EPSILON, "f")], "s", ["f"])
        stripped = nfa.without_epsilon()
        assert stripped.accepts(())

    def test_epsilon_chain(self):
        nfa = NFA(
            ["1", "2", "3", "4"],
            ["a"],
            [("1", EPSILON, "2"), ("2", EPSILON, "3"), ("3", "a", "4")],
            "1",
            ["4"],
        )
        stripped = nfa.without_epsilon()
        assert stripped.accepts(word("a"))
        assert not stripped.accepts(())

    def test_noop_when_already_free(self, even_zeros_dfa):
        assert even_zeros_dfa.without_epsilon() is even_zeros_dfa


class TestStructure:
    def test_reachable_states(self):
        nfa = NFA(
            ["a", "b", "island"],
            ["0"],
            [("a", "0", "b"), ("island", "0", "island")],
            "a",
            ["b"],
        )
        assert nfa.reachable_states() == frozenset({"a", "b"})

    def test_coreachable_states(self):
        nfa = NFA(
            ["a", "b", "dead"],
            ["0"],
            [("a", "0", "b"), ("a", "0", "dead")],
            "a",
            ["b"],
        )
        assert nfa.coreachable_states() == frozenset({"a", "b"})

    def test_trim_removes_useless(self):
        nfa = NFA(
            ["a", "b", "dead", "island"],
            ["0"],
            [("a", "0", "b"), ("a", "0", "dead"), ("island", "0", "b")],
            "a",
            ["b"],
        )
        trimmed = nfa.trim()
        assert trimmed.states == frozenset({"a", "b"})
        assert trimmed.accepts(word("0"))

    def test_trim_empty_language(self):
        nfa = NFA(["a", "b"], ["0"], [("a", "0", "b")], "a", [])
        trimmed = nfa.trim()
        assert trimmed.num_states == 1
        assert not trimmed.finals

    def test_trim_preserves_language(self, endswith_one_nfa):
        trimmed = endswith_one_nfa.trim()
        for w in ["", "0", "1", "010", "111"]:
            assert trimmed.accepts(word(w)) == endswith_one_nfa.accepts(word(w))

    def test_renumbered_is_isomorphic(self, endswith_one_nfa):
        renamed = endswith_one_nfa.renumbered()
        assert renamed.num_states == endswith_one_nfa.num_states
        assert renamed.num_transitions == endswith_one_nfa.num_transitions
        for w in ["", "0", "1", "0101"]:
            assert renamed.accepts(word(w)) == endswith_one_nfa.accepts(word(w))

    def test_renumbered_initial_is_zero(self, even_zeros_dfa):
        assert even_zeros_dfa.renumbered().initial == 0

    def test_map_symbols(self, even_zeros_dfa):
        swapped = even_zeros_dfa.map_symbols({"0": "1", "1": "0"})
        # Swapping roles: now even number of '1's.
        assert swapped.accepts(word("11"))
        assert not swapped.accepts(word("1"))

    def test_map_symbols_rejects_non_injective(self, even_zeros_dfa):
        with pytest.raises(InvalidAutomatonError):
            even_zeros_dfa.map_symbols({"0": "x", "1": "x"})

    def test_is_deterministic(self, even_zeros_dfa, endswith_one_nfa):
        assert even_zeros_dfa.is_deterministic()
        assert not endswith_one_nfa.is_deterministic()

    def test_with_unique_final_preserves_language(self, endswith_one_nfa):
        unique = endswith_one_nfa.with_unique_final()
        assert not unique.has_epsilon
        for w in ["", "0", "1", "10", "0110"]:
            assert unique.accepts(word(w)) == endswith_one_nfa.accepts(word(w))

    def test_reachable_sets_by_layer(self, endswith_one_nfa):
        trajectory = endswith_one_nfa.reachable_sets_by_layer(word("01"))
        assert trajectory[0] == frozenset({"wait"})
        assert trajectory[1] == frozenset({"wait"})
        assert trajectory[2] == frozenset({"wait", "done"})
