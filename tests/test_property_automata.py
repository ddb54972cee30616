"""Hypothesis property tests for the automata substrate."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.automata.dfa import determinize, minimize
from repro.automata.nfa import EPSILON, NFA, word
from repro.automata.operations import intersection, union, words_of_length
from repro.automata.regex import compile_regex, match_brute_force, parse
from repro.automata.unambiguous import is_unambiguous
from repro.automata.encoding import BinaryEncodedNFA
from repro.core.exact import count_words_exact


@st.composite
def small_nfas(draw, max_states: int = 5):
    """Random small NFAs over {0,1} with arbitrary transition relations."""
    num_states = draw(st.integers(1, max_states))
    states = list(range(num_states))
    transitions = []
    for source in states:
        for symbol in "01":
            targets = draw(
                st.lists(st.sampled_from(states), max_size=2, unique=True)
            )
            transitions.extend((source, symbol, target) for target in targets)
    finals = draw(st.lists(st.sampled_from(states), max_size=num_states, unique=True))
    return NFA(states, "01", transitions, 0, finals)


@st.composite
def epsilon_nfas(draw, max_states: int = 4):
    """Small NFAs over {0,1} with ε-transitions and a dead sink state."""
    num_states = draw(st.integers(1, max_states))
    states = list(range(num_states))
    targets_of = st.lists(st.sampled_from(states + ["dead"]), max_size=2, unique=True)
    transitions = []
    for source in states:
        for symbol in ("0", "1", EPSILON):
            transitions.extend((source, symbol, target) for target in draw(targets_of))
    finals = draw(st.lists(st.sampled_from(states), max_size=num_states, unique=True))
    return NFA(states + ["dead"], "01", transitions, 0, finals)


def classical_product(left: NFA, right: NFA) -> NFA:
    """The textbook intersection: every pair of states of the ε-free
    operands, every pair of same-symbol transitions, then trim."""
    a = left.without_epsilon()
    b = right.without_epsilon()
    return NFA(
        [(p, q) for p in a.states for q in b.states],
        a.alphabet & b.alphabet,
        [
            ((p, q), symbol, (p_next, q_next))
            for p, symbol, p_next in a.transitions
            for q, other, q_next in b.transitions
            if symbol == other
        ],
        (a.initial, b.initial),
        [(p, q) for p in a.finals for q in b.finals],
    ).trim()


@st.composite
def regex_asts(draw, depth: int = 3):
    """Random regex patterns over {a, b} of bounded depth."""
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "(a)", "[ab]"]))
    left = draw(regex_asts(depth=depth - 1))
    right = draw(regex_asts(depth=depth - 1))
    shape = draw(st.sampled_from(["concat", "union", "star", "optional", "plus"]))
    if shape == "concat":
        return f"{left}{right}"
    if shape == "union":
        return f"({left}|{right})"
    if shape == "star":
        return f"({left})*"
    if shape == "optional":
        return f"({left})?"
    return f"({left})+"


binary_words = st.lists(st.sampled_from("01"), max_size=5).map(tuple)
ab_words = st.lists(st.sampled_from("ab"), max_size=5).map(tuple)


class TestDeterminizationProperties:
    @given(small_nfas(), binary_words)
    @settings(max_examples=60, deadline=None)
    def test_determinize_preserves_membership(self, nfa, w):
        assert determinize(nfa).accepts(w) == nfa.accepts(w)

    @given(small_nfas(), binary_words)
    @settings(max_examples=60, deadline=None)
    def test_minimize_preserves_membership(self, nfa, w):
        assert minimize(determinize(nfa)).accepts(w) == nfa.accepts(w)

    @given(small_nfas())
    @settings(max_examples=40, deadline=None)
    def test_determinized_is_unambiguous(self, nfa):
        assert is_unambiguous(determinize(nfa).to_nfa())


class TestAlgebraProperties:
    @given(small_nfas(max_states=4), small_nfas(max_states=4), binary_words)
    @settings(max_examples=60, deadline=None)
    def test_union_membership(self, a, b, w):
        assert union(a, b).accepts(w) == (a.accepts(w) or b.accepts(w))

    @given(small_nfas(max_states=4), small_nfas(max_states=4), binary_words)
    @settings(max_examples=60, deadline=None)
    def test_intersection_membership(self, a, b, w):
        assert intersection(a, b).accepts(w) == (a.accepts(w) and b.accepts(w))

    @given(epsilon_nfas(), epsilon_nfas())
    @settings(max_examples=80, deadline=None)
    def test_intersection_is_the_classical_product(self, a, b):
        assert intersection(a, b) == classical_product(a, b)

    @given(small_nfas(max_states=4))
    @settings(max_examples=30, deadline=None)
    def test_trim_preserves_counts(self, nfa):
        trimmed = nfa.trim()
        for n in range(4):
            assert count_words_exact(nfa, n) == count_words_exact(trimmed, n)


class TestRegexProperties:
    @given(regex_asts(), ab_words)
    @settings(max_examples=80, deadline=None)
    def test_glushkov_matches_brute_force(self, pattern, w):
        ast = parse(pattern)
        nfa = compile_regex(pattern, alphabet="ab", method="glushkov")
        assert nfa.accepts(w) == match_brute_force(ast, w, frozenset("ab"))

    @given(regex_asts(), ab_words)
    @settings(max_examples=80, deadline=None)
    def test_thompson_matches_brute_force(self, pattern, w):
        ast = parse(pattern)
        nfa = compile_regex(pattern, alphabet="ab", method="thompson")
        assert nfa.accepts(w) == match_brute_force(ast, w, frozenset("ab"))

    @given(regex_asts())
    @settings(max_examples=40, deadline=None)
    def test_methods_count_identically(self, pattern):
        g = compile_regex(pattern, alphabet="ab", method="glushkov")
        t = compile_regex(pattern, alphabet="ab", method="thompson")
        for n in range(4):
            assert count_words_exact(g, n) == count_words_exact(t, n)


class TestEncodingProperties:
    @given(small_nfas(max_states=4))
    @settings(max_examples=30, deadline=None)
    def test_binary_encoding_preserves_counts(self, nfa):
        # Use a 3-symbol alphabet to force nontrivial codewords.
        widened = NFA(
            nfa.states,
            "012",
            list(nfa.transitions) + [(0, "2", 0)],
            nfa.initial,
            nfa.finals,
        )
        encoded = BinaryEncodedNFA(widened)
        for n in range(3):
            assert count_words_exact(widened, n) == count_words_exact(
                encoded.nfa, encoded.encoded_length(n)
            )
