"""``NFA.trim`` against its definition, and what trimming first shares.

The trimmed automaton keeps the useful states: those reachable from the
initial state (over any symbol, ε included) from which a final state is
reachable.  The reference below computes both sets as fixpoints over
all transitions, independently of the implementation's walks.  An
automaton whose initial state is useless trims to the canonical empty
automaton: its initial state alone, with no transition and no final.

A witness set with a store fingerprints its trimmed automaton, so an
automaton padded with useless states shares the stored artifacts of its
bare automaton.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.api import WitnessSet
from repro.automata.nfa import EPSILON, NFA
from repro.service.store import KernelStore


def fixpoint(start, edges):
    """Every state reachable from ``start`` along ``(from, to)`` edges."""
    found = set(start)
    while True:
        more = {to for frm, to in edges if frm in found} - found
        if not more:
            return found
        found |= more


def useful_states(nfa: NFA) -> set:
    edges = [(source, target) for source, _, target in nfa.transitions]
    reach = fixpoint({nfa.initial}, edges)
    coreach = fixpoint(nfa.finals, [(target, source) for source, target in edges])
    return reach & coreach


def reference_trim(nfa: NFA) -> NFA:
    useful = useful_states(nfa)
    if nfa.initial not in useful:
        return NFA([nfa.initial], nfa.alphabet, [], nfa.initial, [])
    transitions = [
        (source, symbol, target)
        for source, symbol, target in nfa.transitions
        if source in useful and target in useful
    ]
    return NFA(useful, nfa.alphabet, transitions, nfa.initial, nfa.finals & useful)


def index_built(nfa: NFA) -> bool:
    built = []
    for slot in (NFA._delta, NFA._rdelta):
        try:
            slot.__get__(nfa, NFA)
        except AttributeError:
            built.append(False)
        else:
            built.append(True)
    assert built[0] == built[1], "the two indexes are published together"
    return built[0]


@st.composite
def automata(draw):
    """Random automata over a few int and tuple states, with ε-moves,
    usually some dead and some unreachable states, and at times a
    useless initial state."""
    states = list(range(draw(st.integers(1, 7)))) + draw(
        st.lists(st.tuples(st.sampled_from("xy"), st.integers(0, 2)), max_size=2, unique=True)
    )
    edge = st.tuples(
        st.sampled_from(states), st.sampled_from(["a", "b", EPSILON]), st.sampled_from(states)
    )
    transitions = draw(st.lists(edge, max_size=16))
    finals = draw(st.lists(st.sampled_from(states), max_size=3))
    return NFA(states, "ab", transitions, draw(st.sampled_from(states)), finals)


class TestTrim:
    @settings(max_examples=400, deadline=None)
    @given(nfa=automata())
    def test_trim_is_reach_and_coreach(self, nfa):
        assert nfa.trim() == reference_trim(nfa)

    @settings(max_examples=200, deadline=None)
    @given(nfa=automata())
    def test_trimmed_input_is_returned_as_it_is(self, nfa):
        assert (nfa.trim() is nfa) == (useful_states(nfa) == nfa.states)
        trimmed = nfa.trim()
        if trimmed.finals:  # not the empty automaton, so every state is useful
            assert trimmed.trim() is trimmed

    @settings(max_examples=200, deadline=None)
    @given(nfa=automata())
    def test_trimming_builds_no_index(self, nfa):
        fresh = NFA(nfa.states, nfa.alphabet, nfa.transitions, nfa.initial, nfa.finals)
        trimmed = fresh.trim()
        assert not index_built(fresh) and not index_built(trimmed)

    def test_useless_initial_gives_the_empty_automaton(self):
        nfa = NFA([0, 1, 2], "ab", [(0, "a", 1), (2, "b", 0)], 0, [2])
        trimmed = nfa.trim()
        assert trimmed == NFA([0], "ab", [], 0, [])
        assert trimmed == reference_trim(nfa)


def bare_automaton() -> NFA:
    """Words over {a, b} with an even number of a's, in an unambiguous DFA."""
    return NFA(
        ["even", "odd"],
        "ab",
        [("even", "a", "odd"), ("odd", "a", "even"), ("even", "b", "even"), ("odd", "b", "odd")],
        "even",
        ["even"],
    )


def padded_automaton() -> NFA:
    """The bare automaton with a dead state it reaches and a state that
    reaches it but is unreachable."""
    bare = bare_automaton()
    transitions = set(bare.transitions) | {("odd", "b", "dead"), ("dead", "a", "dead")}
    transitions |= {("island", "a", "even")}
    return NFA(
        bare.states | {"dead", "island"}, "ab", transitions, "even", bare.finals
    )


class TestTrimmedFingerprint:
    def test_padding_keeps_the_fingerprint(self):
        padded = WitnessSet.from_nfa(padded_automaton(), 6, store=False)
        bare = WitnessSet.from_nfa(bare_automaton(), 6, store=False)
        assert padded.nfa != bare.nfa
        assert padded.fingerprint() == bare.fingerprint()

    def test_padded_automaton_reads_the_bare_automatons_kernel(self, tmp_path):
        root = tmp_path / "kernels"
        cold = WitnessSet.from_nfa(bare_automaton(), 6, store=KernelStore(root))
        count = cold.count()
        assert count == 32

        store = KernelStore(root)
        warm = WitnessSet.from_nfa(padded_automaton(), 6, store=store)
        assert warm.count() == count
        assert store.stats.hits == 1 and store.stats.misses == 0
        assert warm._lowering_seconds == 0.0
