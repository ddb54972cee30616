"""The fingerprint's hashed text and its ranked row sort.

``fingerprint_source`` writes the hashed JSON text directly, joining
sets and rows from each atom's memoized text.  The reference below is
the path that text replaces, copied here: build the canonical structure
as nested lists, sort every set and row list by its items'
``json.dumps(item, sort_keys=True)`` keys, and hash one compact
``json.dumps`` of the whole structure.  Both must give the same digest
for automata whose atoms are equal in Python but not canonically (``1``,
``True`` and ``1.0``; ``0.0`` and ``-0.0``; ``(1, 2)``, ``(True, 2)``
and ``(1.0, 2)``), non-ASCII strings, nested tuples, frozensets, and for
every plan node.  Exact atoms, ints and strings and tuples of them, are
canonicalized once and memoized by value; the tuples of other types
beside them check that the memo never hands an equal atom another's
texts.

``_Canonicalizer.sorted_rows`` sorts rows of one length whose atoms are
all exactly ``int`` or ``str`` by the ranks of their atoms' sort keys,
and every other call by each row's key text.  The oracle is the
reference's string-key sort.  Outputs are compared as JSON text, so
``1``, ``True`` and ``1.0`` never pass for one another.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.api import WitnessSet
from repro.automata import NFA
from repro.automata.nfa import EPSILON
from repro.core.plan import (
    Atom,
    Concat,
    DocProduct,
    GraphProduct,
    Plan,
    Product,
    Relabel,
    Star,
    Union,
)
from repro.graphdb.graph import grid_graph
from repro.service.fingerprint import (
    FINGERPRINT_VERSION,
    FingerprintError,
    _Canonicalizer,
    fingerprint_source,
)
from repro.spanners.eva import extraction_eva

# ----------------------------------------------------------------------
# The reference: the canonical structure as nested lists, then one dump.
# ----------------------------------------------------------------------


def reference_key(canon) -> str:
    return json.dumps(canon, sort_keys=True)


def compact(structure) -> str:
    """The hashed text of a canonical structure."""
    return json.dumps(
        structure, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


def reference_canon(value):
    if value is EPSILON:
        return ["ε"]
    if isinstance(value, tuple):
        return ["t", [reference_canon(item) for item in value]]
    if isinstance(value, (frozenset, set)):
        return ["s", reference_atoms(value)]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, (str, int, float)) or value is None:
        return ["a", value]
    raise FingerprintError(f"cannot fingerprint {value!r}")


def reference_atoms(values):
    return sorted(map(reference_canon, values), key=reference_key)


def reference_rows(rows):
    """The rows' canonical forms in the order of their key texts, each
    atom's key serialized here from its canonical form."""
    keyed = []
    for row in rows:
        canons = [reference_canon(value) for value in row]
        keyed.append(("[" + ", ".join(map(reference_key, canons)) + "]", canons))
    keyed.sort(key=itemgetter(0))
    return [canons for _, canons in keyed]


def reference_nfa(nfa):
    return [
        "nfa",
        reference_atoms(nfa.states),
        reference_atoms(nfa.alphabet),
        reference_canon(nfa.initial),
        reference_atoms(nfa.finals),
        reference_rows(nfa.transitions),
    ]


def reference_plan(plan):
    if isinstance(plan, Atom):
        return ["atom", reference_nfa(plan.nfa)]
    if isinstance(plan, Product):
        return ["product", reference_plan(plan.left), reference_plan(plan.right)]
    if isinstance(plan, Union):
        return ["union", reference_plan(plan.left), reference_plan(plan.right)]
    if isinstance(plan, Concat):
        return ["concat", reference_plan(plan.left), reference_plan(plan.right)]
    if isinstance(plan, Star):
        return ["star", reference_plan(plan.child)]
    if isinstance(plan, Relabel):
        return ["relabel", reference_plan(plan.child), reference_rows(plan.mapping.items())]
    if isinstance(plan, GraphProduct):
        graph = plan.graph
        return [
            "graphproduct",
            ["graph", reference_atoms(graph.vertices), reference_rows(graph.edges)],
            reference_nfa(plan.query),
            reference_canon(plan.source),
            reference_canon(plan.target),
        ]
    if isinstance(plan, DocProduct):
        eva = plan.eva
        structure = [
            "eva",
            reference_atoms(eva.states),
            reference_canon(eva.initial),
            reference_atoms(eva.finals),
            reference_rows((t.source, t.symbol, t.target) for t in eva.letter),
            reference_rows((t.source, t.markers, t.target) for t in eva.variable),
            reference_atoms(eva.variables),
        ]
        return ["docproduct", structure, plan.document]
    return ["custom", type(plan).__name__, plan.fingerprint_payload()]


def reference_fingerprint(source) -> str:
    inner = reference_nfa(source) if isinstance(source, NFA) else reference_plan(source)
    canonical = ["repro.fingerprint", FINGERPRINT_VERSION, inner]
    text = json.dumps(
        canonical,
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
        check_circular=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------

TRICKY_STRINGS = ['"', "\\", 'a"b', "a\\b", "\n", "é", "ß", "日本", "ε", "", "1", "10", "-1", "[", "]", ", "]

exact_atoms = st.one_of(
    st.sampled_from([1, 10, -1, 0, 2, 11, 100, -10]),
    st.integers(-(2**70), 2**70),
    st.sampled_from(TRICKY_STRINGS),
    st.text(max_size=4),
)

scalar_atoms = st.one_of(
    exact_atoms,
    st.booleans(),
    st.sampled_from([1.0, 0.0, -0.0, 10.0, -1.5]),
    st.none(),
)

#: Tuples equal in Python but not canonically, flat and nested.
EQUAL_TUPLES = [(1, 2), (True, 2), (1.0, 2), ((1, 2), "a"), ((True, 2), "a"), ((1.0, 2), "a")]

any_atoms = st.one_of(
    scalar_atoms,
    st.tuples(scalar_atoms, scalar_atoms),
    st.tuples(exact_atoms, st.tuples(exact_atoms, exact_atoms)),
    st.sampled_from(EQUAL_TUPLES),
    st.frozensets(exact_atoms, max_size=2),
    st.frozensets(scalar_atoms, max_size=3),
)


class TestRankedRows:
    @settings(max_examples=300, deadline=None)
    @given(value=any_atoms)
    def test_atom_keys_are_their_json_text(self, value):
        text, key = _Canonicalizer().atom(value)
        canon = reference_canon(value)
        assert key == reference_key(canon)
        assert text == compact(canon)

    @settings(max_examples=300, deadline=None)
    @given(length=st.integers(0, 4), data=st.data())
    def test_exact_rows_sort_as_their_key_texts(self, length, data):
        rows = data.draw(st.lists(st.tuples(*[exact_atoms] * length), max_size=30))
        assert _Canonicalizer().sorted_rows(rows) == compact(reference_rows(rows))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(any_atoms, max_size=4).map(tuple), max_size=30))
    def test_any_rows_sort_as_their_key_texts(self, rows):
        assert _Canonicalizer().sorted_rows(rows) == compact(reference_rows(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(exact_atoms, exact_atoms), max_size=30), extra=any_atoms)
    def test_one_other_atom_sorts_every_row_by_text(self, rows, extra):
        rows = rows + [(extra, 1)]
        assert _Canonicalizer().sorted_rows(rows) == compact(reference_rows(rows))

    def test_rows_of_two_lengths_sort_by_text(self):
        # "[k1]" sorts after "[k1, k2]" (']' > ','), unlike the tuples.
        rows = [(1,), (1, 2), ("a",), ("a", "b")]
        assert _Canonicalizer().sorted_rows(rows) == compact(reference_rows(rows))
        assert _Canonicalizer().sorted_rows(rows) == compact(
            [[["a", "a"], ["a", "b"]], [["a", "a"]], [["a", 1], ["a", 2]], [["a", 1]]]
        )

    def test_an_automaton_fingerprints_as_by_key_text(self, monkeypatch):
        nfa = NFA(
            [0, 1, 10, "q", 'q"', "é"],
            ["a", "b", 1, 10],
            [(0, "a", 1), (1, "b", 10), (10, 1, "q"), ("q", 10, 'q"'), ('q"', "a", "é"), ("é", "b", 0)],
            0,
            ["é", 10],
        )
        ranked = fingerprint_source(nfa)
        assert ranked == reference_fingerprint(nfa)
        monkeypatch.setattr(
            _Canonicalizer, "sorted_rows", lambda self, rows: compact(reference_rows(rows))
        )
        assert fingerprint_source(nfa) == ranked


# ----------------------------------------------------------------------
# Whole sources: the written text hashes as the dumped structure
# ----------------------------------------------------------------------


@st.composite
def automata(draw, states=any_atoms, symbols=scalar_atoms):
    """Small automata over mixed atoms, with ε-moves."""
    state_list = draw(st.lists(states, min_size=1, max_size=6))
    alphabet = draw(st.lists(symbols, min_size=1, max_size=4))
    edge = st.tuples(
        st.sampled_from(state_list),
        st.sampled_from(alphabet + [EPSILON]),
        st.sampled_from(state_list),
    )
    transitions = draw(st.lists(edge, max_size=12))
    finals = draw(st.lists(st.sampled_from(state_list), max_size=3))
    return NFA(state_list, alphabet, transitions, state_list[0], finals)


#: Plan leaves over one alphabet, so any two combine.
leaves = automata(symbols=st.sampled_from(["a", "b", 1, True, 1.0, -0.0, "é"])).map(Atom)


def relabelled(child):
    mapping = {symbol: ("r", index) for index, symbol in enumerate(child.alphabet)}
    return Relabel(child, mapping)


plans = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Product, children, children),
        st.builds(Union, children, children),
        st.builds(Concat, children, children),
        st.builds(Star, children),
        children.map(relabelled),
    ),
    max_leaves=4,
)


class Custom(Plan):
    """A user plan node that serializes itself."""

    def __init__(self, payload) -> None:
        self.payload = payload

    def fingerprint_payload(self):
        return self.payload


class TestHashedText:
    @settings(max_examples=200, deadline=None)
    @given(nfa=automata())
    def test_automata_hash_as_the_reference(self, nfa):
        assert fingerprint_source(nfa) == reference_fingerprint(nfa)

    @settings(max_examples=100, deadline=None)
    @given(plan=plans)
    def test_plans_hash_as_the_reference(self, plan):
        assert fingerprint_source(plan) == reference_fingerprint(plan)

    def test_every_route_hashes_as_the_reference(self):
        left = NFA([0, 1], "ab", [(0, "a", 1), (1, "b", 0)], 0, [1])
        sources = [
            WitnessSet.from_rpq(grid_graph(3, 3), "(r|d)*", (0, 0), (2, 2), 4, store=False).plan,
            WitnessSet.from_spanner(
                extraction_eva("ab", "V", content_symbols="cd", alphabet="abcd"),
                "cabdcab",
                store=False,
            ).plan,
            Custom({"zé": [1, True, 1.0, -0.0, None], "a": {"日本": "ε"}}),
            Product(Custom(["x", 2]), Relabel(left, {"a": (1.0, "z"), "b": frozenset({1, "b"})})),
        ]
        for source in sources:
            assert fingerprint_source(source) == reference_fingerprint(source)
