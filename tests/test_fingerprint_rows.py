"""The fingerprint's ranked row sort orders rows as the string-key sort does.

``_Canonicalizer.sorted_rows`` sorts rows of one length whose atoms are
all exactly ``int`` or ``str`` by the ranks of their atoms' sort keys,
and every other call by each row's key text.  The oracle below is that
string-key sort, copied from the canonicalizer: a row's key is
``"[" + ", ".join(atom keys) + "]"``, the ``json.dumps(row,
sort_keys=True)`` text, with each atom's key serialized here from its
canonical form.  Outputs are compared as JSON text, so ``1``, ``True``
and ``1.0`` never pass for one another.
"""

from __future__ import annotations

import json
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.automata import NFA
from repro.service.fingerprint import _Canonicalizer, fingerprint_source


def string_key_rows(rows):
    """The rows' canonical forms in the order of their key texts, each
    atom's key serialized here from its canonical form."""
    atom = _Canonicalizer().atom
    keyed = []
    for row in rows:
        canons = []
        keys = []
        for value in row:
            canon = atom(value)[0]
            canons.append(canon)
            keys.append(json.dumps(canon, sort_keys=True))
        keyed.append(("[" + ", ".join(keys) + "]", canons))
    keyed.sort(key=itemgetter(0))
    return [canons for _, canons in keyed]


def text(rows):
    return json.dumps(rows, sort_keys=True, ensure_ascii=False)


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

any_atoms = st.one_of(scalar_atoms, st.tuples(scalar_atoms, scalar_atoms), st.frozensets(exact_atoms, max_size=2))


class TestRankedRows:
    @settings(max_examples=300, deadline=None)
    @given(value=any_atoms)
    def test_atom_keys_are_their_json_text(self, value):
        canon, key = _Canonicalizer().atom(value)
        assert key == json.dumps(canon, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(length=st.integers(0, 4), data=st.data())
    def test_exact_rows_sort_as_their_key_texts(self, length, data):
        rows = data.draw(st.lists(st.tuples(*[exact_atoms] * length), max_size=30))
        assert text(_Canonicalizer().sorted_rows(rows)) == text(string_key_rows(rows))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(any_atoms, max_size=4).map(tuple), max_size=30))
    def test_any_rows_sort_as_their_key_texts(self, rows):
        assert text(_Canonicalizer().sorted_rows(rows)) == text(string_key_rows(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(exact_atoms, exact_atoms), max_size=30), extra=any_atoms)
    def test_one_other_atom_sorts_every_row_by_text(self, rows, extra):
        rows = rows + [(extra, 1)]
        assert text(_Canonicalizer().sorted_rows(rows)) == text(string_key_rows(rows))

    def test_rows_of_two_lengths_sort_by_text(self):
        # "[k1]" sorts after "[k1, k2]" (']' > ','), unlike the tuples.
        rows = [(1,), (1, 2), ("a",), ("a", "b")]
        assert text(_Canonicalizer().sorted_rows(rows)) == text(string_key_rows(rows))
        assert text(_Canonicalizer().sorted_rows(rows)) == text(
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
        monkeypatch.setattr(_Canonicalizer, "sorted_rows", lambda self, rows: string_key_rows(rows))
        assert fingerprint_source(nfa) == ranked
