"""Golden fingerprints: the store keys of existing kernel stores.

A :class:`~repro.service.store.KernelStore` is addressed by
:func:`~repro.service.fingerprint.fingerprint_source`, so any change to
the canonical text of a source orphans every kernel already on disk.
This module pins the SHA-256 fingerprint of one source per route into
the canonicalizer: NFAs (built directly and from ``repro.nfa``
documents), ε-NFAs, every plan node, RPQs, spanners, and an automaton
whose atoms are equal in Python but canonically distinct (``1``,
``True`` and ``1.0``; ``0.0`` and ``-0.0``; tuples and frozensets that
hold them).  It also pins the fingerprint of the witness set one wire
spec of each kind builds: a store aliases spec keys to those, so they
move only with ``SPEC_VERSION``.
"""

from __future__ import annotations

import json
import random

from repro.api import WitnessSet
from repro.automata.nfa import EPSILON, NFA
from repro.automata.regex import parse, thompson
from repro.automata.serialization import nfa_from_document, nfa_from_json, nfa_to_json
from repro.core.plan import Concat, Product, Relabel, Star, Union
from repro.graphdb.graph import graph_to_json, grid_graph
from repro.service.fingerprint import fingerprint_source
from repro.service.protocol import witness_set_from_spec
from repro.spanners.eva import extraction_eva


def _document(states, alphabet, transitions, initial, finals) -> dict:
    return {
        "format": "repro.nfa",
        "version": 1,
        "states": list(states),
        "alphabet": list(alphabet),
        "initial": initial,
        "finals": sorted(finals),
        "transitions": [list(t) for t in transitions],
    }


def _random_partial_dfa(seed: int, m: int, alphabet: str, completeness: float) -> dict:
    """A seeded random partial DFA document: int states, str symbols."""
    rng = random.Random(seed)
    transitions = [
        (s, a, rng.randrange(m))
        for s in range(m)
        for a in alphabet
        if rng.random() < completeness
    ]
    finals = rng.sample(range(m), max(1, round(0.3 * m)))
    return _document(range(m), alphabet, transitions, 0, finals)


def _trapdoor_dfa(seed: int, modulus: int, symbols: int, live: int) -> dict:
    """A complete rolling-hash DFA with a dead mirror: int states, int symbols."""
    rng = random.Random(seed)
    mult = rng.randrange(2, modulus - 1)
    period = symbols // live
    offset = rng.randrange(period)
    transitions = []
    for c in range(modulus):
        for i in range(symbols):
            target = (mult * c + i) % modulus
            transitions.append((2 * c, i, 2 * target))
            alive = (c + i) % period == offset
            transitions.append((2 * c + 1, i, 2 * target + 1 if alive else 2 * target))
    return _document(
        range(2 * modulus), range(symbols), transitions, 1, range(1, 2 * modulus, 2)
    )


def _mixed_atoms() -> NFA:
    """Atoms that compare equal in Python but canonicalize differently."""
    states = [
        1,
        "é",
        (1.0, None),
        (True, 2.5, None),
        (0.0, "ü"),
        ((False, -0.0), ("x", 1)),
        "日本",
    ]
    alphabet = [True, "ñ", -0.0, frozenset({1, "b"}), (1.0, "z"), 0]
    transitions = [
        (1, True, "é"),
        (1, EPSILON, (1.0, None)),
        ("é", "ñ", (True, 2.5, None)),
        ("é", 0, 1),
        ((1.0, None), -0.0, (0.0, "ü")),
        ((True, 2.5, None), frozenset({1, "b"}), ((False, -0.0), ("x", 1))),
        ((0.0, "ü"), (1.0, "z"), "日本"),
        (((False, -0.0), ("x", 1)), True, 1),
        ("日本", EPSILON, "é"),
        ("日本", 0, "日本"),
    ]
    return NFA(states, alphabet, transitions, 1, ["日本", (0.0, "ü")])


def _sources() -> dict:
    long_doc = _random_partial_dfa(2019, 40, "abc", 0.6)
    wide_doc = _trapdoor_dfa(621, 13, 16, 4)
    left = nfa_from_document(_random_partial_dfa(11, 12, "ab", 0.85))
    right = nfa_from_document(_random_partial_dfa(12, 12, "ab", 0.85))
    regex = thompson(parse("(a|b)*a(b|c)?(ab)*"), "abc")
    return {
        "partial_dfa": nfa_from_document(long_doc),
        "trapdoor_dfa": nfa_from_document(wide_doc),
        "intersection": Product(left, right),
        "regex_epsilon": regex,
        "rpq": WitnessSet.from_rpq(
            grid_graph(3, 3), "(r|d)*", (0, 0), (2, 2), 4, store=False
        ).plan,
        "spanner": WitnessSet.from_spanner(
            extraction_eva("ab", "V", content_symbols="cd", alphabet="abcd"),
            "cabdcab",
            store=False,
        ).plan,
        "union": Union(left, regex),
        "concat": Concat(regex, "(ab|ba)*"),
        "star": Star(right),
        "relabel": Relabel(left, {"a": ("x", 1), "b": True}),
        "mixed_atoms": _mixed_atoms(),
    }


#: name → SHA-256 fingerprint recorded before per-atom memoization.
GOLDEN = {
    "partial_dfa": "320ee1d63b425d7b10bcc425b6574ffd345238998d0c2b356139477e45c61714",
    "trapdoor_dfa": "a56789a7c66dc0a813f7bde7825e929a5c317cd5b81baea036afa720bd809748",
    "intersection": "34cd26adfb73982f2c56a1407843571de2acbb618b91e59f6e7053b76630946e",
    "regex_epsilon": "725843a3d49a99f302d780cdc4d47a0c25902942053140a64e650158000fdec7",
    "rpq": "28963bc7c03a6dbeaba5abdf36e9585875576e03601f15a50b6c421097d91b88",
    "spanner": "c9806422caac6c14be3ec5bb0bfd463fdd9169390e917025038ce41b1345ccde",
    "union": "d8919c725f198e190385301d2f1784ad2200ca71eb41b8e1320f962f0c4e547d",
    "concat": "458a89b383b0f5eabaa6b34229685dcf7d06aad8bdd20eb0f31011d6147ff955",
    "star": "006ccd6adafd3ff8de8e80c4a953d11b4dd201005b9e831f249a036a045041bd",
    "relabel": "7236d4c1a466481d0a6cd206aa6bf22633c05bc1f0c3c22a79f94692a4033153",
    "mixed_atoms": "30ae868018d54d20f90130a87bfb00a3a6b6def49dbf3cba2ef6c9e088299733",
}


def test_fingerprints_match_golden():
    digests = {name: fingerprint_source(source) for name, source in _sources().items()}
    assert digests == GOLDEN


def test_document_round_trip_keeps_the_digest():
    mixed = _mixed_atoms()
    assert fingerprint_source(nfa_from_json(nfa_to_json(mixed))) == GOLDEN["mixed_atoms"]


def test_equal_atoms_of_different_types_get_different_digests():
    # The states 0 and 1 are canonicalized first; a memo keyed by value
    # alone would then hand the symbols False and True their forms.
    def flip(alphabet):
        zero, one = alphabet
        return NFA([0, 1], alphabet, [(0, one, 1), (1, zero, 0)], 0, [1])

    assert fingerprint_source(flip([False, True])) != fingerprint_source(flip([0, 1]))
    assert fingerprint_source(flip([0.0, 1.0])) != fingerprint_source(flip([0, 1]))
    assert fingerprint_source(flip([-0.0, 1.0])) != fingerprint_source(flip([0.0, 1.0]))


def _specs() -> dict:
    """One wire spec of each kind: what ``witness_set_from_spec`` builds."""
    return {
        "regex": {"kind": "regex", "pattern": "(ab|ba)*(a|b)?", "alphabet": "ab", "n": 9},
        "nfa": {"kind": "nfa", "nfa": _random_partial_dfa(3, 20, "ab", 0.9), "n": 8},
        "intersection": {
            "kind": "intersection",
            "left": {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab"},
            "right": {"kind": "nfa", "nfa": _random_partial_dfa(11, 12, "ab", 0.85)},
            "n": 10,
        },
        "dnf": {"kind": "dnf", "formula": "x0 & x2 | !x1 & x3"},
        "cfg": {"kind": "cfg", "grammar": "S -> A B | a\nA -> a\nB -> b", "n": 2},
        "rpq": {
            "kind": "rpq",
            "graph": json.loads(graph_to_json(grid_graph(3, 3))),
            "pattern": "(r|d)*",
            "source": {"§tuple": [0, 0]},
            "target": {"§tuple": [2, 2]},
            "n": 4,
        },
    }


#: spec kind → fingerprint of the witness set the spec builds.
SPEC_GOLDEN = {
    "regex": "7d6b2d2f62160bd4d18afc311d6aade44d37b4af6e668fc9f9cbece9387c40b8",
    "nfa": "b8996eef0fd130ddeaceae9947a5cf85e689d8fbfedc50a550323837a3e73813",
    "intersection": "bfd2fc63d619f64e9256a6064d85c077880f0faeb7e0228886f5bd252f0ef819",
    "dnf": "0b64e97522dfc178aa02512409ec0240479beba1ed7292e9060f709ac5c3adb0",
    "cfg": "a16b392e5ae513d43615db6f727c1db55d6a164a690b0affb54bf90b1c95033f",
    "rpq": "28963bc7c03a6dbeaba5abdf36e9585875576e03601f15a50b6c421097d91b88",
}


def test_spec_fingerprints_match_golden():
    """A kernel store aliases each spec key to the fingerprint the spec
    builds, and a restart trusts that alias without building the
    automaton.  So a change here means stored aliases now point at
    another automaton's kernels."""
    digests = {
        kind: witness_set_from_spec(spec).fingerprint()
        for kind, spec in _specs().items()
    }
    assert digests == SPEC_GOLDEN, (
        "a spec now builds a different automaton: bump SPEC_VERSION in "
        "repro/service/protocol.py so stored aliases stop pointing at the "
        "old automaton's kernels, then record the new digests here"
    )
