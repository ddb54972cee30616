"""Stable content fingerprints for automata and symbolic plans.

The :class:`~repro.service.store.KernelStore` is content-addressed: two
processes that compile the same instance must agree on its key without
talking to each other.  Python's builtin ``hash`` is randomized per
process and ``repr`` of sets is hash-ordered, so neither is usable.
This module writes an automaton / plan as deterministic JSON text
(every state and symbol as a tagged atom; every set sorted by its
canonical encoding) and hashes that with SHA-256.

The hashed text is the compact JSON (``separators=(",", ":")``,
``ensure_ascii=False``, object keys sorted) of the canonical structure
``["repro.fingerprint", FINGERPRINT_VERSION, source]``, where an NFA is
``["nfa", states, alphabet, initial, finals, transitions]`` and an atom
is tagged (``["a", 1]``, ``["b", true]``, ``["t", [...]]``,
``["s", [...]]``, ``["ε"]``).  It is written directly, not built as
nested lists and serialized: sets and rows are joined from the texts of
their atoms.

Each distinct state or symbol is canonicalized once per call: a
per-call memo holds two texts of every atom whose type is exactly
``int`` or ``str``, its compact text and its sort key.  Other atoms are
canonicalized at each occurrence and never memoized, because some of
them are equal in Python but not canonically (``1``, ``True`` and
``1.0``; ``0.0`` and ``-0.0``; tuples and frozensets holding them), so
a memo keyed by value would hand one the other's texts.

Sort keys order sets and transition lists.  A key is the
``json.dumps(item, sort_keys=True)`` text (default separators,
ASCII-escaped).  A row's key is assembled from its atoms' keys as
``"[" + k1 + ", " + k2 + ", " + k3 + "]"``, the same text without
serializing the row.

The fingerprint covers the *language source* only — not the witness
length ``n`` and not the trimmed/reachable mode; the store composes
those into the storage key, so one source shares a fingerprint across
all its compilations.  :meth:`repro.api.WitnessSet.fingerprint` hashes
a witness set's plan, or else its ε-free trimmed automaton, which is
all its kernels are built from.

Sources that contain non-serializable states (arbitrary objects as NFA
states are legal) raise :class:`FingerprintError`; callers that use
fingerprints opportunistically (the facade's store wiring) catch it and
simply skip caching.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.automata.nfa import EPSILON, NFA
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.plan import Plan
    from repro.graphdb.graph import GraphDatabase
    from repro.spanners.eva import EVA

FINGERPRINT_VERSION = 1

#: Atom types the canonicalizer memoizes and ranks by value.
_EXACT_ATOMS = frozenset({int, str})

#: A value's text in the hashed JSON.  The text shares no containers, so
#: the circular-reference bookkeeping is skipped (a cyclic
#: ``fingerprint_payload()`` still fails, with RecursionError).
_text = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), sort_keys=True, check_circular=False
).encode

#: A value's sort key: its ``json.dumps(value, sort_keys=True)`` text.
_key = json.JSONEncoder(sort_keys=True).encode


class FingerprintError(ReproError):
    """The source contains values with no canonical serialization."""


def _array(*items: str) -> str:
    """The JSON array of items that are JSON texts already."""
    return "[" + ",".join(items) + "]"


def _canon(value: Any) -> Any:
    """An atom's tagged form, as nested lists."""
    if value is EPSILON:
        return ["ε"]
    if isinstance(value, tuple):
        return ["t", [_canon(item) for item in value]]
    if isinstance(value, (frozenset, set)):
        return ["s", sorted(map(_canon, value), key=_key)]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, (str, int, float)) or value is None:
        return ["a", value]
    raise FingerprintError(
        f"cannot fingerprint {value!r}: states/symbols must be strings, "
        "numbers, tuples or frozensets thereof"
    )


class _Canonicalizer:
    """Canonical texts and sort keys of one source's atoms.

    :meth:`atom` returns an atom's text in the hashed JSON and its sort
    key.  An atom whose type is exactly ``int`` or ``str`` is
    canonicalized once and memoized by value; every other atom is
    canonicalized at each occurrence, because values such as ``1``,
    ``True`` and ``1.0`` (or ``0.0`` and ``-0.0``, or tuples holding
    them) are equal in Python yet have different canonical forms.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[int | str, tuple[str, str]] = {}

    def atom(self, value: Any) -> tuple[str, str]:
        kind = type(value)
        if kind is int or kind is str:
            entry = self._memo.get(value)
            if entry is None:
                # The form ["a", value], written out: JSON writes an int
                # as its repr and a string as its escaped literal, with
                # non-ASCII characters kept in the hashed text and
                # escaped in the key.
                if kind is int:
                    text = key = str(value)
                else:
                    text, key = encode_basestring(value), encode_basestring_ascii(value)
                entry = self._memo[value] = ('["a",' + text + "]", '["a", ' + key + "]")
            return entry
        canon = _canon(value)
        return _text(canon), _key(canon)

    def sorted_atoms(self, values: Iterable[Any]) -> str:
        """The JSON array of ``values``' texts, in sort-key order."""
        return _array(*[text for text, _ in sorted(map(self.atom, values), key=itemgetter(1))])

    def sorted_rows(self, rows: Iterable[tuple[Any, ...]]) -> str:
        """The JSON array of canonical rows (e.g. ``[source, symbol,
        target]``), in the order of their sort keys ``json.dumps(row,
        sort_keys=True)``, each key built from the cached atom keys
        instead of serializing the row.

        Rows of one positive length whose atoms are all exactly ``int``
        or ``str`` sort by the ranks of their atoms' keys instead.  An
        atom key is a complete JSON array, so no key is a proper prefix
        of another, and ``"[k1, k2]"`` sorts as the tuple ``(k1, k2)``
        does.
        """
        rows = list(rows)
        if (
            rows
            and rows[0]
            and len(set(map(len, rows))) == 1
            and _EXACT_ATOMS.issuperset(map(type, chain.from_iterable(rows)))
        ):
            return self._ranked_rows(rows)
        atom = self.atom
        keyed = []
        for row in rows:
            entries = [atom(value) for value in row]
            keyed.append(
                (
                    "[" + ", ".join([key for _, key in entries]) + "]",
                    _array(*[text for text, _ in entries]),
                )
            )
        keyed.sort(key=itemgetter(0))
        return _array(*[text for _, text in keyed])

    def _ranked_rows(self, rows: list[tuple[Any, ...]]) -> str:
        """:meth:`sorted_rows` for rows of one positive length over exact
        atoms: each row's key is one integer, its atoms' ranks in base
        ``len(ranks)``."""
        entries = {value: self.atom(value) for value in dict.fromkeys(chain.from_iterable(rows))}
        ordered = sorted(entries, key=lambda value: entries[value][1])
        ranks = dict(zip(ordered, range(len(ordered))))
        base = len(ranks)
        keys = [0] * len(rows)
        for column in zip(*rows):
            keys = [key * base + rank for key, rank in zip(keys, map(ranks.__getitem__, column))]
        text = {value: entry[0] for value, entry in entries.items()}
        in_order = map(rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__))
        atoms = map(text.__getitem__, chain.from_iterable(in_order))
        # Each row's atom texts, grouped back from the one flat stream.
        by_row = zip(*[atoms] * len(rows[0]))
        return "[[" + "],[".join(map(",".join, by_row)) + "]]"


def _canon_nfa(canon: _Canonicalizer, nfa: NFA) -> str:
    return _array(
        '"nfa"',
        canon.sorted_atoms(nfa.states),
        canon.sorted_atoms(nfa.alphabet),
        canon.atom(nfa.initial)[0],
        canon.sorted_atoms(nfa.finals),
        canon.sorted_rows(nfa.transitions),
    )


def _canon_graph(canon: _Canonicalizer, graph: GraphDatabase) -> str:
    return _array(
        '"graph"',
        canon.sorted_atoms(graph.vertices),
        canon.sorted_rows(graph.edges),
    )


def _canon_eva(canon: _Canonicalizer, eva: EVA) -> str:
    return _array(
        '"eva"',
        canon.sorted_atoms(eva.states),
        canon.atom(eva.initial)[0],
        canon.sorted_atoms(eva.finals),
        canon.sorted_rows((t.source, t.symbol, t.target) for t in eva.letter),
        canon.sorted_rows((t.source, t.markers, t.target) for t in eva.variable),
        canon.sorted_atoms(eva.variables),
    )


def _canon_plan(canon: _Canonicalizer, plan: Plan) -> str:
    # Imported here to avoid a module cycle (plan → kernel → snapshot).
    from repro.core.plan import (
        Atom,
        Concat,
        DocProduct,
        GraphProduct,
        Product,
        Relabel,
        Star,
        Union,
    )

    if isinstance(plan, Atom):
        return _array('"atom"', _canon_nfa(canon, plan.nfa))
    if isinstance(plan, Product):
        return _array('"product"', _canon_plan(canon, plan.left), _canon_plan(canon, plan.right))
    if isinstance(plan, Union):
        return _array('"union"', _canon_plan(canon, plan.left), _canon_plan(canon, plan.right))
    if isinstance(plan, Concat):
        return _array('"concat"', _canon_plan(canon, plan.left), _canon_plan(canon, plan.right))
    if isinstance(plan, Star):
        return _array('"star"', _canon_plan(canon, plan.child))
    if isinstance(plan, Relabel):
        mapping = canon.sorted_rows(plan.mapping.items())
        return _array('"relabel"', _canon_plan(canon, plan.child), mapping)
    if isinstance(plan, GraphProduct):
        return _array(
            '"graphproduct"',
            _canon_graph(canon, plan.graph),
            _canon_nfa(canon, plan.query),
            canon.atom(plan.source)[0],
            canon.atom(plan.target)[0],
        )
    if isinstance(plan, DocProduct):
        return _array('"docproduct"', _canon_eva(canon, plan.eva), _text(plan.document))
    payload = getattr(plan, "fingerprint_payload", None)
    if payload is not None:
        return _array('"custom"', _text(type(plan).__name__), _text(payload()))
    raise FingerprintError(
        f"no canonical serialization for plan node {type(plan).__name__}; "
        "implement fingerprint_payload() to make it store-cacheable"
    )


def fingerprint_source(source: NFA | Plan) -> str:
    """SHA-256 hex fingerprint of an automaton or plan, stable across
    processes, platforms and hash seeds.

    Structurally identical sources (same states, symbols, transitions —
    regardless of construction order) produce identical fingerprints;
    any semantic difference in the canonical structure changes it.
    """
    from repro.core.plan import Plan

    if isinstance(source, NFA):
        text = _canon_nfa(_Canonicalizer(), source)
    elif isinstance(source, Plan):
        text = _canon_plan(_Canonicalizer(), source)
    else:
        raise FingerprintError(
            f"cannot fingerprint a {type(source).__name__}; expected an NFA or Plan"
        )
    text = _array('"repro.fingerprint"', str(FINGERPRINT_VERSION), text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["FingerprintError", "fingerprint_source", "FINGERPRINT_VERSION"]
