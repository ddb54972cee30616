"""Stable content fingerprints for automata and symbolic plans.

The :class:`~repro.service.store.KernelStore` is content-addressed: two
processes that compile the same instance must agree on its key without
talking to each other.  Python's builtin ``hash`` is randomized per
process and ``repr`` of sets is hash-ordered, so neither is usable.
This module canonicalizes an automaton / plan into a deterministic
JSON-able structure (every state and symbol as a tagged atom; every
set sorted by its canonical encoding) and hashes that with SHA-256.

Each distinct state or symbol is canonicalized once per call: a
per-call memo holds the tagged form and sort key of every atom whose
type is exactly ``int`` or ``str``.  Other atoms are canonicalized at
each occurrence and never memoized, because some of them are equal in
Python but not canonically (``1``, ``True`` and ``1.0``; ``0.0`` and
``-0.0``; tuples and frozensets holding them), so a memo keyed by value
would hand one the other's form.

Two serializations of the canonical structure are involved:

* sort keys order sets and transition lists.  A key is the
  ``json.dumps(item, sort_keys=True)`` text (default separators,
  ASCII-escaped).  A row's key is assembled from its atoms' cached keys
  as ``"[" + k1 + ", " + k2 + ", " + k3 + "]"``, the same text without
  serializing the row;
* the hashed text is one ``json.dumps`` of the whole structure, with
  compact separators and ``ensure_ascii=False``.

The fingerprint covers the *language source* only — not the witness
length ``n`` and not the trimmed/reachable mode; the store composes
those into the storage key, so one source shares a fingerprint across
all its compilations.

Sources that contain non-serializable states (arbitrary objects as NFA
states are legal) raise :class:`FingerprintError`; callers that use
fingerprints opportunistically (the facade's store wiring) catch it and
simply skip caching.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.automata.nfa import EPSILON, NFA
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.plan import Plan
    from repro.graphdb.graph import GraphDatabase
    from repro.spanners.eva import EVA

FINGERPRINT_VERSION = 1


class FingerprintError(ReproError):
    """The source contains values with no canonical serialization."""


class _Canonicalizer:
    """Canonical forms and sort keys of one source's atoms.

    :meth:`atom` returns an atom's tagged form and its sort key (the
    form's JSON text).  An atom whose type is exactly ``int`` or ``str``
    is canonicalized once and memoized by value; every other atom is
    canonicalized at each occurrence, because values such as ``1``,
    ``True`` and ``1.0`` (or ``0.0`` and ``-0.0``, or tuples holding
    them) are equal in Python yet have different canonical forms.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[int | str, tuple[list[Any], str]] = {}

    def atom(self, value: Any) -> tuple[Any, str]:
        kind = type(value)
        if kind is int or kind is str:
            entry = self._memo.get(value)
            if entry is None:
                canon = ["a", value]
                entry = self._memo[value] = (canon, json.dumps(canon, sort_keys=True))
            return entry
        canon = self._canon(value)
        return canon, json.dumps(canon, sort_keys=True)

    def _canon(self, value: Any) -> Any:
        if value is EPSILON:
            return ["ε"]
        if isinstance(value, tuple):
            return ["t", [self._canon(item) for item in value]]
        if isinstance(value, (frozenset, set)):
            return ["s", self.sorted_atoms(value)]
        if isinstance(value, bool):
            return ["b", value]
        if isinstance(value, (str, int, float)) or value is None:
            return ["a", value]
        raise FingerprintError(
            f"cannot fingerprint {value!r}: states/symbols must be strings, "
            "numbers, tuples or frozensets thereof"
        )

    def sorted_atoms(self, values: Iterable[Any]) -> list[Any]:
        """Canonical forms of ``values``, in sort-key order."""
        return [canon for canon, _ in sorted(map(self.atom, values), key=itemgetter(1))]

    def sorted_rows(self, rows: Iterable[tuple[Any, ...]]) -> list[list[Any]]:
        """Canonical rows (e.g. ``[source, symbol, target]``), in the order
        of their sort keys ``json.dumps(row, sort_keys=True)``, each built
        from the cached atom keys instead of serializing the row."""
        atom = self.atom
        keyed = []
        for row in rows:
            canons = []
            keys = []
            for value in row:
                canon, key = atom(value)
                canons.append(canon)
                keys.append(key)
            keyed.append(("[" + ", ".join(keys) + "]", canons))
        keyed.sort(key=itemgetter(0))
        return [canons for _, canons in keyed]


def _canon_nfa(canon: _Canonicalizer, nfa: NFA) -> list[Any]:
    return [
        "nfa",
        canon.sorted_atoms(nfa.states),
        canon.sorted_atoms(nfa.alphabet),
        canon.atom(nfa.initial)[0],
        canon.sorted_atoms(nfa.finals),
        canon.sorted_rows(nfa.transitions),
    ]


def _canon_graph(canon: _Canonicalizer, graph: GraphDatabase) -> list[Any]:
    return [
        "graph",
        canon.sorted_atoms(graph.vertices),
        canon.sorted_rows(graph.edges),
    ]


def _canon_eva(canon: _Canonicalizer, eva: EVA) -> list[Any]:
    return [
        "eva",
        canon.sorted_atoms(eva.states),
        canon.atom(eva.initial)[0],
        canon.sorted_atoms(eva.finals),
        canon.sorted_rows((t.source, t.symbol, t.target) for t in eva.letter),
        canon.sorted_rows((t.source, t.markers, t.target) for t in eva.variable),
        canon.sorted_atoms(eva.variables),
    ]


def _canon_plan(canon: _Canonicalizer, plan: Plan) -> list[Any]:
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
        return ["atom", _canon_nfa(canon, plan.nfa)]
    if isinstance(plan, Product):
        return ["product", _canon_plan(canon, plan.left), _canon_plan(canon, plan.right)]
    if isinstance(plan, Union):
        return ["union", _canon_plan(canon, plan.left), _canon_plan(canon, plan.right)]
    if isinstance(plan, Concat):
        return ["concat", _canon_plan(canon, plan.left), _canon_plan(canon, plan.right)]
    if isinstance(plan, Star):
        return ["star", _canon_plan(canon, plan.child)]
    if isinstance(plan, Relabel):
        mapping = canon.sorted_rows(plan.mapping.items())
        return ["relabel", _canon_plan(canon, plan.child), mapping]
    if isinstance(plan, GraphProduct):
        return [
            "graphproduct",
            _canon_graph(canon, plan.graph),
            _canon_nfa(canon, plan.query),
            canon.atom(plan.source)[0],
            canon.atom(plan.target)[0],
        ]
    if isinstance(plan, DocProduct):
        return ["docproduct", _canon_eva(canon, plan.eva), plan.document]
    payload = getattr(plan, "fingerprint_payload", None)
    if payload is not None:
        return ["custom", type(plan).__name__, payload()]
    raise FingerprintError(
        f"no canonical serialization for plan node {type(plan).__name__}; "
        "implement fingerprint_payload() to make it store-cacheable"
    )


def canonical_source(source: NFA | Plan) -> list[Any]:
    """The canonical JSON-able structure behind :func:`fingerprint_source`."""
    from repro.core.plan import Plan

    if isinstance(source, NFA):
        return _canon_nfa(_Canonicalizer(), source)
    if isinstance(source, Plan):
        return _canon_plan(_Canonicalizer(), source)
    raise FingerprintError(
        f"cannot fingerprint a {type(source).__name__}; expected an NFA or Plan"
    )


def fingerprint_source(source: NFA | Plan) -> str:
    """SHA-256 hex fingerprint of an automaton or plan, stable across
    processes, platforms and hash seeds.

    Structurally identical sources (same states, symbols, transitions —
    regardless of construction order) produce identical fingerprints;
    any semantic difference in the canonical structure changes it.
    """
    canonical = ["repro.fingerprint", FINGERPRINT_VERSION, canonical_source(source)]
    # The structure shares atom forms but has no cycles (a cyclic
    # fingerprint_payload() still fails, with RecursionError), so the
    # encoder's circular-reference bookkeeping is skipped.
    text = json.dumps(
        canonical,
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
        check_circular=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["FingerprintError", "canonical_source", "fingerprint_source", "FINGERPRINT_VERSION"]
