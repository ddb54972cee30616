"""Serialization and visualization: JSON round-trips and DOT export.

A library users adopt needs its objects to survive a process boundary.
This module provides:

* :func:`nfa_to_json` / :func:`nfa_from_json` — a stable, versioned JSON
  encoding of NFAs (states and symbols must be JSON-representable:
  strings, numbers, booleans, or nested lists/tuples thereof; tuples are
  encoded as tagged lists so round-trips are exact);
  :func:`nfa_from_document` decodes an already parsed document;
* :func:`nfa_to_dot` — Graphviz DOT text for automata (initial state
  marked with an entry arrow, finals double-circled);
* :func:`unrolled_dag_to_dot` — the layered ``N_unroll`` view, which is
  how Figure 2 of the paper can be re-rendered from code.

The JSON format is intentionally explicit about ε (the sentinel has no
JSON value, so it is encoded as the tagged object ``{"ε": true}``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.automata.nfa import EPSILON, NFA
from repro.errors import InvalidAutomatonError

if TYPE_CHECKING:
    from repro.core.kernel import CompiledDAG

FORMAT_VERSION = 1

_TUPLE_TAG = "§tuple"
_EPSILON_TAG = "§epsilon"


def _encode_atom(value: Any) -> Any:
    """Encode a state/symbol into JSON-safe form (tuples tagged)."""
    if value is EPSILON:
        return {_EPSILON_TAG: True}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_atom(item) for item in value]}
    if isinstance(value, frozenset):
        # frozensets appear as spanner marker-set symbols; encode sorted.
        return {"§frozenset": [_encode_atom(item) for item in sorted(value, key=repr)]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise InvalidAutomatonError(
        f"cannot serialize {value!r}: states/symbols must be JSON-representable"
    )


def _decode_atom(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get(_EPSILON_TAG):
            return EPSILON
        if _TUPLE_TAG in value:
            return tuple(_decode_atom(item) for item in value[_TUPLE_TAG])
        if "§frozenset" in value:
            return frozenset(_decode_atom(item) for item in value["§frozenset"])
        raise InvalidAutomatonError(f"unknown tagged value {value!r}")
    if isinstance(value, list):
        return tuple(_decode_atom(item) for item in value)
    return value


#: Atom types that decode to themselves: the fast path of
#: :func:`nfa_from_document`, which skips :func:`_decode_atom` for them.
_PLAIN = (int, str)


def _decode_atoms(values: list[Any]) -> list[Any]:
    return [value if type(value) in _PLAIN else _decode_atom(value) for value in values]


def nfa_to_json(nfa: NFA, indent: int | None = None) -> str:
    """Serialize an NFA to a versioned JSON document."""
    document = {
        "format": "repro.nfa",
        "version": FORMAT_VERSION,
        "states": [_encode_atom(state) for state in sorted(nfa.states, key=repr)],
        "alphabet": [_encode_atom(symbol) for symbol in sorted(nfa.alphabet, key=repr)],
        "initial": _encode_atom(nfa.initial),
        "finals": [_encode_atom(state) for state in sorted(nfa.finals, key=repr)],
        "transitions": [
            [_encode_atom(source), _encode_atom(symbol), _encode_atom(target)]
            for source, symbol, target in sorted(nfa.transitions, key=repr)
        ],
    }
    return json.dumps(document, indent=indent)


def nfa_from_json(text: str) -> NFA:
    """Inverse of :func:`nfa_to_json` (validates format and version)."""
    return nfa_from_document(json.loads(text))


def nfa_from_document(document: dict[str, Any]) -> NFA:
    """:func:`nfa_from_json` on an already parsed JSON document."""
    if document.get("format") != "repro.nfa":
        raise InvalidAutomatonError("not a repro.nfa document")
    if document.get("version") != FORMAT_VERSION:
        raise InvalidAutomatonError(
            f"unsupported format version {document.get('version')!r}"
        )
    return NFA(
        _decode_atoms(document["states"]),
        _decode_atoms(document["alphabet"]),
        [
            (source, symbol, target)
            if type(source) in _PLAIN and type(symbol) in _PLAIN and type(target) in _PLAIN
            else (_decode_atom(source), _decode_atom(symbol), _decode_atom(target))
            for source, symbol, target in document["transitions"]
        ],
        _decode_atom(document["initial"]),
        _decode_atoms(document["finals"]),
    )


def _dot_id(value: Any) -> str:
    return json.dumps(str(value))


def nfa_to_dot(nfa: NFA, name: str = "nfa", rankdir: str = "LR") -> str:
    """Graphviz DOT rendering of an automaton.

    Parallel edges between the same state pair are merged into one arrow
    labelled with the comma-joined symbol list, which keeps dense automata
    readable.
    """
    lines = [f"digraph {json.dumps(name)} {{", f"  rankdir={rankdir};"]
    lines.append('  __start [shape=point, label=""];')
    for state in sorted(nfa.states, key=repr):
        shape = "doublecircle" if state in nfa.finals else "circle"
        lines.append(f"  {_dot_id(state)} [shape={shape}];")
    lines.append(f"  __start -> {_dot_id(nfa.initial)};")
    merged: dict[tuple, list] = {}
    for source, symbol, target in nfa.transitions:
        label = "ε" if symbol is EPSILON else str(symbol)
        merged.setdefault((source, target), []).append(label)
    for (source, target), labels in sorted(merged.items(), key=repr):
        text = ",".join(sorted(labels))
        lines.append(
            f"  {_dot_id(source)} -> {_dot_id(target)} "
            f"[label={json.dumps(text, ensure_ascii=False)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def unrolled_dag_to_dot(dag: CompiledDAG, name: str = "unroll") -> str:
    """DOT rendering of the layered DAG — Figure 2, from code.

    ``dag`` is an unrolled kernel (:func:`repro.core.unroll.unroll` or
    :func:`~repro.core.unroll.unroll_trimmed`).  Vertices are grouped
    into same-rank layers; only live vertices and edges appear, so a
    trimmed DAG renders exactly the paper's picture.
    """
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=LR;"]
    for t in range(dag.n + 1):
        layer = sorted(dag.layer(t), key=repr)
        if not layer:
            continue
        ids = " ".join(_dot_id(f"{state}@{t}") for state in layer)
        lines.append(f"  {{ rank=same; {ids} }}")
        for state in layer:
            final = t == dag.n and state in dag.nfa.finals
            shape = "doublecircle" if final else "circle"
            lines.append(
                f"  {_dot_id(f'{state}@{t}')} "
                f"[shape={shape}, label={json.dumps(f'{state},{t}')}];"
            )
    for t in range(dag.n):
        for state in sorted(dag.layer(t), key=repr):
            for symbol, target in dag.ordered_successors(t, state):
                lines.append(
                    f"  {_dot_id(f'{state}@{t}')} -> {_dot_id(f'{target}@{t + 1}')} "
                    f"[label={json.dumps(str(symbol))}];"
                )
    lines.append("}")
    return "\n".join(lines)
