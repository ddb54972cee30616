"""Coverage for the JSON round-trips: the graph serializer must survive
round-trips on randomized graphs, including tuple-labelled vertices."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import InvalidAutomatonError
from repro.graphdb.graph import (
    GraphDatabase,
    graph_from_document,
    graph_from_json,
    graph_to_json,
)


def _random_graph(rng: random.Random) -> GraphDatabase:
    """A random graph mixing string, int and tuple vertex labels."""
    vertices: list = [f"v{i}" for i in range(rng.randrange(1, 5))]
    vertices += [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randrange(4))]
    vertices += list(range(rng.randrange(3)))
    labels = ["k", "f", ("edge", "w")][: rng.randrange(1, 4)]
    edges = []
    for _ in range(rng.randrange(0, 12)):
        edges.append(
            (rng.choice(vertices), rng.choice(labels), rng.choice(vertices))
        )
    return GraphDatabase(vertices, edges)


class TestGraphJsonRoundTrip:
    def test_randomized_round_trips(self, rng):
        for _ in range(25):
            graph = _random_graph(rng)
            restored = graph_from_json(graph_to_json(graph))
            assert restored.vertices == graph.vertices
            assert restored.edges == graph.edges
            assert restored.labels == graph.labels

    def test_indent_is_cosmetic(self, rng):
        graph = _random_graph(rng)
        assert graph_from_json(graph_to_json(graph, indent=2)).edges == graph.edges

    def test_parsed_document_decodes_like_text(self, rng):
        # The service decodes spec documents JSON has already parsed.
        for _ in range(10):
            text = graph_to_json(_random_graph(rng))
            from_text = graph_from_json(text)
            from_document = graph_from_document(json.loads(text))
            assert from_document.vertices == from_text.vertices
            assert from_document.edges == from_text.edges
        with pytest.raises(InvalidAutomatonError):
            graph_from_document({"format": "not.a.graph", "version": 1})

    def test_rejects_foreign_documents(self):
        with pytest.raises(InvalidAutomatonError):
            graph_from_json('{"format": "not.a.graph", "version": 1}')
        with pytest.raises(InvalidAutomatonError):
            graph_from_json(
                '{"format": "repro.graph", "version": 99, "vertices": [], "edges": []}'
            )

    def test_nfa_json_round_trips_randomized(self, rng):
        from repro.automata.random_gen import random_nfa
        from repro.automata.serialization import nfa_from_json, nfa_to_json

        for _ in range(10):
            nfa = random_nfa(6, density=1.4, rng=rng)
            assert nfa_from_json(nfa_to_json(nfa)) == nfa
