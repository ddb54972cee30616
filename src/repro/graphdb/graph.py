"""Edge-labeled graph databases: ``G = (V, E)`` with ``E ⊆ V × Σ × V``.

A minimal but complete property-graph-flavoured substrate: vertices are
arbitrary hashables, edges carry one label each, adjacency is indexed
both ways.  Generators for the benchmark workloads (random, grid and a
small social-network-style schema) live here too.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable, Iterable

from repro.errors import InvalidAutomatonError
from repro.utils.rng import make_rng

Vertex = Hashable
Label = str
Edge = tuple  # (Vertex, Label, Vertex)


class GraphDatabase:
    """An immutable edge-labeled directed graph."""

    __slots__ = ("_vertices", "_labels", "_edges", "_out", "_in")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self._vertices = frozenset(vertices)
        edge_set = frozenset((u, a, v) for u, a, v in edges)
        for u, a, v in edge_set:
            if u not in self._vertices or v not in self._vertices:
                raise InvalidAutomatonError(f"edge ({u!r}, {a!r}, {v!r}) leaves the vertex set")
        self._edges = edge_set
        self._labels = frozenset(a for _, a, _ in edge_set)
        out: dict = {}
        incoming: dict = {}
        for u, a, v in edge_set:
            out.setdefault(u, []).append((a, v))
            incoming.setdefault(v, []).append((a, u))
        self._out = {u: tuple(adj) for u, adj in out.items()}
        self._in = {v: tuple(adj) for v, adj in incoming.items()}

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def labels(self) -> frozenset:
        return self._labels

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, vertex: Vertex) -> tuple:
        """Outgoing ``(label, target)`` pairs."""
        return self._out.get(vertex, ())

    def in_edges(self, vertex: Vertex) -> tuple:
        """Incoming ``(label, source)`` pairs."""
        return self._in.get(vertex, ())

    def successors(self, vertex: Vertex, label: Label) -> list[Vertex]:
        return [v for a, v in self.out_edges(vertex) if a == label]

    def has_edge(self, u: Vertex, label: Label, v: Vertex) -> bool:
        return (u, label, v) in self._edges

    def reachable_from(self, vertex: Vertex) -> frozenset:
        seen = {vertex}
        frontier = deque([vertex])
        while frontier:
            current = frontier.popleft()
            for _, target in self.out_edges(current):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"labels={sorted(self._labels)})"
        )


def random_graph(
    num_vertices: int,
    labels: Iterable[Label] = ("a", "b"),
    density: float = 2.0,
    rng: random.Random | int | None = None,
) -> GraphDatabase:
    """Erdős–Rényi-style labeled digraph: ~``density`` out-edges per vertex/label."""
    generator = make_rng(rng)
    labels = list(labels)
    vertices = list(range(num_vertices))
    probability = min(1.0, density / max(1, num_vertices))
    edges = [
        (u, a, v)
        for u in vertices
        for a in labels
        for v in vertices
        if generator.random() < probability
    ]
    return GraphDatabase(vertices, edges)


def grid_graph(width: int, height: int) -> GraphDatabase:
    """A w×h grid with 'r' (right) and 'd' (down) edges — known path counts.

    The number of r/d paths between corners is a binomial coefficient,
    giving closed-form ground truth for the RPQ counting experiments.
    """
    vertices = [(x, y) for x in range(width) for y in range(height)]
    edges: list[Edge] = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                edges.append(((x, y), "r", (x + 1, y)))
            if y + 1 < height:
                edges.append(((x, y), "d", (x, y + 1)))
    return GraphDatabase(vertices, edges)


def social_graph(
    num_people: int, rng: random.Random | int | None = None
) -> GraphDatabase:
    """A small social-network-flavoured graph.

    Labels: ``k`` = knows, ``f`` = follows, ``w`` = works-with (single
    characters so RPQ regexes like ``"kk"`` or ``"k(f|w)*"`` parse
    directly).  The motivating workload class of the graph-database
    literature the paper cites ([AAB+17]): friend-of-friend-style RPQs
    over such graphs are the E11 benchmark's domain-specific scenario.
    """
    generator = make_rng(rng)
    people = [f"p{i}" for i in range(num_people)]
    edges: list[Edge] = []
    for person in people:
        for label, fanout in (("k", 3), ("f", 2), ("w", 1)):
            for target in generator.sample(people, min(fanout, num_people)):
                if target != person:
                    edges.append((person, label, target))
    return GraphDatabase(people, edges)


# ----------------------------------------------------------------------
# JSON round-trips (CLI inputs and process boundaries)
# ----------------------------------------------------------------------

GRAPH_FORMAT_VERSION = 1


def graph_to_json(graph: GraphDatabase, indent: int | None = None) -> str:
    """Serialize a graph to a versioned JSON document.

    Vertices and labels use the same tagged-atom encoding as the NFA
    serializer (tuples survive round-trips exactly), so grid-graph
    vertices like ``(0, 1)`` are representable.
    """
    import json

    from repro.automata.serialization import _encode_atom

    document = {
        "format": "repro.graph",
        "version": GRAPH_FORMAT_VERSION,
        "vertices": [_encode_atom(v) for v in sorted(graph.vertices, key=repr)],
        "edges": [
            [_encode_atom(u), _encode_atom(a), _encode_atom(v)]
            for u, a, v in sorted(graph.edges, key=repr)
        ],
    }
    return json.dumps(document, indent=indent)


def graph_from_json(text: str) -> GraphDatabase:
    """Inverse of :func:`graph_to_json` (validates format and version)."""
    import json

    return graph_from_document(json.loads(text))


def graph_from_document(document: dict) -> GraphDatabase:
    """:func:`graph_from_json` on an already parsed JSON document."""
    from repro.automata.serialization import _decode_atom

    if document.get("format") != "repro.graph":
        raise InvalidAutomatonError("not a repro.graph document")
    if document.get("version") != GRAPH_FORMAT_VERSION:
        raise InvalidAutomatonError(
            f"unsupported graph format version {document.get('version')!r}"
        )
    return GraphDatabase(
        [_decode_atom(v) for v in document["vertices"]],
        [
            (_decode_atom(u), _decode_atom(a), _decode_atom(v))
            for u, a, v in document["edges"]
        ],
    )
