"""Graph databases and regular path queries (Section 4.2).

``EVAL-RPQ`` — paths of length exactly n between two nodes that conform
to a regular expression — is in RelationNL: counting such paths admits an
FPRAS and sampling a uniform path a PLVUG (Corollary 8), in *combined*
complexity (query part of the input), which was open before this paper.
"""

from repro.graphdb.graph import (
    GraphDatabase,
    graph_from_document,
    graph_from_json,
    graph_to_json,
)
from repro.graphdb.rpq import RPQ, EvalRpqRelation, RpqEvaluator, Path

__all__ = [
    "GraphDatabase",
    "RPQ",
    "Path",
    "RpqEvaluator",
    "EvalRpqRelation",
    "graph_from_json",
    "graph_from_document",
    "graph_to_json",
]
