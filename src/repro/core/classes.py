"""SpanL functions and the relations of NL-transducers (Corollary 3).

:class:`TransducerRelation` is the relation ``R(M)`` of an NL-transducer
``M`` (Definition 1), compiled to a fixed-length automaton by Lemma 13.
:class:`SpanLFunction` packages Corollary 3: any function presented as
``x ↦ |M(x)|`` gets an FPRAS by compiling the transducer and running the
#NFA FPRAS on the result.

The solver suites of Theorems 2 and 5 live on one query object:
``WitnessSet.from_compiled(relation, x)`` wraps any compiled relation
(a :class:`TransducerRelation` included) and picks the exact or the
approximate suite from the ambiguity certificate.
"""

from __future__ import annotations

import random

from repro.core.exact import count_words_exact
from repro.core.fpras import FprasParameters, approx_count_nfa
from repro.core.relations import AutomatonBackedRelation, CompiledInstance
from repro.core.transducers import Transducer, compile_to_nfa


class TransducerRelation(AutomatonBackedRelation):
    """The relation ``R(M)`` of an NL-transducer ``M`` (Definition 1).

    Compilation is Lemma 13 (configuration graph → NFA).  The witness
    length must be supplied by the transducer's relation semantics — the
    paper's p-relation convention fixes ``|y| = q(|x|)``; pass that ``q``
    as ``witness_length``.
    """

    def __init__(self, transducer: Transducer, witness_length, name: str | None = None):
        self.transducer = transducer
        self.witness_length = witness_length
        self.name = name or f"R({transducer.name})"

    def compile(self, instance) -> CompiledInstance:
        nfa = compile_to_nfa(self.transducer, instance)
        return CompiledInstance(nfa=nfa, length=self.witness_length(instance))


class SpanLFunction:
    """A SpanL function ``f(x) = |M(x)|`` and its FPRAS (Corollary 3).

    ``witness_length`` gives the common output length on each input (the
    padding convention of Section 2.1).  ``approx`` runs Lemma 13 + the
    #NFA FPRAS; ``exact`` is the exponential baseline.
    """

    def __init__(self, transducer: Transducer, witness_length, name: str = "SpanL function"):
        self.relation = TransducerRelation(transducer, witness_length, name=name)
        self.name = name

    def approx(
        self,
        x,
        delta: float = 0.1,
        rng: random.Random | int | None = None,
        params: FprasParameters | None = None,
    ) -> float:
        compiled = self.relation.compile(x)
        return approx_count_nfa(
            compiled.nfa, compiled.length, delta=delta, rng=rng, params=params
        )

    def exact(self, x) -> int:
        compiled = self.relation.compile(x)
        return count_words_exact(compiled.nfa, compiled.length)
