"""Relations as problems: the framework of Section 2.

A *problem* is a relation ``R ⊆ Σ* × Σ*``; the witnesses of an input ``x``
are ``W_R(x) = {y : (x, y) ∈ R}``, and the three fundamental questions
about an input are

* ``ENUM(R)``  — list ``W_R(x)`` without repetition,
* ``COUNT(R)`` — compute ``|W_R(x)|``,
* ``GEN(R)``   — draw a uniform element of ``W_R(x)``.

The paper works with *p-relations*: witness length is a fixed polynomial
of the input (wlog exactly, via padding), and membership ``(x, y) ∈ R``
is decidable in polynomial time.

Everything in this library routes through one structural fact
(Proposition 12 + Lemma 13): a relation in RelationNL/RelationUL can be
compiled, input by input, into an NFA/UFA whose fixed-length language *is*
the witness set.  :class:`AutomatonBackedRelation` is that interface: an
object that, given ``x``, produces ``(N_x, k_x)`` with
``W_R(x) = L_{k_x}(N_x)``.  The concrete relations of Section 3/4
(SAT-DNF, EVAL-eVA, EVAL-RPQ, EVAL-OBDD, ...) implement it, and
``WitnessSet.from_compiled(relation, x)`` (:mod:`repro.api`) runs the
right solver set for the class the compiled automaton certifies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generic, Hashable, Iterator, TypeVar

from repro.automata.nfa import NFA, Word

InputT = TypeVar("InputT")
WitnessT = TypeVar("WitnessT")


@dataclass(frozen=True)
class CompiledInstance:
    """The Lemma 13 artifact for one input: an automaton and a length.

    ``W_R(x) = decode(L_length(nfa))`` — the automaton's fixed-length
    language, pushed through the relation's witness decoding.
    """

    nfa: NFA
    length: int


class AutomatonBackedRelation(abc.ABC, Generic[InputT, WitnessT]):
    """A p-relation presented by per-input automaton compilation.

    Subclasses provide:

    * :meth:`compile` — the polynomial-time ``x ↦ (N_x, k_x)`` map
      (Lemma 13 / the completeness reduction of Proposition 12);
    * :meth:`decode_witness` / :meth:`encode_witness` — the bijection
      between automaton words and domain-level witnesses (e.g. marker-set
      sequences ↔ span mappings for document spanners);
    * :meth:`check` — the polynomial-time membership test of the
      p-relation definition (used by tests as an independent oracle).

    The default encode/decode are identity (witnesses *are* words).
    """

    #: Human-readable relation name (for reports and error messages).
    name: str = "relation"

    @abc.abstractmethod
    def compile(self, instance: InputT) -> CompiledInstance:
        """Compile ``instance`` into ``(N_x, k_x)``."""

    def decode_witness(self, instance: InputT, w: Word) -> WitnessT:
        """Map an automaton word to a domain witness (default: identity)."""
        return w  # type: ignore[return-value]

    def encode_witness(self, instance: InputT, witness: WitnessT) -> Word:
        """Map a domain witness to its automaton word (default: identity)."""
        return witness  # type: ignore[return-value]

    def check(self, instance: InputT, witness: WitnessT) -> bool:
        """Polynomial membership test ``(x, y) ∈ R`` (default: via the NFA)."""
        compiled = self.compile(instance)
        w = self.encode_witness(instance, witness)
        return len(w) == compiled.length and compiled.nfa.accepts(w)

    # Uncached baselines, kept for the Prop. 11 reductions; the cached
    # solver suites (delay guarantees, FPRAS, PLVUG) run on
    # WitnessSet.from_compiled(relation, x).

    def witnesses(self, instance: InputT) -> Iterator[WitnessT]:
        """Enumerate all witnesses (polynomial delay)."""
        from repro.core.enumeration import enumerate_words

        compiled = self.compile(instance)
        for w in enumerate_words(compiled.nfa, compiled.length):
            yield self.decode_witness(instance, w)

    def witness_count_exact(self, instance: InputT) -> int:
        """Exact |W_R(x)| via the subset-construction counter (may blow up)."""
        from repro.core.exact import count_words_exact

        compiled = self.compile(instance)
        return count_words_exact(compiled.nfa, compiled.length)


@dataclass(frozen=True)
class PaddedWitness:
    """Helper for the paper's equal-length convention.

    p-relations may be padded so all witnesses of an input share one
    length (Section 2.1).  When a natural encoding has variable length,
    wrap words with this marker-padding helper: ``pad`` appends a fresh
    padding symbol, ``strip`` removes it.
    """

    pad_symbol: Hashable = "§"

    def pad(self, w: Word, target_length: int) -> Word:
        if len(w) > target_length:
            raise ValueError("witness longer than the target length")
        return w + (self.pad_symbol,) * (target_length - len(w))

    def strip(self, w: Word) -> Word:
        out = list(w)
        while out and out[-1] == self.pad_symbol:
            out.pop()
        return tuple(out)
