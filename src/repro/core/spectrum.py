"""Witnesses of length *at most* n, by padding.

Section 4.2 defines RPQ witnesses as paths of length *exactly* n, noting
that users "usually want all paths of at most certain length".  The
paper's §2.1 padding turns the one into the other:

* :func:`pad_automaton` — an automaton whose length-``n`` words are the
  padded forms ``w·⋄^{n-|w|}`` of all accepted words with ``|w| ≤ n``.
* :class:`UpToRelation` — that padded automaton at length ``n`` as a
  relation whose witnesses are the unpadded words: the witness set
  behind ``WitnessSet.up_to(nfa, n)``.
"""

from __future__ import annotations

from repro.automata.nfa import NFA, Word
from repro.core.relations import (
    AutomatonBackedRelation,
    CompiledInstance,
    PaddedWitness,
)

PAD = ("pad", "⋄")
_PADDING = PaddedWitness(PAD)


def pad_automaton(nfa: NFA, pad_symbol=PAD) -> NFA:
    """An automaton over Σ ∪ {⋄} with ``L_n = {w·⋄^{n-|w|} : w ∈ L, |w| ≤ n}``.

    Adds a fresh accepting pad state reachable from every final state by
    ⋄ and looping on ⋄.  The map ``w ↦ w·⋄^{n-|w|}`` is a bijection onto
    the padded length-n language (⋄ does not occur in Σ, so the pad block
    is uniquely parsed), hence counts and uniformity transfer.  If the
    input automaton is unambiguous, the padded automaton is too (one run
    per original word, one pad path).
    """
    if pad_symbol in nfa.alphabet:
        raise ValueError(f"pad symbol {pad_symbol!r} collides with the alphabet")
    stripped = nfa.without_epsilon()
    pad_state = ("pad-state",)
    serial = 0
    while pad_state in stripped.states:
        serial += 1
        pad_state = ("pad-state", serial)
    transitions = set(stripped.transitions)
    for final in stripped.finals:
        transitions.add((final, pad_symbol, pad_state))
    transitions.add((pad_state, pad_symbol, pad_state))
    return NFA(
        set(stripped.states) | {pad_state},
        set(stripped.alphabet) | {pad_symbol},
        transitions,
        stripped.initial,
        set(stripped.finals) | {pad_state},
    )


class UpToRelation(AutomatonBackedRelation):
    """``(nfa, n) ↦ L_{≤n}(nfa)``, the accepted words of length at most ``n``.

    Compiles to :func:`pad_automaton` at length ``n``; a witness is a
    padded word with its pad block stripped.  A word longer than ``n``
    encodes unchanged, and one holding the pad symbol to a word longer
    than ``n``, so neither is ever a member.
    """

    name = "up_to"

    def compile(self, instance: tuple[NFA, int]) -> CompiledInstance:
        nfa, n = instance
        return CompiledInstance(pad_automaton(nfa), n)

    def decode_witness(self, instance: tuple[NFA, int], w: Word) -> Word:
        return _PADDING.strip(w)

    def encode_witness(self, instance: tuple[NFA, int], witness: Word) -> Word:
        n = instance[1]
        if PAD in witness:
            return witness + (PAD,) * (n + 1)
        return witness if len(witness) > n else _PADDING.pad(witness, n)
