"""Automata substrate: NFAs, DFAs, regexes, language algebra, generators.

Everything in :mod:`repro.core` operates on the :class:`~repro.automata.NFA`
defined here — see Proposition 12 of the paper (MEM-NFA / MEM-UFA are
complete for the two relation classes), which is why one automaton toolkit
serves the whole library.
"""

from repro.automata.nfa import EPSILON, NFA, word, word_str
from repro.automata.dfa import DFA, determinize, languages_equal, minimize
from repro.automata.operations import (
    canonical_minimal_dfa,
    concatenate,
    difference,
    intersection,
    optional,
    plus,
    repeat,
    reverse,
    star,
    union,
    words_of_length,
)
from repro.automata.unambiguous import (
    ambiguity_counts,
    disambiguate,
    is_unambiguous,
    require_unambiguous,
)
from repro.automata.regex import compile_regex, glushkov, parse, render, thompson
from repro.automata.random_gen import (
    ambiguity_blowup,
    chain_of_unions,
    contains_pattern_nfa,
    divisibility_dfa,
    random_nfa,
    random_ufa,
    unary_counter,
)
from repro.automata.encoding import BinaryEncodedNFA, decode_word, encode_word, symbol_codes
from repro.automata.serialization import (
    nfa_from_document,
    nfa_from_json,
    nfa_to_dot,
    nfa_to_json,
    unrolled_dag_to_dot,
)
from repro.automata.brzozowski import brzozowski_dfa, derivative, matches as regex_matches

__all__ = [
    "EPSILON",
    "NFA",
    "DFA",
    "word",
    "word_str",
    "determinize",
    "minimize",
    "languages_equal",
    "union",
    "intersection",
    "concatenate",
    "star",
    "plus",
    "optional",
    "repeat",
    "reverse",
    "difference",
    "canonical_minimal_dfa",
    "words_of_length",
    "is_unambiguous",
    "require_unambiguous",
    "disambiguate",
    "ambiguity_counts",
    "compile_regex",
    "parse",
    "render",
    "thompson",
    "glushkov",
    "random_nfa",
    "random_ufa",
    "ambiguity_blowup",
    "contains_pattern_nfa",
    "unary_counter",
    "divisibility_dfa",
    "chain_of_unions",
    "BinaryEncodedNFA",
    "symbol_codes",
    "encode_word",
    "decode_word",
    "nfa_to_json",
    "nfa_from_json",
    "nfa_from_document",
    "nfa_to_dot",
    "unrolled_dag_to_dot",
    "brzozowski_dfa",
    "derivative",
    "regex_matches",
]
