"""Seeded instance generators and reference answers for the benchmark.

Everything here is plain Python with no import from ``repro``: the
program under test receives only the specs built here, and the reference
answers (counts, membership) are computed independently of it, so a
change to the program cannot change what it is asked or what counts as
a correct answer.
"""

from __future__ import annotations

import random
from itertools import product


def nfa_doc(states, alphabet, transitions, initial, finals) -> dict:
    """A ``repro.nfa`` JSON document (format version 1)."""
    return {
        "format": "repro.nfa",
        "version": 1,
        "states": list(states),
        "alphabet": list(alphabet),
        "initial": initial,
        "finals": sorted(finals),
        "transitions": [list(t) for t in transitions],
    }


def _delta(doc: dict) -> dict:
    table: dict = {}
    for source, symbol, target in doc["transitions"]:
        table.setdefault((source, symbol), set()).add(target)
    return table


def accepts(doc: dict, word) -> bool:
    """Subset simulation of ``doc`` on ``word``."""
    table = _delta(doc)
    current = {doc["initial"]}
    for symbol in word:
        current = {t for s in current for t in table.get((s, symbol), ())}
        if not current:
            return False
    return bool(current & set(doc["finals"]))


def count_words(doc: dict, n: int) -> int:
    """``|L_n|`` of any NFA by a determinized (subset) forward DP."""
    table = _delta(doc)
    finals = set(doc["finals"])
    layer = {frozenset([doc["initial"]]): 1}
    for _ in range(n):
        nxt: dict = {}
        for subset, ways in layer.items():
            for symbol in doc["alphabet"]:
                target = frozenset(t for s in subset for t in table.get((s, symbol), ()))
                if target:
                    nxt[target] = nxt.get(target, 0) + ways
        layer = nxt
    return sum(ways for subset, ways in layer.items() if subset & finals)


class Dfa:
    """Fast membership for a (partial) DFA document."""

    def __init__(self, doc: dict) -> None:
        self.step = {(s, a): t for s, a, t in doc["transitions"]}
        self.initial = doc["initial"]
        self.finals = frozenset(doc["finals"])

    def accepts(self, word) -> bool:
        state = self.initial
        step = self.step
        for symbol in word:
            state = step.get((state, symbol))
            if state is None:
                return False
        return state in self.finals


def count_dfa_words(doc: dict, n: int) -> int:
    """``|L_n|`` of a (partial) DFA: run counts equal word counts."""
    out: dict = {}
    for source, symbol, target in doc["transitions"]:
        out.setdefault(source, []).append(target)
    finals = set(doc["finals"])
    ways = {state: (1 if state in finals else 0) for state in doc["states"]}
    for _ in range(n):
        ways = {s: sum(ways[t] for t in out.get(s, ())) for s in doc["states"]}
    return ways[doc["initial"]]


def random_dfa(rng: random.Random, m: int, alphabet: str, completeness: float, n: int) -> dict:
    """A random partial DFA (hence unambiguous) accepting some length-``n`` word."""
    while True:
        transitions = [
            (s, a, rng.randrange(m))
            for s in range(m)
            for a in alphabet
            if rng.random() < completeness
        ]
        finals = rng.sample(range(m), max(1, round(0.3 * m)))
        doc = nfa_doc(range(m), alphabet, transitions, 0, finals)
        if count_dfa_words(doc, n) > 0:
            return doc


def random_nfa(rng: random.Random, m: int, alphabet: str, density: float, n: int) -> dict:
    """A random NFA with ~``density`` successors per (state, symbol)."""
    p = min(1.0, density / m)
    while True:
        transitions = [
            (s, a, t)
            for s in range(m)
            for a in alphabet
            for t in range(m)
            if rng.random() < p
        ]
        finals = rng.sample(range(m), max(1, round(0.3 * m)))
        doc = nfa_doc(range(m), alphabet, transitions, 0, finals)
        if count_words(doc, n) > 0:
            return doc


def trapdoor_dfa(rng: random.Random, modulus: int, symbols: int, live: int) -> dict:
    """A complete rolling-hash DFA with a dead mirror (the K1d family).

    States ``2c`` (dead) and ``2c + 1`` (alive) for each hash ``c``;
    an alive state keeps ``live`` of its ``symbols`` edges alive, so
    the count stays small while every layer's edge block is full.
    """
    mult = rng.randrange(2, modulus - 1)
    period = symbols // live
    offset = rng.randrange(period)
    transitions = []
    for c in range(modulus):
        for i in range(symbols):
            target = (mult * c + i) % modulus
            transitions.append((2 * c, i, 2 * target))
            alive = (c + i) % period == offset
            transitions.append((2 * c + 1, i, 2 * target + 1 if alive else 2 * target))
    return nfa_doc(
        range(2 * modulus), range(symbols), transitions, 1, range(1, 2 * modulus, 2)
    )


def product_layers(left: dict, right: dict, depth: int) -> list[int]:
    """Sizes of the first ``depth + 1`` forward-reachable layers of the
    product of two partial DFAs (cheap: no counts are carried)."""
    lt, rt = Dfa(left).step, Dfa(right).step
    layer = {(left["initial"], right["initial"])}
    sizes = [1]
    for _ in range(depth):
        layer = {
            (lt[(p, a)], rt[(q, a)])
            for p, q in layer
            for a in left["alphabet"]
            if (p, a) in lt and (q, a) in rt
        }
        sizes.append(len(layer))
    return sizes


def product_count(left: dict, right: dict, n: int) -> int:
    """``|L_n(left) ∩ L_n(right)|`` for two partial DFAs."""
    lt, rt = Dfa(left).step, Dfa(right).step
    lf, rf = set(left["finals"]), set(right["finals"])
    layer = {(left["initial"], right["initial"]): 1}
    for _ in range(n):
        nxt: dict = {}
        for (p, q), ways in layer.items():
            for a in left["alphabet"]:
                p2, q2 = lt.get((p, a)), rt.get((q, a))
                if p2 is not None and q2 is not None:
                    nxt[(p2, q2)] = nxt.get((p2, q2), 0) + ways
        layer = nxt
    return sum(ways for (p, q), ways in layer.items() if p in lf and q in rf)


def contains_101_count(n: int) -> int:
    """Binary words of length ``n`` containing ``101`` (brute force)."""
    return sum(1 for w in product("01", repeat=n) if "101" in "".join(w))
