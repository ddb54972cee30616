"""Quickstart: enumerate, count, and uniformly sample a regex's language.

Run:  python examples/quickstart.py

The library's one-paragraph story: build a :class:`repro.WitnessSet` —
the compiled query object of the paper's pipeline — and ask the three
fundamental questions (ENUM, COUNT, GEN) about its fixed-length
language.  The facade dispatches per the paper's two complexity
classes: exact polynomial-time algorithms when the automaton is
unambiguous (RelationUL, Theorem 5), FPRAS + Las Vegas sampling
otherwise (RelationNL, Theorem 2/22) — and all shared preprocessing is
computed once and reused across the calls below.

(The pre-1.1 free functions ``repro.count_words`` / ``uniform_sample``
/ ``uniform_samples`` are gone: ``ws.count()`` and ``ws.sample(k)`` on
a :class:`~repro.WitnessSet` replace them.)
"""

from __future__ import annotations

from repro import WitnessSet


def main() -> None:
    pattern = "(ab|ba)*(a|b)?"
    n = 9
    ws = WitnessSet.from_regex(pattern, n, alphabet="ab")
    print(f"pattern     : {pattern}")
    print(f"automaton   : {ws.stripped}")
    print(f"unambiguous : {ws.is_unambiguous}")

    # COUNT — exact (the automaton is small; at scale, pick an
    # approximate backend from the registry).
    print(f"|L_{n}|       : {ws.count()}")

    # COUNT — the paper's FPRAS (Theorem 22), usable even when exact
    # counting is intractable; backends are selected by name.
    estimate = ws.count(backend="fpras", epsilon=0.2, rng=0)
    print(f"FPRAS(δ=0.2): {estimate:.1f}")

    # ENUM — constant delay here (the Glushkov automaton of this pattern
    # is unambiguous), polynomial delay in general.
    first = list(ws.enumerate(limit=5))
    print(f"first five  : {[''.join(w) for w in first]}")

    # GEN — exactly uniform; the sampler reuses the count's tables.
    samples = ws.sample(5, rng=1)
    print(f"uniform     : {[''.join(w) for w in samples]}")

    # The cache makes the whole block above one compilation: every
    # artifact was computed exactly once.
    print(f"cache       : {ws.stats.miss_count} builds, {ws.stats.hit_count} reuses")


if __name__ == "__main__":
    main()
