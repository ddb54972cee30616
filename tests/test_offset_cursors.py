"""Enumeration cursors are offsets: a page at ``r`` is a slice of ``enumerate()``.

A cursor is ``None`` (meaning 0) or an integer ``0 ≤ r ≤ |W|``.  The page
at ``r`` holds witnesses ``r, r + 1, …`` of :meth:`WitnessSet.enumerate`'s
order, and the next cursor is ``r + count``, or ``None`` when no witness
follows.  The unambiguous route starts Algorithm 1 at ``r`` by unranking
``r`` through the backward table; the ambiguous route re-walks the
flashlight enumeration's skipped prefix.  Both are checked here, under
the pure backend and, when NumPy is importable, the NumPy one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.api import WitnessSet
from repro.core import accel
from repro.core.enumeration import enumerate_words_dag
from test_unranking import unambiguous

BACKENDS = ["pure"] + (["numpy"] if accel.resolve("numpy") is not None else [])

#: Ambiguous patterns over ``ab``: the flashlight route.
AMBIGUOUS = ["(a|b)*a(a|b)*", "(a|b)*(ab|ba)(a|b)*", "(a|ab)*(b|ba)*", "a*(a|b)b*"]


@st.composite
def witness_sets(draw) -> WitnessSet:
    n = draw(st.integers(0, 7))
    options = {"store": False, "kernel_backend": draw(st.sampled_from(BACKENDS))}
    if draw(st.booleans()):
        return WitnessSet(draw(unambiguous()), n, **options)
    return WitnessSet.from_regex(
        draw(st.sampled_from(AMBIGUOUS)), n, alphabet="ab", **options
    )


@settings(max_examples=150, deadline=None)
@given(witness_sets(), st.data())
def test_page_at_any_offset_is_a_slice_of_enumerate(ws, data):
    listed = list(ws.enumerate())
    total = len(listed)
    offset = data.draw(st.integers(0, total), label="offset")
    size = data.draw(st.integers(1, 5), label="size")
    cursor = None if offset == 0 and data.draw(st.booleans()) else offset
    page, after = ws.enumerate_page(size, cursor)
    assert page == listed[offset : offset + size]
    assert after == (offset + size if offset + size < total else None)


def test_huge_offset_resumes_by_unranking():
    """6³² words, so the offset is a 83-bit integer; the page holds the
    last two words and the enumeration ends."""
    for backend in BACKENDS:
        ws = WitnessSet.from_regex(
            "((a|b)(a|b|c))*", 64, alphabet="abc", store=False, kernel_backend=backend
        )
        page, cursor = ws.enumerate_page(5, 6**32 - 2)
        assert ["".join(w) for w in page] == ["bc" * 31 + "bb", "bc" * 32]
        assert cursor is None
        first = next(enumerate_words_dag(ws.kernel, 6**32 - 1))
        assert "".join(first) == "bc" * 32
        assert list(enumerate_words_dag(ws.kernel, 6**32)) == []
