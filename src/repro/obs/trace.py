"""Request tracing: per-request spans with a per-stage timing breakdown.

A span is minted at the service front door (the async server for TCP
requests, the protocol executor for in-process calls) and installed in a
:class:`contextvars.ContextVar`.  Deeper layers — the kernel store, the
lowering path in the facade — never see the span explicitly; they call
:func:`add_stage` and the seconds land on whichever request is currently
executing.  That is what lets ``store_fetch`` and ``lowering`` appear in
a response's ``timing`` dict without threading a context object through
five APIs, and it survives the worker-pool hop because each worker
process executes one request group at a time inside its own span.

Every stage is double-booked: once on the span (so the response can
carry the breakdown when the client asked with ``"trace": true``) and
once in the process registry's ``repro_stage_seconds{stage=...}``
histogram (so percentiles are available even when no client traces).

When observability is disabled the module hands out a shared
:data:`NULL_SPAN` whose recorders are no-ops, so instrumented code never
branches on the flag itself.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from types import TracebackType
from typing import Iterator, Optional

from contextlib import contextmanager

from . import names
from .registry import Histogram, enabled, metrics


class Span:
    """Accumulated per-stage seconds for one request."""

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        seconds = max(0.0, seconds)
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        _stage_histogram(stage).record(seconds)

    def stage(self, name: str) -> "_StageTimer":
        return _StageTimer(self, name)

    def as_dict(self) -> dict[str, float]:
        return dict(self.stages)


class _NullSpan(Span):
    """Recording sink used when observability is off."""

    __slots__ = ()

    def add(self, stage: str, seconds: float) -> None:  # pragma: no cover - trivial
        return

    def stage(self, name: str) -> "_StageTimer":
        return _NULL_TIMER


class _StageTimer:
    """``with span.stage("execution"):`` — a minimal timing context."""

    __slots__ = ("_span", "_name", "_started")

    def __init__(self, span: Span, name: str) -> None:
        self._span = span
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_StageTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._span.add(self._name, time.perf_counter() - self._started)


class _NullTimer(_StageTimer):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(NULL_SPAN, "")

    def __enter__(self) -> "_StageTimer":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return


NULL_SPAN: Span = _NullSpan()

_NULL_TIMER = _NullTimer()

_current: ContextVar[Optional[Span]] = ContextVar("repro_obs_span", default=None)


def _stage_histogram(stage: str) -> Histogram:
    return metrics().histogram(names.STAGE_SECONDS, labels={"stage": stage})


def current_span() -> Optional[Span]:
    """The span of the request currently executing, if tracing one."""

    return _current.get()


@contextmanager
def request_span() -> Iterator[Span]:
    """Mint a span for one request and install it as current.

    Yields :data:`NULL_SPAN` when observability is disabled, so callers
    can use the span unconditionally and attach ``span.as_dict()`` only
    when it is non-empty.
    """

    if not enabled():
        yield NULL_SPAN
        return
    span = Span()
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


def stage(name: str) -> _StageTimer:
    """A timing context for ``name`` on the current request span.

    Returns a no-op timer when no request is being traced, so deep
    record sites (witness serialization, kernel walks) can wrap their
    work unconditionally.
    """

    span = _current.get()
    if span is None or not enabled():
        return _NULL_TIMER
    return _StageTimer(span, name)


def add_stage(stage: str, seconds: float) -> None:
    """Record ``seconds`` against the current request span, if any.

    Inside a span or outside one (direct facade use, batch jobs), every
    observation lands in ``repro_stage_seconds{stage=...}`` exactly once,
    so a store fetch or a lowering needs no series of its own.
    """

    if not enabled():
        return
    span = _current.get()
    if span is not None:
        span.add(stage, seconds)
    else:
        _stage_histogram(stage).record(max(0.0, seconds))


__all__ = [
    "NULL_SPAN",
    "Span",
    "add_stage",
    "current_span",
    "request_span",
    "stage",
]
