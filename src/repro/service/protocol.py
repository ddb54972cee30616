"""The wire protocol: specs, requests, and the shared op executor.

Everything the server and the multiprocess engine exchange is plain
JSON, one object per line (JSON-lines).  A **request** is::

    {"id": 7, "op": "count", "spec": {...}, "backend": "exact", ...}

and its **response**::

    {"id": 7, "ok": true, "result": 42}
    {"id": 7, "ok": false, "error": "...", "error_type": "ReproError"}

The **spec** describes the witness set *by content* (never by file
path), so any worker process can rebuild it and the engine can route by
fingerprint without the client and server sharing a filesystem:

======================  ================================================
kind                    fields
======================  ================================================
``regex``               ``pattern``, ``alphabet`` (optional), ``n``
``nfa``                 ``nfa`` (a ``repro.nfa`` JSON document), ``n``
``intersection``        ``left`` / ``right`` (each a ``regex``/``nfa``
                        sub-spec without ``n``), ``n``
``dnf``                 ``formula`` (the ``"x0 & !x1 | x2"`` text)
``cfg``                 ``grammar`` (CNF text), ``n``
``rpq``                 ``graph`` (a ``repro.graph`` JSON document),
                        ``pattern``, ``source`` / ``target`` (tagged
                        atoms), ``n``, ``deterministic_query``
======================  ================================================

Operations: ``count`` (``backend`` / ``delta`` / ``seed``), ``sample``
and ``sample_batch`` (``k`` / ``seed``), ``spectrum`` (``max_length``),
``enumerate`` (``limit`` / ``cursor`` / ``chunk_size``), ``describe``,
plus the connection-level ``ping`` / ``stats`` / ``shutdown``.

``enumerate`` is **paged**: one request answers one page —
``{"items": [...], "cursor": ..., "done": bool}`` with at most
``chunk_size`` (default :data:`DEFAULT_ENUM_CHUNK`) witnesses — and the
returned cursor resumes exactly where the page stopped, so a client
walks a witness set of any size without the server ever materializing
it.  A cursor is the offset of the next witness, a JSON integer in
``[0, |W|]`` that may exceed 2⁵³ (pass it back verbatim); unambiguous
sources resume at it in O(n) by unranking, and any other cursor is
answered with a ``ProtocolError``.  ``limit`` bounds the *total* items
from the given cursor onward.  The async TCP server turns one client
request with ``"stream": true`` into a sequence of chunked response
lines driven by this same paging (see :mod:`repro.service.server`).

Reproducibility contract: every ``sample`` / ``sample_batch`` draw uses
deterministic per-draw substreams of the request seed
(:func:`repro.utils.rng.spawn_seq`), so a request's results depend only
on ``(spec, seed, k)`` — never on which worker serves it, nor on which
other requests were coalesced into the same kernel pass.  An ambiguous
spec's draws also walk the resident set's FPRAS sketch, which every
worker builds from the same :data:`RESIDENT_SEED`; a ``count`` without
a ``seed`` is answered as with ``"seed": RESIDENT_SEED``.  A ``seed``
must be an integer ≥ 0: anything else (a string, a float, a list,
``true``, a negative number) is answered with a ``ProtocolError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Generator

from repro import obs
from repro.errors import ReproError
from repro.obs import names as metric_names
from repro.utils.rng import make_rng, substreams

if TYPE_CHECKING:
    from repro.api import WitnessSet
    from repro.automata.nfa import NFA
    from repro.core.plan import Plan
    from repro.service.store import KernelStore

PROTOCOL_VERSION = 1

#: Ops that draw witnesses and therefore coalesce per witness set.
SAMPLE_OPS = frozenset({"sample", "sample_batch"})

#: Ops answered without a witness set.
CONTROL_OPS = frozenset({"ping", "stats", "shutdown"})

#: Ops handled entirely at the connection layer of the async server
#: (stream control); they never reach the engine or ``_execute_one``.
CONNECTION_OPS = frozenset({"cancel"})

#: The complete wire vocabulary: every ``op`` a client may send.  The
#: ``protocol-exhaustive`` lint rule cross-checks this registry against
#: ``_execute_one``, the engine control path, the async server, the
#: client, and the CLI ``query`` choices.
SERVICE_OPS = frozenset(
    {"count", "spectrum", "enumerate", "describe"}
    | SAMPLE_OPS
    | CONTROL_OPS
    | CONNECTION_OPS
)

#: Default page size for the paged ``enumerate`` op: small enough that a
#: page is one cheap kernel walk burst, big enough that paging overhead
#: (one request round-trip per page) stays negligible.
DEFAULT_ENUM_CHUNK = 500

#: Version of the spec → fingerprint code: :func:`witness_set_from_spec`,
#: every constructor and compiler it calls, and what
#: :meth:`~repro.api.WitnessSet.fingerprint` hashes.  A store alias (spec
#: key → fingerprint) records it with ``FINGERPRINT_VERSION``, and a
#: restart trusts the alias without building the automaton.  Bump it
#: whenever a spec may build a different automaton or plan, or its set
#: may fingerprint another, or restarts would answer from the kernels the
#: old code stored.  Version 2: automaton-backed sets hash their trimmed
#: automaton, not the automaton the spec decodes.
SPEC_VERSION = 2

#: Kinds whose witnesses are the words themselves: on an alias hit their
#: automaton is built only when a query needs more than stored kernels.
WORD_KINDS = frozenset({"regex", "nfa", "intersection"})


#: The seed of every resident witness set, and of every ``count``
#: request that brings no ``seed``.  An ambiguous spec's Las Vegas draws
#: walk the set's shared FPRAS sketch, so a fixed seed makes them, and
#: unseeded estimates, depend on the request alone — not on which
#: worker, restart or transport built the resident set.
RESIDENT_SEED = 0


class ProtocolError(ReproError):
    """A malformed request or spec."""


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


def spec_key(spec: dict[str, Any]) -> str:
    """Deterministic routing/caching key of a spec (canonical JSON hash).

    This is the *request-level* fingerprint: cheap (no automaton is
    built) and stable across processes, so the engine can route by it
    before any compilation happens.  Two different specs may compile to
    the same automaton fingerprint; they then share store entries but
    not necessarily a worker — affinity is best-effort by design.
    """
    # A spec is parsed JSON, so it has no cycles: the encoder's circular
    # reference bookkeeping (a dict insert per list) is skipped.
    text = json.dumps(
        spec,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        check_circular=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _word_source(spec: dict[str, Any]) -> NFA | Plan:
    """The automaton (``regex``, ``nfa``) or plan (``intersection``) of a
    word-valued spec, as ``WitnessSet.from_regex`` / ``from_nfa`` /
    ``from_intersection`` build it."""
    from repro.core.plan import Product, as_plan

    kind = spec["kind"]
    if kind == "regex":
        from repro.automata.regex import compile_regex

        alphabet = spec.get("alphabet")
        return compile_regex(
            spec["pattern"], alphabet=list(alphabet) if alphabet is not None else None
        )
    if kind == "nfa":
        from repro.automata.serialization import nfa_from_document

        return nfa_from_document(spec["nfa"])
    return Product(as_plan(_sub_source(spec["left"])), as_plan(_sub_source(spec["right"])))


def _sub_source(sub: dict[str, Any]) -> NFA:
    """An NFA from an ``intersection`` operand sub-spec."""
    from repro.automata.regex import compile_regex
    from repro.automata.serialization import nfa_from_document

    kind = sub.get("kind", "regex")
    if kind == "regex":
        alphabet = sub.get("alphabet")
        return compile_regex(
            sub["pattern"], alphabet=list(alphabet) if alphabet else None
        )
    if kind == "nfa":
        return nfa_from_document(sub["nfa"])
    raise ProtocolError(f"unsupported intersection operand kind {kind!r}")


def witness_set_from_spec(
    spec: dict[str, Any],
    store: KernelStore | bool | None = False,
    key: str | None = None,
    **kwargs: Any,
) -> WitnessSet:
    """Build the :class:`~repro.api.WitnessSet` a spec describes.

    ``store`` follows the facade convention (``False`` — the default
    here — disables persistence, ``None`` consults the process default,
    a :class:`KernelStore` is used directly); remaining keyword
    arguments (``delta`` / ``params`` / ``rng``) are forwarded to the
    constructor — the CLI builds its local witness sets through this
    same function, so the spec is the single source of input semantics.

    With a store, the set's fingerprint is aliased under the spec's
    :func:`spec_key` (``key``, when the caller already has it).  On an
    alias hit the set takes the stored fingerprint, and a word-valued
    spec (:data:`WORD_KINDS`) defers building its automaton until a
    query needs more than the stored kernels and metadata; the spec is
    read again then, so it must not be changed while the set is in use.
    """
    from repro.api import WitnessSet

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ProtocolError("spec must be an object with a 'kind'")
    kind = spec["kind"]
    if store is None and os.environ.get("REPRO_KERNEL_STORE"):
        # As in the facade: without the switch the store stack stays unloaded.
        from repro.service.store import default_store

        store = default_store()
    alias = None
    if store:
        from repro.service.fingerprint import FINGERPRINT_VERSION
        from repro.service.store import Alias

        key = key if key is not None else spec_key(spec)
        version = f"{FINGERPRINT_VERSION}.{SPEC_VERSION}"
        alias = Alias(key, version, store.get_alias(key, version))
    kwargs = dict(kwargs, store=store or False, alias=alias)
    try:
        if kind in WORD_KINDS:
            n = spec["n"]
            if alias is not None and alias.fingerprint is not None:
                return WitnessSet(lambda: _word_source(spec), n, source=kind, **kwargs)
            return WitnessSet(_word_source(spec), n, source=kind, **kwargs)
        if kind == "dnf":
            return WitnessSet.from_dnf(
                spec["formula"],
                via_transducer=spec.get("via_transducer", False),
                **kwargs,
            )
        if kind == "cfg":
            from repro.grammars.cfg import parse_cnf

            return WitnessSet.from_cfg(
                parse_cnf(spec["grammar"]), spec["n"], **kwargs
            )
        if kind == "rpq":
            from repro.automata.serialization import _decode_atom
            from repro.graphdb.graph import graph_from_document

            graph = graph_from_document(spec["graph"])
            return WitnessSet.from_rpq(
                graph,
                spec["pattern"],
                _decode_atom(spec["source"]),
                _decode_atom(spec["target"]),
                spec["n"],
                deterministic_query=spec.get("deterministic_query", False),
                **kwargs,
            )
    except KeyError as error:
        raise ProtocolError(f"spec kind {kind!r} is missing field {error}") from error
    raise ProtocolError(f"unsupported spec kind {kind!r}")


# ----------------------------------------------------------------------
# Result rendering (JSON-able, renderer shared by every execution path)
# ----------------------------------------------------------------------


def render_witness(witness: object) -> str:
    """One witness as a display string, shared by the wire and the CLI.

    RPQ paths print their label word and hops, words their symbols,
    and any other decoded witness its ``str``.
    """
    if isinstance(witness, tuple):
        return "".join(map(str, witness))
    from repro.graphdb.rpq import Path

    if isinstance(witness, Path):
        labels = "".join(map(str, witness.label_word))
        hops = " → ".join(map(str, witness.vertices()))
        return f"{labels}  ({hops})"
    return str(witness)


def _render_describe(facts: dict[str, Any]) -> dict[str, Any]:
    rendered = dict(facts)
    alphabet = rendered.get("alphabet")
    if alphabet is not None:
        rendered["alphabet"] = sorted(map(str, alphabet))
    return rendered


# ----------------------------------------------------------------------
# Sampling helpers (the substream reproducibility contract)
# ----------------------------------------------------------------------


def draw_samples(ws: WitnessSet, k: int, seed: Any) -> list[Any]:
    """``k`` witnesses for one request: draw ``i`` uses substream ``i``
    of the request seed."""
    return ws.sample_with_streams(substreams(make_rng(seed), k))


def draw_samples_coalesced(
    ws: WitnessSet, requests: list[tuple[int, object]]
) -> list[list[Any]]:
    """Serve several ``(k, seed)`` sample requests in ONE kernel pass.

    Each request's streams are derived from its own seed exactly as
    :func:`draw_samples` derives them, and each draw consumes only its
    own stream — so the split results are byte-identical to serving the
    requests separately, while the kernel walk (one unranking pass,
    layer by layer) is paid once for the whole batch.
    """
    streams: list[Any] = []
    slices: list[tuple[int, int]] = []
    for k, seed in requests:
        start = len(streams)
        streams.extend(substreams(make_rng(seed), k))
        slices.append((start, start + k))
    drawn = ws.sample_with_streams(streams)
    return [drawn[start:end] for start, end in slices]


def _positive_int_or_none(request: dict[str, Any], field: str) -> int | None:
    value = request.get(field)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProtocolError(f"{field} must be an integer ≥ 0")
    return value


def _sample_args(request: dict[str, Any]) -> tuple[int, int | None]:
    """A sample request's ``(k, seed)``, or ``ProtocolError``."""
    k = request.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ProtocolError("sample requests need an integer k ≥ 0")
    return k, _positive_int_or_none(request, "seed")


def _enumerate_page(ws: WitnessSet, request: dict[str, Any]) -> dict[str, Any]:
    """One page of the paged ``enumerate`` op (the streaming primitive).

    Honors ``cursor`` (resume point; omit to start), ``chunk_size`` (page
    bound, default :data:`DEFAULT_ENUM_CHUNK`) and ``limit`` (total items
    from this cursor onward).  Never materializes more than one page.
    """
    limit = _positive_int_or_none(request, "limit")
    chunk = _positive_int_or_none(request, "chunk_size")
    if chunk is None:
        chunk = DEFAULT_ENUM_CHUNK
    elif chunk == 0:
        # A zero-item page can never be "done", so a paging loop over it
        # would spin forever on empty chunks.
        raise ProtocolError("chunk_size must be ≥ 1")
    count = chunk if limit is None else min(chunk, limit)
    try:
        witnesses, cursor = ws.enumerate_page(count, request.get("cursor"))
    except ValueError as error:
        raise ProtocolError(str(error)) from error
    exhausted_limit = limit is not None and limit <= len(witnesses)
    done = cursor is None or exhausted_limit
    # The cursor is returned even on a limit-terminated final page: it
    # is the resume point for a later request (None only when the
    # enumeration itself is exhausted).
    with obs.stage(metric_names.STAGE_SERIALIZATION):
        items = [render_witness(w) for w in witnesses]
    return {
        "items": items,
        "cursor": cursor,
        "done": done,
    }


def paging_rounds(
    request: dict[str, Any],
) -> Generator[dict[str, Any], dict[str, Any], None]:
    """Sans-IO driver for a streamed ``enumerate`` request.

    A generator speaking the send protocol: it *yields* the next page
    request to execute; the async server enqueues it like any other
    request and ``send()``-s the response back; the generator then
    yields the following page request, or returns when the stream is
    finished (limit exhausted, cursor gone, ``done`` page, or an error
    response).  Each page keeps the request's own ``chunk_size``; the
    generator owns only the cursor and limit bookkeeping.
    """
    remaining = request.get("limit")
    cursor = request.get("cursor")
    while True:
        page_request = {
            key: value
            for key, value in request.items()
            if key not in ("cursor", "limit", "stream")
        }
        if cursor is not None:
            page_request["cursor"] = cursor
        if remaining is not None:
            page_request["limit"] = remaining
        response = yield page_request
        if not response.get("ok"):
            return
        page = response.get("result") or {}
        if remaining is not None:
            remaining -= len(page.get("items") or ())
        cursor = page.get("cursor")
        if page.get("done") or cursor is None:
            return
        if remaining is not None and remaining <= 0:
            return


# ----------------------------------------------------------------------
# The op executor (shared by in-process serving and pool workers)
# ----------------------------------------------------------------------


class WitnessSetCache:
    """Bounded LRU of resident witness sets, keyed by spec key.

    This is a worker's hot-kernel memory: the reason the engine routes
    by affinity is so repeated queries on one spec land where this cache
    already holds the compiled artifacts.

    ``hits`` / ``misses`` are exact per-instance counts, whatever
    ``REPRO_OBS`` says, and the only record of these events: the
    engine's stats summary sums them across workers and writes them as
    ``repro_witness_cache_{hits,misses}_total``.  They are also the
    engine's affinity hit rate.
    """

    max_resident: int
    store: KernelStore | None
    hits: int
    misses: int
    _cache: OrderedDict[str, WitnessSet]

    def __init__(self, max_resident: int = 64, store: KernelStore | None = None) -> None:
        self.max_resident = max_resident
        self.store = store
        self.hits = 0
        self.misses = 0
        self._cache = OrderedDict()

    def get(self, key: str, spec: dict[str, Any]) -> WitnessSet:
        ws = self._cache.get(key)
        if ws is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return ws
        self.misses += 1
        ws = witness_set_from_spec(
            spec,
            store=self.store if self.store is not None else False,
            key=key,
            rng=RESIDENT_SEED,
        )
        self._cache[key] = ws
        while len(self._cache) > self.max_resident:
            self._cache.popitem(last=False)
        return ws

    def stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "resident": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.store is not None:
            stats["store"] = self.store.stats.as_dict()
        return stats


def _execute_one(ws: WitnessSet, request: dict[str, Any]) -> Any:
    op = request["op"]
    if op == "count":
        backend = request.get("backend") or "exact"
        options = dict(request.get("options") or {})
        seed = _positive_int_or_none(request, "seed")
        from repro import backends as _backends

        if _backends.get(backend).exact:
            return ws.count(backend, **options)
        # An unseeded estimate is seeded with RESIDENT_SEED, so it never
        # draws on the resident set's own stream: that stream seeds the
        # sketch Las Vegas draws walk, which then does not depend on
        # which requests ran first.
        return ws.count(
            backend,
            delta=request.get("delta"),
            rng=RESIDENT_SEED if seed is None else seed,
            **options,
        )
    if op in SAMPLE_OPS:
        witnesses = draw_samples(ws, *_sample_args(request))
        with obs.stage(metric_names.STAGE_SERIALIZATION):
            return [render_witness(w) for w in witnesses]
    if op == "spectrum":
        spectrum = ws.spectrum(_positive_int_or_none(request, "max_length"))
        return [[length, count] for length, count in sorted(spectrum.items())]
    if op == "enumerate":
        return _enumerate_page(ws, request)
    if op == "describe":
        return _render_describe(ws.describe())
    raise ProtocolError(f"unknown op {request.get('op')!r}")


def execute_group(
    cache: WitnessSetCache,
    key: str | None,
    requests: list[dict[str, Any]],
    worker: int | None = None,
) -> list[dict[str, Any]]:
    """Execute requests that share one spec key; coalesce the sample ops.

    ``key`` is the group's :func:`spec_key`, computed once by the caller
    (``None`` only for a spec-less singleton, which gets an error
    response).  Returns one response per request, in request order.
    Failures are per-request: one bad request never poisons its batch
    siblings.
    """
    # Responses are keyed by batch position, never by object identity:
    # a request object submitted twice in one group (client retry reusing
    # the dict) must still produce one response per slot, and identity
    # keys are exactly the allocation-order dependence the determinism
    # audit bans from this module.
    responses: dict[int, dict[str, Any]] = {}
    sampleable: list[tuple[int, dict[str, Any]]] = []
    for position, request in enumerate(requests):
        if request.get("op") in SAMPLE_OPS:
            with contextlib.suppress(ProtocolError):
                _sample_args(request)
                sampleable.append((position, request))
                continue
        # Non-sample ops and sample requests with a bad k or seed (which
        # must get their own validation error, never a sibling's
        # witnesses).
        responses[position] = _respond(cache, key, request, worker)
    if sampleable:
        # Denominator of the coalescing ratio: every sampleable request,
        # whether or not it ends up sharing a kernel pass.
        obs.metrics().counter(metric_names.SAMPLE_REQUESTS).inc(len(sampleable))
    if len(sampleable) == 1:
        position, request = sampleable[0]
        responses[position] = _respond(cache, key, request, worker)
    elif sampleable:
        responses.update(_respond_coalesced(cache, key, sampleable, worker))
    return [responses[position] for position in range(len(requests))]


def _base_response(request: dict[str, Any], worker: int | None) -> dict[str, Any]:
    response: dict[str, Any] = {"id": request.get("id")}
    if "__seq" in request:
        # The engine's batch-position tag: responses are matched back to
        # requests by it (client-chosen ids may collide across clients).
        response["__seq"] = request["__seq"]
    if worker is not None:
        response["worker"] = worker
    return response


def _op_label(op: Any) -> str:
    """Clamp a client-supplied op to the registered vocabulary.

    Metric labels must stay a bounded set; an unknown/garbage op would
    otherwise mint one series per typo.
    """
    return op if isinstance(op, str) and op in SERVICE_OPS else "other"


def _record_queue_wait(request: dict[str, Any], span: obs.Span) -> None:
    """Turn the engine's enqueue stamp into the ``queue_wait`` stage.

    ``__enq`` is ``time.monotonic()`` taken when the engine accepted the
    batch; CLOCK_MONOTONIC is system-wide on Linux, so the stamp is
    comparable across the fork-started worker processes (``Span.add``
    clamps negatives on platforms where it is not).
    """
    enqueued = request.get("__enq")
    if isinstance(enqueued, (int, float)) and not isinstance(enqueued, bool):
        span.add(metric_names.STAGE_QUEUE_WAIT, time.monotonic() - float(enqueued))


def _attach_timing(
    request: dict[str, Any], response: dict[str, Any], span: obs.Span
) -> None:
    """Carry the per-stage breakdown when the client asked to trace."""
    if request.get("trace") and span.stages:
        response["timing"] = span.as_dict()


def _respond(
    cache: WitnessSetCache,
    key: str | None,
    request: dict[str, Any],
    worker: int | None,
) -> dict[str, Any]:
    registry = obs.metrics()
    registry.counter(
        metric_names.PROTOCOL_REQUESTS, labels={"op": _op_label(request.get("op"))}
    ).inc()
    response = _base_response(request, worker)
    spec = request.get("spec")
    if spec is None or key is None:
        registry.counter(metric_names.PROTOCOL_ERRORS).inc()
        response.update(
            ok=False, error="missing field 'spec'", error_type="ProtocolError"
        )
        return response
    with obs.request_span() as span:
        _record_queue_wait(request, span)
        try:
            ws = cache.get(key, spec)
            with span.stage(metric_names.STAGE_EXECUTION):
                result = _execute_one(ws, request)
            response.update(ok=True, result=result)
        except Exception as error:  # per-request isolation; a KeyError deep
            # in backend/kernel code reports as KeyError, not as a protocol
            # complaint about the client's request.
            registry.counter(metric_names.PROTOCOL_ERRORS).inc()
            response.update(
                ok=False, error=str(error), error_type=type(error).__name__
            )
    _attach_timing(request, response, span)
    return response


def _respond_coalesced(
    cache: WitnessSetCache,
    key: str | None,
    indexed: list[tuple[int, dict[str, Any]]],
    worker: int | None,
) -> dict[int, dict[str, Any]]:
    """Sample requests on one witness set → one coalesced kernel pass.

    ``indexed`` carries each request with its batch position; the result
    maps positions to responses (see :func:`execute_group`).
    """
    out: dict[int, dict[str, Any]] = {}
    registry = obs.metrics()
    try:
        first = indexed[0][1]
        # One span for the shared kernel pass: every coalesced sibling
        # paid the same store fetch / lowering / execution, so each
        # response carries the same breakdown (queue wait included — the
        # group was enqueued as one engine batch).
        with obs.request_span() as span:
            _record_queue_wait(first, span)
            if key is None:
                raise ProtocolError("missing field 'spec'")
            ws = cache.get(key, first["spec"])
            with span.stage(metric_names.STAGE_EXECUTION):
                batches = draw_samples_coalesced(
                    ws, [_sample_args(request) for _, request in indexed]
                )
            with span.stage(metric_names.STAGE_SERIALIZATION):
                rendered = [
                    [render_witness(w) for w in witnesses] for witnesses in batches
                ]
        registry.counter(metric_names.COALESCED_REQUESTS).inc(len(indexed))
        for _, request in indexed:
            # Counted here, after the pass succeeded: the fallback path
            # below routes through _respond, which counts for itself.
            registry.counter(
                metric_names.PROTOCOL_REQUESTS,
                labels={"op": _op_label(request.get("op"))},
            ).inc()
        for (position, request), witnesses in zip(indexed, rendered):
            response = _base_response(request, worker)
            response.update(
                ok=True,
                result=witnesses,
                coalesced=len(indexed),
            )
            _attach_timing(request, response, span)
            out[position] = response
    except Exception:
        # Fall back to independent execution so a failing pass (an empty
        # set, ...) gives each request its own answer or error.
        for position, request in indexed:
            out[position] = _respond(cache, key, request, worker)
    return out


__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SERVICE_OPS",
    "SAMPLE_OPS",
    "CONTROL_OPS",
    "CONNECTION_OPS",
    "DEFAULT_ENUM_CHUNK",
    "RESIDENT_SEED",
    "SPEC_VERSION",
    "WORD_KINDS",
    "paging_rounds",
    "spec_key",
    "witness_set_from_spec",
    "render_witness",
    "draw_samples",
    "draw_samples_coalesced",
    "WitnessSetCache",
    "execute_group",
]
