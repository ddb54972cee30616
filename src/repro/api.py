"""The unified query facade: one :class:`WitnessSet` per compiled instance.

The paper's central point is architectural: *every* application —
SAT-DNF, OBDDs, RPQs, document spanners — goes through one pipeline:
compile the instance to an automaton ``(N, n)`` whose fixed-length
language is the witness set, then dispatch to the exact RelationUL
algorithms or the FPRAS/PLVUG of RelationNL.  :class:`WitnessSet` is that
pipeline as a single query object:

* uniform constructors ``from_nfa / from_regex / from_dnf / from_obdd /
  from_rpq / from_spanner / from_cfg / from_plan / from_intersection /
  up_to`` replace the per-domain ad-hoc entrypoints;
* composite sources (RPQ graph products, spanner document products,
  pattern intersections) are *plan-backed*: compiled to the symbolic
  plan IR of :mod:`repro.core.plan` and lowered on the fly into the
  kernel, so only the forward-reachable (and backward-useful) product
  fragment is ever allocated — ``ws.describe()["lowering"]`` shows the
  cross-product blow-up avoided;
* every witness set holds one source plan — its plan, or else its
  stripped automaton as an :class:`~repro.core.plan.Atom` — that its
  kernels are lowered from (:func:`~repro.core.plan.lower_plan`), its
  ambiguity certificate walks and ``contains`` simulates; ``nonempty``
  reads the trimmed kernel every sampler uses next;
* all shared preprocessing (ε-strip + trim, the ambiguity check, the
  pruned unrolling compiled into the array kernel, the FPRAS sketch) is
  computed lazily **exactly once** and reused by every subsequent
  ``count`` / ``sample`` / ``enumerate`` / ``spectrum`` call — a count
  followed by a sample on the same language no longer pays twice;
* every exact query executes on the integer-indexed
  :class:`~repro.core.kernel.CompiledDAG` (cached as :attr:`WitnessSet.
  kernel`, with a reachable-mode sibling for the FPRAS/spectra), and
  bulk generation goes through the batched kernel pass
  (:meth:`WitnessSet.sample_batch`);
* counting strategies are pluggable via the solver-backend registry
  (:mod:`repro.backends`): ``ws.count(backend="fpras" | "montecarlo" |
  "kannan" | "karp_luby" | ...)``.

Quick tour::

    from repro import WitnessSet

    ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 9, alphabet="ab")
    ws.count()                      # exact |W|
    ws.count(backend="fpras", epsilon=0.1)   # the paper's FPRAS
    ws.sample(5, rng=0)             # 5 exactly-uniform witnesses
    list(ws.enumerate(limit=10))    # constant/poly-delay enumeration
    ws.spectrum()                   # {length: |L_length|}
    ws.is_unambiguous               # which complexity class applies

    shared = WitnessSet.from_intersection(     # witnesses two patterns share
        "(ab|ba)*", "(a|b)*aa(a|b)*", 10)      # (lazy product plan)
    shared.count(), shared.describe()["lowering"]
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import OrderedDict
from typing import Iterator

from repro import backends as _backends
from repro.automata.nfa import NFA, Word
from repro.automata.regex import compile_regex
from repro.automata.unambiguous import is_unambiguous
from repro.core.enumeration import enumerate_words_dag, enumerate_words_nfa
from repro.core.exact import count_words_exact, length_spectrum
from repro.core.fpras import FprasParameters, FprasState
from repro.core.kernel import CompiledDAG
from repro.core.plan import Atom, Plan, Product, as_plan, lower_plan
from repro.core.plvug import DEFAULT_ATTEMPTS_PER_CALL
from repro.core.relations import AutomatonBackedRelation, CompiledInstance
from repro.core.spectrum import UpToRelation
from repro.errors import (
    EmptyWitnessSetError,
    GenerationFailedError,
    InvalidRelationInputError,
)
from repro.obs import add_stage
from repro.obs import names as metric_names
from repro.utils.rng import make_rng, substreams

#: Integer-seeded FPRAS sketches one witness set keeps, least recently
#: used evicted first.  A sketch of a mid-sized NFA holds about 1 MB, and
#: ``repro serve`` passes request seeds straight through, so keeping every
#: seed's sketch would grow a resident spec with each fresh seed.
SEEDED_SKETCHES_KEPT = 4


class CacheStats:
    """Per-artifact hit/miss counters for a :class:`WitnessSet`'s cache.

    Tests (and curious users) read these to verify the no-recompilation
    guarantee: after the first query, further queries only ever *hit*.
    """

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits: dict = {}
        self.misses: dict = {}

    def record(self, key, hit: bool) -> None:
        table = self.hits if hit else self.misses
        table[key] = table.get(key, 0) + 1

    @property
    def hit_count(self) -> int:
        return sum(self.hits.values())

    @property
    def miss_count(self) -> int:
        return sum(self.misses.values())

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<CacheStats hits={self.hit_count} misses={self.miss_count}>"


def _resolve_seed_alias(
    rng: random.Random | int | None, seed: int | None
) -> random.Random | int | None:
    """Merge the ``seed=`` integer alias into ``rng`` (one spelling only)."""
    if seed is None:
        return rng
    if rng is not None:
        raise ValueError("pass either rng= or its alias seed=, not both")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    return seed


class WitnessSet:
    """The witness set ``W = L_n(N)`` of one compiled instance, queryable.

    Parameters
    ----------
    nfa, n:
        The Lemma 13 artifact: witnesses are the length-``n`` words of
        ``nfa`` (possibly decoded into domain objects, see ``relation``).
        ``nfa`` may instead be a symbolic :class:`~repro.core.plan.Plan`
        (or be ``None`` with ``plan=`` given): the witness set is then
        *plan-backed* — exact counting, sampling, enumeration and
        spectra lower the plan's reachable fragment straight into the
        array kernel, and the product automaton is only materialized if
        an ambiguous-instance fallback (FPRAS, subset counting) needs
        it.  ``nfa`` may also be a zero-argument callable returning the
        NFA or plan: the source is then *deferred*, built the first time
        :attr:`nfa` or :attr:`plan` is read.
    plan:
        The symbolic plan behind a plan-backed witness set (see
        :meth:`from_plan`).
    relation, instance:
        Optional :class:`AutomatonBackedRelation` and the input it was
        compiled from; when present, witnesses are decoded into domain
        objects (assignments, paths, mappings, ...) and ``instance`` is
        available to source-specific backends (e.g. Karp–Luby).
    source:
        A kind tag (``"regex"``, ``"dnf"``, ``"rpq"``, ...) used by
        backends to state applicability and by reports.
    delta, params, rng:
        Default FPRAS accuracy, parameters and randomness for the
        approximate/randomized routes.
    store:
        A :class:`~repro.service.store.KernelStore` for cross-process
        kernel persistence.  ``None`` (the default) consults the
        process-default store (the ``$REPRO_KERNEL_STORE`` environment
        switch); pass ``False`` to disable persistence explicitly.  With
        a store attached, compiled kernels are snapshotted on build and
        restored on later constructions of the same instance — a warm
        process answers its first query with zero lowering work.
    kernel_backend:
        Kernel execution backend: ``"pure"`` (the canonical Python
        path), ``"numpy"`` / ``"auto"`` (vectorized CSR sweeps when
        NumPy is importable, silently falling back to pure otherwise).
        ``None`` consults ``$REPRO_KERNEL_BACKEND``.  Results are
        bit-identical across backends — the choice is purely speed.
    """

    def __init__(
        self,
        nfa: NFA | Plan | None,
        n: int,
        *,
        plan: Plan | None = None,
        relation: AutomatonBackedRelation | None = None,
        instance=None,
        source: str = "nfa",
        delta: float = 0.1,
        params: FprasParameters | None = None,
        rng: random.Random | int | None = None,
        store=None,
        kernel_backend: str | None = None,
        alias=None,
    ):
        if n < 0:
            raise ValueError("witness length must be ≥ 0")
        if isinstance(nfa, Plan) and plan is None:
            nfa, plan = None, nfa
        if nfa is None and plan is None:
            raise InvalidRelationInputError("a WitnessSet needs an NFA or a plan")
        #: The builder of a deferred source, until it has run.
        self._pending = nfa if callable(nfa) else None
        self._nfa = None if self._pending is not None else nfa
        self._plan = plan
        self.n = n
        self.relation = relation
        self.instance = instance
        self.source = source
        self.delta = delta
        self.params = params
        self.rng = make_rng(rng)
        if store is None:
            # Probe the env switch before importing anything: plain
            # library use without $REPRO_KERNEL_STORE never loads the
            # service stack.
            if os.environ.get("REPRO_KERNEL_STORE"):
                from repro.service.store import default_store

                store = default_store()
        elif store is False:
            store = None
        self.store = store
        # Resolve the execution backend eagerly: an unknown name raises
        # here, not on the first hot-path query.  None consults
        # $REPRO_KERNEL_BACKEND (default: the canonical pure path).
        from repro.core import accel as _accel_mod

        self._accel = _accel_mod.resolve(kernel_backend)
        self.stats = CacheStats()
        self._cache: dict = {}
        self._alias = alias if store is not None else None
        if self._alias is not None and self._alias.fingerprint is not None:
            self._cache["fingerprint"] = self._alias.fingerprint
        #: True while the cached fingerprint is the alias's, unchecked.
        self._unchecked = "fingerprint" in self._cache
        #: ``_cache`` keys of the integer-seeded FPRAS sketches, oldest use first.
        self._seeded_sketches: OrderedDict[tuple, None] = OrderedDict()
        #: Cumulative wall time spent lowering (building) kernels for
        #: this witness set; 0.0 when every kernel came from the store.
        self._lowering_seconds = 0.0

    # ------------------------------------------------------------------
    # The cache: every expensive artifact goes through here exactly once.
    # ------------------------------------------------------------------

    def _cached(self, key, build):
        if key in self._cache:
            self.stats.record(key, hit=True)
            return self._cache[key]
        self.stats.record(key, hit=False)
        value = build()
        self._cache[key] = value
        return value

    @property
    def nfa(self) -> NFA | None:
        """The automaton (None on a plan-backed set); a deferred source
        is built on first read."""
        if self._pending is not None:
            self._build_source()
        return self._nfa

    @property
    def plan(self) -> Plan | None:
        """The symbolic plan (None on an NFA-backed set); a deferred
        source is built on first read."""
        if self._pending is not None:
            self._build_source()
        return self._plan

    def _build_source(self) -> None:
        """Run the deferred source's builder, then check the alias
        fingerprint the set has used so far against the source."""
        source = self._pending()
        self._pending = None
        if isinstance(source, Plan):
            self._plan = source
        else:
            self._nfa = source
        self._check_alias()

    def _check_alias(self) -> None:
        """Recompute a fingerprint taken from the store's alias.

        On a mismatch the alias is corrupt: it is counted, replaced by
        the true fingerprint, and every artifact read under the wrong one
        is dropped, so the set carries on as a cold build would.
        """
        if not self._unchecked:
            return
        self._unchecked = False
        del self._cache["fingerprint"]
        if self.fingerprint() != self._alias.fingerprint:
            self.store.stats.inc("corrupt")
            kept = ("fingerprint", "stripped", "source", "adjacency")
            self._cache = {key: self._cache[key] for key in kept if key in self._cache}
            self._seeded_sketches.clear()

    @property
    def stripped(self) -> NFA:
        """The ε-free trimmed automaton the *eager* algorithms consume.

        On a plan-backed witness set this **materializes** the plan's
        reachable fragment (the eager product cost the lazy pipeline
        otherwise avoids); only the ambiguous-instance fallbacks (FPRAS,
        subset counting, polynomial-delay enumeration) ever need it.  On
        an NFA-backed set it is also the source plan's automaton and what
        :meth:`fingerprint` hashes; the trim builds no transition index of
        the raw automaton (:meth:`~repro.automata.nfa.NFA.trim`).
        """
        if self.plan is not None:
            return self._cached("stripped", lambda: self.plan.to_nfa().trim())
        return self._cached("stripped", lambda: self.nfa.without_epsilon().trim())

    @property
    def _source(self) -> Plan:
        """The one source plan: :attr:`plan`, or else the stripped
        automaton as its :class:`~repro.core.plan.Atom`.

        Built on first use, so a warm start whose kernels and certificate
        come off the store never builds it: the set strips its automaton
        to fingerprint it, but neither certifies nor lowers it, and the
        stripped automaton's transition indexes stay unbuilt.
        """
        if self.plan is not None:
            return self.plan
        return self._cached("source", lambda: Atom(self.stripped))

    @property
    def _adjacency(self) -> dict:
        """One successor memo shared by every lowering of the source
        (trimmed + reachable kernels explore the same forward states)."""
        return self._cached("adjacency", dict)

    def fingerprint(self) -> str:
        """Stable content fingerprint of what the kernels are built from.

        The canonical SHA-256
        (:func:`repro.service.fingerprint.fingerprint_source`) of the
        plan, or else of the :attr:`stripped` automaton: every kernel,
        the ambiguity certificate and the FPRAS read only that, so two
        automata that trim to the same one share their stored artifacts.
        Identical across processes, platforms and hash seeds, so it
        addresses kernels in the on-disk
        :class:`~repro.service.store.KernelStore` and routes requests in
        the service engine.  Covers the source only — compose with ``n``
        for per-length artifacts.  Raises
        :class:`~repro.service.fingerprint.FingerprintError` when states
        or symbols have no canonical serialization.  The hash's wall
        time, without the strip, is recorded as the ``fingerprint`` stage.
        """
        from repro.service.fingerprint import fingerprint_source

        def build() -> str:
            source = self.plan if self.plan is not None else self.stripped
            started = time.perf_counter()
            value = fingerprint_source(source)
            add_stage(metric_names.STAGE_FINGERPRINT, time.perf_counter() - started)
            alias = self._alias
            if alias is not None and value != alias.fingerprint:
                self.store.put_alias(alias.key, alias.version, value)
            return value

        return self._cached("fingerprint", build)

    def _store_key(self):
        """``(store, fingerprint)`` when persistence is usable, else
        ``(None, None)`` — unfingerprintable sources opt out silently."""
        if self.store is None:
            return None, None
        from repro.service.fingerprint import FingerprintError

        try:
            return self.store, self.fingerprint()
        except FingerprintError:
            return None, None

    @property
    def is_unambiguous(self) -> bool:
        """The class-membership certificate (RelationUL vs RelationNL).

        The self-product check runs on the source plan's lazy interface
        — only the forward-reachable pairs of its self-product are ever
        expanded, and a composite plan's operands are never materialized.
        With a kernel store attached, the certificate is persisted per
        fingerprint (it is a property of the source, not of ``n``), so
        warm processes skip the self-product walk too.
        """

        def build() -> bool:
            store, fp = self._store_key()
            if store is not None:
                meta = store.get_meta(fp)
                if meta is not None and "unambiguous" in meta:
                    return meta["unambiguous"]
            value = is_unambiguous(self._source)
            if store is not None:
                self._check_alias()
                store.put_meta(self.fingerprint(), {"unambiguous": value})
            return value

        return self._cached("unambiguous", build)

    @property
    def nonempty(self) -> bool:
        """Exact emptiness test on the Lemma 15 pruned :attr:`kernel`.

        That kernel is the one every sampler reads next, and with a
        store attached it is restored from (or persisted to) the store
        like any other query's kernel.
        """
        return self._cached("nonempty", lambda: not self.kernel.is_empty)

    @property
    def dag(self) -> CompiledDAG:
        """The Lemma 15 pruned unrolling under its paper-facing name: the
        trimmed :attr:`kernel` itself, for every source."""
        return self.kernel

    @property
    def kernel(self) -> CompiledDAG:
        """The trimmed array-backed kernel every exact query executes on.

        One integer-indexed lowering (CSR edge arrays plus packed
        run-count tables), shared by ``count`` / ``sample`` /
        ``enumerate``; built exactly once per witness set by lowering
        the source plan (:func:`repro.core.plan.lower_plan`).  A
        composite plan lowers its forward-reachable, backward-useful
        fragment directly — no intermediate NFA — and its
        :class:`~repro.core.plan.LoweringStats` are surfaced by
        :meth:`describe`.  With a kernel store attached, a snapshot of
        the same instance (any process) is restored instead of lowering.
        """
        return self._cached(
            "kernel", lambda: self._load_or_build_kernel(trimmed=True, n=self.n)
        )

    @property
    def reachable_kernel(self) -> CompiledDAG:
        """The reachable-mode kernel at length ``n`` (FPRAS sketches and
        length spectra up to ``n``).

        Kept separate from :attr:`kernel` because Lemma 15 pruning is
        relative to length ``n`` while the FPRAS's prefix sets and the
        spectrum's per-length finals need every reachable vertex.  Every
        FPRAS sketch shares it, and it never changes: a spectrum past
        ``n`` reads a reachable kernel of its own length instead.
        """
        return self._cached(
            "reachable_kernel",
            lambda: self._load_or_build_kernel(trimmed=False, n=self.n),
        )

    def _load_or_build_kernel(self, trimmed: bool, n: int) -> CompiledDAG:
        """Restore the kernel at length ``n`` from the store, or build it
        and persist it.

        Snapshots are stored *with* the run-count table the mode's
        queries need (backward for the trimmed count/sample kernel,
        forward for the reachable spectrum/FPRAS kernel), so a warm
        process answers its first query from the snapshot alone.
        """
        store, fp = self._store_key()
        if store is not None:
            restored = store.get(fp, n, trimmed)
            if restored is not None:
                restored.accel = self._accel
                return restored
        # Lowering (source plan → compiled kernel) is the expensive build
        # step a kernel store exists to amortize; its wall time feeds the
        # per-stage histogram, the per-request trace, and describe().
        started = time.perf_counter()
        kernel = lower_plan(
            self._source, n, trimmed=trimmed, adjacency=self._adjacency
        )
        elapsed = time.perf_counter() - started
        self._lowering_seconds += elapsed
        add_stage(metric_names.STAGE_LOWERING, elapsed)
        kernel.accel = self._accel
        if store is not None:
            if trimmed:
                kernel.backward_counts()
            else:
                kernel.forward_counts()
            self._check_alias()
            store.put(self.fingerprint(), n, trimmed, kernel)
        return kernel

    def fpras_state(
        self,
        delta: float | None = None,
        rng: random.Random | int | None = None,
    ) -> FprasState:
        """The FPRAS sketch (Algorithm 5's preprocessing), cached per δ.

        Integer ``rng`` seeds get their own cache entry (reproducible
        pipelines), of which the :data:`SEEDED_SKETCHES_KEPT` most
        recently used stay resident; ``None`` / shared ``Random`` streams
        reuse the first sketch built at that δ.  Every sketch shares the
        cached :attr:`reachable_kernel`, so rebuilding at a different δ
        never re-unrolls the automaton.
        """
        resolved = delta if delta is not None else self.delta
        seed = rng if isinstance(rng, int) else None
        key = ("fpras", resolved, seed)
        generator = self.rng if rng is None else make_rng(rng)
        state = self._cached(
            key,
            lambda: FprasState(
                self.stripped,
                self.n,
                delta=resolved,
                rng=generator,
                params=self.params,
                kernel=self.reachable_kernel,
            ),
        )
        if seed is not None:
            recent = self._seeded_sketches
            recent[key] = None
            recent.move_to_end(key)
            if len(recent) > SEEDED_SKETCHES_KEPT:
                evicted, _ = recent.popitem(last=False)
                del self._cache[evicted]
        return state

    # ------------------------------------------------------------------
    # COUNT
    # ------------------------------------------------------------------

    def count_exact(self) -> int:
        """Exact ``|W|``: run-count DP when unambiguous, subset counter
        otherwise (exponential worst case — use an approximate backend at
        scale)."""
        if self.is_unambiguous:
            # On the pruned kernel, runs = words; the backward table's
            # layer-0 total is the count, shared with sampling.
            return self._cached("count_exact", lambda: self.kernel.total_runs)
        return self._cached(
            "count_exact", lambda: count_words_exact(self.stripped, self.n)
        )

    def count(
        self,
        backend: str | None = None,
        *,
        method: str | None = None,
        delta: float | None = None,
        epsilon: float | None = None,
        rng: random.Random | int | None = None,
        **options,
    ):
        """``|W|`` via a registered solver backend (default ``"exact"``).

        ``method=`` is an alias for ``backend=``; ``epsilon=`` for
        ``delta=`` (the FPRAS's relative-error bound).  Remaining keyword
        options are forwarded to the backend (e.g. ``samples=`` for
        ``montecarlo``).
        """
        if backend is not None and method is not None and backend != method:
            raise ValueError("pass either backend= or its alias method=, not both")
        name = backend or method or "exact"
        solver = _backends.get(name)
        solver.check_applicable(self)
        resolved_delta = delta if delta is not None else epsilon
        if not solver.exact:
            options["delta"] = resolved_delta
            options["rng"] = rng
        return solver.count(self, **options)

    def spectrum(self, max_length: int | None = None) -> dict[int, int]:
        """Exact ``{ℓ: |L_ℓ(N)|}`` for ``ℓ = 0..max_length`` (default n).

        The unambiguous route reads every length off one reachable
        kernel's forward table — one compilation for the whole sweep:
        the shared :attr:`reachable_kernel` when ``max_length ≤ n``, else
        a reachable kernel at ``max_length``, restored from the store or
        lowered over the set's shared successor memo (and persisted).
        """
        bound = self.n if max_length is None else max_length
        if bound < 0:
            raise ValueError("max_length must be ≥ 0")
        if self.is_unambiguous:
            def build():
                kernel = (
                    self.reachable_kernel
                    if bound <= self.n
                    else self._load_or_build_kernel(trimmed=False, n=bound)
                )
                spectrum = kernel.spectrum_counts()
                return {length: spectrum[length] for length in range(bound + 1)}

            return self._cached(("spectrum", bound), build)
        return self._cached(
            ("spectrum", bound),
            lambda: length_spectrum(
                self.stripped, range(bound + 1), exact_nfa=True
            ),
        )

    # ------------------------------------------------------------------
    # ENUM
    # ------------------------------------------------------------------

    def words(self, limit: int | None = None) -> Iterator[Word]:
        """Enumerate raw witness words (constant delay when unambiguous,
        polynomial delay otherwise), reusing the cached compiled kernel."""
        if self.is_unambiguous:
            iterator = enumerate_words_dag(self.kernel)
        else:
            iterator = enumerate_words_nfa(self.stripped, self.n)
        return iterator if limit is None else itertools.islice(iterator, limit)

    def enumerate(self, limit: int | None = None) -> Iterator:
        """Enumerate decoded witnesses (same delay guarantees)."""
        for w in self.words(limit=limit):
            yield self.decode(w)

    def enumerate_page(self, count: int, cursor=None) -> tuple[list, int | None]:
        """One resumable page: up to ``count`` decoded witnesses plus the
        cursor for the next page (``None`` when exhausted).

        This is the service layer's streamed-enumeration primitive: a
        client pages through a huge witness set chunk by chunk without
        the server ever materializing it.  A cursor is the offset of the
        next witness in :meth:`enumerate`'s order: ``None`` (meaning 0)
        or any integer ``0 ≤ r ≤ |W|``, so pages have random access.
        The page at ``r`` holds witnesses ``r, r + 1, …``, and the next
        cursor is ``r + count``, or ``None`` when no witness follows.
        Unambiguous sources resume in O(n) by unranking ``r`` through
        the backward table (:func:`repro.core.enumeration.
        enumerate_words_dag`); ambiguous sources re-walk the skipped
        prefix of the polynomial-delay flashlight enumeration.  Any
        other cursor raises ``ValueError`` rather than returning a wrong
        page.  Page boundaries never change the output: concatenating
        pages of any sizes equals :meth:`enumerate`.
        """
        if count < 0:
            raise ValueError("page size must be ≥ 0")
        offset = 0 if cursor is None else cursor
        invalid = ValueError("invalid enumeration cursor")
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise invalid
        if self.is_unambiguous:
            if offset and offset > self.kernel.total_runs:
                raise invalid
            iterator = enumerate_words_dag(self.kernel, offset)
        else:
            iterator = self.words()
            if sum(1 for _ in itertools.islice(iterator, offset)) < offset:
                raise invalid
        page = [self.decode(w) for w in itertools.islice(iterator, count)]
        if len(page) < count or next(iterator, None) is None:
            return page, None
        return page, offset + count

    # ------------------------------------------------------------------
    # GEN
    # ------------------------------------------------------------------

    def _sample_word_or_none(self, generator: random.Random) -> Word | None:
        if not self.nonempty:
            return None
        if self.is_unambiguous:
            return self.kernel.sample_word(generator)
        state = self.fpras_state()
        for _ in range(DEFAULT_ATTEMPTS_PER_CALL):
            w = state.sample_witness(generator)
            if w is not None:
                return w
        raise GenerationFailedError(DEFAULT_ATTEMPTS_PER_CALL)

    def sample(
        self,
        k: int | None = None,
        rng: random.Random | int | None = None,
        *,
        seed: int | None = None,
    ):
        """Uniform witnesses: one (or ``None`` when ``W = ∅``) by default,
        a list of ``k`` independent draws when ``k`` is given (raising
        :class:`EmptyWitnessSetError` on an empty set, mirroring the
        batched samplers).

        ``seed=`` is an integer alias for ``rng=`` (the spelling the
        service protocol uses): ``sample(5, seed=7)`` and
        ``sample(5, rng=7)`` draw the identical stream.  ``rng``
        additionally accepts a live ``random.Random`` to share a stream
        across calls; passing both is an error.
        """
        rng = _resolve_seed_alias(rng, seed)
        generator = self.rng if rng is None else make_rng(rng)
        if k is None:
            w = self._sample_word_or_none(generator)
            return None if w is None else self.decode(w)
        return self.sample_batch(k, generator)

    def sample_batch(
        self,
        k: int,
        rng: random.Random | int | None = None,
        *,
        seed: int | None = None,
        use_substreams: bool = False,
    ) -> list:
        """``k`` uniform witnesses drawn in one kernel pass.

        On the unambiguous route each draw is one ``randrange`` rank,
        unranked through the backward table, and all ``k`` draws walk
        the layers together, so each layer's arrays are looked up once
        per batch — the bulk-generation API.  The ranks are the shared
        stream's next ``k`` calls, so ``sample_batch(k, seed=s)`` equals
        ``sample(k, seed=s)``.  Ambiguous sources fall back to ``k``
        independent Las Vegas draws.

        With ``use_substreams=True``, draw ``i`` consumes the ``i``-th
        deterministic substream of the seed
        (:func:`repro.utils.rng.spawn_seq`) instead of one shared
        stream: each draw's result then depends only on ``(seed, i)``,
        never on how draws are grouped, coalesced with other requests,
        or scheduled across worker processes — the service protocol's
        reproducibility mode.  (When ``rng`` is a live shared generator
        — or omitted — the parent is ticked once after deriving the
        streams, so *repeated* calls still produce fresh batches; an
        integer seed gives the same batch every time, as a seed should.)

        ``seed=`` is an integer alias for ``rng=`` (see :meth:`sample`).
        """
        if k < 0:
            raise ValueError("sample count must be ≥ 0")
        rng = _resolve_seed_alias(rng, seed)
        generator = self.rng if rng is None else make_rng(rng)
        if not self.nonempty:
            raise EmptyWitnessSetError(f"no witnesses of length {self.n}")
        if use_substreams:
            streams = substreams(generator, k)
            if rng is None or isinstance(rng, random.Random):
                generator.getrandbits(32)  # advance the shared stream
            return self.sample_with_streams(streams)
        if self.is_unambiguous:
            words = self.kernel.sample_batch(k, generator)
            return [self.decode(w) for w in words]
        return [self.decode(self._sample_word_or_none(generator)) for _ in range(k)]

    def sample_with_streams(self, streams: list) -> list:
        """One kernel pass drawing ``len(streams)`` witnesses, draw ``i``
        consuming only ``streams[i]``.

        The coalescing primitive behind the service layer: requests for
        the same witness set are merged into a single table-guided pass,
        and because each draw owns its stream, every request's results
        are identical to serving it alone (see
        :meth:`~repro.core.kernel.CompiledDAG.sample_batch`).
        """
        if not streams:
            return []
        if not self.nonempty:
            raise EmptyWitnessSetError(f"no witnesses of length {self.n}")
        if self.is_unambiguous:
            words = self.kernel.sample_batch(len(streams), streams)
            return [self.decode(w) for w in words]
        return [self.decode(self._sample_word_or_none(g)) for g in streams]

    # ------------------------------------------------------------------
    # Witness codec and reports
    # ------------------------------------------------------------------

    def decode(self, w: Word):
        """Automaton word → domain witness (identity without a relation)."""
        if self.relation is None:
            return w
        return self.relation.decode_witness(self.instance, w)

    def encode(self, witness) -> Word:
        """Domain witness → automaton word (identity without a relation)."""
        if self.relation is None:
            return witness
        return self.relation.encode_witness(self.instance, witness)

    def contains(self, witness) -> bool:
        """Membership ``witness ∈ W`` (the p-relation check), by
        on-the-fly subset simulation over the source plan — no
        materialization."""
        w = self.encode(witness)
        if len(w) != self.n:
            return False
        return self._source.accepts(w)

    def describe(self) -> dict:
        """Automaton facts for reports and ``repro inspect``.

        Plan-backed sets report the symbolic plan's shape and the
        lowering statistics instead of materialized-automaton facts:
        ``states`` / ``transitions`` are the compiled kernel's vertex and
        edge counts, and ``lowering`` shows how many product states the
        lazy exploration touched (``explored_states`` /
        ``reached_states``) against the ``nominal_states`` cross-product
        size the eager pipeline would have allocated — the blow-up
        avoided.

        ``kernel_backend`` names the accelerated backend in use (or
        ``"pure"``), and ``lowering_seconds`` is the cumulative wall
        time this set spent building kernels — the in-process view of
        ``repro_stage_seconds{stage="lowering"}``; ``0.0`` means every
        kernel so far came off the store.
        """
        plan = self.plan  # builds a deferred source before any stored fact is read
        info = {
            "source": self.source,
            "length": self.n,
            "unambiguous": self.is_unambiguous,
            "class": "RelationUL" if self.is_unambiguous else "RelationNL",
            "kernel_backend": (
                self._accel.name if self._accel is not None else "pure"
            ),
            # Cumulative wall time this set spent building kernels;
            # 0.0 means every kernel so far was restored from the store
            # (or none has been needed yet).
            "lowering_seconds": self._lowering_seconds,
        }
        if plan is not None:
            kernel = self.kernel

            def shape() -> tuple[int, int]:
                # Distinct product states/transitions in the compiled
                # kernel: the analog of the eager route's trimmed
                # automaton size, so the numbers stay comparable across
                # sources (per-layer unrolled sizes are in
                # lowering.kernel_vertices/_edges).
                states: set = set(kernel.layer_states(kernel.n))
                transitions: set = set()
                for t in range(kernel.n):
                    for state in kernel.layer_states(t):
                        states.add(state)
                        for symbol, target in kernel.successors(t, state):
                            transitions.add((state, symbol, target))
                return len(states), len(transitions)

            num_states, num_transitions = self._cached("plan_shape", shape)
            info.update(
                {
                    "plan": plan.describe(),
                    "states": num_states,
                    "transitions": num_transitions,
                    "alphabet": plan.alphabet,
                    "lowering": (
                        kernel.lowering.as_dict()
                        if kernel.lowering is not None
                        else None
                    ),
                }
            )
            return info
        stripped = self.stripped
        info.update(
            {
                "states": stripped.num_states,
                "transitions": stripped.num_transitions,
                "alphabet": stripped.alphabet,
            }
        )
        return info

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        if self._pending is not None:
            return f"<WitnessSet source={self.source!r} n={self.n} deferred>"
        if self._plan is not None:
            return (
                f"<WitnessSet source={self.source!r} n={self.n} "
                f"plan={self._plan.describe()}>"
            )
        return (
            f"<WitnessSet source={self.source!r} n={self.n} "
            f"states={self._nfa.num_states}>"
        )

    # ------------------------------------------------------------------
    # Uniform constructors: one per application domain
    # ------------------------------------------------------------------

    @classmethod
    def from_nfa(cls, nfa: NFA, n: int, **kwargs) -> "WitnessSet":
        """Wrap a raw automaton: witnesses are ``L_n(nfa)`` verbatim."""
        kwargs.setdefault("source", "nfa")
        return cls(nfa, n, **kwargs)

    @classmethod
    def up_to(cls, nfa: NFA, n: int, **kwargs) -> "WitnessSet":
        """The accepted words of length *at most* ``n``, as one witness set.

        The words of ``pad_automaton(nfa)`` of length exactly ``n``, with
        the pad block stripped on the way out (the §2.1 padding, see
        :class:`~repro.core.spectrum.UpToRelation`), so every query,
        backend and the kernel store apply unchanged.  Enumeration
        follows the padded words' kernel order, not shortest first.
        """
        return cls.from_compiled(UpToRelation(), (nfa, n), **kwargs)

    @classmethod
    def from_plan(cls, plan, n: int, **kwargs) -> "WitnessSet":
        """Wrap a symbolic :class:`~repro.core.plan.Plan`: witnesses are
        the length-``n`` words of the plan's language.

        The plan is lowered lazily: counting, sampling, enumeration and
        spectra compile only the forward-reachable (and backward-useful)
        product fragment straight into the array kernel — the composed
        automaton is never materialized unless an ambiguous-instance
        fallback requires it.  Lowered kernels are cached per plan on
        this witness set (``ws.stats`` records the hits and misses under
        the ``"kernel"`` / ``"reachable_kernel"`` keys, as for NFA-backed
        sets).
        """
        kwargs.setdefault("source", "plan")
        return cls(None, n, plan=as_plan(plan), **kwargs)

    @classmethod
    def from_intersection(cls, left, right, n: int, **kwargs) -> "WitnessSet":
        """The witnesses two patterns *share*: ``L_n(left) ∩ L_n(right)``.

        ``left`` / ``right`` may be NFAs, regex strings or plans; the
        intersection is a lazy :class:`~repro.core.plan.Product` — no
        product automaton is built, only the reachable fragment of the
        pair graph is explored at query time.  This is the
        ``--intersect`` CLI workload: count / sample / enumerate the
        strings on which two patterns agree.
        """
        kwargs.setdefault("source", "intersection")
        return cls.from_plan(Product(as_plan(left), as_plan(right)), n, **kwargs)

    @classmethod
    def from_regex(
        cls, pattern: str, n: int, alphabet=None, **kwargs
    ) -> "WitnessSet":
        """The headline use case: length-``n`` strings of a regex."""
        alphabet_list = list(alphabet) if alphabet is not None else None
        kwargs.setdefault("source", "regex")
        return cls(compile_regex(pattern, alphabet=alphabet_list), n, **kwargs)

    @classmethod
    def from_dnf(cls, formula, via_transducer: bool = False, **kwargs) -> "WitnessSet":
        """Satisfying assignments of a DNF formula (§3; Karp–Luby-capable).

        ``formula`` is a :class:`~repro.dnf.DNFFormula` or the textual
        ``"x0 & !x2 | x1"`` syntax of :func:`repro.dnf.parse_dnf`.
        """
        from repro.dnf.formulas import DNFFormula, parse_dnf
        from repro.dnf.relation import SatDnfRelation

        if isinstance(formula, str):
            formula = parse_dnf(formula)
        if not isinstance(formula, DNFFormula):
            raise InvalidRelationInputError(
                f"expected a DNFFormula or DNF text, got {type(formula).__name__}"
            )
        relation = SatDnfRelation(via_transducer=via_transducer)
        compiled = relation.compile(formula)
        kwargs.setdefault("source", "dnf")
        return cls(
            compiled.nfa,
            compiled.length,
            relation=relation,
            instance=formula,
            **kwargs,
        )

    @classmethod
    def from_obdd(cls, diagram, **kwargs) -> "WitnessSet":
        """Models of an OBDD (Corollary 9) or nOBDD (Corollary 10)."""
        from repro.bdd.nobdd import NOBDD, EvalNobddRelation
        from repro.bdd.obdd import OBDD, EvalObddRelation

        if isinstance(diagram, OBDD):
            relation, source = EvalObddRelation(), "obdd"
        elif isinstance(diagram, NOBDD):
            relation, source = EvalNobddRelation(), "nobdd"
        else:
            raise InvalidRelationInputError(
                f"expected an OBDD or NOBDD, got {type(diagram).__name__}"
            )
        compiled = relation.compile(diagram)
        kwargs.setdefault("source", source)
        return cls(
            compiled.nfa,
            compiled.length,
            relation=relation,
            instance=diagram,
            **kwargs,
        )

    @classmethod
    def from_rpq(
        cls,
        graph,
        query,
        source,
        target,
        n: int,
        deterministic_query: bool = False,
        **kwargs,
    ) -> "WitnessSet":
        """Length-``n`` paths ``source → target`` conforming to ``query``
        (§4.2, Corollary 8); witnesses decode to :class:`~repro.graphdb.Path`.

        Compiles to a lazy :class:`~repro.core.plan.GraphProduct` plan:
        the ``G × A_R`` product is lowered on the fly, so only the
        product states reachable from ``(source, q₀)`` within ``n``
        steps are ever allocated — the big-graph RPQ fast path.

        ``deterministic_query=True`` determinizes the query automaton so
        the product is unambiguous and the exact suite applies.
        """
        from repro.graphdb.rpq import RPQ, EvalRpqRelation, compile_rpq_plan

        if isinstance(query, str):
            query = RPQ(query)
        plan = compile_rpq_plan(graph, query, source, target, deterministic_query)
        kwargs.setdefault("source", "rpq")
        return cls.from_plan(
            plan,
            n,
            relation=EvalRpqRelation(),
            instance=(query, n, graph, source, target),
            **kwargs,
        )

    @classmethod
    def from_spanner(cls, eva, document: str, **kwargs) -> "WitnessSet":
        """Mappings ``⟦A⟧(d)`` of a functional eVA over a document
        (§4.1, Corollaries 6–7); witnesses decode to ``Mapping`` objects.

        Compiles to a lazy :class:`~repro.core.plan.DocProduct` plan —
        the Lemma 13 document product lowered on the fly, so only the
        ``(state, position)`` configurations a run can visit are ever
        allocated: the long-document spanner fast path."""
        from repro.spanners.evaluation import EvalEvaRelation, compile_eva_plan

        plan = compile_eva_plan(eva, document)
        kwargs.setdefault("source", "spanner")
        return cls.from_plan(
            plan,
            len(document) + 1,
            relation=EvalEvaRelation(),
            instance=(eva, document),
            **kwargs,
        )

    @classmethod
    def from_cfg(cls, grammar, n: int, limit: int = 100_000, **kwargs) -> "WitnessSet":
        """Length-``n`` words of a CNF grammar, via explicit
        materialization into a trie UFA.

        CFGs lie outside the paper's automaton classes (this is the
        [GJK+97] setting); the constructor exists for API uniformity on
        instance sizes where the length-``n`` slice is materializable —
        the trie is deterministic, so the exact RelationUL suite applies.
        """
        try:
            words = grammar.words_of_length(n, limit=limit)
        except InvalidRelationInputError as error:
            raise InvalidRelationInputError(
                f"the grammar's length-{n} slice exceeds {limit} words; "
                "from_cfg materializes the slice and is meant for small instances"
            ) from error
        alphabet = set(grammar.terminals) or {"∅"}
        states: set = {()}
        transitions: set = set()
        for w in words:
            for i in range(n):
                states.add(w[: i + 1])
                transitions.add((w[:i], w[i], w[: i + 1]))
        trie = NFA(states, alphabet, transitions, (), set(words))
        kwargs.setdefault("source", "cfg")
        return cls(trie, n, instance=grammar, **kwargs)

    @classmethod
    def from_compiled(
        cls,
        relation: AutomatonBackedRelation,
        instance,
        compiled: CompiledInstance | None = None,
        **kwargs,
    ) -> "WitnessSet":
        """The query object of a relation of one's own: ``instance``
        compiled by any :class:`AutomatonBackedRelation`, witnesses
        decoded back into the relation's domain.

        The class is read off the ambiguity certificate, as for every
        other constructor: Theorem 5's exact suite when the compiled
        automaton is unambiguous, Theorem 2's FPRAS / PLVUG otherwise.
        Callers who must refuse ambiguous input run
        :func:`~repro.automata.unambiguous.require_unambiguous` on the
        compiled automaton first.  ``compiled`` skips the compile when
        the caller already holds it.
        """
        compiled = compiled or relation.compile(instance)
        kwargs.setdefault("source", getattr(relation, "name", "relation"))
        return cls(
            compiled.nfa,
            compiled.length,
            relation=relation,
            instance=instance,
            **kwargs,
        )


__all__ = ["WitnessSet", "CacheStats"]
