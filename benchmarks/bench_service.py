"""S1 — the witness service: warm-store startup, engine throughput,
scheduling-invariant sampling, and the async server's concurrency wins.

Claims measured (and asserted, so regressions fail the suite):

* S1a: a warm :class:`KernelStore` start answers its first query with
  zero lowering work — the kernel and the ambiguity certificate both
  come off disk (store hit) — and is ≥ 5x faster than the cold start on
  a 200-state NFA at n = 100.
* S1b: a 4-worker engine sustains higher throughput than the
  single-process engine on a mixed count/sample workload.  The ≥ 2x
  bound is asserted when the machine actually has ≥ 4 usable cores
  (CI runners do); on smaller machines the numbers are recorded as an
  observation only — a fork pool cannot beat physics.
* S1c: seeded ``sample`` results are **byte-identical** between
  in-process execution (workers=0), a single-worker pool and a 4-worker
  pool — the deterministic-substream contract makes worker scheduling
  invisible in the output.  Asserted unconditionally.
* S1d: coalescing same-spec sample requests into one ``sample_batch``
  kernel pass beats answering them one at a time (recorded; this is the
  server's batching win, independent of core count).
* S1e: the async TCP server serves N parallel clients ≥ 3x faster than
  the same workload issued sequentially over one connection —
  cross-connection coalescing plus concurrent I/O is the whole point of
  the asyncio rewrite.  Responses are byte-identical either way.
* S1f: streamed enumeration's first chunk arrives in well under two
  seconds on a 2⁶⁰-word witness set — the constant-delay guarantee as a
  user-visible first-result latency, impossible if the server
  materialized the set.
* S1g: a warm ``KernelStore`` start through the mmap tier
  (``KernelStore(root, mmap=True)``, snapshot format v3: an aligned
  payload and one label table per kernel) beats the full-deserialize
  restore on a payload-heavy kernel — the zero-copy views skip the array
  copies, so only the JSON header and the label-id rows are read
  eagerly.  Gated at ≥ 1.5x; answers are identical either way.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

from repro.api import WitnessSet
from repro.automata.nfa import NFA
from repro.automata.random_gen import random_ufa
from repro.automata.serialization import nfa_to_json
from repro.core.kernel import compile_nfa
from repro.service import Engine, KernelStore, ServiceClient
from repro.service.fingerprint import fingerprint_source
from repro.service.server import start_tcp_server_thread

M = 200          # automaton states (the ISSUE-2/ISSUE-4 acceptance instance)
N = 100          # witness length
SEED = 20190621

#: Throughput workload shape: WAVES rounds of the mixed request batch.
WAVES = 5
SPECS = 8
SAMPLES_PER_REQUEST = 150


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _instance(seed: int = SEED, states: int = M, length: int = N):
    return random_ufa(
        states, rng=seed, completeness=0.95, ensure_nonempty_length=length
    )


# ----------------------------------------------------------------------
# S1a — warm-store startup
# ----------------------------------------------------------------------


def _first_query_seconds(nfa, store) -> tuple[int, float]:
    """Fresh witness set → first count answered (the startup path)."""
    started = time.perf_counter()
    ws = WitnessSet.from_nfa(nfa, N, store=store)
    count = ws.count()
    return count, time.perf_counter() - started


def test_warm_store_start_beats_cold(observe):
    nfa = _instance()
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = KernelStore(root)
        cold_count, cold_seconds = _first_query_seconds(nfa, store)
        assert store.stats.stores >= 1, "cold start must persist its kernel"

        warm = KernelStore(root)  # fresh stats: a new process's view
        warm_count, warm_seconds = _first_query_seconds(nfa, warm)
        assert warm_count == cold_count
        assert warm.stats.hits >= 1 and warm.stats.misses == 0, (
            "warm start must answer from the store alone"
        )
        speedup = cold_seconds / warm_seconds
        observe(
            "S1a",
            f"m={M} n={N} first count: cold={cold_seconds:.3f}s "
            f"warm={warm_seconds:.3f}s speedup={speedup:.1f}x "
            f"(store {warm.stats.as_dict()})",
        )
        assert speedup >= 5.0, (
            f"warm start ({warm_seconds:.3f}s) must be ≥5x faster than cold "
            f"({cold_seconds:.3f}s), got {speedup:.1f}x"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_warm_start_skips_all_preprocessing(observe):
    """Zero lowering work on the warm path: the facade never builds the
    source plan that the self-product check and the lowering read, their
    successor memo or the unrolled DAG, lowers nothing, and leaves the
    stripped automaton it fingerprints without transition indexes."""
    nfa = _instance(SEED + 1)
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        WitnessSet.from_nfa(nfa, N, store=KernelStore(root)).count()
        # An equal automaton with no index built, as a new process decodes it.
        fresh = NFA(nfa.states, nfa.alphabet, nfa.transitions, nfa.initial, nfa.finals)
        warm_ws = WitnessSet.from_nfa(fresh, N, store=KernelStore(root))
        warm_ws.count()
        warm_ws.sample_batch(10, rng=1, use_substreams=True)
        built = set(warm_ws._cache)
        assert not built & {"source", "adjacency", "dag"}, (
            f"warm path built preprocessing artifacts: {sorted(built)}"
        )
        assert warm_ws._lowering_seconds == 0.0, "warm path lowered a kernel"
        indexed = []
        for index_slot in (NFA._delta, NFA._rdelta):
            try:
                index_slot.__get__(warm_ws.stripped, NFA)
                indexed.append(index_slot.__name__)
            except AttributeError:
                pass
        assert not indexed, f"warm path indexed the stripped automaton: {indexed}"
        observe("S1a", f"warm-path artifacts built: {sorted(built)}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# S1g — mmap zero-copy warm start (ISSUE-8 acceptance gate)
# ----------------------------------------------------------------------

MMAP_MIN_SPEEDUP = 1.5


def _payload_heavy_kernel():
    """A kernel whose snapshot is dominated by CSR/count payload (~30MB):
    a 2048-state complete DFA on 64 symbols with a dead mirror keeping
    the count packed (4 live symbols per state → 4^30 = 2^60 words)."""
    m, nsym, live, mult, n = 1024, 64, 4, 769, 30
    transitions = []
    for c in range(m):
        alive, dead = c * 2 + 1, c * 2
        for i in range(nsym):
            target = (mult * c + i) % m
            transitions.append((dead, i, target * 2))
            trapdoor = (c + i) % (nsym // live) != 3
            transitions.append((alive, i, target * 2 if trapdoor else target * 2 + 1))
    nfa = NFA(
        states=set(range(2 * m)),
        alphabet=set(range(nsym)),
        transitions=set(transitions),
        initial=1,
        finals=set(range(1, 2 * m, 2)),
    )
    kernel = compile_nfa(nfa, n, trimmed=False)
    kernel.backward_counts()
    kernel.forward_counts()
    return nfa, kernel, n


def test_mmap_store_beats_full_deserialize(observe):
    nfa, kernel, n = _payload_heavy_kernel()
    root = tempfile.mkdtemp(prefix="repro-bench-mmap-")
    try:
        fingerprint = fingerprint_source(nfa)
        KernelStore(root).put(fingerprint, n, False, kernel)
        size_mb = os.path.getsize(KernelStore(root).path_for(fingerprint, n, False)) / 1e6

        seconds = {False: float("inf"), True: float("inf")}
        counts = {}
        for _ in range(3):  # best-of-3, alternating so page cache is fair
            for mmap_mode in (False, True):
                store = KernelStore(root, mmap=mmap_mode)
                started = time.perf_counter()
                restored = store.get(fingerprint, n, False)
                counts[mmap_mode] = restored.total_runs
                seconds[mmap_mode] = min(
                    seconds[mmap_mode], time.perf_counter() - started
                )
                if mmap_mode and restored._borrow_owner is not None:
                    assert store.stats.mmap_hits == 1, (
                        "mmap store must hand out a borrowed (zero-copy) kernel"
                    )
        assert counts[False] == counts[True] == kernel.total_runs
        speedup = seconds[False] / seconds[True]
        observe(
            "S1g",
            f"{size_mb:.0f}MB snapshot warm get(): full-deserialize="
            f"{seconds[False] * 1000:.1f}ms mmap={seconds[True] * 1000:.1f}ms "
            f"speedup={speedup:.2f}x",
        )
        assert speedup >= MMAP_MIN_SPEEDUP, (
            f"mmap warm start {speedup:.2f}x below the "
            f"{MMAP_MIN_SPEEDUP}x acceptance gate"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# S1b / S1c — engine throughput and scheduling invariance
# ----------------------------------------------------------------------


def _specs() -> list[dict]:
    """Distinct mid-size instances, shipped by content (nfa JSON)."""
    specs = []
    for index in range(SPECS):
        nfa = _instance(SEED + 10 + index, states=80, length=60)
        specs.append({"kind": "nfa", "nfa": json.loads(nfa_to_json(nfa)), "n": 60})
    return specs


def _mixed_wave(specs: list[dict], wave: int) -> list[dict]:
    """One traffic wave: a count plus two seeded sample requests per spec."""
    requests: list[dict] = []
    rid = wave * 1000
    for spec_index, spec in enumerate(specs):
        requests.append({"id": rid, "op": "count", "spec": spec})
        rid += 1
        for burst in range(2):
            requests.append(
                {
                    "id": rid,
                    "op": "sample",
                    "spec": spec,
                    "k": SAMPLES_PER_REQUEST,
                    "seed": wave * 100 + spec_index * 10 + burst,
                }
            )
            rid += 1
    return requests


def _run_waves(engine: Engine, specs: list[dict]) -> tuple[float, int]:
    """Total wall-clock and request count for the full workload."""
    engine.execute(_mixed_wave(specs, 99))  # warm resident caches
    served = 0
    started = time.perf_counter()
    for wave in range(WAVES):
        served += len(engine.execute(_mixed_wave(specs, wave)))
    return time.perf_counter() - started, served


def test_engine_throughput_and_identity(observe):
    specs = _specs()
    store_root = tempfile.mkdtemp(prefix="repro-bench-engine-")
    try:
        # Pre-warm the shared store so worker cold misses restore
        # snapshots instead of lowering (the deployment configuration).
        with Engine(workers=0, store_root=store_root) as warmup:
            warmup.execute(
                [{"id": i, "op": "count", "spec": spec} for i, spec in enumerate(specs)]
            )

        identity_wave = _mixed_wave(specs, 7)

        with Engine(workers=0, store_root=store_root) as single:
            single_seconds, served = _run_waves(single, specs)
            single_results = [
                response.get("result") for response in single.execute(identity_wave)
            ]
        single_rps = served / single_seconds

        with Engine(workers=1, store_root=store_root) as one_worker:
            one_results = [
                response.get("result") for response in one_worker.execute(identity_wave)
            ]

        with Engine(workers=4, store_root=store_root) as pool:
            pool_seconds, pool_served = _run_waves(pool, specs)
            pool_results = [
                response.get("result") for response in pool.execute(identity_wave)
            ]
        pool_rps = pool_served / pool_seconds

        # S1c — byte identity across scheduling regimes (always binding).
        canonical = json.dumps(single_results, sort_keys=True)
        assert json.dumps(one_results, sort_keys=True) == canonical, (
            "single-worker results differ from in-process results"
        )
        assert json.dumps(pool_results, sort_keys=True) == canonical, (
            "4-worker results differ from in-process results"
        )

        cores = _usable_cores()
        ratio = pool_rps / single_rps
        observe(
            "S1b",
            f"mixed workload ({served} requests): single={single_rps:.0f} req/s "
            f"4-worker={pool_rps:.0f} req/s ratio={ratio:.2f}x (cores={cores})",
        )
        observe("S1c", "sample bytes identical across workers=0/1/4")
        if cores >= 4:
            assert ratio >= 2.0, (
                f"4-worker engine must sustain ≥2x single-process throughput "
                f"on {cores} cores, got {ratio:.2f}x"
            )
        else:
            observe(
                "S1b",
                f"≥2x gate skipped: only {cores} usable core(s) on this machine",
            )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


# ----------------------------------------------------------------------
# S1d — coalescing win
# ----------------------------------------------------------------------


def test_coalescing_beats_one_at_a_time(observe):
    # The classic serving shape: many independent single-sample requests
    # on one hot instance — exactly what the server's batch window
    # coalesces into one kernel pass.
    spec = _specs()[0]
    burst = [
        {"id": i, "op": "sample", "spec": spec, "k": 1, "seed": i}
        for i in range(120)
    ]
    with Engine(workers=0) as engine:
        engine.execute(burst)  # warm the kernel and weight caches

        single_seconds = batched_seconds = float("inf")
        singles = batched = None
        for _ in range(3):  # best-of-3 against scheduler noise
            started = time.perf_counter()
            singles = [engine.execute([request])[0] for request in burst]
            single_seconds = min(single_seconds, time.perf_counter() - started)

            started = time.perf_counter()
            batched = engine.execute(burst)
            batched_seconds = min(batched_seconds, time.perf_counter() - started)

    assert [r["result"] for r in singles] == [r["result"] for r in batched], (
        "coalescing must not change any response"
    )
    assert all(r.get("coalesced") == len(burst) for r in batched)
    speedup = single_seconds / batched_seconds
    observe(
        "S1d",
        f"{len(burst)} same-spec single-sample requests: one-at-a-time="
        f"{single_seconds * 1000:.1f}ms coalesced={batched_seconds * 1000:.1f}ms "
        f"({speedup:.2f}x)",
    )
    assert batched_seconds < single_seconds, (
        "one coalesced kernel pass must beat one-at-a-time execution"
    )


# ----------------------------------------------------------------------
# S1e / S1f — the async TCP server: concurrent clients, streamed enum
# ----------------------------------------------------------------------

CLIENTS = 8
REQUESTS_PER_CLIENT = 15

#: The streamed-enumeration instance: |W| = 2^60 — materialization is
#: physically impossible, so any answer at all proves streaming.
HUGE_SPEC = {"kind": "regex", "pattern": "(a|b)*", "alphabet": "ab", "n": 60}


def _start_server(engine: Engine, **kwargs):
    return start_tcp_server_thread(engine, **kwargs)


def _burst(client_index: int, spec: dict) -> list[dict]:
    return [
        {"op": "sample", "spec": spec, "k": 1, "seed": client_index * 1000 + i}
        for i in range(REQUESTS_PER_CLIENT)
    ]


def test_concurrent_clients_beat_sequential(observe):
    """S1e: N parallel clients vs the same requests sequentially."""
    spec = _specs()[0]
    engine = Engine(workers=0)
    thread, (host, port) = _start_server(engine)
    try:
        with ServiceClient(host, port, timeout=60) as warm:
            warm.request("count", spec)  # compile once before timing

        # Sequential: one connection, every request awaited in turn.
        sequential_results: list = []
        started = time.perf_counter()
        with ServiceClient(host, port, timeout=60) as client:
            for index in range(CLIENTS):
                for request in _burst(index, spec):
                    sequential_results.append(
                        client.result(request["op"], spec, k=1, seed=request["seed"])
                    )
        sequential_seconds = time.perf_counter() - started

        # Parallel: one connection per client thread, same total work.
        parallel_results: list = [None] * CLIENTS
        barrier = threading.Barrier(CLIENTS)

        def client_main(index: int) -> None:
            with ServiceClient(host, port, timeout=60) as client:
                barrier.wait(timeout=10)
                results = []
                for request in _burst(index, spec):
                    results.append(
                        client.result(request["op"], spec, k=1, seed=request["seed"])
                    )
                parallel_results[index] = results

        threads = [
            threading.Thread(target=client_main, args=(index,))
            for index in range(CLIENTS)
        ]
        started = time.perf_counter()
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=120)
        parallel_seconds = time.perf_counter() - started

        flattened = [r for results in parallel_results for r in results]
        assert flattened == sequential_results, (
            "parallel responses must be byte-identical to sequential ones"
        )
        total = CLIENTS * REQUESTS_PER_CLIENT
        speedup = sequential_seconds / parallel_seconds
        observe(
            "S1e",
            f"{total} single-sample requests: sequential={sequential_seconds:.2f}s "
            f"({total / sequential_seconds:.0f} req/s) {CLIENTS}-parallel="
            f"{parallel_seconds:.2f}s ({total / parallel_seconds:.0f} req/s) "
            f"speedup={speedup:.1f}x",
        )
        assert speedup >= 3.0, (
            f"{CLIENTS} parallel clients must be ≥3x faster than sequential, "
            f"got {speedup:.1f}x"
        )
    finally:
        try:
            with ServiceClient(host, port, timeout=5) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=10)
        engine.close()


def test_streamed_enumeration_first_chunk_latency(observe):
    """S1f: time-to-first-witness on a 2^60-word set."""
    engine = Engine(workers=0)
    thread, (host, port) = _start_server(engine)
    try:
        with ServiceClient(host, port, timeout=60) as client:
            started = time.perf_counter()
            stream = client.enumerate(HUGE_SPEC, chunk_size=100)
            first = next(stream)
            first_seconds = time.perf_counter() - started
            head = [first] + [next(stream) for _ in range(299)]
            head_seconds = time.perf_counter() - started
            stream.close()
        assert len(set(head)) == 300 and all(len(w) == 60 for w in head)
        observe(
            "S1f",
            f"2^60-word set: first witness in {first_seconds * 1000:.0f}ms, "
            f"300 witnesses in {head_seconds * 1000:.0f}ms (chunked stream)",
        )
        assert first_seconds < 2.0, (
            f"first streamed witness took {first_seconds:.2f}s — the server "
            "must not materialize the witness set"
        )
    finally:
        try:
            with ServiceClient(host, port, timeout=5) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=10)
        engine.close()
