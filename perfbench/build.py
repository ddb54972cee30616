"""Workload ``build``: cold builds and warm-store restarts of distinct instances.

A seeded stream of distinct instances in three shapes, taken round
robin, each sized to take a few hundred milliseconds cold:

* ``long``: a sparse random partial DFA, m=300, |Σ|=3, n=200 (unrolling
  and lowering dominate);
* ``wide``: a complete trapdoor DFA of the K1d family, 202 states and
  128 symbols (25,856 transitions), n=7 (NFA construction dominates);
* ``product``: an ``intersection`` of two m=60 random partial DFAs
  shipped as ``nfa`` sub-specs, n=100, kept to a band of reachable
  product size so the shape's cost is steady (plan lowering dominates).

Cold: spec → ``WitnessSet`` with a ``KernelStore`` attached → ``count()``
→ one seeded 100-draw ``sample_batch(use_substreams=True)``.  Restart: a
fresh witness set answers the same through a fresh
``KernelStore(root, mmap=True)`` handle on the same directory.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

import gen
from run import peak_rss_mb, percentile
from spans import Tracer
from speed import Speedometer

SHAPES = ("long", "wide", "product")
DRAWS = 100
#: Reachable product vertices (summed over layers, projected from the
#: first SCREEN_DEPTH layers) a ``product`` instance must have: this
#: bounds the shape's lowering work, and the band holds ~10% of draws.
PRODUCT_BAND = (57_000, 63_000)
SCREEN_DEPTH = 30
TAIL = 75
SETUP_REPS = 3
#: Nominal seconds per round (one instance of each shape, cold and
#: restarted): a run does ``--seconds / ROUND_S`` rounds, so every run of
#: a seed does the same work whatever the host's speed.
ROUND_S = 2.2


class Instance:
    def __init__(self, shape: str, spec: dict, count: int, members: list, transitions: int):
        self.shape = shape
        self.spec = spec
        self.count = count
        self.members = members
        self.transitions = transitions

    def accepts(self, word) -> bool:
        return len(word) == self.spec["n"] and all(m.accepts(word) for m in self.members)


def make_instance(rng: random.Random, shape: str, small: bool = False) -> Instance:
    """One distinct instance; ``small`` gives the set-up's warm-up sizes."""
    if shape == "long":
        n = 20 if small else 200
        doc = gen.random_dfa(rng, 30 if small else 300, "abc", 0.6, n)
        spec = {"kind": "nfa", "nfa": doc, "n": n}
        return Instance(shape, spec, gen.count_dfa_words(doc, n), [gen.Dfa(doc)], len(doc["transitions"]))
    if shape == "wide":
        n = 4 if small else 7
        doc = gen.trapdoor_dfa(rng, 11 if small else 101, 128, 8)
        spec = {"kind": "nfa", "nfa": doc, "n": n}
        return Instance(shape, spec, gen.count_dfa_words(doc, n), [gen.Dfa(doc)], len(doc["transitions"]))
    n, m = (20, 8) if small else (100, 60)
    while True:
        left = gen.random_dfa(rng, m, "ab", 0.85, n)
        right = gen.random_dfa(rng, m, "ab", 0.85, n)
        if not small:
            # Layer sizes settle within a few dozen steps, so the first
            # SCREEN_DEPTH layers project the explored size cheaply.
            sizes = gen.product_layers(left, right, SCREEN_DEPTH)
            projected = sum(sizes) + (n - SCREEN_DEPTH) * sizes[-1]
            if not PRODUCT_BAND[0] <= projected <= PRODUCT_BAND[1]:
                continue
        count = gen.product_count(left, right, n)
        if count:
            break
    spec = {
        "kind": "intersection",
        "left": {"kind": "nfa", "nfa": left},
        "right": {"kind": "nfa", "nfa": right},
        "n": n,
    }
    transitions = len(left["transitions"]) + len(right["transitions"])
    return Instance(shape, spec, count, [gen.Dfa(left), gen.Dfa(right)], transitions)


# ----------------------------------------------------------------------
# Untraced: the store stays attached through the facade.
# ----------------------------------------------------------------------


def answer(spec: dict, store, draw_seed: int):
    """spec → witness set → count → seeded 100-draw batch."""
    from repro.service.protocol import witness_set_from_spec

    ws = witness_set_from_spec(spec, store=store)
    return ws.count(), ws.sample_batch(DRAWS, rng=draw_seed, use_substreams=True)


def timed(meter: Speedometer, call, *args):
    """``call(*args)`` and its ``(start, end)``, with reference samples before."""
    gc.collect()
    meter.sample()
    started = time.perf_counter()
    value = call(*args)
    return value, (started, time.perf_counter())


# ----------------------------------------------------------------------
# Traced: the store is detached and the benchmark persists the kernel
# itself, so lowering, counting and persisting land in separate spans.
# ----------------------------------------------------------------------


def traced_cold(tracer: Tracer, layer: dict, spec: dict, store, draw_seed: int):
    from repro.service.protocol import witness_set_from_spec
    from repro.utils.rng import make_rng, substreams

    span = tracer.span
    with tracer.op():
        with span("automata.build"):
            ws = witness_set_from_spec(spec, store=False)
        plan_backed = ws.plan is not None
        if not plan_backed:
            with span("automata.strip"):
                ws.stripped
        with span("service.fingerprint"):
            fingerprint = ws.fingerprint()
        with span("automata.unambiguous"):
            unambiguous = ws.is_unambiguous
        with span("service.store.get"):
            store.get(fingerprint, ws.n, True)
        if plan_backed:
            with span("core.plan.lower"):
                kernel = ws.kernel
        else:
            with span("core.unroll"):
                ws.dag
            with span("core.kernel.lower"):
                kernel = ws.kernel
        with span("core.kernel.count"):
            kernel.backward_counts()
            count = ws.count()
        with span("service.store.put"):
            store.put(fingerprint, ws.n, True, kernel)
            store.put_meta(fingerprint, {"unambiguous": unambiguous})
        with span("utils.rng.substreams"):
            streams = substreams(make_rng(draw_seed), DRAWS)
        with span("core.kernel.sample"):
            batch = ws.sample_with_streams(streams)
    if plan_backed:
        lowering = kernel.lowering
        layer["explored_share"].append(lowering.explored_states / lowering.nominal_states)
    else:
        layer["edges"].append(kernel.edge_count())
    layer["snapshot_bytes"].append(store.path_for(fingerprint, ws.n, True).stat().st_size)
    return count, batch


def traced_restart(tracer: Tracer, layer: dict, spec: dict, root, draw_seed: int):
    from repro.service.protocol import witness_set_from_spec
    from repro.service.store import KernelStore
    from repro.utils.rng import make_rng, substreams

    span = tracer.span
    with tracer.op():
        with span("automata.build"):
            store = KernelStore(root, mmap=True)
            ws = witness_set_from_spec(spec, store=store)
        with span("service.fingerprint"):
            ws.fingerprint()
        with span("automata.unambiguous"):
            ws.is_unambiguous
        with span("service.store.get"):
            ws.kernel
        with span("core.kernel.count"):
            count = ws.count()
        with span("utils.rng.substreams"):
            streams = substreams(make_rng(draw_seed), DRAWS)
        with span("core.kernel.sample"):
            batch = ws.sample_with_streams(streams)
    layer["store_hits"] += store.stats.hits
    layer["store_lookups"] += store.stats.hits + store.stats.misses
    return count, batch


# ----------------------------------------------------------------------


def setup_once(root) -> None:
    """Set-up: one small instance of each shape, cold and restarted."""
    from repro.service.store import KernelStore

    rng = random.Random(-1)
    store = KernelStore(root / "warmup")
    for shape in SHAPES:
        inst = make_instance(rng, shape, small=True)
        cold = answer(inst.spec, store, 0)
        warm = answer(inst.spec, KernelStore(root / "warmup", mmap=True), 0)
        if cold != warm or cold[0] != inst.count:
            raise RuntimeError(f"warm-up answers differ on the {shape} shape")


def check(inst: Instance, cold, warm) -> list[str]:
    problems = []
    count, batch = cold
    if count != inst.count:
        problems.append(f"{inst.shape}: count {count} != reference {inst.count}")
    if warm != cold:
        problems.append(f"{inst.shape}: restart answers differ from cold answers")
    if len(batch) != DRAWS or not all(inst.accepts(w) for w in batch):
        problems.append(f"{inst.shape}: a drawn witness is not in the witness set")
    return problems


def run(ctx) -> dict:
    from repro.service.store import KernelStore

    meter = Speedometer()
    setups = []
    for rep in range(SETUP_REPS):
        meter.sample()
        begin = time.perf_counter()
        setup_once(ctx.scratch / f"setup{rep}")
        end = time.perf_counter()
        meter.sample()
        setups.append((begin, end))

    rng = random.Random(ctx.seed)
    root = ctx.scratch / "store"
    store = KernelStore(root)
    rounds = max(2, round(ctx.seconds / ROUND_S))
    if ctx.trace:
        rounds = max(1, rounds // 2)
    cold: dict = {shape: [] for shape in SHAPES}
    restart: dict = {shape: [] for shape in SHAPES}
    done: list = []
    #: ``(start, end)`` of each instance's cold build, restart and checks.
    busy: list = []
    problems: list = []
    attempted = failed = 0
    seen: set = set()
    for index in range(rounds * len(SHAPES)):
        # Instances must be distinct: a repeat would be a store hit, not
        # a cold build (wide instances have only ~1,600 variants).
        inst = make_instance(rng, SHAPES[index % len(SHAPES)])
        key = json.dumps(inst.spec)
        while key in seen:
            inst = make_instance(rng, inst.shape)
            key = json.dumps(inst.spec)
        seen.add(key)
        draw_seed = ctx.seed * 100_000 + index
        attempted += 1
        busy_started = time.perf_counter()
        try:
            cold_answer, cold_at = timed(meter, answer, inst.spec, store, draw_seed)
            warm_answer, warm_at = timed(
                meter, answer, inst.spec, KernelStore(root, mmap=True), draw_seed
            )
        except Exception as error:  # any program error fails the operation
            failed += 1
            problems.append(f"{inst.shape}: {type(error).__name__}: {error}")
            continue
        found = check(inst, cold_answer, warm_answer)
        busy.append((busy_started, time.perf_counter()))
        meter.sample()
        if found:
            failed += 1
            problems.extend(found)
            continue
        cold[inst.shape].append(cold_at)
        restart[inst.shape].append(warm_at)
        done.append((inst, draw_seed))

    def scaled_ms(intervals):
        return [meter.scale(end - begin, begin, end) * 1e3 for begin, end in intervals]

    def raw_ms(intervals):
        return [(end - begin) * 1e3 for begin, end in intervals]

    cold_all = scaled_ms(i for shape in SHAPES for i in cold[shape])
    restart_all = scaled_ms(i for shape in SHAPES for i in restart[shape])
    shape_p50 = {
        f"build.{shape}_ms.p50": statistics.median(scaled_ms(cold[shape])) if cold[shape] else 0.0
        for shape in SHAPES
    }
    restart_p50 = {
        f"restart.{shape}_ms.p50": statistics.median(scaled_ms(restart[shape])) if restart[shape] else 0.0
        for shape in SHAPES
    }
    info = {
        "workload": "build",
        "seed": ctx.seed,
        "instances": {shape: len(cold[shape]) for shape in SHAPES},
        "first_ms": "sum over the shapes of each one's median cold build (spec -> count + 100 draws, store attached)",
        "next_ms": "sum over the shapes of each one's median warm-store restart (fresh mmap store handle)",
        "tail_percentile": TAIL,
        "tail_samples_beyond": len(restart_all) * (100 - TAIL) / 100,
        "speed_factor": meter.mean_factor(),
        "raw_first_ms.p50": statistics.median(raw_ms(i for s in SHAPES for i in cold[s])),
        "raw_next_ms.p50": statistics.median(raw_ms(i for s in SHAPES for i in restart[s])),
        "problems": problems,
    }
    info.update(shape_p50)
    info.update(restart_p50)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "info": info,
    }
    if not ctx.trace:
        result["metrics"] = {
            "setup_s": statistics.median(scaled_ms(setups)) / 1e3,
            "peak_rss_mb": peak_rss_mb(),
            # Every shape moves these two: a pooled median would sit on
            # the middle shape and hide a regression on either other.
            "first_ms.p50": sum(shape_p50.values()),
            "next_ms.p50": sum(restart_p50.values()),
            "next_ms.tail": percentile(restart_all, TAIL),
            # Completed instances over the time spent building, restarting
            # and checking them: a mean, so it carries the cold tail.
            "rate_per_s": len(done) / (sum(scaled_ms(busy)) / 1e3),
        }
        return result

    # Traced replay of exactly the instances measured above, on a fresh store.
    tracer = Tracer("build", meter)
    layer = {"edges": [], "explored_share": [], "snapshot_bytes": [], "store_hits": 0, "store_lookups": 0}
    root = ctx.scratch / "traced-store"
    store = KernelStore(root)
    for inst, draw_seed in done:
        tracer.phase = "cold"
        gc.collect()
        meter.sample()
        cold_answer = traced_cold(tracer, layer, inst.spec, store, draw_seed)
        tracer.phase = "restart"
        gc.collect()
        meter.sample()
        warm_answer = traced_restart(tracer, layer, inst.spec, root, draw_seed)
        meter.sample()
        found = check(inst, cold_answer, warm_answer)
        if found:
            problems.extend(found)
            result["correct"] = False
    metrics = {
        "automata.transitions": statistics.mean(i.transitions for i, _ in done),
        "core.kernel.edges": statistics.mean(layer["edges"]),
        "core.plan.explored_share": statistics.mean(layer["explored_share"]),
        "service.snapshot.bytes": statistics.mean(layer["snapshot_bytes"]),
        "service.store.hit_ratio": layer["store_hits"] / max(1, layer["store_lookups"]),
    }
    metrics.update(shape_p50)
    result.update(metrics=metrics, tracer=tracer, untraced_ms=sum(cold_all) + sum(restart_all))
    return result
