"""Workload ``fpras``: the paper's FPRAS on ambiguous NFAs.

Instances: a random m=8 and a random m=10 NFA over {0, 1} at density
1.8 with n=12, plus Σ*101Σ* at n=14.  The instances are fixed (drawn
from ``INSTANCE_SEED``); the run's seed chooses the FPRAS seeds, which
are this workload's random input.  Fixed instances keep the cost of an
estimate from varying between runs by more than the FPRAS's own
randomness: random instances of one shape differ in estimate time by up
to 2x.  Set-up computes exact counts with the benchmark's own subset
counter and builds each instance's reachable kernel once.  Then, round
robin over the instances, each FPRAS seed runs one estimate
``ws.count(backend="fpras", delta=0.3, rng=seed)`` with sketch size
k=32, followed by 300 Las Vegas witnesses drawn from the instance's
reference sketch (built in the first round with a fixed seed).
``first_ms.p50`` and ``next_ms.p50`` sum the instances' own medians, so
a regression on any one instance moves them.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import gen
from run import peak_rss_mb, percentile
from spans import NULL, Tracer
from speed import Speedometer

DELTA = 0.3
K = 32
#: Witnesses drawn after each estimate, timed in batches of BATCH (the
#: "10 Las Vegas witnesses" operation).  One witness costs a geometric
#: number of attempts, so single-witness times spread widely; batches of
#: ten and many of them (90 per instance at the default 30 s) keep each
#: instance's median and the tail steady.
WITNESSES = 300
BATCH = 10
#: Las Vegas attempts allowed per witness before the draw counts as failed.
ATTEMPTS = 2048
TAIL = 90
SETUP_REPS = 7
#: Nominal seconds per round (one estimate and its witnesses on each
#: instance): a run does ``--seconds / ROUND_S`` rounds, so every run of a
#: seed does the same work whatever the host's speed.
ROUND_S = 10.0
#: FPRAS seed of each instance's reference sketch.  Every Las Vegas
#: witness is drawn from it (with the run's seeds): a witness costs
#: ~1/acceptance attempts, and acceptance varies by sketch, so witnesses
#: from each run's own sketches made their median differ between runs by
#: up to 15%.
REFERENCE_SEED = 7
#: Generator seed of the two random instances (both ambiguous, neither
#: estimated exactly by the FPRAS's small-set shortcut).
INSTANCE_SEED = 24


class Instance:
    def __init__(self, name: str, spec: dict, exact: int, accepts) -> None:
        self.name = name
        self.spec = spec
        self.exact = exact
        self.accepts = accepts
        self.ws = None
        #: The sketch every Las Vegas witness of the run is drawn from.
        self.reference = None


def make_instances() -> list[Instance]:
    rng = random.Random(INSTANCE_SEED)
    instances = []
    for m in (8, 10):
        doc = gen.random_nfa(rng, m, "01", 1.8, 12)
        instances.append(
            Instance(
                f"random-m{m}",
                {"kind": "nfa", "nfa": doc, "n": 12},
                gen.count_words(doc, 12),
                lambda w, doc=doc: len(w) == 12 and gen.accepts(doc, w),
            )
        )
    instances.append(
        Instance(
            "contains-101",
            {"kind": "regex", "pattern": "(0|1)*101(0|1)*", "alphabet": "01", "n": 14},
            gen.contains_101_count(14),
            lambda w: len(w) == 14 and "101" in "".join(w),
        )
    )
    return instances


def prepare(inst: Instance, tracer=NULL) -> None:
    """spec → witness set, stripped automaton, ambiguity check, reachable kernel."""
    from repro.core.fpras import FprasParameters
    from repro.service.protocol import witness_set_from_spec

    params = FprasParameters(sample_size=K)
    inst.reference = None
    span = tracer.span
    with tracer.op():
        with span("automata.build"):
            inst.ws = witness_set_from_spec(inst.spec, delta=DELTA, params=params)
        with span("automata.strip"):
            inst.ws.stripped
        with span("automata.unambiguous"):
            ambiguous = not inst.ws.is_unambiguous
        with span("core.kernel.reachable_lower"):
            inst.ws.reachable_kernel
    if not ambiguous:
        raise RuntimeError(f"{inst.name} must be ambiguous to exercise the FPRAS")


def draw_witnesses(state, seed: int) -> tuple[list | None, list[tuple]]:
    """``WITNESSES`` Las Vegas witnesses from one sketch, with each one's
    ``(start, end)``; the words are None when a draw exhausts its attempts."""
    generator = random.Random(seed)
    words, intervals = [], []
    for _ in range(WITNESSES):
        started = time.perf_counter()
        for attempt in range(1, ATTEMPTS + 1):
            word = state.sample_witness(generator)
            if word is not None:
                words.append(word)
                break
        else:
            return None, intervals
        intervals.append((started, time.perf_counter(), attempt))
    return words, intervals


def estimate_and_sample(inst: Instance, seed: int, meter: Speedometer, tracer=NULL):
    """One estimate and its witnesses, with the estimate's ``(start, end)``
    and each witness's ``(start, end, attempts)``."""
    ws = inst.ws
    gc.collect()
    meter.sample()
    span = tracer.span
    with tracer.op():
        with span("core.fpras.sketch"):
            started = time.perf_counter()
            estimate = ws.count(backend="fpras", delta=DELTA, rng=seed)
            ended = time.perf_counter()
            # The sketch the estimate just built, from the witness set's cache.
            state = ws.fpras_state(DELTA, rng=seed)
        meter.sample()
        walks = sketch_diagnostics(state)
        if inst.reference is None:
            inst.reference = state
        with span("core.fpras.sample"):
            words, witness_at = draw_witnesses(inst.reference, seed)
    meter.sample()
    return estimate, words, walks, (started, ended), witness_at


def sketch_diagnostics(state) -> tuple[int, int, int]:
    """(walks, accepted walks, reach-cache misses) of building one sketch,
    read before any witness is drawn from it (draws add rejections)."""
    d = state.diagnostics
    accepted = d.sample_draws - d.sample_rejections - d.sample_walk_failures
    return d.sample_draws, accepted, d.reach_cache_misses


def check(inst: Instance, estimate: float, words) -> list[str]:
    problems = []
    if words is None:
        problems.append(f"{inst.name}: Las Vegas draws exhausted {ATTEMPTS} attempts")
    elif not all(inst.accepts(w) for w in words):
        problems.append(f"{inst.name}: a Las Vegas witness is not in the witness set")
    return problems


def run(ctx) -> dict:
    meter = Speedometer()
    setups = []
    for _ in range(SETUP_REPS):
        meter.sample()
        started = time.perf_counter()
        instances = make_instances()
        generated = time.perf_counter()
        for inst in instances:
            prepare(inst)
        ended = time.perf_counter()
        meter.sample()
        setups.append(meter.scale(ended - started, started, ended))
        prepare_s = meter.scale(ended - generated, generated, ended)

    rounds = max(1, round(ctx.seconds / ROUND_S))
    if ctx.trace:
        rounds = max(1, rounds // 2)
    rel_err: dict = {inst.name: [] for inst in instances}
    estimate_at: dict = {inst.name: [] for inst in instances}
    witness_at: dict = {inst.name: [] for inst in instances}
    done: list = []
    #: ``(start, end)`` of each estimate with its witnesses and checks.
    busy: list = []
    diagnostics = {"walks": [], "accepted": 0, "reach_cache_misses": []}
    problems: list = []
    attempted = failed = 0
    for index in range(rounds * len(instances)):
        inst = instances[index % len(instances)]
        # Round 0 builds each instance's reference sketch with a fixed
        # seed; the other rounds' estimates use the run's seeds.
        seed = REFERENCE_SEED + index if index < len(instances) else ctx.seed * 1000 + index
        attempted += 1
        busy_started = time.perf_counter()
        try:
            estimate, words, walks, at, witnesses_at = estimate_and_sample(inst, seed, meter)
        except Exception as error:  # any program error fails the operation
            failed += 1
            problems.append(f"{inst.name}: {type(error).__name__}: {error}")
            continue
        found = check(inst, estimate, words)
        busy.append((busy_started, time.perf_counter()))
        rel_err[inst.name].append(abs(estimate - inst.exact) / inst.exact)
        if found:
            failed += 1
            problems.extend(found)
            continue
        estimate_at[inst.name].append(at)
        witness_at[inst.name].extend(witnesses_at)
        done.append((inst, seed))
        diagnostics["walks"].append(walks[0])
        diagnostics["accepted"] += walks[1]
        diagnostics["reach_cache_misses"].append(walks[2])

    for name, errors in rel_err.items():
        within = sum(1 for e in errors if e <= DELTA)
        if errors and within < 0.75 * len(errors):
            problems.append(f"{name}: only {within}/{len(errors)} estimates within delta")

    def scaled_ms(begin: float, end: float) -> float:
        return meter.scale(end - begin, begin, end) * 1e3

    estimate_ms = {name: [scaled_ms(b, e) for b, e in at] for name, at in estimate_at.items()}
    witness_ms = {name: [scaled_ms(b, e) for b, e, _ in at] for name, at in witness_at.items()}
    # WITNESSES is a multiple of BATCH, so no batch spans two estimates.
    batch_ms = {
        name: [sum(ms[i : i + BATCH]) for i in range(0, len(ms), BATCH)]
        for name, ms in witness_ms.items()
    }
    all_batches = [ms for batches in batch_ms.values() for ms in batches]
    all_err = [e for errors in rel_err.values() for e in errors]
    info = {
        "workload": "fpras",
        "seed": ctx.seed,
        "estimates": {name: len(errors) for name, errors in rel_err.items()},
        "exact": {inst.name: inst.exact for inst in instances},
        "first_ms": "sum over the instances of each one's median FPRAS estimate (delta=0.3, k=32)",
        "next_ms": "sum over the instances of each one's median time for 10 Las Vegas witnesses",
        "tail_percentile": TAIL,
        "tail_samples_beyond": len(all_batches) * (100 - TAIL) / 100,
        "speed_factor": meter.mean_factor(),
        "raw_first_ms.p50": statistics.median(
            (e - b) * 1e3 for at in estimate_at.values() for b, e in at
        ),
        "rel_err_p50": statistics.median(all_err) if all_err else None,
        "attempts.mean": statistics.mean(a for at in witness_at.values() for _, _, a in at),
        "problems": problems,
    }
    for name in estimate_ms:
        info[f"estimate_ms.p50.{name}"] = statistics.median(estimate_ms[name])
        info[f"witnesses_ms.p50.{name}"] = statistics.median(batch_ms[name])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "info": info,
    }
    if not ctx.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            # Every instance moves these two: a pooled median would sit on
            # the middle instance and hide a regression on either other.
            "first_ms.p50": sum(statistics.median(ms) for ms in estimate_ms.values()),
            "next_ms.p50": sum(statistics.median(ms) for ms in batch_ms.values()),
            "next_ms.tail": percentile(all_batches, TAIL),
            # Completed estimates over the time spent on them, witnesses
            # and checks included: a mean, so it carries the tails.
            "rate_per_s": len(done) / (sum(scaled_ms(b, e) for b, e in busy) / 1e3),
        }
        return result

    # Traced replay: the same instances and FPRAS seeds, set-up included.
    tracer = Tracer("fpras", meter)
    tracer.phase = "setup"
    for inst in instances:
        meter.sample()
        prepare(inst, tracer)
    meter.sample()
    tracer.phase = "estimate"
    for inst, seed in done:
        estimate, words, _, _, _ = estimate_and_sample(inst, seed, meter, tracer)
        found = check(inst, estimate, words)
        if found:
            problems.extend(found)
            result["correct"] = False
    walks = sum(diagnostics["walks"])
    result.update(
        tracer=tracer,
        untraced_ms=prepare_s * 1e3
        + sum(sum(ms) for ms in estimate_ms.values())
        + sum(sum(ms) for ms in witness_ms.values()),
        metrics={
            "core.fpras.walks": statistics.mean(diagnostics["walks"]),
            "core.fpras.accept_ratio": diagnostics["accepted"] / max(1, walks),
            "core.fpras.reach_cache_misses": statistics.mean(diagnostics["reach_cache_misses"]),
            "core.fpras.rel_err": statistics.median(all_err),
        },
    )
    return result
