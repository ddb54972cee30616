"""Workload ``serve``: ``repro serve --port 0`` under a seeded request mix.

The server runs as a subprocess in its default configuration (workers
0, 5 ms batch window, both passed explicitly) with five fixed resident
specs: four m=200, |Σ|=4, n=80 random partial DFAs shipped by content on
every request (~12 KB each), and ``((a|b)(a|b|c))*`` at n=64, whose
count (6^32) spills past int64.  The run's seed draws the request
stream: 60% ``sample`` k=1, 15% ``sample_batch`` k=100, 15% ``count``
and 10% ``enumerate`` with ``limit`` 200, over the specs uniformly.

Set-up starts the server and sends each spec its first request (the
cold first answer), then warms every op; it is repeated on fresh servers
and the last one serves the measurement.  The measurement is a closed
loop on two connections (capacity), then an open loop on one connection
at a fixed 45 requests/s, about 40% of capacity, timed from each
request's due time.  The load comes from this process on two threads.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import gen
from run import ROOT, peak_rss_mb, percentile
from spans import NULL, Tracer
from speed import Speedometer

UFA_SPECS = 4
#: The resident specs are fixed; the run's seed draws the request stream
#: (ops, specs and sample seeds).  Random specs of one shape differ in
#: cost, which would move capacity and cold-start times between seeds.
SPEC_SEED = 4
REGEX = "((a|b)(a|b|c))*"
MIX = (("sample", 1, 0.60), ("sample_batch", 100, 0.15), ("count", 0, 0.15), ("enumerate", 0, 0.10))
BLOCK = 20
ENUM_LIMIT = 200
RATE = 45.0
#: The server's default batch window, passed explicitly.  It is a
#: wall-clock wait, so latencies are reference-scaled only above it.
BATCH_WINDOW_MS = 5.0
CONNECTIONS = 2
CLOSED_SHARE = 0.2
#: A request unanswered this long after it was due has failed.
DEADLINE_S = 5.0
#: The open loop is invalid when the generator's p99 lateness exceeds this.
LATENESS_BOUND_MS = 10.0
#: p99 of the ~1,080 open-loop latencies spread 0.32 (IQR over median)
#: across seeds, p98 0.09 and p95 0.04: the tail is reported at p95.
TAIL = 95
SETUP_REPS = 7
#: Every CONTRACT_EVERY-th sample request is redrawn in-process.
CONTRACT_EVERY = 7
#: Seconds between reference-speed samples during the load phases.
SPEED_EVERY_S = 0.2
RESPONSE_ID = re.compile(rb'\{"id": ?(-?\d+)')


class Spec:
    def __init__(self, spec: dict, count: int, accepts) -> None:
        self.spec = spec
        self.json = json.dumps(spec)
        self.count = count
        self.accepts = accepts
        self.ws = None


def make_specs() -> list[Spec]:
    rng = random.Random(SPEC_SEED)
    specs = []
    for _ in range(UFA_SPECS):
        doc = gen.random_dfa(rng, 200, "abcd", 0.9, 80)
        dfa = gen.Dfa(doc)
        specs.append(
            Spec(
                {"kind": "nfa", "nfa": doc, "n": 80},
                gen.count_dfa_words(doc, 80),
                lambda w, dfa=dfa: len(w) == 80 and dfa.accepts(w),
            )
        )
    pattern = re.compile(REGEX)
    specs.append(
        Spec(
            {"kind": "regex", "pattern": REGEX, "alphabet": "abc", "n": 64},
            6**32,
            lambda w: len(w) == 64 and pattern.fullmatch(w) is not None,
        )
    )
    return specs


def make_requests(rng: random.Random, count: int, id_base: int, specs: list[Spec]) -> list[dict]:
    """Seeded requests dealt in shuffled blocks of ``BLOCK``: every block
    holds exactly the mix's op shares and an equal share of each spec, so
    runs differ in order and sample seeds, not in composition."""
    ops = [(op, k) for op, k, share in MIX for _ in range(round(share * BLOCK))]
    requests = []
    while len(requests) < count:
        block_ops = ops[:]
        block_specs = [i % len(specs) for i in range(BLOCK)]
        rng.shuffle(block_ops)
        rng.shuffle(block_specs)
        for (op, k), spec_index in zip(block_ops, block_specs):
            request = {"id": id_base + len(requests), "op": op, "spec_index": spec_index}
            if k:
                request.update(k=k, seed=rng.randrange(2**31))
            if op == "enumerate":
                request["limit"] = ENUM_LIMIT
            requests.append(request)
    return requests[:count]


def encode(request: dict, specs: list[Spec]) -> bytes:
    fields = {key: value for key, value in request.items() if key != "spec_index"}
    head = json.dumps(fields)[:-1]
    return f'{head}, "spec": {specs[request["spec_index"]].json}}}\n'.encode()


# ----------------------------------------------------------------------
# The server process and a minimal JSON-lines client
# ----------------------------------------------------------------------


def _die_with_parent() -> None:
    """Ask the kernel to kill the server if the benchmark itself dies."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Server:
    def __init__(self, scratch, rep: int) -> None:
        self.log_path = scratch / f"server{rep}.log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "0", "--batch-window", str(BATCH_WINDOW_MS),
            ],
            cwd=ROOT,
            env=os.environ.copy(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
            preexec_fn=_die_with_parent,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(rb"listening on [^:\s]+:(\d+)", self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start: {self.log_path.read_bytes()[-2000:]!r}")

    def stop(self) -> None:
        """Shut down gracefully; escalate until the process has exited."""
        try:
            if self.proc.poll() is None:
                try:
                    with Conn(self.port, timeout=5) as conn:
                        conn.call(b'{"id": 0, "op": "shutdown"}\n')
                    self.proc.wait(timeout=10)
                except (OSError, ValueError, subprocess.TimeoutExpired):
                    pass
        finally:
            for escalate in (self.proc.terminate, self.proc.kill):
                if self.proc.poll() is not None:
                    break
                escalate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
            self.proc.wait()
            self.log.close()


class Conn:
    def __init__(self, port: int, timeout: float) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.reader.close()
        self.sock.close()

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, line: bytes) -> dict:
        self.sock.sendall(line)
        return self.recv()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def warm_up(server: Server, specs: list[Spec], meter: Speedometer) -> tuple[list[tuple], list[tuple]]:
    """Each spec's first request (a cold count) with its ``(start, end)``,
    then one request of every op."""
    first_at, answered = [], []
    with Conn(server.port, timeout=60) as conn:
        for index, spec in enumerate(specs):
            request = {"id": -1, "op": "count", "spec_index": index}
            meter.sample(1)
            started = time.perf_counter()
            response = conn.call(encode(request, specs))
            first_at.append((started, time.perf_counter()))
            answered.append((request, response))
            for op, k, _ in MIX:
                request = {"id": -1, "op": op, "spec_index": index, "k": k, "seed": 0, "limit": ENUM_LIMIT}
                answered.append((request, conn.call(encode(request, specs))))
    return first_at, answered


def closed_loop(port: int, streams: list[list[dict]], specs, seconds: float, meter: Speedometer):
    """``len(streams)`` connections, each sending its next request on reply."""
    answered: list = [[] for _ in streams]
    errors: list = []
    stop_at = time.perf_counter() + seconds

    def client(index: int) -> None:
        next_sample = 0.0
        try:
            with Conn(port, timeout=DEADLINE_S) as conn:
                for request in streams[index]:
                    now = time.perf_counter()
                    if now >= stop_at:
                        return
                    if index == 0 and now >= next_sample:
                        meter.sample(1)
                        next_sample = now + SPEED_EVERY_S
                    answered[index].append((request, conn.call(encode(request, specs))))
        except (OSError, ValueError) as error:
            errors.append(f"closed loop: {type(error).__name__}: {error}")

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(1, len(streams))]
    for thread in threads:
        thread.start()
    client(0)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    pairs = [pair for per in answered for pair in per]
    return pairs, elapsed, errors


def open_loop(port: int, requests: list[dict], specs, meter: Speedometer):
    """Send request j at ``t0 + j / RATE`` whatever the replies; one connection."""
    received: dict = {}
    due: dict = {}
    sent: dict = {}
    errors: list = []
    # A receive timeout means nothing arrived for DEADLINE_S: every request
    # still outstanding has then missed its deadline, so the reader stops.
    with Conn(port, timeout=DEADLINE_S) as conn:

        def receiver() -> None:
            # Only the id is read here; responses are parsed after the
            # loop, so this thread holds the interpreter lock briefly and
            # the sender stays on schedule.
            while len(received) < len(requests):
                try:
                    line = conn.reader.readline()
                except OSError as error:
                    errors.append(f"open loop: {type(error).__name__}: {error}")
                    return
                arrived = time.perf_counter()
                match = RESPONSE_ID.match(line)
                if match is None:
                    errors.append(f"open loop: unreadable response {line[:200]!r}")
                    return
                received[int(match.group(1))] = (arrived, line)

        lines = [encode(request, specs) for request in requests]
        thread = threading.Thread(target=receiver)
        thread.start()
        t0 = time.perf_counter() + 0.05
        every = max(1, round(SPEED_EVERY_S * RATE))
        try:
            for j, request in enumerate(requests):
                due_at = t0 + j / RATE
                if j % every == every - 1:
                    meter.sample(1)
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                due[request["id"]] = due_at
                sent[request["id"]] = time.perf_counter()
                conn.sock.sendall(lines[j])
        except OSError as error:
            errors.append(f"open loop send: {type(error).__name__}: {error}")
        finally:
            thread.join()
    return received, due, sent, errors


def server_stats(port: int) -> dict:
    with Conn(port, timeout=30) as conn:
        return conn.call(b'{"id": 0, "op": "stats"}\n')["result"]


def _histogram(stats: dict, name: str) -> tuple[float, float]:
    entry = stats.get("metrics", {}).get("histograms", {}).get(name, {})
    return entry.get("sum", 0.0), entry.get("count", 0)


# ----------------------------------------------------------------------
# Output checks and the in-process replay
# ----------------------------------------------------------------------


def check(request: dict, response: dict, specs: list[Spec]) -> str | None:
    if not response.get("ok"):
        return f"{request['op']}: {response.get('error_type')}: {response.get('error')}"
    spec = specs[request["spec_index"]]
    result = response["result"]
    op = request["op"]
    if op == "count":
        if result != spec.count:
            return f"count {result} != reference {spec.count}"
    elif op in ("sample", "sample_batch"):
        if len(result) != request["k"] or not all(spec.accepts(w) for w in result):
            return f"{op}: witnesses outside the witness set"
    elif op == "enumerate":
        items = result["items"]
        if len(items) != min(ENUM_LIMIT, spec.count) or len(set(items)) != len(items):
            return "enumerate: page is short or repeats a witness"
        if not all(spec.accepts(w) for w in items):
            return "enumerate: witness outside the witness set"
    return None


def execute(request: dict, line: bytes, specs: list[Spec], tracer=NULL) -> bytes:
    """The layer calls of one request, in-process, as the protocol makes them.

    One ``service.protocol.render`` span per request covers witness
    rendering and the response's JSON encoding."""
    from repro.service.protocol import render_witness, spec_key
    from repro.utils.rng import make_rng, substreams

    span = tracer.span
    with tracer.op():
        with span("service.protocol.decode"):
            decoded = json.loads(line)
        with span("service.protocol.spec_key"):
            spec_key(decoded["spec"])
        ws = specs[request["spec_index"]].ws
        op = decoded["op"]
        if op == "count":
            with span("core.kernel.count"):
                count = ws.count()
        elif op == "enumerate":
            with span("core.enumeration.page"):
                witnesses, cursor = ws.enumerate_page(ENUM_LIMIT)
        else:
            with span("utils.rng.substreams"):
                streams = substreams(make_rng(decoded["seed"]), decoded["k"])
            with span("core.kernel.sample"):
                witnesses = ws.sample_with_streams(streams)
        with span("service.protocol.render"):
            if op == "count":
                result = count
            elif op == "enumerate":
                result = {"items": [render_witness(w) for w in witnesses], "cursor": cursor}
            else:
                result = [render_witness(w) for w in witnesses]
            return json.dumps({"id": decoded["id"], "ok": True, "result": result}).encode()


def contract_problems(pairs: list[tuple], specs: list[Spec]) -> tuple[int, list[str]]:
    """Seeded sample responses must equal in-process ``draw_samples``."""
    from repro.service.protocol import draw_samples, render_witness

    checked, problems = 0, []
    samples = [(q, r) for q, r in pairs if q["op"] in ("sample", "sample_batch") and r.get("ok")]
    for request, response in samples[::CONTRACT_EVERY]:
        ws = specs[request["spec_index"]].ws
        local = [render_witness(w) for w in draw_samples(ws, request["k"], request["seed"])]
        checked += 1
        if local != response["result"]:
            problems.append(f"request {request['id']}: server draws differ from draw_samples")
    return checked, problems


# ----------------------------------------------------------------------


def run(ctx) -> dict:
    from repro.service.protocol import witness_set_from_spec

    sys.setswitchinterval(0.001)
    specs = make_specs()
    # An ambiguous spec would route samples through the FPRAS, whose
    # cost is unbounded per request: refuse to start rather than hang.
    for spec in specs:
        spec.ws = witness_set_from_spec(spec.spec)
        if not spec.ws.is_unambiguous:
            raise RuntimeError(f"serve spec {spec.spec['kind']} is ambiguous")

    meter = Speedometer()
    problems: list = []
    pairs: list = []
    setups, first_at = [], []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
                server = None
            meter.sample()
            started = time.perf_counter()
            server = Server(ctx.scratch, rep)
            firsts, warm = warm_up(server, specs, meter)
            setups.append((started, time.perf_counter()))
            meter.sample()
            first_at.extend(firsts)
            pairs.extend(warm)

        share = 0.5 if ctx.trace else 1.0
        rng = random.Random(ctx.seed)
        closed_seconds = ctx.seconds * CLOSED_SHARE * share
        open_seconds = ctx.seconds * (1 - CLOSED_SHARE) * share
        streams = [
            make_requests(rng, int(closed_seconds * 1000), 1_000_000 * (c + 1), specs)
            for c in range(CONNECTIONS)
        ]
        open_requests = make_requests(rng, int(open_seconds * RATE), 0, specs)

        before = server_stats(server.port)
        meter.sample()
        closed_started = time.perf_counter()
        closed_pairs, closed_elapsed, closed_errors = closed_loop(
            server.port, streams, specs, closed_seconds, meter
        )
        meter.sample()
        problems.extend(closed_errors)
        gc.collect()
        gc.disable()
        try:
            received, due, sent, errors = open_loop(server.port, open_requests, specs, meter)
        finally:
            gc.enable()
        meter.sample()
        problems.extend(errors)
        after = server_stats(server.port)
        server_rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    latency_ms, raw_latency_ms, whole_ms, lateness_ms, rtt = [], [], [], [], {}
    failed = 0
    open_pairs = []
    window_ms = BATCH_WINDOW_MS
    for request in open_requests:
        rid = request["id"]
        lateness_ms.append((sent[rid] - due[rid]) * 1e3 if rid in sent else DEADLINE_S * 1e3)
        got = received.get(rid)
        if got is None or got[0] - due[rid] > DEADLINE_S:
            failed += 1
            latency_ms.append(DEADLINE_S * 1e3)
            raw_latency_ms.append(DEADLINE_S * 1e3)
            whole_ms.append(DEADLINE_S * 1e3)
            problems.append(f"request {rid} missed the {DEADLINE_S:.0f} s deadline")
            continue
        raw = (got[0] - due[rid]) * 1e3
        f = meter.factor(due[rid], got[0])
        raw_latency_ms.append(raw)
        whole_ms.append(raw / f)
        latency_ms.append(window_ms + (raw - window_ms) / f)
        rtt[rid] = window_ms + ((got[0] - sent[rid]) * 1e3 - window_ms) / f
        open_pairs.append((request, json.loads(got[1])))
    for request, response in closed_pairs + open_pairs:
        problem = check(request, response, specs)
        if problem:
            failed += 1
            problems.append(problem)
    for request, response in pairs:
        problem = check(request, response, specs)
        if problem:
            problems.append(f"warm-up {problem}")
    checked, broken = contract_problems(closed_pairs + open_pairs, specs)
    problems.extend(broken)
    failed += len(broken)

    lateness_p99 = percentile(lateness_ms, 99)
    if lateness_p99 > LATENESS_BOUND_MS:
        problems.append(f"open loop invalid: generator p99 lateness {lateness_p99:.2f} ms")
    failed += len(closed_errors)
    attempted = len(closed_pairs) + len(closed_errors) + len(open_requests)
    closed_rate = len(closed_pairs) / meter.scale(
        closed_elapsed, closed_started, closed_started + closed_elapsed
    )
    info = {
        "workload": "serve",
        "seed": ctx.seed,
        "closed_loop": {"connections": CONNECTIONS, "seconds": round(closed_elapsed, 3), "completed": len(closed_pairs)},
        "open_loop": {"connections": 1, "rate_per_s": RATE, "requests": len(open_requests)},
        "lateness_ms": {"p99": round(lateness_p99, 3), "max": round(max(lateness_ms), 3), "bound_p99": LATENESS_BOUND_MS},
        "first_ms": f"first request on each spec of a fresh server ({len(first_at)} samples)",
        "next_ms": "open-loop request latency from its due time",
        "tail_percentile": TAIL,
        "tail_samples_beyond": len(latency_ms) * (100 - TAIL) / 100,
        "speed_factor": meter.mean_factor(),
        "raw_next_ms.p50": statistics.median(raw_latency_ms),
        "raw_next_ms.tail": percentile(raw_latency_ms, TAIL),
        "next_ms.p95": percentile(latency_ms, 95),
        "next_ms.p98": percentile(latency_ms, 98),
        "whole_next_ms.p50": statistics.median(whole_ms),
        "whole_next_ms.tail": percentile(whole_ms, TAIL),
        "raw_rate_per_s": len(closed_pairs) / closed_elapsed,
        "contract_checked": checked,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "info": info}
    if not ctx.trace:
        result["metrics"] = {
            "setup_s": statistics.median(meter.scale(e - b, b, e) for b, e in setups),
            "peak_rss_mb": server_rss,
            "first_ms.p50": statistics.median(meter.scale(e - b, b, e) * 1e3 for b, e in first_at),
            "next_ms.p50": statistics.median(latency_ms),
            "next_ms.tail": percentile(latency_ms, TAIL),
            "rate_per_s": closed_rate,
        }
        return result

    # In-process replay of the open-loop requests: untraced, then traced.
    for spec_index in range(len(specs)):
        for op, k, _ in MIX:
            request = {"id": -1, "op": op, "spec_index": spec_index, "k": k or 1, "seed": 0}
            execute(request, encode(request, specs), specs)
    replayed = [(request, encode(request, specs)) for request, _ in open_pairs]
    # One unrecorded pass first: the server had served these requests
    # warm, so both recorded passes start from warm kernel caches.
    for request, line in replayed:
        execute(request, line, specs)
    at: dict = {}
    for j, (request, line) in enumerate(replayed):
        if j % 10 == 0:
            meter.sample(1)
        started = time.perf_counter()
        execute(request, line, specs)
        at[request["id"]] = (started, time.perf_counter())
    meter.sample()
    own = {rid: meter.scale(e - b, b, e) * 1e3 for rid, (b, e) in at.items()}
    tracer = Tracer("serve", meter)
    tracer.phase = "replay"
    for j, (request, line) in enumerate(replayed):
        if j % 10 == 0:
            meter.sample(1)
        execute(request, line, specs, tracer)
    meter.sample()

    overhead: dict = {}
    for request, _ in open_pairs:
        overhead.setdefault(request["op"], []).append(rtt[request["id"]] - own[request["id"]])
    sample_responses = [r for q, r in closed_pairs + open_pairs if q["op"] in ("sample", "sample_batch")]
    hits = after["engine"]["hits"] - before["engine"]["hits"]
    misses = after["engine"]["misses"] - before["engine"]["misses"]
    batch_sum, batch_count = (
        a - b for a, b in zip(_histogram(after, "repro_server_batch_size"), _histogram(before, "repro_server_batch_size"))
    )
    metrics = {
        "service.protocol.cache_hit_ratio": hits / max(1, hits + misses),
        "service.protocol.coalesced_share": sum(1 for r in sample_responses if r.get("coalesced", 1) > 1)
        / max(1, len(sample_responses)),
        "service.server.batch_size_mean": batch_sum / max(1, batch_count),
        "service.server.overhead_ms": statistics.mean(v for values in overhead.values() for v in values),
    }
    for op, values in overhead.items():
        metrics[f"service.server.overhead_ms.{op}"] = statistics.mean(values)
    result.update(metrics=metrics, tracer=tracer, untraced_ms=sum(own.values()))
    return result
