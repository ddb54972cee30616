"""The observability layer: registry, tracing, exposition, slow log.

Covers the PR's acceptance checklist:

* histogram percentile estimates against exact quantiles;
* snapshot merging is associative (pool-wide aggregation is
  order-independent);
* trace propagation — a ``"trace": true`` request returns non-negative
  per-stage seconds whether executed in-process or across a pool;
* a golden test for the Prometheus text exposition;
* slow-query threshold behavior, including the server's JSONL sink;
* the classic ``StoreStats.as_dict()`` / ``WitnessSetCache.stats()``
  views stay intact on top of the registry re-base.
"""

from __future__ import annotations

import json
import math
import random
import socket

import pytest

from repro import obs
from repro.obs import names as metric_names

SPEC = {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab", "n": 12}


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test sees its own registry with recording enabled."""
    obs.set_enabled(True)
    obs.reset_metrics()
    yield
    obs.set_enabled(True)
    obs.reset_metrics()


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        registry = obs.metrics()
        registry.counter("c_total").inc()
        registry.counter("c_total").inc(4)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c_total"] == 5
        assert snapshot["gauges"]["g"] == 5

    def test_labels_make_distinct_series(self):
        registry = obs.metrics()
        registry.counter("ops_total", labels={"op": "sample"}).inc()
        registry.counter("ops_total", labels={"op": "count"}).inc(2)
        counters = registry.snapshot()["counters"]
        assert counters['ops_total{op="sample"}'] == 1
        assert counters['ops_total{op="count"}'] == 2

    def test_series_key_sorts_labels(self):
        assert (
            obs.series_key("m", {"b": "2", "a": "1"})
            == 'm{a="1",b="2"}'
        )

    def test_series_key_escapes_label_values(self):
        key = obs.series_key("m", {"v": 'say "hi"\\now'})
        assert key == 'm{v="say \\"hi\\"\\\\now"}'
        # The rendered exposition stays one well-formed line per series.
        registry = obs.metrics()
        registry.counter("m", labels={"v": 'say "hi"\\now'}).inc()
        text = obs.render_prometheus(registry.snapshot())
        line = next(l for l in text.splitlines() if l.startswith("m{"))
        assert line == 'm{v="say \\"hi\\"\\\\now"} 1'

    def test_kind_mismatch_raises(self):
        registry = obs.metrics()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_kill_switch_stops_recording(self):
        registry = obs.metrics()
        counter = registry.counter("gated_total")
        histogram = registry.histogram("gated_seconds")
        obs.set_enabled(False)
        counter.inc()
        histogram.record(1.0)
        assert counter.value == 0
        assert histogram.count == 0
        obs.set_enabled(True)
        counter.inc()
        assert counter.value == 1


# ----------------------------------------------------------------------
# Histogram percentiles vs exact quantiles
# ----------------------------------------------------------------------


class TestHistogramAccuracy:
    def test_percentiles_match_exact_quantiles(self):
        rng = random.Random(20190621)
        samples = [rng.lognormvariate(-4.0, 1.2) for _ in range(5000)]
        histogram = obs.Histogram()
        for value in samples:
            histogram.record(value)
        ordered = sorted(samples)
        for quantile in (0.50, 0.95, 0.99):
            exact = ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]
            estimate = histogram.percentile(quantile)
            # Log buckets at 4/doubling bound the relative error at the
            # ~19% bucket width; interpolation does much better in
            # practice.
            assert estimate == pytest.approx(exact, rel=0.2)

    def test_exact_count_sum_max(self):
        histogram = obs.Histogram()
        for value in (0.5, 1.5, 2.5):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(4.5)
        assert histogram.max == 2.5

    def test_zero_and_negative_land_in_zero_bucket(self):
        histogram = obs.Histogram()
        histogram.record(0.0)
        histogram.record(-1.0)
        assert histogram.count == 2
        assert histogram.percentile(0.5) == 0.0

    def test_percentile_clamped_to_max(self):
        histogram = obs.Histogram()
        histogram.record(1.0)
        assert histogram.percentile(0.99) <= histogram.max


# ----------------------------------------------------------------------
# Merge associativity
# ----------------------------------------------------------------------


def _snapshot_with(counter: float, histogram_values: list[float]) -> dict:
    registry = obs.MetricsRegistry()
    registry.counter("c_total").inc(counter)
    registry.gauge("depth").inc(counter)
    hist = registry.histogram("h_seconds")
    for value in histogram_values:
        hist.record(value)
    return registry.snapshot()


class TestMerge:
    def test_merge_is_associative(self):
        a = _snapshot_with(1, [0.001, 0.01])
        b = _snapshot_with(2, [0.1])
        c = _snapshot_with(4, [1.0, 10.0, 0.5])
        left = obs.merge_snapshots([obs.merge_snapshots([a, b]), c])
        right = obs.merge_snapshots([a, obs.merge_snapshots([b, c])])
        # Histogram sums are float additions, associative only up to
        # rounding; everything else must match exactly.
        left_sum = left["histograms"]["h_seconds"].pop("sum")
        right_sum = right["histograms"]["h_seconds"].pop("sum")
        assert left == right
        assert left_sum == pytest.approx(right_sum)
        assert left["counters"]["c_total"] == 7
        assert left["gauges"]["depth"] == 7
        assert left["histograms"]["h_seconds"]["count"] == 6

    def test_merged_percentiles_equal_union(self):
        values_a = [0.002, 0.004, 0.008]
        values_b = [0.5, 1.0]
        merged = obs.merge_snapshots(
            [_snapshot_with(0, values_a), _snapshot_with(0, values_b)]
        )
        union = obs.Histogram()
        for value in values_a + values_b:
            union.record(value)
        restored = obs.Histogram.from_dict(merged["histograms"]["h_seconds"])
        for quantile in (0.5, 0.95):
            assert restored.percentile(quantile) == pytest.approx(
                union.percentile(quantile)
            )

    def test_empty_snapshots_are_ignored(self):
        merged = obs.merge_snapshots([{}, _snapshot_with(3, []), {}])
        assert merged["counters"]["c_total"] == 3


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracing:
    def test_span_stages_accumulate(self):
        with obs.request_span() as span:
            span.add("execution", 0.25)
            span.add("execution", 0.25)
            with span.stage("serialization"):
                pass
        stages = span.as_dict()
        assert stages["execution"] == pytest.approx(0.5)
        assert stages["serialization"] >= 0.0

    def test_negative_seconds_are_clamped(self):
        with obs.request_span() as span:
            span.add("queue_wait", -1.0)
        assert span.as_dict()["queue_wait"] == 0.0

    def test_null_span_when_disabled(self):
        obs.set_enabled(False)
        with obs.request_span() as span:
            span.add("execution", 1.0)
        assert span is obs.NULL_SPAN
        assert span.as_dict() == {}

    def test_add_stage_outside_span_feeds_histogram(self):
        obs.add_stage(metric_names.STAGE_LOWERING, 0.125)
        key = obs.series_key(
            metric_names.STAGE_SECONDS,
            {"stage": metric_names.STAGE_LOWERING},
        )
        assert obs.metrics().snapshot()["histograms"][key]["count"] == 1

    def test_fingerprint_stage_on_the_cold_request_only(self, tmp_path):
        from repro.service.engine import Engine

        request = {"op": "count", "spec": SPEC, "trace": True}
        with Engine(workers=0, store_root=tmp_path) as engine:
            (cold,) = engine.execute([dict(request, id=1)])
            (again,) = engine.execute([dict(request, id=2)])
        assert cold["ok"] and again["ok"]
        assert cold["timing"][metric_names.STAGE_FINGERPRINT] >= 0.0
        assert metric_names.STAGE_FINGERPRINT not in again["timing"]

    def test_fingerprint_stage_outside_a_span_counts_each_computation(self):
        from repro.api import WitnessSet

        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        ws.fingerprint()
        ws.fingerprint()
        key = obs.series_key(
            metric_names.STAGE_SECONDS, {"stage": metric_names.STAGE_FINGERPRINT}
        )
        assert obs.metrics().snapshot()["histograms"][key]["count"] == 1

    def test_fingerprint_stage_not_recorded_under_kill_switch(self, tmp_path):
        from repro.api import WitnessSet
        from repro.service.engine import Engine

        obs.set_enabled(False)
        with Engine(workers=0, store_root=tmp_path) as engine:
            (response,) = engine.execute(
                [{"id": 1, "op": "count", "spec": SPEC, "trace": True}]
            )
        WitnessSet.from_regex("(ab)*", 8, alphabet="ab", store=False).fingerprint()
        assert response["ok"] and "timing" not in response
        key = obs.series_key(
            metric_names.STAGE_SECONDS, {"stage": metric_names.STAGE_FINGERPRINT}
        )
        assert key not in obs.metrics().snapshot()["histograms"]

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_trace_propagates_across_workers(self, workers):
        from repro.service.engine import Engine

        with Engine(workers=workers, store_root=False) as engine:
            responses = engine.execute(
                [
                    {
                        "id": index,
                        "op": "sample",
                        "spec": SPEC,
                        "seed": index,
                        "k": 2,
                        "trace": True,
                    }
                    for index in range(3)
                ]
            )
        assert len(responses) == 3
        for response in responses:
            assert response["ok"], response
            timing = response.get("timing")
            assert timing, "trace: true must attach a timing breakdown"
            assert set(timing) <= set(metric_names.STAGES)
            assert all(seconds >= 0.0 for seconds in timing.values())
            assert metric_names.STAGE_EXECUTION in timing
            assert metric_names.STAGE_QUEUE_WAIT in timing

    def test_untraced_requests_carry_no_timing(self):
        from repro.service.engine import Engine

        with Engine(workers=0, store_root=False) as engine:
            (response,) = engine.execute(
                [{"id": 1, "op": "count", "spec": SPEC}]
            )
        assert response["ok"]
        assert "timing" not in response


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------


GOLDEN_SNAPSHOT = {
    "counters": {'repro_requests_total{op="sample"}': 3},
    "gauges": {"repro_server_queue_depth": 2},
    "histograms": {
        "repro_request_seconds": {
            "count": 2,
            "sum": 3.0,
            "max": 2.0,
            "buckets": {"0": 2},
        }
    },
}

GOLDEN_PROMETHEUS = (
    "# TYPE repro_requests_total counter\n"
    'repro_requests_total{op="sample"} 3\n'
    "# TYPE repro_server_queue_depth gauge\n"
    "repro_server_queue_depth 2\n"
    "# TYPE repro_request_seconds summary\n"
    'repro_request_seconds{quantile="0.5"} 0.9204482076268572\n'
    'repro_request_seconds{quantile="0.95"} 0.9920448207626857\n'
    'repro_request_seconds{quantile="0.99"} 0.9984089641525371\n'
    "repro_request_seconds_sum 3.0\n"
    "repro_request_seconds_count 2\n"
    "repro_request_seconds_max 2.0\n"
)


class TestExposition:
    def test_prometheus_golden(self):
        assert obs.render_prometheus(GOLDEN_SNAPSHOT) == GOLDEN_PROMETHEUS

    def test_render_text_units(self):
        text = obs.render_text(GOLDEN_SNAPSHOT)
        assert 'repro_requests_total{op="sample"}' in text
        assert "p95=0.992045s" in text  # latency histograms carry seconds
        assert obs.render_text({}) == "(no metrics recorded)\n"

    def test_every_declared_name_is_prometheus_safe(self):
        for attribute in metric_names.__all__:
            value = getattr(metric_names, attribute)
            if attribute.startswith("STAGE") or attribute == "STAGES":
                continue
            assert isinstance(value, str)
            assert value.startswith("repro_"), value
            assert " " not in value and "{" not in value


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------


class TestSlowLog:
    def test_threshold(self, tmp_path):
        log = obs.SlowQueryLog(str(tmp_path / "slow.jsonl"), threshold_seconds=0.5)
        assert not log.maybe_record(0.4, {"id": 1})
        assert log.maybe_record(0.6, {"id": 2, "op": "sample"})
        lines = (tmp_path / "slow.jsonl").read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["id"] == 2 and event["op"] == "sample"

    def test_from_env(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = obs.slow_log_from_env(
            {"REPRO_SLOW_QUERY_LOG": path, "REPRO_SLOW_QUERY_MS": "250"}
        )
        assert log is not None
        assert log.threshold_seconds == pytest.approx(0.25)
        assert obs.slow_log_from_env({}) is None

    def test_serve_flag_resolution(self, tmp_path, monkeypatch):
        from repro.cli import _resolve_slow_query_log

        monkeypatch.delenv("REPRO_SLOW_QUERY_LOG", raising=False)
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)
        # Neither flag: the server builds its own log from the env.
        assert _resolve_slow_query_log(None, None) is None
        # --slow-query-ms with no path anywhere is a usage error.
        with pytest.raises(SystemExit):
            _resolve_slow_query_log(None, 250)
        flag_path = str(tmp_path / "flag.jsonl")
        log = _resolve_slow_query_log(flag_path, 250)
        assert log.path == flag_path
        assert log.threshold_seconds == pytest.approx(0.25)
        env_path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_SLOW_QUERY_LOG", env_path)
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "500")
        # --slow-query-ms alone adjusts the env-configured log's threshold.
        log = _resolve_slow_query_log(None, 100)
        assert log.path == env_path
        assert log.threshold_seconds == pytest.approx(0.1)
        # A path flag matching the env keeps the env threshold.
        log = _resolve_slow_query_log(env_path, None)
        assert log.threshold_seconds == pytest.approx(0.5)

    def test_server_writes_slow_events(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.engine import Engine
        from repro.service.server import start_tcp_server_thread

        path = tmp_path / "slow.jsonl"
        engine = Engine(workers=0, store_root=False)
        thread, (host, port) = start_tcp_server_thread(
            engine,
            slow_query_log=obs.SlowQueryLog(str(path), threshold_seconds=0.0),
        )
        try:
            with ServiceClient(host, port) as client:
                client.result("sample", SPEC, seed=1, k=2, trace=True)
        finally:
            with ServiceClient(host, port) as client:
                client.request("shutdown")
            thread.join(timeout=10)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events, "threshold 0 records every request"
        sample = next(e for e in events if e.get("op") == "sample")
        assert sample["total_seconds"] >= 0.0
        assert metric_names.STAGE_EXECUTION in (sample.get("timing") or {})


# ----------------------------------------------------------------------
# Classic stats views stay intact on the registry re-base
# ----------------------------------------------------------------------


class TestBackCompatViews:
    def test_store_stats_as_dict(self):
        from repro.service.store import StoreStats

        stats = StoreStats()
        stats.inc("hits", 2)
        stats.inc("misses")
        stats.inc("mmap_hits")
        view = stats.as_dict()
        assert view["hits"] == 2 and view["misses"] == 1
        assert set(view) == {
            "hits", "misses", "stores", "evictions", "corrupt", "skipped",
            "mmap_hits", "alias_hits", "alias_misses",
        }
        assert stats.mmap_hits == 1

    def test_store_stats_keeps_every_concurrent_bump(self):
        """A store is shared by the engine's executor and the caller:
        concurrent bumps of ``hits`` and ``mmap_hits`` are never lost."""
        import sys
        import threading

        from repro.service.store import StoreStats

        stats = StoreStats()
        threads, rounds = 8, 2000

        def bump() -> None:
            for _ in range(rounds):
                stats.inc("mmap_hits")
                stats.inc("hits")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert stats.hits == stats.mmap_hits == threads * rounds

    def test_witness_set_cache_stats(self):
        from repro.service.protocol import WitnessSetCache, spec_key

        cache = WitnessSetCache(max_resident=4)
        cache.get(spec_key(SPEC), SPEC)
        cache.get(spec_key(SPEC), SPEC)
        view = cache.stats()
        assert view["hits"] == 1 and view["misses"] == 1
        assert view["resident"] == 1

    def test_store_stats_exact_under_kill_switch(self):
        from repro.service.store import STORE_SERIES, StoreStats

        obs.set_enabled(False)
        stats = StoreStats()
        stats.inc("hits", 3)
        assert stats.as_dict()["hits"] == stats.hits == 3
        # The store owns its counts: the registry holds no mirror of them.
        registry = obs.metrics().snapshot()["counters"]
        assert not set(STORE_SERIES.values()) & set(registry)

    def test_cache_counters_exact_under_kill_switch(self):
        from repro.service.protocol import WitnessSetCache, spec_key

        obs.set_enabled(False)
        cache = WitnessSetCache(max_resident=4)
        cache.get(spec_key(SPEC), SPEC)
        cache.get(spec_key(SPEC), SPEC)
        assert cache.hits == cache.stats()["hits"] == 1
        assert cache.misses == cache.stats()["misses"] == 1
        # The cache owns its counts: the registry holds no mirror of them.
        registry = obs.metrics().snapshot()["counters"]
        assert metric_names.CACHE_HITS not in registry
        assert metric_names.CACHE_MISSES not in registry

    def test_engine_stats_carry_cache_and_store_series_under_kill_switch(
        self, tmp_path
    ):
        """The engine's summary is the one writer of the cache and store
        series: they equal its counts, with REPRO_OBS off and workers=0."""
        from repro.service.engine import Engine
        from repro.service.store import STORE_SERIES

        obs.set_enabled(False)
        requests = [{"id": index, "op": "count", "spec": SPEC} for index in range(3)]
        with Engine(workers=0, store_root=tmp_path) as engine:
            for request in requests:
                engine.execute([request])
            stats = engine.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["store"]["misses"] == stats["store"]["stores"] == 1
        counters = stats["metrics"]["counters"]
        assert counters[metric_names.CACHE_HITS] == stats["hits"]
        assert counters[metric_names.CACHE_MISSES] == stats["misses"]
        for key, series in STORE_SERIES.items():
            assert counters[series] == stats["store"][key], key
        # The process registry holds none of these series, and the
        # switch still gates every series it does hold.
        registry = obs.metrics().snapshot()["counters"]
        written = {metric_names.CACHE_HITS, metric_names.CACHE_MISSES}
        assert not written.union(STORE_SERIES.values()) & set(registry)
        assert not any(registry.values())


    @pytest.mark.parametrize("enabled", [True, False])
    def test_alias_counters_on_a_cold_warm_restart(self, tmp_path, enabled):
        """A cold engine misses its spec's alias and writes it; a restart
        on the same store hits it and stores nothing.  The summary's
        alias series equal those counts whatever the switch says."""
        from repro.service.engine import Engine

        obs.set_enabled(enabled)
        summaries = []
        for _ in range(2):
            with Engine(workers=0, store_root=tmp_path) as engine:
                engine.execute([{"id": 1, "op": "count", "spec": SPEC}])
                engine.execute([{"id": 2, "op": "sample", "spec": SPEC, "seed": 3}])
                summaries.append(engine.stats())
        cold, warm = (summary["store"] for summary in summaries)
        assert (cold["alias_hits"], cold["alias_misses"], cold["stores"]) == (0, 1, 1)
        assert (warm["alias_hits"], warm["alias_misses"], warm["stores"]) == (1, 0, 0)
        assert (warm["hits"], warm["misses"], warm["corrupt"]) == (1, 0, 0)
        for summary in summaries:
            counters = summary["metrics"]["counters"]
            assert counters[metric_names.STORE_ALIAS_HITS] == summary["store"]["alias_hits"]
            assert (
                counters[metric_names.STORE_ALIAS_MISSES]
                == summary["store"]["alias_misses"]
            )


# ----------------------------------------------------------------------
# The serving surfaces: stats op, metrics endpoint, CLI
# ----------------------------------------------------------------------


@pytest.fixture()
def live_server():
    from repro.service.engine import Engine
    from repro.service.server import start_tcp_server_thread

    engine = Engine(workers=2, store_root=False)
    thread, (host, port) = start_tcp_server_thread(engine)
    yield host, port
    from repro.service.client import ServiceClient

    with ServiceClient(host, port) as client:
        client.request("shutdown")
    thread.join(timeout=10)
    engine.close()


class TestServingSurfaces:
    def test_stats_op_aggregates_pool(self, live_server):
        from repro.service.client import ServiceClient

        host, port = live_server
        with ServiceClient(host, port) as client:
            for index in range(4):
                client.result("sample", SPEC, seed=index, k=2)
            stats = client.result("stats")
            detailed = client.result("stats", per_worker=True)
        assert stats["served"] >= 4
        assert stats["engine"]["workers"] == 2
        counters = stats["metrics"]["counters"]
        # The pool-wide cache series are the engine summary's own sums.
        assert counters[metric_names.CACHE_HITS] == stats["engine"]["hits"]
        assert counters[metric_names.CACHE_MISSES] == stats["engine"]["misses"]
        sample_series = obs.series_key(
            metric_names.PROTOCOL_REQUESTS, {"op": "sample"}
        )
        assert counters[sample_series] == 4
        assert any(
            key.startswith(metric_names.REQUEST_SECONDS)
            for key in stats["metrics"]["histograms"]
        )
        assert len(detailed["workers"]) == 2

    def test_metrics_endpoint_scrapes(self, live_server):
        from repro.service.client import ServiceClient

        host, port = live_server
        with ServiceClient(host, port) as client:
            client.result("sample", SPEC, seed=9, k=1)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            payload = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                payload += chunk
        head, _, body = payload.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in head
        text = body.decode("utf-8")
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'repro_request_seconds{quantile="0.95"}' in text

    def test_scrape_during_load_steals_no_responses(self, live_server):
        """A Prometheus scrape rides the pump queue, so it can never
        consume the worker pool's shared result queue concurrently with
        an in-flight batch (which would silently drop that batch's
        responses and hang the clients)."""
        import threading

        from repro.service.client import ServiceClient

        host, port = live_server
        scrape_errors: list[Exception] = []

        def scrape_loop() -> None:
            try:
                for _ in range(5):
                    with socket.create_connection((host, port), timeout=10) as sock:
                        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
                        while sock.recv(65536):
                            pass
            except Exception as error:  # pragma: no cover - fails the test
                scrape_errors.append(error)

        scraper = threading.Thread(target=scrape_loop)
        scraper.start()
        try:
            with ServiceClient(host, port, timeout=30.0) as client:
                for index in range(20):
                    witnesses = client.result("sample", SPEC, seed=index, k=1)
                    assert len(witnesses) == 1
        finally:
            scraper.join(timeout=30)
        assert not scraper.is_alive()
        assert not scrape_errors

    def test_stats_cli_renders(self, live_server, capsys):
        from repro.cli import main

        host, port = live_server
        assert main(["stats", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "repro_server_requests_total" in out
        assert main(
            ["stats", "--host", host, "--port", str(port), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload and "engine" in payload


# ----------------------------------------------------------------------
# Bucket math sanity (implementation invariants the merge relies on)
# ----------------------------------------------------------------------


def test_bucket_width_bounds_percentile_error():
    """One bucket spans a factor of 2**0.25 ≈ 1.19, so any in-bucket
    estimate is within ~19% of any sample in that bucket."""
    histogram = obs.Histogram()
    value = 0.0123
    histogram.record(value)
    estimate = histogram.percentile(0.5)
    assert estimate <= value
    assert estimate >= value / math.pow(2, 1 / 4)
