"""The metric-name registry: every series name used anywhere, as a constant.

The ``metrics-discipline`` lint rule enforces that record sites never
pass inline string literals to ``counter()`` / ``gauge()`` /
``histogram()`` — they must reference one of these constants.  Keeping
the whole vocabulary in one module means the exposition docs (README
"Observability"), the Prometheus endpoint and the ``stats`` op can never
drift apart on spelling, and grepping a dashboard series name lands
here, next to every record site's import.

Naming follows the Prometheus conventions: ``*_total`` for counters,
``*_seconds`` for duration histograms, bare nouns for gauges.
"""

from __future__ import annotations

# --- async TCP server (front door) ------------------------------------
SERVER_REQUESTS = "repro_server_requests_total"
SERVER_MALFORMED = "repro_server_malformed_total"
SERVER_CONNECTIONS = "repro_server_connections_total"
SERVER_DROPPED_CONNECTIONS = "repro_server_dropped_connections_total"
SERVER_BACKPRESSURE_STALLS = "repro_server_backpressure_stalls_total"
SERVER_ACTIVE_CONNECTIONS = "repro_server_active_connections"
SERVER_ACTIVE_STREAMS = "repro_server_active_streams"
SERVER_QUEUE_DEPTH = "repro_server_queue_depth"
SERVER_BATCH_SIZE = "repro_server_batch_size"
REQUEST_SECONDS = "repro_request_seconds"
SLOW_QUERIES = "repro_slow_queries_total"

# --- per-stage span timings (label: stage=...) ------------------------
STAGE_SECONDS = "repro_stage_seconds"

# --- engine / worker pool ---------------------------------------------
ENGINE_WORKER_DEATHS = "repro_engine_worker_deaths_total"
ENGINE_WORKER_RESTARTS = "repro_engine_worker_restarts_total"

# --- protocol executor (per worker process) ---------------------------
PROTOCOL_REQUESTS = "repro_requests_total"
PROTOCOL_ERRORS = "repro_request_errors_total"
SAMPLE_REQUESTS = "repro_sample_requests_total"
COALESCED_REQUESTS = "repro_coalesced_requests_total"
CACHE_HITS = "repro_witness_cache_hits_total"
CACHE_MISSES = "repro_witness_cache_misses_total"

# --- kernel store ------------------------------------------------------
STORE_HITS = "repro_store_hits_total"
STORE_MISSES = "repro_store_misses_total"
STORE_STORES = "repro_store_stores_total"
STORE_EVICTIONS = "repro_store_evictions_total"
STORE_CORRUPT = "repro_store_corrupt_total"
STORE_SKIPPED = "repro_store_skipped_total"
STORE_MMAP_HITS = "repro_store_mmap_hits_total"
STORE_GET_SECONDS = "repro_store_get_seconds"

# --- kernel / accel profiling -----------------------------------------
LOWERING_SECONDS = "repro_lowering_seconds"
KERNEL_BACKEND_SELECTED = "repro_kernel_backend_total"
ACCEL_SPILLS = "repro_accel_spills_total"

# --- FPRAS (added once per finished sketch construction) ---------------
FPRAS_WALKS = "repro_fpras_walks_total"
FPRAS_REJECTIONS = "repro_fpras_rejections_total"
FPRAS_WALK_FAILURES = "repro_fpras_walk_failures_total"
FPRAS_REACH_CACHE_MISSES = "repro_fpras_reach_cache_misses_total"

# --- span stage vocabulary (label values of STAGE_SECONDS) ------------
STAGE_PARSE = "parse"
STAGE_COALESCE_WAIT = "coalesce_wait"
STAGE_QUEUE_WAIT = "queue_wait"
STAGE_STORE_FETCH = "store_fetch"
STAGE_LOWERING = "lowering"
STAGE_EXECUTION = "execution"
STAGE_SERIALIZATION = "serialization"

#: Every stage a response's ``timing`` breakdown may carry, in pipeline
#: order (the README documents how to read them).
STAGES = (
    STAGE_PARSE,
    STAGE_COALESCE_WAIT,
    STAGE_QUEUE_WAIT,
    STAGE_STORE_FETCH,
    STAGE_LOWERING,
    STAGE_EXECUTION,
    STAGE_SERIALIZATION,
)

__all__ = [
    "SERVER_REQUESTS",
    "SERVER_MALFORMED",
    "SERVER_CONNECTIONS",
    "SERVER_DROPPED_CONNECTIONS",
    "SERVER_BACKPRESSURE_STALLS",
    "SERVER_ACTIVE_CONNECTIONS",
    "SERVER_ACTIVE_STREAMS",
    "SERVER_QUEUE_DEPTH",
    "SERVER_BATCH_SIZE",
    "REQUEST_SECONDS",
    "SLOW_QUERIES",
    "STAGE_SECONDS",
    "ENGINE_WORKER_DEATHS",
    "ENGINE_WORKER_RESTARTS",
    "PROTOCOL_REQUESTS",
    "PROTOCOL_ERRORS",
    "SAMPLE_REQUESTS",
    "COALESCED_REQUESTS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "STORE_HITS",
    "STORE_MISSES",
    "STORE_STORES",
    "STORE_EVICTIONS",
    "STORE_CORRUPT",
    "STORE_SKIPPED",
    "STORE_MMAP_HITS",
    "STORE_GET_SECONDS",
    "LOWERING_SECONDS",
    "KERNEL_BACKEND_SELECTED",
    "ACCEL_SPILLS",
    "FPRAS_WALKS",
    "FPRAS_REJECTIONS",
    "FPRAS_WALK_FAILURES",
    "FPRAS_REACH_CACHE_MISSES",
    "STAGE_PARSE",
    "STAGE_COALESCE_WAIT",
    "STAGE_QUEUE_WAIT",
    "STAGE_STORE_FETCH",
    "STAGE_LOWERING",
    "STAGE_EXECUTION",
    "STAGE_SERIALIZATION",
    "STAGES",
]
