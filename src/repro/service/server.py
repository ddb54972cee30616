"""The JSON-lines witness service: one async server on TCP or stdin/stdout.

One request per line in, one response per line out (see
:mod:`repro.service.protocol` for the shapes).  The server's job is
**batching**: instead of answering arrivals one by one, requests that
have already arrived (plus a short ``batch_window`` grace for
stragglers) are handed to the :class:`~repro.service.engine.Engine` as
one batch — which groups by spec and coalesces same-spec sample
requests into a single ``sample_batch`` kernel pass — and the responses
are written back.  Under concurrent load this turns N same-instance
requests costing N kernel walks into one walk, without changing any
response byte (the substream contract).

Both front-ends run :class:`AsyncWitnessServer`, so they share one
request loop, one batching pump and one graceful drain:

* :func:`serve_tcp` — ``repro serve --port N``, multiplexing any number
  of concurrent client connections.  All connections feed one shared
  batching queue, so same-spec sample bursts coalesce **across
  connections**, not just within one client's pipelined write.
* :func:`serve_stdio` — ``repro serve`` without ``--port``: stdin and
  stdout are the server's single connection (the subprocess / pipeline
  embedding).  Pipes and regular files both work, e.g. ``repro serve <
  requests.jsonl > responses.jsonl``.

Concurrency semantics:

* **Per-connection isolation** — every connection has its own reader
  task and its own write path; one client's malformed input, slow
  reading or disconnect never affects another's responses.
* **Bounded request size** — a request line longer than ``max_line``
  bytes is answered with a one-line JSON error; the reader never
  buffers an endless line.  TCP then closes the connection (line
  framing is unrecoverable past that point); stdio has exactly one
  client, so it discards the line through its newline and reads on.
* **Backpressure** — reads stop while a connection's earlier requests
  are still being enqueued (the shared queue is bounded), and writes
  await the drain, so a client that stops reading pauses its own
  stream instead of growing server memory.  A TCP connection whose
  write stalls longer than ``write_timeout`` is dropped; the stdio
  client is never dropped for a slow stdout.
* **Per-request deadlines** — ``request_timeout`` (overridable per
  request via ``"timeout_ms"``) bounds how long a request may wait for
  engine capacity; an expired request is answered with a
  ``TimeoutError`` response instead of executing.  Requests from a
  connection that has gone away are cancelled (dropped before
  execution).
* **Graceful drain** — ``shutdown`` stops accepting new connections,
  answers everything already queued, flushes every live connection and
  only then exits.  On stdio, EOF drains the same way, and both EOF and
  ``shutdown`` first let the client's running streams finish.

Streamed enumeration: a client request ``{"op": "enumerate", "stream":
true, ...}`` is answered with a *sequence* of chunked response lines
``{"id": ..., "ok": true, "chunk": [...], "cursor": ..., "done":
false}`` ending with a ``"done": true`` line.  Each chunk is one paged
engine round (the affinity worker resumes from the cursor in O(n)), so
other clients' batches interleave with a long-running stream, the
witness set is never materialized, and the per-chunk ``cursor`` lets a
disconnected client resume exactly where it stopped.

Control ops: ``ping`` answers ``"pong"``; ``stats`` reports server
counters, the aggregated engine summary, and the pool-wide merged
metrics snapshot (request the classic per-worker entry list with
``"per_worker": true``); ``cancel`` stops the connection's streams
named by ``"target"``; ``shutdown`` acknowledges, drains, and stops the
server.  Malformed lines get an ``ok: false`` response rather than
killing the connection.

Observability (see :mod:`repro.obs`): every front-door request is
counted and timed (``repro_request_seconds``), server-side stages
(parse, coalesce wait) join the per-stage histogram and — for requests
sent with ``"trace": true`` — the response's ``timing`` breakdown; a
plain HTTP ``GET`` on the TCP port answers with the Prometheus text
exposition of the pool-wide registry; requests slower than the
slow-query threshold are appended to a JSON-lines slow-query log
(``--slow-query-log`` / ``$REPRO_SLOW_QUERY_LOG``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import threading
import time
from typing import IO, Any, Callable, Coroutine, Protocol

from repro import obs
from repro.obs import names as metric_names
from repro.service.engine import Engine
from repro.service.protocol import _op_label

#: Default grace period for coalescing stragglers into a batch (seconds).
DEFAULT_BATCH_WINDOW = 0.005

#: Default bound on one request line (bytes); longer lines are answered
#: with a one-line JSON error instead of being buffered without bound.
DEFAULT_MAX_LINE = 8 * 1024 * 1024

#: Default cap on simultaneously served connections.
DEFAULT_MAX_CONNECTIONS = 1024

#: Default budget for one response write before the client is considered
#: gone (seconds).
DEFAULT_WRITE_TIMEOUT = 5.0

#: Bound on requests waiting for engine capacity; enqueueing past it
#: blocks the connection's reader (backpressure), never server memory.
_QUEUE_LIMIT = 4096

#: Cap on concurrent enumeration streams per connection.
MAX_STREAMS_PER_CONNECTION = 8

#: Lines the stdin reader thread may read ahead of the event loop: with
#: ``max_line`` it bounds what stdio buffers, as the stream limit does
#: for a TCP connection.
_READ_AHEAD = 8


def _write_stderr(message: str) -> None:
    """Write a diagnostic; blocking, so never called on the event loop
    (the loop hands it to the executor, the stdin thread calls it)."""
    sys.stderr.write(message)
    sys.stderr.flush()


def _swallow_exception(future: asyncio.Future[Any]) -> None:
    """Done-callback for fire-and-forget futures: retrieve the exception
    so the event loop never logs "exception was never retrieved"."""
    if not future.cancelled():
        future.exception()


def _parse_line(line: bytes) -> dict[str, Any]:
    request = json.loads(line.decode("utf-8"))
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def _error_response(request_id: object, error: Exception) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": str(error),
        "error_type": type(error).__name__,
    }


def encode_response(response: dict[str, Any]) -> bytes:
    return json.dumps(response, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    ) + b"\n"


def _aggregate_server_stats(
    engine: Engine, per_worker: bool = False
) -> dict[str, Any]:
    """The enriched ``stats`` payload: engine summary plus merged metrics.

    The metrics snapshot merges this process's registry (server counters,
    request/stage histograms, and — with ``workers=0`` — the embedded
    executor's series) with the engine summary's, which holds every
    worker's snapshot plus the cache and store series
    :meth:`Engine.aggregate_stats` writes.  The process registry never
    holds those series, so nothing is counted twice and one scrape sees
    the whole pool.  ``per_worker`` additionally returns the classic
    per-worker entry list under ``"workers"``.
    """
    entries = engine.stats(per_worker=True)
    assert isinstance(entries, list)
    summary = Engine.aggregate_stats(entries)
    worker_metrics = summary.pop("metrics", None) or {}
    result: dict[str, Any] = {
        "engine": summary,
        "metrics": obs.merge_snapshots(
            [obs.metrics().snapshot(), worker_metrics]
        ),
    }
    if per_worker:
        result["workers"] = entries
    return result


# ----------------------------------------------------------------------
# Connections: the line reader and writer a client is served through
# ----------------------------------------------------------------------


class _LineReader(Protocol):
    """``asyncio.StreamReader`` or :class:`_StdinReader`: ``readline``
    returns ``b""`` at EOF and raises ``ValueError`` for a line longer
    than ``max_line``."""

    async def readline(self) -> bytes: ...


class _LineWriter(Protocol):
    """``asyncio.StreamWriter`` or :class:`_StdoutWriter`."""

    def write(self, data: bytes) -> None: ...

    async def drain(self) -> None: ...

    def close(self) -> None: ...

    async def wait_closed(self) -> None: ...


def _read_line(source: IO[Any], max_line: int) -> bytes | None:
    """One line of at most ``max_line`` bytes (``b""`` at EOF), or
    ``None`` for a longer line, which is discarded through its newline
    in bounded reads."""
    line = source.readline(max_line + 1)
    newline = "\n" if isinstance(line, str) else b"\n"
    if len(line) > max_line and not line.endswith(newline):
        while line and not line.endswith(newline):
            line = source.readline(max_line + 1)
        return None
    if isinstance(line, str):
        # Lone surrogates pass through, and the strict UTF-8 decode of
        # the request then rejects the line as malformed.
        return line.encode("utf-8", "surrogatepass")
    return bytes(line)


class _StdinReader:
    """Request lines from a blocking stream, read by a daemon thread.

    The thread makes bounded ``readline(max_line + 1)`` calls and hands
    each line to the event loop; a semaphore bounds how far it reads
    ahead.  It is a daemon, so a client holding stdin open cannot keep
    the process alive after ``shutdown`` (an executor thread would be
    joined at exit).  A stream with a file descriptor is read through a
    private binary reader on that descriptor: a thread blocked inside
    the process's own ``sys.stdin`` buffer would abort interpreter
    shutdown on its lock.
    """

    def __init__(self, stream: IO[Any], max_line: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._lines: asyncio.Queue[bytes | None] = asyncio.Queue()
        self._slots = threading.Semaphore(_READ_AHEAD)
        self._closed = False
        threading.Thread(
            target=self._run, args=(stream, max_line), name="repro-stdin", daemon=True
        ).start()

    async def readline(self) -> bytes:
        line = await self._lines.get()
        self._slots.release()
        if line is None:
            raise ValueError("request line too long")
        return line

    def close(self) -> None:
        """Stop the thread once its read in flight returns."""
        self._closed = True
        self._slots.release()

    def _run(self, stream: IO[Any], max_line: int) -> None:
        source: IO[Any]
        try:
            source = open(stream.fileno(), "rb", closefd=False)
        except (OSError, ValueError, AttributeError):
            source = stream  # no descriptor: StringIO and the like
        try:
            while True:
                self._slots.acquire()
                if self._closed:
                    return
                try:
                    line = _read_line(source, max_line)
                except Exception as error:
                    # The loop waits on this thread: an unreadable stdin
                    # (closed, undecodable, ...) must end the session
                    # like EOF.
                    _write_stderr(f"witness-server: stdin unreadable: {error!r}\n")
                    line = b""
                try:
                    self._loop.call_soon_threadsafe(self._lines.put_nowait, line)
                except RuntimeError:  # the loop has closed: nobody reads on
                    return
                if line == b"":
                    return
        finally:
            if source is not stream:
                source.close()  # the private reader; the descriptor stays open


class _StdoutWriter:
    """Response lines to a blocking text stream, written on the default
    executor so a slow stdout never stalls the event loop."""

    def __init__(self, stream: IO[Any]) -> None:
        self._stream = stream
        self._pending: list[bytes] = []

    def write(self, data: bytes) -> None:
        self._pending.append(data)

    async def drain(self) -> None:
        text = b"".join(self._pending).decode("utf-8")
        self._pending.clear()
        await asyncio.get_running_loop().run_in_executor(None, self._flush, text)

    def _flush(self, text: str) -> None:
        self._stream.write(text)
        self._stream.flush()

    def close(self) -> None:
        """The stream belongs to the caller and stays open."""

    async def wait_closed(self) -> None:
        """Nothing to wait for: every drain has flushed its write."""


class _Pending:
    """One queued request awaiting engine capacity."""

    __slots__ = ("request", "conn", "deadline", "future", "received", "parse_seconds", "exec_start")

    request: dict[str, Any]
    conn: _Connection
    deadline: float | None
    future: asyncio.Future[dict[str, Any] | None] | None
    received: float
    parse_seconds: float
    exec_start: float | None

    def __init__(
        self,
        request: dict[str, Any],
        conn: _Connection,
        deadline: float | None,
        future: asyncio.Future[dict[str, Any] | None] | None = None,
        received: float = 0.0,
        parse_seconds: float = 0.0,
    ) -> None:
        self.request = request
        self.conn = conn
        self.deadline = deadline
        #: When set, the pump resolves this future instead of writing to
        #: the connection (internal rounds, e.g. one page of a stream).
        self.future = future
        #: loop.time() at enqueue — the front-door timestamp every
        #: latency/wait stage is measured against.
        self.received = received
        #: Wall time spent decoding this request's line.
        self.parse_seconds = parse_seconds
        #: loop.time() when the batch containing this request started
        #: executing (None for requests answered before execution).
        self.exec_start = None


class _Connection:
    """One client: its line reader and writer plus liveness/ordering state.

    ``stdio`` marks the stdin/stdout client, the server's only one: it
    is never dropped for a slow write, an oversized line costs it only
    that line, and its EOF or ``shutdown`` lets its streams finish
    before the drain.
    """

    __slots__ = ("reader", "writer", "stdio", "closed", "write_lock", "streams")

    reader: _LineReader
    writer: _LineWriter
    stdio: bool
    closed: bool
    write_lock: asyncio.Lock
    streams: dict[int, tuple[Any, asyncio.Task[None]]]

    def __init__(
        self, reader: _LineReader, writer: _LineWriter, stdio: bool = False
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.stdio = stdio
        self.closed = False
        self.write_lock = asyncio.Lock()
        #: Live enumeration streams: unique key → (request id, task).
        self.streams = {}

    async def write(self, payload: bytes) -> None:
        async with self.write_lock:
            self.writer.write(payload)
            await self.writer.drain()


class AsyncWitnessServer:
    """The witness server: any number of connections, one batching pump.

    :meth:`run` serves TCP connections; :meth:`run_stdio` serves stdin
    and stdout as the single connection.  Every connection's requests
    land in one bounded queue; a single pump task drains it (first
    arrival plus a ``batch_window`` straggler grace), executes the whole
    batch in one engine call on a worker thread, and fans the responses
    back out.  The engine is only ever driven by the pump, so
    multiprocess result-queue consumption stays single-consumer while
    any number of clients talk concurrently.
    """

    def __init__(
        self,
        engine: Engine,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_line: int = DEFAULT_MAX_LINE,
        request_timeout: float | None = None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        write_timeout: float = DEFAULT_WRITE_TIMEOUT,
        slow_query_log: obs.SlowQueryLog | None = None,
    ) -> None:
        self.engine = engine
        self.batch_window = batch_window
        self.max_line = max_line
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.write_timeout = write_timeout
        self.slow_query_log = (
            slow_query_log if slow_query_log is not None else obs.slow_log_from_env()
        )
        self.served = 0  # owned-by: event-loop
        self.batches = 0  # owned-by: event-loop
        self.shutting_down = False  # owned-by: event-loop
        self.connections: set[_Connection] = set()  # owned-by: event-loop
        self._queue: asyncio.Queue[_Pending] | None = None  # owned-by: event-loop
        self._stop: asyncio.Event | None = None  # owned-by: event-loop
        self._stream_keys = itertools.count()  # owned-by: event-loop
        #: In-flight response writes, detached from the pump so a slow
        #: reader only ever stalls its own connection.
        self._send_tasks: set[asyncio.Task[None]] = set()  # owned-by: event-loop
        # Metric handles are bound per instance (not at import) so a
        # registry reset in tests/benchmarks never strands live servers
        # on stale objects.
        registry = obs.metrics()
        self._m_malformed = registry.counter(metric_names.SERVER_MALFORMED)
        self._m_connections = registry.counter(metric_names.SERVER_CONNECTIONS)
        self._m_dropped = registry.counter(metric_names.SERVER_DROPPED_CONNECTIONS)
        self._m_stalls = registry.counter(metric_names.SERVER_BACKPRESSURE_STALLS)
        self._m_active_connections = registry.gauge(
            metric_names.SERVER_ACTIVE_CONNECTIONS
        )
        self._m_active_streams = registry.gauge(metric_names.SERVER_ACTIVE_STREAMS)
        self._m_queue_depth = registry.gauge(metric_names.SERVER_QUEUE_DEPTH)
        self._m_batch_size = registry.histogram(metric_names.SERVER_BATCH_SIZE)
        self._m_request_seconds = registry.histogram(metric_names.REQUEST_SECONDS)
        self._m_slow_queries = registry.counter(metric_names.SLOW_QUERIES)
        self._m_stage_parse = registry.histogram(
            metric_names.STAGE_SECONDS, labels={"stage": metric_names.STAGE_PARSE}
        )
        self._m_stage_coalesce = registry.histogram(
            metric_names.STAGE_SECONDS,
            labels={"stage": metric_names.STAGE_COALESCE_WAIT},
        )

    def _count_request(self, op: Any) -> None:
        obs.metrics().counter(
            metric_names.SERVER_REQUESTS, labels={"op": _op_label(op)}
        ).inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(
        self,
        host: str,
        port: int,
        ready_callback: Callable[[Any], None] | None = None,
    ) -> int:
        """Serve TCP connections on ``host:port`` until ``shutdown``."""
        self._start()
        listener = await asyncio.start_server(
            self._handle_connection, host, port, limit=self.max_line
        )
        if ready_callback is not None:
            ready_callback(listener.sockets[0].getsockname())
        await self._serve(listener)
        return 0

    async def run_stdio(self, stdin: IO[Any], stdout: IO[Any]) -> int:
        """Serve ``stdin``/``stdout`` as the single connection until EOF
        or ``shutdown``."""
        self._start()
        reader = _StdinReader(stdin, self.max_line)
        conn = _Connection(reader, _StdoutWriter(stdout), stdio=True)
        self._admit(conn)
        session = asyncio.get_running_loop().create_task(self._serve_stdin(conn))
        try:
            await self._serve(None)
        finally:
            reader.close()
        await session  # finished before the drain began; re-raises a crash
        return 0

    def _start(self) -> None:
        self._queue = asyncio.Queue(maxsize=_QUEUE_LIMIT)
        self._stop = asyncio.Event()

    async def _serve(self, listener: asyncio.AbstractServer | None) -> None:
        """Pump batches until shutdown, then drain and close."""
        queue, stop = self._queue, self._stop
        assert queue is not None and stop is not None  # built by _start()
        pump = asyncio.get_running_loop().create_task(self._pump())
        try:
            await stop.wait()
            # Graceful drain: no new connections, answer what's queued,
            # flush what's written, then leave.  (The listener closes
            # immediately; Server.wait_closed is *not* awaited before the
            # drain because since 3.12 it waits for every connection
            # handler — and idle clients may hold connections open.)
            if listener is not None:
                listener.close()
            await queue.join()
            if self._send_tasks:
                # Responses are written by detached tasks: flush them.  A
                # stalled TCP write gives up at write_timeout by itself;
                # the stdio client's writes are awaited in full.
                await asyncio.wait(list(self._send_tasks))
        finally:
            pump.cancel()
            # Unblock any stream task still waiting on an unprocessed
            # page round, then drop the connections (which ends their
            # handler tasks and lets the listener fully close).
            while not queue.empty():
                pending = queue.get_nowait()
                if pending.future is not None and not pending.future.done():
                    pending.future.set_result(None)
                queue.task_done()
            for conn in list(self.connections):
                await self._close_connection(conn)
            if listener is not None:
                try:
                    await asyncio.wait_for(listener.wait_closed(), timeout=1.0)
                except asyncio.TimeoutError:  # pragma: no cover - stuck handler
                    pass

    def _begin_shutdown(self) -> None:
        self.shutting_down = True
        if self._stop is not None:
            self._stop.set()

    def _admit(self, conn: _Connection) -> None:
        self.connections.add(conn)
        self._m_connections.inc()
        self._m_active_connections.set(len(self.connections))

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.connections.discard(conn)
        self._m_active_connections.set(len(self.connections))
        for _, task in list(conn.streams.values()):
            task.cancel()
        conn.streams.clear()
        try:
            conn.writer.close()
            await asyncio.wait_for(conn.writer.wait_closed(), timeout=1.0)
        except (OSError, asyncio.TimeoutError):  # pragma: no cover - racing close
            pass

    # ------------------------------------------------------------------
    # The request loop, shared by TCP connections and stdio
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        if self.shutting_down or len(self.connections) >= self.max_connections:
            reason = (
                "server is shutting down"
                if self.shutting_down
                else f"too many connections (max {self.max_connections})"
            )
            await self._send(conn, _error_response(None, ConnectionError(reason)))
            self._m_dropped.inc()
            await self._close_connection(conn)
            return
        self._admit(conn)
        try:
            if await self._read_requests(conn):
                self._begin_shutdown()
        finally:
            # Marks the connection closed, which cancels its queued
            # requests, and stops its stream tasks.
            await self._close_connection(conn)

    async def _serve_stdin(self, conn: _Connection) -> None:
        """The stdio session: read until EOF or ``shutdown``, let the
        client's running streams finish, then start the drain (which
        answers everything it queued)."""
        try:
            await self._read_requests(conn)
            streams = [task for _, task in conn.streams.values()]
            if streams:
                await asyncio.wait(streams)
        finally:
            self._begin_shutdown()

    async def _read_requests(self, conn: _Connection) -> bool:
        """Read and dispatch request lines until EOF, a read error or
        ``shutdown``; True when the client asked for ``shutdown``."""
        saw_request = False
        while not conn.closed and not self.shutting_down:
            try:
                line = await conn.reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                self._m_malformed.inc()
                await self._send(
                    conn,
                    _error_response(
                        None,
                        ValueError(
                            f"request line too long (max {self.max_line} bytes)"
                        ),
                    ),
                )
                if conn.stdio:
                    continue  # the reader discarded it through its newline
                # TCP: the frame boundary is lost, resyncing is impossible.
                break
            except (OSError, ConnectionError):
                break
            if not line:
                break  # EOF
            if not line.strip():
                continue
            if not saw_request and not conn.stdio and line.startswith(b"GET "):
                # A Prometheus scrape (plain HTTP GET) on the same
                # port: answer the text exposition and close — no
                # JSON framing was established yet, so nothing on
                # this connection is lost.
                await self._serve_metrics_http(conn)
                break
            saw_request = True
            parse_started = time.perf_counter()
            try:
                request = _parse_line(line)
            except ValueError as error:
                self._m_malformed.inc()
                await self._send(conn, _error_response(None, error))
                continue
            parse_seconds = time.perf_counter() - parse_started
            op = request.get("op")
            self._count_request(op)
            if op == "shutdown":
                await self._send(
                    conn, {"id": request.get("id"), "ok": True, "result": "bye"}
                )
                return True
            if op == "cancel":
                await self._cancel_stream(request, conn)
                continue
            if op == "enumerate" and request.get("stream"):
                await self._start_stream(request, conn)
                continue
            await self._enqueue(request, conn, parse_seconds=parse_seconds)
        return False

    async def _serve_metrics_http(self, conn: _Connection) -> None:
        """Answer a plain HTTP ``GET`` on the JSON-lines port with the
        Prometheus text exposition (pool-wide merged registry).

        Scrapers speak one request per connection here: the headers are
        drained, the body written, and the connection closed — the JSON
        protocol is never entered.  The scrape rides the pump queue as
        an internal ``stats`` round, so the pump stays the engine's only
        driver: a scrape arriving mid-batch waits its turn instead of
        racing the pump for the worker pool's shared result queue (where
        it could steal — and drop — an in-flight batch's responses).
        """
        try:
            while True:
                header = await asyncio.wait_for(conn.reader.readline(), timeout=1.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
        except (asyncio.TimeoutError, OSError, ConnectionError):
            return
        future: asyncio.Future[dict[str, Any] | None] = (
            asyncio.get_running_loop().create_future()
        )
        await self._enqueue({"op": "stats"}, conn, future)
        response = await future
        if response is None or not response.get("ok"):
            # Shutdown drain or a stats failure: a scrape-friendly
            # status line beats silently dropping the connection.
            head = (
                "HTTP/1.0 503 Service Unavailable\r\n"
                "Content-Length: 0\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            encoded = b""
        else:
            result = response.get("result") or {}
            body = obs.render_prometheus(result.get("metrics") or {})
            encoded = body.encode("utf-8")
            head = (
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(encoded)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
        try:
            await asyncio.wait_for(
                conn.write(head + encoded), timeout=self.write_timeout
            )
        except (asyncio.TimeoutError, OSError, ConnectionError):
            pass

    def _deadline_for(self, request: dict[str, Any]) -> float | None:
        timeout = self.request_timeout
        timeout_ms = request.get("timeout_ms")
        if isinstance(timeout_ms, (int, float)) and not isinstance(timeout_ms, bool):
            timeout = timeout_ms / 1000.0
        if timeout is None or timeout <= 0:
            return None
        return asyncio.get_running_loop().time() + timeout

    async def _enqueue(
        self,
        request: dict[str, Any],
        conn: _Connection,
        future: asyncio.Future[dict[str, Any] | None] | None = None,
        parse_seconds: float = 0.0,
    ) -> None:
        queue = self._queue
        assert queue is not None  # run() builds the queue before any reader starts
        await queue.put(
            _Pending(
                request,
                conn,
                self._deadline_for(request),
                future,
                received=asyncio.get_running_loop().time(),
                parse_seconds=parse_seconds,
            )
        )
        self._m_queue_depth.set(queue.qsize())

    async def _send(self, conn: _Connection, response: dict[str, Any]) -> None:
        """Write one response line with backpressure; a TCP write
        stalled past ``write_timeout`` (client stopped reading) drops
        the connection instead of stalling the server."""
        if conn.closed:
            return
        try:
            await asyncio.wait_for(
                conn.write(encode_response(response)),
                # The stdio client is the only one: a slow stdout only
                # slows it down.
                timeout=None if conn.stdio else self.write_timeout,
            )
        except asyncio.TimeoutError:
            # The client stopped reading: a backpressure stall that
            # exhausted its budget costs it the connection.
            self._m_stalls.inc()
            self._m_dropped.inc()
            await self._close_connection(conn)
        except (OSError, ConnectionError):
            self._m_dropped.inc()
            await self._close_connection(conn)

    # ------------------------------------------------------------------
    # Streamed enumeration
    # ------------------------------------------------------------------

    async def _start_stream(self, request: dict[str, Any], conn: _Connection) -> None:
        """Launch one enumeration stream as its own task.

        The connection's reader keeps reading while the stream runs, so
        further requests (including ``cancel``) are served concurrently
        and an abandoned stream can always be stopped without dropping
        the connection.  Streams are capped per connection; the response
        lines of concurrent streams interleave and carry their request
        id, like any pipelined response.
        """
        stream_id = request.get("id")
        if len(conn.streams) >= MAX_STREAMS_PER_CONNECTION:
            await self._send(
                conn,
                _error_response(
                    stream_id,
                    RuntimeError(
                        "too many concurrent streams on this connection "
                        f"(max {MAX_STREAMS_PER_CONNECTION})"
                    ),
                ),
            )
            return
        task = asyncio.get_running_loop().create_task(
            self._stream_enumerate(request, conn)
        )
        # Registry keys are unique per task (a client may reuse an id);
        # cancel matches on the request id, so it stops every stream the
        # client called by that name.
        key = next(self._stream_keys)
        conn.streams[key] = (stream_id, task)
        self._m_active_streams.inc()

        def _forget(_: asyncio.Task[None]) -> None:
            conn.streams.pop(key, None)
            self._m_active_streams.dec()

        task.add_done_callback(_forget)

    async def _cancel_stream(self, request: dict[str, Any], conn: _Connection) -> None:
        """The ``cancel`` op: stop live streams by their request id."""
        target = request.get("target")
        matched = [
            task for stream_id, task in conn.streams.values() if stream_id == target
        ]
        for task in matched:
            task.cancel()
        await self._send(
            conn,
            {
                "id": request.get("id"),
                "ok": True,
                "result": "cancelled" if matched else "no such stream",
            },
        )

    async def _stream_enumerate(self, request: dict[str, Any], conn: _Connection) -> None:
        """Serve one ``stream: true`` enumerate request as chunk lines.

        Each chunk is one paged engine round through the shared pump (so
        concurrent batches interleave and coalescing keeps working), and
        each chunk line is written with backpressure before the next
        page is fetched — a slow client pauses its own stream, bounding
        server memory at one chunk.
        """
        request_id = request.get("id")
        try:
            await self._stream_pages(request, conn, request_id)
        except asyncio.CancelledError:
            # A cancel op (or connection teardown): tell the client where
            # the stream stopped — the cursor in the last chunk it
            # received resumes the enumeration exactly there.
            if not conn.closed:
                await self._send(
                    conn,
                    {
                        "id": request_id,
                        "ok": False,
                        "stream": True,
                        "error": "stream cancelled",
                        "error_type": "CancelledError",
                        "done": True,
                    },
                )
            raise

    async def _stream_pages(
        self, request: dict[str, Any], conn: _Connection, request_id: object
    ) -> None:
        from repro.service.protocol import paging_rounds

        rounds = paging_rounds(request)
        page_request = next(rounds)
        while not conn.closed:
            future = asyncio.get_running_loop().create_future()
            await self._enqueue(page_request, conn, future)
            response = await future
            if response is None:  # cancelled (disconnect or shutdown)
                return
            if not response.get("ok"):
                await self._send(conn, dict(response, stream=True, done=True))
                return
            page = response.get("result") or {}
            try:
                page_request = rounds.send(response)
                done = False
            except StopIteration:
                done = True
            await self._send(
                conn,
                {
                    "id": request_id,
                    "ok": True,
                    "stream": True,
                    "chunk": page.get("items") or [],
                    # Present even on the final chunk of a limit-bounded
                    # stream: the client's resume point (None only when
                    # the enumeration is exhausted).
                    "cursor": page.get("cursor"),
                    "done": done,
                },
            )
            if done:
                return
            if self.shutting_down:
                await self._send(
                    conn,
                    {
                        "id": request_id,
                        "ok": False,
                        "stream": True,
                        "error": "server shutting down",
                        "error_type": "ConnectionError",
                        "done": True,
                        "cursor": page.get("cursor"),
                    },
                )
                return

    # ------------------------------------------------------------------
    # The pump: sole engine driver
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None  # run() builds the queue before starting the pump
        while True:
            first = await queue.get()
            batch = [first]
            # Straggler grace: whatever any connection enqueues within
            # the window joins this batch (cross-connection coalescing).
            deadline = loop.time() + self.batch_window
            while True:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(queue.get(), timeout=timeout)
                    )
                except asyncio.TimeoutError:
                    break
            # Requests already queued when the window closes join too: a
            # burst that arrived together is never split at the deadline.
            while not queue.empty():
                batch.append(queue.get_nowait())
            self._m_batch_size.record(float(len(batch)))
            self._m_queue_depth.set(queue.qsize())
            try:
                await self._execute_batch(loop, batch)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A batch must never kill the pump: with no pump the
                # whole server wedges silently (every client hangs until
                # its socket timeout).  Answer the batch with an error
                # and keep serving — the next batch gets a fresh start.
                await self._fail_batch(batch, error)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _fail_batch(self, batch: list[_Pending], error: Exception) -> None:
        # The diagnostic goes through the executor: stderr may be a pipe
        # with a slow (or stuck) reader, and a blocking write here would
        # stall the pump — the exact failure mode this path exists to
        # contain.
        message = (
            f"witness-server: batch of {len(batch)} failed: "
            f"{type(error).__name__}: {error}\n"
        )
        await asyncio.get_running_loop().run_in_executor(
            None, _write_stderr, message
        )
        sends: list[Coroutine[Any, Any, None]] = []
        for pending in batch:
            if pending.conn.closed:
                if pending.future is not None and not pending.future.done():
                    pending.future.set_result(None)
                continue
            sends.append(
                self._resolve(
                    pending,
                    {
                        "id": pending.request.get("id"),
                        "ok": False,
                        "error": f"internal server error: {error}",
                        "error_type": type(error).__name__,
                    },
                )
            )
        self._dispatch(sends)

    async def _execute_batch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]
    ) -> None:
        now = loop.time()
        live: list[_Pending] = []
        sends: list[Coroutine[Any, Any, None]] = []
        stats_items: list[_Pending] = []
        for pending in batch:
            if pending.conn.closed:
                # Cancelled: the client is gone; never execute, and
                # resolve any internal waiter so its task can exit.
                if pending.future is not None and not pending.future.done():
                    pending.future.set_result(None)
                continue
            if pending.deadline is not None and now > pending.deadline:
                response = {
                    "id": pending.request.get("id"),
                    "ok": False,
                    "error": "request deadline exceeded before execution",
                    "error_type": "TimeoutError",
                }
                sends.append(self._resolve(pending, response))
                continue
            if pending.request.get("op") == "stats":
                stats_items.append(pending)
                continue
            live.append(pending)
        # Dispatch as soon as each group's responses exist: a failure in
        # a later group then cannot strand earlier, undispatched sends.
        self._dispatch(sends)
        sends = []
        if live:
            requests = [pending.request for pending in live]
            self.batches += 1
            exec_start = loop.time()
            for pending in live:
                pending.exec_start = exec_start
            responses = await loop.run_in_executor(None, self.engine.execute, requests)
            self.served += len(responses)
            self._dispatch(
                [self._resolve(p, r) for p, r in zip(live, responses)]
            )
        if stats_items:
            # Aggregated at the server so every worker's counters show up
            # (through engine.execute a stats op reaches one worker).
            per_worker = any(
                pending.request.get("per_worker") for pending in stats_items
            )
            stats = await loop.run_in_executor(
                None, _aggregate_server_stats, self.engine, per_worker
            )
            # Internal rounds (HTTP metrics scrapes resolve a future)
            # are monitoring plumbing, not served client requests.
            self.served += sum(
                1 for pending in stats_items if pending.future is None
            )
            for pending in stats_items:
                result = dict(
                    stats,
                    served=self.served,
                    batches=self.batches,
                    connections=len(self.connections),
                )
                if not pending.request.get("per_worker"):
                    result.pop("workers", None)
                sends.append(
                    self._resolve(
                        pending,
                        {"id": pending.request.get("id"), "ok": True, "result": result},
                    )
                )
        self._dispatch(sends)

    def _dispatch(self, sends: list[Coroutine[Any, Any, None]]) -> None:
        """Fire response deliveries as independent tasks.

        The pump must not await them: one client that has stopped
        reading would otherwise stall every other client's batches for
        up to ``write_timeout`` (writes are already serialized per
        connection by its write lock, and a stalled connection is
        dropped by :meth:`_send`, which bounds the task backlog)."""
        loop = asyncio.get_running_loop()
        for coroutine in sends:
            task = loop.create_task(coroutine)
            self._send_tasks.add(task)
            task.add_done_callback(self._send_tasks.discard)

    async def _resolve(self, pending: _Pending, response: dict[str, Any]) -> None:
        if pending.future is not None:
            # Internal page rounds of a stream: the front-door request is
            # the stream itself, so pages don't count as requests here.
            if not pending.future.done():
                pending.future.set_result(response)
            return
        self._observe_response(pending, response)
        await self._send(pending.conn, response)

    def _observe_response(
        self, pending: _Pending, response: dict[str, Any]
    ) -> None:
        """Account one finished front-door request: latency histogram,
        server-side stage timings, and the slow-query log."""
        loop = asyncio.get_running_loop()
        total = pending.parse_seconds + max(0.0, loop.time() - pending.received)
        if obs.enabled():
            self._m_request_seconds.record(total)
            if pending.parse_seconds > 0:
                self._m_stage_parse.record(pending.parse_seconds)
            coalesce_wait = (
                max(0.0, pending.exec_start - pending.received)
                if pending.exec_start is not None
                else None
            )
            if coalesce_wait is not None:
                self._m_stage_coalesce.record(coalesce_wait)
            if pending.request.get("trace"):
                timing = response.setdefault("timing", {})
                if isinstance(timing, dict):
                    timing[metric_names.STAGE_PARSE] = pending.parse_seconds
                    if coalesce_wait is not None:
                        timing[metric_names.STAGE_COALESCE_WAIT] = coalesce_wait
        log = self.slow_query_log
        if log is not None and log.should_record(total):
            self._m_slow_queries.inc()
            event = {
                "ts": time.time(),
                "id": pending.request.get("id"),
                "op": pending.request.get("op"),
                "ok": response.get("ok"),
                "total_seconds": total,
                "timing": response.get("timing"),
            }
            # File appends never run on the event loop; fire-and-forget
            # on the default executor (failures are swallowed — a broken
            # slow log must not break serving).
            writer = loop.run_in_executor(None, log.record, event)
            writer.add_done_callback(_swallow_exception)


def serve_stdio(
    engine: Engine,
    stdin: IO[Any] | None = None,
    stdout: IO[Any] | None = None,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    max_line: int = DEFAULT_MAX_LINE,
) -> int:
    """Serve JSON-lines over stdin/stdout until EOF or ``shutdown``.

    Runs :class:`AsyncWitnessServer` with the two streams as its single
    connection, so requests batch, coalesce and stream exactly as over
    TCP.  A line longer than ``max_line`` is answered with a one-line
    JSON error and *discarded up to its newline*, and the stream stays
    usable afterwards (unlike TCP, stdio has exactly one client, so
    closing is not an option).  EOF and ``shutdown`` both answer
    everything already read, running streams included, before
    returning 0.
    """
    server = AsyncWitnessServer(engine, batch_window=batch_window, max_line=max_line)
    return asyncio.run(
        server.run_stdio(
            stdin if stdin is not None else sys.stdin,
            stdout if stdout is not None else sys.stdout,
        )
    )


def serve_tcp(
    engine: Engine,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    ready_callback: Callable[[Any], None] | None = None,
    *,
    max_line: int = DEFAULT_MAX_LINE,
    request_timeout: float | None = None,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    write_timeout: float = DEFAULT_WRITE_TIMEOUT,
    slow_query_log: obs.SlowQueryLog | None = None,
) -> int:
    """Serve JSON-lines over TCP until a client sends ``shutdown``.

    Binds ``host:port`` (port 0 picks an ephemeral port), then calls
    ``ready_callback((host, actual_port))`` — the hook tests and the CLI
    use to learn the address.  The implementation is an ``asyncio``
    event loop (:class:`AsyncWitnessServer`): any number of connections
    are multiplexed concurrently, all feeding one batching pump, so
    same-spec sample coalescing spans connections.  See the module
    docstring for the concurrency semantics (bounded lines, deadlines,
    backpressure, streamed enumeration, graceful drain).
    """
    server = AsyncWitnessServer(
        engine,
        batch_window=batch_window,
        max_line=max_line,
        request_timeout=request_timeout,
        max_connections=max_connections,
        write_timeout=write_timeout,
        slow_query_log=slow_query_log,
    )
    return asyncio.run(server.run(host, port, ready_callback))


def start_tcp_server_thread(
    engine: Engine, **kwargs: Any
) -> tuple[threading.Thread, Any]:
    """Run :func:`serve_tcp` in a daemon thread; returns
    ``(thread, (host, port))`` once the listener is bound.

    The embedding convenience (tests, benchmarks, notebooks): an
    ephemeral-port server whose address is known when this returns.
    Keyword arguments are forwarded to :func:`serve_tcp`; stop it with a
    ``shutdown`` request and ``thread.join()``.
    """
    ready = threading.Event()
    address: dict[str, Any] = {}

    def on_ready(addr: Any) -> None:
        address["addr"] = addr
        ready.set()

    kwargs.setdefault("port", 0)
    kwargs["ready_callback"] = on_ready
    thread = threading.Thread(
        target=serve_tcp, args=(engine,), kwargs=kwargs, daemon=True
    )
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("TCP server did not come up within 10s")
    return thread, address["addr"]


__all__ = [
    "AsyncWitnessServer",
    "serve_stdio",
    "serve_tcp",
    "start_tcp_server_thread",
    "encode_response",
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_LINE",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_WRITE_TIMEOUT",
    "MAX_STREAMS_PER_CONNECTION",
]
