"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
count     exact or approximate count of the witness set (``--backend``)
sample    uniform witnesses (exact / Las Vegas, per the class dispatch)
enum      enumerate witnesses (constant/polynomial delay)
inspect   automaton facts: size, ambiguity, per-length spectrum
dot       Graphviz DOT of the automaton or its unrolled DAG
serve     the witness service: one async JSON-lines server on stdio or TCP
          (``--workers`` forks the affinity-routed engine pool,
          ``--store`` persists kernels for warm starts; ``--max-line``,
          ``--request-timeout`` and ``--max-connections`` bound the
          front-end)
query     send one operation to a running ``repro serve --port`` server;
          ``repro query enum`` / ``--enumerate`` streams witnesses as
          chunked responses (``--chunk-size``, resumable ``--cursor``)

Every command goes through the :class:`repro.api.WitnessSet` facade, so
within one process repeated queries on the same input reuse all
preprocessing.  Inputs:

* ``--regex`` (with ``--alphabet``) — a regular expression;
* ``--nfa-json`` — a JSON automaton file (:func:`repro.automata.
  serialization.nfa_to_json`);
* ``--dnf`` — a file containing ``"x0 & !x2 | x1"``-style DNF text;
  witnesses are satisfying assignments (``-n`` defaults to the number
  of variables);
* ``--rpq`` — a regular path query: ``--graph-json`` (a
  :func:`repro.graphdb.graph_to_json` file) plus ``--source``,
  ``--target`` and the path regex in ``--regex``;
* ``--cfg`` — a file containing ``"S -> A B | a"``-style CNF grammar
  text (:func:`repro.grammars.parse_cnf`); witnesses are the grammar's
  length-``n`` words (``-n`` required).

``--intersect REGEX`` (with ``--regex`` or ``--nfa-json`` inputs)
restricts the witness set to the words a second pattern *also* accepts:
the two automata are combined as a lazy
:class:`~repro.core.plan.Product` plan and lowered on the fly into the
array kernel — the product automaton is never materialized.  This is
the "count / sample the witnesses two patterns share" workload.

Counting strategies are selected by name from the solver-backend
registry (``--backend exact|fpras|montecarlo|kannan|karp_luby|naive``);
``--approx`` is shorthand for ``--backend fpras``.  All randomness is
seedable (``--seed``) for reproducible pipelines.

Examples::

    repro serve --port 7411 --workers 4 --store /var/cache/repro-kernels
    repro query count  --port 7411 --regex '(ab|ba)*' --alphabet ab -n 10
    repro query sample --port 7411 --regex '(ab|ba)*' --alphabet ab -n 10 --batch 5 --seed 1
    python -m repro count  --regex '(ab|ba)*' --alphabet ab -n 10
    python -m repro count  --regex '(ab|ba)*' --intersect '(a|b)*aa(a|b)*' --alphabet ab -n 10
    python -m repro sample --regex '(a|b)*' --intersect '(ab|ba)*' --alphabet ab -n 8 --batch 5 --seed 1
    python -m repro count  --regex '(a|b)*a(a|b)*' --alphabet ab -n 40 --approx --delta 0.2
    python -m repro count  --dnf formula.txt --backend karp_luby --seed 1
    python -m repro count  --rpq --graph-json g.json --source p0 --target p7 --regex 'k(k|f)*k' -n 5
    python -m repro count  --cfg grammar.txt -n 8
    python -m repro sample --regex '(ab|ba)*' --alphabet ab -n 10 --count 5 --seed 7
    python -m repro sample --regex '(ab|ba)*' --alphabet ab -n 10 --batch 1000 --seed 7
    python -m repro enum   --dnf formula.txt --limit 20
    python -m repro dot    --regex 'a*b' --alphabet ab --unroll 4
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Hashable

from repro import __version__, backends
from repro.api import WitnessSet
from repro.automata.serialization import nfa_to_dot, unrolled_dag_to_dot
from repro.core.fpras import FprasParameters
from repro.core.unroll import unroll_trimmed
from repro.errors import ReproError
from repro.service.protocol import render_witness


def _parse_vertex(graph, text: str):
    """Map a CLI vertex argument onto a graph vertex.

    Tries the raw string, then a Python literal (ints, tuples like
    ``"(0, 0)"`` for grid graphs).
    """
    if text in graph.vertices:
        return text
    try:
        literal = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        literal = None
    if isinstance(literal, Hashable) and literal is not None and literal in graph.vertices:
        return literal
    raise SystemExit(f"vertex {text!r} is not in the graph")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be ≥ 0")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("must be strictly between 0 and 1")
    return value


def _require_length(args) -> int:
    if args.length is not None:
        return args.length
    if getattr(args, "needs_length", True):
        raise SystemExit("-n/--length is required for this input")
    return 0  # inspect/dot operate on the automaton, not a fixed length


def _load_witness_set(args) -> WitnessSet:
    """Build the WitnessSet the command operates on, from any input kind.

    One input-parsing path for local commands and ``repro query``: the
    CLI arguments compile to the same self-contained spec the query
    client ships to a server (:func:`_spec_from_args`), and the witness
    set is built from that spec — so input validation can never drift
    between the two routes.  (This costs a second parse of the input
    file locally; CLI inputs are small and the anti-drift guarantee is
    worth it.)
    """
    from repro.service.protocol import witness_set_from_spec

    params = (
        FprasParameters(sample_size=args.sketch_size)
        if getattr(args, "sketch_size", None)
        else None
    )
    return witness_set_from_spec(
        _spec_from_args(args),
        store=None,  # the $REPRO_KERNEL_STORE process default applies
        delta=getattr(args, "delta", 0.1),
        params=params,
        rng=getattr(args, "seed", None),
        kernel_backend=getattr(args, "kernel_backend", None),
    )


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--regex", help="regular expression (also the --rpq path pattern)")
    parser.add_argument("--intersect", metavar="REGEX", default=None,
                        help="restrict to witnesses a second pattern also accepts "
                             "(lazy product plan; with --regex or --nfa-json)")
    parser.add_argument("--alphabet", help="alphabet characters, e.g. 'ab'")
    parser.add_argument("--nfa-json", help="path to a repro.nfa JSON file")
    parser.add_argument("--dnf", metavar="FILE", help="path to a DNF formula text file")
    parser.add_argument("--cfg", metavar="FILE",
                        help="path to a CNF grammar text file ('S -> A B | a' lines)")
    parser.add_argument("--rpq", action="store_true",
                        help="regular path query mode (needs --graph-json/--source/--target)")
    parser.add_argument("--graph-json", metavar="FILE", help="path to a repro.graph JSON file")
    parser.add_argument("--source", help="RPQ source vertex")
    parser.add_argument("--target", help="RPQ target vertex")
    parser.add_argument("-n", "--length", type=int, default=None,
                        help="witness length (optional for --dnf)")
    parser.add_argument("--kernel-backend", default=None,
                        choices=("pure", "numpy", "auto"),
                        help="kernel execution backend (default: "
                             "$REPRO_KERNEL_BACKEND, else pure; numpy/auto "
                             "fall back to pure when NumPy is unavailable)")


def _command_count(args) -> int:
    ws = _load_witness_set(args)
    name = args.backend or ("fpras" if args.approx else "exact")
    if backends.get(name).exact:
        print(ws.count(name))
    else:
        print(f"{ws.count(name, delta=args.delta, rng=args.seed):.6g}")
    return 0


def _command_sample(args) -> int:
    ws = _load_witness_set(args)
    if args.batch is not None:
        witnesses = ws.sample_batch(args.batch, rng=args.seed)
    else:
        witnesses = ws.sample(args.count, rng=args.seed)
    for witness in witnesses:
        print(render_witness(witness))
    return 0


def _command_enum(args) -> int:
    ws = _load_witness_set(args)
    for witness in ws.enumerate(limit=args.limit):
        print(render_witness(witness))
    return 0


def _command_inspect(args) -> int:
    ws = _load_witness_set(args)
    facts = ws.describe()
    print(f"states        : {facts['states']}")
    print(f"transitions   : {facts['transitions']}")
    print(f"alphabet      : {''.join(sorted(map(str, facts['alphabet'])))}")
    print(f"unambiguous   : {facts['unambiguous']}")
    print(f"kernel backend: {facts['kernel_backend']}")
    print(f"class         : "
          f"{'RelationUL (exact suite)' if facts['unambiguous'] else 'RelationNL (FPRAS/PLVUG)'}")
    if "plan" in facts:
        lowering = facts["lowering"]
        print(f"plan          : {facts['plan']}")
        if lowering:  # absent on a store-restored kernel without stats
            print(f"lowering      : explored {lowering['explored_states']} of "
                  f"{lowering['nominal_states']} nominal product states "
                  f"({lowering['kernel_vertices']} kernel vertices)")
    if args.spectrum is not None:
        for length, count in ws.spectrum(args.spectrum).items():
            print(f"|L_{length:<3}|       : {count}")
    return 0


def _command_dot(args) -> int:
    ws = _load_witness_set(args)
    if args.unroll is not None:
        print(unrolled_dag_to_dot(unroll_trimmed(ws.stripped, args.unroll)))
    else:
        print(nfa_to_dot(ws.stripped))
    return 0


# ----------------------------------------------------------------------
# The witness service: serve / query
# ----------------------------------------------------------------------


def _spec_from_args(args) -> dict:
    """The self-contained request spec for the CLI's input arguments.

    Mirrors :func:`_load_witness_set`, but instead of compiling locally
    it embeds the instance *content* (file contents, not paths) so the
    server needs no shared filesystem.
    """
    import json as _json

    if getattr(args, "intersect", None) is not None and (
        args.dnf is not None
        or getattr(args, "cfg", None) is not None
        or getattr(args, "rpq", False)
    ):
        raise SystemExit("--intersect requires a --regex or --nfa-json input")
    if getattr(args, "rpq", False):
        if args.graph_json is None or args.regex is None:
            raise SystemExit("--rpq requires --graph-json and --regex")
        if args.source is None or args.target is None:
            raise SystemExit("--rpq requires --source and --target")
        from repro.automata.serialization import _encode_atom
        from repro.graphdb.graph import graph_from_document

        with open(args.graph_json, "r", encoding="utf-8") as handle:
            document = _json.load(handle)
        graph = graph_from_document(document)
        return {
            "kind": "rpq",
            "graph": document,
            "pattern": args.regex,
            "source": _encode_atom(_parse_vertex(graph, args.source)),
            "target": _encode_atom(_parse_vertex(graph, args.target)),
            "n": _require_length(args),
        }
    if args.dnf is not None:
        from repro.dnf.formulas import parse_dnf

        with open(args.dnf, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
        length = getattr(args, "length", None)
        if length is not None:
            num_variables = parse_dnf(text).num_variables
            if length != num_variables:
                raise SystemExit(
                    f"-n {length} contradicts the formula's "
                    f"{num_variables} variables (omit -n for --dnf)"
                )
        return {"kind": "dnf", "formula": text}
    if getattr(args, "cfg", None) is not None:
        if args.length is None:
            raise SystemExit("-n/--length is required for --cfg")
        with open(args.cfg, "r", encoding="utf-8") as handle:
            return {"kind": "cfg", "grammar": handle.read(), "n": args.length}
    if args.regex is not None or args.nfa_json is not None:
        if args.regex is not None:
            base = {"kind": "regex", "pattern": args.regex}
            if args.alphabet:
                base["alphabet"] = args.alphabet
        else:
            with open(args.nfa_json, "r", encoding="utf-8") as handle:
                base = {"kind": "nfa", "nfa": _json.loads(handle.read())}
        if getattr(args, "intersect", None) is not None:
            right = {"kind": "regex", "pattern": args.intersect}
            if args.alphabet:
                right["alphabet"] = args.alphabet
            return {
                "kind": "intersection",
                "left": base,
                "right": right,
                "n": _require_length(args),
            }
        return dict(base, n=_require_length(args))
    raise SystemExit("one of --regex, --nfa-json, --dnf, --cfg or --rpq is required")


def _resolve_slow_query_log(path_arg, ms_arg):
    """Build the serve command's slow-query log from flags + environment.

    ``--slow-query-log`` names the file; ``--slow-query-ms`` sets the
    threshold.  Either flag alone completes itself from the environment
    (``$REPRO_SLOW_QUERY_LOG`` / ``$REPRO_SLOW_QUERY_MS``): in
    particular ``--slow-query-ms`` without ``--slow-query-log`` adjusts
    the env-configured log's threshold instead of being rejected.
    """
    if path_arg is None and ms_arg is None:
        return None
    from repro import obs

    env_log = obs.slow_log_from_env()
    path = path_arg if path_arg is not None else (
        env_log.path if env_log is not None else None
    )
    if path is None:
        raise SystemExit(
            "--slow-query-ms requires --slow-query-log (or $REPRO_SLOW_QUERY_LOG)"
        )
    if ms_arg is not None:
        return obs.SlowQueryLog(path, threshold_seconds=ms_arg / 1000.0)
    if env_log is not None and path == env_log.path:
        return env_log  # keeps the $REPRO_SLOW_QUERY_MS threshold
    return obs.SlowQueryLog(path)


def _command_serve(args) -> int:
    import asyncio

    from repro.service.engine import Engine
    from repro.service.server import (
        DEFAULT_MAX_CONNECTIONS,
        DEFAULT_MAX_LINE,
        AsyncWitnessServer,
    )

    engine = Engine(
        workers=args.workers,
        store_root=args.store,
        max_resident=args.max_resident,
    )
    server = AsyncWitnessServer(
        engine,
        batch_window=args.batch_window / 1000.0,
        max_line=args.max_line if args.max_line is not None else DEFAULT_MAX_LINE,
        request_timeout=args.request_timeout or None,
        max_connections=(
            args.max_connections
            if args.max_connections is not None
            else DEFAULT_MAX_CONNECTIONS
        ),
        slow_query_log=_resolve_slow_query_log(args.slow_query_log, args.slow_query_ms),
    )
    try:
        if args.port is None:
            return asyncio.run(server.run_stdio(sys.stdin, sys.stdout))

        def announce(address) -> None:
            print(f"listening on {address[0]}:{address[1]}", file=sys.stderr, flush=True)

        return asyncio.run(server.run(args.host, args.port, announce))
    finally:
        engine.close()


def _print_resume_cursor(cursor) -> None:
    """Tell the user how to continue a stream that stopped early
    (``--limit`` reached, or interrupted) — on stderr, so piped witness
    output stays clean."""
    if cursor is None:
        return
    import json as _json

    print(
        f"resume with: --cursor '{_json.dumps(cursor, separators=(',', ':'))}'",
        file=sys.stderr,
    )


def _command_query(args) -> int:
    import json as _json

    from repro.service.client import ServiceClient, ServiceClientError

    op = args.op
    if getattr(args, "enumerate", False):
        if op is not None and op not in ("enum", "enumerate"):
            raise SystemExit("--enumerate cannot be combined with another op")
        op = "enum"
    if op is None:
        raise SystemExit("repro query needs an op (or --enumerate)")
    if op in ("enum", "enumerate"):
        # Streamed enumeration: chunked response lines printed as they
        # arrive — the witness set is never materialized on either side.
        try:
            cursor = _json.loads(args.cursor) if args.cursor is not None else None
        except ValueError as error:
            raise SystemExit(f"--cursor is not valid JSON: {error}") from error
        with ServiceClient(args.host, args.port) as client:
            try:
                for item in client.enumerate(
                    _spec_from_args(args),
                    limit=args.limit,
                    chunk_size=args.chunk_size,
                    cursor=cursor,
                ):
                    print(item, flush=True)
            except ServiceClientError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            except KeyboardInterrupt:
                _print_resume_cursor(client.last_cursor)
                return 130
            # A --limit-terminated stream is resumable: surface where it
            # stopped so the next run can pass it back via --cursor.
            _print_resume_cursor(client.last_cursor)
        return 0
    request: dict = {"op": op}
    if op not in ("ping", "stats", "shutdown"):
        request["spec"] = _spec_from_args(args)
    if op == "count":
        if args.backend or args.approx:
            request["backend"] = args.backend or "fpras"
        request["delta"] = args.delta
        if args.seed is not None:
            request["seed"] = args.seed
    elif op in ("sample", "sample_batch"):
        request["k"] = args.batch if args.batch is not None else args.count
        if args.seed is not None:
            request["seed"] = args.seed
    elif op == "spectrum":
        if args.max_length is not None:
            request["max_length"] = args.max_length
    with ServiceClient(args.host, args.port) as client:
        response = client.send([request])[0]
    if not response.get("ok"):
        print(
            f"error: {response.get('error_type', 'error')}: {response.get('error')}",
            file=sys.stderr,
        )
        return 1
    result = response["result"]
    if isinstance(result, list) and result and isinstance(result[0], list):
        for length, count in result:  # a spectrum
            print(f"{length} {count}")
    elif isinstance(result, list):
        for item in result:
            print(item)
    elif isinstance(result, dict):
        print(_json.dumps(result, indent=2, ensure_ascii=False, default=str))
    else:
        print(result)
    return 0


def _command_stats(args) -> int:
    """``repro stats``: one stats round-trip, rendered for humans.

    ``--json`` prints the full aggregated payload; the default rendering
    shows the server headline counters, the engine summary, and the
    merged metrics registry as an aligned table.
    """
    import json as _json

    from repro import obs
    from repro.service.client import ServiceClient

    request: dict = {"op": "stats"}
    if args.per_worker:
        request["per_worker"] = True
    with ServiceClient(args.host, args.port) as client:
        response = client.send([request])[0]
    if not response.get("ok"):
        print(
            f"error: {response.get('error_type', 'error')}: {response.get('error')}",
            file=sys.stderr,
        )
        return 1
    result = response["result"]
    if args.json:
        print(_json.dumps(result, indent=2, ensure_ascii=False, default=str))
        return 0
    engine = result.get("engine") or {}
    print(
        f"served {result.get('served', 0)} requests "
        f"in {result.get('batches', 0)} batches; "
        f"{result.get('connections', 0)} connection(s) open"
    )
    print(
        f"engine: {engine.get('workers', 0)} worker(s) "
        f"({engine.get('alive', 0)} alive), "
        f"{engine.get('resident', 0)} resident witness set(s), "
        f"cache {engine.get('hits', 0)} hit(s) / {engine.get('misses', 0)} miss(es)"
    )
    store = engine.get("store")
    if store:
        pairs = ", ".join(f"{key}={value}" for key, value in sorted(store.items()))
        print(f"store: {pairs}")
    print()
    print(obs.render_text(result.get("metrics") or {}), end="")
    if args.per_worker:
        print()
        for entry in result.get("workers") or []:
            print(_json.dumps(entry, ensure_ascii=False, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="enumerate / count / uniformly sample witness sets "
        "(Arenas et al., PODS 2019)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    commands = parser.add_subparsers(dest="command")

    count = commands.add_parser("count", help="count witnesses")
    _add_input_arguments(count)
    count.add_argument("--approx", action="store_true",
                       help="use the FPRAS (alias for --backend fpras)")
    count.add_argument("--backend", default=None,
                       help="solver backend: %s" % ", ".join(backends.available()))
    count.add_argument("--delta", type=_probability, default=0.1)
    count.add_argument("--sketch-size", type=int, default=64)
    count.add_argument("--seed", type=int, default=None)
    count.set_defaults(run=_command_count)

    sample = commands.add_parser("sample", help="draw uniform witnesses")
    _add_input_arguments(sample)
    sample.add_argument("--count", type=_nonnegative, default=1)
    sample.add_argument("--batch", type=_nonnegative, default=None, metavar="K",
                        help="draw K witnesses in one batched kernel pass "
                             "(instead of K independent --count draws)")
    sample.add_argument("--delta", type=_probability, default=0.1)
    sample.add_argument("--seed", type=int, default=None)
    sample.set_defaults(run=_command_sample)

    enum = commands.add_parser("enum", help="enumerate witnesses")
    _add_input_arguments(enum)
    enum.add_argument("--limit", type=int, default=None)
    enum.set_defaults(run=_command_enum)

    inspect = commands.add_parser("inspect", help="automaton facts")
    _add_input_arguments(inspect)
    inspect.add_argument("--spectrum", type=_nonnegative, default=None, metavar="N",
                         help="print |L_0..N|")
    inspect.set_defaults(run=_command_inspect, needs_length=False)

    dot = commands.add_parser("dot", help="Graphviz DOT output")
    _add_input_arguments(dot)
    dot.add_argument("--unroll", type=int, default=None, metavar="N",
                     help="render the pruned n-step unrolling instead")
    dot.set_defaults(run=_command_dot, needs_length=False)

    serve = commands.add_parser(
        "serve", help="run the witness service (JSON-lines, stdio or TCP)"
    )
    serve.add_argument("--port", type=int, default=None,
                       help="listen on TCP (0 = ephemeral; default: stdio)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--workers", type=_nonnegative, default=0,
                       help="engine worker processes (0 = in-process)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="KernelStore directory for warm-start persistence")
    serve.add_argument("--batch-window", type=float, default=5.0, metavar="MS",
                       help="coalescing grace period in milliseconds")
    serve.add_argument("--max-resident", type=int, default=64,
                       help="witness sets kept hot per worker")
    serve.add_argument("--max-line", type=int, default=None, metavar="BYTES",
                       help="bound on one request line (default 8 MiB); longer "
                            "lines get a one-line JSON error")
    serve.add_argument("--request-timeout", type=float, default=0.0, metavar="SECONDS",
                       help="per-request deadline while waiting for engine "
                            "capacity (0 = none; requests may override via "
                            "timeout_ms)")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="cap on simultaneous TCP connections (default 1024)")
    serve.add_argument("--slow-query-log", default=None, metavar="PATH",
                       help="append over-threshold requests to this JSON-lines "
                            "file (also $REPRO_SLOW_QUERY_LOG)")
    serve.add_argument("--slow-query-ms", type=float, default=None, metavar="MS",
                       help="slow-query threshold in milliseconds "
                            "(default 1000; also $REPRO_SLOW_QUERY_MS)")
    serve.set_defaults(run=_command_serve)

    stats = commands.add_parser(
        "stats", help="fetch and render a running server's metrics"
    )
    stats.add_argument("--port", type=int, required=True)
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--json", action="store_true",
                       help="print the raw aggregated stats payload as JSON")
    stats.add_argument("--per-worker", action="store_true",
                       help="include the per-worker cache/store entry list")
    stats.set_defaults(run=_command_stats)

    query = commands.add_parser(
        "query", help="send one operation to a repro serve --port server"
    )
    query.add_argument(
        "op",
        nargs="?",
        default=None,
        choices=["count", "sample", "sample_batch", "enum", "enumerate",
                 "spectrum", "describe", "ping", "stats", "shutdown"],
    )
    _add_input_arguments(query)
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--backend", default=None)
    query.add_argument("--approx", action="store_true")
    query.add_argument("--delta", type=_probability, default=0.1)
    query.add_argument("--seed", type=_nonnegative, default=None)
    query.add_argument("--count", type=_nonnegative, default=1)
    query.add_argument("--batch", type=_nonnegative, default=None, metavar="K")
    query.add_argument("--limit", type=_nonnegative, default=None)
    query.add_argument("--max-length", type=_nonnegative, default=None)
    query.add_argument("--enumerate", action="store_true",
                       help="stream witnesses (chunked constant-delay "
                            "enumeration; same as the enum op)")
    query.add_argument("--chunk-size", type=_nonnegative, default=None,
                       help="witnesses per streamed enumeration chunk")
    query.add_argument("--cursor", default=None, metavar="JSON",
                       help="resume a streamed enumeration from this cursor "
                            "(as printed/kept by a previous run)")
    query.set_defaults(run=_command_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        # No subcommand: usage + exit 2, never a traceback.
        parser.print_usage(sys.stderr)
        print("repro: error: a command is required (see repro --help)",
              file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Unreadable input files, connection refused, port in use, ...:
        # a clean one-line error, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C on a serving loop is a normal way to stop it.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
