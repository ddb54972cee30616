"""The repository benchmark: one command, three workloads, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload build|serve|fpras --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no instrumentation.  ``--trace 1`` is the separate traced run: spans
around each layer's public calls (see ``spans.py``) give the per-layer
metrics, and the same work is also run untraced so the tracing overhead
is reported.  Both print a report, then as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads and the mapping of each metric onto them are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space of one run (stores, server logs, trace files); ignored by git.
OUT = ROOT / ".perfbench"

#: Variables that would change what is measured, cleared for the
#: benchmark and for every process it launches.
PINNED = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_STORE", "REPRO_OBS")
PINNED_PREFIXES = ("REPRO_SLOW_QUERY_",)


def pin_environment() -> None:
    for name in list(os.environ):
        if name in PINNED or name.startswith(PINNED_PREFIXES):
            del os.environ[name]
    source = str(ROOT / "src")
    os.environ["PYTHONPATH"] = source
    sys.path.insert(0, source)


def environment_record() -> dict:
    from repro.core import accel

    resolved = accel.resolve(None)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "kernel_backend": resolved.name if resolved is not None else "pure",
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


#: Largest share of the traced operations' time that may lie outside
#: every layer span before the traced run is marked incorrect.
GAP_TOLERANCE = 0.05


def finish_traced(result: dict, names) -> None:
    """Per-layer metrics from the spans; idle layers report 0.

    A metric named ``<span>_ms`` (``<span>_s``) is that layer's mean
    self time per call, in ms (s).
    """
    tracer = result["tracer"]
    metrics = result["metrics"]
    summary = tracer.summary()
    untraced_ms = result.pop("untraced_ms")
    metrics["trace.unaccounted_share"] = summary["unaccounted_share"]
    metrics["trace.overhead_share"] = summary["traced_total_ms"] / untraced_ms - 1
    metrics["trace.spans"] = summary["spans"]
    for name in names:
        if name in metrics:
            continue
        if name.endswith("_ms"):
            metrics[name] = tracer.layer_mean(name[: -len("_ms")])
        elif name.endswith("_s"):
            metrics[name] = tracer.layer_mean(name[: -len("_s")], scale=1.0)
        else:
            metrics[name] = 0.0
    result["info"]["trace"] = {
        key: summary[key] for key in ("ops", "spans", "traced_total_ms", "layer_self_ms")
    }
    result["info"]["trace"].update(untraced_ms=untraced_ms, gap_tolerance=GAP_TOLERANCE)
    result["info"]["layers"] = summary["layers"]
    if summary["unaccounted_share"] > GAP_TOLERANCE:
        result["correct"] = False
        result["info"]["problems"].append(
            f"layer self times cover only {1 - summary['unaccounted_share']:.1%} "
            "of the traced time"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "serve", "fpras"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every finally (server stop,
    # scratch removal) runs on an aborted run too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_environment()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload == "build":
            import build as workload
        elif args.workload == "serve":
            import serve as workload
        else:
            import fpras as workload
        args.scratch = scratch
        result = workload.run(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = declared_metrics(args.trace)
    if args.trace:
        finish_traced(result, units)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result["tracer"].dump(trace_path, {"info": result["info"]})
        result["info"]["trace_file"] = str(trace_path.relative_to(ROOT))
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    info = dict(result["info"], environment=environment_record())
    info["problems"] = info["problems"][:20]
    print("report " + json.dumps(info, sort_keys=True))
    for name in units:
        print(f"  {name:40s} {values[name]:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
