"""The repo benchmark: four seeded workloads, timed from outside the program.

One workload (the form every benchmark driver uses)::

    python3 bench/run.py --workload fig5-cold --seed 0 --seconds 10 --trace 0

prints one line per metric, then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Every workload, each in its own subprocess (``--trace 1`` runs each one
untraced and traced, and reports the tracing overhead)::

    python3 bench/run.py [--trace 1] [--seed N] [--out result.json]

Record the expected outputs that every run is checked against::

    python3 bench/run.py --record-expected
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads
from workloads import ROOT, SRC

SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(samples: List[float]) -> Optional[Dict[str, float]]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "value": percentile(samples, p)}
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def _metric(value: float, unit: str, n: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def result_doc(args: argparse.Namespace, m, spec: Dict[str, Any]) -> Dict[str, Any]:
    """The full record of one workload run."""
    lat = m.latencies_s
    measured = {
        "setup_s": (statistics.median(m.setup_s), len(m.setup_s)),
        "latency_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "throughput_per_s": (len(lat) / m.elapsed_s, len(lat)),
        "peak_rss_mb": (m.peak_rss_mb, 1),
    }
    if set(measured) != {s["name"] for s in spec["end_to_end"]}:
        raise RuntimeError("BENCHMARK.json end_to_end metrics do not match the bench")
    metrics = {
        s["name"]: _metric(measured[s["name"]][0], s["unit"], measured[s["name"]][1])
        for s in spec["end_to_end"]
    }
    ms = [x * 1e3 for x in lat]
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    info = dict(m.info)
    info.update({
        "setup_samples_s": m.setup_s,
        "measured_s": m.elapsed_s,
        "latency_ms": {"q1": q1, "median": statistics.median(ms), "q3": q3,
                       "max": max(ms), "tail": tail(ms)},
    })
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "correct": bool(m.setup_ok and m.failed == 0),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
        "info": info,
        "environment": environment(),
    }
    if args.trace:
        missing = {s["name"] for s in spec["per_layer"]} - set(m.layers)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        doc["layers"] = {
            s["name"]: _metric(m.layers[s["name"]], s["unit"], m.attempted)
            for s in spec["per_layer"]
        }
    return doc


def result_line(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The last stdout line of a workload run."""
    metrics = doc["layers"] if doc["trace"] else doc["metrics"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def print_metrics(doc: Dict[str, Any]) -> None:
    for group in ("metrics", "layers"):
        for name, metric in doc.get(group, {}).items():
            print(f"{doc['workload']:>16}  {name:<28} {metric['value']:>14.6g} "
                  f"{metric['unit']:<8} n={metric['n']}")
    print(f"{doc['workload']:>16}  correct={doc['correct']} "
          f"attempted={doc['attempted']} failed={doc['failed']}")


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    m = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    doc = result_doc(args, m, spec)
    if args.out:
        write_json(args.out, doc)
    print_metrics(doc)
    print(json.dumps(result_line(doc)))
    return 0


def run_child(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One workload in its own subprocess; returns its result document."""
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR, prefix="child-") as tmp:
        out = Path(tmp) / "result.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(trace),
               "--scale", args.scale, "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=workloads.subprocess_env())
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} (trace {trace}) exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if last != result_line(doc):
        raise RuntimeError(f"{name}: last stdout line disagrees with its result")
    return doc


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    runs: List[Dict[str, Any]] = []
    overhead: Dict[str, float] = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = run_child(name, args, 0)
        runs.append(untraced)
        if args.trace:
            traced = run_child(name, args, 1)
            runs.append(traced)
            overhead[name] = (
                traced["metrics"]["latency_p50_ms"]["value"]
                / untraced["metrics"]["latency_p50_ms"]["value"] - 1.0
            )
    doc = {
        "kind": "ktiler-bench-runs",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment(),
        "runs": runs,
    }
    if args.trace:
        doc["trace_overhead"] = overhead
        for name, value in overhead.items():
            print(f"{name:>16}  trace_overhead {value:+.3f}")
    if args.out:
        write_json(args.out, doc)
    return 0 if all(run["correct"] for run in runs) else 1


def write_json(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="problem sizes (tiny: the smoke test's)")
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--record-expected", action="store_true",
                        help="record bench/expected.json from this checkout")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("KTILER_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.record_expected:
        write_json(str(workloads.EXPECTED_PATH),
                   workloads.record_expected(lambda line: print(line, file=sys.stderr)))
        return 0
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
