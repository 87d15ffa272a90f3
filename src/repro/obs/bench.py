"""Benchmark statistics and phase attribution (``repro.obs.bench``).

The paper's whole argument is a performance delta, yet single-shot
timings cannot distinguish a real regression from scheduler jitter on a
shared machine.  This module holds the measurement primitives that the
load generator, ``ktiler profile`` and the ``benchmarks/test_perf_*``
guards share; the repository's timing harness of record is ``bench/``.

Pieces, bottom to top:

* **robust statistics** — :func:`median`, :func:`mad` (median absolute
  deviation), :func:`bootstrap_ci` (seeded percentile bootstrap of the
  median, deterministic for a given sample list), and modified-z-score
  :func:`outlier_indices`; bundled per metric as :class:`SampleStats`.
* **phase attribution** — :func:`phase_breakdown` folds a tracer's
  wall-clock span events into the pipeline phases (trace → block graph
  → profile → partition → tile → replay), using *exclusive* span time
  so nested spans are never double-counted.  The serve request log and
  ``ktiler profile`` both attribute time this way.
* **environment fingerprint** — :func:`environment_fingerprint`
  attaches git sha, python, platform, cpu count and planner backend
  to every document; :func:`fingerprint_noise_key` hashes
  the machine-stable subset (the git sha is deliberately excluded: it
  changes every commit without changing the machine's noise profile),
  so a reader knows when two documents are comparable.
* **harness** — :func:`run_benchmark` (warmup + N timed repeats of one
  callable under a fresh tracer each), and the schema check
  :func:`validate_bench` of the bench-run document the load generator
  writes.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Tracer
from repro.store.fingerprint import content_key

#: Version stamp of every bench-run document.  v2 added the loadgen
#: outcome decomposition + latency histograms.
BENCH_SCHEMA_VERSION = 2

#: Pipeline phases, in pipeline order.  ``other`` absorbs spans with no
#: mapping and the un-spanned remainder of the wall time.
PHASES = (
    "trace", "block_graph", "profile", "partition", "tile", "replay", "other",
)

#: Span name -> phase.
_PHASE_BY_SPAN = {
    "ktiler.instrument": "trace",
    "fig2.analyze": "trace",
    "ktiler.block_graph": "block_graph",
    "ktiler.mem_lines": "block_graph",
    "profiler.measure": "profile",
    "suitability.profile": "profile",
    "ktiler.plan": "partition",
    "tile.cluster": "tile",
    "tally_schedule": "replay",
    "audit.replay": "replay",
    "fig2.default": "replay",
    "fig2.tiled": "replay",
    "fig3.grid": "replay",
}


# ----------------------------------------------------------------------
# Robust statistics
# ----------------------------------------------------------------------
def median(samples: Sequence[float]) -> float:
    """The sample median (numpy semantics: mean of the middle pair)."""
    if not len(samples):
        raise ValueError("median of an empty sample list")
    return float(np.median(np.asarray(samples, dtype=float)))


def mad(samples: Sequence[float]) -> float:
    """Median absolute deviation around the median (unscaled).

    Multiply by 1.4826 to estimate a gaussian sigma.
    """
    xs = np.asarray(samples, dtype=float)
    if not xs.size:
        raise ValueError("mad of an empty sample list")
    return float(np.median(np.abs(xs - np.median(xs))))


#: Fixed bootstrap seed: the CI of a given sample list is reproducible.
_BOOTSTRAP_SEED = 20190325  # DATE 2019

def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = _BOOTSTRAP_SEED,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval of the median.

    Deterministic: the resampling RNG is seeded, so re-running the
    statistics over the same samples reproduces the interval bit for
    bit (the run documents are diffable).
    """
    xs = np.asarray(samples, dtype=float)
    if not xs.size:
        raise ValueError("bootstrap_ci of an empty sample list")
    if xs.size == 1:
        return float(xs[0]), float(xs[0])
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, xs.size, size=(n_boot, xs.size))
    medians = np.median(xs[draws], axis=1)
    lo = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(medians, lo)),
        float(np.quantile(medians, 1.0 - lo)),
    )


def outlier_indices(
    samples: Sequence[float], threshold: float = 3.5
) -> List[int]:
    """Indices of modified-z-score outliers (|z| > ``threshold``).

    z = 0.6745 * (x - median) / MAD (Iglewicz & Hoaglin).  A zero MAD
    (all repeats identical to timer resolution) flags nothing.
    """
    xs = np.asarray(samples, dtype=float)
    if not xs.size:
        return []
    med = np.median(xs)
    spread = np.median(np.abs(xs - med))
    if spread == 0.0:
        return []
    z = 0.6745 * (xs - med) / spread
    return [int(i) for i in np.nonzero(np.abs(z) > threshold)[0]]


@dataclass(frozen=True)
class SampleStats:
    """Summary statistics of one repeated measurement (seconds)."""

    samples: Tuple[float, ...]
    median: float
    mad: float
    mean: float
    min: float
    max: float
    ci95: Tuple[float, float]
    outliers: Tuple[int, ...]

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "SampleStats":
        xs = [float(s) for s in samples]
        return cls(
            samples=tuple(xs),
            median=median(xs),
            mad=mad(xs),
            mean=float(np.mean(xs)),
            min=float(np.min(xs)),
            max=float(np.max(xs)),
            ci95=bootstrap_ci(xs),
            outliers=tuple(outlier_indices(xs)),
        )

    def as_dict(self) -> dict:
        return {
            "samples": [round(s, 6) for s in self.samples],
            "median": round(self.median, 6),
            "mad": round(self.mad, 6),
            "mean": round(self.mean, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "ci95": [round(self.ci95[0], 6), round(self.ci95[1], 6)],
            "outliers": list(self.outliers),
        }


# ----------------------------------------------------------------------
# Phase attribution
# ----------------------------------------------------------------------
def span_phase(event: dict) -> Optional[str]:
    """The pipeline phase a wall-clock span belongs to, or None."""
    return _PHASE_BY_SPAN.get(event.get("name", ""))


def phase_breakdown(
    events: Sequence[dict], wall_s: Optional[float] = None
) -> Dict[str, float]:
    """Fold wall-clock span events into per-phase *exclusive* seconds.

    Nested spans (``ktiler.plan`` containing ``tile.cluster`` containing
    ``profiler.measure``) are resolved by containment: each span's
    duration minus its direct children's durations counts toward its
    own phase, so the totals partition the spanned time exactly.  With
    ``wall_s`` given, the un-spanned remainder of the wall time is
    added to ``other`` and the breakdown sums to ``wall_s``.
    """
    spans = [
        e for e in events
        if e.get("ph") == "X" and "dur" in e and "ts" in e
    ]
    # Parents sort before children at equal start (longer first).
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    exclusive = [float(e["dur"]) for e in spans]
    top_level_us = 0.0
    stack: List[Tuple[float, int]] = []  # (end_ts, span index)
    for i, e in enumerate(spans):
        ts, dur = float(e["ts"]), float(e["dur"])
        while stack and ts >= stack[-1][0] - 1e-9:
            stack.pop()
        if stack:
            exclusive[stack[-1][1]] -= dur
        else:
            top_level_us += dur
        stack.append((ts + dur, i))
    totals = {phase: 0.0 for phase in PHASES}
    for e, excl_us in zip(spans, exclusive):
        phase = span_phase(e) or "other"
        totals[phase] += max(0.0, excl_us) / 1e6
    if wall_s is not None:
        totals["other"] += max(0.0, wall_s - top_level_us / 1e6)
    return totals


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
#: Fingerprint fields that shape the machine's noise profile; the hash
#: of these (:func:`fingerprint_noise_key`) says when two documents'
#: timings are comparable.
NOISE_KEY_FIELDS = (
    "python", "implementation", "platform", "machine", "cpu_count",
    "planner_backend", "numpy",
)


def _git_sha() -> str:
    for env_var in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        sha = os.environ.get(env_var)
        if sha:
            return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def environment_fingerprint(planner_backend: Optional[str] = None) -> dict:
    """Everything a sample's value may depend on, plus the git sha.

    ``planner_backend`` resolves through the same precedence the
    pipeline itself uses (argument > environment > default), so the
    fingerprint records what actually ran, not what was requested.
    """
    from repro.core.fast_cluster import resolve_planner_backend

    fp = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "planner_backend": resolve_planner_backend(planner_backend),
        "numpy": np.__version__,
    }
    fp["noise_key"] = fingerprint_noise_key(fp)
    return fp


def fingerprint_noise_key(fp: dict) -> str:
    """sha256 over the machine-stable fingerprint fields.

    Two runs are noise-comparable iff their keys match.  The git sha is
    excluded on purpose: the point is comparing *across* commits on one
    machine.
    """
    return content_key({k: fp.get(k) for k in NOISE_KEY_FIELDS})


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@dataclass
class BenchResult:
    """One benchmark's repeated measurement, fully summarized."""

    name: str
    repeats: int
    warmup: int
    wall: SampleStats
    cpu: SampleStats
    #: phase -> {"median": s, "mad": s} across the timed repeats.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: planner work counters (see :mod:`repro.core.work`) of one repeat
    #: — deterministic, so one repeat speaks for all.  Empty when the
    #: benchmark does not run the planner.
    work: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        doc = {
            "name": self.name,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "wall_s": self.wall.as_dict(),
            "cpu_s": self.cpu.as_dict(),
            "phases": {
                phase: {
                    "median": round(stats["median"], 6),
                    "mad": round(stats["mad"], 6),
                }
                for phase, stats in sorted(self.phases.items())
            },
        }
        if self.work:
            doc["work"] = dict(sorted(self.work.items()))
        return doc


def run_benchmark(
    name: str,
    fn: Callable[[Tracer], object],
    repeats: int = 5,
    warmup: int = 1,
) -> BenchResult:
    """Time ``fn`` (called with a fresh Tracer per run) statistically.

    ``warmup`` untimed calls absorb import, allocator, and cache
    warmup effects; ``repeats`` timed calls follow.  Wall time is
    ``perf_counter``, CPU time is ``process_time`` (the wall clock is
    the headline number, CPU is the corroborating witness).  Each
    repeat's tracer
    events fold into a per-phase breakdown, summarized as median/MAD
    per phase.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(max(0, warmup)):
        fn(Tracer())
    wall: List[float] = []
    cpu: List[float] = []
    breakdowns: List[Dict[str, float]] = []
    for _ in range(repeats):
        tracer = Tracer()
        t_wall = time.perf_counter()
        t_cpu = time.process_time()
        fn(tracer)
        wall_s = time.perf_counter() - t_wall
        cpu_s = time.process_time() - t_cpu
        wall.append(wall_s)
        cpu.append(cpu_s)
        breakdowns.append(phase_breakdown(tracer.events, wall_s=wall_s))
    phases: Dict[str, Dict[str, float]] = {}
    for phase in PHASES:
        series = [b.get(phase, 0.0) for b in breakdowns]
        if any(s > 0.0 for s in series):
            phases[phase] = {"median": median(series), "mad": mad(series)}
    # Planner work counters are deterministic (same every repeat by the
    # work-counter contract), so the last repeat's tracer speaks for all.
    # Imported here: repro.core's package init reaches back into
    # repro.obs through the simulator, so a module-level import cycles.
    from repro.core.work import WORK_COUNTER_FAMILIES

    work = {
        name_.split(".", 1)[1]: int(tracer.metrics.total(name_))
        for name_ in WORK_COUNTER_FAMILIES
        if name_ in tracer.metrics
    }
    return BenchResult(
        name=name,
        repeats=repeats,
        warmup=warmup,
        wall=SampleStats.from_samples(wall),
        cpu=SampleStats.from_samples(cpu),
        phases=phases,
        work=work,
    )


# ----------------------------------------------------------------------
# Schema check
# ----------------------------------------------------------------------
_STATS_KEYS = ("samples", "median", "mad", "mean", "min", "max", "ci95",
               "outliers")
_ENV_KEYS = ("git_sha", "noise_key") + NOISE_KEY_FIELDS


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid bench document: {message}")


def _check_stats(stats: object, where: str) -> None:
    _require(isinstance(stats, dict), f"{where} is not an object")
    for key in _STATS_KEYS:
        _require(key in stats, f"{where} missing '{key}'")
    _require(
        isinstance(stats["samples"], list) and stats["samples"],
        f"{where}.samples missing/empty",
    )
    _require(
        len(stats["samples"]) >= len(stats["outliers"]),
        f"{where} has more outliers than samples",
    )
    lo, hi = stats["ci95"]
    _require(lo <= hi, f"{where}.ci95 is not ordered")
    _require(
        stats["min"] <= stats["median"] <= stats["max"],
        f"{where} median outside [min, max]",
    )


def validate_bench(doc: dict) -> dict:
    """Check a bench-run document against the schema; return it unchanged.

    Raises :class:`ValueError` on the first violation (so it chains);
    run by ``ktiler loadgen`` on everything it writes.
    """
    _require(isinstance(doc, dict), "document is not an object")
    _require(
        doc.get("schema_version") == BENCH_SCHEMA_VERSION,
        f"schema_version != {BENCH_SCHEMA_VERSION}",
    )
    _require(doc.get("kind") == "bench-run", "kind != 'bench-run'")
    env = doc.get("environment")
    _require(isinstance(env, dict), "missing 'environment' object")
    for key in _ENV_KEYS:
        _require(key in env, f"environment missing '{key}'")
    _require(
        env["noise_key"] == fingerprint_noise_key(env),
        "environment.noise_key does not match its fields",
    )
    config = doc.get("config")
    _require(isinstance(config, dict), "missing 'config' object")
    for key in ("repeats", "warmup", "scale"):
        _require(key in config, f"config missing '{key}'")
    benchmarks = doc.get("benchmarks")
    _require(
        isinstance(benchmarks, list) and benchmarks,
        "'benchmarks' missing/empty",
    )
    for i, bench in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        _require(isinstance(bench, dict), f"{where} is not an object")
        for key in ("name", "repeats", "warmup", "wall_s", "cpu_s", "phases"):
            _require(key in bench, f"{where} missing '{key}'")
        _check_stats(bench["wall_s"], f"{where}.wall_s")
        _check_stats(bench["cpu_s"], f"{where}.cpu_s")
        _require(
            len(bench["wall_s"]["samples"]) == bench["repeats"],
            f"{where} repeats != wall sample count",
        )
        phases = bench["phases"]
        _require(isinstance(phases, dict), f"{where}.phases is not an object")
        for phase, stats in phases.items():
            _require(phase in PHASES, f"{where} unknown phase '{phase}'")
            _require(
                isinstance(stats, dict)
                and "median" in stats and "mad" in stats,
                f"{where}.phases[{phase}] missing median/mad",
            )
        work = bench.get("work")
        if work is not None:
            _require(isinstance(work, dict), f"{where}.work is not an object")
            for counter, value in work.items():
                _require(
                    isinstance(value, int) and value >= 0,
                    f"{where}.work[{counter}] is not a non-negative int",
                )
    names = [b["name"] for b in benchmarks]
    _require(len(names) == len(set(names)), "duplicate benchmark names")
    loadgen = doc.get("loadgen")
    if loadgen is not None:
        _validate_loadgen_block(loadgen)
    return doc


def _validate_loadgen_block(loadgen: object) -> None:
    """Loadgen extras: outcome decomposition + latency histograms."""
    from repro.obs.histogram import LogHistogram

    _require(isinstance(loadgen, dict), "'loadgen' is not an object")
    outcomes = loadgen.get("outcomes")
    _require(isinstance(outcomes, dict), "loadgen missing 'outcomes'")
    for tag, count in outcomes.items():
        _require(
            isinstance(count, int) and count >= 0,
            f"loadgen.outcomes[{tag}] is not a non-negative int",
        )
    _require(
        sum(outcomes.values()) == loadgen.get("requests"),
        "loadgen.outcomes do not sum to 'requests'",
    )
    for key in ("latency_histogram", "server_histogram"):
        payload = loadgen.get(key)
        if payload is None:
            continue
        try:
            hist = LogHistogram.from_dict(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"loadgen.{key} malformed: {exc}") from exc
        if key == "latency_histogram":
            _require(
                hist.count == loadgen.get("requests"),
                f"loadgen.{key} count != 'requests'",
            )
