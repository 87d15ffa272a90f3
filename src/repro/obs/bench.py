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
  so nested spans are never double-counted.  A span declares its phase
  where it is emitted, as its category (``tracer.span("tile.cluster",
  cat="tile")``).  The serve request log and ``ktiler profile`` both
  attribute time this way.
* **environment fingerprint** — :func:`environment_fingerprint`
  attaches git sha, python, platform, cpu count and planner backend
  to every document.
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

from repro.obs import doccheck
from repro.obs.tracer import Tracer

#: Version stamp of every bench-run document.  v2 added the loadgen
#: outcome decomposition + latency histograms.
BENCH_SCHEMA_VERSION = 2

#: Pipeline phases, in pipeline order: the paper's instrumented run
#: (``trace``), block dependency graph, performance tables
#: (``profile``), Algorithm 1 (``partition``), Algorithm 2 (``tile``)
#: and the schedule replay.  A wall-clock span's category is its phase;
#: ``other`` absorbs spans of any other category (the ``serve`` request
#: spans among them) and the un-spanned remainder of the wall time.
PHASES = (
    "trace", "block_graph", "profile", "partition", "tile", "replay", "other",
)


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
def phase_breakdown(
    events: Sequence[dict], wall_s: Optional[float] = None
) -> Dict[str, float]:
    """Fold wall-clock span events into per-phase *exclusive* seconds.

    A span's phase is its category (``cat``); a category outside
    :data:`PHASES` counts as ``other``.  Nested spans (``ktiler.plan``
    containing ``tile.cluster`` containing ``profiler.measure``) are
    resolved by containment: each span's duration minus its direct
    children's durations counts toward its own phase, so the totals
    partition the spanned time exactly.  With ``wall_s`` given, the
    un-spanned remainder of the wall time is added to ``other`` and
    the breakdown sums to ``wall_s``.
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
        phase = e.get("cat")
        totals[phase if phase in totals else "other"] += max(0.0, excl_us) / 1e6
    if wall_s is not None:
        totals["other"] += max(0.0, wall_s - top_level_us / 1e6)
    return totals


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
#: Fields of the environment block every bench and profile document
#: carries: what a sample's value may depend on, plus the git sha.
ENVIRONMENT_FIELDS = (
    "git_sha", "python", "implementation", "platform", "machine",
    "cpu_count", "planner_backend", "numpy",
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

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "planner_backend": resolve_planner_backend(planner_backend),
        "numpy": np.__version__,
    }


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
_DOC = "bench document"
_STATS_KEYS = ("samples", "median", "mad", "mean", "min", "max", "ci95",
               "outliers")
_ROW_KEYS = ("name", "repeats", "warmup", "wall_s", "cpu_s", "phases")


def _check_stats(stats: object, where: str) -> None:
    doccheck.keys(stats, _STATS_KEYS, _DOC, where)
    doccheck.require(
        isinstance(stats["samples"], list) and stats["samples"],
        _DOC, f"{where}.samples missing/empty",
    )
    doccheck.require(
        len(stats["samples"]) >= len(stats["outliers"]),
        _DOC, f"{where} has more outliers than samples",
    )
    doccheck.ordered_ci(stats, _DOC, where)
    doccheck.require(
        stats["min"] <= stats["median"] <= stats["max"],
        _DOC, f"{where} median outside [min, max]",
    )


def validate_bench(doc: dict) -> dict:
    """Check a bench-run document against the schema; return it unchanged.

    Raises :class:`ValueError` on the first violation (so it chains);
    run by ``ktiler loadgen`` on everything it writes.
    """
    doccheck.header(doc, _DOC, BENCH_SCHEMA_VERSION, "bench-run")
    doccheck.section(doc, "environment", _DOC, ENVIRONMENT_FIELDS)
    doccheck.section(doc, "config", _DOC, ("repeats", "warmup", "scale"))
    benchmarks = doccheck.rows(doc, "benchmarks", _DOC, _ROW_KEYS, nonempty=True)
    for i, bench in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        _check_stats(bench["wall_s"], f"{where}.wall_s")
        _check_stats(bench["cpu_s"], f"{where}.cpu_s")
        doccheck.require(
            len(bench["wall_s"]["samples"]) == bench["repeats"],
            _DOC, f"{where} repeats != wall sample count",
        )
        phases = bench["phases"]
        doccheck.require(
            isinstance(phases, dict), _DOC, f"{where}.phases is not an object"
        )
        for phase, stats in phases.items():
            doccheck.require(
                phase in PHASES, _DOC, f"{where} unknown phase '{phase}'"
            )
            doccheck.keys(stats, ("median", "mad"), _DOC, f"{where}.phases[{phase}]")
        if bench.get("work") is not None:
            doccheck.counters(bench["work"], _DOC, f"{where}.work")
    names = [b["name"] for b in benchmarks]
    doccheck.require(
        len(names) == len(set(names)), _DOC, "duplicate benchmark names"
    )
    loadgen = doccheck.section(doc, "loadgen", _DOC, optional=True)
    if loadgen is not None:
        _validate_loadgen_block(loadgen)
    return doc


def _validate_loadgen_block(loadgen: dict) -> None:
    """Loadgen extras: outcome decomposition + latency histograms."""
    from repro.obs.histogram import LogHistogram

    outcomes = doccheck.counters(
        loadgen.get("outcomes"), _DOC, "loadgen.outcomes"
    )
    doccheck.require(
        sum(outcomes.values()) == loadgen.get("requests"),
        _DOC, "loadgen.outcomes do not sum to 'requests'",
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
            doccheck.require(
                hist.count == loadgen.get("requests"),
                _DOC, f"loadgen.{key} count != 'requests'",
            )
