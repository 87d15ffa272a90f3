"""Timed repeats and phase attribution (``repro.obs.bench``).

The repository's timing harness of record is ``bench/``.  This module
holds the measurement primitives that ``ktiler profile``, the serve
request log and the ``benchmarks/test_perf_*`` guards share:

* **robust statistics** — :func:`median` and :func:`mad` (median
  absolute deviation);
* **phase attribution** — :func:`phase_breakdown` folds a tracer's
  wall-clock span events into the pipeline phases (trace → block graph
  → profile → partition → tile → replay), using *exclusive* span time
  so nested spans are never double-counted.  A span declares its phase
  where it is emitted, as its category (``tracer.span("tile.cluster",
  cat="tile")``).  The serve request log and ``ktiler profile`` both
  attribute time this way.
* **environment fingerprint** — :func:`environment_fingerprint`
  attaches git sha, python, platform, cpu count and planner backend
  to every profile document.
* **the timed loop** — :func:`run_benchmark`: warmup calls, then N
  timed repeats of one callable, each under a fresh tracer.  It is the
  package's one timed-repeat loop; the planner sweep and the perf
  guards build on it.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Tracer

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
#: Fields of the environment block every profile document carries:
#: what a sample's value may depend on, plus the git sha.
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
# The timed loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Repeat:
    """One timed repeat of :func:`run_benchmark`."""

    #: ``perf_counter`` seconds of the call.
    wall_s: float
    #: :func:`phase_breakdown` of the repeat's tracer, summing to ``wall_s``.
    phases: Dict[str, float]
    #: What the callable returned: keep it small (a work dict, not a plan).
    value: object


def run_benchmark(
    fn: Callable[[Tracer], object],
    repeats: int = 5,
    warmup: int = 1,
) -> List[Repeat]:
    """Time ``fn``, called with a fresh Tracer per run, ``repeats`` times.

    ``warmup`` untimed calls absorb import, allocator and cache warmup
    effects; the timed repeats follow.  Each repeat keeps its wall time,
    its tracer's phase breakdown and ``fn``'s return value, so a caller
    returns only what it wants kept.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(max(0, warmup)):
        fn(Tracer())
    runs: List[Repeat] = []
    for _ in range(repeats):
        tracer = Tracer()
        t0 = time.perf_counter()
        value = fn(tracer)
        wall_s = time.perf_counter() - t0
        runs.append(
            Repeat(wall_s, phase_breakdown(tracer.events, wall_s=wall_s), value)
        )
    return runs
