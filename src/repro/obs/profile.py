"""Planner observatory: profiling hooks and scalability probes.

The repository benchmark (``bench/``) answers "did the program slow
down"; this module answers "*why* is the planner slow and *how does its
cost scale*".  Three instruments, all opt-in and fully off the default
path:

* **Deterministic stack profiling** — :class:`StackProfiler` is a
  ``sys.setprofile``-based capture that attributes self-time to full
  call stacks and exports flamegraph-ready collapsed-stack text
  (``a;b;c 123``, one line per unique stack, weights in microseconds —
  feed straight into ``flamegraph.pl`` or speedscope).  It can be
  scoped to named tracer spans (:func:`scope_profiler_to_spans`), so a
  capture of the whole pipeline still shows only, say, ``ktiler.plan``.
  A classic :mod:`cProfile` engine is available as a cross-check
  (flat frames, but exact call counts with C-function attribution).

* **Profile documents** — :func:`profile_planner` plans one application
  under a chosen engine and :func:`build_profile_doc` packages the
  result as a schema-versioned JSON document (``kind:
  "planner-profile"``, :data:`PROFILE_SCHEMA_VERSION`) carrying the
  environment fingerprint, per-phase wall breakdown, deterministic work
  counters, profile frames, and (optionally) a scalability sweep.
  :func:`validate_profile` is the schema gate CI runs on every emitted
  document.

* **Scalability sweeps** — :func:`run_sweep` runs the full planner
  pipeline across a ladder of :func:`~repro.apps.build_probe_graph`
  sizes and :func:`fit_exponent` fits per-phase and per-counter
  empirical complexity exponents by log-log regression, with seeded
  bootstrap confidence intervals over the timed repeats (work counters
  are deterministic, so their exponents come with degenerate CIs —
  exact empirical complexity, zero timing noise).
  :func:`compare_exponents` reports exponent drift against a committed
  baseline; CI surfaces it as an advisory, because an exponent is a
  property of the *algorithm*, not the machine.

Surfaced as ``ktiler profile`` (see :mod:`repro.cli`); the dashboard
renders via :func:`repro.obs.pages.render_profile_html`.
"""

from __future__ import annotations

import cProfile
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import doccheck
from repro.obs.bench import (
    ENVIRONMENT_FIELDS,
    PHASES,
    environment_fingerprint,
    mad,
    median,
    phase_breakdown,
    run_benchmark,
)
from repro.obs.tracer import Tracer

#: Version stamp of every planner-profile document.
PROFILE_SCHEMA_VERSION = 1

#: Profiling engines accepted by :func:`profile_planner`.
PROFILE_ENGINES = ("stack", "cprofile")

#: Default size ladder of ``ktiler profile --sweep`` (kernel counts).
DEFAULT_SWEEP_SIZES = (8, 16, 32, 64)

#: Fixed bootstrap seed: the CI of a given fit is reproducible.
_BOOTSTRAP_SEED = 20190325  # DATE 2019


def _work_counter_names() -> tuple:
    """Field names of PlannerWork (imported lazily: repro.core's package
    init reaches back into repro.obs through the simulator)."""
    from repro.core.work import PlannerWork

    return tuple(PlannerWork().as_dict())


def _probe_shapes() -> tuple:
    from repro.apps.synthetic import PROBE_SHAPES

    return PROBE_SHAPES


# ----------------------------------------------------------------------
# Deterministic stack profiler
# ----------------------------------------------------------------------
def _frame_label(frame) -> str:
    """``module:qualname`` label of a Python frame (collapsed-stack safe).

    Semicolons and spaces separate stacks/weights in the collapsed
    format, so they are scrubbed from the label.
    """
    code = frame.f_code
    module = os.path.basename(code.co_filename)
    if module.endswith(".py"):
        module = module[:-3]
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{name}".replace(";", ",").replace(" ", "")


class StackProfiler:
    """Full-stack self-time profiler on ``sys.setprofile``.

    Deterministic in *structure*: the set of stacks and their call
    counts are a pure function of the profiled code path; only the
    microsecond weights carry timing noise.  Single-threaded by design:
    the planner runs on one thread.

    Use as a context manager, or :meth:`start`/:meth:`stop` directly.
    :meth:`pause`/:meth:`resume` gate recording without uninstalling
    the hook — that is what span scoping builds on: start paused, let
    the target spans resume around their bodies.
    """

    #: Record one (ts, depth) counter-track sample every N events.
    SAMPLE_EVERY = 256

    def __init__(self, paused: bool = False):
        #: stack of frame labels (the shadow call stack)
        self._stack: List[str] = []
        #: tuple(stack) -> [self_us, calls]
        self._agg: Dict[Tuple[str, ...], List[float]] = {}
        self._recording = not paused
        self._installed = False
        self._last: Optional[float] = None
        self._t0 = time.perf_counter()
        self._events = 0
        #: (rel_us, depth) samples for the Chrome-trace counter track
        self._track: List[Tuple[float, int]] = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "StackProfiler":
        if self._installed:
            return self
        self._installed = True
        self._t0 = time.perf_counter()
        self._last = self._t0 if self._recording else None
        sys.setprofile(self._handle)
        return self

    def stop(self) -> "StackProfiler":
        if not self._installed:
            return self
        sys.setprofile(None)
        self._flush(time.perf_counter())
        self._installed = False
        self._stack.clear()
        return self

    def __enter__(self) -> "StackProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def pause(self) -> None:
        """Stop attributing time (the hook stays installed)."""
        if self._recording:
            self._flush(time.perf_counter())
            self._recording = False
            self._last = None

    def resume(self) -> None:
        """Resume attributing time to the current shadow stack."""
        if not self._recording:
            self._recording = True
            self._last = time.perf_counter()

    # -- the hook -------------------------------------------------------
    def _flush(self, now: float) -> None:
        if self._last is None or not self._stack:
            self._last = now
            return
        delta_us = (now - self._last) * 1e6
        if delta_us > 0.0:
            entry = self._agg.setdefault(tuple(self._stack), [0.0, 0])
            entry[0] += delta_us
        self._last = now

    def _handle(self, frame, event: str, arg) -> None:
        now = time.perf_counter()
        recording = self._recording
        if recording:
            self._flush(now)
        if event == "call":
            self._stack.append(_frame_label(frame))
            if recording:
                entry = self._agg.setdefault(tuple(self._stack), [0.0, 0])
                entry[1] += 1
        elif event == "c_call":
            self._stack.append(f"~{getattr(arg, '__qualname__', arg)}")
            if recording:
                entry = self._agg.setdefault(tuple(self._stack), [0.0, 0])
                entry[1] += 1
        elif event in ("return", "c_return", "c_exception"):
            if self._stack:
                self._stack.pop()
        if recording:
            self._events += 1
            if self._events % self.SAMPLE_EVERY == 0:
                self._track.append(
                    ((now - self._t0) * 1e6, len(self._stack))
                )
            self._last = time.perf_counter()

    # -- results --------------------------------------------------------
    def frames(self) -> List[dict]:
        """Aggregated stacks, heaviest self-time first."""
        return [
            {
                "stack": list(stack),
                "self_us": round(self_us, 1),
                "calls": int(calls),
            }
            for stack, (self_us, calls) in sorted(
                self._agg.items(), key=lambda kv: -kv[1][0]
            )
        ]

    @property
    def total_us(self) -> float:
        return sum(entry[0] for entry in self._agg.values())

    def emit_counters(self, tracer, name: str = "profile.stack_depth") -> int:
        """Merge the capture into the trace as a wall-clock counter track.

        One Chrome-trace 'C' sample per :data:`SAMPLE_EVERY` profile
        events, charting shadow-stack depth over time next to the
        pipeline spans.  Returns the number of samples emitted.
        """
        for ts_us, depth in self._track:
            tracer.counter(name, {"depth": depth}, ts_us=ts_us)
        return len(self._track)


class _ScopedSpan:
    """Span wrapper that resumes a paused profiler inside the span."""

    __slots__ = ("_inner", "_profiler")

    def __init__(self, inner, profiler: StackProfiler):
        self._inner = inner
        self._profiler = profiler

    def __enter__(self):
        self._inner.__enter__()
        self._profiler.resume()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.pause()
        return self._inner.__exit__(exc_type, exc, tb)


def scope_profiler_to_spans(
    tracer, profiler: StackProfiler, span_names: Sequence[str]
) -> None:
    """Make ``profiler`` record only inside the named tracer spans.

    Patches the *instance*'s ``span`` method (the class is untouched)
    so entering a named span resumes the paused profiler and leaving it
    pauses again.  Works with nested unnamed spans — they inherit the
    recording state of the enclosing named span.
    """
    names = frozenset(span_names)
    original = tracer.span

    def span(name: str, cat: str = "app", **args: object):
        inner = original(name, cat=cat, **args)
        if name in names:
            return _ScopedSpan(inner, profiler)
        return inner

    tracer.span = span


# ----------------------------------------------------------------------
# cProfile engine (cross-check; flat frames, exact counts)
# ----------------------------------------------------------------------
def run_cprofile(fn: Callable[[], object]) -> Tuple[object, List[dict]]:
    """Run ``fn`` under :mod:`cProfile`; return (result, frames).

    cProfile keeps caller/callee pairs, not full stacks, so the frames
    are single-entry "stacks" — a flat flamegraph, but with C functions
    attributed and call counts exact.
    """
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    prof.create_stats()
    frames: List[dict] = []
    for (filename, lineno, funcname), row in prof.stats.items():
        cc, nc, tt, ct, callers = row
        module = os.path.basename(filename)
        if module.endswith(".py"):
            module = module[:-3]
        if filename == "~":  # builtins
            label = f"~{funcname}".replace(";", ",").replace(" ", "")
        else:
            label = f"{module}:{funcname}".replace(";", ",").replace(" ", "")
        frames.append(
            {
                "stack": [label],
                "self_us": round(tt * 1e6, 1),
                "calls": int(nc),
            }
        )
    frames.sort(key=lambda f: -f["self_us"])
    return result, frames


# ----------------------------------------------------------------------
# Collapsed-stack export
# ----------------------------------------------------------------------
def collapsed_stacks(frames: Sequence[dict]) -> str:
    """Frames -> collapsed-stack text (``a;b;c <weight>\\n`` lines).

    Weights are integer microseconds of self time; zero-weight stacks
    (pure pass-through frames) are dropped, as flamegraph tooling
    expects.  Lines are sorted by stack for diff-stable output.
    """
    lines = []
    for frame in frames:
        weight = int(round(frame["self_us"]))
        if weight <= 0:
            continue
        lines.append(f"{';'.join(frame['stack'])} {weight}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def write_collapsed(path: str, frames: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(collapsed_stacks(frames))


# ----------------------------------------------------------------------
# One profiled planner run
# ----------------------------------------------------------------------
#: Spans the stack engine records by default: the scheduler core (both
#: algorithms plus the lazy perf-table measurements they trigger).
DEFAULT_PROFILE_SPANS = ("ktiler.plan",)


def profile_planner(
    app,
    spec=None,
    config=None,
    engine: Optional[str] = "stack",
    tracer: Optional[Tracer] = None,
    spans: Sequence[str] = DEFAULT_PROFILE_SPANS,
    planner_backend: Optional[str] = None,
) -> dict:
    """Plan ``app`` once under a profiling engine; return the raw capture.

    Returns ``{"result", "tracer", "wall_s", "phases", "work",
    "engine", "frames", "profile_total_us"}``.  ``engine=None`` skips
    frame capture (counters and phases only).  The ``stack`` engine is
    scoped to ``spans``; ``cprofile`` wraps the whole pipeline (it
    cannot pause mid-flight).  ``planner_backend`` selects the merge
    planner (``reference``/``fast``) — the schedule is bit-identical
    either way; the validity-family work counters are not.
    """
    from repro.core import KTiler, KTilerConfig

    if engine is not None and engine not in PROFILE_ENGINES:
        raise ValueError(
            f"unknown profile engine '{engine}' (want one of {PROFILE_ENGINES})"
        )
    tracer = tracer if tracer is not None else Tracer()
    if config is None:
        config = KTilerConfig(launch_overhead_us=2.0)
    ktiler = KTiler(
        app.graph, spec, config,
        tracer=tracer, planner_backend=planner_backend,
    )
    frames: List[dict] = []
    profile_total_us = 0.0
    t0 = time.perf_counter()
    if engine == "stack":
        profiler = StackProfiler(paused=True)
        scope_profiler_to_spans(tracer, profiler, spans)
        with profiler:
            result = ktiler.plan()
        frames = profiler.frames()
        profile_total_us = profiler.total_us
        profiler.emit_counters(tracer)
    elif engine == "cprofile":
        result, frames = run_cprofile(ktiler.plan)
        profile_total_us = sum(f["self_us"] for f in frames)
    else:
        result = ktiler.plan()
    wall_s = time.perf_counter() - t0
    return {
        "result": result,
        "tracer": tracer,
        "wall_s": wall_s,
        "phases": phase_breakdown(tracer.events, wall_s=wall_s),
        "work": result.stats.work.as_dict(),
        "engine": engine,
        "frames": frames,
        "profile_total_us": profile_total_us,
    }


# ----------------------------------------------------------------------
# Complexity-exponent fitting
# ----------------------------------------------------------------------
def fit_exponent(
    sizes: Sequence[float],
    samples_per_size: Sequence[Sequence[float]],
    n_boot: int = 500,
    seed: int = _BOOTSTRAP_SEED,
) -> Optional[dict]:
    """Log-log regression of medians over ``sizes``; bootstrap CI.

    Fits ``value ~ C * size^k`` and returns ``{"exponent", "ci95",
    "r2", "medians"}``, or None when the series cannot be fit (fewer
    than two sizes, or a non-positive median — a counter that never
    fires on this topology has no exponent).

    The CI resamples one repeat per size (seeded, deterministic) and
    refits; deterministic series (work counters: every repeat
    identical) collapse to a zero-width interval — the fit is then the
    *exact* empirical complexity of the planner on this ladder.
    """
    if len(sizes) != len(samples_per_size):
        raise ValueError("sizes and samples_per_size lengths differ")
    if len(sizes) < 2:
        return None
    meds = [median(list(s)) for s in samples_per_size]
    if any(m <= 0.0 for m in meds):
        return None
    logx = np.log(np.asarray(sizes, dtype=float))
    logy = np.log(np.asarray(meds, dtype=float))
    slope, intercept = np.polyfit(logx, logy, 1)
    pred = slope * logx + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rng = np.random.default_rng(seed)
    slopes: List[float] = []
    arrays = [np.asarray(s, dtype=float) for s in samples_per_size]
    for _ in range(n_boot):
        ys = np.array([a[rng.integers(0, a.size)] for a in arrays])
        if np.any(ys <= 0.0):
            continue
        slopes.append(float(np.polyfit(logx, np.log(ys), 1)[0]))
    if slopes:
        ci = (
            float(np.quantile(slopes, 0.025)),
            float(np.quantile(slopes, 0.975)),
        )
    else:
        ci = (float(slope), float(slope))
    return {
        "exponent": round(float(slope), 4),
        "ci95": [round(ci[0], 4), round(ci[1], 4)],
        "r2": round(r2, 4),
        "medians": [round(m, 6) for m in meds],
    }


# ----------------------------------------------------------------------
# Scalability sweep
# ----------------------------------------------------------------------
def run_sweep(
    shape: str = "chain",
    sizes: Sequence[int] = DEFAULT_SWEEP_SIZES,
    repeats: int = 3,
    warmup: int = 1,
    spec=None,
    seed: int = 0,
    image_size: int = 32,
    log: Optional[Callable[[str], None]] = None,
    planner_backend: Optional[str] = None,
) -> dict:
    """Plan a :func:`build_probe_graph` size ladder; fit scaling exponents.

    Each ladder point runs the *full* pipeline under
    :func:`~repro.obs.bench.run_benchmark` (fresh KTiler and Tracer per
    repeat), so the per-phase exponents cover trace analysis and
    profiling too, not just Algorithm 1/2.  A repeat keeps only its
    plan's work dict.  Returns the sweep section of a profile document:
    per-point stats plus fitted exponents for wall time, every active
    phase, and every active work counter.
    """
    from repro.apps.synthetic import build_probe_graph
    from repro.core import KTiler, KTilerConfig

    if shape not in _probe_shapes():
        raise ValueError(
            f"unknown probe shape '{shape}' (want one of {_probe_shapes()})"
        )
    sizes = sorted(set(int(n) for n in sizes))
    if len(sizes) < 2:
        raise ValueError("a sweep needs at least two distinct sizes")
    config = KTilerConfig(launch_overhead_us=2.0)
    points: List[dict] = []
    wall_series: List[List[float]] = []
    phase_series: Dict[str, List[List[float]]] = {p: [] for p in PHASES}
    work_series: Dict[str, List[List[float]]] = {
        name: [] for name in _work_counter_names()
    }
    for kernels in sizes:
        app = build_probe_graph(
            shape=shape, kernels=kernels, size=image_size, seed=seed
        )

        def plan_work(tracer: Tracer) -> dict:
            ktiler = KTiler(
                app.graph, spec, config,
                tracer=tracer, planner_backend=planner_backend,
            )
            return ktiler.plan().stats.work.as_dict()

        runs = run_benchmark(plan_work, repeats=repeats, warmup=warmup)
        wall = [run.wall_s for run in runs]
        work = runs[0].value
        if any(run.value != work for run in runs[1:]):
            raise AssertionError(
                f"work counters varied across repeats at {shape}/{kernels}: "
                f"{[run.value for run in runs]} — the work-counter contract "
                "is broken"
            )
        wall_series.append(wall)
        for phase in PHASES:
            phase_series[phase].append([run.phases[phase] for run in runs])
        for name, value in work.items():
            work_series[name].append([float(value)] * repeats)
        points.append(
            {
                "kernels": kernels,
                "wall_s": {
                    "median": round(median(wall), 6),
                    "mad": round(mad(wall), 6),
                },
                "phases": {
                    phase: round(median(series[-1]), 6)
                    for phase, series in phase_series.items()
                    if any(s > 0.0 for s in series[-1])
                },
                "work": work,
            }
        )
        if log is not None:
            log(
                f"probe.{shape} kernels={kernels}: "
                f"median {median(wall):.3f}s, "
                f"work total {sum(work.values())}"
            )
    exponents: Dict[str, object] = {
        "wall_s": fit_exponent(sizes, wall_series),
        "phases": {},
        "work": {},
    }
    for phase in PHASES:
        fit = fit_exponent(sizes, phase_series[phase])
        if fit is not None:
            exponents["phases"][phase] = fit
    for name in sorted(work_series):
        fit = fit_exponent(sizes, work_series[name])
        if fit is not None:
            exponents["work"][name] = fit
    return {
        "shape": shape,
        "sizes": list(sizes),
        "repeats": repeats,
        "warmup": warmup,
        "seed": seed,
        "image_size": image_size,
        "points": points,
        "exponents": exponents,
    }


# ----------------------------------------------------------------------
# Profile documents
# ----------------------------------------------------------------------
def build_profile_doc(
    app_label: str,
    capture: Optional[dict] = None,
    sweep: Optional[dict] = None,
    max_frames: int = 200,
    planner_backend: Optional[str] = None,
) -> dict:
    """Package a capture and/or sweep as a planner-profile document."""
    doc: dict = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "planner-profile",
        "created_unix": round(time.time(), 3),
        "environment": environment_fingerprint(planner_backend),
        "app": app_label,
    }
    if capture is not None:
        doc["wall_s"] = round(capture["wall_s"], 6)
        doc["phases"] = {
            phase: round(seconds, 6)
            for phase, seconds in sorted(capture["phases"].items())
            if seconds > 0.0
        }
        doc["work"] = dict(sorted(capture["work"].items()))
        if capture.get("engine") is not None:
            doc["profile"] = {
                "engine": capture["engine"],
                "total_us": round(capture["profile_total_us"], 1),
                "frames": capture["frames"][:max_frames],
                "truncated": len(capture["frames"]) > max_frames,
            }
    if sweep is not None:
        doc["sweep"] = sweep
    return validate_profile(doc)


_DOC = "profile document"


def _check_fit(fit: object, where: str) -> None:
    doccheck.keys(fit, ("exponent", "ci95", "r2", "medians"), _DOC, where)
    doccheck.ordered_ci(fit, _DOC, where)


def validate_profile(doc: dict) -> dict:
    """Check a planner-profile document; return it unchanged.

    Raises :class:`ValueError` on the first violation.  Run by
    ``ktiler profile`` on everything it writes and by the CI
    profile-smoke job on the uploaded artifact.
    """
    doccheck.header(doc, _DOC, PROFILE_SCHEMA_VERSION, "planner-profile")
    doccheck.section(doc, "environment", _DOC, ENVIRONMENT_FIELDS)
    doccheck.require(isinstance(doc.get("app"), str), _DOC, "missing 'app' label")
    doccheck.require(
        "work" in doc or "sweep" in doc,
        _DOC, "document carries neither a capture nor a sweep",
    )
    if "work" in doc:
        known = set(_work_counter_names())
        for counter in doccheck.counters(doc["work"], _DOC, "work"):
            doccheck.require(
                counter in known, _DOC, f"unknown work counter '{counter}'"
            )
    profile = doccheck.section(doc, "profile", _DOC, optional=True)
    if profile is not None:
        doccheck.require(
            profile.get("engine") in PROFILE_ENGINES,
            _DOC, f"profile.engine not in {PROFILE_ENGINES}",
        )
        for i, frame in enumerate(
            doccheck.rows(profile, "frames", _DOC, ("self_us", "calls"))
        ):
            doccheck.require(
                isinstance(frame.get("stack"), list) and frame["stack"],
                _DOC, f"profile.frames[{i}] has no stack",
            )
    sweep = doccheck.section(
        doc, "sweep", _DOC,
        ("shape", "sizes", "repeats", "points", "exponents"), optional=True,
    )
    if sweep is not None:
        doccheck.require(
            sweep["shape"] in _probe_shapes(),
            _DOC, f"sweep.shape not in {_probe_shapes()}",
        )
        sizes = sweep["sizes"]
        doccheck.require(
            isinstance(sizes, list) and len(sizes) >= 2
            and sizes == sorted(set(sizes)),
            _DOC, "sweep.sizes is not a sorted list of >= 2 distinct sizes",
        )
        points = doccheck.rows(sweep, "points", _DOC, ("wall_s", "work"))
        doccheck.require(
            len(points) == len(sizes),
            _DOC, "sweep.points does not match sweep.sizes",
        )
        for i, point in enumerate(points):
            doccheck.require(
                point.get("kernels") == sizes[i],
                _DOC, f"sweep.points[{i}] is not at size {sizes[i]}",
            )
        exponents = sweep["exponents"]
        doccheck.keys(exponents, ("wall_s", "phases", "work"), _DOC,
                      "sweep.exponents")
        _check_fit(exponents["wall_s"], "sweep.exponents.wall_s")
        for group in ("phases", "work"):
            fits = doccheck.keys(
                exponents[group], (), _DOC, f"sweep.exponents.{group}"
            )
            for name, fit in fits.items():
                _check_fit(fit, f"sweep.exponents.{group}[{name}]")
    return doc


# ----------------------------------------------------------------------
# Exponent drift (advisory)
# ----------------------------------------------------------------------
def _exponent_map(doc: dict) -> Dict[str, float]:
    """Flatten a profile document's fitted exponents to path -> value."""
    sweep = doc.get("sweep") or {}
    exponents = sweep.get("exponents") or {}
    flat: Dict[str, float] = {}
    wall = exponents.get("wall_s")
    if wall:
        flat["wall_s"] = wall["exponent"]
    for group in ("phases", "work"):
        for name, fit in (exponents.get(group) or {}).items():
            flat[f"{group}.{name}"] = fit["exponent"]
    return flat


def compare_exponents(
    baseline: dict, current: dict, tol: float = 0.35
) -> List[str]:
    """Human-readable exponent drifts beyond ``tol`` (empty = no drift).

    Advisory by design: an empirical exponent moves when the
    *algorithm* changes (a rewrite turning an O(n^2) scan into O(n
    log n) should move it!), so CI reports drift without failing.
    ``tol`` absorbs small-ladder fitting noise on the timed series;
    work-counter exponents are exact and drift only on real algorithm
    changes.
    """
    validate_profile(baseline)
    validate_profile(current)
    drifts: List[str] = []
    base = _exponent_map(baseline)
    cur = _exponent_map(current)
    base_shape = (baseline.get("sweep") or {}).get("shape")
    cur_shape = (current.get("sweep") or {}).get("shape")
    if base_shape != cur_shape:
        return [
            f"sweep shapes differ (baseline {base_shape!r}, current "
            f"{cur_shape!r}); exponents are not comparable"
        ]
    for key in sorted(set(base) & set(cur)):
        delta = cur[key] - base[key]
        if abs(delta) > tol:
            drifts.append(
                f"{key}: exponent {base[key]:+.2f} -> {cur[key]:+.2f} "
                f"(drift {delta:+.2f}, tol {tol:.2f})"
            )
    for key in sorted(set(base) - set(cur)):
        drifts.append(f"{key}: exponent disappeared (was {base[key]:+.2f})")
    return drifts


# ----------------------------------------------------------------------
# IO helpers
# ----------------------------------------------------------------------
def write_profile(path: str, doc: dict) -> None:
    """Write a validated profile document as pretty JSON."""
    doccheck.write_json(path, validate_profile(doc), newline=True)


def load_profile(path: str) -> dict:
    return doccheck.load_json(path, validate_profile)
