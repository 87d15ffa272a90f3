"""Layer probes: spans recorded from the bench around each layer's entry.

The program has no bench-facing tracing of its own, so a traced run wraps,
from these files, the public function through which each layer is entered
and records one span per call: layer name, start, end, parent span (on the
same thread) and the operation it belongs to.  A layer's self time is its
span's duration minus the time its direct child spans cover.

Every wrap target lives in :data:`PROBES`.  A target is named where it is
defined; installing a probe also rebinds every ``repro.*`` module attribute
that holds the same object, so callers that imported the name directly
(``from repro.core.app_tile import application_tile``) see the wrapper too.
A renamed or removed target makes :func:`resolve` raise, so a layer can
never drop out of the trace silently.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Probe:
    """One wrap target: ``layer`` is the span name, ``target`` is
    ``module:qualname``.  ``count`` maps the call's result to an integer
    recorded on the span (blocks traced, store hit)."""

    layer: str
    target: str
    count: Optional[Callable[[Any], int]] = None


#: The layer each probe reports under.  ``experiments.fig5`` is the root
#: of a Figure 5 iteration: its self time is the glue no other probe
#: covers.  ``serve.request`` spans the service call of one request.
PROBES: Tuple[Probe, ...] = (
    Probe("experiments.fig5", "repro.experiments.fig5:run_fig5"),
    Probe(
        "analyzer.trace",
        "repro.analyzer.instrument:run_instrumented",
        count=lambda run: run.total_blocks,
    ),
    Probe("analyzer.block_graph", "repro.analyzer.dependency:build_block_graph"),
    Probe("analyzer.mem_lines", "repro.analyzer.footprint:BlockMemoryLines.from_trace"),
    Probe("core.profile", "repro.core.profiler:KernelProfiler.profile_combo"),
    Probe("core.weights", "repro.core.weights:compute_edge_weights"),
    Probe("core.tile", "repro.core.app_tile:application_tile"),
    Probe("core.validate", "repro.core.schedule:Schedule.validate"),
    Probe("runtime.replay", "repro.runtime.launcher:tally_schedule"),
    Probe("runtime.measure", "repro.runtime.launcher:measure_at"),
    Probe(
        "store.get",
        "repro.store.store:ArtifactStore.get",
        count=lambda payload: payload is not None,
    ),
    Probe("store.put", "repro.store.store:ArtifactStore.put"),
    *(
        Probe("store.decode", f"repro.store.artifacts:{kind}_from_dict")
        for kind in ("instrumented_run", "block_graph", "profile",
                     "tiling_result", "schedule_tallies")
    ),
    *(
        Probe("store.encode", f"repro.store.artifacts:{kind}_to_dict")
        for kind in ("instrumented_run", "block_graph", "profile",
                     "tiling_result", "schedule_tallies")
    ),
    Probe("serve.request", "repro.serve.service:PlanService.plan"),
    Probe("serve.request", "repro.serve.service:PlanService.explain"),
    Probe("serve.parse", "repro.serve.wire:parse_plan_request"),
    Probe("serve.fingerprint", "repro.serve.wire:plan_fingerprint"),
    Probe("serve.audit", "repro.obs.audit:audit_schedule"),
)

#: Where a span learns the id of the request it runs for when it is not
#: the request span itself: the service's request context, which the
#: planner pool re-enters on its own threads.
REQUEST_ID_SOURCE = "repro.obs.ops:current_request_id"

ROOT_LAYER = "experiments.fig5"
LAYERS = tuple(dict.fromkeys(probe.layer for probe in PROBES))


def _split(target: str) -> Tuple[str, List[str]]:
    module, _, qualname = target.partition(":")
    return module, qualname.split(".")


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a ``module:qualname`` target.

    For a class attribute the owner is the class that defines it and the
    raw value is the one in its ``__dict__`` (a ``classmethod`` stays a
    ``classmethod``).  Raises ``ImportError`` or ``AttributeError`` when
    the target is gone.
    """
    module_name, parts = _split(target)
    owner: Any = importlib.import_module(module_name)
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in vars(klass):
                return klass, name, vars(klass)[name]
        raise AttributeError(f"{target}: no attribute {name!r}")
    return owner, name, getattr(owner, name)


def target_callable(target: str) -> Callable:
    """The plain function behind a target (unwrapping classmethods)."""
    _, _, raw = resolve(target)
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class SpanRecorder:
    """Thread-aware span store; spans stay in memory until written."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        #: The bench sets this to the id of the operation being timed;
        #: spans with no request id of their own are filed under it.
        self.op: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._request_id: Callable[[], Optional[str]] = target_callable(
            REQUEST_ID_SOURCE
        )

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            stack = recorder._stack()
            span = {
                "id": next(recorder._ids),
                "parent": stack[-1] if stack else None,
                "rid": kwargs.get("request_id") or recorder._request_id() or recorder.op,
            }
            stack.append(span["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(probe, span, start)
                raise
            if probe.count is not None:
                span["count"] = int(probe.count(result))
            recorder._close(probe, span, start)
            return result

        return probed

    def _close(self, probe: Probe, span: Dict[str, Any], start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.events.append({
            "name": probe.layer,
            "cat": probe.layer.split(".")[0],
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "args": span,
        })

    def install(self) -> "SpanRecorder":
        """Wrap every probe target and every ``repro.*`` alias of it."""
        originals = []
        for probe in PROBES:
            owner, name, raw = resolve(probe.target)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(probe, raw.__func__))
            else:
                wrapped = self.wrap(probe, raw)
            originals.append((raw, wrapped))
            self._patch(owner, name, wrapped)
        functions = {id(raw): wrapped for raw, wrapped in originals
                     if not isinstance(raw, (classmethod, staticmethod))}
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = functions.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._patch(module, attr, wrapped)
        return self

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def write(self, path: str) -> None:
        """Write the spans as a Chrome-trace JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, fh)


def read_events(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["traceEvents"]


def self_times(events: Iterable[Dict[str, Any]]) -> List[Tuple[Dict[str, Any], float]]:
    """Each span with its self time in seconds (duration minus children)."""
    events = list(events)
    covered: Dict[Tuple[int, int], float] = defaultdict(float)
    for event in events:
        parent = event["args"]["parent"]
        if parent is not None:
            covered[(event["pid"], parent)] += event["dur"]
    return [
        (event, (event["dur"] - covered[(event["pid"], event["args"]["id"])]) / 1e6)
        for event in events
    ]


@dataclass
class LayerTotals:
    """Per-layer sums over a set of operations."""

    self_s: Dict[str, float]
    total_s: Dict[str, float]
    calls: Dict[str, int]
    counts: Dict[str, int]
    by_rid_total_s: Dict[Tuple[str, str], float]


def layer_totals(events: Iterable[Dict[str, Any]], rids: Set[str]) -> LayerTotals:
    """Sum self time, inclusive time, calls and counts per layer over the
    spans of the operations in ``rids``."""
    totals = LayerTotals(
        defaultdict(float), defaultdict(float), defaultdict(int),
        defaultdict(int), defaultdict(float),
    )
    for event, self_s in self_times(events):
        rid = event["args"]["rid"]
        if rid not in rids:
            continue
        layer = event["name"]
        totals.self_s[layer] += self_s
        totals.total_s[layer] += event["dur"] / 1e6
        totals.calls[layer] += 1
        totals.counts[layer] += event["args"].get("count", 0)
        totals.by_rid_total_s[(rid, layer)] += event["dur"] / 1e6
    return totals
