"""Miss attribution and schedule auditing (the cache-introspection layer).

KTILER's edge weights predict "time saved if this producer→consumer
edge is served from L2" (paper §IV-C), but the simulator only reports
aggregate hit rates — nothing says *which* misses the tiled schedule
eliminated or where the prediction diverges from the replayed timeline.
This module closes that loop in three pieces:

* :class:`MissAttributor` — an opt-in observer the L2 feeds
  (``cache.attach_attribution(attr)``).  Every recorded access is
  classified through an exact LRU stack-distance (Mattson) computation:
  **cold** (first touch since the last flush), **capacity** (reuse
  distance >= the cache's line capacity — a fully-associative cache of
  the same size would miss too) or **conflict** (distance < capacity
  but missed anyway — a set-mapping artifact).  The three classes
  partition the misses exactly.  Accesses are tagged with the producing
  kernel/launch and the buffer (graph intermediate) they touch via a
  line-interval table over :mod:`repro.graph.buffers` allocations, and
  per-(kernel, buffer) reuse-distance histograms accumulate on the
  side.  Attribution is *passive*: with an attributor attached the
  replay is bit-identical to one without (the differential suite
  enforces this), and the attributor never mutates cache state.

* :func:`audit_schedule` — replays the default and the tiled schedule
  of a :class:`~repro.core.ktiler.KTiler` with attribution on and joins
  the actual per-edge hit deltas against the
  :func:`~repro.core.weights.compute_edge_weights` predictions.  The
  per-hit saving mirrors the simulator's hidden-latency model:
  ``(miss_latency - l2_hit_latency) / hide`` core cycles, with ``hide``
  the consumer's resident-warp MLP factor (see
  :func:`repro.gpusim.executor.time_launch`).  Results surface as
  ``audit.*`` metrics in the tracer's
  :class:`~repro.obs.counters.CounterRegistry` and as per-buffer L2
  occupancy counter tracks in the Chrome trace.

* :func:`render_html` / :func:`validate_audit` — a self-contained HTML
  report and the JSON schema check behind ``ktiler explain`` and the CI
  smoke job.

Overhead note: attribution drives a per-access Python loop (the stack
distance is inherently sequential), so an attributed replay is far
slower than a plain one.  It is opt-in per cache instance and never
attached on the measurement paths.
"""

from __future__ import annotations

import html
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gpusim.dram import DramModel
from repro.gpusim.freq import FrequencyConfig, NOMINAL
from repro.obs import doccheck
from repro.obs.pages import page
from repro.obs.tracer import NULL_TRACER

#: Miss classes, in partition order.
MISS_CLASSES = ("cold", "capacity", "conflict")

#: Version stamp of the ``ktiler explain`` JSON payload.
AUDIT_SCHEMA_VERSION = 1

#: Buffer label for lines outside every known allocation.
UNMAPPED = "(unmapped)"


class _Fenwick:
    """Growable 1-indexed Fenwick (binary-indexed) tree of ints."""

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = [0]  # index 0 unused

    def append_zero(self) -> None:
        """Extend the domain by one position holding 0.

        A new node ``i`` covers ``(i - lowbit(i), i]``, so its initial
        value is the sum of the already-present sub-ranges in that
        window — O(log n), no rebuild.
        """
        tree = self._tree
        i = len(tree)
        stop = i - (i & -i)
        total = 0
        j = i - 1
        while j > stop:
            total += tree[j]
            j -= j & -j
        tree.append(total)

    def add(self, i: int, delta: int) -> None:
        tree = self._tree
        n = len(tree) - 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


class ReuseDistanceTracker:
    """Exact LRU stack distances over a line-id access stream.

    The classic Mattson construction: keep each line's latest access
    position marked in a Fenwick tree; the reuse distance of an access
    is the number of *distinct* other lines touched since the previous
    access to the same line — the count of marks strictly between the
    two positions.  A fully-associative LRU cache of capacity ``C``
    hits exactly when the distance is ``< C``, which is what makes the
    capacity/conflict split principled.
    """

    def __init__(self) -> None:
        self._fen = _Fenwick()
        self._last: Dict[int, int] = {}
        self._t = 0

    def observe(self, line: int) -> Optional[int]:
        """Record one access; returns its reuse distance (None = first touch)."""
        t = self._t + 1
        self._t = t
        fen = self._fen
        fen.append_zero()
        prev = self._last.get(line)
        if prev is None:
            dist = None
        else:
            dist = fen.prefix(t - 1) - fen.prefix(prev)
            fen.add(prev, -1)
        fen.add(t, 1)
        self._last[line] = t
        return dist

    def reset(self) -> None:
        """Forget all history (e.g. after a cache flush)."""
        self._fen = _Fenwick()
        self._last.clear()
        self._t = 0


class MissAttributor:
    """Passive per-access observer the L2 feeds when attached.

    Parameters
    ----------
    buffers:
        Allocated :class:`~repro.graph.buffers.Buffer` objects whose
        line intervals tag accesses with the intermediate they belong
        to (buffers never share a line — the allocator line-aligns).
    line_shift:
        ``log2(line_bytes)`` of the device (maps buffers to line ids).
    capacity_lines:
        The attributed cache's total line capacity (the
        capacity-vs-conflict threshold).
    """

    def __init__(self, buffers, line_shift: int, capacity_lines: int):
        intervals: List[Tuple[int, int, str]] = []
        for buf in buffers:
            lines = buf.lines(line_shift)
            intervals.append((lines.start, lines.stop, buf.name))
        intervals.sort()
        self._starts = [iv[0] for iv in intervals]
        self._stops = [iv[1] for iv in intervals]
        self._names = [iv[2] for iv in intervals]
        self.line_bytes = 1 << line_shift
        self.capacity_lines = capacity_lines
        self._rd = ReuseDistanceTracker()
        self._pending: Optional[Tuple[Optional[int], Optional[str]]] = None
        self._kernel = "?"
        self._node: Optional[int] = None
        #: (kernel, buffer) -> [cold, capacity, conflict] miss counts.
        self.class_counts: Dict[Tuple[str, str], List[int]] = {}
        #: (kernel, buffer) -> {bucket: count}; bucket is the power-of-2
        #: upper bound of the reuse distance ("cold" for first touches).
        self.histograms: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: (node_id, buffer) -> hit / miss counts (node None = untagged).
        self.node_buffer_hits: Dict[Tuple[Optional[int], str], int] = {}
        self.node_buffer_misses: Dict[Tuple[Optional[int], str], int] = {}
        #: kernel -> [hits, misses].
        self.kernel_totals: Dict[str, List[int]] = {}
        self.total_hits = 0
        self.total_misses = 0

    # ------------------------------------------------------------------
    # Launch context
    # ------------------------------------------------------------------
    def expect_launch(self, node_id: int, label: str) -> None:
        """Pre-tag the next ``begin_launch`` with a graph node context."""
        self._pending = (node_id, label)

    def begin_launch(self, kernel_name: str, num_blocks: int = 0) -> None:
        """Open a launch context (called by the simulator's tally path)."""
        node_id, _label = self._pending or (None, None)
        self._pending = None
        self._kernel = kernel_name
        self._node = node_id

    def on_flush(self) -> None:
        """Cache invalidated: subsequent first touches are cold again."""
        self._rd.reset()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def buffer_of(self, line: int) -> str:
        """Name of the buffer owning ``line`` (:data:`UNMAPPED` if none)."""
        idx = bisect_right(self._starts, line) - 1
        if idx >= 0 and line < self._stops[idx]:
            return self._names[idx]
        return UNMAPPED

    def observe(self, line: int, is_write: bool, hit: bool) -> None:
        """Record one access outcome (never mutates cache state)."""
        dist = self._rd.observe(line)
        buf = self.buffer_of(line)
        kernel = self._kernel
        hist_key = (kernel, buf)
        hist = self.histograms.get(hist_key)
        if hist is None:
            hist = self.histograms[hist_key] = {}
        bucket = "cold" if dist is None else str(1 << dist.bit_length())
        hist[bucket] = hist.get(bucket, 0) + 1
        totals = self.kernel_totals.get(kernel)
        if totals is None:
            totals = self.kernel_totals[kernel] = [0, 0]
        nb_key = (self._node, buf)
        if hit:
            totals[0] += 1
            self.total_hits += 1
            self.node_buffer_hits[nb_key] = self.node_buffer_hits.get(nb_key, 0) + 1
            return
        totals[1] += 1
        self.total_misses += 1
        self.node_buffer_misses[nb_key] = self.node_buffer_misses.get(nb_key, 0) + 1
        counts = self.class_counts.get(hist_key)
        if counts is None:
            counts = self.class_counts[hist_key] = [0, 0, 0]
        if dist is None:
            counts[0] += 1
        elif dist >= self.capacity_lines:
            counts[1] += 1
        else:
            counts[2] += 1

    def observe_batch(self, lines, writes, hit_mask) -> None:
        """Vectorized-replay entry point: arrays of one batch, in order."""
        observe = self.observe
        if writes is None:
            for line, hit in zip(lines.tolist(), hit_mask.tolist()):
                observe(line, False, hit)
        else:
            for line, w, hit in zip(
                lines.tolist(), writes.tolist(), hit_mask.tolist()
            ):
                observe(line, w, hit)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return self.total_hits + self.total_misses

    def miss_class_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-kernel miss-class breakdown: kernel -> {class: count}."""
        out: Dict[str, Dict[str, int]] = {}
        for (kernel, _buf), counts in self.class_counts.items():
            agg = out.setdefault(kernel, dict.fromkeys(MISS_CLASSES, 0))
            for cls, n in zip(MISS_CLASSES, counts):
                agg[cls] += n
        return out

    def occupancy_bytes(self, cache) -> Dict[str, int]:
        """Resident L2 bytes per buffer, right now."""
        counts: Dict[str, int] = {}
        buffer_of = self.buffer_of
        for line in cache.resident_lines():
            name = buffer_of(line)
            counts[name] = counts.get(name, 0) + 1
        line_bytes = self.line_bytes
        return {name: n * line_bytes for name, n in sorted(counts.items())}


def graph_buffers(graph) -> List[object]:
    """Unique allocated buffers referenced by a kernel graph, by name."""
    seen: Dict[str, object] = {}
    for node in graph.nodes:
        for buf in (*node.kernel.inputs, *node.kernel.outputs):
            if buf.allocated:
                seen.setdefault(buf.name, buf)
    return list(seen.values())


# ----------------------------------------------------------------------
# Schedule auditing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeAudit:
    """Predicted vs. actual saving of one data edge.

    ``decision_seq`` / ``decision_outcome`` / ``decision_reason`` link
    the edge to the decision-ledger entry that settled it (see
    :meth:`~repro.obs.decisions.DecisionLedger.decisive_entries`), so
    the audit's error columns and the planner's provenance read as one
    report.  ``None`` when the plan carries no ledger (legacy payloads).
    """

    src: int
    dst: int
    src_name: str
    dst_name: str
    buffer: str
    predicted_saving_us: float
    actual_saving_us: float
    default_hits: int
    tiled_hits: int
    decision_seq: Optional[int] = None
    decision_outcome: Optional[str] = None
    decision_reason: Optional[str] = None

    @property
    def hit_delta(self) -> int:
        return self.tiled_hits - self.default_hits

    @property
    def error_abs_us(self) -> float:
        return self.actual_saving_us - self.predicted_saving_us

    @property
    def error_rel(self) -> Optional[float]:
        if self.predicted_saving_us == 0.0:
            return None
        return self.error_abs_us / self.predicted_saving_us

    def as_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "src_name": self.src_name,
            "dst_name": self.dst_name,
            "buffer": self.buffer,
            "predicted_saving_us": self.predicted_saving_us,
            "actual_saving_us": self.actual_saving_us,
            "default_hits": self.default_hits,
            "tiled_hits": self.tiled_hits,
            "hit_delta": self.hit_delta,
            "error_abs_us": self.error_abs_us,
            "error_rel": self.error_rel,
            "decision_seq": self.decision_seq,
            "decision_outcome": self.decision_outcome,
            "decision_reason": self.decision_reason,
        }


@dataclass
class _ReplayAudit:
    """One attributed schedule replay."""

    schedule_name: str
    attributor: MissAttributor
    total_us: float
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ScheduleAudit:
    """The joined default-vs-tiled attribution of one operating point."""

    freq: FrequencyConfig
    default: _ReplayAudit
    tiled: _ReplayAudit
    edges: List[EdgeAudit]
    #: Decision-ledger block: digest, summary, and the decisive entries
    #: the edge rows link to.  ``None`` for plans without a ledger.
    ledger: Optional[dict] = None

    @property
    def gain(self) -> float:
        if self.default.total_us == 0.0:
            return 0.0
        return 1.0 - self.tiled.total_us / self.default.total_us

    @property
    def predicted_total_saving_us(self) -> float:
        return sum(e.predicted_saving_us for e in self.edges)

    @property
    def actual_total_saving_us(self) -> float:
        return sum(e.actual_saving_us for e in self.edges)

    def _kernel_rows(self) -> List[dict]:
        rows: List[dict] = []
        for replay in (self.default, self.tiled):
            attr = replay.attributor
            classes = attr.miss_class_totals()
            for kernel in sorted(attr.kernel_totals):
                hits, misses = attr.kernel_totals[kernel]
                cls = classes.get(kernel, dict.fromkeys(MISS_CLASSES, 0))
                rows.append(
                    {
                        "schedule": replay.schedule_name,
                        "kernel": kernel,
                        "accesses": hits + misses,
                        "hits": hits,
                        "misses": misses,
                        **{c: cls[c] for c in MISS_CLASSES},
                    }
                )
        return rows

    def _histogram_rows(self) -> List[dict]:
        rows: List[dict] = []
        for replay in (self.default, self.tiled):
            for (kernel, buf), hist in sorted(
                replay.attributor.histograms.items()
            ):
                buckets = {
                    k: v for k, v in sorted(
                        hist.items(),
                        key=lambda kv: -1 if kv[0] == "cold" else int(kv[0]),
                    )
                    if k != "cold"
                }
                rows.append(
                    {
                        "schedule": replay.schedule_name,
                        "kernel": kernel,
                        "buffer": buf,
                        "cold": hist.get("cold", 0),
                        "buckets": buckets,
                    }
                )
        return rows

    def to_json_dict(self, preset: str = "custom") -> dict:
        payload = {
            "schema_version": AUDIT_SCHEMA_VERSION,
            "preset": preset,
            "freq": self.freq.label,
            "summary": {
                "default_total_us": self.default.total_us,
                "tiled_total_us": self.tiled.total_us,
                "gain": self.gain,
                "default_hit_rate": self.default.hit_rate,
                "tiled_hit_rate": self.tiled.hit_rate,
                "predicted_total_saving_us": self.predicted_total_saving_us,
                "actual_total_saving_us": self.actual_total_saving_us,
            },
            "edges": [e.as_dict() for e in self.edges],
            "kernels": self._kernel_rows(),
            "reuse_histograms": self._histogram_rows(),
        }
        if self.ledger is not None:
            payload["ledger"] = self.ledger
        return payload

    def format_table(self) -> str:
        lines = [
            f"audit @ {self.freq.label}: "
            f"default {self.default.total_us / 1e3:.2f}ms -> "
            f"tiled {self.tiled.total_us / 1e3:.2f}ms "
            f"({self.gain * 100:+.1f}%)",
            f"  L2 hit rate: {self.default.hit_rate:.3f} -> "
            f"{self.tiled.hit_rate:.3f}",
            f"  {'edge':<38} {'predicted':>10} {'actual':>10} {'error':>9}",
        ]
        for e in sorted(self.edges, key=lambda e: -e.predicted_saving_us):
            name = f"{e.src_name}->{e.dst_name}[{e.buffer}]"
            rel = f"{e.error_rel * 100:+.0f}%" if e.error_rel is not None else "n/a"
            lines.append(
                f"  {name:<38} {e.predicted_saving_us:>8.1f}us "
                f"{e.actual_saving_us:>8.1f}us {rel:>9}"
            )
        for row in self._kernel_rows():
            if row["schedule"] != self.tiled.schedule_name:
                continue
            lines.append(
                f"  misses[{row['kernel']}]: {row['misses']} = "
                f"{row['cold']} cold + {row['capacity']} capacity + "
                f"{row['conflict']} conflict"
            )
        return "\n".join(lines)


def _per_hit_saving_us(kernel, spec, dram, freq: FrequencyConfig) -> float:
    """Time one extra L2 hit saves the consumer, hidden-latency model."""
    from repro.gpusim.executor import MLP_PER_WARP

    resident = spec.resident_warps(kernel.threads_per_block, kernel.num_blocks)
    hide = max(1.0, resident * MLP_PER_WARP)
    cycles = (dram.miss_latency_cycles(freq) - spec.l2_hit_latency_cycles) / hide
    return freq.cycles_to_us(cycles)


def _audited_replay(
    schedule,
    graph,
    spec,
    freq: FrequencyConfig,
    buffers,
    launch_gap_us: float,
    tracer,
) -> _ReplayAudit:
    """Replay one schedule on a fresh simulator with attribution on."""
    from repro.gpusim.executor import GpuSimulator

    sim = GpuSimulator(spec, freq=freq)
    attr = MissAttributor(buffers, spec.line_shift, sim.l2.capacity_lines)
    sim.l2.attach_attribution(attr)
    total_us = 0.0
    trace_on = tracer.enabled
    for i, sub in enumerate(schedule):
        node = graph.node(sub.node_id)
        attr.expect_launch(sub.node_id, sub.label or node.name)
        result = sim.launch(node.kernel, sub.blocks)
        if i:
            total_us += launch_gap_us
        total_us += result.time_us
        if trace_on:
            tracer.sim_counter(
                f"l2_buffers.{schedule.name}",
                ts_us=total_us,
                values=attr.occupancy_bytes(sim.l2),
                cat="audit",
            )
    stats = sim.l2.stats
    return _ReplayAudit(
        schedule_name=schedule.name,
        attributor=attr,
        total_us=total_us,
        hits=stats.hits,
        misses=stats.misses,
    )


def audit_schedule(
    ktiler,
    freq: FrequencyConfig = NOMINAL,
    tracer=None,
    launch_gap_us: Optional[float] = None,
) -> ScheduleAudit:
    """Replay default vs. tiled with attribution and join the predictions.

    Per data edge ``src -> dst [buffer]``, the *actual* saving is the
    consumer's L2 hit delta on that buffer (tiled minus default) times
    the per-hit hidden-latency saving; the *predicted* saving is the
    scheduler's edge weight.  ``tracer`` defaults to the KTiler's own;
    with tracing on, ``audit.*`` metrics and per-buffer L2 occupancy
    counter tracks are emitted.
    """
    if tracer is None:
        tracer = getattr(ktiler, "tracer", NULL_TRACER)
    graph = ktiler.graph
    spec = ktiler.spec
    gap = spec.launch_gap_us if launch_gap_us is None else launch_gap_us
    buffers = graph_buffers(graph)
    weights = ktiler.edge_weights(freq)
    plan = ktiler.plan(freq)

    with tracer.span("audit.replay", cat="replay", freq=freq.label):
        default = _audited_replay(
            ktiler.default_schedule(), graph, spec, freq, buffers, gap, tracer,
        )
        tiled = _audited_replay(
            plan.schedule, graph, spec, freq, buffers, gap, tracer,
        )

    dram = DramModel.from_spec(spec)
    decisive = plan.ledger.decisive_entries()
    edges: List[EdgeAudit] = []
    for edge in graph.data_edges():
        dst_node = graph.node(edge.dst)
        per_hit = _per_hit_saving_us(dst_node.kernel, spec, dram, freq)
        key = (edge.dst, edge.buffer.name)
        default_hits = default.attributor.node_buffer_hits.get(key, 0)
        tiled_hits = tiled.attributor.node_buffer_hits.get(key, 0)
        decision = decisive.get((edge.src, edge.dst, edge.buffer.name))
        edges.append(
            EdgeAudit(
                src=edge.src,
                dst=edge.dst,
                src_name=graph.node(edge.src).name,
                dst_name=dst_node.name,
                buffer=edge.buffer.name,
                predicted_saving_us=weights.weight(edge),
                actual_saving_us=(tiled_hits - default_hits) * per_hit,
                default_hits=default_hits,
                tiled_hits=tiled_hits,
                decision_seq=None if decision is None else decision["seq"],
                decision_outcome=(
                    None if decision is None else decision["outcome"]
                ),
                decision_reason=(
                    None if decision is None else decision["reason"]
                ),
            )
        )
    edges.sort(key=lambda e: (-e.predicted_saving_us, e.src, e.dst))

    ledger_block = None
    if plan.ledger.entries:
        ledger_block = {
            "digest": plan.ledger.digest(),
            "summary": plan.ledger.summary(),
            "entries": sorted(decisive.values(), key=lambda e: e["seq"]),
        }
    audit = ScheduleAudit(
        freq=freq, default=default, tiled=tiled,
        edges=edges, ledger=ledger_block,
    )
    if tracer.enabled:
        m = tracer.metrics
        for e in edges:
            labels = dict(src=e.src_name, dst=e.dst_name, buffer=e.buffer)
            m.set_gauge("audit.edge.predicted_us", e.predicted_saving_us, **labels)
            m.set_gauge("audit.edge.actual_us", e.actual_saving_us, **labels)
            m.set_gauge("audit.edge.error_abs_us", e.error_abs_us, **labels)
            if e.error_rel is not None:
                m.set_gauge("audit.edge.error_rel", e.error_rel, **labels)
        for row in audit._kernel_rows():
            for cls in MISS_CLASSES:
                m.inc(
                    f"audit.miss.{cls}", row[cls],
                    schedule=row["schedule"], kernel=row["kernel"],
                )
        m.set_gauge("audit.predicted_total_saving_us",
                    audit.predicted_total_saving_us, freq=freq.label)
        m.set_gauge("audit.actual_total_saving_us",
                    audit.actual_total_saving_us, freq=freq.label)
    return audit


# ----------------------------------------------------------------------
# JSON schema check + HTML report
# ----------------------------------------------------------------------
_SUMMARY_KEYS = (
    "default_total_us", "tiled_total_us", "gain", "default_hit_rate",
    "tiled_hit_rate", "predicted_total_saving_us", "actual_total_saving_us",
)
_EDGE_KEYS = (
    "src", "dst", "src_name", "dst_name", "buffer", "predicted_saving_us",
    "actual_saving_us", "default_hits", "tiled_hits", "hit_delta",
    "error_abs_us", "error_rel",
)
_KERNEL_KEYS = ("schedule", "kernel", "accesses", "hits", "misses") + MISS_CLASSES
_HIST_KEYS = ("schedule", "kernel", "buffer", "cold", "buckets")


_DOC = "audit payload"


def validate_audit(payload: dict) -> dict:
    """Check an audit JSON payload against the documented schema.

    Raises :class:`ValueError` on the first violation; returns the
    payload unchanged on success (so it chains).  This is the check the
    CI ``explain-smoke`` job and the CLI smoke test both run.
    """
    doccheck.header(payload, _DOC, AUDIT_SCHEMA_VERSION)
    for key in ("preset", "freq"):
        doccheck.require(
            isinstance(payload.get(key), str), _DOC, f"missing string '{key}'"
        )
    summary = doccheck.section(payload, "summary", _DOC)
    doccheck.numbers(summary, _SUMMARY_KEYS, _DOC, "summary")
    for i, e in enumerate(doccheck.rows(payload, "edges", _DOC, _EDGE_KEYS)):
        if e["hit_delta"] != e["tiled_hits"] - e["default_hits"]:
            doccheck.fail(_DOC, f"edges[{i}] hit_delta inconsistent")
    kernels = doccheck.rows(
        payload, "kernels", _DOC, _KERNEL_KEYS, nonempty=True
    )
    for i, row in enumerate(kernels):
        if row["cold"] + row["capacity"] + row["conflict"] != row["misses"]:
            doccheck.fail(
                _DOC, f"kernels[{i}] miss classes do not partition misses"
            )
        if row["hits"] + row["misses"] != row["accesses"]:
            doccheck.fail(_DOC, f"kernels[{i}] hits+misses != accesses")
    hists = doccheck.rows(payload, "reuse_histograms", _DOC, _HIST_KEYS)
    for i, row in enumerate(hists):
        doccheck.keys(row["buckets"], (), _DOC, f"reuse_histograms[{i}].buckets")
    # Optional, additive: audits of plans that carry a decision ledger
    # embed its decisive entries so edge rows can link to the decision
    # that created (or rejected) them.
    ledger = doccheck.section(
        payload, "ledger", _DOC, ("digest", "summary", "entries"),
        optional=True,
    )
    if ledger is not None:
        doccheck.require(
            isinstance(ledger["entries"], list),
            _DOC, "ledger.entries is not a list",
        )
    return payload


_AUDIT_STYLE = """
.bar { background: #4a90d9; height: 0.8em; display: inline-block;
       min-width: 1px; vertical-align: middle; }
"""


def _fmt_us(value: float) -> str:
    return f"{value:.1f}"


def render_html(payload: dict) -> str:
    """Self-contained HTML report of a (validated) audit payload."""
    esc = html.escape
    summary = payload["summary"]
    parts = [
        f"<h1>ktiler explain — preset <code>{esc(payload['preset'])}</code>"
        f" @ {esc(payload['freq'])}</h1>",
        "<p class='summary'>"
        f"default {summary['default_total_us'] / 1e3:.2f} ms &rarr; "
        f"tiled {summary['tiled_total_us'] / 1e3:.2f} ms "
        f"(gain {summary['gain'] * 100:+.1f}%) &middot; "
        f"L2 hit rate {summary['default_hit_rate']:.3f} &rarr; "
        f"{summary['tiled_hit_rate']:.3f} &middot; "
        f"predicted saving {_fmt_us(summary['predicted_total_saving_us'])} us, "
        f"actual {_fmt_us(summary['actual_total_saving_us'])} us</p>",
        "<h2>Edges: predicted vs. actual saving</h2>",
        "<table><tr><th class='name'>edge</th><th>predicted (us)</th>"
        "<th>actual (us)</th><th>default hits</th><th>tiled hits</th>"
        "<th>&Delta; hits</th><th>error</th>"
        "<th class='name'>decision</th></tr>",
    ]
    for e in payload["edges"]:
        rel = e["error_rel"]
        rel_s = f"{rel * 100:+.0f}%" if rel is not None else "n/a"
        cls = " class='neg'" if e["actual_saving_us"] < 0 else ""
        seq = e.get("decision_seq")
        if seq is None:
            decision_s = "&mdash;"
        else:
            # Anchored to the ledger section below: provenance one
            # click from the error column.
            decision_s = (
                f"<a href='#ledger-{seq}'>#{seq} "
                f"{esc(str(e.get('decision_outcome')))}</a>"
            )
        parts.append(
            f"<tr><td class='name'>{esc(e['src_name'])} &rarr; "
            f"{esc(e['dst_name'])} <code>[{esc(e['buffer'])}]</code></td>"
            f"<td>{_fmt_us(e['predicted_saving_us'])}</td>"
            f"<td{cls}>{_fmt_us(e['actual_saving_us'])}</td>"
            f"<td>{e['default_hits']}</td><td>{e['tiled_hits']}</td>"
            f"<td>{e['hit_delta']}</td><td>{rel_s}</td>"
            f"<td class='name'>{decision_s}</td></tr>"
        )
    parts.append("</table><h2>Miss classes per kernel</h2>")
    parts.append(
        "<table><tr><th class='name'>schedule</th><th class='name'>kernel</th>"
        "<th>accesses</th><th>hits</th><th>misses</th><th>cold</th>"
        "<th>capacity</th><th>conflict</th></tr>"
    )
    for row in payload["kernels"]:
        parts.append(
            f"<tr><td class='name'>{esc(row['schedule'])}</td>"
            f"<td class='name'>{esc(row['kernel'])}</td>"
            f"<td>{row['accesses']}</td><td>{row['hits']}</td>"
            f"<td>{row['misses']}</td><td>{row['cold']}</td>"
            f"<td>{row['capacity']}</td><td>{row['conflict']}</td></tr>"
        )
    parts.append("</table><h2>Reuse-distance histograms</h2>")
    for row in payload["reuse_histograms"]:
        buckets = row["buckets"]
        total = row["cold"] + sum(buckets.values())
        if not total:
            continue
        parts.append(
            f"<h3><code>{esc(row['schedule'])}</code> / "
            f"{esc(row['kernel'])} / <code>{esc(row['buffer'])}</code></h3>"
            "<table><tr><th class='name'>reuse distance</th><th>accesses</th>"
            "<th class='name' style='width:50%'>share</th></tr>"
        )
        rows = [("cold (first touch)", row["cold"])] + [
            (f"&lt; {bound}", count)
            for bound, count in sorted(
                buckets.items(), key=lambda kv: int(kv[0])
            )
        ]
        for label, count in rows:
            if not count:
                continue
            pct = 100.0 * count / total
            parts.append(
                f"<tr><td class='name'>{label}</td><td>{count}</td>"
                f"<td class='name'><span class='bar' "
                f"style='width:{pct:.1f}%'></span> {pct:.1f}%</td></tr>"
            )
        parts.append("</table>")
    ledger = payload.get("ledger")
    if ledger is not None:
        summary = ledger["summary"]
        parts.append(
            "<h2>Decision ledger (decisive entries)</h2>"
            "<p class='summary'>"
            f"{summary.get('entries', 0)} entries recorded &middot; "
            f"{summary.get('adopted', 0)} adopted, "
            f"{summary.get('rejected', 0)} rejected, "
            f"{summary.get('invalid', 0)} invalid, "
            f"{summary.get('excluded', 0)} excluded &middot; "
            f"digest <code>{esc(str(ledger['digest'])[:12])}…</code></p>"
            "<table><tr><th>#</th><th class='name'>edge</th>"
            "<th>weight (us)</th><th class='name'>outcome</th>"
            "<th class='name'>reason</th><th>combined (us)</th>"
            "<th>tiled (us)</th></tr>"
        )
        for entry in ledger["entries"]:
            combined = entry.get("combined_cost_us")
            tiled_cost = entry.get("tiled_cost_us")
            parts.append(
                f"<tr id='ledger-{entry['seq']}'><td>{entry['seq']}</td>"
                f"<td class='name'>{entry['src']} &rarr; {entry['dst']} "
                f"<code>[{esc(str(entry['buffer']))}]</code></td>"
                f"<td>{entry['weight_us']}</td>"
                f"<td class='name'>{esc(str(entry['outcome']))}</td>"
                f"<td class='name'>{esc(str(entry['reason']))}</td>"
                f"<td>{'&mdash;' if combined is None else combined}</td>"
                f"<td>{'&mdash;' if tiled_cost is None else tiled_cost}</td>"
                "</tr>"
            )
        parts.append("</table>")
    return page(
        f"ktiler explain — {payload['preset']}", "".join(parts),
        css=_AUDIT_STYLE,
    )


def write_audit(
    audit: ScheduleAudit,
    json_path: Optional[str] = None,
    html_path: Optional[str] = None,
    preset: str = "custom",
) -> dict:
    """Write the JSON (and optional HTML) artifacts; returns the payload."""
    payload = validate_audit(audit.to_json_dict(preset=preset))
    if json_path:
        doccheck.write_json(json_path, payload)
    if html_path:
        with open(html_path, "w", encoding="utf-8") as fh:
            fh.write(render_html(payload))
    return payload
