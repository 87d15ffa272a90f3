"""Default-vs-KTILER comparison reports (the Figure 5 harness).

For each DVFS operating point, measure the application in the paper's
three modes:

* **default** — one launch per kernel, topological order;
* **KTILER** — the tiled schedule, inter-launch gap included;
* **KTILER w/o IG** — the same run with the gaps excluded.

Cache replays are memoized by schedule content, so operating points
that produce the same schedule only pay the replay once.  The default
schedule is never replayed: the instrumented run that fed the block
analyzer already launched the same full grids in the same order on a
fresh simulator, so its launch tallies are the default replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ktiler import KTiler
from repro.core.schedule import Schedule
from repro.gpusim.freq import FrequencyConfig
from repro.obs.tracer import NULL_TRACER
from repro.runtime.launcher import ScheduleTallies, measure_at, tally_schedule
from repro.store import NULL_STORE
from repro.store.artifacts import (
    replay_key,
    schedule_tallies_from_dict,
    schedule_tallies_to_dict,
)


@dataclass(frozen=True)
class ComparisonRow:
    """One operating point of the Figure 5 experiment."""

    freq: FrequencyConfig
    default_total_us: float
    default_busy_us: float
    ktiler_total_us: float
    ktiler_busy_us: float
    default_launches: int
    ktiler_launches: int
    default_hit_rate: float
    ktiler_hit_rate: float

    @property
    def gain_with_ig(self) -> float:
        """Fractional improvement of KTILER incl. gaps over default."""
        return 1.0 - self.ktiler_total_us / self.default_total_us

    @property
    def gain_without_ig(self) -> float:
        """Fractional improvement with the inter-launch gaps excluded."""
        return 1.0 - self.ktiler_busy_us / self.default_busy_us

    def as_dict(self) -> dict:
        """JSON-friendly view (benchmark artifacts, audit reports)."""
        return {
            "freq": self.freq.label,
            "default_total_us": self.default_total_us,
            "default_busy_us": self.default_busy_us,
            "ktiler_total_us": self.ktiler_total_us,
            "ktiler_busy_us": self.ktiler_busy_us,
            "default_launches": self.default_launches,
            "ktiler_launches": self.ktiler_launches,
            "default_hit_rate": self.default_hit_rate,
            "ktiler_hit_rate": self.ktiler_hit_rate,
            "gain_with_ig": self.gain_with_ig,
            "gain_without_ig": self.gain_without_ig,
        }

    def format_row(self) -> str:
        return (
            f"{self.freq.label:>12}  default={self.default_total_us / 1e3:8.2f}ms  "
            f"ktiler={self.ktiler_total_us / 1e3:8.2f}ms ({self.gain_with_ig * 100:+5.1f}%)  "
            f"w/o IG={self.ktiler_busy_us / 1e3:8.2f}ms ({self.gain_without_ig * 100:+5.1f}%)"
        )


@dataclass
class ComparisonReport:
    rows: List[ComparisonRow]

    @property
    def mean_gain_with_ig(self) -> float:
        """Mean fractional gain incl. gaps; 0.0 for an empty report."""
        if not self.rows:
            return 0.0
        return sum(r.gain_with_ig for r in self.rows) / len(self.rows)

    @property
    def mean_gain_without_ig(self) -> float:
        """Mean fractional gain excl. gaps; 0.0 for an empty report."""
        if not self.rows:
            return 0.0
        return sum(r.gain_without_ig for r in self.rows) / len(self.rows)

    def as_dict(self) -> dict:
        """JSON-friendly view: per-row dumps plus the two mean gains."""
        return {
            "rows": [row.as_dict() for row in self.rows],
            "mean_gain_with_ig": self.mean_gain_with_ig,
            "mean_gain_without_ig": self.mean_gain_without_ig,
        }

    def format_table(self) -> str:
        lines = [row.format_row() for row in self.rows]
        lines.append(
            f"{'average':>12}  gain with IG: {self.mean_gain_with_ig * 100:+5.1f}%  "
            f"gain w/o IG: {self.mean_gain_without_ig * 100:+5.1f}%"
        )
        return "\n".join(lines)


def _schedule_signature(schedule: Schedule) -> Tuple:
    return tuple((sub.node_id, sub.blocks) for sub in schedule)


def _replay_schedules(
    schedules: List[Schedule],
    graph,
    spec,
    store,
    tracer,
) -> List[ScheduleTallies]:
    """Replay each schedule, via the artifact store.

    Warm entries are served from the store; cold ones are tallied and
    written back.  Results are positionally aligned with ``schedules``.
    """
    results: List[Optional[ScheduleTallies]] = [None] * len(schedules)
    keys: List[Optional[str]] = [None] * len(schedules)
    if store.enabled:
        for i, schedule in enumerate(schedules):
            keys[i] = store.key_for(replay_key(graph, spec, schedule))
            results[i] = store.get("replay", keys[i], schedule_tallies_from_dict)
    misses = [i for i in range(len(schedules)) if results[i] is None]
    for i in misses:
        results[i] = tally_schedule(schedules[i], graph, spec, tracer=tracer)
    if store.enabled:
        for i in misses:
            store.put("replay", keys[i], schedule_tallies_to_dict(results[i]))
    return results


def default_tallies(ktiler: KTiler) -> ScheduleTallies:
    """The default schedule's replay, taken from the instrumented run.

    :meth:`Schedule.default` and :func:`run_instrumented` launch every
    node's full grid in ``topological_order()`` on a fresh simulator
    with the KTiler's spec, so the instrumented launches' tallies equal
    ``tally_schedule(Schedule.default(graph), graph, spec)``.  With an
    artifact store the instrumented run comes from its trace entry.
    """
    graph = ktiler.graph
    return ScheduleTallies(
        schedule_name="default",
        labels=[graph.node(node_id).name for node_id in graph.topological_order()],
        tallies=[launch.tally for launch in ktiler.instrumented_run.launches],
    )


def compare_default_vs_ktiler(
    ktiler: KTiler,
    freqs: Sequence[FrequencyConfig],
    launch_gap_us: Optional[float] = None,
    tracer=None,
) -> ComparisonReport:
    """Run the Figure 5 experiment over the given operating points.

    ``tracer`` defaults to the KTiler's own tracer; with tracing
    enabled, the default and tiled timelines of every operating point
    are attached to the tracer (``default@<freq>`` / ``ktiler@<freq>``)
    for Chrome-trace export.  The KTiler's artifact store (if any)
    serves warm replays of the tiled schedules and receives cold ones;
    the default replay comes from the instrumented run
    (:func:`default_tallies`).
    """
    if tracer is None:
        tracer = getattr(ktiler, "tracer", NULL_TRACER)
    graph = ktiler.graph
    spec = ktiler.spec
    store = getattr(ktiler, "store", NULL_STORE)
    plans = {freq: ktiler.plan(freq) for freq in freqs}

    # Distinct tiled schedules to replay (operating points often share
    # a schedule).
    jobs: List[Schedule] = []
    sig_index: Dict[Tuple, int] = {}
    for freq in freqs:
        signature = _schedule_signature(plans[freq].schedule)
        if signature not in sig_index:
            sig_index[signature] = len(jobs)
            jobs.append(plans[freq].schedule)
    replays = _replay_schedules(jobs, graph, spec, store, tracer)
    default_replay = default_tallies(ktiler)
    replay_cache: Dict[Tuple, ScheduleTallies] = {
        signature: replays[i] for signature, i in sig_index.items()
    }
    rows: List[ComparisonRow] = []
    for freq in freqs:
        plan = plans[freq]
        signature = _schedule_signature(plan.schedule)
        replay = replay_cache[signature]
        default_run = measure_at(
            default_replay, spec, freq, launch_gap_us, tracer=tracer
        )
        ktiler_run = measure_at(replay, spec, freq, launch_gap_us, tracer=tracer)
        if tracer.enabled:
            tracer.attach_timeline(f"default@{freq.label}", default_run.timeline)
            tracer.attach_timeline(f"ktiler@{freq.label}", ktiler_run.timeline)
        rows.append(
            ComparisonRow(
                freq=freq,
                default_total_us=default_run.total_us,
                default_busy_us=default_run.busy_us,
                ktiler_total_us=ktiler_run.total_us,
                ktiler_busy_us=ktiler_run.busy_us,
                default_launches=default_run.num_launches,
                ktiler_launches=ktiler_run.num_launches,
                default_hit_rate=default_run.hit_rate,
                ktiler_hit_rate=ktiler_run.hit_rate,
            )
        )
    return ComparisonReport(rows=rows)
