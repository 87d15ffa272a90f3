"""Deterministic planner work counters.

Wall-clock phase attribution (PR 5) says *where* the planner spends
time; these counters say *how much work* it did — in units that are a
pure function of (graph, GpuSpec, config, frequency).  They are the
scheduler-side analogue of the simulator's hit/miss counters: cheap
integer increments on the Algorithm 1/2 hot paths.  Per-cluster work
travels inside the :class:`~repro.core.cluster_tile.ClusterTiling` and
is charged when the merge loop *consumes* the tiling — exactly where
``TilingStats.tilings_evaluated`` counts it — so a memoized tiling is
paid for once.

That determinism is what makes the counters usable as a complexity
probe: plotted against graph size they trace the planner's empirical
scaling exactly, with zero timing noise (see
:mod:`repro.obs.profile`).

What counts (the work-counter contract, see TESTING.md):

* ``blocks_visited`` — blocks staged into a tiling batch (bottom-up
  picks, dependency pulls, readiness pulls);
* ``footprint_unions`` — cache-constraint checks
  (:meth:`~repro.analyzer.footprint.FootprintAccumulator.try_add`);
* ``footprint_lines`` — distinct cache lines unioned into round
  footprints by successful checks (the replay lines the planner
  touched);
* ``frontier_updates`` — readiness-frontier bookkeeping: lazy
  missing-predecessor initializations plus every cover/uncover
  adjustment;
* ``perftable_queries`` — sub-kernel execution-time estimates asked of
  the performance tables;
* ``merge_probes`` — the merge-validity cost of Algorithm 1's main
  loop: quotient-graph nodes dequeued by the reference backend's BFS,
  or bitset words scanned by the fast backend's reachability check;
* ``reach_repairs`` — bitset words written building and repairing the
  fast planner backend's incremental reachability index (zero under
  the reference backend, which keeps no index);
* ``weight_evals`` — profiler evaluations behind the edge weights
  (memoized per (kernel spec, buffer));
* ``edges_weighted`` — data edges assigned a weight.

Untileable clusters (Algorithm 2 returns ``None``) charge nothing:
their partial work has no tiling to travel with, and a warm store
could not replay it either.

The *validity family* (:data:`VALIDITY_COUNTERS`) is the one exception
to cross-backend invariance: ``merge_probes`` and ``reach_repairs``
measure how hard the *selected planner backend* worked to prove merge
validity, so they are deterministic per planner backend but differ
*between* planner backends by design.  Every other counter is
bit-identical across planner backends too (same decisions, same
Algorithm 2 work).  This is why the planner backend participates in
the plan-store fingerprint (see :mod:`repro.store.fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PlannerWork:
    """Integer work counters of one planner run (or one cluster tiling).

    Mutable on purpose: the hot loops increment fields directly.  Use
    :meth:`add` to fold a cluster's work into a run total and
    :meth:`as_dict` / :meth:`from_dict` for artifacts.
    """

    blocks_visited: int = 0
    footprint_unions: int = 0
    footprint_lines: int = 0
    frontier_updates: int = 0
    perftable_queries: int = 0
    merge_probes: int = 0
    reach_repairs: int = 0
    weight_evals: int = 0
    edges_weighted: int = 0

    def add(self, other: "PlannerWork") -> None:
        """Fold another tally into this one, field by field."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def total(self) -> int:
        """Sum of every counter (a one-number work volume)."""
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PlannerWork":
        """Rebuild from :meth:`as_dict` output; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in payload.items() if k in known})

    def copy(self) -> "PlannerWork":
        return PlannerWork(**self.as_dict())


#: Counter-registry family names, in the canonical (field) order.  The
#: planner emits ``planner.<field>`` for every field of PlannerWork.
WORK_COUNTER_FAMILIES = tuple(
    f"planner.{f.name}" for f in fields(PlannerWork)
)

#: The merge-validity counters: deterministic for a given planner
#: backend, but *planner-backend-local* — the reference backend charges
#: BFS dequeues to ``merge_probes`` and never touches
#: ``reach_repairs``; the fast backend charges bitset words to both.
#: Everything outside this family is invariant across planner backends.
VALIDITY_COUNTERS = ("merge_probes", "reach_repairs")
