"""Auto-profiler: generates KTILER's "user-provided information" (§IV-A/C).

The paper assumes the user supplies, per kernel and platform:

* *performance tables* — execution time vs. grid size, one table per
  in-cache input combination, and
* *edge weights* — for each application edge, the maximum time the
  consumer can save if that edge's data is cache-resident, and
* the *default execution time* of every kernel.

On a simulator we can generate all three programmatically: launch each
distinct kernel spec at a ladder of grid sizes, once with a cold L2 and
once per input combination with those inputs pre-touched into the L2.
Because the cache replay does not depend on the operating frequency,
the profiler stores frequency-independent :class:`LaunchTally` objects
and re-times them under any :class:`FrequencyConfig` on demand — one
profiling pass serves all of Figure 5's DVFS configurations.

Profiled input combinations: the empty set, each single input, and the
full input set; richer combinations fall back to their largest profiled
subset (see :meth:`repro.core.perftable.PerfTableSet.lookup`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.perftable import EMPTY_COMBO, InputCombo, PerformanceTable, PerfTableSet
from repro.errors import ConfigurationError
from repro.gpusim.arch import GpuSpec
from repro.gpusim.dram import DramModel
from repro.gpusim.executor import GpuSimulator, LaunchTally, time_launch
from repro.gpusim.freq import FrequencyConfig
from repro.graph.kernel_graph import KernelGraph
from repro.kernels.base import KernelSpec
from repro.obs.tracer import NULL_TRACER
from repro.store import NULL_STORE

#: Default grid-size ladder, as fractions of the full grid (the paper's
#: tables contain "execution times for several grid sizes").
DEFAULT_GRID_FRACTIONS = (1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


def grid_ladder(num_blocks: int, fractions: Sequence[float] = DEFAULT_GRID_FRACTIONS) -> List[int]:
    """Distinct grid sizes to measure for a kernel of ``num_blocks``."""
    sizes = sorted({max(1, round(num_blocks * f)) for f in fractions})
    if num_blocks not in sizes:
        sizes.append(num_blocks)
    return sizes


def _read_lines_from(kernel: KernelSpec, blocks: Iterable[int], combo: InputCombo,
                     line_shift: int) -> Set[int]:
    """Lines the given blocks read from the combo's buffers, as a set.

    Uses the kernels' memoized read-range triples so repeated probes
    (one per combo x grid-ladder point) cost C-speed ``set.update``
    calls instead of re-enumerating AccessRange objects.  The caller
    warms the L2 in the set's *iteration* order, which is neither
    program order nor sorted order: a set of ints iterates in hash-slot
    order.  The performance tables depend on that order, so a rewrite
    of the warm must reproduce it, or change the tables on purpose.
    """
    lines: Set[int] = set()
    for bid in blocks:
        for name, start, stop in kernel.block_read_line_ranges(bid, line_shift):
            if name in combo:
                lines.update(range(start, stop))
    return lines


@dataclass
class ProfiledKernel:
    """Frequency-independent profile of one kernel spec.

    ``warm_lines`` holds, beside each tally, the size of the line set
    its launch was warmed with (0 for the cold combination): the edge
    weights pick their grid from it without rebuilding the set.
    """

    kernel: KernelSpec
    tallies: Dict[Tuple[InputCombo, int], LaunchTally] = field(default_factory=dict)
    warm_lines: Dict[Tuple[InputCombo, int], int] = field(default_factory=dict)

    def combos(self) -> List[InputCombo]:
        return sorted({c for c, _ in self.tallies}, key=sorted)

    def grid_sizes(self, combo: InputCombo) -> List[int]:
        return sorted(g for c, g in self.tallies if c == combo)

    def table_at(self, combo: InputCombo, spec: GpuSpec, dram: DramModel,
                 freq: FrequencyConfig) -> PerformanceTable:
        points = [
            (grid, time_launch(tally, spec, dram, freq).time_us)
            for (c, grid), tally in self.tallies.items()
            if c == combo
        ]
        return PerformanceTable(points)


class KernelProfiler:
    """Profiles kernel specs on a private simulator instance."""

    def __init__(
        self,
        spec: Optional[GpuSpec] = None,
        grid_fractions: Sequence[float] = DEFAULT_GRID_FRACTIONS,
        store=NULL_STORE,
        tracer=NULL_TRACER,
    ):
        self.sim = GpuSimulator(spec)
        self.grid_fractions = tuple(grid_fractions)
        self.store = store if store is not None else NULL_STORE
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._profiles: Dict[KernelSpec, ProfiledKernel] = {}

    @property
    def spec(self) -> GpuSpec:
        return self.sim.spec

    def _tally(
        self, kernel: KernelSpec, combo: InputCombo, grid: int
    ) -> Tuple[LaunchTally, int]:
        """One ladder point: its tally and the size of its warm set."""
        blocks = range(grid)
        self.sim.reset_cache()
        warm_lines = 0
        if combo:
            warm = _read_lines_from(kernel, blocks, combo, self.spec.line_shift)
            self.sim.l2.touch_many(warm)
            warm_lines = len(warm)
        return self.sim.tally_launch(kernel, blocks), warm_lines

    @staticmethod
    def standard_combos(kernel: KernelSpec) -> List[InputCombo]:
        """The always-profiled combinations: cold, singles, all inputs."""
        input_names = [b.name for b in dict.fromkeys(kernel.inputs)]
        combos: List[InputCombo] = [EMPTY_COMBO]
        combos += [frozenset((n,)) for n in input_names]
        if len(input_names) > 1:
            combos.append(frozenset(input_names))
        return combos

    def profile(self, kernel: KernelSpec) -> ProfiledKernel:
        """Measure (and memoize) one kernel spec across the grid ladder.

        Combinations: cold, each single input, all inputs.  Further
        combinations can be added on demand via :meth:`profile_combo`
        (used by :class:`LazyPerfTables`).
        """
        cached = self._profiles.get(kernel)
        if cached is not None:
            return cached
        profile = ProfiledKernel(kernel)
        self._profiles[kernel] = profile
        for combo in self.standard_combos(kernel):
            self.profile_combo(kernel, combo)
        return profile

    def profile_combo(self, kernel: KernelSpec, combo: InputCombo) -> ProfiledKernel:
        """Ensure the grid ladder is measured for one input combination.

        The (kernel, combo) ladder is one artifact-store entry; a warm
        store skips the measurement entirely.  Each grid's measurement
        starts from a flushed cache, so the points are independent.
        """
        profile = self._profiles.get(kernel)
        if profile is None:
            profile = self.profile(kernel)
        combo = frozenset(combo)
        ladder = grid_ladder(kernel.num_blocks, self.grid_fractions)
        missing = [g for g in ladder if (combo, g) not in profile.tallies]
        if not missing:
            return profile
        key = None
        if self.store.enabled:
            # Imported here: repro.store.artifacts imports the tiling
            # modules, which import this module through core.weights.
            from repro.store.artifacts import profile_from_dict, profile_key

            def decode(payload):
                restored = profile_from_dict(payload)
                return restored if set(ladder) <= restored[0].keys() else None

            key = self.store.key_for(
                profile_key(kernel, self.spec, self.grid_fractions, combo)
            )
            restored = self.store.get("profile", key, decode)
            if restored is not None:
                tallies, warm_lines = restored
                for grid in missing:
                    profile.tallies[(combo, grid)] = tallies[grid]
                    profile.warm_lines[(combo, grid)] = warm_lines[grid]
                return profile
        with self.tracer.span(
            "profiler.measure", cat="profile",
            kernel=kernel.name, grids=len(missing),
        ):
            for grid in missing:
                tally, warm_lines = self._tally(kernel, combo, grid)
                profile.tallies[(combo, grid)] = tally
                profile.warm_lines[(combo, grid)] = warm_lines
        if key is not None:
            from repro.store.artifacts import profile_to_dict

            self.store.put(
                "profile", key,
                profile_to_dict(
                    {g: profile.tallies[(combo, g)] for g in ladder},
                    {g: profile.warm_lines[(combo, g)] for g in ladder},
                ),
            )
        return profile

    def profile_graph(self, graph: KernelGraph) -> Dict[KernelSpec, ProfiledKernel]:
        """Profile every distinct kernel spec used by ``graph``."""
        for node in graph:
            self.profile(node.kernel)
        return dict(self._profiles)

    # ------------------------------------------------------------------
    # Frequency-specific artifacts
    # ------------------------------------------------------------------
    def tables_at(self, graph: KernelGraph, freq: FrequencyConfig) -> PerfTableSet:
        """Performance tables for all kernels of ``graph`` at ``freq``."""
        self.profile_graph(graph)
        tables = PerfTableSet()
        dram = self.sim.dram
        for kernel, profile in self._profiles.items():
            for combo in profile.combos():
                tables.add(
                    kernel, combo, profile.table_at(combo, self.spec, dram, freq)
                )
        return tables

    def _weight_grid(self, profile: ProfiledKernel, buffer_name: str) -> int:
        """Largest ladder grid whose warmed input fits half the cache.

        The edge weight is the *maximum* achievable saving, so it must
        be measured where the warmed fragment actually survives in the
        L2 — at the full grid a larger-than-cache input self-evicts and
        every weight would read as zero.  Half the cache leaves room
        for the kernel's other traffic, mirroring how tiling rounds
        share the cache between producer and consumer data.  The warm
        set sizes are those the profile recorded for the single-input
        combination.
        """
        kernel = profile.kernel
        combo = frozenset((buffer_name,))
        budget = self.spec.l2_num_lines // 2
        chosen = 1
        for grid in grid_ladder(kernel.num_blocks, self.grid_fractions):
            lines = profile.warm_lines.get((combo, grid))
            if lines is None:
                raise ConfigurationError(
                    f"kernel '{kernel.name}' has no profile for input "
                    f"'{buffer_name}' at grid {grid}"
                )
            if lines <= budget:
                chosen = grid
            else:
                break
        return chosen

    def saved_time(
        self, kernel: KernelSpec, buffer_name: str, freq: FrequencyConfig
    ) -> float:
        """Max time saved when ``buffer_name`` is cache-resident (us).

        This is the paper's edge weight.  Measured at the largest
        profiled grid size where the warmed input fragment fits the
        cache (cold minus warm execution time), then scaled linearly to
        the kernel's full grid — "the maximum amount of time that can
        be saved if the corresponding input data reside in the cache".
        """
        profile = self.profile(kernel)
        grid = self._weight_grid(profile, buffer_name)
        dram = self.sim.dram
        cold = profile.tallies[(EMPTY_COMBO, grid)]
        warm = profile.tallies[(frozenset((buffer_name,)), grid)]
        cold_us = time_launch(cold, self.spec, dram, freq).time_us
        warm_us = time_launch(warm, self.spec, dram, freq).time_us
        scale = kernel.num_blocks / grid
        return max(0.0, (cold_us - warm_us) * scale)


class LazyPerfTables:
    """Performance tables measured on demand (duck-types PerfTableSet.time).

    The scheduler queries execution times for (kernel, in-cluster input
    combination, grid size) triples; the paper bounds the number of
    pre-built tables via the weight threshold and interpolates grid
    sizes.  Here the combination tables are measured lazily the first
    time the scheduler asks, then memoized — exact combination data
    instead of subset fallbacks, while still only paying for
    combinations that actually arise during cluster tiling.
    """

    def __init__(self, profiler: "KernelProfiler", freq: FrequencyConfig):
        self.profiler = profiler
        self.freq = freq
        self._tables: Dict[Tuple[KernelSpec, InputCombo], PerformanceTable] = {}

    def lookup(self, kernel: KernelSpec, combo: InputCombo) -> PerformanceTable:
        combo = frozenset(combo)
        key = (kernel, combo)
        table = self._tables.get(key)
        if table is None:
            profile = self.profiler.profile_combo(kernel, combo)
            table = profile.table_at(
                combo, self.profiler.spec, self.profiler.sim.dram, self.freq
            )
            self._tables[key] = table
        return table

    def time(
        self, kernel: KernelSpec, combo: InputCombo, grid_size: int, work=None
    ) -> float:
        # Only the *query* is charged to the work tally; lazy table
        # builds are memoized per profiler, shared by every operating
        # point, so counting them would make the tally depend on what
        # earlier plans already measured.
        if work is not None:
            work.perftable_queries += 1
        return self.lookup(kernel, combo).query(grid_size)
