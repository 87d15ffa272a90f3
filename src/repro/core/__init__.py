"""KTILER core: sub-kernels, schedules, performance model, two-phase tiler."""

from repro.core.app_tile import TilingResult, TilingStats, application_tile
from repro.core.baselines import exhaustive_tile, merge_all_tile
from repro.core.cluster import Partition
from repro.core.fast_cluster import (
    PLANNER_BACKEND_ENV_VAR,
    PLANNER_BACKENDS,
    FastPartition,
    make_partition,
    resolve_planner_backend,
)
# The submodule, not its ``cluster_tile`` function, stays bound to
# ``repro.core.cluster_tile``: import the function from the submodule.
from repro.core.cluster_tile import (
    ClusterTiling,
    cluster_sinks,
    in_cluster_input_combo,
)
from repro.core.ktiler import KTiler, KTilerConfig
from repro.core.perftable import (
    EMPTY_COMBO,
    InputCombo,
    PerformanceTable,
    PerfTableSet,
)
from repro.core.profiler import (
    DEFAULT_GRID_FRACTIONS,
    KernelProfiler,
    LazyPerfTables,
    ProfiledKernel,
    grid_ladder,
)
from repro.core.schedule import Schedule
from repro.core.serialize import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.subkernel import SubKernel, check_partition
from repro.core.work import (
    VALIDITY_COUNTERS,
    WORK_COUNTER_FAMILIES,
    PlannerWork,
)
from repro.core.weights import (
    EdgeWeights,
    compute_edge_weights,
    edge_id,
    node_is_tileable,
    select_candidates,
)

__all__ = [
    "KTiler",
    "KTilerConfig",
    "Schedule",
    "save_schedule",
    "load_schedule",
    "schedule_to_dict",
    "schedule_from_dict",
    "SubKernel",
    "check_partition",
    "Partition",
    "FastPartition",
    "make_partition",
    "resolve_planner_backend",
    "PLANNER_BACKENDS",
    "PLANNER_BACKEND_ENV_VAR",
    "ClusterTiling",
    "cluster_sinks",
    "in_cluster_input_combo",
    "application_tile",
    "merge_all_tile",
    "exhaustive_tile",
    "TilingResult",
    "TilingStats",
    "PerformanceTable",
    "PerfTableSet",
    "InputCombo",
    "EMPTY_COMBO",
    "KernelProfiler",
    "LazyPerfTables",
    "ProfiledKernel",
    "grid_ladder",
    "DEFAULT_GRID_FRACTIONS",
    "EdgeWeights",
    "compute_edge_weights",
    "select_candidates",
    "edge_id",
    "node_is_tileable",
    "PlannerWork",
    "WORK_COUNTER_FAMILIES",
    "VALIDITY_COUNTERS",
]
