"""Tests for Algorithm 1 (Application Tiling) and the KTiler facade."""

import pytest

from repro.apps import build_jacobi_pingpong, build_pipeline
from repro.core import KTiler, KTilerConfig
from repro.errors import TilingError
from repro.gpusim import NOMINAL, FrequencyConfig, GpuSpec
from repro.runtime import execute_schedule, schedules_equivalent


@pytest.fixture(scope="module")
def tiled_pipeline():
    """A 1024x1024 pipeline: the intermediate exceeds the 2 MB L2."""
    app = build_pipeline(size=1024)
    ktiler = KTiler(app.graph, config=KTilerConfig(launch_overhead_us=2.0))
    return app, ktiler, ktiler.plan(NOMINAL)


class TestAlgorithmOne:
    def test_adopts_profitable_merges(self, tiled_pipeline):
        _, _, result = tiled_pipeline
        assert result.stats.adopted_merges >= 1
        assert result.schedule.split_nodes()

    def test_schedule_is_valid(self, tiled_pipeline):
        app, ktiler, result = tiled_pipeline
        result.schedule.validate(app.graph, ktiler.block_graph)

    def test_estimated_cost_below_default(self, tiled_pipeline):
        _, ktiler, result = tiled_pipeline
        default_cost = sum(ktiler.default_times(NOMINAL).values())
        assert result.estimated_cost_us < default_cost * 1.5

    def test_simulated_time_improves(self, tiled_pipeline):
        app, ktiler, result = tiled_pipeline
        from repro.core.schedule import Schedule

        default = execute_schedule(
            Schedule.default(app.graph), app.graph, ktiler.spec, NOMINAL,
            launch_gap_us=2.0,
        )
        tiled = execute_schedule(
            result.schedule, app.graph, ktiler.spec, NOMINAL, launch_gap_us=2.0
        )
        assert tiled.total_us < default.total_us
        assert tiled.hit_rate > default.hit_rate

    def test_functionally_equivalent(self, tiled_pipeline):
        app, _, result = tiled_pipeline
        ok, mismatched = schedules_equivalent(
            app.graph, result.schedule, app.host_inputs()
        )
        assert ok, f"buffers differ: {mismatched}"

    def test_stats_are_coherent(self, tiled_pipeline):
        _, _, result = tiled_pipeline
        stats = result.stats
        assert stats.merge_attempts >= stats.adopted_merges + stats.rejected_merges
        assert stats.tilings_evaluated <= stats.merge_attempts

    def test_partition_matches_schedule(self, tiled_pipeline):
        app, _, result = tiled_pipeline
        scheduled_nodes = {s.node_id for s in result.schedule}
        assert scheduled_nodes == {n.node_id for n in app.graph}
        for cid, tiling in result.tilings.items():
            assert result.partition.members(cid) == tiling.nodes


class TestKnobs:
    def test_max_cluster_nodes_cap(self):
        app = build_jacobi_pingpong(iters=6, size=256)
        spec = GpuSpec(l2_bytes=512 * 1024)
        ktiler = KTiler(
            app.graph,
            spec=spec,
            config=KTilerConfig(launch_overhead_us=0.5, max_cluster_nodes=2),
        )
        result = ktiler.plan(NOMINAL)
        for cid in result.partition.cluster_ids():
            assert len(result.partition.members(cid)) <= 2

    def test_high_threshold_disables_tiling(self):
        app = build_pipeline(size=1024)
        ktiler = KTiler(
            app.graph, config=KTilerConfig(threshold_us=1e9)
        )
        result = ktiler.plan(NOMINAL)
        assert result.stats.candidate_edges == 0
        assert result.schedule.num_launches == len(app.graph)

    def test_huge_launch_overhead_disables_tiling(self):
        app = build_pipeline(size=1024)
        ktiler = KTiler(
            app.graph, config=KTilerConfig(launch_overhead_us=10_000.0)
        )
        result = ktiler.plan(NOMINAL)
        assert result.stats.adopted_merges == 0

    def test_negative_overhead_rejected(self):
        app = build_pipeline(size=256)
        ktiler = KTiler(app.graph, config=KTilerConfig(launch_overhead_us=-1.0))
        with pytest.raises(Exception):
            ktiler.plan(NOMINAL)

    def test_schedule_adapts_to_frequency(self):
        """Lower memory frequency makes more merges profitable."""
        app = build_jacobi_pingpong(iters=4, size=256)
        spec = GpuSpec(l2_bytes=512 * 1024)
        ktiler = KTiler(app.graph, spec=spec,
                        config=KTilerConfig(launch_overhead_us=2.0))
        fast = ktiler.plan(FrequencyConfig(1324, 5010))
        slow = ktiler.plan(FrequencyConfig(1324, 800))
        assert slow.stats.adopted_merges >= fast.stats.adopted_merges


class TestKTilerFacade:
    def test_artifacts_are_cached(self):
        app = build_pipeline(size=256)
        ktiler = KTiler(app.graph)
        assert ktiler.block_graph is ktiler.block_graph
        assert ktiler.mem_lines is ktiler.mem_lines
        assert ktiler.instrumented_run is ktiler.instrumented_run

    def test_default_times_cover_all_nodes(self):
        app = build_pipeline(size=256)
        ktiler = KTiler(app.graph)
        times = ktiler.default_times(NOMINAL)
        assert set(times) == {n.node_id for n in app.graph}
        assert all(t > 0 for t in times.values())

    def test_default_schedule(self):
        app = build_pipeline(size=256)
        ktiler = KTiler(app.graph)
        assert ktiler.default_schedule().num_launches == len(app.graph)

    def test_missing_default_time_raises(self):
        from repro.core.app_tile import application_tile
        from repro.core.profiler import LazyPerfTables

        app = build_pipeline(size=256)
        ktiler = KTiler(app.graph)
        with pytest.raises(TilingError):
            application_tile(
                graph=app.graph,
                structure_of=ktiler.structure,
                perf_tables=LazyPerfTables(ktiler.profiler, NOMINAL),
                weights=ktiler.edge_weights(NOMINAL),
                default_times_us={},
            )
