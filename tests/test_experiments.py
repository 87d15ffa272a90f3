"""Unit tests for the experiment harnesses (fast, reduced-scale configs).

The full-scale shape assertions live in benchmarks/; these tests cover
the harness mechanics — result containers, formatting, parameterization
— at sizes that keep the suite fast.
"""

import pytest

from repro.experiments import (
    cache_sweep,
    default_grid_sizes,
    gap_sweep,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_suitability,
    threshold_sweep,
)
from repro.gpusim import GpuSpec
from repro.gpusim.freq import FIG3_CONFIGS, FIG5_CONFIGS


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(image_size=128)

    def test_block_ratio(self, result):
        assert result.tiled.num_blocks * 32 == result.default.num_blocks

    def test_tiled_hits_everything(self, result):
        assert result.tiled.cache_hit_rate == 1.0

    def test_deltas_positive(self, result):
        # 128x128 fields fit the 2 MB L2, so use a small cache instead.
        small = run_fig2(image_size=128, spec=GpuSpec(l2_bytes=128 * 1024))
        assert small.hit_rate_gap > 0.3
        assert small.issue_efficiency_ratio > 1.0

    def test_format_table(self, result):
        text = result.format_table()
        assert "default" in text and "tiled" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(
            image_size=128,
            spec=GpuSpec(l2_bytes=128 * 1024),
            grid_sizes=[1, 4, 16, 32, 64],
            with_split_comparison=False,
        )

    def test_all_series_present(self, result):
        assert set(result.throughput) == set(FIG3_CONFIGS)
        for series in result.throughput.values():
            assert len(series) == len(result.grid_sizes)
            assert all(v > 0 for v in series)

    def test_peak_lookup(self, result):
        grid, value = result.peak(FIG3_CONFIGS[0])
        assert grid in result.grid_sizes
        assert value == max(result.throughput[FIG3_CONFIGS[0]])

    def test_at_grid(self, result):
        config = FIG3_CONFIGS[1]
        assert result.at_grid(config, 16) == result.throughput[config][2]

    def test_rises_from_one_block(self, result):
        for config in FIG3_CONFIGS:
            series = result.throughput[config]
            assert max(series) > series[0]

    def test_default_grid_sizes_cover_range(self):
        sizes = default_grid_sizes(256)
        assert sizes[0] == 1 and sizes[-1] == 256
        assert sizes == sorted(set(sizes))

    def test_format_table(self, result):
        assert "peak" in result.format_table()


class TestFig4:
    def test_census_closed_form(self):
        result = run_fig4(frame_size=128, levels=2, jacobi_iters=3)
        assert result.matches_expected()
        assert result.num_nodes == len(result.app.graph)
        assert result.level_sizes == [128, 64]

    def test_format_table(self):
        result = run_fig4(frame_size=128, levels=2, jacobi_iters=3)
        text = result.format_table()
        assert "census matches closed form: True" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(
            frame_size=128,
            levels=2,
            jacobi_iters=6,
            spec=GpuSpec(l2_bytes=128 * 1024, launch_gap_us=0.5),
            configs=FIG5_CONFIGS[:2],
            check_functional=True,
        )

    def test_rows_per_config(self, result):
        assert [r.freq for r in result.report.rows] == list(FIG5_CONFIGS[:2])

    def test_gains_nonnegative(self, result):
        for row in result.report.rows:
            assert row.gain_with_ig >= 0.0
            assert row.gain_without_ig >= row.gain_with_ig - 1e-9

    def test_functional(self, result):
        assert result.functional_ok is True

    def test_plan_stats_recorded(self, result):
        assert set(result.plan_stats) == set(FIG5_CONFIGS[:2])

    def test_format_table(self, result):
        assert "average" in result.format_table()


class TestSuitability:
    @pytest.fixture(scope="class")
    def result(self):
        return run_suitability(n_1d=1 << 18, image_size=256)

    def test_all_kernels_scored(self, result):
        names = {row.kernel_name for row in result.rows}
        assert len(names) == len(result.rows) == 10

    def test_warp_flagged(self, result):
        assert result.row("warp").input_dependent

    def test_row_lookup_missing(self, result):
        with pytest.raises(KeyError):
            result.row("nope")

    def test_rows_have_valid_rates(self, result):
        for row in result.rows:
            assert 0.0 <= row.default_hit_rate <= 1.0
            assert 0.0 <= row.tiled_hit_rate <= 1.0
            assert 0.0 <= row.memory_stall_fraction <= 1.0


class TestAblations:
    def test_threshold_sweep_rows(self):
        result = threshold_sweep(thresholds=(0.0, 1e6))
        assert [row.parameter for row in result.rows] == [0.0, 1e6]
        assert result.rows[-1].adopted_merges == 0
        assert "threshold_us" in result.format_table()

    def test_gap_sweep_never_regresses(self):
        result = gap_sweep(gaps_us=(0.0, 50.0))
        assert result.rows[0].gain_with_ig >= result.rows[-1].gain_with_ig
        assert result.rows[-1].gain_with_ig >= -1e-9

    def test_cache_sweep_huge_cache_no_gain(self):
        result = cache_sweep(l2_sizes=(8 * 1024 * 1024,))
        assert result.rows[0].gain_with_ig == 0.0

    def test_each_point_replays_only_its_tiled_schedule(self, monkeypatch):
        """The default schedule's tallies come from the instrumented
        run the plan was built from, so an ablation point makes one
        ``tally_schedule`` call: the tiled schedule's."""
        import repro.experiments.ablations as ablations
        from repro.core.ktiler import KTiler, KTilerConfig
        from repro.gpusim import GpuSpec
        from repro.runtime.report import default_tallies

        real = ablations.tally_schedule
        replayed = []

        def counting(schedule, *args, **kwargs):
            replayed.append(schedule.name)
            return real(schedule, *args, **kwargs)

        monkeypatch.setattr(ablations, "tally_schedule", counting)
        result = threshold_sweep(thresholds=(0.0, 1.0, 1e6))
        assert len(replayed) == len(result.rows) == 3
        assert "default" not in replayed
        # Those tallies are the ones a replay of the default schedule
        # gives, so every row stays what the replay gave.
        graph = ablations._default_app()
        spec = GpuSpec(l2_bytes=512 * 1024)
        ktiler = KTiler(graph, spec=spec, config=KTilerConfig())
        assert default_tallies(ktiler) == real(
            ktiler.default_schedule(), graph, spec
        )
