"""Unit tests for the GPU architecture model."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.arch import (
    DESKTOP_GPU,
    EMBEDDED_GPU,
    GTX_960M,
    WARP_SIZE,
    GpuSpec,
    spec_with_l2,
)


class TestGpuSpec:
    def test_default_is_gtx_960m(self):
        spec = GpuSpec()
        assert spec.num_sms == 5
        assert spec.total_cores == 640
        assert spec.l2_bytes == 2 * 1024 * 1024
        assert spec.name == GTX_960M.name

    def test_line_geometry(self):
        spec = GpuSpec()
        assert spec.l2_line_bytes == 128
        assert spec.line_shift == 7
        assert 1 << spec.line_shift == spec.l2_line_bytes
        assert spec.l2_num_lines == spec.l2_bytes // 128
        assert spec.l2_num_sets * spec.l2_assoc == spec.l2_num_lines

    def test_rejects_bad_line_size(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(l2_line_bytes=96)

    def test_rejects_indivisible_l2(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(l2_bytes=100_000)

    def test_rejects_nonpositive_sms(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(num_sms=0)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "field",
        [
            "num_sms", "cores_per_sm", "schedulers_per_sm",
            "max_threads_per_sm", "max_warps_per_sm", "max_blocks_per_sm",
            "max_threads_per_block", "l2_bytes", "l2_line_bytes",
            "l2_assoc", "mem_bus_bytes",
        ],
    )
    def test_rejects_nonpositive_counts_and_sizes(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            GpuSpec(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "l2_hit_latency_cycles", "dram_fixed_latency_ns",
            "dram_freq_latency_ns", "dram_ref_mhz", "launch_gap_us",
        ],
    )
    def test_rejects_negative_latencies_and_gap(self, field):
        with pytest.raises(ConfigurationError, match=field):
            GpuSpec(**{field: -1})
        assert getattr(GpuSpec(**{field: 0}), field) == 0

    @pytest.mark.parametrize("value", [2.5, 5.0, "5", True, None])
    @pytest.mark.parametrize(
        "field",
        [
            "num_sms", "cores_per_sm", "schedulers_per_sm",
            "max_threads_per_sm", "max_warps_per_sm", "max_blocks_per_sm",
            "max_threads_per_block", "l2_bytes", "l2_line_bytes",
            "l2_assoc", "l2_hit_latency_cycles", "mem_bus_bytes",
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            GpuSpec(**{field: value})

    def test_accepts_numpy_integers(self):
        import numpy as np

        assert GpuSpec(num_sms=np.int64(4)).num_sms == 4

    @pytest.mark.parametrize(
        "field", ["dram_fixed_latency_ns", "dram_ref_mhz", "launch_gap_us"]
    )
    def test_time_and_frequency_fields_take_floats(self, field):
        assert getattr(GpuSpec(**{field: 2.5}), field) == 2.5

    def test_spec_with_l2(self):
        spec = spec_with_l2(GTX_960M, 512 * 1024)
        assert spec.l2_bytes == 512 * 1024
        assert spec.num_sms == GTX_960M.num_sms


class TestOccupancy:
    def test_blocks_per_sm_256_threads(self):
        # 2048 threads / 256 = 8 blocks; 64 warps / 8 warps = 8 blocks.
        assert GpuSpec().blocks_per_sm(256) == 8

    def test_blocks_per_sm_capped_by_block_limit(self):
        # 32-thread blocks: 2048/32 = 64, but max_blocks_per_sm = 32.
        assert GpuSpec().blocks_per_sm(32) == 32

    def test_blocks_per_sm_large_blocks(self):
        assert GpuSpec().blocks_per_sm(1024) == 2

    def test_rejects_oversized_block(self):
        with pytest.raises(ConfigurationError):
            GpuSpec().blocks_per_sm(2048)

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ConfigurationError):
            GpuSpec().blocks_per_sm(0)

    def test_resident_warps_small_launch(self):
        spec = GpuSpec()
        # One block on the whole device: one resident block on one SM.
        assert spec.resident_warps(256, 1) == 256 // WARP_SIZE

    def test_resident_warps_saturates(self):
        spec = GpuSpec()
        full = spec.resident_warps(256, 10_000)
        assert full == spec.blocks_per_sm(256) * (256 // WARP_SIZE)

    def test_resident_warps_monotone_in_blocks(self):
        spec = GpuSpec()
        values = [spec.resident_warps(256, n) for n in (1, 5, 10, 40, 100)]
        assert values == sorted(values)

    def test_occupancy_fraction(self):
        spec = GpuSpec()
        assert spec.occupancy(256) == pytest.approx(1.0)
        assert 0.0 < spec.occupancy(1024) <= 1.0


class TestPresets:
    def test_presets_are_valid(self):
        for preset in (GTX_960M, EMBEDDED_GPU, DESKTOP_GPU):
            assert preset.l2_num_sets > 0
            assert preset.blocks_per_sm(256) >= 1

    def test_embedded_is_smaller(self):
        assert EMBEDDED_GPU.l2_bytes < GTX_960M.l2_bytes < DESKTOP_GPU.l2_bytes
