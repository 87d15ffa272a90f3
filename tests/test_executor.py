"""Unit tests for the launch simulator and timing model."""

import pytest

from repro.errors import SimulationError
from repro.gpusim import (
    FrequencyConfig,
    GpuSimulator,
    GpuSpec,
    NOMINAL,
    time_launch,
)
from repro.gpusim.dram import DramModel
from repro.graph.buffers import BufferAllocator
from repro.kernels.pointwise import MemsetKernel, ScaleKernel


def make_scale(size=256):
    alloc = BufferAllocator()
    src = alloc.new_image("src", size, size)
    out = alloc.new_image("out", size, size)
    return alloc, ScaleKernel(src, out, 2.0)


class TestTally:
    def test_counts_blocks_and_accesses(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        tally = sim.tally_launch(kernel)
        assert tally.num_blocks == kernel.num_blocks
        assert tally.accesses > 0
        assert tally.hits + tally.misses == tally.accesses

    def test_blocks_distributed_round_robin(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        tally = sim.tally_launch(kernel)
        # With 256 blocks over 5 SMs nobody should sit idle.
        assert all(issue > 0 for issue in tally.per_sm_issue)

    def test_empty_launch_rejected(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        with pytest.raises(SimulationError):
            sim.launch(kernel, block_ids=[])

    def test_sub_launch(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        tally = sim.tally_launch(kernel, block_ids=range(4))
        assert tally.num_blocks == 4

    def test_cold_run_misses_everything(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        tally = sim.tally_launch(kernel)
        assert tally.hit_rate == 0.0  # pure streaming kernel, cold cache

    def test_cache_persists_across_launches(self):
        alloc = BufferAllocator()
        src = alloc.new_image("src", 64, 64)  # 16 KB: far below L2
        out = alloc.new_image("out", 64, 64)
        sim = GpuSimulator()
        sim.launch(MemsetKernel(src, 1.0))
        tally = sim.tally_launch(ScaleKernel(src, out, 2.0))
        # Every read (of the producer's output) hits; only the cold
        # writes of `out` miss -> exactly half the accesses hit.
        assert tally.hits == len(set(src.lines(sim.spec.line_shift)))
        assert tally.hit_rate == pytest.approx(0.5)

    def test_reset_cache_restores_cold(self):
        alloc = BufferAllocator()
        src = alloc.new_image("src", 64, 64)
        out = alloc.new_image("out", 64, 64)
        sim = GpuSimulator()
        sim.launch(MemsetKernel(src, 1.0))
        sim.reset_cache()
        tally = sim.tally_launch(ScaleKernel(src, out, 2.0))
        assert tally.hit_rate == 0.0


class TestTiming:
    def test_warm_is_faster_than_cold(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        alloc = BufferAllocator()
        src = alloc.new_image("src", 256, 256)
        out = alloc.new_image("out", 256, 256)
        kernel = ScaleKernel(src, out, 2.0)
        cold_sim = GpuSimulator(spec)
        cold = cold_sim.tally_launch(kernel)
        warm_sim = GpuSimulator(spec)
        warm_sim.l2.touch_many(src.lines(spec.line_shift))
        warm = warm_sim.tally_launch(kernel)
        t_cold = time_launch(cold, spec, dram, NOMINAL)
        t_warm = time_launch(warm, spec, dram, NOMINAL)
        assert warm.hit_rate > cold.hit_rate
        assert t_warm.time_us < t_cold.time_us

    def test_lower_memory_frequency_slows_missy_kernel(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        _, kernel = make_scale()
        tally = GpuSimulator(spec).tally_launch(kernel)
        fast = time_launch(tally, spec, dram, FrequencyConfig(1324, 5010))
        slow = time_launch(tally, spec, dram, FrequencyConfig(1324, 800))
        assert slow.time_us > fast.time_us

    def test_lower_gpu_frequency_slows_everything(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        _, kernel = make_scale()
        tally = GpuSimulator(spec).tally_launch(kernel)
        fast = time_launch(tally, spec, dram, FrequencyConfig(1324, 2505))
        slow = time_launch(tally, spec, dram, FrequencyConfig(405, 2505))
        assert slow.time_us > fast.time_us

    def test_retiming_matches_direct_launch(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        _, kernel = make_scale()
        freq = FrequencyConfig(1189, 2505)
        direct = GpuSimulator(spec, freq).launch(kernel)
        tally = GpuSimulator(spec).tally_launch(kernel)
        retimed = time_launch(tally, spec, dram, freq)
        assert retimed.time_us == pytest.approx(direct.time_us)

    def test_timing_breakdown_accounted(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        _, kernel = make_scale()
        tally = GpuSimulator(spec).tally_launch(kernel)
        timing = time_launch(tally, spec, dram, NOMINAL)
        assert timing.issue_cycles > 0
        assert timing.mem_stall_cycles > 0
        assert timing.other_stall_cycles > 0
        assert 0.0 < timing.warp_issue_efficiency < 1.0
        assert 0.0 <= timing.memory_stall_fraction <= 1.0

    def test_missy_launch_is_bandwidth_bound_at_low_mem_freq(self):
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        _, kernel = make_scale()
        tally = GpuSimulator(spec).tally_launch(kernel)
        timing = time_launch(tally, spec, dram, FrequencyConfig(1324, 405))
        assert timing.bandwidth_bound


class TestUtilization:
    def test_throughput_rises_with_grid_to_saturation(self):
        """Small launches under-utilize the device (Fig. 3 rising part)."""
        spec = GpuSpec()
        dram = DramModel.from_spec(spec)
        alloc = BufferAllocator()
        src = alloc.new_image("src", 512, 512)
        out = alloc.new_image("out", 512, 512)
        kernel = ScaleKernel(src, out, 2.0)
        throughputs = []
        for grid in (1, 5, 40):
            sim = GpuSimulator(spec)
            # Pre-warm all data so neither misses nor bandwidth interfere
            # and only the utilization effect remains.
            sim.l2 = _infinite_cache(spec)
            sim.l2.touch_many(src.lines(spec.line_shift))
            sim.l2.touch_many(out.lines(spec.line_shift))
            tally = sim.tally_launch(kernel, range(grid))
            assert tally.misses == 0
            timing = time_launch(tally, spec, dram, NOMINAL)
            throughputs.append(grid / timing.time_us)
        assert throughputs[0] < throughputs[1] < throughputs[2]


def _infinite_cache(spec):
    from repro.gpusim.fast_cache import FastSetAssocCache

    return FastSetAssocCache(
        spec.l2_num_sets * 64, spec.l2_assoc, spec.l2_line_bytes
    )


class TestSimulatorLifecycle:
    def test_launch_history(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        sim.launch(kernel)
        sim.launch(kernel)
        assert len(sim.launches) == 2
        assert sim.total_time_us > 0
        sim.reset()
        assert sim.launches == []
        assert sim.l2.stats.accesses == 0

    def test_set_frequency(self):
        _, kernel = make_scale()
        sim = GpuSimulator()
        slow_freq = FrequencyConfig(405, 810)
        sim.set_frequency(slow_freq)
        result = sim.launch(kernel)
        assert result.freq == slow_freq

    def test_copy_to_device_warms_cache(self):
        alloc = BufferAllocator()
        buf = alloc.new_image("buf", 64, 64)
        sim = GpuSimulator()
        us = sim.copy_to_device(buf)
        assert us > 0
        assert sim.l2.contains(next(iter(buf.lines(sim.spec.line_shift))))
