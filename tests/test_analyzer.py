"""Tests for the block analyzer: instrumentation, dependencies, footprints."""

import pytest

from repro.analyzer import (
    BlockMemoryLines,
    build_block_graph,
    run_instrumented,
)
from repro.apps import build_jacobi_pingpong, build_pipeline
from repro.errors import GraphError
from repro.gpusim import GpuSimulator, GpuSpec
from tests.oracles import FootprintAccumulator


@pytest.fixture(scope="module")
def pipeline():
    app = build_pipeline(size=256, with_copies=False)
    run = run_instrumented(app.graph)
    return app, run


@pytest.fixture(scope="module")
def jacobi():
    app = build_jacobi_pingpong(iters=4, size=64)
    run = run_instrumented(app.graph)
    return app, run


class TestInstrumentation:
    def test_trace_covers_every_block(self, pipeline):
        app, run = pipeline
        assert run.total_blocks == app.graph.total_blocks()
        for node in app.graph:
            assert sorted(run.trace.blocks_of_node(node.node_id)) == list(
                node.kernel.all_block_ids()
            )

    def test_records_have_line_sets(self, pipeline):
        _, run = pipeline
        for record in run.trace:
            assert record.written_lines or record.read_lines
            assert record.touched_lines == record.read_lines | record.written_lines

    def test_one_launch_per_node(self, pipeline):
        app, run = pipeline
        assert len(run.launches) == len(app.graph)

    def test_reuses_supplied_simulator(self):
        app = build_pipeline(size=64, with_copies=False)
        sim = GpuSimulator()
        sim.l2.touch_many(range(100))
        run = run_instrumented(app.graph, sim)
        assert run.total_blocks > 0  # and the pre-warmed cache was flushed

    def test_trace_node_ids(self, pipeline):
        app, run = pipeline
        assert set(run.trace.node_ids()) == {n.node_id for n in app.graph}


class TestDependencyConstruction:
    def test_figure1b_block_dependencies(self, pipeline):
        """Each downscale block depends on exactly 4 grayscale blocks.

        256x256 grayscale with 32x8 blocks feeding a 128x128 downscale:
        one consumer tile covers a 64x16 input region = 2x2 producer
        blocks (the paper's Figure 1(b) shows the same 4-block shape).
        """
        app, run = pipeline
        bdg = build_block_graph(run.trace)
        gray_node = app.graph.node_by_name("A.grayscale").node_id
        down_node = app.graph.node_by_name("B.downscale").node_id
        for bid in app.graph.node(down_node).kernel.all_block_ids():
            producers = bdg.producers((down_node, bid))
            assert len(producers) == 4
            assert all(key[0] == gray_node for key in producers)

    def test_producer_coords_match_geometry(self, pipeline):
        app, run = pipeline
        bdg = build_block_graph(run.trace)
        gray = app.graph.node_by_name("A.grayscale")
        down = app.graph.node_by_name("B.downscale")
        # Consumer block (0,0) covers out[0:8, 0:32] -> in[0:16, 0:64]
        # -> producer blocks (0,0), (1,0), (0,1), (1,1).
        producers = bdg.producers((down.node_id, 0))
        coords = {gray.kernel.block_coords(bid) for _, bid in producers}
        assert coords == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_jacobi_stencil_neighbourhood(self, jacobi):
        """An interior JI block depends on the 3x3 producer neighbourhood."""
        app, run = jacobi
        bdg = build_block_graph(run.trace)
        ji0 = app.graph.node_by_name("JI.0")
        ji1 = app.graph.node_by_name("JI.1")
        kernel = ji1.kernel
        # Pick an interior block (grid is 2x8 for 64x64 images).
        interior = kernel.block_id(1, 4)
        producers = [
            key for key in bdg.producers((ji1.node_id, interior))
            if key[0] == ji0.node_id
        ]
        px, py = kernel.block_coords(interior)
        expected = {
            kernel.block_id(px + dx, py + dy)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if 0 <= px + dx < kernel.grid_x and 0 <= py + dy < kernel.grid_y
        }
        assert {bid for _, bid in producers} == expected

    def test_pingpong_creates_anti_dependencies(self, jacobi):
        """JI.2 overwrites du1, which JI.0 wrote: WAW constraints exist.

        (The WAR hazards against JI.1 coincide with JI.2's RAW
        producers — the same 3x3 block neighbourhood — so they dedupe
        into the producer set; the WAW against JI.0 survives as a
        distinct anti edge.)
        """
        app, run = jacobi
        bdg = build_block_graph(run.trace)
        ji0 = app.graph.node_by_name("JI.0").node_id
        ji1 = app.graph.node_by_name("JI.1").node_id
        ji2 = app.graph.node_by_name("JI.2").node_id
        anti_sources = set()
        raw_sources = set()
        for bid in bdg.blocks_of_node(ji2):
            anti_sources.update(k[0] for k in bdg.anti_producers((ji2, bid)))
            raw_sources.update(k[0] for k in bdg.producers((ji2, bid)))
        assert ji0 in anti_sources
        assert ji1 in raw_sources  # WAR vs JI.1 folds into RAW

    def test_raw_only_mode_drops_anti(self, jacobi):
        app, run = jacobi
        bdg = build_block_graph(run.trace, include_anti=False)
        for key in bdg:
            assert bdg.anti_producers(key) == ()

    def test_no_intra_kernel_dependencies(self, pipeline):
        _, run = pipeline
        bdg = build_block_graph(run.trace)
        for key in bdg:
            assert all(p[0] != key[0] for p in bdg.producers(key))


class TestMemoryLines:
    def test_table_covers_trace(self, pipeline):
        app, run = pipeline
        spec = GpuSpec()
        table = BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )
        assert len(table) == run.total_blocks
        for record in run.trace:
            assert table.lines_of(record.key) == record.touched_lines

    def test_missing_block_raises(self, pipeline):
        app, run = pipeline
        spec = GpuSpec()
        table = BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )
        with pytest.raises(GraphError):
            table.lines_of((999, 0))

    def test_footprint_subadditive(self, pipeline):
        app, run = pipeline
        spec = GpuSpec()
        table = BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )
        keys = [r.key for r in run.trace][:10]
        union = table.footprint_lines(keys)
        total = sum(table.footprint_lines([k]) for k in keys)
        assert union <= total
        assert table.footprint_bytes(keys) == union * spec.l2_line_bytes


class TestFootprintAccumulator:
    @pytest.fixture
    def table(self, pipeline):
        app, run = pipeline
        spec = GpuSpec()
        return BlockMemoryLines.from_trace(
            run.trace, app.graph, spec.l2_line_bytes, spec.line_shift
        )

    def test_try_add_within_budget(self, table, pipeline):
        _, run = pipeline
        keys = [r.key for r in run.trace][:4]
        acc = FootprintAccumulator(table, budget_bytes=10 * 1024 * 1024)
        assert acc.try_add(keys)
        assert acc.footprint_lines == table.footprint_lines(keys)

    def test_try_add_rejects_and_preserves_state(self, table, pipeline):
        _, run = pipeline
        keys = [r.key for r in run.trace]
        acc = FootprintAccumulator(table, budget_bytes=4096)
        before = acc.footprint_lines
        assert not acc.try_add(keys)  # whole app >> 4 KB
        assert acc.footprint_lines == before

    def test_would_fit_is_pure(self, table, pipeline):
        _, run = pipeline
        keys = [r.key for r in run.trace][:4]
        acc = FootprintAccumulator(table, budget_bytes=10 * 1024 * 1024)
        assert acc.would_fit(keys)
        assert acc.footprint_lines == 0

    def test_reset(self, table, pipeline):
        _, run = pipeline
        acc = FootprintAccumulator(table, budget_bytes=10 * 1024 * 1024)
        acc.try_add([run.trace.records_for_node(0)[0].key])
        acc.reset()
        assert acc.footprint_lines == 0

    def test_budget_validation(self, table):
        with pytest.raises(GraphError):
            FootprintAccumulator(table, budget_bytes=0)
