"""Tests for Algorithm 2 (ClusterTile)."""

import pytest

from repro.analyzer import (
    BlockMemoryLines,
    build_block_graph,
    run_instrumented,
)
from repro.apps import build_jacobi_pingpong, build_pipeline
from repro.core.cluster_tile import (
    cluster_sinks,
    cluster_tile,
    in_cluster_input_combo,
)
from repro.core.profiler import KernelProfiler, LazyPerfTables
from repro.core.subkernel import check_partition
from repro.errors import TilingError
from repro.gpusim import NOMINAL, GpuSpec


def analyze(graph, spec):
    run = run_instrumented(graph)
    bdg = build_block_graph(run.trace)
    lines = BlockMemoryLines.from_trace(
        run.trace, graph, spec.l2_line_bytes, spec.line_shift
    )
    return bdg, lines


def test_dotted_import_binds_the_module():
    """``repro.core`` does not re-export the function under its
    submodule's name, so a dotted import binds the module."""
    import inspect

    import repro.core.cluster_tile as m

    assert inspect.ismodule(m)
    assert m.cluster_tile is cluster_tile and callable(m.tile_structure)


@pytest.fixture(scope="module")
def pipeline_setup():
    spec = GpuSpec()
    app = build_pipeline(size=512, with_copies=False)
    bdg, lines = analyze(app.graph, spec)
    profiler = KernelProfiler(spec)
    tables = LazyPerfTables(profiler, NOMINAL)
    return app, spec, bdg, lines, tables


class TestHelpers:
    def test_cluster_sinks(self, pipeline_setup):
        app, *_ = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        assert cluster_sinks(graph, {a, b}) == [b]
        assert cluster_sinks(graph, {a}) == [a]

    def test_in_cluster_input_combo(self, pipeline_setup):
        app, *_ = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        assert in_cluster_input_combo(graph, b, {a, b}) == frozenset({"gray"})
        assert in_cluster_input_combo(graph, b, {b}) == frozenset()
        assert in_cluster_input_combo(graph, a, {a, b}) == frozenset()


class TestPipelineTiling:
    def test_tiling_partitions_blocks(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        tiling = cluster_tile({a, b}, graph, bdg, lines, tables, spec.l2_bytes)
        assert tiling is not None
        check_partition(
            tiling.subkernels,
            {a: graph.node(a).num_blocks, b: graph.node(b).num_blocks},
        )
        assert tiling.rounds > 1  # 512x512 rgba does not fit 2 MB
        assert tiling.cost_us > 0

    def test_tiling_respects_dependencies(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        tiling = cluster_tile({a, b}, graph, bdg, lines, tables, spec.l2_bytes)
        done = set()
        for sub in tiling.subkernels:
            for key in sub.keys():
                for pred in bdg.all_predecessors(key):
                    if pred[0] in (a, b):
                        assert pred in done
            done.update(sub.keys())

    def test_each_round_fits_cache(self, pipeline_setup):
        """Re-check the footprint constraint from the produced rounds."""
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        tiling = cluster_tile({a, b}, graph, bdg, lines, tables, spec.l2_bytes)
        rounds = {}
        for sub in tiling.subkernels:
            round_tag = sub.label.rsplit("/r", 1)[-1]
            rounds.setdefault(round_tag, []).extend(sub.keys())
        for keys in rounds.values():
            assert lines.footprint_bytes(keys) <= spec.l2_bytes

    def test_single_node_cluster(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        tiling = cluster_tile({a}, graph, bdg, lines, tables, spec.l2_bytes)
        assert tiling is not None
        total = sum(s.num_blocks for s in tiling.subkernels)
        assert total == graph.node(a).num_blocks

    def test_untileable_when_cache_tiny(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        # One consumer block + its producers exceed a 1 KB "cache".
        tiling = cluster_tile({a, b}, graph, bdg, lines, tables, 1024)
        assert tiling is None

    def test_empty_cluster_rejected(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        with pytest.raises(TilingError):
            cluster_tile(set(), app.graph, bdg, lines, tables, spec.l2_bytes)

    def test_launch_overhead_increases_cost(self, pipeline_setup):
        app, spec, bdg, lines, tables = pipeline_setup
        graph = app.graph
        a = graph.node_by_name("A.grayscale").node_id
        b = graph.node_by_name("B.downscale").node_id
        cheap = cluster_tile({a, b}, graph, bdg, lines, tables, spec.l2_bytes)
        costly = cluster_tile(
            {a, b}, graph, bdg, lines, tables, spec.l2_bytes,
            launch_overhead_us=10.0,
        )
        assert costly.cost_us == pytest.approx(
            cheap.cost_us + 10.0 * costly.num_launches
        )


class TestJacobiTiling:
    @pytest.fixture(scope="class")
    def jacobi_setup(self):
        spec = GpuSpec(l2_bytes=256 * 1024)
        app = build_jacobi_pingpong(iters=4, size=128)
        bdg, lines = analyze(app.graph, spec)
        profiler = KernelProfiler(spec)
        tables = LazyPerfTables(profiler, NOMINAL)
        return app, spec, bdg, lines, tables

    def test_stencil_chain_tiles_and_respects_order(self, jacobi_setup):
        app, spec, bdg, lines, tables = jacobi_setup
        graph = app.graph
        ji = [graph.node_by_name(f"JI.{i}").node_id for i in range(4)]
        tiling = cluster_tile(set(ji), graph, bdg, lines, tables, spec.l2_bytes)
        assert tiling is not None
        node_blocks = {n: graph.node(n).num_blocks for n in ji}
        check_partition(tiling.subkernels, node_blocks)
        done = set()
        for sub in tiling.subkernels:
            for key in sub.keys():
                for pred in bdg.all_predecessors(key):
                    if pred[0] in set(ji):
                        assert pred in done, f"{key} before {pred}"
            done.update(sub.keys())

    def test_interleaving_actually_happens(self, jacobi_setup):
        """Sub-kernels of different JI nodes alternate (tiling, not serial)."""
        app, spec, bdg, lines, tables = jacobi_setup
        graph = app.graph
        ji = [graph.node_by_name(f"JI.{i}").node_id for i in range(4)]
        tiling = cluster_tile(set(ji), graph, bdg, lines, tables, spec.l2_bytes)
        node_sequence = [s.node_id for s in tiling.subkernels]
        # A serial schedule would be sorted; tiling interleaves.
        assert node_sequence != sorted(node_sequence)
