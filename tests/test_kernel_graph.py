"""Unit tests for the application graph (edge inference, validation)."""

import pytest

from repro.errors import GraphError
from repro.graph.buffers import BufferAllocator
from repro.graph.kernel_graph import EdgeKind, KernelGraph
from repro.kernels.pointwise import AddKernel, MemsetKernel, ScaleKernel

SIZE = 64


@pytest.fixture
def alloc():
    return BufferAllocator()


def images(alloc, *names):
    return [alloc.new_image(n, SIZE, SIZE) for n in names]


class TestEdgeInference:
    def test_raw_edge_from_last_writer(self, alloc):
        a, b, c = images(alloc, "a", "b", "c")
        g = KernelGraph()
        n0 = g.add(MemsetKernel(a, 1.0), name="init")
        n1 = g.add(ScaleKernel(a, b, 2.0), name="s1")
        n2 = g.add(ScaleKernel(b, c, 2.0), name="s2")
        data = g.data_edges()
        assert {(e.src, e.dst, e.buffer.name) for e in data} == {
            (n0, n1, "a"),
            (n1, n2, "b"),
        }

    def test_no_edge_for_unwritten_input(self, alloc):
        a, b = images(alloc, "a", "b")
        g = KernelGraph()
        g.add(ScaleKernel(a, b, 2.0))  # 'a' never written before
        assert g.data_edges() == []

    def test_war_edge(self, alloc):
        a, b = images(alloc, "a", "b")
        g = KernelGraph()
        n0 = g.add(MemsetKernel(a, 1.0))
        n1 = g.add(ScaleKernel(a, b, 2.0))  # reads a
        n2 = g.add(MemsetKernel(a, 0.0))  # rewrites a: WAR on n1
        antis = [e for e in g.edges if e.kind is EdgeKind.ANTI]
        assert (n1, n2) in {(e.src, e.dst) for e in antis}

    def test_waw_edge(self, alloc):
        (a,) = images(alloc, "a")
        g = KernelGraph()
        n0 = g.add(MemsetKernel(a, 1.0))
        n1 = g.add(MemsetKernel(a, 2.0))
        antis = [e for e in g.edges if e.kind is EdgeKind.ANTI]
        assert {(e.src, e.dst) for e in antis} == {(n0, n1)}

    def test_pingpong_chain_edges(self, alloc):
        a, b = images(alloc, "a", "b")
        g = KernelGraph()
        g.add(MemsetKernel(a, 1.0))
        for i in range(4):
            src, dst = (a, b) if i % 2 == 0 else (b, a)
            g.add(ScaleKernel(src, dst, 2.0), name=f"s{i}")
        # Each scale has one data input edge, and WAW/WAR constraints
        # serialize the reuse of the overwritten buffer.
        for node in list(g)[1:]:
            assert len(g.edges_in(node.node_id, data_only=True)) == 1
        assert any(e.kind is EdgeKind.ANTI for e in g.edges)

    def test_in_place_rejected(self, alloc):
        (a,) = images(alloc, "a")
        g = KernelGraph()
        with pytest.raises(GraphError):
            g.add(ScaleKernel(a, a, 2.0))


class TestAccessors:
    def test_node_lookup(self, diamond_app):
        g = diamond_app.graph
        assert g.node(0).name == "init"
        assert g.node_by_name("sum").kernel.name == "add"
        with pytest.raises(GraphError):
            g.node(99)
        with pytest.raises(GraphError):
            g.node_by_name("nope")

    def test_negative_node_id_is_unknown(self, diamond_app):
        """A negative id must not index from the end of the node list."""
        g = diamond_app.graph
        for node_id in (-1, -len(g.nodes), -len(g.nodes) - 1):
            with pytest.raises(GraphError, match=f"unknown node id {node_id}"):
                g.node(node_id)

    def test_successors_predecessors(self, diamond_app):
        g = diamond_app.graph
        init = g.node_by_name("init").node_id
        total = g.node_by_name("sum").node_id
        succ = g.successors(init, data_only=True)
        assert len(succ) == 2
        assert set(g.predecessors(total, data_only=True)) == set(succ)

    def test_histogram(self, diamond_app):
        hist = diamond_app.graph.kernel_name_histogram()
        assert hist["scale"] == 2
        assert hist["add"] == 1

    def test_total_blocks(self, diamond_app):
        g = diamond_app.graph
        assert g.total_blocks() == sum(n.num_blocks for n in g)

    def test_summary_mentions_counts(self, diamond_app):
        assert "4 nodes" in diamond_app.graph.summary()


class TestReachability:
    def test_reaches(self, diamond_app):
        g = diamond_app.graph
        init = g.node_by_name("init").node_id
        total = g.node_by_name("sum").node_id
        left = g.node_by_name("left").node_id
        right = g.node_by_name("right").node_id
        assert g.reaches(init, total)
        assert g.reaches(left, total)
        assert not g.reaches(left, right)
        assert not g.reaches(total, init)

    def test_validate_passes_on_well_formed(self, diamond_app):
        diamond_app.graph.validate()

    def test_topological_order_is_insertion_order(self, diamond_app):
        g = diamond_app.graph
        order = g.topological_order()
        assert order == sorted(order)
        position = {n: i for i, n in enumerate(order)}
        for e in g.edges:
            assert position[e.src] < position[e.dst]
