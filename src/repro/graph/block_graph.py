"""Block-level dependency graph.

The application graph only captures coarse, kernel-level dependencies;
for tiling the scheduler needs to know *which producer blocks* each
consumer block actually reads (paper §IV-B1, Figure 1(b)).  A
:class:`BlockDependencyGraph` stores exactly that relation over global
block keys ``(node_id, block_id)``:

* ``producers(key)`` — the RAW dependencies: blocks (of other nodes)
  that wrote a line this block reads;
* ``anti_producers(key)`` — WAR/WAW serialization constraints: blocks
  that read or wrote a line this block overwrites (not part of the
  paper's dependency definition, but required for functional
  correctness with buffer reuse; the scheduler treats them as ordinary
  ordering constraints with no cache benefit).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.errors import GraphError
from repro.gpusim.trace import BlockKey


class BlockIdView:
    """Integer view of a block graph: block ``(v, b)`` is id ``base[v] + b``.

    Ids of one node are contiguous and follow its block ids, and nodes
    follow their node ids, so sorting ids sorts ``(node, block)`` keys.
    Per block id the view keeps:

    * ``preds`` — predecessor ids in :meth:`BlockDependencyGraph.all_predecessors`
      order (:meth:`~BlockDependencyGraph.producers` order when built
      without anti-dependencies);
    * ``succs`` — successor ids: RAW consumers in
      :meth:`~BlockDependencyGraph.consumers` order, then (with
      anti-dependencies) the anti-consumers;
    * ``num_consumers`` — how many leading ``succs`` are RAW consumers.

    ``sizes[v]`` is node ``v``'s block count, or -1 when the graph does
    not hold all of blocks ``0 .. max`` of that node.  Built once per
    graph and dependency variant by :meth:`BlockDependencyGraph.id_view`;
    read-only after that.
    """

    __slots__ = ("base", "sizes", "num_blocks", "preds", "succs", "num_consumers")

    def __init__(self, graph: "BlockDependencyGraph", include_anti: bool):
        num_nodes = max(graph._node_blocks, default=-1) + 1
        spans = [0] * num_nodes
        self.sizes: List[int] = [0] * num_nodes
        for node, blocks in graph._node_blocks.items():
            spans[node] = max(blocks) + 1
            self.sizes[node] = len(blocks) if len(blocks) == spans[node] else -1
        self.base: List[int] = [0] * num_nodes
        offset = 0
        for node, span in enumerate(spans):
            self.base[node] = offset
            offset += span
        self.num_blocks = offset
        # One int object per block id, shared by every tuple below.
        ids = {
            (node, bid): self.base[node] + bid
            for node, blocks in graph._node_blocks.items()
            for bid in blocks
        }
        id_of = ids.__getitem__
        self.preds: List[Tuple[int, ...]] = [()] * offset
        self.succs: List[Tuple[int, ...]] = [()] * offset
        self.num_consumers: List[int] = [0] * offset
        for key, block_id in ids.items():
            preds = graph._producers[key]
            consumers = graph._consumers.get(key, ())
            succs = consumers
            if include_anti:
                preds = preds + graph._anti[key]
                succs = list(consumers) + graph._anti_consumers.get(key, [])
            if preds:
                self.preds[block_id] = tuple(map(id_of, preds))
            if succs:
                self.succs[block_id] = tuple(map(id_of, succs))
            self.num_consumers[block_id] = len(consumers)


class BlockDependencyGraph:
    """Immutable-after-build block dependency relation."""

    def __init__(self) -> None:
        self._producers: Dict[BlockKey, Tuple[BlockKey, ...]] = {}
        self._anti: Dict[BlockKey, Tuple[BlockKey, ...]] = {}
        self._consumers: Dict[BlockKey, List[BlockKey]] = {}
        self._anti_consumers: Dict[BlockKey, List[BlockKey]] = {}
        self._node_blocks: Dict[int, List[int]] = {}
        self._id_views: Dict[bool, BlockIdView] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_block(
        self,
        key: BlockKey,
        producers: Iterable[BlockKey],
        anti_producers: Iterable[BlockKey] = (),
    ) -> None:
        if key in self._producers:
            raise GraphError(f"block {key} added twice")
        prods = tuple(sorted(set(producers)))
        for prod in prods:
            if prod not in self._producers:
                raise GraphError(
                    f"block {key} depends on unknown block {prod} "
                    "(blocks must be added in execution order)"
                )
            if prod[0] == key[0]:
                raise GraphError(
                    f"intra-kernel dependency {prod} -> {key} is not allowed"
                )
        self._producers[key] = prods
        self._anti[key] = tuple(sorted(set(anti_producers) - set(prods)))
        for prod in prods:
            self._consumers.setdefault(prod, []).append(key)
        for anti in self._anti[key]:
            self._anti_consumers.setdefault(anti, []).append(key)
        self._node_blocks.setdefault(key[0], []).append(key[1])
        self._id_views.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, key: BlockKey) -> bool:
        return key in self._producers

    def __len__(self) -> int:
        return len(self._producers)

    def __iter__(self) -> Iterator[BlockKey]:
        return iter(self._producers)

    def producers(self, key: BlockKey) -> Tuple[BlockKey, ...]:
        """Direct RAW dependencies of a block."""
        try:
            return self._producers[key]
        except KeyError:
            raise GraphError(f"unknown block {key}") from None

    def anti_producers(self, key: BlockKey) -> Tuple[BlockKey, ...]:
        """Direct WAR/WAW predecessors of a block."""
        try:
            return self._anti[key]
        except KeyError:
            raise GraphError(f"unknown block {key}") from None

    def all_predecessors(self, key: BlockKey) -> Tuple[BlockKey, ...]:
        """Direct predecessors of both kinds."""
        return self.producers(key) + self.anti_producers(key)

    def consumers(self, key: BlockKey) -> Tuple[BlockKey, ...]:
        """Blocks with a RAW dependency on ``key``."""
        return tuple(self._consumers.get(key, ()))

    def anti_consumers(self, key: BlockKey) -> Tuple[BlockKey, ...]:
        """Blocks with a WAR/WAW dependency on ``key`` (inverse of
        :meth:`anti_producers`)."""
        return tuple(self._anti_consumers.get(key, ()))

    def id_view(self, include_anti: bool = True) -> BlockIdView:
        """The integer view of this graph (built on first use, then shared)."""
        view = self._id_views.get(include_anti)
        if view is None:
            view = self._id_views[include_anti] = BlockIdView(self, include_anti)
        return view

    def blocks_of_node(self, node_id: int) -> List[int]:
        return list(self._node_blocks.get(node_id, ()))

    def node_ids(self) -> List[int]:
        return list(self._node_blocks)

    def num_dependencies(self) -> int:
        return sum(len(v) for v in self._producers.values())

    def transitive_producers(
        self,
        keys: Iterable[BlockKey],
        within_nodes: Set[int] = None,
        include_anti: bool = True,
    ) -> Set[BlockKey]:
        """All direct and indirect dependencies of ``keys``.

        ``within_nodes`` restricts the traversal to blocks of the given
        graph nodes (the cluster being tiled); dependencies on blocks
        outside the restriction are not expanded and not returned —
        they are assumed satisfied by earlier clusters.

        The seed ``keys`` themselves are not included in the result.
        """
        seen: Set[BlockKey] = set()
        frontier: List[BlockKey] = list(keys)
        result: Set[BlockKey] = set()
        while frontier:
            key = frontier.pop()
            preds = (
                self.all_predecessors(key) if include_anti else self.producers(key)
            )
            for pred in preds:
                if pred in seen:
                    continue
                seen.add(pred)
                if within_nodes is not None and pred[0] not in within_nodes:
                    continue
                result.add(pred)
                frontier.append(pred)
        return result

    def dependencies_satisfied(
        self,
        key: BlockKey,
        done: Set[BlockKey],
        within_nodes: Set[int] = None,
        include_anti: bool = True,
    ) -> bool:
        """True if every predecessor (optionally restricted) is in ``done``."""
        preds = self.all_predecessors(key) if include_anti else self.producers(key)
        for pred in preds:
            if within_nodes is not None and pred[0] not in within_nodes:
                continue
            if pred not in done:
                return False
        return True

    def summary(self) -> str:
        return (
            f"BlockDependencyGraph: {len(self)} blocks over "
            f"{len(self._node_blocks)} nodes, "
            f"{self.num_dependencies()} RAW deps, "
            f"{sum(len(v) for v in self._anti.values())} anti deps"
        )
