"""Incremental-reachability partition engine (the "fast" planner backend).

:class:`FastPartition` is a drop-in replacement for
:class:`repro.core.cluster.Partition` that kills Algorithm 1's
superlinear validity cost.  The reference partition answers
:meth:`~repro.core.cluster.Partition.can_merge` with a from-scratch
quotient BFS per candidate (``_path_through_third``), which the PR 6
chain-ladder sweep pinned at ~n^2.2 ``planner.merge_probes``; and its
:meth:`~repro.core.cluster.Partition.merged` copies every quotient dict
(O(V+E) per adopted merge).  This backend is **bit-identical by
contract**: same ``can_merge`` verdicts, same quotient adjacency, same
:meth:`topo_order`, and therefore the same adopted-merge sequences,
schedules, and golden fixtures for either planner backend and any
store temperature.  ``tests/test_partition_differential.py``
enforces the contract on hypothesis-generated DAGs and probe graphs.

How the reachability index works
--------------------------------
Quotient reachability is kept as two NumPy bitset matrices over node
ids (cluster ids are node ids, so one row per node suffices):

* ``desc[c]`` — one bit per *strict* descendant of cluster ``c`` in the
  quotient graph;
* ``anc[c]`` — one bit per strict ancestor.

A merge of ``a`` and ``b`` is invalid exactly when a quotient path
connects them *through a third cluster* in either direction.  In a DAG
such a path exists iff some intermediate ``X ∉ {a, b}`` satisfies
``a ⇝ X ⇝ b`` — i.e. iff ``desc[a] & anc[b]`` is non-empty (both sets
are strict, so the bits of ``a`` and ``b`` can never appear in the
intersection).  The O(V) BFS per candidate becomes an O(words) bitwise
AND.

On an adopted merge the index is repaired *locally*: with ``D`` the
merged descendant row, ``A`` the merged ancestor row (bits of the two
merging clusters cleared), every ancestor row gains ``D`` plus the
surviving id and drops the dead id, every descendant row gains ``A``
likewise — rows outside ``A ∪ D`` provably contain neither merged
cluster, so nothing else can go stale.  The quotient adjacency and the
member maps are updated **in place** (the reference copies them), so an
adopted merge costs O(|A| + |D|) row operations instead of O(V+E).
Algorithm 1 only ever merges adoptively — tentative cost evaluation
happens on the candidate's node set, not on a partition copy — so
in-place mutation is safe; :meth:`snapshot` exists for callers (and the
differential suite) that do want an independent copy.

Work accounting
---------------
``merge_probes`` stays charged with the equivalent probe count — the
bitset words scanned per validity direction — so work-counter documents
remain comparable across planner backends, and the new
``reach_repairs`` counter charges the words written building and
repairing the index.  Both belong to the *validity family*
(:data:`repro.core.work.VALIDITY_COUNTERS`): deterministic for a given
planner backend but **planner-backend-local** by design, which is why
the planner backend participates in the plan-store fingerprint.

Backend selection
-----------------
With :func:`resolve_planner_backend`, an explicit argument wins over
the ``KTILER_PLANNER_BACKEND`` environment variable, which wins over
the caller's default.  The
core :class:`~repro.core.ktiler.KTiler` defaults to the reference
partition (the oracle); the experiment/profile/bench drivers default to
the fast backend.  ``pytest --planner-backend=...`` (root
``conftest.py``) and ``ktiler ... --planner-backend=...`` both feed
this resolver.
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, FrozenSet, List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graph.kernel_graph import KernelGraph

#: Environment variable consulted when no explicit backend is given.
PLANNER_BACKEND_ENV_VAR = "KTILER_PLANNER_BACKEND"

#: Recognized planner backend names.
PLANNER_BACKENDS = ("reference", "fast")

_WORD = np.uint64
_WORD_BITS = 64
_ONES = _WORD(0xFFFFFFFFFFFFFFFF)


def resolve_planner_backend(
    backend: Optional[str] = None, default: str = "reference"
) -> str:
    """Resolve a planner backend name: explicit arg > env var > default."""
    name = backend or os.environ.get(PLANNER_BACKEND_ENV_VAR) or default
    if name not in PLANNER_BACKENDS:
        raise ConfigurationError(
            f"unknown planner backend '{name}' "
            f"(expected one of {PLANNER_BACKENDS})"
        )
    return name


def make_partition(graph: KernelGraph, backend: Optional[str] = None, work=None):
    """Build the singleton partition of ``graph`` for a planner backend.

    ``work`` (a :class:`~repro.core.work.PlannerWork`) receives the
    fast backend's index-construction charge; the reference backend
    builds no index and charges nothing.
    """
    if resolve_planner_backend(backend) == "fast":
        return FastPartition.singletons(graph, work=work)
    from repro.core.cluster import Partition

    return Partition.singletons(graph)


def _mask(bit: int) -> np.uint64:
    return _WORD(1 << (bit & (_WORD_BITS - 1)))


def _bit_indices(row: np.ndarray) -> np.ndarray:
    """Indices of the set bits of one bitset row (ascending)."""
    return np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))


class FastPartition:
    """Array-backed partition with an incremental reachability index.

    Same API and same observable behaviour as the reference
    :class:`~repro.core.cluster.Partition` (cluster ids are the minimum
    member node id), except that :meth:`merged` mutates in place and
    returns ``self`` — Algorithm 1's ``partition = partition.merged(...)``
    call site works identically with either backend.
    """

    backend_name = "fast"

    def __init__(
        self,
        clusters: Dict[int, FrozenSet[int]],
        of: np.ndarray,
        qadj: Dict[int, Set[int]],
        qradj: Dict[int, Set[int]],
        desc: np.ndarray,
        anc: np.ndarray,
    ):
        self._clusters = clusters
        self._of = of
        self._qadj = qadj
        self._qradj = qradj
        self._desc = desc
        self._anc = anc
        self._n = of.shape[0]
        self._words = desc.shape[1]

    @classmethod
    def singletons(cls, graph: KernelGraph, work=None) -> "FastPartition":
        """The initial partition plus its full reachability closure.

        The closure is built in one topological pass per direction
        (``desc`` in reverse order, ``anc`` forward), charging
        ``reach_repairs`` with the ``2 * n * words`` bitset words
        written.
        """
        ids = sorted(n.node_id for n in graph)
        n = len(ids)
        if ids != list(range(n)):
            raise GraphError(
                "fast planner backend requires dense node ids 0..n-1"
            )
        words = max(1, (n + _WORD_BITS - 1) // _WORD_BITS)
        clusters = {i: frozenset((i,)) for i in ids}
        of = np.arange(n, dtype=np.int64)
        qadj: Dict[int, Set[int]] = {i: set() for i in ids}
        qradj: Dict[int, Set[int]] = {i: set() for i in ids}
        for edge in graph.edges:
            qadj[edge.src].add(edge.dst)
            qradj[edge.dst].add(edge.src)

        order = _toposort(ids, qadj, qradj)
        desc = np.zeros((n, words), dtype=_WORD)
        anc = np.zeros((n, words), dtype=_WORD)
        for u in reversed(order):
            row = desc[u]
            for s in qadj[u]:
                row |= desc[s]
                row[s >> 6] |= _mask(s)
        for v in order:
            row = anc[v]
            for p in qradj[v]:
                row |= anc[p]
                row[p >> 6] |= _mask(p)
        if work is not None:
            work.reach_repairs += 2 * n * words
        return cls(clusters, of, qadj, qradj, desc, anc)

    # ------------------------------------------------------------------
    def cluster_of(self, node_id: int) -> int:
        if not 0 <= node_id < self._n:
            raise GraphError(f"node {node_id} not in partition")
        return int(self._of[node_id])

    def members(self, cluster_id: int) -> FrozenSet[int]:
        try:
            return self._clusters[cluster_id]
        except KeyError:
            raise GraphError(f"unknown cluster {cluster_id}") from None

    def cluster_ids(self) -> List[int]:
        return sorted(self._clusters)

    def successors(self, cluster_id: int) -> Set[int]:
        return set(self._qadj[cluster_id])

    def __len__(self) -> int:
        return len(self._clusters)

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._clusters

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def can_merge(self, cluster_a: int, cluster_b: int, work=None) -> bool:
        """Same verdict as the reference, in O(words) per direction.

        ``merge_probes`` is charged with the words scanned (one row AND
        per direction, second direction skipped when the first already
        found a path — mirroring the reference's short-circuit).  The
        count is the fast backend's *equivalent* probe cost, not the
        reference BFS's dequeue count; see the validity-family note in
        :mod:`repro.core.work`.
        """
        if cluster_a == cluster_b:
            raise GraphError("cannot merge a cluster with itself")
        if cluster_a not in self._clusters or cluster_b not in self._clusters:
            raise GraphError(
                f"unknown cluster in merge ({cluster_a}, {cluster_b})"
            )
        if work is not None:
            work.merge_probes += self._words
        if (self._desc[cluster_a] & self._anc[cluster_b]).any():
            return False
        if work is not None:
            work.merge_probes += self._words
        return not (self._desc[cluster_b] & self._anc[cluster_a]).any()

    def merge_preview(self, cluster_a: int, cluster_b: int) -> Dict[str, int]:
        """Structured description of a prospective merge (see reference)."""
        return {
            "cluster_a": cluster_a,
            "cluster_b": cluster_b,
            "size_a": len(self.members(cluster_a)),
            "size_b": len(self.members(cluster_b)),
            "out_degree_a": len(self._qadj[cluster_a]),
            "out_degree_b": len(self._qadj[cluster_b]),
        }

    def merged(self, cluster_a: int, cluster_b: int, work=None) -> "FastPartition":
        """Merge the two clusters **in place** and return ``self``.

        The caller is responsible for checking :meth:`can_merge`, as
        with the reference.  ``reach_repairs`` is charged with the
        bitset words written repairing the index:
        ``(|ancestors| + |descendants| + 2) * words``.
        """
        if cluster_a == cluster_b:
            raise GraphError("cannot merge a cluster with itself")
        new_id = min(cluster_a, cluster_b)
        dead_id = max(cluster_a, cluster_b)
        moved = self._clusters.pop(dead_id)
        self._clusters[new_id] = self._clusters[new_id] | moved
        self._of[np.fromiter(moved, dtype=np.int64)] = new_id

        qadj, qradj = self._qadj, self._qradj
        out = (qadj.pop(dead_id) | qadj[new_id]) - {new_id, dead_id}
        inn = (qradj.pop(dead_id) | qradj[new_id]) - {new_id, dead_id}
        qadj[new_id] = out
        qradj[new_id] = inn
        for cid in out:
            qradj[cid].discard(dead_id)
            qradj[cid].add(new_id)
        for cid in inn:
            qadj[cid].discard(dead_id)
            qadj[cid].add(new_id)

        # --- local reachability repair -------------------------------
        desc, anc = self._desc, self._anc
        merged_desc = desc[cluster_a] | desc[cluster_b]
        merged_anc = anc[cluster_a] | anc[cluster_b]
        for cid in (cluster_a, cluster_b):
            merged_desc[cid >> 6] &= _ONES ^ _mask(cid)
            merged_anc[cid >> 6] &= _ONES ^ _mask(cid)
        anc_rows = _bit_indices(merged_anc)
        desc_rows = _bit_indices(merged_desc)
        new_word, new_bit = new_id >> 6, _mask(new_id)
        dead_word, dead_clear = dead_id >> 6, _ONES ^ _mask(dead_id)
        if anc_rows.size:
            desc[anc_rows] |= merged_desc
            desc[anc_rows, new_word] |= new_bit
            desc[anc_rows, dead_word] &= dead_clear
        if desc_rows.size:
            anc[desc_rows] |= merged_anc
            anc[desc_rows, new_word] |= new_bit
            anc[desc_rows, dead_word] &= dead_clear
        desc[new_id] = merged_desc
        anc[new_id] = merged_anc
        desc[dead_id] = 0
        anc[dead_id] = 0
        if work is not None:
            work.reach_repairs += (
                (anc_rows.size + desc_rows.size + 2) * self._words
            )
        return self

    def snapshot(self) -> "FastPartition":
        """An independent copy (for tentative evaluation / tests)."""
        return FastPartition(
            dict(self._clusters),
            self._of.copy(),
            {cid: set(nbrs) for cid, nbrs in self._qadj.items()},
            {cid: set(nbrs) for cid, nbrs in self._qradj.items()},
            self._desc.copy(),
            self._anc.copy(),
        )

    # ------------------------------------------------------------------
    # Ordering & validation
    # ------------------------------------------------------------------
    def topo_order(self, graph: Optional[KernelGraph] = None) -> List[int]:
        """Identical to the reference: Kahn with a min-id tie-break."""
        del graph  # kept for API symmetry; quotient is self-contained
        indeg = {cid: len(self._qradj[cid]) for cid in self._clusters}
        ready = [cid for cid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            cid = heapq.heappop(ready)
            order.append(cid)
            for dst in self._qadj[cid]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) != len(self._clusters):
            raise GraphError("partition quotient graph has a cycle")
        return order

    def is_valid(self, graph: Optional[KernelGraph] = None) -> bool:
        """True iff the quotient graph is acyclic."""
        try:
            self.topo_order(graph)
        except GraphError:
            return False
        return True

    def validate_against(self, graph: KernelGraph) -> None:
        """Reference structural checks plus a closure cross-check.

        Rebuilds the quotient from the graph (exactly the reference
        check) and additionally recomputes the reachability closure
        from the quotient adjacency by BFS, comparing it bit for bit
        against the incremental ``desc``/``anc`` rows — including that
        dead clusters' rows are zeroed.  Test/debug only.
        """
        nodes_seen: Set[int] = set()
        for cid, members in self._clusters.items():
            if cid != min(members):
                raise GraphError(f"cluster {cid} is not named by its min node")
            for node_id in members:
                if int(self._of[node_id]) != cid:
                    raise GraphError(f"node {node_id} maps to the wrong cluster")
            if nodes_seen & members:
                raise GraphError("clusters overlap")
            nodes_seen |= members
        if nodes_seen != {n.node_id for n in graph}:
            raise GraphError("clusters do not cover the graph")
        expected: Dict[int, Set[int]] = {cid: set() for cid in self._clusters}
        for edge in graph.edges:
            ca, cb = int(self._of[edge.src]), int(self._of[edge.dst])
            if ca != cb:
                expected[ca].add(cb)
        if expected != self._qadj:
            raise GraphError("incremental quotient adjacency is stale")

        # --- closure cross-check -------------------------------------
        for cid in self._clusters:
            reach: Set[int] = set()
            stack = list(self._qadj[cid])
            while stack:
                nxt = stack.pop()
                if nxt in reach:
                    continue
                reach.add(nxt)
                stack.extend(self._qadj[nxt])
            actual = set(int(i) for i in _bit_indices(self._desc[cid]))
            if actual != reach:
                raise GraphError(
                    f"descendant bitset of cluster {cid} is stale"
                )
            up: Set[int] = set()
            stack = list(self._qradj[cid])
            while stack:
                nxt = stack.pop()
                if nxt in up:
                    continue
                up.add(nxt)
                stack.extend(self._qradj[nxt])
            actual = set(int(i) for i in _bit_indices(self._anc[cid]))
            if actual != up:
                raise GraphError(f"ancestor bitset of cluster {cid} is stale")
        for i in range(self._n):
            if i not in self._clusters and (
                self._desc[i].any() or self._anc[i].any()
            ):
                raise GraphError(f"dead cluster {i} has a live bitset row")

    def summary(self) -> str:
        sizes = sorted((len(m) for m in self._clusters.values()), reverse=True)
        return (
            f"Partition: {len(self._clusters)} clusters, "
            f"largest {sizes[0] if sizes else 0} nodes"
        )


def _toposort(
    ids: List[int], qadj: Dict[int, Set[int]], qradj: Dict[int, Set[int]]
) -> List[int]:
    """Deterministic (min-id tie-break) topological order of node ids."""
    indeg = {i: len(qradj[i]) for i in ids}
    ready = [i for i in ids if indeg[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in qadj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(ids):
        raise GraphError("application graph has a cycle")
    return order
