"""The decision ledger — first-class plan provenance.

Every choice Algorithms 1–2 make while planning is recorded as one
schema-versioned ledger entry:

* **merge entries** (Algorithm 1) — one per candidate-edge decision:
  the edge, its weight, the structural preview of the two clusters, the
  cost comparison the model saw, and the outcome with its reason
  (``adopted``/``cost_improves``, ``rejected``/``cost_no_gain`` or
  ``untileable``, ``invalid``/``reachability`` or ``oversized``,
  ``skipped``/``already_merged``, ``excluded``/``threshold``);
* **tile-round entries** (Algorithm 2) — one per frozen tiling round:
  the cluster staged, the round ordinal, blocks and member kernels
  gathered, the footprint at freeze time against the L2 budget, and a
  content digest of the round's block frontier.

The contract mirrors the work counters of :mod:`repro.core.work`:
entries are recorded at *consume* time (a tiling's round events travel
inside the frozen :class:`~repro.core.cluster_tile.ClusterTiling` and
are appended only when the merge loop first consumes the tiling), so a
run's ledger — and therefore its :meth:`DecisionLedger.digest` — is
bit-identical across planner backends (reference vs fast).
Backend-local quantities (the ``VALIDITY_COUNTERS`` families)
never enter an entry.

The ledger is carried by
:class:`~repro.core.app_tile.TilingResult` and persisted through plan
artifacts (``STORE_VERSION`` v3), so warm-store plans answer "why is
this kernel in that cluster" exactly like the cold run that produced
them.  :mod:`repro.obs.diff` joins two ledgers to attribute plan
divergence to the first disagreeing decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import doccheck
from repro.store.fingerprint import content_key

#: Schema version of the ledger document (``as_dict`` output).  Bump on
#: any change to entry kinds, fields, or their meaning; the store-level
#: ``STORE_VERSION`` bump then invalidates warm plans automatically.
LEDGER_SCHEMA_VERSION = 1

#: Outcomes a merge entry may carry, in severity order.
MERGE_OUTCOMES = ("adopted", "rejected", "invalid", "skipped", "excluded")

#: Reasons, per outcome: why the loop settled the candidate that way.
MERGE_REASONS = (
    "cost_improves",   # adopted: tiled cost beat the combined cost
    "cost_no_gain",    # rejected: tiled but not cheaper
    "untileable",      # rejected: Algorithm 2 returned no tiling
    "reachability",    # invalid: merge would cycle the cluster quotient
    "oversized",       # invalid: max_cluster_nodes cap
    "already_merged",  # skipped: edge endpoints share a cluster
    "threshold",       # excluded: weight never cleared the threshold
)

#: Entry kinds.
ENTRY_KINDS = ("merge", "tile_round")

#: ``decisions.*`` counter families emitted per planning run (metrics
#: registry + Prometheus exposition), keyed by the summary field that
#: feeds each.
DECISION_COUNTER_FAMILIES = (
    ("decisions.recorded", "entries"),
    ("decisions.adopted", "adopted"),
    ("decisions.rejected", "rejected"),
    ("decisions.invalid", "invalid"),
    ("decisions.skipped", "skipped"),
    ("decisions.excluded", "excluded"),
    ("decisions.tile_rounds", "tile_rounds"),
)

_MERGE_FIELDS = (
    "src",
    "dst",
    "buffer",
    "weight_us",
    "outcome",
    "reason",
    "cluster_a",
    "cluster_b",
    "size_a",
    "size_b",
    "out_degree_a",
    "out_degree_b",
    "combined_cost_us",
    "tiled_cost_us",
    "cost_delta_us",
)

_TILE_FIELDS = (
    "cluster",
    "round",
    "blocks",
    "nodes",
    "footprint_bytes",
    "cache_bytes",
    "l2_occupancy",
    "frontier_digest",
)


def frontier_digest(block_keys: Iterable[Tuple[int, int]]) -> str:
    """Content digest of a tiling round's block frontier.

    The digest covers the sorted ``(node, block)`` keys of the round —
    the paper's ``toBeAssigned`` set at freeze time — so two rounds
    staging the same blocks digest identically regardless of gather
    order, and any drift in a single block is visible without storing
    thousands of keys per entry.
    """
    return content_key(sorted([int(v), int(b)] for v, b in block_keys))


@dataclass
class DecisionLedger:
    """Ordered, append-only record of one planning run's decisions."""

    entries: List[Dict] = field(default_factory=list)

    # -- recording (planner-side) -----------------------------------
    def record_merge(
        self,
        *,
        src: int,
        dst: int,
        buffer: str,
        weight_us: float,
        outcome: str,
        reason: str,
        cluster_a: Optional[int] = None,
        cluster_b: Optional[int] = None,
        size_a: Optional[int] = None,
        size_b: Optional[int] = None,
        out_degree_a: Optional[int] = None,
        out_degree_b: Optional[int] = None,
        combined_cost_us: Optional[float] = None,
        tiled_cost_us: Optional[float] = None,
        cost_delta_us: Optional[float] = None,
    ) -> Dict:
        """Append one Algorithm 1 merge-candidate entry; returns it."""
        entry = {
            "seq": len(self.entries),
            "kind": "merge",
            "src": src,
            "dst": dst,
            "buffer": buffer,
            "weight_us": weight_us,
            "outcome": outcome,
            "reason": reason,
            "cluster_a": cluster_a,
            "cluster_b": cluster_b,
            "size_a": size_a,
            "size_b": size_b,
            "out_degree_a": out_degree_a,
            "out_degree_b": out_degree_b,
            "combined_cost_us": combined_cost_us,
            "tiled_cost_us": tiled_cost_us,
            "cost_delta_us": cost_delta_us,
        }
        self.entries.append(entry)
        return entry

    def record_tile_events(self, events: Iterable[Dict]) -> None:
        """Append a consumed tiling's round events (consume-time site).

        Called from the merge loop's work-charging path — once per
        tiling *evaluation*, never on memo hits — so the ledger follows
        the same order as the work counters.
        """
        for event in events:
            entry = dict(event)
            entry["seq"] = len(self.entries)
            self.entries.append(entry)

    # -- views -------------------------------------------------------
    def merge_entries(self) -> List[Dict]:
        return [e for e in self.entries if e.get("kind") == "merge"]

    def tile_entries(self) -> List[Dict]:
        return [e for e in self.entries if e.get("kind") == "tile_round"]

    def summary(self) -> Dict[str, int]:
        """Entry counts by kind and outcome (the serve/report view)."""
        out = {"entries": len(self.entries), "merges": 0, "tile_rounds": 0}
        for outcome in MERGE_OUTCOMES:
            out[outcome] = 0
        for entry in self.entries:
            if entry.get("kind") == "merge":
                out["merges"] += 1
                outcome = entry.get("outcome")
                if outcome in out:
                    out[outcome] += 1
            else:
                out["tile_rounds"] += 1
        return out

    def decisive_entries(self) -> Dict[Tuple[int, int, str], Dict]:
        """Last merge entry per edge — the decision that settled it.

        For a consumed edge that is the adopt/reject/skip/exclude that
        took it off the candidate list; for an edge the loop abandoned
        (exhausted with it still pending) it is the final ``invalid``.
        """
        out: Dict[Tuple[int, int, str], Dict] = {}
        for entry in self.entries:
            if entry.get("kind") != "merge":
                continue
            out[(entry["src"], entry["dst"], entry["buffer"])] = entry
        return out

    # -- document ----------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "entries": list(self.entries),
        }

    def digest(self) -> str:
        """sha256 of the canonical document — the bit-identity handle."""
        return content_key(self.as_dict())

    @classmethod
    def from_dict(cls, payload: Dict) -> "DecisionLedger":
        """Rebuild from a validated document; raises ValueError."""
        validate_ledger(payload)
        return cls(entries=[dict(e) for e in payload["entries"]])


_DOC = "ledger document"


def validate_ledger(payload: Dict) -> Dict:
    """Schema check of a ledger document; returns the payload (chains).

    Runs on every warm plan decode, so the per-entry loop formats a
    message only when an entry fails.
    """
    doccheck.header(payload, _DOC, LEDGER_SCHEMA_VERSION)
    for index, entry in enumerate(doccheck.rows(payload, "entries", _DOC)):
        if entry.get("seq") != index:
            doccheck.fail(_DOC, f"entries[{index}] seq mismatch")
        kind = entry.get("kind")
        if kind not in ENTRY_KINDS:
            doccheck.fail(_DOC, f"entries[{index}] bad kind {kind!r}")
        merge = kind == "merge"
        doccheck.keys(
            entry, _MERGE_FIELDS if merge else _TILE_FIELDS,
            _DOC, "entries", index,
        )
        if merge and entry["outcome"] not in MERGE_OUTCOMES:
            doccheck.fail(
                _DOC, f"entries[{index}] bad outcome {entry['outcome']!r}"
            )
        if merge and entry["reason"] not in MERGE_REASONS:
            doccheck.fail(
                _DOC, f"entries[{index}] bad reason {entry['reason']!r}"
            )
    return payload


def replay_adopted(graph, ledger: DecisionLedger, planner_backend=None):
    """Re-apply a ledger's adopted merges to a fresh partition.

    The ledger-sufficiency half of the provenance contract: starting
    from singletons, applying exactly the ``adopted`` entries in order
    must reconstruct the plan's final partition — no decision the
    planner acted on is missing from the ledger, and none is recorded
    that the planner did not make.  Raises :class:`ValueError` when an
    adopted entry cannot be applied (endpoints already share a cluster,
    or the merge is invalid), which means the ledger is inconsistent
    with the graph.
    """
    # Imported lazily: repro.core.fast_cluster imports the obs tracer
    # package, so a module-level import would cycle.
    from repro.core.fast_cluster import make_partition

    partition = make_partition(graph, planner_backend)
    for entry in ledger.merge_entries():
        if entry["outcome"] != "adopted":
            continue
        cluster_a = partition.cluster_of(entry["src"])
        cluster_b = partition.cluster_of(entry["dst"])
        if cluster_a == cluster_b:
            raise ValueError(
                f"ledger replay: entry {entry['seq']} endpoints already merged"
            )
        if not partition.can_merge(cluster_a, cluster_b):
            raise ValueError(
                f"ledger replay: entry {entry['seq']} merge is invalid"
            )
        partition = partition.merged(cluster_a, cluster_b)
    return partition
