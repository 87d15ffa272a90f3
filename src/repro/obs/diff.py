"""`ktiler diff` — structural plan diffing with ledger attribution.

Two plans of the same application can disagree structurally (cluster
membership, per-kernel assignment, tile factors) and numerically (edge
weights, costs).  The structural diff alone says *what* changed; the
decision ledgers (:mod:`repro.obs.decisions`) say *why*: joining the
two merge-entry streams positionally finds the **first decision where
the planners disagreed** — the earliest candidate whose edge, weight,
outcome, or reason differs — to which every downstream divergence is
attributed, the greedy loop being deterministic given its decisions.

Two document kinds share one schema:

* ``plan_diff`` — the full diff of two in-process
  :class:`~repro.core.app_tile.TilingResult` objects
  (:func:`diff_plans`, behind ``ktiler diff``): cluster membership,
  moved kernels, tile-factor changes, edge-weight deltas, and the
  ledger attribution;
* ``ledger_diff`` — the ledger-only diff of two wire ledgers
  (:func:`diff_ledgers`, behind ``ktiler client diff``): everything
  above that can be computed without the graph or the plans.

Both validate through :func:`validate_diff` and render through
:func:`render_diff_html` in the house page shell (:mod:`repro.obs.pages`).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Tuple

from repro.obs import doccheck
from repro.obs.decisions import DecisionLedger
from repro.obs.pages import page

#: Version stamp of the diff JSON document.
DIFF_SCHEMA_VERSION = 1

#: Document kinds sharing the schema.
DIFF_KINDS = ("plan_diff", "ledger_diff")

#: Merge-entry fields compared positionally for the first divergence.
#: Everything contract-identical across planner backends — which is all
#: of a merge entry.
_COMPARED_FIELDS = (
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


def _edge_label(entry: Dict) -> str:
    return f"{entry['src']}->{entry['dst']}[{entry['buffer']}]"


def _weight_map(ledger: DecisionLedger) -> Dict[str, float]:
    """Edge label -> weight, from each edge's first merge entry.

    The ledger covers every data edge of the graph (candidates as they
    are consumed, sub-threshold edges as ``excluded`` entries), so this
    recovers the full weight vector without the
    :class:`~repro.core.weights.EdgeWeights` object — which is what
    lets ``ktiler client diff`` compare weights over the wire.
    """
    out: Dict[str, float] = {}
    for entry in ledger.merge_entries():
        out.setdefault(_edge_label(entry), entry["weight_us"])
    return out


def _first_divergence(
    ledger_a: DecisionLedger, ledger_b: DecisionLedger
) -> Optional[Dict]:
    """First position where the merge-entry streams disagree."""
    merges_a = ledger_a.merge_entries()
    merges_b = ledger_b.merge_entries()
    for index, (ea, eb) in enumerate(zip(merges_a, merges_b)):
        fields = [f for f in _COMPARED_FIELDS if ea.get(f) != eb.get(f)]
        if fields:
            return {
                "index": index,
                "fields": fields,
                "edge_a": _edge_label(ea),
                "edge_b": _edge_label(eb),
                "entry_a": dict(ea),
                "entry_b": dict(eb),
            }
    if len(merges_a) != len(merges_b):
        index = min(len(merges_a), len(merges_b))
        longer = merges_a if len(merges_a) > len(merges_b) else merges_b
        entry = longer[index]
        return {
            "index": index,
            "fields": ["length"],
            "edge_a": _edge_label(entry) if longer is merges_a else None,
            "edge_b": _edge_label(entry) if longer is merges_b else None,
            "entry_a": dict(entry) if longer is merges_a else None,
            "entry_b": dict(entry) if longer is merges_b else None,
        }
    return None


def _edge_weight_changes(
    ledger_a: DecisionLedger, ledger_b: DecisionLedger
) -> List[Dict]:
    weights_a = _weight_map(ledger_a)
    weights_b = _weight_map(ledger_b)
    changes: List[Dict] = []
    for edge in sorted(set(weights_a) | set(weights_b)):
        wa = weights_a.get(edge)
        wb = weights_b.get(edge)
        if wa == wb:
            continue
        delta = None if wa is None or wb is None else round(wb - wa, 3)
        changes.append(
            {"edge": edge, "weight_a_us": wa, "weight_b_us": wb,
             "delta_us": delta}
        )
    changes.sort(
        key=lambda c: (-(abs(c["delta_us"]) if c["delta_us"] is not None
                         else float("inf")), c["edge"])
    )
    return changes


def diff_ledgers(
    doc_a: Dict, doc_b: Dict, label_a: str = "a", label_b: str = "b"
) -> Dict:
    """Diff two ledger documents (``DecisionLedger.as_dict`` shape).

    Works on wire ledgers (the ``ledger`` block of a ``/v1/plan``
    response) — no graph or plan objects needed.  Returns a validated
    ``ledger_diff`` document.
    """
    ledger_a = DecisionLedger.from_dict(doc_a)
    ledger_b = DecisionLedger.from_dict(doc_b)
    digest_a = ledger_a.digest()
    digest_b = ledger_b.digest()
    divergence = _first_divergence(ledger_a, ledger_b)
    payload = {
        "schema_version": DIFF_SCHEMA_VERSION,
        "kind": "ledger_diff",
        "label_a": label_a,
        "label_b": label_b,
        "identical": digest_a == digest_b,
        "ledger": {
            "digest_a": digest_a,
            "digest_b": digest_b,
            "entries_a": len(ledger_a.entries),
            "entries_b": len(ledger_b.entries),
            "summary_a": ledger_a.summary(),
            "summary_b": ledger_b.summary(),
        },
        "divergence": divergence,
        "edge_weight_changes": _edge_weight_changes(ledger_a, ledger_b),
    }
    return validate_diff(payload)


def _members_lists(plan) -> List[List[int]]:
    return sorted(
        sorted(plan.partition.members(cid))
        for cid in plan.partition.cluster_ids()
    )


def _tilings_by_nodes(plan) -> Dict[Tuple[int, ...], object]:
    return {
        tuple(sorted(tiling.nodes)): tiling
        for tiling in plan.tilings.values()
    }


def diff_plans(
    graph, plan_a, plan_b, label_a: str = "a", label_b: str = "b"
) -> Dict:
    """Full structural diff of two plans of the same graph.

    Joins cluster membership, per-kernel assignment, tile factors
    (rounds/sub-kernels/cost per common cluster), edge weights, and the
    two decision ledgers; the ``divergence`` block names the first
    decision where the planners disagreed.  Returns a validated
    ``plan_diff`` document.
    """
    members_a = _members_lists(plan_a)
    members_b = _members_lists(plan_b)
    set_a = {tuple(m) for m in members_a}
    set_b = {tuple(m) for m in members_b}
    only_a = sorted(set_a - set_b)
    only_b = sorted(set_b - set_a)

    cluster_of_a = {
        node: tuple(m) for m in members_a for node in m
    }
    cluster_of_b = {
        node: tuple(m) for m in members_b for node in m
    }
    kernels: List[Dict] = []
    for node in graph:
        ca = cluster_of_a.get(node.node_id)
        cb = cluster_of_b.get(node.node_id)
        if ca != cb:
            kernels.append(
                {
                    "node": node.node_id,
                    "name": node.name,
                    "cluster_a": list(ca) if ca else None,
                    "cluster_b": list(cb) if cb else None,
                }
            )

    tilings_a = _tilings_by_nodes(plan_a)
    tilings_b = _tilings_by_nodes(plan_b)
    tilings: List[Dict] = []
    for nodes in sorted(set(tilings_a) & set(tilings_b)):
        ta = tilings_a[nodes]
        tb = tilings_b[nodes]
        if (
            ta.rounds == tb.rounds
            and len(ta.subkernels) == len(tb.subkernels)
            and ta.cost_us == tb.cost_us
        ):
            continue
        tilings.append(
            {
                "cluster": list(nodes),
                "rounds_a": ta.rounds,
                "rounds_b": tb.rounds,
                "subkernels_a": len(ta.subkernels),
                "subkernels_b": len(tb.subkernels),
                "cost_a_us": round(ta.cost_us, 3),
                "cost_b_us": round(tb.cost_us, 3),
            }
        )

    base = diff_ledgers(
        plan_a.ledger.as_dict(), plan_b.ledger.as_dict(), label_a, label_b
    )
    payload = dict(base)
    payload["kind"] = "plan_diff"
    payload["identical"] = base["identical"] and not (
        only_a or only_b or kernels or tilings
    )
    payload["summary"] = {
        "clusters_a": len(members_a),
        "clusters_b": len(members_b),
        "clusters_only_a": len(only_a),
        "clusters_only_b": len(only_b),
        "moved_kernels": len(kernels),
        "tiling_changes": len(tilings),
        "edge_weight_changes": len(payload["edge_weight_changes"]),
        "estimated_cost_a_us": round(plan_a.estimated_cost_us, 3),
        "estimated_cost_b_us": round(plan_b.estimated_cost_us, 3),
    }
    payload["clusters"] = {
        "only_a": [list(m) for m in only_a],
        "only_b": [list(m) for m in only_b],
        "common": len(set_a & set_b),
    }
    payload["kernels"] = kernels
    payload["tilings"] = tilings
    return validate_diff(payload)


# ----------------------------------------------------------------------
# JSON schema check + HTML report
# ----------------------------------------------------------------------
_LEDGER_KEYS = (
    "digest_a", "digest_b", "entries_a", "entries_b",
    "summary_a", "summary_b",
)
_SUMMARY_KEYS = (
    "clusters_a", "clusters_b", "clusters_only_a", "clusters_only_b",
    "moved_kernels", "tiling_changes", "edge_weight_changes",
    "estimated_cost_a_us", "estimated_cost_b_us",
)
_DIVERGENCE_KEYS = ("index", "fields", "edge_a", "edge_b",
                    "entry_a", "entry_b")
_WEIGHT_KEYS = ("edge", "weight_a_us", "weight_b_us", "delta_us")


_DOC = "diff payload"


def validate_diff(payload: Dict) -> Dict:
    """Check a diff document against the schema; returns it (chains)."""
    doccheck.header(payload, _DOC, DIFF_SCHEMA_VERSION, DIFF_KINDS)
    for key in ("label_a", "label_b"):
        doccheck.require(
            isinstance(payload.get(key), str), _DOC, f"missing string '{key}'"
        )
    doccheck.require(
        isinstance(payload.get("identical"), bool),
        _DOC, "'identical' is not a bool",
    )
    doccheck.section(payload, "ledger", _DOC, _LEDGER_KEYS)
    divergence = doccheck.section(
        payload, "divergence", _DOC, _DIVERGENCE_KEYS, optional=True
    )
    # identical => no divergence; the converse need not hold (the
    # merge streams can agree while tile-round events differ).
    doccheck.require(
        not payload["identical"] or divergence is None,
        _DOC, "identical document carries a divergence",
    )
    doccheck.rows(payload, "edge_weight_changes", _DOC, _WEIGHT_KEYS)
    if payload["kind"] == "plan_diff":
        summary = doccheck.section(payload, "summary", _DOC)
        doccheck.numbers(summary, _SUMMARY_KEYS, _DOC, "summary")
        clusters = doccheck.section(payload, "clusters", _DOC)
        for key in ("only_a", "only_b"):
            doccheck.require(
                isinstance(clusters.get(key), list),
                _DOC, f"clusters.{key} is not a list",
            )
        doccheck.rows(payload, "kernels", _DOC)
        doccheck.rows(payload, "tilings", _DOC)
    return payload


def format_divergence(payload: Dict) -> str:
    """One-paragraph text attribution of the first diverging decision."""
    divergence = payload.get("divergence")
    if divergence is None:
        if payload.get("identical"):
            return "plans agree: no diverging decision"
        return (
            "merge decisions agree; the divergence is confined to the "
            "tile-round events or plan structure"
        )
    entry_a = divergence.get("entry_a")
    entry_b = divergence.get("entry_b")
    if entry_a is None or entry_b is None:
        side = payload["label_b"] if entry_a is None else payload["label_a"]
        entry = entry_b if entry_a is None else entry_a
        return (
            f"first divergence at merge decision #{divergence['index']}: "
            f"only {side} considered edge {_edge_label(entry)} "
            f"({entry['outcome']}/{entry['reason']}, "
            f"weight {entry['weight_us']} us)"
        )
    return (
        f"first divergence at merge decision #{divergence['index']} "
        f"on edge {divergence['edge_a']}: "
        f"{payload['label_a']} saw {entry_a['outcome']}/{entry_a['reason']} "
        f"(weight {entry_a['weight_us']} us), "
        f"{payload['label_b']} saw {entry_b['outcome']}/{entry_b['reason']} "
        f"(weight {entry_b['weight_us']} us); "
        f"fields differing: {', '.join(divergence['fields'])}"
    )


_DIFF_STYLE = """
.diverge { background: #fff3e0; }
"""


def _entry_cell(entry: Optional[Dict]) -> str:
    if entry is None:
        return "<td class='name'>&mdash;</td>"
    esc = html.escape
    return (
        f"<td class='name'>{esc(_edge_label(entry))} &middot; "
        f"{esc(entry['outcome'])}/{esc(entry['reason'])} &middot; "
        f"weight {entry['weight_us']} us</td>"
    )


def render_diff_html(payload: Dict) -> str:
    """Self-contained HTML report of a (validated) diff document."""
    esc = html.escape
    label_a = esc(payload["label_a"])
    label_b = esc(payload["label_b"])
    verdict = (
        "<span class='ok'>identical</span>"
        if payload["identical"]
        else "<span class='neg'>divergent</span>"
    )
    ledger = payload["ledger"]
    parts = [
        f"<h1>ktiler diff — <code>{label_a}</code> vs "
        f"<code>{label_b}</code>: {verdict}</h1>",
        "<p class='summary'>"
        f"ledger {ledger['entries_a']} vs {ledger['entries_b']} entries "
        f"&middot; digest <code>{esc(str(ledger['digest_a'])[:12])}…</code> "
        f"vs <code>{esc(str(ledger['digest_b'])[:12])}…</code></p>",
        f"<p class='summary'>{esc(format_divergence(payload))}</p>",
    ]
    divergence = payload.get("divergence")
    if divergence is not None:
        parts.append("<h2>First diverging decision</h2>")
        parts.append(
            "<table><tr><th class='name'>side</th>"
            "<th class='name'>decision</th></tr>"
            f"<tr class='diverge'><td class='name'>{label_a}</td>"
            f"{_entry_cell(divergence['entry_a'])}</tr>"
            f"<tr class='diverge'><td class='name'>{label_b}</td>"
            f"{_entry_cell(divergence['entry_b'])}</tr></table>"
        )
    summary = payload.get("summary")
    if summary is not None:
        parts.append("<h2>Structure</h2><p class='summary'>")
        parts.append(
            f"clusters {summary['clusters_a']} vs {summary['clusters_b']} "
            f"({summary['clusters_only_a']} only in {label_a}, "
            f"{summary['clusters_only_b']} only in {label_b}) &middot; "
            f"{summary['moved_kernels']} kernels reassigned &middot; "
            f"{summary['tiling_changes']} tiling changes &middot; "
            f"estimated cost {summary['estimated_cost_a_us']} vs "
            f"{summary['estimated_cost_b_us']} us</p>"
        )
        kernels = payload["kernels"]
        if kernels:
            parts.append(
                "<h2>Reassigned kernels</h2>"
                "<table><tr><th class='name'>kernel</th>"
                f"<th class='name'>cluster in {label_a}</th>"
                f"<th class='name'>cluster in {label_b}</th></tr>"
            )
            for row in kernels:
                parts.append(
                    f"<tr><td class='name'>{esc(row['name'])} "
                    f"(#{row['node']})</td>"
                    f"<td class='name'>{esc(str(row['cluster_a']))}</td>"
                    f"<td class='name'>{esc(str(row['cluster_b']))}</td></tr>"
                )
            parts.append("</table>")
        tilings = payload["tilings"]
        if tilings:
            parts.append(
                "<h2>Tile-factor changes</h2>"
                "<table><tr><th class='name'>cluster</th>"
                "<th>rounds</th><th>sub-kernels</th><th>cost (us)</th></tr>"
            )
            for row in tilings:
                parts.append(
                    f"<tr><td class='name'>{esc(str(row['cluster']))}</td>"
                    f"<td>{row['rounds_a']} &rarr; {row['rounds_b']}</td>"
                    f"<td>{row['subkernels_a']} &rarr; "
                    f"{row['subkernels_b']}</td>"
                    f"<td>{row['cost_a_us']} &rarr; {row['cost_b_us']}"
                    "</td></tr>"
                )
            parts.append("</table>")
    changes = payload["edge_weight_changes"]
    if changes:
        parts.append(
            "<h2>Edge-weight changes</h2>"
            "<table><tr><th class='name'>edge</th>"
            f"<th>weight in {label_a} (us)</th>"
            f"<th>weight in {label_b} (us)</th><th>&Delta; (us)</th></tr>"
        )
        for change in changes:
            parts.append(
                f"<tr><td class='name'><code>{esc(change['edge'])}</code>"
                f"</td><td>{change['weight_a_us']}</td>"
                f"<td>{change['weight_b_us']}</td>"
                f"<td>{change['delta_us']}</td></tr>"
            )
        parts.append("</table>")
    return page(
        f"ktiler diff — {payload['label_a']} vs {payload['label_b']}",
        "".join(parts),
        css=_DIFF_STYLE,
    )


def write_diff(
    payload: Dict,
    json_path: Optional[str] = None,
    html_path: Optional[str] = None,
) -> Dict:
    """Write the JSON (and optional HTML) artifacts; returns the payload."""
    payload = validate_diff(payload)
    if json_path:
        doccheck.write_json(json_path, payload)
    if html_path:
        with open(html_path, "w", encoding="utf-8") as fh:
            fh.write(render_diff_html(payload))
    return payload
