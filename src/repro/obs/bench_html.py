"""Self-contained HTML dashboard for ``ktiler bench`` runs.

One file, no external assets or scripts: trajectory sparklines are
inline SVG polylines built from the history medians, the per-phase
stacked bars are proportional-width divs, and regression callouts come
straight from a :class:`~repro.obs.bench.CompareReport`.  Mirrors the
``repro.obs.audit`` renderer idiom (validate first, escape everything,
emit a parts list).
"""

from __future__ import annotations

import html
import json
from typing import List, Optional, Sequence

from repro.obs.bench import (
    PHASES,
    CompareReport,
    append_history,
    validate_bench,
)

_HTML_STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin: 0.75em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: right; }
th { background: #f2f2f2; } td.name, th.name { text-align: left; }
.summary { color: #444; }
.card { border: 1px solid #ddd; border-radius: 6px; padding: 0.8em 1em;
        margin: 1em 0; }
.phasebar { display: flex; height: 1.1em; border-radius: 3px;
            overflow: hidden; margin: 0.4em 0; background: #eee; }
.phasebar div { height: 100%; }
.legend span { display: inline-block; margin-right: 1em;
               font-size: 0.85em; color: #444; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          border-radius: 2px; margin-right: 0.3em;
          vertical-align: -0.1em; }
.callout { background: #fdecea; border: 1px solid #b00; color: #b00;
           border-radius: 4px; padding: 0.4em 0.8em; margin: 0.5em 0; }
.ok { color: #2e7d32; } .neg { color: #b00; }
svg.spark { vertical-align: middle; }
.heatstrip { display: flex; gap: 1px; margin: 0.3em 0; }
.heat { display: inline-block; width: 14px; height: 18px;
        border-radius: 2px; border: 1px solid #e3e7ee; }
"""

#: One stable color per pipeline phase (keyed by PHASES order).
_PHASE_COLORS = {
    "trace": "#4a90d9",
    "block_graph": "#7b61c4",
    "profile": "#e8a33d",
    "partition": "#4caf82",
    "tile": "#d9564a",
    "replay": "#46b8c8",
    "other": "#b0b0b0",
}


def _histogram_strip(payload: dict) -> str:
    """A heat strip + quantile line for one serialized LogHistogram."""
    from repro.obs.histogram import LogHistogram

    try:
        hist = LogHistogram.from_dict(payload)
    except (KeyError, ValueError, TypeError):
        return "<span class='summary'>(histogram malformed)</span>"
    if hist.count == 0:
        return "<span class='summary'>(no samples)</span>"
    snap = hist.snapshot()
    buckets = snap["buckets"]
    peak = max(int(b["count"]) for b in buckets) or 1
    cells = []
    for bucket in buckets:
        count = int(bucket["count"])
        alpha = 0.08 + 0.92 * (count / peak) if count else 0.04
        title = html.escape(f"le {bucket['le']} s: {count}")
        cells.append(
            f"<span class='heat' title='{title}' "
            f"style='background:rgba(31,119,180,{alpha:.3f})'></span>"
        )
    q_text = "  ".join(
        f"{name}={1e3 * float(value):.2f} ms"
        for name, value in sorted(snap.get("quantiles", {}).items())
    )
    return (
        "<div class='heatstrip'>" + "".join(cells) + "</div>"
        f"<span class='summary'>{hist.count} samples &middot; "
        f"{html.escape(q_text)}</span>"
    )


def _loadgen_section(loadgen: dict) -> List[str]:
    """Outcome decomposition + latency distributions for a loadgen doc."""
    esc = html.escape
    parts = ["<div class='card'><h2>Load generator</h2>"]
    total = int(loadgen.get("requests", 0)) or 1
    outcomes = loadgen.get("outcomes") or {}
    if outcomes:
        parts.append(
            "<p class='summary'>outcomes: "
            + " &middot; ".join(
                f"<b>{esc(tag)}</b> {int(count)} "
                f"({100.0 * int(count) / total:.1f}%)"
                for tag, count in sorted(outcomes.items())
            )
            + "</p>"
        )
    for key, label in (
        ("latency_histogram", "client-observed latency"),
        ("server_histogram", "server-reported latency (warm-up included)"),
    ):
        payload = loadgen.get(key)
        if payload:
            parts.append(f"<h3>{esc(label)}</h3>")
            parts.append(_histogram_strip(payload))
    parts.append("</div>")
    return parts


def _sparkline(
    values: Sequence[float], width: int = 160, height: int = 36
) -> str:
    """Inline SVG polyline of a benchmark's median trajectory."""
    if len(values) < 2:
        return "<span class='summary'>(no history yet)</span>"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 3.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    last_x = pad + (len(values) - 1) * step
    last_y = height - pad - (values[-1] - lo) / span * (height - 2 * pad)
    return (
        f"<svg class='spark' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polyline points='{points}' fill='none' stroke='#4a90d9' "
        "stroke-width='1.5'/>"
        f"<circle cx='{last_x:.1f}' cy='{last_y:.1f}' r='2.5' "
        "fill='#d9564a'/></svg>"
    )


def _phase_bar(phases: dict) -> str:
    """Stacked proportional-width bar of the per-phase medians."""
    total = sum(stats["median"] for stats in phases.values())
    if total <= 0.0:
        return "<span class='summary'>(no phase data)</span>"
    cells = []
    for phase in PHASES:
        stats = phases.get(phase)
        if not stats or stats["median"] <= 0.0:
            continue
        share = stats["median"] / total
        cells.append(
            f"<div style='width:{share * 100:.2f}%;"
            f"background:{_PHASE_COLORS[phase]}' "
            f"title='{phase}: {stats['median'] * 1e3:.2f} ms "
            f"({share * 100:.1f}%)'></div>"
        )
    legend = "".join(
        f"<span><i class='swatch' "
        f"style='background:{_PHASE_COLORS[phase]}'></i>"
        f"{phase} {phases[phase]['median'] * 1e3:.2f}&thinsp;ms</span>"
        for phase in PHASES
        if phase in phases and phases[phase]["median"] > 0.0
    )
    return (
        f"<div class='phasebar'>{''.join(cells)}</div>"
        f"<div class='legend'>{legend}</div>"
    )


def render_bench_html(
    doc: dict,
    history: Optional[Sequence[dict]] = None,
    compare: Optional[CompareReport] = None,
) -> str:
    """Self-contained dashboard for one (validated) bench-run document.

    ``history`` (older runs, oldest first) feeds the per-benchmark
    sparklines; ``compare`` adds the baseline verdict table and the
    red regression callouts.
    """
    validate_bench(doc)
    esc = html.escape
    env = doc["environment"]
    config = doc["config"]
    history = [
        run for run in (history or [])
        if run.get("environment", {}).get("noise_key") == env["noise_key"]
    ]
    regressed_by_name = {}
    if compare is not None:
        regressed_by_name = {d.name: d for d in compare.deltas if d.regressed}
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>ktiler bench dashboard</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>ktiler bench dashboard</h1>",
        "<p class='summary'>"
        f"commit <code>{esc(str(env['git_sha'])[:12])}</code> &middot; "
        f"python {esc(env['python'])} &middot; "
        f"{env['workers']} worker(s) &middot; "
        f"{env['cpu_count']} cpu &middot; "
        f"scale {esc(str(config['scale']))}, "
        f"{config['repeats']} repeats + {config['warmup']} warmup &middot; "
        f"noise key <code>{esc(env['noise_key'][:12])}</code>"
        "</p>",
    ]
    if compare is not None:
        verdict = (
            "<span class='ok'>no regressions</span>" if compare.ok
            else f"<span class='neg'>{len(compare.regressions)} "
                 "regression(s)</span>"
        )
        match = "match" if compare.fingerprint_match else "DIFFER (advisory)"
        parts.append(
            f"<p class='summary'>vs baseline "
            f"<code>{esc(compare.baseline_sha[:12])}</code>: {verdict} "
            f"&middot; fingerprints {esc(match)} &middot; "
            f"band = max({compare.k_sigma:g}&sigma;, "
            f"{compare.rel_tol * 100:g}%)</p>"
        )
    for bench in doc["benchmarks"]:
        name = bench["name"]
        wall = bench["wall_s"]
        trajectory = [
            b["wall_s"]["median"]
            for run in history
            for b in run["benchmarks"]
            if b["name"] == name
        ] + [wall["median"]]
        parts.append("<div class='card'>")
        parts.append(
            f"<h2>{esc(name)}</h2>"
            "<p class='summary'>"
            f"median <b>{wall['median'] * 1e3:.2f} ms</b> "
            f"&plusmn; {wall['mad'] * 1e3:.2f} ms MAD &middot; "
            f"CI95 [{wall['ci95'][0] * 1e3:.2f}, "
            f"{wall['ci95'][1] * 1e3:.2f}] ms &middot; "
            f"cpu {bench['cpu_s']['median'] * 1e3:.2f} ms &middot; "
            f"{bench['repeats']} repeats"
            + (
                f" &middot; <span class='neg'>{len(wall['outliers'])} "
                "outlier(s) flagged</span>"
                if wall["outliers"] else ""
            )
            + "</p>"
        )
        delta = regressed_by_name.get(name)
        if delta is not None:
            phase_note = (
                f" — slowest phase: <b>{esc(delta.phase)}</b> "
                f"+{delta.phase_delta_s * 1e3:.2f} ms"
                if delta.phase else ""
            )
            parts.append(
                "<div class='callout'>REGRESSED: "
                f"{delta.baseline_s * 1e3:.2f} ms &rarr; "
                f"{delta.current_s * 1e3:.2f} ms "
                f"(+{delta.delta_s * 1e3:.2f} ms, band "
                f"{delta.band_s * 1e3:.2f} ms){phase_note}</div>"
            )
        parts.append(_sparkline(trajectory))
        parts.append(
            f"<span class='summary'> {len(trajectory)} run(s) on this "
            "fingerprint</span>"
        )
        parts.append(_phase_bar(bench["phases"]))
        work = bench.get("work")
        if work:
            parts.append(
                "<p class='summary'>planner work: "
                + " &middot; ".join(
                    f"{esc(counter)} {value:,}"
                    for counter, value in sorted(work.items())
                    if value
                )
                + "</p>"
            )
        parts.append("</div>")
    if compare is not None and compare.deltas:
        parts.append("<h2>Baseline comparison</h2><table>")
        parts.append(
            "<tr><th class='name'>benchmark</th><th>baseline</th>"
            "<th>current</th><th>delta</th><th>band</th>"
            "<th class='name'>verdict</th></tr>"
        )
        for d in compare.deltas:
            if d.regressed:
                verdict = "<span class='neg'>REGRESSED</span>"
                if d.phase:
                    verdict += f" ({esc(d.phase)})"
            elif d.improved:
                verdict = "<span class='ok'>improved</span>"
            else:
                verdict = "ok"
            parts.append(
                f"<tr><td class='name'>{esc(d.name)}</td>"
                f"<td>{d.baseline_s * 1e3:.2f} ms</td>"
                f"<td>{d.current_s * 1e3:.2f} ms</td>"
                f"<td>{d.delta_s * 1e3:+.2f} ms</td>"
                f"<td>{d.band_s * 1e3:.2f} ms</td>"
                f"<td class='name'>{verdict}</td></tr>"
            )
        parts.append("</table>")
    loadgen = doc.get("loadgen")
    if loadgen:
        parts.extend(_loadgen_section(loadgen))
    parts.append("</body></html>")
    return "".join(parts)


def _loglog_plot(
    sizes: Sequence[float],
    medians: Sequence[float],
    exponent: float,
    width: int = 220,
    height: int = 120,
) -> str:
    """Inline SVG log-log scatter of a sweep series with its fitted line."""
    import math

    if len(sizes) < 2 or any(m <= 0.0 for m in medians):
        return ""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(m) for m in medians]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0
    pad = 8.0

    def px(x: float) -> float:
        return pad + (x - lo_x) / span_x * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - (y - lo_y) / span_y * (height - 2 * pad)

    # fitted line through the first point with the fitted slope
    y0 = ys[0] + exponent * (lo_x - xs[0])
    y1 = ys[0] + exponent * (hi_x - xs[0])
    dots = "".join(
        f"<circle cx='{px(x):.1f}' cy='{py(y):.1f}' r='3' fill='#d9564a'/>"
        for x, y in zip(xs, ys)
    )
    return (
        f"<svg class='spark' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<line x1='{px(lo_x):.1f}' y1='{py(y0):.1f}' "
        f"x2='{px(hi_x):.1f}' y2='{py(y1):.1f}' "
        "stroke='#4a90d9' stroke-width='1.5'/>"
        f"{dots}</svg>"
    )


def _exponent_rows(label_prefix: str, fits: dict, esc) -> List[str]:
    rows = []
    for name, fit in sorted(fits.items()):
        lo, hi = fit["ci95"]
        rows.append(
            f"<tr><td class='name'>{esc(label_prefix + name)}</td>"
            f"<td><b>n<sup>{fit['exponent']:.2f}</sup></b></td>"
            f"<td>[{lo:.2f}, {hi:.2f}]</td>"
            f"<td>{fit['r2']:.3f}</td></tr>"
        )
    return rows


def render_profile_html(doc: dict) -> str:
    """Self-contained dashboard for one (validated) planner-profile doc.

    Three sections, each present only when its data is: the capture
    summary (wall, phase bar, work-counter table), the profile top
    frames, and the scaling sweep (per-point table, fitted-exponent
    table with bootstrap CI95, log-log plots of wall time and the
    steepest work counter).
    """
    from repro.obs.profile import validate_profile

    validate_profile(doc)
    esc = html.escape
    env = doc["environment"]
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>ktiler planner profile</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>ktiler planner profile</h1>",
        "<p class='summary'>"
        f"app <b>{esc(doc['app'])}</b> &middot; "
        f"commit <code>{esc(str(env['git_sha'])[:12])}</code> &middot; "
        f"python {esc(env['python'])} &middot; "
        f"{env['workers']} worker(s) &middot; "
        f"noise key <code>{esc(env['noise_key'][:12])}</code>"
        "</p>",
    ]
    if "work" in doc:
        parts.append("<div class='card'><h2>Planner work</h2>")
        if "wall_s" in doc:
            parts.append(
                f"<p class='summary'>one plan: "
                f"<b>{doc['wall_s'] * 1e3:.2f} ms</b> wall</p>"
            )
        if doc.get("phases"):
            parts.append(
                _phase_bar(
                    {p: {"median": s} for p, s in doc["phases"].items()}
                )
            )
        parts.append(
            "<table><tr><th class='name'>counter</th><th>count</th></tr>"
        )
        for counter, value in sorted(doc["work"].items()):
            parts.append(
                f"<tr><td class='name'>planner.{esc(counter)}</td>"
                f"<td>{value:,}</td></tr>"
            )
        parts.append("</table></div>")
    profile = doc.get("profile")
    if profile is not None and profile.get("frames"):
        total_us = profile["total_us"] or 1.0
        parts.append(
            "<div class='card'><h2>Hottest stacks "
            f"({esc(profile['engine'])} engine)</h2>"
            f"<p class='summary'>{profile['total_us'] / 1e3:.2f} ms "
            "attributed self time"
            + (" &middot; frame list truncated" if profile["truncated"] else "")
            + "</p><table><tr><th class='name'>frame</th>"
            "<th>self</th><th>share</th><th>calls</th></tr>"
        )
        for frame in profile["frames"][:20]:
            leaf = frame["stack"][-1]
            parts.append(
                f"<tr><td class='name' title='{esc(';'.join(frame['stack']))}'>"
                f"{esc(leaf)}</td>"
                f"<td>{frame['self_us'] / 1e3:.2f} ms</td>"
                f"<td>{frame['self_us'] / total_us * 100:.1f}%</td>"
                f"<td>{frame['calls']:,}</td></tr>"
            )
        parts.append("</table></div>")
    sweep = doc.get("sweep")
    if sweep is not None:
        exponents = sweep["exponents"]
        parts.append(
            "<div class='card'><h2>Scalability sweep</h2>"
            "<p class='summary'>"
            f"shape <b>{esc(sweep['shape'])}</b> &middot; "
            f"sizes {esc(', '.join(str(s) for s in sweep['sizes']))} kernels "
            f"&middot; {sweep['repeats']} repeats + "
            f"{sweep.get('warmup', 0)} warmup &middot; "
            f"seed {sweep.get('seed', 0)}</p>"
        )
        wall_fit = exponents["wall_s"]
        parts.append(
            f"<p>wall time scales as <b>n<sup>{wall_fit['exponent']:.2f}"
            "</sup></b> on this ladder "
            f"(CI95 [{wall_fit['ci95'][0]:.2f}, {wall_fit['ci95'][1]:.2f}], "
            f"r&sup2; {wall_fit['r2']:.3f})</p>"
        )
        parts.append(
            _loglog_plot(
                sweep["sizes"], wall_fit["medians"], wall_fit["exponent"]
            )
        )
        work_fits = exponents.get("work") or {}
        if work_fits:
            steepest = max(
                work_fits.items(), key=lambda kv: kv[1]["exponent"]
            )
            parts.append(
                "<p class='summary'>steepest work counter: "
                f"<b>planner.{esc(steepest[0])}</b> at "
                f"n<sup>{steepest[1]['exponent']:.2f}</sup> (exact — "
                "work counters are deterministic)</p>"
            )
            parts.append(
                _loglog_plot(
                    sweep["sizes"],
                    steepest[1]["medians"],
                    steepest[1]["exponent"],
                )
            )
        parts.append(
            "<h2>Fitted exponents</h2>"
            "<table><tr><th class='name'>series</th><th>exponent</th>"
            "<th>CI95</th><th>r&sup2;</th></tr>"
        )
        parts.extend(_exponent_rows("", {"wall_s": wall_fit}, esc))
        parts.extend(
            _exponent_rows("phase.", exponents.get("phases") or {}, esc)
        )
        parts.extend(_exponent_rows("planner.", work_fits, esc))
        parts.append("</table>")
        parts.append(
            "<h2>Ladder points</h2>"
            "<table><tr><th>kernels</th><th>wall median</th><th>MAD</th>"
            "<th>work total</th><th class='name'>top counter</th></tr>"
        )
        for point in sweep["points"]:
            work = point["work"]
            top = max(work.items(), key=lambda kv: kv[1]) if work else None
            parts.append(
                f"<tr><td>{point['kernels']:,}</td>"
                f"<td>{point['wall_s']['median'] * 1e3:.2f} ms</td>"
                f"<td>{point['wall_s']['mad'] * 1e3:.2f} ms</td>"
                f"<td>{sum(work.values()):,}</td>"
                "<td class='name'>"
                + (
                    f"planner.{esc(top[0])} ({top[1]:,})"
                    if top and top[1] else "—"
                )
                + "</td></tr>"
            )
        parts.append("</table></div>")
    parts.append("</body></html>")
    return "".join(parts)


def write_profile_html(doc: dict, html_path: str) -> str:
    """Render and write the profile dashboard; returns the path."""
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_profile_html(doc))
    return html_path


def write_bench(
    doc: dict,
    json_path: Optional[str] = None,
    html_path: Optional[str] = None,
    history_path: Optional[str] = None,
    compare: Optional[CompareReport] = None,
) -> List[str]:
    """Validate ``doc`` once, then write whichever outputs were asked for.

    The history (if given) is loaded for the sparklines *before* this
    run is appended to it, so the dashboard's trajectory ends at the
    current point.  Returns the paths written, in write order.
    """
    from repro.obs.bench import load_history

    validate_bench(doc)
    written: List[str] = []
    history: List[dict] = []
    if history_path:
        history = load_history(history_path)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(json_path)
    if html_path:
        with open(html_path, "w", encoding="utf-8") as fh:
            fh.write(render_bench_html(doc, history=history, compare=compare))
        written.append(html_path)
    if history_path:
        append_history(history_path, doc)
        written.append(history_path)
    return written
