"""Self-contained HTML pages: one house style, one page shell.

Every report the package writes — the ``ktiler explain`` audit, the
``ktiler diff`` report, the ``ktiler profile`` dashboard and the
daemon's ``/statusz`` — is one file with no external assets or
scripts.  Each wraps its body in :func:`page`, which supplies the
shared :data:`BASE_STYLE`, and adds only the rules it uses itself.
The planner-profile dashboard (:func:`render_profile_html`) lives here.
"""

from __future__ import annotations

import html
from typing import Dict, List, Sequence

from repro.obs.bench import PHASES

#: The rules every page shares: typography, tables, summary lines and
#: the good/bad colors.
BASE_STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin: 0.75em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: right; }
th { background: #f2f2f2; } td.name, th.name { text-align: left; }
.summary { color: #444; } .neg { color: #b00; } .ok { color: #2e7d32; }
"""


def page(title: str, body: str, css: str = "") -> str:
    """A complete HTML document: ``title`` is escaped, ``body`` and the
    page's own ``css`` rules are inserted verbatim."""
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{BASE_STYLE}{css}</style></head><body>"
        f"{body}</body></html>"
    )


_PROFILE_STYLE = """
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
svg.spark { vertical-align: middle; }
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


def _phase_bar(phases: Dict[str, float]) -> str:
    """Stacked proportional-width bar of per-phase seconds."""
    total = sum(phases.values())
    if total <= 0.0:
        return "<span class='summary'>(no phase data)</span>"
    cells = []
    for phase in PHASES:
        seconds = phases.get(phase, 0.0)
        if seconds <= 0.0:
            continue
        share = seconds / total
        cells.append(
            f"<div style='width:{share * 100:.2f}%;"
            f"background:{_PHASE_COLORS[phase]}' "
            f"title='{phase}: {seconds * 1e3:.2f} ms "
            f"({share * 100:.1f}%)'></div>"
        )
    legend = "".join(
        f"<span><i class='swatch' "
        f"style='background:{_PHASE_COLORS[phase]}'></i>"
        f"{phase} {phases[phase] * 1e3:.2f}&thinsp;ms</span>"
        for phase in PHASES
        if phases.get(phase, 0.0) > 0.0
    )
    return (
        f"<div class='phasebar'>{''.join(cells)}</div>"
        f"<div class='legend'>{legend}</div>"
    )


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
        "<h1>ktiler planner profile</h1>",
        "<p class='summary'>"
        f"app <b>{esc(doc['app'])}</b> &middot; "
        f"commit <code>{esc(str(env['git_sha'])[:12])}</code> &middot; "
        f"python {esc(env['python'])}"
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
            parts.append(_phase_bar(doc["phases"]))
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
    return page("ktiler planner profile", "".join(parts), css=_PROFILE_STYLE)


def write_profile_html(doc: dict, html_path: str) -> str:
    """Render and write the profile dashboard; returns the path."""
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_profile_html(doc))
    return html_path
