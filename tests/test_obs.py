"""Tests for the observability subsystem (``repro.obs``).

Covers the counter registry (label aggregation), the tracer pair
(Tracer / NullTracer), the Chrome-trace exporter (JSON round-trip,
one slice per launch, monotone counter tracks), and the metric dumps
(Prometheus text + JSON).
"""

import json
import os

import pytest

from repro.apps import build_pipeline
from repro.apps.synthetic import build_jacobi_pingpong
from repro.core import KTiler, KTilerConfig
from repro.gpusim import GpuSimulator, NOMINAL
from repro.gpusim.timeline import Timeline
from repro.obs import (
    NULL_TRACER,
    CounterRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    build_chrome_trace,
    metrics_to_json,
    metrics_to_prometheus,
    timeline_trace_events,
    write_chrome_trace,
    write_metrics,
)
from repro.runtime import compare_default_vs_ktiler
from repro.runtime.report import ComparisonReport


class TestCounterRegistry:
    def test_counter_accumulates(self):
        reg = CounterRegistry()
        reg.inc("cache.hits", 3, kernel="jacobi")
        reg.inc("cache.hits", 2, kernel="jacobi")
        assert reg.get("cache.hits", kernel="jacobi") == 5
        assert reg.kind("cache.hits") == "counter"

    def test_gauge_last_write_wins(self):
        reg = CounterRegistry()
        reg.set_gauge("occupancy", 0.25, sm=0)
        reg.set_gauge("occupancy", 0.75, sm=0)
        assert reg.get("occupancy", sm=0) == 0.75
        assert reg.kind("occupancy") == "gauge"

    def test_labels_are_order_insensitive(self):
        reg = CounterRegistry()
        reg.inc("x", 1, a="1", b="2")
        reg.inc("x", 1, b="2", a="1")
        assert reg.get("x", a="1", b="2") == 2

    def test_label_values_stringified(self):
        reg = CounterRegistry()
        reg.inc("x", 1, grid=128)
        assert reg.get("x", grid="128") == 1

    def test_total_aggregates_across_labels(self):
        reg = CounterRegistry()
        reg.inc("cache.hits", 10, kernel="jacobi", subkernel="0")
        reg.inc("cache.hits", 20, kernel="jacobi", subkernel="1")
        reg.inc("cache.hits", 5, kernel="warp", subkernel="0")
        assert reg.total("cache.hits") == 35
        assert reg.total("cache.hits", kernel="jacobi") == 30
        assert reg.total("cache.hits", subkernel="0") == 15
        assert reg.total("cache.hits", kernel="warp", subkernel="0") == 5
        assert reg.total("cache.hits", kernel="nope") == 0.0
        assert reg.total("no.such.family") == 0.0

    def test_get_is_exact_match(self):
        reg = CounterRegistry()
        reg.inc("x", 1, kernel="jacobi", subkernel="0")
        assert reg.get("x", kernel="jacobi") == 0.0
        assert reg.get("x") == 0.0

    def test_names_sorted_and_container_protocol(self):
        reg = CounterRegistry()
        reg.inc("b.metric")
        reg.set_gauge("a.metric", 1.0)
        assert reg.names() == ["a.metric", "b.metric"]
        assert "a.metric" in reg
        assert "c.metric" not in reg
        assert len(reg) == 2

    def test_samples_and_as_dict(self):
        reg = CounterRegistry()
        reg.inc("hits", 4, kernel="k")
        samples = reg.samples("hits")
        assert samples == [({"kernel": "k"}, 4.0)]
        d = reg.as_dict()
        assert d["hits"]["kind"] == "counter"
        assert d["hits"]["samples"] == [{"labels": {"kernel": "k"}, "value": 4.0}]

    def test_clear(self):
        reg = CounterRegistry()
        reg.inc("x")
        reg.clear()
        assert len(reg) == 0

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.inc("x", 5, kernel="k")
        reg.set_gauge("y", 1.0)
        assert len(reg) == 0
        assert reg.names() == []
        assert reg.total("x") == 0.0
        assert "x" not in reg


class TestTracer:
    def test_span_records_complete_event(self):
        tr = Tracer()
        with tr.span("work", cat="test", n=3):
            pass
        (ev,) = tr.events
        assert ev["ph"] == "X"
        assert ev["name"] == "work"
        assert ev["cat"] == "test"
        assert ev["args"] == {"n": 3}
        assert ev["dur"] >= 0.0

    def test_span_survives_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("doomed"):
                raise ValueError("boom")
        assert len(tr.events) == 1

    def test_instant_and_counter(self):
        tr = Tracer()
        tr.instant("decision", cat="sched", verdict="adopted")
        tr.counter("rate", {"l2": 0.5}, ts_us=12.0)
        inst, ctr = tr.events
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert ctr["ph"] == "C" and ctr["ts"] == 12.0

    def test_sim_span_uses_given_timestamps(self):
        tr = Tracer()
        tr.sim_span("JI.0", ts_us=100.0, dur_us=7.5, blocks=4)
        (ev,) = tr.sim_events
        assert ev["ts"] == 100.0 and ev["dur"] == 7.5
        assert not tr.events  # separate domain

    def test_attach_timeline_replaces_by_label(self):
        tr = Tracer()
        a, b = Timeline(), Timeline()
        tr.attach_timeline("run", a)
        tr.attach_timeline("run", b)
        assert tr.timelines == {"run": b}

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        assert nt.enabled is False
        with nt.span("x", anything=1):
            pass
        nt.instant("x")
        nt.counter("x", {"v": 1.0})
        nt.sim_span("x", 0.0, 1.0)
        nt.attach_timeline("x", Timeline())
        nt.metrics.inc("x", 5)
        assert nt.events == [] and nt.sim_events == [] and nt.timelines == {}
        assert len(nt.metrics) == 0
        assert nt.now_us() == 0.0

    def test_null_tracer_singleton_exported(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled


class TestTimelineMeta:
    def test_meta_stored_on_event(self):
        tl = Timeline()
        ev = tl.add_launch("k", 5.0, meta={"l2_hit_rate": 0.5})
        assert ev.meta == {"l2_hit_rate": 0.5}

    def test_meta_defaults_to_none(self):
        tl = Timeline()
        assert tl.add_launch("k", 5.0).meta is None

    def test_gap_none_falls_back_to_timeline_gap(self):
        tl = Timeline(launch_gap_us=3.0)
        first = tl.add_launch("a", 1.0)
        second = tl.add_launch("b", 1.0)
        assert first.gap_before_us == 0.0  # first launch never pays
        assert second.gap_before_us == 3.0

    def test_explicit_zero_gap_overrides(self):
        tl = Timeline(launch_gap_us=3.0)
        tl.add_launch("a", 1.0)
        ev = tl.add_launch("b", 1.0, gap_us=0.0)
        assert ev.gap_before_us == 0.0


class TestChromeTrace:
    def _traced_run(self):
        tracer = Tracer()
        app = build_pipeline(size=128)
        ktiler = KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            tracer=tracer,
        )
        compare_default_vs_ktiler(ktiler, [NOMINAL])
        return tracer

    def test_round_trip_and_structure(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        trace = json.loads(path.read_text())  # must be valid JSON
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events, "traced run produced no events"
        for ev in events:
            assert ev["ph"] in ("X", "C", "i", "M")
            assert "pid" in ev

        # One X slice per launch in each attached timeline.
        by_pid_name = {
            ev["pid"]: ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M"
        }
        for label, timeline in tracer.timelines.items():
            pid = next(p for p, n in by_pid_name.items() if n == label)
            slices = [
                e for e in events if e["pid"] == pid and e["ph"] == "X"
            ]
            assert len(slices) == timeline.num_launches

        # Counter tracks exist and their timestamps are monotone.
        counters = {}
        for ev in events:
            if ev["ph"] == "C":
                counters.setdefault((ev["pid"], ev["name"]), []).append(ev["ts"])
        names = {name for _, name in counters}
        assert "l2_hit_rate" in names
        assert "occupancy" in names
        for ts_list in counters.values():
            assert ts_list == sorted(ts_list)

    def test_scheduler_decisions_exported(self):
        tracer = self._traced_run()
        trace = build_chrome_trace(tracer)
        decisions = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "i" and e["name"] == "sched.merge"
        ]
        assert decisions, "no merge-decision instants in trace"
        for d in decisions:
            assert d["args"]["decision"] in ("adopted", "rejected", "invalid")
            assert d["pid"] == 1  # wall-clock scheduler process

    def test_timeline_trace_events_standalone(self):
        tl = Timeline(launch_gap_us=2.0)
        tl.add_launch("k0", 5.0, meta={"l2_hit_rate": 0.25, "occupancy": 0.5})
        tl.add_launch("k1", 3.0)
        events = timeline_trace_events(tl, pid=42)
        slices = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in slices] == ["k0", "k1"]
        assert slices[1]["ts"] == pytest.approx(7.0)  # 5.0 busy + 2.0 gap
        assert all(e["pid"] == 42 for e in events)
        # Only the launch with metadata feeds counter tracks.
        assert len([e for e in events if e["ph"] == "C"]) == 2

    def test_build_accepts_explicit_timelines_without_tracer(self):
        tl = Timeline()
        tl.add_launch("k", 1.0)
        trace = build_chrome_trace(timelines={"solo": tl})
        phs = [e["ph"] for e in trace["traceEvents"]]
        assert phs == ["M", "X"]

    def test_null_tracer_exports_empty(self):
        trace = build_chrome_trace(NULL_TRACER)
        assert trace["traceEvents"] == []

    def test_empty_timeline_is_skipped(self, tmp_path):
        # Regression: an attached-but-never-launched timeline used to
        # emit a dangling process_name metadata event with no slices.
        tl = Timeline()
        tl.add_launch("k", 1.0)
        trace = build_chrome_trace(timelines={"a_empty": Timeline(), "solo": tl})
        names = [e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"]
        assert names == ["solo"]
        phs = [e["ph"] for e in trace["traceEvents"]]
        assert phs == ["M", "X"]

        path = tmp_path / "empty.json"
        write_chrome_trace(str(path), timelines={"only_empty": Timeline()})
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_numpy_meta_round_trips(self, tmp_path):
        # Regression: batched-replay launch metadata carries numpy
        # scalars (np.float64 hit rates, np.int64 counts, np.bool_
        # flags), which ``json.dump`` rejects without sanitizing.
        import numpy as np

        tl = Timeline()
        tl.add_launch(
            "k",
            np.float64(2.5),
            meta={
                "l2_hit_rate": np.float64(0.5),
                "hits": np.int64(7),
                "warmed": np.bool_(True),
            },
        )
        path = tmp_path / "numpy.json"
        write_chrome_trace(str(path), timelines={"fast": tl})
        trace = json.loads(path.read_text())
        (launch,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert launch["dur"] == 2.5
        assert launch["args"] == {"l2_hit_rate": 0.5, "hits": 7, "warmed": True}

    def test_batched_replay_run_exports(self, tmp_path):
        tracer = Tracer()
        app = build_pipeline(size=128)
        ktiler = KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            tracer=tracer,
        )
        compare_default_vs_ktiler(ktiler, [NOMINAL])
        path = tmp_path / "fast.json"
        write_chrome_trace(str(path), tracer)
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


class TestMetricDumps:
    def _populated(self):
        reg = CounterRegistry()
        reg.inc("sim.cache.hits", 10, kernel="jacobi")
        reg.inc("sim.cache.hits", 4, kernel="warp")
        reg.set_gauge("run.l2_hit_rate", 0.5, schedule="default")
        return reg

    def test_prometheus_format(self):
        text = metrics_to_prometheus(self._populated())
        assert "# TYPE sim_cache_hits counter" in text
        assert 'sim_cache_hits{kernel="jacobi"} 10' in text
        assert "# TYPE run_l2_hit_rate gauge" in text
        assert 'run_l2_hit_rate{schedule="default"} 0.5' in text
        assert text.endswith("\n")

    def test_prometheus_label_escaping(self):
        reg = CounterRegistry()
        reg.set_gauge("g", 1.0, label='quo"te\\slash')
        text = metrics_to_prometheus(reg)
        assert 'label="quo\\"te\\\\slash"' in text

    def test_prometheus_name_sanitization(self):
        reg = CounterRegistry()
        reg.inc("2nd.metric-name")
        text = metrics_to_prometheus(reg)
        assert "_2nd_metric_name" in text

    def test_json_dump_includes_totals(self):
        data = metrics_to_json(self._populated())
        assert data["sim.cache.hits"]["total"] == 14
        assert data["sim.cache.hits"]["kind"] == "counter"

    def test_write_metrics_both_formats(self, tmp_path):
        reg = self._populated()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        write_metrics(reg, prom_path=str(prom), json_path=str(js))
        assert "# TYPE" in prom.read_text()
        assert json.loads(js.read_text())["sim.cache.hits"]["total"] == 14

    def test_traced_run_emits_ten_plus_families(self, tmp_path):
        """The acceptance bar: a real traced run yields >= 10 metric names."""
        tracer = Tracer()
        app = build_pipeline(size=128)
        ktiler = KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            tracer=tracer,
        )
        compare_default_vs_ktiler(ktiler, [NOMINAL])
        names = tracer.metrics.names()
        assert len(names) >= 10, names
        text = metrics_to_prometheus(tracer.metrics)
        assert text.count("# TYPE") == len(names)
        assert text.count("# HELP") == len(names)


GOLDEN_PROM = os.path.join(
    os.path.dirname(__file__), "golden", "metrics_reference.prom"
)


def _golden_prom_registry() -> CounterRegistry:
    """A fixed registry exercising every exposition feature.

    Counters and gauges, labeled and bare samples, multiple label keys
    (inserted out of order to prove sorting), a known family, every
    dynamic-prefix family, an unknown family for the fallback help
    line, and a labeled histogram family (cumulative le buckets,
    +Inf, _sum and _count lines).
    """
    reg = CounterRegistry()
    reg.inc("sim.launch.count", 3)
    reg.inc("cache.hits", 10, kernel="jacobi", schedule="default")
    reg.inc("cache.hits", 4, schedule="tiled", kernel="jacobi")
    reg.inc("store.hits", 2, kind="profile")
    reg.inc("audit.miss.cold", 7, schedule="default", kernel="warp")
    reg.set_gauge("run.l2_hit_rate", 0.875, schedule="tiled")
    reg.set_gauge("l2_buffers.default", 12.0, buffer="img0")
    reg.set_gauge("custom.family", 1.5)
    reg.inc("planner.footprint_unions", 44)
    reg.inc("planner.merge_probes", 55)
    reg.inc("decisions.recorded", 25)
    reg.inc("decisions.adopted", 2)
    reg.inc("decisions.rejected", 1)
    reg.inc("decisions.invalid", 0)
    reg.inc("decisions.skipped", 0)
    reg.inc("decisions.excluded", 1)
    reg.inc("decisions.tile_rounds", 22)
    for value in (0.00005, 0.0004, 0.0004, 0.003, 1000.0):
        reg.observe("serve.latency", value, outcome="ok", endpoint="plan")
    reg.observe("serve.latency", 0.0002, endpoint="plan", outcome="memo_hit")
    return reg


class TestPrometheusGolden:
    """Scrape-format stability: the exposition is pinned byte for byte.

    Family order, # HELP/# TYPE header order, and label ordering are
    part of the obs contract — a diff here is an intentional format
    change and must ship with a regenerated fixture (see TESTING.md).
    """

    def test_exposition_matches_golden(self):
        with open(GOLDEN_PROM, "r", encoding="utf-8") as fh:
            expected = fh.read()
        assert metrics_to_prometheus(_golden_prom_registry()) == expected

    def test_every_family_has_help_then_type(self):
        text = metrics_to_prometheus(_golden_prom_registry())
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# HELP"):
                family = line.split()[2]
                assert lines[i + 1].startswith(f"# TYPE {family} "), line

    def test_label_order_is_input_independent(self):
        a = CounterRegistry()
        a.inc("cache.hits", 1, kernel="k", schedule="s")
        b = CounterRegistry()
        b.inc("cache.hits", 1, schedule="s", kernel="k")
        assert metrics_to_prometheus(a) == metrics_to_prometheus(b)


def regenerate_golden_prom() -> None:
    with open(GOLDEN_PROM, "w", encoding="utf-8") as fh:
        fh.write(metrics_to_prometheus(_golden_prom_registry()))
    print(f"wrote {GOLDEN_PROM}")


class TestInstrumentedSimulator:
    def test_launch_emits_sim_span_and_metrics(self):
        tracer = Tracer()
        app = build_jacobi_pingpong(iters=1, size=64)
        sim = GpuSimulator(tracer=tracer)
        for node in app.graph:
            sim.launch(node.kernel)
        assert len(tracer.sim_events) == len(sim.launches)
        # Spans tile simulated time: each starts at the prior cursor.
        cursor = 0.0
        for ev, result in zip(tracer.sim_events, sim.launches):
            assert ev["ts"] == pytest.approx(cursor)
            assert ev["dur"] == pytest.approx(result.time_us)
            cursor += result.time_us
        m = tracer.metrics
        assert m.total("sim.launch.count") == len(sim.launches)
        assert m.total("sim.cache.hits") + m.total("sim.cache.misses") > 0

    def test_cache_eviction_attribution(self):
        """Per-launch cache deltas must sum to the global stats."""
        tracer = Tracer()
        app = build_jacobi_pingpong(iters=2, size=128)
        sim = GpuSimulator(tracer=tracer)
        for node in app.graph:
            sim.launch(node.kernel)
        m = tracer.metrics
        assert m.total("sim.cache.hits") == sim.l2.stats.hits
        assert m.total("sim.cache.misses") == sim.l2.stats.misses
        assert m.total("sim.cache.evictions") == sim.l2.stats.evictions

    def test_default_simulator_untraced(self):
        sim = GpuSimulator()
        assert sim.tracer is NULL_TRACER


class TestEmptyComparisonReport:
    def test_mean_gains_zero_on_empty(self):
        report = ComparisonReport(rows=[])
        assert report.mean_gain_with_ig == 0.0
        assert report.mean_gain_without_ig == 0.0
        # format_table must not raise either.
        assert "average" in report.format_table()


if __name__ == "__main__":
    regenerate_golden_prom()
