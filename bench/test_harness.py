"""Tests of the repo benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Kept outside the tier-1 ``testpaths``; every workload runs here at the
``tiny`` scale.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import probes
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _names(group):
    return [metric["name"] for metric in _spec()[group]]


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][1] == "bench/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]] + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names)) and all(name_ok.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit_ok.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} and unit_ok.match(m["unit"])
               for m in spec["per_layer"])


@pytest.mark.parametrize("probe", probes.PROBES, ids=lambda p: p.target)
def test_every_probe_target_resolves_to_a_callable(probe):
    assert callable(probes.target_callable(probe.target))


def test_request_id_source_resolves():
    assert callable(probes.target_callable(probes.REQUEST_ID_SOURCE))


def test_install_wraps_direct_imports_and_uninstall_restores():
    import repro.core.app_tile as app_tile
    import repro.core.ktiler as ktiler

    original = app_tile.application_tile
    recorder = probes.SpanRecorder().install()
    try:
        assert ktiler.application_tile is app_tile.application_tile
        assert ktiler.application_tile is not original
    finally:
        recorder.uninstall()
    assert ktiler.application_tile is original and app_tile.application_tile is original


def test_traced_fig5_iteration_is_covered_by_named_layers():
    m = workloads.run_workload("fig5-cold", seed=0, seconds=0, trace=True, scale="tiny")
    events = probes.read_events(str(workloads.OUT_DIR / "fig5-cold-seed0.trace.json"))
    assert events and all(event["name"] in probes.LAYERS for event in events)
    for index, wall in enumerate(m.latencies_s):
        spans = [(e, s) for e, s in probes.self_times(events)
                 if e["args"]["rid"] == f"op{index}"]
        total = sum(s for _, s in spans)
        named = sum(s for e, s in spans if e["name"] != probes.ROOT_LAYER)
        assert abs(total - wall) <= 0.05 * wall
        assert named >= 0.9 * wall


def test_tampered_fig5_row_is_caught():
    expected = copy.deepcopy(workloads.load_expected()["tiny"])
    row = expected["fig5"]["(405,810)"]
    row["ktiler_total_us"] += 1e-6
    m = workloads.run_workload("fig5-cold", seed=0, seconds=0, trace=False,
                               scale="tiny", expected=expected)
    assert m.attempted >= 1 and m.failed == m.attempted


def test_tampered_plan_digest_is_caught():
    expected = copy.deepcopy(workloads.load_expected()["tiny"])
    expected["serve"]["fig5@1324/5010"]["plan_digest"] = "0" * 64
    m = workloads.run_workload("serve-warm", seed=0, seconds=0.2, trace=False,
                               scale="tiny", expected=expected)
    assert not m.setup_ok
    assert m.failed >= 1


def test_mixed_stream_is_seeded_and_sends_each_key_once_as_a_miss():
    def take(seed):
        stream = workloads.mixed_stream(seed, workloads.SCALES["tiny"])
        return [next(stream) for _ in range(600)]

    first, again = take(3), take(3)
    assert first == again and first != take(4)
    seen, fresh = set(), []
    for index, (key, variant, _) in enumerate(first):
        if (key, variant) not in seen:
            seen.add((key, variant))
            fresh.append(index)
    assert fresh[0] == 0
    assert all(b - a == workloads.MISS_EVERY for a, b in zip(fresh[1:], fresh[2:]))


def test_smoke_every_workload_untraced_and_traced(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--scale", "tiny", "--seconds", "0.5",
         "--trace", "1", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(out.read_text())
    assert set(doc["trace_overhead"]) == set(workloads.WORKLOADS)
    by_mode = {(run["workload"], run["trace"]): run for run in doc["runs"]}
    assert set(by_mode) == {(w, t) for w in workloads.WORKLOADS for t in (0, 1)}
    for (workload, trace), run in by_mode.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        groups = {"metrics": _names("end_to_end")}
        if trace:
            groups["layers"] = _names("per_layer")
        for group, names in groups.items():
            assert sorted(run[group]) == sorted(names)
            for metric in run[group].values():
                assert set(metric) == {"value", "unit", "n"}
                assert isinstance(metric["value"], float) and metric["n"] >= 1
        assert all(metric["value"] > 0 for metric in run["metrics"].values())


def test_compare_verdicts():
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}],
    }
    a = {("w", "t"): [100.0, 101.0, 99.0, 100.5]}
    cases = {
        "unchanged": [102.0, 103.0, 101.0, 102.5],
        "regressed": [130.0, 131.0, 129.0, 130.5],
        "improved": [80.0, 81.0, 79.0, 80.5],
        "unresolved": [60.0, 140.0, 100.0, 120.0],
    }
    for expected, b in cases.items():
        rows = compare.compare(a, {("w", "t"): b}, spec)
        assert [row["verdict"] for row in rows] == [expected]


def test_bench_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig5-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_committed_files_the_bench_reads_are_tracked():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("not a git checkout")
    tracked = set(subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split())
    needed = {"BENCHMARK.json", "bench/expected.json", "bench/README.md",
              "bench/results/untraced.json", "bench/results/traced.json"}
    needed |= {f"bench/{p.name}" for p in BENCH_DIR.glob("*.py")}
    assert needed <= tracked, sorted(needed - tracked)
