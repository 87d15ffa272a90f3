"""Golden-schedule regression test for the Figure 5 tiled schedule.

``tests/golden/schedule_hsopticalflow_reference.json`` pins the exact
schedule KTILER produces for the scaled HSOpticalFlow configuration
(SCALED_SPEC, 256x256 frames, 3 levels, 20 Jacobi iterations) at the
nominal operating point: every sub-kernel's node, label, and
run-length-encoded block list in launch order, plus the adopted
partition and the scheduler telemetry.  It was generated by the
**reference** planner with the list-based L2 that is now the test
oracle (regenerate with ``PYTHONPATH=src python
tests/test_golden_schedule.py``).  Every planner backend must
reproduce the shared summary verbatim, both on the
simulator's own vectorized L2 (``fast``) and with the oracle swapped in
(``reference``, see :func:`tests.oracles.use_oracle_l2`).

The *validity-family* work counters (``merge_probes`` /
``reach_repairs``; see :data:`repro.core.work.VALIDITY_COUNTERS`)
measure the selected planner backend's own merge-validity machinery —
the reference's BFS dequeues vs the fast backend's bitset words — so
they are deterministic per planner backend but not comparable across
them.  The fixture pins them *per planner backend* next to the shared
summary: a change in either backend's validity algorithm shows up as a
fixture diff without poisoning the cross-backend schedule contract.

The point is reviewability: a scheduler refactor that changes ANY merge
decision, launch order, or block partition shows up here as a concrete
fixture diff a reviewer can read, instead of as a silent behavior
change hidden behind an aggregate gain metric.  Intentional changes
regenerate the fixture and the diff documents exactly what moved.

Costs vary with frequency but the *comparisons* the scheduler makes do
not collapse across operating points in general — the fixture pins the
NOMINAL plan only, which is the one ``ktiler fig5`` reports first.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.work import VALIDITY_COUNTERS
from tests.oracles import use_oracle_l2

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "schedule_hsopticalflow_reference.json"

#: Rounded to 6 decimals: the estimated cost is a sum of table lookups
#: whose float error is well below a nanosecond at this scale.
COST_ROUND = 6


def build_plan(planner_backend: str = "reference"):
    from repro.apps.hsopticalflow import build_hsopticalflow
    from repro.core.ktiler import KTiler, KTilerConfig
    from repro.experiments.presets import (
        SCALED_FRAME_SIZE,
        SCALED_JACOBI_ITERS,
        SCALED_LEVELS,
        SCALED_SPEC,
    )
    from repro.gpusim import NOMINAL

    app = build_hsopticalflow(
        frame_size=SCALED_FRAME_SIZE,
        levels=SCALED_LEVELS,
        jacobi_iters=SCALED_JACOBI_ITERS,
    )
    ktiler = KTiler(
        app.graph,
        spec=SCALED_SPEC,
        config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
        planner_backend=planner_backend,
    )
    return app.graph, ktiler.plan(NOMINAL)


def plan_summary(graph, plan) -> tuple:
    """(shared summary, validity counters of the planner backend used)."""
    from repro.core.serialize import schedule_to_dict

    stats = asdict(plan.stats)
    validity = {c: stats["work"].pop(c) for c in VALIDITY_COUNTERS}
    summary = {
        "schedule": schedule_to_dict(plan.schedule, graph),
        "partition": sorted(
            sorted(plan.partition.members(c))
            for c in plan.partition.cluster_ids()
        ),
        "stats": stats,
        "estimated_cost_us": round(plan.estimated_cost_us, COST_ROUND),
    }
    return summary, validity


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden fixture {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_schedule.py`"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("planner_backend", ["reference", "fast"])
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_backends_reproduce_golden_schedule(backend, planner_backend, monkeypatch):
    golden = load_golden()
    assert golden["backend"] == "reference"
    if backend == "reference":
        use_oracle_l2(monkeypatch)
    graph, plan = build_plan(planner_backend=planner_backend)
    summary, validity = plan_summary(graph, plan)
    assert summary == golden["summary"], (
        f"the scaled HSOpticalFlow schedule with the {backend} L2 and "
        f"planner_backend={planner_backend} diverged from the golden "
        "fixture; if the change is intentional, regenerate it and "
        "review the diff"
    )
    assert validity == golden["validity"][planner_backend]


def test_golden_schedule_roundtrips_through_serializer():
    """The pinned schedule loads, validates, and re-encodes verbatim."""
    from repro.core.serialize import schedule_from_dict, schedule_to_dict

    golden = load_golden()
    graph, _ = build_plan(planner_backend="fast")
    schedule = schedule_from_dict(golden["summary"]["schedule"], graph)
    assert schedule_to_dict(schedule, graph) == golden["summary"]["schedule"]


def test_wire_format_reproduces_golden_schedule_verbatim():
    """The serve JSON wire format carries the fig5 schedule exactly.

    The golden schedule document is pushed through a real JSON encode →
    decode (what a daemon response body undergoes), deserialized, and
    re-encoded: any wire-format drift — key renames, numpy scalars
    leaking into the encoder, RLE changes — lands here as a fixture
    diff.  The plan digest ties the same bytes to the serve API's
    bit-identity contract.
    """
    from repro.core.serialize import schedule_from_dict, schedule_to_dict
    from repro.serve.wire import plan_digest
    from repro.store.fingerprint import content_key

    golden = load_golden()
    graph, plan = build_plan(planner_backend="fast")
    wire = json.loads(json.dumps(golden["summary"]["schedule"]))
    assert wire == golden["summary"]["schedule"]
    schedule = schedule_from_dict(wire, graph)
    assert schedule_to_dict(schedule, graph) == golden["summary"]["schedule"]
    assert plan_digest(schedule, graph) == content_key(
        golden["summary"]["schedule"]
    )
    assert plan_digest(plan.schedule, graph) == plan_digest(schedule, graph)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    graph, plan = build_plan(planner_backend="reference")
    summary, ref_validity = plan_summary(graph, plan)
    graph_fast, plan_fast = build_plan(planner_backend="fast")
    summary_fast, fast_validity = plan_summary(graph_fast, plan_fast)
    if summary != summary_fast:
        raise SystemExit(
            "planner backends disagree on the shared summary; refusing "
            "to write a golden fixture from divergent backends"
        )
    payload = {
        "backend": "reference",
        "summary": summary,
        "validity": {"reference": ref_validity, "fast": fast_validity},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
