"""Golden planner fixture: a ~1k-kernel grid probe graph, pinned.

``tests/golden/planner_grid_probe.json`` pins the full planner output
for a 1024-kernel grid probe graph (``build_probe_graph(shape="grid",
kernels=1024, size=32, seed=0)``): the schedule document, the adopted
partition, the scheduler telemetry, and the deterministic work
counters.  Both planner backends must reproduce the shared summary
verbatim — the planner-backend contract at
a scale where the reference backend performs ~10^6 merge probes, so any
divergence in a single ``can_merge`` verdict shifts the counters or the
schedule immediately.

The *validity-family* counters (``merge_probes`` / ``reach_repairs``)
are planner-backend-local by design (see
:data:`repro.core.work.VALIDITY_COUNTERS`), so the fixture pins them
per backend instead of in the shared summary.

Regenerate with ``PYTHONPATH=src python tests/test_golden_planner.py``
after an intentional planner change, and review the diff.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.work import VALIDITY_COUNTERS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "planner_grid_probe.json"

SHAPE = "grid"
KERNELS = 1024
IMAGE_SIZE = 32
SEED = 0
COST_ROUND = 6


def build_plan(planner_backend: str):
    from repro.apps.synthetic import build_probe_graph
    from repro.core import KTiler, KTilerConfig

    app = build_probe_graph(
        shape=SHAPE, kernels=KERNELS, size=IMAGE_SIZE, seed=SEED
    )
    ktiler = KTiler(
        app.graph,
        config=KTilerConfig(launch_overhead_us=2.0),
        planner_backend=planner_backend,
    )
    return app.graph, ktiler.plan()


def split_summary(graph, plan) -> tuple:
    """(shared summary, per-backend validity counters).

    The shared part must be identical for every planner backend; the
    validity counters are pinned per backend.
    """
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
            "`PYTHONPATH=src python tests/test_golden_planner.py`"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("planner_backend", ["reference", "fast"])
def test_planner_backend_reproduces_golden(planner_backend):
    golden = load_golden()
    graph, plan = build_plan(planner_backend)
    summary, validity = split_summary(graph, plan)
    assert summary == golden["summary"], (
        f"the grid-probe plan under planner_backend={planner_backend} "
        "diverged from the golden fixture; if the change is "
        "intentional, regenerate it and review the diff"
    )
    assert validity == golden["validity"][planner_backend], (
        f"validity-family counters moved for planner_backend="
        f"{planner_backend}; this is an algorithm change — regenerate "
        "the fixture if intentional"
    )


def test_fixture_metadata_matches_this_test():
    golden = load_golden()
    assert golden["probe"] == {
        "shape": SHAPE,
        "kernels": KERNELS,
        "image_size": IMAGE_SIZE,
        "seed": SEED,
    }
    assert set(golden["validity"]) == {"reference", "fast"}
    for counters in golden["validity"].values():
        assert set(counters) == set(VALIDITY_COUNTERS)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    graph, plan = build_plan("reference")
    summary, ref_validity = split_summary(graph, plan)
    graph_fast, plan_fast = build_plan("fast")
    summary_fast, fast_validity = split_summary(graph_fast, plan_fast)
    if summary != summary_fast:
        raise SystemExit(
            "planner backends disagree on the shared summary; refusing "
            "to write a golden fixture from divergent backends"
        )
    payload = {
        "probe": {
            "shape": SHAPE,
            "kernels": KERNELS,
            "image_size": IMAGE_SIZE,
            "seed": SEED,
        },
        "summary": summary,
        "validity": {"reference": ref_validity, "fast": fast_validity},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
