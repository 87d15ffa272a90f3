"""Golden-file regression tests for the fig2/fig3 summary metrics.

``tests/golden/fig2_reference.json`` and ``fig3_reference.json`` were
generated with the list-based L2 that is now the test oracle
(``tests/oracles.py``; their ``"backend": "reference"`` key records
that).  Each figure runs twice: once on the simulator's own vectorized
L2 (``fast``) and once with the oracle swapped in (``reference``, see
:func:`tests.oracles.use_oracle_l2`).  Both must reproduce the fixtures
verbatim: the golden files pin the experiment outputs against
accidental behavioral drift and hold the vectorized L2 to the oracle at
whole-experiment granularity, not just per stream.  Regenerate with
``PYTHONPATH=src python tests/test_golden_figures.py``.

Floats are rounded to 10 decimal places on both sides of the
comparison; integers (block counts, grid sizes) must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.oracles import use_oracle_l2

GOLDEN_DIR = Path(__file__).parent / "golden"
ROUND = 10


def _round(value):
    if isinstance(value, float):
        return round(value, ROUND)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def fig2_summary() -> dict:
    from repro.experiments.fig2 import run_fig2

    result = run_fig2()
    return _round(
        {
            "default": result.default.summary_dict(ROUND),
            "tiled": result.tiled.summary_dict(ROUND),
            "hit_rate_gap": result.hit_rate_gap,
            "issue_efficiency_ratio": result.issue_efficiency_ratio,
        }
    )


def fig3_summary() -> dict:
    from repro.experiments.fig3 import run_fig3

    result = run_fig3()
    return _round(
        {
            "grid_sizes": list(result.grid_sizes),
            "throughput": {
                f"{cfg.gpu_mhz:g}/{cfg.mem_mhz:g}": series
                for cfg, series in result.throughput.items()
            },
            "split_comparison": dict(result.split_comparison),
            "peaks": {
                f"{cfg.gpu_mhz:g}/{cfg.mem_mhz:g}": list(result.peak(cfg))
                for cfg in result.configs
            },
        }
    )


SUMMARIES = {"fig2": fig2_summary, "fig3": fig3_summary}


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}_reference.json"
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_figures.py`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("figure", sorted(SUMMARIES))
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_backend_reproduces_golden(figure, backend, monkeypatch):
    golden = load_golden(figure)
    assert golden["backend"] == "reference"
    if backend == "reference":
        use_oracle_l2(monkeypatch)
    produced = SUMMARIES[figure]()
    assert produced == golden["summary"], (
        f"{figure} with the {backend} L2 diverged from the golden "
        "reference fixture"
    )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(SUMMARIES.items()):
        path = GOLDEN_DIR / f"{name}_reference.json"
        payload = {"backend": "reference", "summary": build()}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
