"""PERF GUARD: the planner sweep's wall time fits a power law.

``ktiler profile --sweep`` fits a complexity exponent to each series of
a probe-graph ladder.  The work-counter fits are exact, and tier-1
(``tests/test_profile.py``) asserts their r².  The wall-time fit rests
on six short samples (three chain sizes, two repeats each), so its r²
depends on the host: on a shared 2-vCPU box it once came out at 0.375.
That assertion lives here instead, under the ``perf`` marker: tier-1
excludes it, the CI bench job opts in with ``-m perf``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf


def test_sweep_wall_time_fit():
    from repro.gpusim import GpuSpec
    from repro.obs.profile import run_sweep

    sweep = run_sweep(
        "chain", sizes=(6, 10, 14), repeats=2, warmup=0,
        spec=GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0),
    )
    exps = sweep["exponents"]
    wall = exps["wall_s"]
    print(
        f"\nsweep fit: wall ~ n^{wall['exponent']:.2f}, r2 {wall['r2']:.3f}"
    )
    assert exps["wall_s"]["r2"] > 0.5
