"""Repository-root pytest configuration.

Adds ``--planner-backend`` so the whole suite can be exercised against
either merge planner (see :mod:`repro.core.fast_cluster`).  The
selection is exported through the same environment hook the CLI
honours (``KTILER_PLANNER_BACKEND``) before any test runs, so no
individual test needs to thread it explicitly.

CI runs the tier-1 suite once per planner backend; every leg must pass
with identical results because the fast planner is bit-exact by
contract.
"""

from __future__ import annotations

import os

from repro.core.fast_cluster import PLANNER_BACKEND_ENV_VAR, PLANNER_BACKENDS


def pytest_addoption(parser):
    parser.addoption(
        "--planner-backend",
        choices=PLANNER_BACKENDS,
        default=None,
        help="merge planner for every KTiler built during the run "
        f"(sets {PLANNER_BACKEND_ENV_VAR}; default: leave the "
        "environment as-is)",
    )


def pytest_configure(config):
    planner = config.getoption("--planner-backend")
    if planner is not None:
        os.environ[PLANNER_BACKEND_ENV_VAR] = planner


def pytest_report_header(config):
    planner = os.environ.get(PLANNER_BACKEND_ENV_VAR)
    if planner:
        return [f"planner backend: {planner} ({PLANNER_BACKEND_ENV_VAR})"]
    return [
        "planner backend: per-call defaults "
        "(reference core, fast experiments)"
    ]
