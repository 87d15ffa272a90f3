"""Repository-root pytest configuration.

Adds ``--planner-backend`` so the whole suite can be exercised against
either merge planner (see :mod:`repro.core.fast_cluster`), and
``--workers`` so it can be exercised with the parallel pipeline stages
fanned out over processes (see :mod:`repro.parallel`).  Both selections
are exported through the same environment hooks the CLI honours
(``KTILER_PLANNER_BACKEND`` / ``KTILER_WORKERS``) before any test runs,
so no individual test needs to thread them explicitly.

CI runs the tier-1 suite once per planner backend plus a
``--workers=2`` leg; every leg must pass with identical results because
the fast planner is bit-exact by contract and the parallel stages are
bit-identical to the serial oracle by construction.
"""

from __future__ import annotations

import os

from repro.core.fast_cluster import PLANNER_BACKEND_ENV_VAR, PLANNER_BACKENDS
from repro.parallel import WORKERS_ENV_VAR


def pytest_addoption(parser):
    parser.addoption(
        "--planner-backend",
        choices=PLANNER_BACKENDS,
        default=None,
        help="merge planner for every KTiler built during the run "
        f"(sets {PLANNER_BACKEND_ENV_VAR}; default: leave the "
        "environment as-is)",
    )
    parser.addoption(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel pipeline stages "
        f"(sets {WORKERS_ENV_VAR}; default: leave the environment as-is)",
    )


def pytest_configure(config):
    planner = config.getoption("--planner-backend")
    if planner is not None:
        os.environ[PLANNER_BACKEND_ENV_VAR] = planner
    workers = config.getoption("--workers")
    if workers is not None:
        os.environ[WORKERS_ENV_VAR] = str(workers)


def pytest_report_header(config):
    parts = []
    planner = os.environ.get(PLANNER_BACKEND_ENV_VAR)
    if planner:
        parts.append(
            f"planner backend: {planner} ({PLANNER_BACKEND_ENV_VAR})"
        )
    else:
        parts.append(
            "planner backend: per-call defaults "
            "(reference core, fast experiments)"
        )
    workers = os.environ.get(WORKERS_ENV_VAR)
    if workers:
        parts.append(f"workers: {workers} ({WORKERS_ENV_VAR})")
    return parts
