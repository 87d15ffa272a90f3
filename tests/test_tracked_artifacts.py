"""Every committed file the suite reads must be tracked by git.

An ignore rule once swallowed a committed benchmark document: the
suite passed in the working tree that wrote the file and failed in
every clean checkout.  This test lists the committed artifacts the
suite and the CI jobs read and requires each one to be in
``git ls-files``, so such a file cannot silently stay local again.
Outside a git checkout there is nothing to compare against, so it
skips.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Glob patterns, relative to the repository root, of committed files
#: the suite reads.  Each pattern must match at least one file.
COMMITTED_ARTIFACTS = (
    "tests/golden/*",
    "benchmarks/sweep_baseline.json",
)


def _tracked_files() -> set:
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not available")
    if out.returncode != 0:
        pytest.skip("not a git checkout")
    return set(out.stdout.splitlines())


@pytest.mark.parametrize("pattern", COMMITTED_ARTIFACTS)
def test_committed_artifacts_are_tracked(pattern):
    tracked = _tracked_files()
    paths = sorted(
        p.relative_to(ROOT).as_posix() for p in ROOT.glob(pattern) if p.is_file()
    )
    assert paths, f"no file matches {pattern}"
    untracked = [p for p in paths if p not in tracked]
    assert not untracked, (
        f"read by the suite but not tracked by git: {untracked}; "
        "check .gitignore and commit them"
    )
