"""Deterministic process-pool fan-out for the KTILER pipeline.

The pipeline is embarrassingly parallel along several independent axes
(profiler grid ladders, per-frequency plans, per-grid fig3 sweeps,
speculative cluster tilings), and every one of those computations is a
pure function of its inputs.  :func:`parallel_map` exploits that while
preserving the repository's hard invariant: **results are identical to
the serial run, bit for bit, for any worker count.**  Three properties
make that hold:

* *ordering* — results are returned in input order regardless of
  completion order (futures are collected by index, never by arrival);
* *purity* — tasks receive their full input by value and share no
  mutable state; the worker processes are seeded deterministically on
  start so even accidental RNG use inside a task is reproducible;
* *serial fallback* — at ``workers=1`` (the default) no pool, no
  pickling and no subprocess is involved: the plain ``[fn(x) ...]``
  loop runs in-process, so the serial path pays nothing for the
  plumbing.

Worker counts resolve as ``argument > $KTILER_WORKERS > 1``.

Pools are persistent: one executor per worker count is kept for the
lifetime of the process (the profiler's lazy combo measurements would
otherwise pay a pool spawn per scheduling query).  Tasks that need a
large shared context shipped once per worker (e.g. the speculative
cluster tiling of :mod:`repro.core.app_tile`) use :func:`scoped_pool`
with an initializer instead.

With tracing enabled, every fan-out emits a ``parallel.map`` span and
one ``parallel.task`` instant per task carrying the worker pid and the
in-worker duration, plus ``parallel.*`` counters — the Chrome-trace
view of where the wall-clock went.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs.ops import RequestContext, current_request_id, use_context
from repro.obs.tracer import NULL_TRACER

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no worker count is passed.
WORKERS_ENV_VAR = "KTILER_WORKERS"

#: Base seed for per-worker RNG initialization.  Tasks must not depend
#: on RNG state (purity is what guarantees determinism), but seeding
#: makes any accidental use reproducible instead of flaky.
WORKER_SEED = 0x5EED


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument > $KTILER_WORKERS > 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"${WORKERS_ENV_VAR}={raw!r} is not an integer"
            ) from None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


#: True inside a pool worker process.  Workers never fan out again:
#: a forked child inherits the parent's executor objects in ``_POOLS``
#: whose management threads did not survive the fork — submitting to
#: one deadlocks.  The flag makes every nested ``parallel_map`` run its
#: plain serial loop instead (which is also the determinism contract:
#: nested parallelism could not change results, only hang them).
_IN_WORKER = False


def in_worker() -> bool:
    """True when running inside a pool worker process."""
    return _IN_WORKER


def _seed_worker(seed: int) -> None:
    """Pool initializer: deterministic RNG state per worker process."""
    global _IN_WORKER
    _IN_WORKER = True
    _POOLS.clear()  # inherited parent executors are unusable after fork
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        pass


def _mp_context():
    """Fork where available (cheap, inherits imports); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_seed_worker,
            initargs=(WORKER_SEED,),
        )
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every persistent pool (atexit hook; idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _timed_task(
    fn: Callable[[T], R], item: T, request_id: Optional[str] = None
) -> "tuple":
    """Run one task in a worker, measuring the in-worker duration.

    When the submitting side ran under a request context, its id is
    shipped along and re-established here, so spans and counters the
    task emits *inside the worker process* stay attributed to the
    originating request (they surface in the worker's own tracer; the
    parent-side ``parallel.task`` instants are tagged by the parent's
    context as usual).
    """
    start = time.perf_counter()
    if request_id is None:
        result = fn(item)
    else:
        with use_context(RequestContext(request_id, endpoint="worker")):
            result = fn(item)
    return os.getpid(), time.perf_counter() - start, result


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    tracer=NULL_TRACER,
    label: str = "task",
) -> List[R]:
    """Map ``fn`` over ``items`` with deterministic result ordering.

    ``fn`` must be a picklable module-level callable and a *pure
    function* of its item; each item travels to a worker by value and
    the results come back in input order.  ``workers=1`` (or a single
    item) runs the plain serial loop in-process.  Exceptions raised by
    any task propagate to the caller, as in the serial loop.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if _IN_WORKER or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _get_pool(workers)
    request_id = current_request_id()
    with tracer.span(
        "parallel.map", cat="parallel", label=label,
        tasks=len(items), workers=workers,
    ):
        futures = [
            pool.submit(_timed_task, fn, item, request_id) for item in items
        ]
        results: List[R] = []
        for index, future in enumerate(futures):
            pid, dur_s, result = future.result()
            results.append(result)
            if tracer.enabled:
                tracer.instant(
                    "parallel.task",
                    cat="parallel",
                    label=label,
                    index=index,
                    worker_pid=pid,
                    dur_s=round(dur_s, 6),
                )
                tracer.metrics.inc("parallel.tasks", 1, label=label)
                tracer.metrics.inc(
                    "parallel.task_seconds", dur_s, label=label
                )
    return results


class scoped_pool:
    """A short-lived pool that ships a shared context once per worker.

    For fan-outs whose tasks all read the same large immutable state
    (block graph, memory-lines table, perf tables), pickling that state
    into every task would dwarf the work.  ``scoped_pool`` passes it
    through the pool initializer instead — once per worker — and the
    tasks reference it via a module-level global in the worker process.

    Usage::

        with scoped_pool(workers, initializer=_init, initargs=(state,)) as pool:
            results = pool.map_ordered(fn, items)
    """

    def __init__(self, workers: int, initializer, initargs=()):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")

        def _init(seed, *args):
            _seed_worker(seed)
            initializer(*args)

        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_init,
            initargs=(WORKER_SEED, *initargs),
        )

    def map_ordered(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        futures = [self._executor.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def __enter__(self) -> "scoped_pool":
        return self

    def __exit__(self, *exc) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
