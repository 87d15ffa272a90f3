"""The four workloads of the repo benchmark.

Each workload drives only the program's public entry points:
``repro.experiments.fig5.run_fig5`` in this process, or a
``python -m repro.cli serve`` daemon driven over HTTP by
``repro.serve.client.ServeClient``.  A workload sets itself up several
times (the median is ``setup_s``), then runs its seeded operations for
the requested number of seconds, and checks every output against
``bench/expected.json``.

Inputs come from the seed alone; no engine selector is ever passed and
every ``KTILER_*`` variable is removed from the environment, so the
numbers are what each entry point's defaults give a user.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import probes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  ``full`` is the paper-shaped preset every entry
    point defaults to; ``tiny`` exists for the smoke test."""

    fig5: Dict[str, int]
    fig5_app: Dict[str, int]
    mixed_sizes: Tuple[int, int]


SCALES = {
    "full": Scale(fig5={}, fig5_app={}, mixed_sizes=(96, 128)),
    "tiny": Scale(
        fig5={"frame_size": 64, "levels": 2, "jacobi_iters": 2},
        fig5_app={"size": 64, "levels": 2, "iters": 2},
        mixed_sizes=(32, 48),
    ),
}

#: fig5-dvfs-store operating points, (GPU MHz, memory MHz).  At the full
#: scale each one yields the tiled schedule of a Figure 5 point, so an
#: iteration plans one point and replays from the store whatever the
#: seed's order: iterations cost alike and the median stays steady.
DVFS_LADDER: Tuple[Tuple[float, float], ...] = tuple(
    (gpu, mem)
    for mem in (810.0, 1000.0)
    for gpu in (1324.0, 1189.0, 1050.0, 924.0, 797.0, 666.0)
)

#: serve-mixed frequency rungs: GPU clock steps at the full memory clock.
SERVE_RUNGS: Tuple[Tuple[float, float], ...] = (
    (1324.0, 5010.0),
    (1097.0, 5010.0),
    (924.0, 5010.0),
    (797.0, 5010.0),
    (666.0, 5010.0),
    (549.0, 5010.0),
    (405.0, 5010.0),
    (202.0, 5010.0),
)

MIXED_PRESETS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("demo", {}),
    ("diamond", {}),
    ("stencil", {}),
    ("jacobi", {"iters": 5}),
)
MIXED_VARIANTS = ("plan", "measure", "ledger", "explain")

#: serve-mixed sends a never-seen key as every MISS_EVERY-th request
#: (~9%), so the miss share does not depend on how far a run gets.
MISS_EVERY = 11

WARM_CLIENTS = 2
REQUEST_TIMEOUT_S = 120.0
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 60.0

WORK_COUNTERS = (
    "merge_probes",
    "reach_repairs",
    "footprint_lines",
    "frontier_updates",
    "perftable_queries",
    "blocks_visited",
)


def subprocess_env() -> Dict[str, str]:
    """The environment of every process the bench starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KTILER_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def serve_key(preset: str, params: Dict[str, int], gpu: float, mem: float) -> str:
    size = params.get("size")
    name = preset if size is None else f"{preset}-{size}"
    return f"{name}@{gpu:g}/{mem:g}"


def serve_body(preset: str, params: Dict[str, int], gpu: float, mem: float,
               variant: str = "plan") -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "app": {"preset": preset, **params},
        "freq": {"gpu_mhz": gpu, "mem_mhz": mem},
    }
    if variant in ("measure", "ledger"):
        body[variant] = True
    return body


def warm_catalog(scale: Scale) -> List[Tuple[str, Dict[str, Any]]]:
    """serve-warm's keys: the four Figure 5 operating points."""
    from repro.gpusim.freq import FIG5_CONFIGS

    return [
        (serve_key("fig5", {}, f.gpu_mhz, f.mem_mhz),
         serve_body("fig5", scale.fig5_app, f.gpu_mhz, f.mem_mhz))
        for f in FIG5_CONFIGS
    ]


def mixed_apps(scale: Scale) -> List[Tuple[str, Dict[str, int]]]:
    return [
        (preset, {"size": size, **extra})
        for preset, extra in MIXED_PRESETS
        for size in scale.mixed_sizes
    ]


def warm_stream(seed: int, client: int, catalog) -> Iterator[Tuple[str, str, Dict]]:
    rng = random.Random(seed * 1_000_003 + client)
    while True:
        key, body = rng.choice(catalog)
        yield key, "plan", body


def mixed_stream(seed: int, scale: Scale) -> Iterator[Tuple[str, str, Dict]]:
    """Endless seeded ``(key, variant, body)`` stream for serve-mixed.

    First-time keys come in blocks that hold every (app, variant) pair
    once, each pair on a rung it has not used yet, so the misses of any
    run cost about the same; between them the stream repeats a key it
    has already sent.
    """
    rng = random.Random(seed)
    combos = [(app, variant) for app in mixed_apps(scale) for variant in MIXED_VARIANTS]
    rungs = [rng.sample(range(len(SERVE_RUNGS)), len(SERVE_RUNGS)) for _ in combos]
    fresh: List[Tuple[int, int]] = []
    for block in range(len(SERVE_RUNGS)):
        order = list(range(len(combos)))
        rng.shuffle(order)
        fresh += [(i, rungs[i][block]) for i in order]
    fresh.reverse()
    offset = rng.randrange(MISS_EVERY)
    seen: List[Tuple[int, int]] = []
    count = 0
    while True:
        if fresh and (not seen or count % MISS_EVERY == offset):
            pick = fresh.pop()
            seen.append(pick)
        else:
            pick = rng.choice(seen)
        (preset, params), variant = combos[pick[0]]
        gpu, mem = SERVE_RUNGS[pick[1]]
        yield (serve_key(preset, params, gpu, mem), variant,
               serve_body(preset, params, gpu, mem, variant))
        count += 1


# --------------------------------------------------------------------
# Records


@dataclass
class Measurement:
    """What one workload run observed."""

    setup_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    failed: int = 0
    setup_ok: bool = True
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


@dataclass
class Run:
    """Settings of one workload run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    expected: Dict[str, Any]
    dir: Path
    recorder: Optional[probes.SpanRecorder] = None

    def trace_path(self) -> Path:
        return OUT_DIR / f"{self.workload}-seed{self.seed}.trace.json"


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_subprocess(args: List[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(args, env=subprocess_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


# --------------------------------------------------------------------
# Figure 5 workloads (in this process)


def _rows_ok(result, expected_rows: Dict[str, Any]) -> bool:
    rows = result.report.rows
    return bool(rows) and all(
        expected_rows.get(row.freq.label) == row.as_dict() for row in rows
    )


def _fig5_iterations(
    run: Run,
    m: Measurement,
    configs_for: Callable[[int], tuple],
    planned_for: Callable[[int], tuple],
    store=None,
    after: Callable[[], None] = lambda: None,
) -> list:
    """Time ``run_fig5`` iterations until ``run.seconds`` have passed.

    ``after`` runs untimed between iterations.  When tracing, returns per
    correct iteration the stats of the plans computed in it (those for
    ``planned_for(index)``) and its comparison rows.
    """
    from repro.experiments import fig5 as fig5_module

    kwargs = dict(run.scale.fig5)
    if store is not None:
        kwargs["store"] = store
    outputs = []
    deadline = time.perf_counter() + run.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        if run.recorder is not None:
            run.recorder.op = f"op{index}"
        t0 = time.perf_counter()
        try:
            result = fig5_module.run_fig5(configs=configs_for(index), **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        m.latencies_s.append(time.perf_counter() - t0)
        if result is None or not _rows_ok(result, run.expected["fig5"]):
            m.failed += 1
        else:
            m.info["mean_gain_with_ig"] = result.mean_gain_with_ig
            m.info["mean_gain_without_ig"] = result.mean_gain_without_ig
            if run.recorder is not None:
                outputs.append((
                    [asdict(result.plan_stats[f]) for f in planned_for(index)],
                    result.report.rows,
                ))
        if run.recorder is not None:
            run.recorder.op = None
        result = None
        after()
        index += 1
    m.elapsed_s = sum(m.latencies_s)
    return outputs


def fig5_cold(run: Run) -> Measurement:
    """Repeated cold ``run_fig5()``: a fresh KTiler, four plans, replay.

    Set-up is a fresh interpreter importing the experiment."""
    from repro.gpusim.freq import FIG5_CONFIGS

    m = Measurement()
    m.setup_s = [
        _timed_subprocess([sys.executable, "-c", "import repro.experiments.fig5"])
        for _ in range(SETUPS)
    ]
    configs = tuple(random.Random(run.seed).sample(FIG5_CONFIGS, len(FIG5_CONFIGS)))
    outputs = _fig5_iterations(run, m, lambda i: configs, lambda i: configs)
    m.peak_rss_mb = _rss_self_mb()
    if run.recorder is not None:
        m.layers = fig5_layers(run.recorder.events, m, outputs)
    return m


def _files(root: Path) -> set:
    return {Path(d) / f for d, _, names in os.walk(root) for f in names}


def fig5_dvfs_store(run: Run) -> Measurement:
    """A DVFS sweep from a warm artifact store, one new point at a time.

    Set-up populates an empty store with one cold ``run_fig5(store=...)``.
    """
    from repro.experiments import fig5 as fig5_module
    from repro.gpusim.freq import FIG5_CONFIGS, FrequencyConfig
    from repro.store import ArtifactStore

    m = Measurement()
    store_dir = run.dir / "store"
    if run.recorder is not None:
        run.recorder.op = "setup"
    for _ in range(SETUPS):
        shutil.rmtree(store_dir, ignore_errors=True)
        t0 = time.perf_counter()
        result = fig5_module.run_fig5(
            store=ArtifactStore(str(store_dir)), **run.scale.fig5
        )
        m.setup_s.append(time.perf_counter() - t0)
        m.setup_ok &= _rows_ok(result, run.expected["fig5"])
        del result
    if run.recorder is not None:
        run.recorder.op = None
    store = ArtifactStore(str(store_dir))
    populated = _files(store_dir)
    ladder = random.Random(run.seed).sample(DVFS_LADDER, len(DVFS_LADDER))
    points = [FrequencyConfig(gpu, mem) for gpu, mem in ladder]

    def reset() -> None:
        # Drop what the iteration wrote, so every point meets exactly
        # the populated store and the ladder can cycle.
        for path in _files(store_dir) - populated:
            path.unlink()

    outputs = _fig5_iterations(
        run, m,
        lambda i: tuple(FIG5_CONFIGS) + (points[i % len(points)],),
        lambda i: (points[i % len(points)],),
        store=store,
        after=reset,
    )
    n = max(m.attempted, 1)
    m.info["store_per_iteration"] = {
        "hits": store.hits / n, "misses": store.misses / n, "writes": store.writes / n,
    }
    m.peak_rss_mb = _rss_self_mb()
    if run.recorder is not None:
        m.layers = fig5_layers(run.recorder.events, m, outputs)
    return m


# --------------------------------------------------------------------
# Serve workloads (a daemon process driven over HTTP)


class Daemon:
    """One ``ktiler serve --port 0`` process; its stderr goes to a file."""

    def __init__(self, directory: Path, tag: str, traced: bool, *serve_args: str):
        self.log_path = directory / f"serve-{tag}.log"
        self.spans_path = directory / f"serve-{tag}.trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        cmd += ["serve", "--port", "0", *serve_args]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=subprocess_env(), cwd=directory,
            )
        try:
            self.url = self._wait_for_url()
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self) -> str:
        deadline = time.perf_counter() + DAEMON_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            text = self.log_path.read_text(errors="replace")
            found = re.search(r"listening on (http://\S+)", text)
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}: {text[-2000:]}"
                )
            time.sleep(0.005)
        raise RuntimeError("daemon did not start listening")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


@dataclass
class Reply:
    rid: str
    latency_s: float
    ok: bool
    served: str
    size: int
    stats: Optional[Dict[str, Any]]
    end: float


def _check_serve(expected_serve: Dict[str, Any]) -> Callable[[str, str, Dict], bool]:
    def check(key: str, variant: str, resp: Dict[str, Any]) -> bool:
        exp = expected_serve.get(key)
        if exp is None or resp.get("fingerprint") != exp["fingerprint"]:
            return False
        if variant == "explain":
            return resp.get("kind") == "explain"
        return resp.get("plan_digest") == exp["plan_digest"]

    return check


def _closed_loop(url: str, streams: list, seconds: float, check,
                 sizes: bool) -> Tuple[List[Reply], float]:
    """Each stream is one client sending its next request only after the
    previous reply; all stop sending once ``seconds`` have passed.

    ``sizes`` re-encodes each response to measure it (traced runs only:
    the encoding would hold the client's interpreter lock)."""
    from repro.serve.client import ServeClient

    replies: List[Reply] = []
    errors: List[str] = []
    barrier = threading.Barrier(len(streams) + 1)

    def client_loop(index: int, stream) -> None:
        client = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S)
        barrier.wait(timeout=REQUEST_TIMEOUT_S)
        deadline = time.perf_counter() + seconds
        count = 0
        while count == 0 or time.perf_counter() < deadline:
            key, variant, body = next(stream)
            rid = f"m-{index}-{count}"
            send = client.explain if variant == "explain" else client.plan
            t0 = time.perf_counter()
            try:
                resp = send(body, request_id=rid)
            except Exception as exc:  # non-200 or transport failure
                resp = None
                if not errors:
                    errors.append(f"{key} {variant}: {exc}")
            t1 = time.perf_counter()
            if resp is None:
                replies.append(Reply(rid, t1 - t0, False, "error", 0, None, t1))
            else:
                served = resp.get("served", "")
                replies.append(Reply(
                    rid, t1 - t0, check(key, variant, resp), served,
                    len(json.dumps(resp)) if sizes else 0,
                    resp.get("stats") if served == "planned" else None, t1,
                ))
            count += 1

    threads = [
        threading.Thread(target=client_loop, args=(i, s), name=f"bench-client-{i}")
        for i, s in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client did not finish")
    if errors:
        print(f"[bench] first failed request: {errors[0]}", file=sys.stderr)
    return replies, max(r.end for r in replies) - start


def _setup_daemons(
    run: Run,
    m: Measurement,
    tag: str,
    serve_args: Callable[[int], Tuple[str, ...]],
    warm: Callable[[int, Daemon], None],
) -> Daemon:
    """Start and warm SETUPS daemons in turn, timing each from launch to
    warm; the last one stays up for the measured phase."""
    daemon = None
    try:
        for k in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon = Daemon(run.dir, f"{tag}{k}", run.trace, *serve_args(k))
            warm(k, daemon)
            m.setup_s.append(time.perf_counter() - t0)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon


def _measure_daemon(run: Run, m: Measurement, daemon: Daemon, streams: list,
                    check) -> None:
    """Run the closed loop against ``daemon``, then stop it."""
    try:
        replies, m.elapsed_s = _closed_loop(
            daemon.url, streams, run.seconds, check, sizes=run.trace
        )
        m.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    m.latencies_s = [r.latency_s for r in replies]
    m.failed = sum(not r.ok for r in replies)
    m.info["served"] = dict(Counter(r.served for r in replies))
    if run.trace:
        shutil.copyfile(daemon.spans_path, run.trace_path())
        m.layers = serve_layers(probes.read_events(str(daemon.spans_path)), m, replies)


def serve_warm(run: Run) -> Measurement:
    """Two clients hammering the four memoized Figure 5 keys.

    Set-up starts a daemon on an empty ``--cache-dir`` and plans the four
    keys once; the measured phase is then all memo hits."""
    from repro.serve.client import ServeClient

    m = Measurement()
    catalog = warm_catalog(run.scale)
    check = _check_serve(run.expected["serve"])

    def warm(k: int, daemon: Daemon) -> None:
        client = ServeClient(daemon.url, timeout_s=REQUEST_TIMEOUT_S)
        for j, (key, body) in enumerate(catalog):
            resp = client.plan(body, request_id=f"w-{k}-{j}")
            m.setup_ok &= check(key, "plan", resp)
            m.info["serve_planner_backend"] = resp["request"]["planner_backend"]

    daemon = _setup_daemons(
        run, m, "warm", lambda k: ("--cache-dir", str(run.dir / f"cache{k}")), warm
    )
    streams = [warm_stream(run.seed, c, catalog) for c in range(WARM_CLIENTS)]
    _measure_daemon(run, m, daemon, streams, check)
    return m


def serve_mixed(run: Run) -> Measurement:
    """One client over ~256 small keys: first-time plans among memo hits.

    Set-up starts a daemon with no store until it answers ``/healthz``."""
    from repro.serve.client import ServeClient

    m = Measurement()

    def warm(k: int, daemon: Daemon) -> None:
        ServeClient(daemon.url, timeout_s=REQUEST_TIMEOUT_S).health()

    daemon = _setup_daemons(run, m, "mixed", lambda k: (), warm)
    _measure_daemon(run, m, daemon, [mixed_stream(run.seed, run.scale)],
                    _check_serve(run.expected["serve"]))
    return m


WORKLOADS: Dict[str, Callable[[Run], Measurement]] = {
    "fig5-cold": fig5_cold,
    "fig5-dvfs-store": fig5_dvfs_store,
    "serve-warm": serve_warm,
    "serve-mixed": serve_mixed,
}
IN_PROCESS = ("fig5-cold", "fig5-dvfs-store")


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", expected: Optional[Dict] = None) -> Measurement:
    """Run one workload; ``expected`` defaults to the committed values."""
    if expected is None:
        expected = load_expected()[scale]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}-") as tmp:
        run = Run(name, seed, seconds, trace, SCALES[scale], expected, Path(tmp))
        if trace and name in IN_PROCESS:
            run.recorder = probes.SpanRecorder().install()
        try:
            m = WORKLOADS[name](run)
        finally:
            if run.recorder is not None:
                run.recorder.uninstall()
                run.recorder.write(str(run.trace_path()))
    m.info["engines"] = resolved_engines(m.info.pop("serve_planner_backend", None))
    return m


def resolved_engines(serve_planner: Optional[str] = None) -> Dict[str, str]:
    """The engines each entry point resolves to with an empty environment."""
    try:
        from repro.core.fast_cluster import resolve_planner_backend
        from repro.gpusim.fast_cache import resolve_backend
    except ImportError:
        return {}
    return {
        "fig5_sim": resolve_backend(None, default="fast"),
        "fig5_planner": resolve_planner_backend(None, default="fast"),
        "serve_sim": resolve_backend(None),
        "serve_planner": serve_planner or resolve_planner_backend(None),
    }


# --------------------------------------------------------------------
# Per-layer metrics (traced runs)


def _layer_base(totals: probes.LayerTotals, n: int) -> Dict[str, float]:
    """Self time per operation of each probed layer, plus call counts."""

    def per(value: float) -> float:
        return value / n

    s, calls, counts = totals.self_s, totals.calls, totals.counts
    gets = calls.get("store.get", 0)
    return {
        "experiments.fig5_s": per(s.get("experiments.fig5", 0.0)),
        "analyzer.trace_s": per(s.get("analyzer.trace", 0.0)),
        "analyzer.blocks_traced": per(counts.get("analyzer.trace", 0)),
        "analyzer.block_graph_s": per(s.get("analyzer.block_graph", 0.0)),
        "analyzer.mem_lines_s": per(s.get("analyzer.mem_lines", 0.0)),
        "core.profile_s": per(s.get("core.profile", 0.0)),
        "core.profile_calls": per(calls.get("core.profile", 0)),
        "core.weights_s": per(s.get("core.weights", 0.0)),
        "core.tile_s": per(s.get("core.tile", 0.0)),
        "core.validate_s": per(s.get("core.validate", 0.0)),
        "runtime.replay_s": per(s.get("runtime.replay", 0.0)),
        "runtime.measure_s": per(s.get("runtime.measure", 0.0)),
        "store.get_s": per(s.get("store.get", 0.0)),
        "store.put_s": per(s.get("store.put", 0.0)),
        "store.decode_s": per(s.get("store.decode", 0.0)),
        "store.encode_s": per(s.get("store.encode", 0.0)),
        "store.hits": per(counts.get("store.get", 0)),
        "store.misses": per(gets - counts.get("store.get", 0)),
        "store.writes": per(calls.get("store.put", 0)),
        "store.hit_ratio": counts.get("store.get", 0) / gets if gets else 0.0,
        "serve.request_ms": per(totals.total_s.get("serve.request", 0.0)) * 1e3,
        "serve.parse_ms": per(s.get("serve.parse", 0.0)) * 1e3,
        "serve.fingerprint_ms": per(s.get("serve.fingerprint", 0.0)) * 1e3,
        "serve.audit_ms": per(s.get("serve.audit", 0.0)) * 1e3,
    }


def _plan_stat_metrics(stats: List[Dict[str, Any]], n: int) -> Dict[str, float]:
    """Planner work of the plans computed, per operation."""
    sums: Dict[str, float] = defaultdict(float)
    for st in stats:
        for name in WORK_COUNTERS:
            sums[f"core.work.{name}"] += st["work"][name]
        for name in ("merge_attempts", "adopted_merges", "tilings_evaluated",
                     "tiling_cache_hits"):
            sums[name] += st[name]
    out = {f"core.work.{name}": sums[f"core.work.{name}"] / n for name in WORK_COUNTERS}
    out["core.merge_attempts"] = sums["merge_attempts"] / n
    out["core.adopted_merges"] = sums["adopted_merges"] / n
    out["core.tilings_evaluated"] = sums["tilings_evaluated"] / n
    attempts = sums["merge_attempts"]
    out["core.merge_adopt_ratio"] = sums["adopted_merges"] / attempts if attempts else 0.0
    tilings = sums["tiling_cache_hits"] + sums["tilings_evaluated"]
    out["core.tiling_cache_ratio"] = sums["tiling_cache_hits"] / tilings if tilings else 0.0
    return out


def _zero_serve_outcomes() -> Dict[str, float]:
    return {
        "serve.http_ms": 0.0, "serve.memo_hits": 0.0, "serve.planned": 0.0,
        "serve.coalesced": 0.0, "serve.memo_hit_ratio": 0.0, "serve.response_kb": 0.0,
    }


def fig5_layers(events, m: Measurement, outputs: list) -> Dict[str, float]:
    n = m.attempted
    ops = {f"op{i}" for i in range(n)}
    totals = probes.layer_totals(events, ops)
    values = _layer_base(totals, n)
    named = sum(s for layer, s in totals.self_s.items() if layer != probes.ROOT_LAYER)
    values["trace.coverage"] = named / sum(m.latencies_s)
    stats = [st for planned, _ in outputs for st in planned]
    values.update(_plan_stat_metrics(stats, max(len(outputs), 1)))
    rows = outputs[0][1] if outputs else []

    def mean(values: List[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    values["gpusim.l2_hit_rate_default"] = mean([r.default_hit_rate for r in rows])
    values["gpusim.l2_hit_rate_tiled"] = mean([r.ktiler_hit_rate for r in rows])
    values["runtime.launches_default"] = mean([r.default_launches for r in rows])
    values["runtime.launches_tiled"] = mean([r.ktiler_launches for r in rows])
    values["report.gain_with_ig"] = mean([r.gain_with_ig for r in rows])
    values["report.gain_without_ig"] = mean([r.gain_without_ig for r in rows])
    values.update(_zero_serve_outcomes())
    return values


def serve_layers(events, m: Measurement, replies: List[Reply]) -> Dict[str, float]:
    n = len(replies)
    rids = {r.rid for r in replies}
    totals = probes.layer_totals(events, rids)
    values = _layer_base(totals, n)
    server = totals.by_rid_total_s
    joined = [(r.latency_s, server[(r.rid, "serve.request")])
              for r in replies if (r.rid, "serve.request") in server]
    values["trace.coverage"] = (
        sum(s for _, s in joined) / sum(lat for lat, _ in joined) if joined else 0.0
    )
    values["serve.http_ms"] = (
        statistics.fmean(lat - s for lat, s in joined) * 1e3 if joined else 0.0
    )
    served = Counter(r.served for r in replies)
    values["serve.memo_hits"] = float(served["memo"])
    values["serve.planned"] = float(served["planned"])
    values["serve.coalesced"] = float(served["coalesced"])
    values["serve.memo_hit_ratio"] = served["memo"] / n
    values["serve.response_kb"] = statistics.fmean(r.size for r in replies) / 1024.0
    values.update(_plan_stat_metrics([r.stats for r in replies if r.stats], n))
    for name in ("gpusim.l2_hit_rate_default", "gpusim.l2_hit_rate_tiled",
                 "runtime.launches_default", "runtime.launches_tiled",
                 "report.gain_with_ig", "report.gain_without_ig"):
        values[name] = 0.0
    return values


# --------------------------------------------------------------------
# Expected values


def record_expected(log: Callable[[str], None]) -> Dict[str, Any]:
    """Record every checked output at this commit: Figure 5 rows for the
    Figure 5 points and the whole DVFS ladder, and the fingerprint and
    plan digest of every serve key, at both scales."""
    from repro.experiments.fig5 import run_fig5
    from repro.gpusim.freq import FIG5_CONFIGS, FrequencyConfig
    from repro.serve.client import ServeClient

    doc: Dict[str, Any] = {}
    OUT_DIR.mkdir(exist_ok=True)
    for scale_name, scale in SCALES.items():
        log(f"recording {scale_name}: Figure 5 rows")
        configs = tuple(FIG5_CONFIGS) + tuple(FrequencyConfig(g, m) for g, m in DVFS_LADDER)
        result = run_fig5(configs=configs, **scale.fig5)
        rows = {row.freq.label: row.as_dict() for row in result.report.rows}
        keys = warm_catalog(scale) + [
            (serve_key(preset, params, gpu, mem), serve_body(preset, params, gpu, mem))
            for preset, params in mixed_apps(scale)
            for gpu, mem in SERVE_RUNGS
        ]
        log(f"recording {scale_name}: {len(keys)} serve keys")
        serve: Dict[str, Any] = {}
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="record-") as tmp:
            daemon = Daemon(Path(tmp), "record", False)
            try:
                client = ServeClient(daemon.url, timeout_s=REQUEST_TIMEOUT_S)
                for key, body in keys:
                    resp = client.plan(body)
                    serve[key] = {
                        "fingerprint": resp["fingerprint"],
                        "plan_digest": resp["plan_digest"],
                    }
            finally:
                daemon.stop()
        doc[scale_name] = {"fig5": rows, "serve": serve}
    return doc
