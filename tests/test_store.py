"""Artifact-store tests: key sensitivity, robustness, concurrency.

The store's safety argument is content addressing: a key is the sha256
of a canonical fingerprint of *everything the artifact depends on*, so
a warm entry can only ever be served for the exact configuration that
produced it.  These tests attack that argument from three sides:

* **key sensitivity** — perturbing any field of the kernel geometry,
  the GpuSpec (L2 size included), the frequency, or the KTiler config
  must change the key; re-describing the identical configuration must
  not;
* **corruption** — truncated, garbage, or wrong-version entries, and
  valid envelopes whose payload has the wrong shape for their kind,
  must fall back to a recompute with a ``RuntimeWarning``, never a
  crash or a wrong result;
* **concurrency** — simultaneous writers of the same entry (two CLI
  runs or two daemons sharing one cache directory) must never produce
  a torn read.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import warnings

import pytest

from repro.apps.synthetic import build_jacobi_pingpong
from repro.core.fast_cluster import resolve_planner_backend
from repro.core.ktiler import KTiler, KTilerConfig
from repro.experiments import run_fig5
from repro.experiments.presets import SCALED_SPEC
from repro.gpusim import GpuSpec
from repro.gpusim.arch import spec_with_l2
from repro.gpusim.freq import FIG5_CONFIGS, NOMINAL, FrequencyConfig
from repro.store import ArtifactStore, NULL_STORE, STORE_ENV_VAR, resolve_store
from repro.store.artifacts import plan_key, profile_key, trace_key
from repro.store.fingerprint import (
    STORE_VERSION,
    content_key,
    gpu_fingerprint,
    kernel_fingerprint,
)


def _jacobi_kernel(size: int = 64):
    graph = build_jacobi_pingpong(iters=2, size=size).graph
    return graph, graph.node_by_name("JI.0").kernel


# ----------------------------------------------------------------------
# Key sensitivity
# ----------------------------------------------------------------------
def test_identical_configuration_reproduces_the_key(tmp_path):
    store = ArtifactStore(tmp_path)
    graph_a, kernel_a = _jacobi_kernel()
    graph_b, kernel_b = _jacobi_kernel()  # fresh but identical objects
    spec = GpuSpec()
    key_a = store.key_for(profile_key(kernel_a, spec, (0.5, 1.0), frozenset()))
    key_b = store.key_for(profile_key(kernel_b, spec, (0.5, 1.0), frozenset()))
    assert key_a == key_b
    assert store.key_for(trace_key(graph_a, spec)) == store.key_for(
        trace_key(graph_b, spec)
    )


def test_kernel_geometry_perturbations_change_the_key(tmp_path):
    store = ArtifactStore(tmp_path)
    _, base = _jacobi_kernel(size=64)
    _, resized = _jacobi_kernel(size=96)  # different grid + buffers
    spec = GpuSpec()

    def key(kernel):
        return store.key_for(profile_key(kernel, spec, (1.0,), frozenset()))

    assert key(base) != key(resized)
    # The fingerprint itself must see geometry, work, and buffer layout.
    fp = kernel_fingerprint(base)
    for field in ("grid", "block", "instrs_per_thread", "inputs", "name"):
        assert field in fp


def test_every_gpu_spec_field_changes_the_key():
    """Each compared GpuSpec field (L2 size included) is key-relevant."""
    base = GpuSpec()
    base_fp = canonical = content_key(gpu_fingerprint(base))
    for field in dataclasses.fields(GpuSpec):
        if field.name == "extras":  # advisory, deliberately excluded
            continue
        value = getattr(base, field.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Doubling preserves the spec's structural invariants
            # (power-of-two line size, l2 divisibility).
            perturbed = dataclasses.replace(
                base, **{field.name: value * 2 if value else 1}
            )
        elif isinstance(value, str):
            perturbed = dataclasses.replace(base, **{field.name: value + "-x"})
        else:
            continue
        assert content_key(gpu_fingerprint(perturbed)) != base_fp, (
            f"GpuSpec.{field.name} does not affect the store key"
        )


def test_l2_size_and_frequency_change_plan_keys(tmp_path):
    store = ArtifactStore(tmp_path)
    graph, _ = _jacobi_kernel()
    config = KTilerConfig()
    base = store.key_for(plan_key(graph, GpuSpec(), config, NOMINAL))
    small_l2 = store.key_for(
        plan_key(graph, GpuSpec(l2_bytes=128 * 1024), config, NOMINAL)
    )
    other_freq = store.key_for(
        plan_key(
            graph, GpuSpec(), config,
            FrequencyConfig(gpu_mhz=NOMINAL.gpu_mhz, mem_mhz=NOMINAL.mem_mhz / 2),
        )
    )
    other_config = store.key_for(
        plan_key(graph, GpuSpec(), KTilerConfig(threshold_us=5.0), NOMINAL)
    )
    other_planner = store.key_for(
        plan_key(graph, GpuSpec(), config, NOMINAL, planner_backend="fast")
    )
    assert len({base, small_l2, other_freq, other_config, other_planner}) == 5


def test_store_version_is_part_of_every_key(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    graph, _ = _jacobi_kernel()
    payload = trace_key(graph, GpuSpec())
    before = store.key_for(payload)
    monkeypatch.setattr("repro.store.store.STORE_VERSION", STORE_VERSION + 1)
    assert store.key_for(payload) != before


# ----------------------------------------------------------------------
# Round trip, hit/miss accounting
# ----------------------------------------------------------------------
def test_roundtrip_and_counters(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key_for({"artifact": "demo", "x": 1})
    assert store.get("profile", key) is None
    assert store.misses == 1
    store.put("profile", key, {"value": [1, 2, 3]})
    assert store.writes == 1
    assert store.get("profile", key) == {"value": [1, 2, 3]}
    assert store.hits == 1
    # Entries are sharded under <root>/<kind>/<key[:2]>/.
    assert os.path.exists(store.path("profile", key))


def test_null_store_misses_and_drops(tmp_path):
    key = NULL_STORE.key_for({"artifact": "demo"})
    NULL_STORE.put("profile", key, {"value": 1})
    assert NULL_STORE.get("profile", key) is None
    assert not NULL_STORE.enabled


def test_resolve_store_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    assert resolve_store() is NULL_STORE
    assert resolve_store(cache_dir=tmp_path / "a").root == str(tmp_path / "a")
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
    assert resolve_store().root == str(tmp_path / "env")
    assert resolve_store(cache_dir=tmp_path / "a").root == str(tmp_path / "a")
    assert resolve_store(no_cache=True) is NULL_STORE


# ----------------------------------------------------------------------
# Corruption fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "corruption",
    ["truncate", "garbage", "wrong_version", "not_a_dict"],
)
def test_corrupted_entry_warns_and_recomputes(tmp_path, corruption):
    store = ArtifactStore(tmp_path)
    key = store.key_for({"artifact": "demo"})
    store.put("trace", key, {"value": 42})
    path = store.path("trace", key)
    if corruption == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
    elif corruption == "garbage":
        with open(path, "w") as fh:
            fh.write("not json at all {{{")
    elif corruption == "wrong_version":
        envelope = json.loads(open(path).read())
        envelope["store_version"] = -1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
    else:
        with open(path, "w") as fh:
            json.dump(["wrong", "shape"], fh)
    with pytest.warns(RuntimeWarning):
        assert store.get("trace", key) is None
    assert store.corrupt == 1
    # The caller's recompute-and-put must heal the entry.
    store.put("trace", key, {"value": 42})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.get("trace", key) == {"value": 42}


def test_corrupted_plan_entry_falls_back_to_scheduling(tmp_path):
    """End to end: a damaged plan artifact must not break KTiler.plan."""
    graph = build_jacobi_pingpong(iters=3, size=64).graph
    spec = GpuSpec(l2_bytes=64 * 1024, launch_gap_us=1.0)
    config = KTilerConfig(launch_overhead_us=1.0)
    store = ArtifactStore(tmp_path)
    expected = KTiler(graph, spec=spec, config=config).plan(NOMINAL)
    KTiler(graph, spec=spec, config=config, store=store).plan(NOMINAL)
    # The warm entry lives under whichever planner backend the run
    # resolved (KTiler honours KTILER_PLANNER_BACKEND) — key it the
    # same way or the corruption below would miss the artifact.
    key = store.key_for(
        plan_key(
            graph, spec, config, NOMINAL,
            planner_backend=resolve_planner_backend(),
        )
    )
    with open(store.path("plan", key), "w") as fh:
        fh.write('{"half an envel')
    with pytest.warns(RuntimeWarning):
        recovered = KTiler(
            graph, spec=spec, config=config, store=ArtifactStore(tmp_path)
        ).plan(NOMINAL)
    assert [
        (s.node_id, s.blocks) for s in recovered.schedule
    ] == [(s.node_id, s.blocks) for s in expected.schedule]


# ----------------------------------------------------------------------
# Every kind of a Figure 5 store
# ----------------------------------------------------------------------
#: A small Figure 5 whose plans adopt merges (so tiled replays are
#: stored) on a 64 KiB L2 (so the tiler drops batches).
FIG5_SMALL = dict(
    frame_size=96, levels=2, jacobi_iters=3,
    spec=spec_with_l2(SCALED_SPEC, 64 * 1024),
)
KINDS = ("trace", "blockgraph", "profile", "plan", "replay", "structure")
#: Four stored points plus one new one: a run that reads every kind.
SWEEP = tuple(FIG5_CONFIGS) + (FrequencyConfig(1324.0, 810.0),)


@pytest.fixture(scope="module")
def fig5_store(tmp_path_factory):
    """A store one Figure 5 run filled, and a cold run of the sweep."""
    root = tmp_path_factory.mktemp("fig5-store")
    run_fig5(store=ArtifactStore(root), **FIG5_SMALL)
    return root, run_fig5(configs=SWEEP, **FIG5_SMALL)


def test_every_kind_is_written_as_json_dumps_of_its_envelope(fig5_store):
    root, _ = fig5_store
    kinds = set()
    for path in sorted(root.rglob("*.json")):
        raw = path.read_text(encoding="utf-8")
        envelope = json.loads(raw)
        assert raw == json.dumps(envelope), path
        assert envelope["kind"] == path.relative_to(root).parts[0]
        kinds.add(envelope["kind"])
    assert kinds == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_wrong_shape_payload_is_a_warned_miss(kind, fig5_store, tmp_path):
    """A valid envelope whose payload does not fit its kind is a miss:
    counted ``corrupt``, warned, recomputed — never a crash."""
    filled, cold = fig5_store
    root = tmp_path / "store"
    shutil.copytree(filled, root)
    for path in (root / kind).rglob("*.json"):
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"] = {"unexpected": [1, 2, 3]}
        path.write_text(json.dumps(envelope), encoding="utf-8")
    store = ArtifactStore(root)
    with pytest.warns(RuntimeWarning, match=f"stale {kind} entry"):
        result = run_fig5(configs=SWEEP, store=store, **FIG5_SMALL)
    assert result.report.rows == cold.report.rows
    assert store.corrupt >= 1


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------
def _hammer(args) -> int:
    """Write the same entry many times while re-reading it."""
    root, key, rounds = args
    store = ArtifactStore(root)
    payload = {"value": list(range(200))}
    good = 0
    for _ in range(rounds):
        store.put("trace", key, payload)
        seen = store.get("trace", key)
        if seen == payload:
            good += 1
    return good


def test_concurrent_writers_never_tear(tmp_path):
    """N processes writing one entry: every read sees a complete payload.

    Same key means same content, so "last write wins" is indistinguishable
    from any other interleaving — what must never happen is a reader
    observing a partially written file (the atomic temp+rename contract).
    """
    store = ArtifactStore(tmp_path)
    key = store.key_for({"artifact": "hammer"})
    rounds = 50
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    with ctx.Pool(4) as pool:
        with warnings.catch_warnings():
            # A torn read would surface as a corruption RuntimeWarning.
            warnings.simplefilter("error", RuntimeWarning)
            results = pool.map(_hammer, [(str(tmp_path), key, rounds)] * 4)
    assert results == [rounds] * 4
    # No stray temp files left behind.
    directory = os.path.dirname(store.path("trace", key))
    leftovers = [f for f in os.listdir(directory) if f.startswith(".tmp-")]
    assert leftovers == []
