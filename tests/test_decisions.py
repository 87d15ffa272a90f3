"""The decision-ledger contract and the ``ktiler diff`` engine.

The ledger (:mod:`repro.obs.decisions`) records every Algorithm 1
merge candidate and every Algorithm 2 tile round, charged at the same
consume-time sites as the work counters — so it must be **bit-identical
across planner backends**, sufficient to replay the
adopted merge script, persisted with plan artifacts, and the single
source the ``sched.merge`` trace instants derive from.  The diff
engine (:mod:`repro.obs.diff`) joins two ledgers to attribute plan
divergence to the first disagreeing decision.

Structure:

* ledger unit tests: schema roundtrip, digest stability, coverage of
  the whole data-edge set, validation errors;
* the differential suite (in the spirit of
  ``test_partition_differential.py``): probe graphs and a Figure-5
  family app produce one ledger digest across planner backends;
* hypothesis sufficiency: replaying the adopted entries through a
  fresh partition reconstructs the plan's clustering;
* store migration: v2 envelopes and ledger-less v3 payloads both
  recompute with a ``RuntimeWarning``, never crash;
* diff engine + CLI: divergent and identical pairs, schema validation,
  HTML markers, ``--strict`` exit codes;
* serve: the ``ledger`` request flag and ``ktiler client diff``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KTiler, KTilerConfig
from repro.core.fast_cluster import PLANNER_BACKEND_ENV_VAR, PLANNER_BACKENDS
from repro.gpusim import NOMINAL
from repro.gpusim.freq import FrequencyConfig
from repro.obs import Tracer
from repro.obs.decisions import (
    LEDGER_SCHEMA_VERSION,
    MERGE_OUTCOMES,
    MERGE_REASONS,
    DecisionLedger,
    replay_adopted,
    validate_ledger,
)
from repro.obs.diff import (
    DIFF_SCHEMA_VERSION,
    diff_ledgers,
    diff_plans,
    format_divergence,
    render_diff_html,
    validate_diff,
    write_diff,
)

HALF_MEM = FrequencyConfig(gpu_mhz=NOMINAL.gpu_mhz, mem_mhz=NOMINAL.mem_mhz / 2)


def _pipeline_app():
    from repro.apps import build_pipeline

    return build_pipeline(size=1024)


def _plan(app, planner_backend=None, tracer=None, freq=NOMINAL):
    from repro.obs import NULL_TRACER

    ktiler = KTiler(
        app.graph,
        config=KTilerConfig(launch_overhead_us=2.0),
        tracer=tracer if tracer is not None else NULL_TRACER,
        planner_backend=planner_backend,
    )
    return ktiler.plan(freq)


@pytest.fixture(scope="module")
def pipeline_plan():
    """An adoption-rich plan (the pipeline adopts merges at 2us gap)."""
    return _plan(_pipeline_app())


# ----------------------------------------------------------------------
# Ledger unit tests
# ----------------------------------------------------------------------
class TestLedgerSchema:
    def test_roundtrip_preserves_digest(self, pipeline_plan):
        ledger = pipeline_plan.ledger
        doc = ledger.as_dict()
        assert doc["schema_version"] == LEDGER_SCHEMA_VERSION
        restored = DecisionLedger.from_dict(doc)
        assert restored.digest() == ledger.digest()
        assert restored.entries == ledger.entries

    def test_validate_accepts_wire_shape_with_extras(self, pipeline_plan):
        doc = pipeline_plan.ledger.as_dict()
        doc["digest"] = pipeline_plan.ledger.digest()
        doc["summary"] = pipeline_plan.ledger.summary()
        validate_ledger(doc)  # extra top-level keys are tolerated

    def test_summary_accounts_for_every_entry(self, pipeline_plan):
        ledger = pipeline_plan.ledger
        summary = ledger.summary()
        assert summary["entries"] == len(ledger.entries)
        assert summary["merges"] + summary["tile_rounds"] == summary["entries"]
        assert summary["merges"] == sum(
            summary[outcome] for outcome in MERGE_OUTCOMES
        )
        assert summary["adopted"] == pipeline_plan.stats.adopted_merges
        assert summary["adopted"] >= 1  # the case is adoption-rich

    def test_ledger_covers_every_data_edge(self, pipeline_plan):
        app = _pipeline_app()
        recorded = {
            (e["src"], e["dst"], e["buffer"])
            for e in pipeline_plan.ledger.merge_entries()
        }
        expected = {
            (edge.src, edge.dst, edge.buffer.name)
            for edge in app.graph.data_edges()
        }
        assert recorded == expected

    def test_entries_use_contract_vocabulary(self, pipeline_plan):
        for entry in pipeline_plan.ledger.merge_entries():
            assert entry["outcome"] in MERGE_OUTCOMES
            assert entry["reason"] in MERGE_REASONS

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(entries="nope"), "entries"),
            (lambda d: d["entries"][0].update(seq=5), "seq"),
            (lambda d: d["entries"][0].update(kind="bogus"), "kind"),
            (lambda d: d["entries"][0].update(outcome="maybe"), "outcome"),
            (lambda d: d["entries"][0].pop("weight_us"), "weight_us"),
        ],
    )
    def test_validate_rejects_malformed(self, pipeline_plan, mutate, match):
        doc = json.loads(json.dumps(pipeline_plan.ledger.as_dict()))
        mutate(doc)
        with pytest.raises(ValueError, match=match):
            validate_ledger(doc)

    def test_tile_rounds_carry_frontier_provenance(self, pipeline_plan):
        rounds = pipeline_plan.ledger.tile_entries()
        assert rounds
        for event in rounds:
            assert event["blocks"] >= 1
            assert event["footprint_bytes"] >= 0
            assert 0.0 <= event["l2_occupancy"]
            assert isinstance(event["frontier_digest"], str)
            assert event["cluster"].startswith("c")


# ----------------------------------------------------------------------
# The differential contract: one digest across planner backends
# ----------------------------------------------------------------------
LEDGER_CASES = [
    ("chain", 24),
    ("fan", 24),
    ("grid", 25),
]


def _probe_app(shape, kernels):
    from repro.apps.synthetic import build_probe_graph

    return build_probe_graph(shape=shape, kernels=kernels, size=32, seed=0)


class TestLedgerBitIdentity:
    @pytest.mark.parametrize("shape,kernels", LEDGER_CASES)
    def test_probe_graphs(self, shape, kernels, monkeypatch):
        monkeypatch.delenv(PLANNER_BACKEND_ENV_VAR, raising=False)
        digests = set()
        for backend in PLANNER_BACKENDS:
            plan = _plan(_probe_app(shape, kernels), backend)
            validate_ledger(plan.ledger.as_dict())
            digests.add(plan.ledger.digest())
        assert len(digests) == 1

    def test_fig5_family_app(self, monkeypatch):
        """A reduced Figure-5 graph: same ledger under every engine."""
        from repro.apps import build_hsopticalflow

        monkeypatch.delenv(PLANNER_BACKEND_ENV_VAR, raising=False)
        digests = set()
        for backend in PLANNER_BACKENDS:
            app = build_hsopticalflow(frame_size=64, levels=2, jacobi_iters=3)
            plan = _plan(app, backend)
            digests.add(plan.ledger.digest())
        assert len(digests) == 1

    def test_pipeline_adoption_rich(self, monkeypatch):
        monkeypatch.delenv(PLANNER_BACKEND_ENV_VAR, raising=False)
        digests = set()
        for backend in PLANNER_BACKENDS:
            plan = _plan(_pipeline_app(), backend)
            digests.add(plan.ledger.digest())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# Satellite: spans derive from ledger entries (one source of truth)
# ----------------------------------------------------------------------
class TestSpansMatchLedger:
    def test_sched_merge_instants_mirror_merge_entries(self):
        tracer = Tracer()
        plan = _plan(_pipeline_app(), tracer=tracer)
        instants = [
            e["args"]
            for e in tracer.events
            if e.get("name") == "sched.merge"
        ]
        # Excluded/skipped entries never traced an instant before the
        # ledger existed, and still don't.
        entries = [
            e
            for e in plan.ledger.merge_entries()
            if e["outcome"] in ("adopted", "rejected", "invalid")
        ]
        assert len(instants) == len(entries)
        for args, entry in zip(instants, entries):
            assert args["decision"] == entry["outcome"]
            assert args["src"] == entry["src"]
            assert args["dst"] == entry["dst"]
            assert args["weight_us"] == entry["weight_us"]
            assert args["cluster_a"] == entry["cluster_a"]

    def test_decision_counter_families(self):
        tracer = Tracer()
        plan = _plan(_pipeline_app(), tracer=tracer)
        summary = plan.ledger.summary()
        m = tracer.metrics
        assert m.total("decisions.recorded") == summary["entries"]
        assert m.total("decisions.adopted") == summary["adopted"]
        assert m.total("decisions.tile_rounds") == summary["tile_rounds"]
        assert m.total("decisions.excluded") == summary["excluded"]

    def test_ledger_recorded_without_tracing(self):
        """The ledger is part of the plan, not of the telemetry."""
        plan = _plan(_pipeline_app())  # NULL_TRACER
        assert plan.ledger.entries
        validate_ledger(plan.ledger.as_dict())


# ----------------------------------------------------------------------
# Satellite: hypothesis sufficiency — the ledger replays the plan
# ----------------------------------------------------------------------
class TestReplaySufficiency:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(("chain", "fan", "grid")),
        kernels=st.integers(min_value=4, max_value=14),
        seed=st.integers(min_value=0, max_value=3),
        backend=st.sampled_from(PLANNER_BACKENDS),
    )
    def test_replay_reconstructs_partition(self, shape, kernels, seed, backend):
        from repro.apps.synthetic import build_probe_graph

        app = build_probe_graph(
            shape=shape, kernels=kernels, size=16, seed=seed
        )
        plan = _plan(app, backend)
        replayed = replay_adopted(
            app.graph, plan.ledger, planner_backend=backend
        )
        want = sorted(
            sorted(plan.partition.members(cid))
            for cid in plan.partition.cluster_ids()
        )
        got = sorted(
            sorted(replayed.members(cid))
            for cid in replayed.cluster_ids()
        )
        assert got == want

    def test_replay_adoption_rich_case(self, pipeline_plan):
        app = _pipeline_app()
        assert pipeline_plan.stats.adopted_merges >= 1
        replayed = replay_adopted(app.graph, pipeline_plan.ledger)
        want = sorted(
            sorted(pipeline_plan.partition.members(cid))
            for cid in pipeline_plan.partition.cluster_ids()
        )
        got = sorted(
            sorted(replayed.members(cid)) for cid in replayed.cluster_ids()
        )
        assert got == want


# ----------------------------------------------------------------------
# Satellite: store migration — v2 envelopes and ledger-less payloads
# ----------------------------------------------------------------------
class TestStoreMigration:
    def _seed_store(self, tmp_path):
        from repro.store.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        app = _pipeline_app()
        ktiler = KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            store=store,
        )
        plan = ktiler.plan(NOMINAL)
        paths = sorted((tmp_path / "plan").rglob("*.json"))
        assert len(paths) == 1
        return app, plan, paths[0]

    def _replan(self, tmp_path, app):
        from repro.store.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        ktiler = KTiler(
            app.graph,
            config=KTilerConfig(launch_overhead_us=2.0),
            store=store,
        )
        return store, ktiler.plan(NOMINAL)

    def test_warm_plan_restores_the_ledger(self, tmp_path):
        app, cold, _path = self._seed_store(tmp_path)
        _store, warm = self._replan(tmp_path, app)
        assert warm.ledger.digest() == cold.ledger.digest()
        validate_ledger(warm.ledger.as_dict())

    def test_v2_envelope_recomputes_with_warning(self, tmp_path):
        """An in-place store upgraded from v2: malformed entry, corrupt
        counter, recompute — never a crash, never a ledger-less plan."""
        app, cold, path = self._seed_store(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["store_version"] = 2
        path.write_text(json.dumps(envelope))
        with pytest.warns(RuntimeWarning, match="malformed entry"):
            store, warm = self._replan(tmp_path, app)
        assert store.corrupt == 1
        assert warm.ledger.digest() == cold.ledger.digest()

    def test_v3_payload_without_ledger_recomputes(self, tmp_path):
        app, cold, path = self._seed_store(tmp_path)
        envelope = json.loads(path.read_text())
        del envelope["payload"]["ledger"]
        path.write_text(json.dumps(envelope))
        with pytest.warns(RuntimeWarning, match="stale plan entry"):
            _store, warm = self._replan(tmp_path, app)
        assert warm.ledger.digest() == cold.ledger.digest()

    def test_v3_payload_with_invalid_ledger_recomputes(self, tmp_path):
        app, cold, path = self._seed_store(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["ledger"] = {"schema_version": 99, "entries": []}
        path.write_text(json.dumps(envelope))
        with pytest.warns(RuntimeWarning, match="stale plan entry"):
            _store, warm = self._replan(tmp_path, app)
        assert warm.ledger.digest() == cold.ledger.digest()


# ----------------------------------------------------------------------
# The diff engine
# ----------------------------------------------------------------------
class TestDiffEngine:
    @pytest.fixture(scope="class")
    def divergent(self):
        app = _pipeline_app()
        ktiler = KTiler(app.graph, config=KTilerConfig(launch_overhead_us=2.0))
        plan_a = ktiler.plan(NOMINAL)
        plan_b = ktiler.plan(HALF_MEM)
        return app, plan_a, plan_b

    def test_cross_frequency_names_first_decision(self, divergent):
        app, plan_a, plan_b = divergent
        payload = diff_plans(
            app.graph, plan_a, plan_b, label_a="nominal", label_b="mem/2"
        )
        assert payload["schema_version"] == DIFF_SCHEMA_VERSION
        assert payload["kind"] == "plan_diff"
        assert not payload["identical"]
        divergence = payload["divergence"]
        assert divergence is not None
        assert "weight_us" in divergence["fields"]
        assert divergence["entry_a"]["reason"] in MERGE_REASONS
        text = format_divergence(payload)
        assert divergence["edge_a"] in text
        assert "weight" in text

    def test_identical_plans_diff_clean(self, divergent):
        app, plan_a, _ = divergent
        payload = diff_plans(app.graph, plan_a, plan_a)
        assert payload["identical"]
        assert payload["divergence"] is None
        assert payload["edge_weight_changes"] == []
        assert format_divergence(payload) == (
            "plans agree: no diverging decision"
        )

    def test_ledger_diff_over_wire_shape(self, divergent):
        _, plan_a, plan_b = divergent
        doc_a = {**plan_a.ledger.as_dict(), "digest": plan_a.ledger.digest()}
        doc_b = {**plan_b.ledger.as_dict(), "digest": plan_b.ledger.digest()}
        payload = diff_ledgers(doc_a, doc_b)
        assert payload["kind"] == "ledger_diff"
        assert not payload["identical"]
        assert payload["edge_weight_changes"]

    def test_html_and_json_artifacts(self, divergent, tmp_path):
        app, plan_a, plan_b = divergent
        payload = diff_plans(app.graph, plan_a, plan_b)
        import html as html_lib

        html = render_diff_html(payload)
        assert "<!DOCTYPE html>" in html
        assert "divergent" in html
        assert "First diverging decision" in html
        assert html_lib.escape(payload["divergence"]["edge_a"]) in html
        json_path = tmp_path / "diff.json"
        html_path = tmp_path / "diff.html"
        write_diff(
            payload, json_path=str(json_path), html_path=str(html_path)
        )
        validate_diff(json.loads(json_path.read_text()))
        assert html_path.read_text() == html

    def test_validate_rejects_identical_with_divergence(self, divergent):
        app, plan_a, plan_b = divergent
        payload = diff_plans(app.graph, plan_a, plan_b)
        broken = json.loads(json.dumps(payload))
        broken["identical"] = True
        with pytest.raises(ValueError, match="divergence"):
            validate_diff(broken)


# ----------------------------------------------------------------------
# CLI: ktiler diff
# ----------------------------------------------------------------------
class TestCliDiff:
    def test_strict_exits_2_on_divergence(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "diff.json"
        html_path = tmp_path / "diff.html"
        code = main(
            [
                "diff",
                "--preset",
                "demo",
                "--json",
                str(json_path),
                "--html",
                str(html_path),
                "--strict",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "first divergence at merge decision" in out
        doc = validate_diff(json.loads(json_path.read_text()))
        assert doc["divergence"] is not None
        assert "divergent" in html_path.read_text()

    def test_same_frequencies_exit_0(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "diff",
                "--preset",
                "demo",
                "--mem-mhz-b",
                str(NOMINAL.mem_mhz),
                "--json",
                str(tmp_path / "d.json"),
                "--html",
                str(tmp_path / "d.html"),
                "--strict",
            ]
        )
        assert code == 0
        assert "plans agree" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Serve: the ledger flag and client diff
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon():
    from repro.serve.server import start_server
    from repro.serve.service import PlanService

    handle = start_server(PlanService())
    yield handle
    handle.close()


class TestServeLedger:
    def test_plan_with_ledger_flag(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.url)
        response = client.plan({"app": {"preset": "demo"}, "ledger": True})
        block = response["ledger"]
        validate_ledger(block)
        assert block["digest"]
        assert block["summary"]["entries"] == len(block["entries"])

    def test_plan_without_flag_omits_block(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.url)
        response = client.plan({"app": {"preset": "jacobi"}})
        assert "ledger" not in response

    def test_ledger_variants_memoize_apart(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.url)
        body = {"app": {"preset": "stencil"}}
        first = client.plan(body)
        assert "ledger" not in first
        with_ledger = client.plan({**body, "ledger": True})
        assert "ledger" in with_ledger
        assert with_ledger["served"] != "memo"
        again = client.plan({**body, "ledger": True})
        assert again["served"] == "memo"
        assert "ledger" in again

    def test_non_bool_flag_rejected(self, daemon):
        from repro.serve.client import ServeClient, ServeClientError

        client = ServeClient(daemon.url)
        with pytest.raises(ServeClientError, match="ledger"):
            client.plan({"app": {"preset": "demo"}, "ledger": "yes"})

    def test_client_diff_action(self, daemon, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "wire_diff.json"
        code = main(
            [
                "client",
                "diff",
                "--url",
                daemon.url,
                "--preset",
                "demo",
                "--strict",
                "--json",
                str(json_path),
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "first divergence at merge decision" in out
        doc = validate_diff(json.loads(json_path.read_text()))
        assert doc["kind"] == "ledger_diff"

    def test_client_diff_identical_exit_0(self, daemon, capsys):
        from repro.cli import main

        code = main(
            [
                "client",
                "diff",
                "--url",
                daemon.url,
                "--preset",
                "demo",
                "--mem-mhz-b",
                str(NOMINAL.mem_mhz),
                "--strict",
            ]
        )
        assert code == 0
        assert "plans agree" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Satellite: explain HTML links edges to their ledger entries
# ----------------------------------------------------------------------
class TestAuditLedgerLinks:
    @pytest.fixture(scope="class")
    def audit(self):
        from repro.obs.audit import audit_schedule

        app = _pipeline_app()
        ktiler = KTiler(app.graph, config=KTilerConfig(launch_overhead_us=2.0))
        return audit_schedule(ktiler, freq=NOMINAL)

    def test_edges_carry_decision_provenance(self, audit):
        assert audit.edges
        for edge in audit.edges:
            assert edge.decision_seq is not None
            assert edge.decision_outcome in MERGE_OUTCOMES
            assert edge.decision_reason in MERGE_REASONS

    def test_json_dict_carries_ledger_block(self, audit):
        from repro.obs.audit import validate_audit

        doc = audit.to_json_dict(preset="demo")
        validate_audit(doc)
        ledger = doc["ledger"]
        assert ledger["digest"]
        assert ledger["entries"]
        seqs = {e["seq"] for e in ledger["entries"]}
        for edge in doc["edges"]:
            assert edge["decision_seq"] in seqs

    def test_html_links_edges_to_ledger_anchors(self, audit):
        from repro.obs.audit import render_html

        html = render_html(audit.to_json_dict(preset="demo"))
        assert "Decision ledger" in html
        assert "#ledger-" in html
        for edge in audit.edges:
            assert f"id='ledger-{edge.decision_seq}'" in html
