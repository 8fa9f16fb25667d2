"""Tests: fault schedules in campaign specs + the resilience harness."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    run_campaign,
)
from repro.experiments.resilience import (
    run_crash_quorum_study,
    run_partition_heal_study,
    schedule_for_crashes,
)
from repro.experiments.common import ExperimentScale
from repro.faults import FaultSchedule
from repro.runtime import run

FAULTS = {"events": [
    {"step": 3, "kind": "crash", "nodes": ["ps/2"]},
    {"step": 7, "kind": "recover", "nodes": ["ps/2"]},
]}


def _base(**overrides) -> ScenarioSpec:
    defaults = dict(name="faulted", trainer="guanyu", num_workers=6,
                    num_servers=6, declared_byzantine_workers=1,
                    declared_byzantine_servers=0, num_steps=10,
                    eval_every=5, dataset_size=300, faults=FAULTS)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpecFaults:
    def test_faults_coerced_from_dict(self):
        spec = _base()
        assert isinstance(spec.faults, FaultSchedule)
        assert spec.faults.events[0].kind == "crash"

    def test_empty_schedule_normalises_to_none(self):
        spec = _base(faults={"events": []})
        assert spec.faults is None

    def test_json_round_trip_preserves_hash(self):
        spec = _base()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.spec_hash() == spec.spec_hash()
        assert restored.faults.to_dict() == spec.faults.to_dict()

    def test_hash_changes_iff_schedule_changes(self):
        spec = _base()
        plain = spec.replace(faults=None)
        # absent == empty schedule
        assert plain.spec_hash() == spec.replace(faults={"events": []}).spec_hash()
        # any schedule difference re-addresses the spec
        assert plain.spec_hash() != spec.spec_hash()
        moved = {"events": [dict(FAULTS["events"][0], step=4),
                            FAULTS["events"][1]]}
        assert spec.replace(faults=moved).spec_hash() != spec.spec_hash()
        # a faults-free spec keeps its pre-fault-engine address
        payload = json.loads(plain.to_json())
        assert payload["faults"] is None

    def test_validation_requires_guanyu_trainer(self):
        with pytest.raises(ValueError, match="trusted server"):
            _base(trainer="vanilla", declared_byzantine_servers=0,
                  num_servers=6).validate()

    def test_validation_checks_cluster_node_ids(self):
        bad = {"events": [{"step": 1, "kind": "crash", "nodes": ["ps/77"]}]}
        with pytest.raises(ValueError, match="unknown nodes"):
            _base(faults=bad).validate()

    def test_single_spec_runs_under_both_runtimes(self):
        """Acceptance: one spec JSON (crash at k, heal at m) under both
        trainers completes training."""
        schedule = {"events": [
            {"step": 3, "kind": "crash", "nodes": ["ps/5"]},
            {"step": 7, "kind": "recover", "nodes": ["ps/5"]},
            {"step": 4, "kind": "partition",
             "groups": [["ps/0"], ["ps/1", "ps/2", "ps/3", "ps/4"]],
             "label": "cut"},
            {"step": 8, "kind": "heal", "label": "cut"},
        ]}
        text = _base(faults=schedule).to_json()
        for trainer in ("guanyu", "guanyu_threaded"):
            spec = ScenarioSpec.from_json(text).replace(
                trainer=trainer, name=f"both-{trainer}")
            history = run(spec).history
            assert len(history) == spec.num_steps


class TestFaultSweeps:
    def test_grid_axis_over_fault_schedules(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = CampaignSpec(
            name="fault-grid",
            base=_base(faults=None, num_steps=6),
            grid={"faults": [
                {"_name": "baseline", "faults": None},
                {"_name": "crash", "faults": FAULTS},
            ]})
        scenarios = campaign.expand()
        assert {spec.name for spec in scenarios} == {"baseline", "crash"}
        assert len({spec.spec_hash() for spec in scenarios}) == 2
        result = run_campaign(campaign, store=store)
        assert not result.failures()
        # re-run: both cells served from cache
        again = run_campaign(campaign, store=store)
        assert again.counts() == {"ran": 0, "cached": 2, "failed": 0}

    def test_store_summary_counts_fault_events(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign([_base(num_steps=4)], store=store)
        (row,) = store.summary_rows()
        assert row["fault_events"] == 2


class TestResilienceHarness:
    @pytest.fixture(scope="class")
    def tiny_scale(self):
        return ExperimentScale(num_workers=6, num_servers=6,
                               declared_byzantine_workers=1,
                               declared_byzantine_servers=0, num_steps=9,
                               eval_every=3, batch_size=16, dataset="blobs",
                               model="softmax", dataset_size=300)

    def test_schedule_for_crashes_targets_last_servers(self):
        spec = _base()
        schedule = schedule_for_crashes(spec, 2, 3, 7)
        assert schedule.crashed_nodes() == ["ps/4", "ps/5"]
        assert schedule_for_crashes(spec, 0, 3, 7) is None
        with pytest.raises(ValueError):
            schedule_for_crashes(spec, 99, 3, 7)

    def test_crash_quorum_study_shows_liveness_boundary(self, tiny_scale,
                                                        tmp_path):
        store = ResultStore(tmp_path / "store")
        rows, histories = run_crash_quorum_study(
            scale=tiny_scale, crash_counts=(0, 2), quorum_sizes=(3, 5),
            crash_step=3, recover_step=6, store=store)
        assert len(rows) == 4
        by_cell = {(row["model_quorum"], row["crashed_servers"]): row
                   for row in rows}
        assert all(row["completed"] for row in rows)
        # q=3: 2 crashes of 6 leave 4 >= 3 senders — no stall.
        assert by_cell[(3, 2)]["stalled_steps"] == 0
        # q=5: 2 crashes leave 4 < 5 — the window [3, 6) stalls.
        assert by_cell[(5, 2)]["stalled_steps"] == 3
        assert by_cell[(5, 0)]["stalled_steps"] == 0

        # Reproduced from the store: second run is pure cache.
        rows2, _ = run_crash_quorum_study(
            scale=tiny_scale, crash_counts=(0, 2), quorum_sizes=(3, 5),
            crash_step=3, recover_step=6, store=store)
        assert rows2 == rows

    def test_partition_heal_study_recontracts(self, tiny_scale):
        rows, histories = run_partition_heal_study(
            scale=tiny_scale, partition_step=2, heal_steps=(5, 8))
        assert [row["heal_step"] for row in rows] == [5, 8]
        for row in rows:
            assert row["spread_before_heal"] > row["final_spread"]
        # the longer the partition, the further the replica drifts
        assert rows[1]["spread_before_heal"] > rows[0]["spread_before_heal"]
