"""Tests for the scenario campaign engine (spec, store, engine, resume)."""

import dataclasses
import json
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    AttackSpec,
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    build_trainer,
    run_campaign,
)
from repro.batch import run_batched_scenarios
from repro.campaign import engine
from repro.campaign.scheduler import CampaignScheduler
from repro.adversary import RandomGradientAttack
from repro.core import ClusterConfig, GuanYuTrainer
from repro.experiments.common import (
    build_workload,
    make_model_factory,
    make_schedule,
)
from repro.faults import FaultEvent, FaultSchedule
from repro.hetero import HeteroSpec, WorkerProfile
from repro.network.message import MessageKind
from repro.obs.telemetry import MetricsRegistry, use_registry
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime import run
from repro.runtime.facade import CLOCK_IGNORES, CLOCKS, TRAINERS


def tiny_spec(**overrides) -> ScenarioSpec:
    """A scenario that trains in well under a second."""
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=4, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


# --------------------------------------------------------------------------- #
# ScenarioSpec
# --------------------------------------------------------------------------- #
class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = tiny_spec(worker_attack=AttackSpec("sign_flip"),
                         server_attack={"name": "equivocation",
                                        "kwargs": {"magnitude": 9.0}})
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.server_attack.kwargs == {"magnitude": 9.0}

    def test_json_round_trip(self):
        spec = tiny_spec(gradient_quorum=5)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "warp_factor": 9})

    def test_hash_is_stable_and_content_addressed(self):
        assert tiny_spec().spec_hash() == tiny_spec().spec_hash()
        assert tiny_spec().spec_hash() != tiny_spec(seed=7).spec_hash()
        assert tiny_spec().spec_hash() != \
            tiny_spec(gradient_rule="median").spec_hash()

    def test_hash_ignores_the_pure_label(self):
        # Equal configurations share a cache entry however they are named.
        assert tiny_spec(name="a").spec_hash() == tiny_spec(name="b").spec_hash()

    def test_attacker_count_without_attack_rejected(self):
        with pytest.raises(ValueError, match="requires a worker_attack"):
            tiny_spec(num_attacking_workers=1).validate()
        with pytest.raises(ValueError, match="requires a server_attack"):
            tiny_spec(num_attacking_servers=1).validate()

    def test_negative_attacker_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tiny_spec(worker_attack="sign_flip",
                      num_attacking_workers=-1).validate()

    def test_attack_coercion_from_string_and_dict(self):
        spec = tiny_spec(worker_attack="sign_flip")
        assert isinstance(spec.worker_attack, AttackSpec)
        assert spec.worker_attack.name == "sign_flip"

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            tiny_spec().replace(warp_factor=9)

    def test_resolved_attacker_counts_default_to_declared(self):
        spec = tiny_spec(worker_attack="sign_flip")
        assert spec.resolved_num_attacking_workers() == 1
        assert tiny_spec().resolved_num_attacking_workers() == 0
        assert tiny_spec(worker_attack="sign_flip",
                         num_attacking_workers=0) \
            .resolved_num_attacking_workers() == 0


def asdict_reference(spec: ScenarioSpec) -> dict:
    """``to_dict`` as it was written with ``dataclasses.asdict``."""
    payload = dataclasses.asdict(spec)
    payload["faults"] = spec.faults.to_dict() if spec.faults else None
    payload["hetero"] = spec.hetero.to_dict() if spec.hetero else None
    return payload


_KEYS = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-9, 9),
                    st.floats(allow_nan=False), st.text(max_size=4))
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                     st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=8)
_THREATS = st.one_of(
    st.none(),
    st.builds(AttackSpec, name=st.sampled_from(["sign_flip", "collusion"]),
              kwargs=st.dictionaries(_KEYS, _VALUES, max_size=3)),
    # the sleeper's inner strategy: a name/kwargs reference nested in kwargs
    st.builds(lambda wake, inner_kwargs: AttackSpec("sleeper", {
                  "wake_step": wake, "inner": "little_is_enough",
                  "inner_kwargs": inner_kwargs}),
              st.integers(0, 9), st.dictionaries(_KEYS, _VALUES, max_size=3)))
_FAULTS = st.one_of(st.none(), st.builds(
    FaultSchedule,
    events=st.lists(st.builds(
        FaultEvent, step=st.integers(0, 9),
        kind=st.sampled_from(["crash", "partition", "slowdown"]),
        nodes=st.lists(st.sampled_from(["worker/0", "ps/1"]), max_size=2),
        groups=st.lists(st.lists(st.sampled_from(["worker/1", "ps/0"]),
                                 max_size=2), max_size=2),
        factor=st.floats(0.5, 4.0)), max_size=3),
    drop_rate=st.sampled_from([0.0, 0.05])))
_HETERO = st.one_of(st.none(), st.builds(
    HeteroSpec, partition=st.sampled_from(["iid", "dirichlet", "shards"]),
    alpha=st.floats(0.1, 5.0), imbalance=st.sampled_from([0.0, 1.5]),
    profiles=st.lists(st.builds(WorkerProfile,
                                batch_size=st.none() | st.integers(1, 32),
                                local_steps=st.integers(1, 3)),
                      max_size=2)))
_SPECS = st.builds(
    ScenarioSpec, name=st.text(max_size=6), seed=st.integers(0, 2**31),
    worker_attack=_THREATS, server_attack=_THREATS, adversary=_THREATS,
    delay_kwargs=st.dictionaries(st.sampled_from(["low", "high", "mean"]),
                                 st.floats(0.0, 5.0), max_size=3),
    faults=_FAULTS, hetero=_HETERO,
    runtime=st.sampled_from([None, "batched"]),
    model_quorum=st.none() | st.integers(1, 9))


def _containers(value) -> list:
    """Every dict and list nested in ``value``, outermost first."""
    found = []
    if isinstance(value, (dict, list)):
        found.append(value)
        for item in (value.values() if isinstance(value, dict) else value):
            found.extend(_containers(item))
    return found


class TestSpecToDict:
    @settings(max_examples=200, deadline=None)
    @given(spec=_SPECS)
    def test_equals_the_asdict_version(self, spec):
        payload = spec.to_dict()
        reference = asdict_reference(spec)
        assert payload == reference
        assert list(payload) == list(reference)

    @settings(max_examples=100, deadline=None)
    @given(spec=_SPECS)
    def test_returned_containers_are_copies(self, spec):
        before, key = asdict_reference(spec), spec.spec_hash()
        payload = spec.to_dict()
        for container in _containers(payload)[1:]:
            if isinstance(container, dict):
                container["mutated"] = True
            else:
                container.append("mutated")
        assert asdict_reference(spec) == before
        assert spec.spec_hash() == key


class TestScenarioValidation:
    def test_valid_spec_passes(self):
        assert tiny_spec().validate() is not None

    def test_inadmissible_cluster_rejected(self):
        with pytest.raises(ValueError, match="3f"):
            tiny_spec(num_workers=5).validate()

    def test_unknown_rule_trainer_dataset_rejected(self):
        with pytest.raises(ValueError, match="aggregation rule"):
            tiny_spec(gradient_rule="averaging").validate()
        with pytest.raises(ValueError, match="trainer"):
            tiny_spec(trainer="horovod").validate()
        with pytest.raises(ValueError, match="dataset"):
            tiny_spec(dataset="imagenet").validate()

    def test_misspelled_attack_kwarg_is_a_value_error(self):
        bad = tiny_spec(worker_attack=AttackSpec("random_gradient",
                                                 {"magnitude": 5.0}))
        with pytest.raises(ValueError, match="invalid kwargs"):
            bad.validate()
        # ... and therefore expand(on_invalid="skip") can drop the cell.
        campaign = CampaignSpec(name="c", scenarios=[bad])
        assert campaign.expand(on_invalid="skip") == []

    def test_attack_role_mismatch_rejected(self):
        with pytest.raises(ValueError, match="server attack"):
            tiny_spec(worker_attack="equivocation").validate()
        with pytest.raises(ValueError, match="worker attack"):
            tiny_spec(server_attack="sign_flip").validate()

    def test_more_attackers_than_declared_rejected(self):
        with pytest.raises(ValueError, match="attacking workers"):
            tiny_spec(worker_attack="sign_flip",
                      num_attacking_workers=2).validate()

    def test_rule_minimum_inputs_vs_quorum(self):
        # Bulyan with f̄=1 needs 4f+3 = 7 inputs, but q̄ max is 6-1 = 5.
        with pytest.raises(ValueError, match="at least 7 inputs"):
            tiny_spec(gradient_rule="bulyan").validate()

    def test_vanilla_rejects_server_attack(self):
        with pytest.raises(ValueError, match="trusted"):
            tiny_spec(trainer="vanilla",
                      server_attack="equivocation").validate()

    def test_threaded_rejects_simulated_only_knobs_and_vice_versa(self):
        with pytest.raises(ValueError, match="real clock"):
            tiny_spec(trainer="guanyu_threaded",
                      delay_model="lognormal").validate()
        with pytest.raises(ValueError, match="jitter"):
            tiny_spec(jitter=0.01).validate()
        with pytest.raises(ValueError, match="quorum_timeout"):
            tiny_spec(quorum_timeout=5.0).validate()
        assert tiny_spec(trainer="guanyu_threaded", jitter=0.01,
                         quorum_timeout=5.0).validate()

    @pytest.mark.parametrize("overrides, message", [
        # Multi-Krum with f̄=2 needs 2f+3 = 7 inputs but only 6 workers reply
        (dict(trainer="vanilla", declared_byzantine_workers=2),
         "at least 7 inputs"),
        # the trusted server is sure to hear from the 6 honest workers only
        (dict(trainer="single_server_krum", num_workers=9,
              declared_byzantine_workers=2, worker_attack="silent_worker",
              num_attacking_workers=3), "at least 7 inputs but only 6"),
        # with every worker silent it is sure to hear from nobody
        (dict(trainer="vanilla", gradient_rule="mean", num_workers=9,
              worker_attack="silent_worker", num_attacking_workers=9),
         "at least 1 inputs but only 0"),
    ])
    def test_vanilla_gradient_rule_needs_enough_workers(self, overrides,
                                                        message):
        with pytest.raises(ValueError, match=message):
            tiny_spec(**overrides).validate()

    def test_knobs_ignored_by_the_trainer_are_rejected(self):
        with pytest.raises(ValueError, match="always"):
            tiny_spec(trainer="single_server_krum",
                      gradient_rule="median").validate()
        with pytest.raises(ValueError, match="model_rule"):
            tiny_spec(trainer="vanilla", gradient_rule="mean",
                      model_rule="mean").validate()
        with pytest.raises(ValueError, match="external_communication"):
            tiny_spec(external_communication=True).validate()
        assert tiny_spec(trainer="vanilla", gradient_rule="mean",
                         external_communication=True).validate()


    @pytest.mark.parametrize("trainer, name", [
        pytest.param(trainer, name, id=f"{trainer}-{name}")
        for trainer, kind in TRAINERS.items() for name in kind.ignores])
    def test_every_ignored_field_is_rejected_by_name(self, trainer, name):
        spec = tiny_spec(trainer=trainer)
        assert spec.validate()
        with pytest.raises(ValueError) as raised:
            spec.replace(**{name: IGNORED_VALUES[name]}).validate()
        assert f"trainer '{trainer}'" in str(raised.value)
        assert f"'{name}'" in str(raised.value)

    @pytest.mark.parametrize("runtime, name", [
        pytest.param(runtime, name, id=f"{runtime}-{name}")
        for runtime, clock in CLOCKS.items()
        for name in CLOCK_IGNORES[clock]])
    def test_every_field_the_clock_ignores_is_rejected_by_name(
            self, runtime, name):
        spec = tiny_spec(runtime=runtime)
        assert spec.validate()
        with pytest.raises(ValueError) as raised:
            spec.replace(**{name: IGNORED_VALUES[name]}).validate()
        assert f"'{name}'" in str(raised.value)
        assert f"{CLOCKS[runtime]} clock" in str(raised.value)


#: a non-default value for every field some trainer ignores
IGNORED_VALUES = {
    "jitter": 0.01, "quorum_timeout": 5.0, "external_communication": True,
    "delay_model": "lognormal", "delay_kwargs": {"low": 0.01},
    "cost_model": "instant", "adversary": "collusion",
    "faults": {"events": [{"step": 1, "kind": "crash",
                           "nodes": ["worker/0"]}]},
    "server_attack": "corrupted_model", "model_rule": "mean",
    "gradient_rule": "median",
}


# --------------------------------------------------------------------------- #
# CampaignSpec expansion
# --------------------------------------------------------------------------- #
class TestCampaignExpansion:
    def test_grid_is_cartesian_product(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                grid={"gradient_rule": ["multi_krum", "median"],
                                      "seed": [0, 1, 2]})
        expanded = campaign.expand()
        assert len(expanded) == 6
        assert expanded[0].name == "gradient_rule=multi_krum-seed=0"
        assert {spec.seed for spec in expanded} == {0, 1, 2}

    def test_dict_axis_values_are_multi_field_patches(self):
        campaign = CampaignSpec(
            name="c", base=tiny_spec(),
            grid={"attack": [
                {"_name": "clean"},
                {"_name": "flip", "worker_attack": {"name": "sign_flip",
                                                    "kwargs": {}}},
            ]})
        expanded = campaign.expand()
        assert [spec.name for spec in expanded] == ["clean", "flip"]
        assert expanded[0].worker_attack is None
        assert expanded[1].worker_attack.name == "sign_flip"

    def test_zip_axes_are_bundled_elementwise(self):
        campaign = CampaignSpec(
            name="c", base=tiny_spec(),
            zip_axes={"num_workers": [6, 9],
                      "declared_byzantine_workers": [1, 2]})
        expanded = campaign.expand()
        assert len(expanded) == 2
        assert (expanded[1].num_workers,
                expanded[1].declared_byzantine_workers) == (9, 2)

    def test_non_list_axis_value_rejected(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(), grid={"seed": 5})
        with pytest.raises(ValueError, match="must map to a list"):
            campaign.expand()

    def test_zip_length_mismatch_rejected(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                zip_axes={"seed": [0, 1], "num_steps": [4]})
        with pytest.raises(ValueError, match="share one length"):
            campaign.expand()

    def test_on_invalid_skip_drops_bad_cells(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                grid={"num_workers": [5, 6]})
        with pytest.raises(ValueError):
            campaign.expand()
        survivors = campaign.expand(on_invalid="skip")
        assert [spec.num_workers for spec in survivors] == [6]

    def test_explicit_scenarios_and_grid_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            CampaignSpec(name="c", scenarios=[tiny_spec()],
                         grid={"seed": [0]})

    def test_duplicate_names_rejected(self):
        campaign = CampaignSpec(name="c", scenarios=[tiny_spec(), tiny_spec()])
        with pytest.raises(ValueError, match="duplicate"):
            campaign.expand()

    def test_campaign_json_round_trip(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                grid={"seed": [0, 1]},
                                zip_axes={"batch_size": [8, 16]})
        restored = CampaignSpec.from_json(campaign.to_json())
        assert restored.to_dict() == campaign.to_dict()
        assert [s.name for s in restored.expand()] == \
            [s.name for s in campaign.expand()]


# --------------------------------------------------------------------------- #
# ResultStore
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec()
        history = run(spec).history
        key = store.put(spec, history, duration_seconds=0.5)
        assert key == spec.spec_hash()
        assert store.contains(key) and key in store
        stored = store.get(key)
        assert stored.spec == spec
        assert stored.history.to_dict() == history.to_dict()
        assert stored.meta["duration_seconds"] == 0.5

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ResultStore(tmp_path).get("0" * 64)

    def test_keys_len_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        history = run(tiny_spec()).history
        keys = {store.put(tiny_spec(seed=seed), history) for seed in (0, 1)}
        assert set(store.keys()) == keys and len(store) == 2
        assert store.delete(store.keys()[0])
        assert len(store) == 1
        assert not store.delete("f" * 64)

    def test_query_matches_spec_fields_and_attack_names(self, tmp_path):
        store = ResultStore(tmp_path)
        history = run(tiny_spec()).history
        store.put(tiny_spec(gradient_rule="median"), history)
        store.put(tiny_spec(worker_attack="sign_flip"), history)
        assert len(store.query(gradient_rule="median")) == 1
        assert len(store.query(worker_attack="sign_flip")) == 1
        assert len(store.query(trainer="guanyu")) == 2
        with pytest.raises(KeyError):
            store.query(nonexistent_field=1)

    def test_query_reads_the_real_clock_spelling(self, tmp_path):
        # Both entries are stored with trainer "guanyu_threaded"; a filter
        # names the protocol and the engine.
        store = ResultStore(tmp_path)
        history = run(tiny_spec()).history
        store.put(tiny_spec(name="thr", runtime="threaded"), history)
        store.put(tiny_spec(name="clu", runtime="cluster"), history)
        store.put(tiny_spec(name="sim"), history)

        def names(**filters):
            return sorted(result.spec.name
                          for result in store.query(**filters))
        assert names(trainer="guanyu") == ["clu", "sim", "thr"]
        assert names(runtime="threaded") == ["thr"]
        assert names(runtime="cluster") == ["clu"]
        assert names(runtime=None) == ["sim"]
        assert names(trainer="guanyu", runtime="threaded") == ["thr"]
        assert names(trainer="guanyu_threaded") == ["thr"]
        assert names(trainer="guanyu_threaded", runtime="cluster") == ["clu"]
        _, _, body = CampaignScheduler(store).handle_route(
            "GET", "/results", "trainer=guanyu&runtime=threaded", b"")
        assert [row["scenario"] for row in json.loads(body)["rows"]] \
            == ["thr"]

    def test_query_rejects_unknown_fields_even_when_empty(self, tmp_path):
        with pytest.raises(KeyError, match="unknown scenario fields"):
            ResultStore(tmp_path).query(gradent_rule="median")

    def test_query_by_plain_name_hits_and_misses(self, tmp_path):
        """Attack/adversary filters take the plain string name.

        Callers never reach into the nested ``{"name": ..., "kwargs": ...}``
        spec payloads: ``query(adversary="collusion")`` matches regardless
        of the adversary's constructor arguments, and a name that is not in
        the store simply returns no results.
        """
        store = ResultStore(tmp_path)
        history = run(tiny_spec()).history
        store.put(tiny_spec(name="adv",
                            adversary={"name": "collusion",
                                       "kwargs": {"attack": "sign_flip"}}),
                  history)
        store.put(tiny_spec(name="legacy-worker",
                            worker_attack="reversed_gradient"), history)
        store.put(tiny_spec(name="legacy-server", num_servers=6,
                            declared_byzantine_servers=1,
                            server_attack="stale_model"), history)
        # Hits, by plain name.
        assert [r.spec.name for r in store.query(adversary="collusion")] \
            == ["adv"]
        assert [r.spec.name
                for r in store.query(worker_attack="reversed_gradient")] \
            == ["legacy-worker"]
        assert [r.spec.name
                for r in store.query(server_attack="stale_model")] \
            == ["legacy-server"]
        # Misses: unknown names and absent fields return empty, not errors.
        assert store.query(adversary="omniscient_descent") == []
        assert store.query(worker_attack="sign_flip") == []
        assert store.query(server_attack="equivocation") == []
        # Filters compose with ordinary scalar fields.
        assert len(store.query(adversary="collusion",
                               trainer="guanyu")) == 1
        assert store.query(adversary="collusion", seed=999) == []

    def test_summary_rows_include_adversary(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec(adversary="collusion")
        store.put(spec, run(spec).history)
        assert store.summary_rows()[0]["adversary"] == "collusion"

    def test_summary_rows_render(self, tmp_path):
        from repro.plotting import format_table
        store = ResultStore(tmp_path)
        store.put(tiny_spec(), run(tiny_spec()).history)
        rows = store.summary_rows()
        assert rows[0]["scenario"] == "tiny"
        assert "final_accuracy" in format_table(rows)


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_matches_directly_built_trainer(self):
        """The engine reproduces a hand-built GuanYuTrainer bit for bit."""
        spec = tiny_spec(gradient_rule="median",
                         worker_attack=AttackSpec("random_gradient",
                                                  {"scale": 100.0}))
        engine_history = run(spec).history

        train, test, in_features, num_classes = build_workload(spec)
        trainer = GuanYuTrainer(
            config=ClusterConfig(num_servers=3, num_workers=6,
                                 num_byzantine_workers=1),
            model_fn=make_model_factory(spec, in_features, num_classes),
            train_dataset=train, test_dataset=test, batch_size=spec.batch_size,
            schedule=make_schedule(spec), seed=spec.seed,
            cost_num_parameters=spec.billed_parameters,
            gradient_rule_name="median",
            worker_attack=RandomGradientAttack(scale=100.0),
            num_attacking_workers=1, label=spec.name)
        manual_history = trainer.run(spec.num_steps, eval_every=spec.eval_every,
                                     max_eval_samples=spec.max_eval_samples)
        assert engine_history.to_dict() == manual_history.to_dict()

    def test_build_trainer_dispatch(self):
        assert isinstance(build_trainer(tiny_spec()), GuanYuTrainer)
        vanilla = build_trainer(tiny_spec(trainer="vanilla", gradient_rule="mean"))
        assert isinstance(vanilla, GuanYuTrainer)
        assert list(vanilla.routes) == [MessageKind.MODEL_TO_WORKER,
                                        MessageKind.GRADIENT_TO_SERVER]
        assert [server.node_id for server in vanilla.servers] == ["ps/0"]

    def test_vanilla_robust_rule_is_sized_for_declared_byzantine(self):
        [server] = build_trainer(tiny_spec(trainer="vanilla")).servers
        assert server.gradient_aggregator.name == "multi_krum"
        assert server.gradient_aggregator.num_byzantine == 1

    def test_serial_and_parallel_results_agree(self):
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                grid={"seed": [0, 1, 2]})
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, processes=2)
        assert serial.counts() == {"ran": 3, "cached": 0, "failed": 0}
        assert {name: history.to_dict()
                for name, history in serial.histories().items()} == \
               {name: history.to_dict()
                for name, history in parallel.histories().items()}

    def test_failure_isolation(self):
        # label_flip with num_classes=10 produces out-of-range labels on the
        # 4-class blobs task: a genuine runtime failure, isolated per scenario.
        good = tiny_spec(name="good")
        bad = tiny_spec(name="bad",
                        worker_attack=AttackSpec("label_flip",
                                                 {"num_classes": 10}))
        result = run_campaign([good, bad])
        assert result.counts() == {"ran": 1, "cached": 0, "failed": 1}
        failed = result.failures()[0]
        assert failed.spec.name == "bad" and failed.error
        assert "Traceback" in failed.traceback
        assert "good" in result.histories() and "bad" not in result.histories()
        with pytest.raises(RuntimeError, match="bad"):
            result.raise_on_failure()

    def test_scenario_list_with_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([tiny_spec(seed=0), tiny_spec(seed=1)])

    def test_progress_callback_sees_every_scenario(self):
        seen = []
        campaign = CampaignSpec(name="c", base=tiny_spec(),
                                grid={"seed": [0, 1]})
        run_campaign(campaign, progress=lambda o, done, total:
                     seen.append((o.spec.name, o.status, done, total)))
        assert len(seen) == 2
        assert seen[-1][2:] == (2, 2)

    def test_threaded_trainer_scenario(self, tmp_path):
        spec = tiny_spec(trainer="guanyu_threaded", num_steps=3,
                         quorum_timeout=30.0)
        history = run(spec).history
        assert len(history) == 3
        assert history.label == spec.name


class TestScenarioSinks:
    """A scenario gets a tracer and a metrics registry of its own, and its
    stored entry a ``trace_summary``, only when the campaign's caller
    traces resp. meters."""

    @staticmethod
    def _specs():
        # with batch_seeds: one two-lane group and one lone scenario, so
        # processes=2 sends both kinds of task to the pool
        return [tiny_spec(name="a", seed=0), tiny_spec(name="b", seed=1),
                tiny_spec(name="c", num_steps=3)]

    @pytest.fixture()
    def built(self, monkeypatch):
        """``[tracers, registries]`` the engine constructs, counted in
        shared memory so forked pool workers count too."""
        counts = multiprocessing.get_context().Array("i", 2)
        for slot, name in enumerate(("Tracer", "MetricsRegistry")):
            def counted(*args, _slot=slot, _make=getattr(engine, name),
                        **kwargs):
                with counts.get_lock():
                    counts[_slot] += 1
                return _make(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        return counts

    @staticmethod
    def _summaries(store, result):
        """Each outcome's ``trace_summary`` from its entry and its index row
        (``None`` where absent)."""
        rows = {stored.key: stored.meta for stored in store.query()}
        return ([store.get(outcome.store_key).meta.get("trace_summary")
                 for outcome in result.outcomes],
                [rows[outcome.store_key].get("trace_summary")
                 for outcome in result.outcomes])

    @pytest.mark.parametrize("processes", [None, 2])
    def test_untraced_campaign_builds_no_local_sinks(self, tmp_path, built,
                                                     processes):
        store = ResultStore(str(tmp_path))
        result = run_campaign(self._specs(), store=store, processes=processes,
                              batch_seeds=True)
        assert result.counts() == {"ran": 3, "cached": 0, "failed": 0}
        assert list(built) == [0, 0]
        entries, rows = self._summaries(store, result)
        assert entries == rows == [None] * 3

    @pytest.mark.parametrize("processes", [None, 2])
    def test_traced_campaign_keeps_its_summaries(self, tmp_path, built,
                                                 processes):
        store = ResultStore(str(tmp_path))
        with use_tracer(Tracer()) as tracer:
            result = run_campaign(self._specs(), store=store,
                                  processes=processes, batch_seeds=True)
        assert result.counts()["ran"] == 3
        assert list(built) == [2, 0]  # one tracer a task, no registry
        records = tracer.events()
        raw = {record.name for record in records if record.kind == "span"}
        scenarios = [record.attrs for record in records
                     if record.name == "campaign.scenario"]
        assert len(scenarios) == 3
        if processes:
            assert not raw  # raw spans stay in the pool worker
            assert all("batch.step.gather" in attrs["trace_summary"]["spans"]
                       for attrs in scenarios)
        else:
            assert {"batch.step.broadcast", "batch.step.gather"} <= raw
            assert all("trace_summary" not in attrs for attrs in scenarios)
        for summaries in self._summaries(store, result):
            assert all("batch.step.gather" in summary["spans"]
                       for summary in summaries)

    @staticmethod
    def _phase_counts(registry):
        histogram = registry.snapshot()["metrics"]["repro_step_phase_seconds"]
        return {series["labels"]["phase"]: series["count"]
                for series in histogram["series"]}

    @pytest.mark.parametrize("processes", [None, 2])
    def test_metered_campaign_merges_each_scenario_once(self, built,
                                                        processes):
        lone = tiny_spec(name="lone", num_steps=3)
        group = [tiny_spec(name=f"lane-{seed}", seed=seed)
                 for seed in range(4)]
        direct = MetricsRegistry()
        with use_registry(direct):
            run(lone)
            run_batched_scenarios(group)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_campaign([lone] + group, processes=processes,
                                  batch_seeds=True)
        assert result.counts()["ran"] == 5
        assert list(built) == [0, 2]  # one registry a task, no tracer
        assert self._phase_counts(registry) == self._phase_counts(direct)
        assert set(self._phase_counts(direct)) == {
            "broadcast", "compute", "gather", "aggregate", "apply"}


class TestCampaignResume:
    """Satellite: an interrupted campaign resumes from the result store."""

    def _campaign(self):
        return CampaignSpec(
            name="resume", base=tiny_spec(),
            grid={"gradient_rule": ["multi_krum", "median"], "seed": [0, 1]})

    def test_preseeded_store_skips_cached_scenarios(self, tmp_path):
        campaign = self._campaign()
        fresh_store = ResultStore(tmp_path / "fresh")
        fresh = run_campaign(campaign, store=fresh_store)
        assert fresh.counts() == {"ran": 4, "cached": 0, "failed": 0}

        # Simulate a campaign killed after two scenarios: pre-seed a new
        # store with a subset of the fresh results.
        partial_store = ResultStore(tmp_path / "partial")
        interrupted = fresh.outcomes[:2]
        for outcome in interrupted:
            partial_store.put(outcome.spec, outcome.history)

        resumed = run_campaign(campaign, store=partial_store)
        assert resumed.counts() == {"ran": 2, "cached": 2, "failed": 0}
        cached_names = {outcome.spec.name for outcome in resumed.outcomes
                        if outcome.status == "cached"}
        assert cached_names == {outcome.spec.name for outcome in interrupted}

        # The resumed campaign's results are identical to the fresh run's.
        assert {name: history.to_dict()
                for name, history in resumed.histories().items()} == \
               {name: history.to_dict()
                for name, history in fresh.histories().items()}
        # ... and the store now holds every scenario for next time.
        rerun = run_campaign(campaign, store=partial_store)
        assert rerun.counts() == {"ran": 0, "cached": 4, "failed": 0}

    def test_cache_is_shared_across_scenario_names(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_campaign([tiny_spec(name="harness-label")], store=store)
        assert first.counts()["ran"] == 1
        second = run_campaign([tiny_spec(name="sweep-label")], store=store)
        assert second.counts() == {"ran": 0, "cached": 1, "failed": 0}
        assert second.histories()["sweep-label"].label == "sweep-label"

    def test_scheduler_job_opens_no_payload_for_cached_specs(self, tmp_path):
        stored = [tiny_spec(name=f"stored-{seed}", seed=seed)
                  for seed in (0, 1, 2)]
        run_campaign(stored, store=ResultStore(tmp_path))
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store)
        job = scheduler.submit(CampaignSpec(
            name="mixed", scenarios=stored + [tiny_spec(name="new", seed=9)]))
        assert job["cached_at_submit"] == 3
        with scheduler:
            deadline = time.monotonic() + 60.0
            while (scheduler.job(job["id"])["state"] not in ("done", "failed")
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        finished = scheduler.job(job["id"])
        assert finished["state"] == "done"
        assert finished["counts"] == {"cached": 3, "ran": 1}
        assert store.payload_reads == 0

    def test_equal_configs_within_one_campaign_train_once(self):
        result = run_campaign([tiny_spec(name="a"), tiny_spec(name="b")])
        assert result.counts() == {"ran": 1, "cached": 1, "failed": 0}
        histories = result.histories()
        assert histories["a"].label == "a" and histories["b"].label == "b"
        assert histories["a"].to_dict()["records"] == \
            histories["b"].to_dict()["records"]
