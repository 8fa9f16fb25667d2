"""Cross-runtime equivalence of the adversary engine.

Three layers:

* **the lift, generated** — every stateless attack drives a run only as a
  ``StatelessAdversary``; for drawn (attack per side, GAR, seed, gating
  event) scenarios the spec's ``worker_attack`` / ``server_attack`` fields,
  its ``adversary`` field and a hand-built ``StatelessAdversary`` give the
  same history, on the default engine and on the sequential simulator;

* **end-to-end** — a scenario with a stateful adversary produces
  bit-identical histories whether executed sequentially
  (:class:`GuanYuTrainer`) or on the batched multi-replica runtime
  (:mod:`repro.batch`), for every adversary family;
* **engine-level** — the same adversary produces bit-identical corruption
  when driven through the three runtime wirings: context-carried peers
  (sequential), per-lane replay (batched) and the threaded observation
  board fed from racing threads.  Full threaded *trajectories* are
  wall-clock nondeterministic by design (quorums select whichever messages
  arrive first), so the contract — documented in ``docs/adversaries.md`` —
  is determinism of the corruption as a function of the observation, which
  is what these tests pin down.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AdversaryCoordinator,
    AttackContext,
    StatelessAdversary,
    available,
    get,
    lift,
    make_binding,
)
from repro.aggregation import available_rules
from repro.batch import run_batched_scenarios
from repro.campaign.spec import ScenarioSpec
from repro.core import GuanYuTrainer
from repro.core.wiring import scenario_arguments
from repro.experiments.common import workload_attack_kwargs
from repro.runtime import run
from repro.runtime.threads import ThreadedClusterRuntime
from repro.testing import sequential_history

ADVERSARY_SPECS = [
    {"name": "omniscient_descent", "kwargs": {"num_amplitudes": 4}},
    {"name": "collusion", "kwargs": {"attack": "sign_flip"}},
    {"name": "sleeper", "kwargs": {"wake_step": 2, "inner": "collusion"}},
    {"name": "oscillating", "kwargs": {"period": 2, "start_active": True}},
    {"name": "little_is_enough", "kwargs": {}},  # wrapped legacy attack
]


def _specs(adversary, seeds=(11, 12)):
    return [ScenarioSpec(name=f"{adversary['name']}-{seed}",
                         adversary=dict(adversary), num_steps=6,
                         dataset_size=240, seed=seed)
            for seed in seeds]


def _attack(name):
    return {"name": name, "kwargs": workload_attack_kwargs(name, "blobs")}


@st.composite
def lifted_scenarios(draw):
    """``(spec, worker, server)``: a scenario carrying a stateless attack
    on the worker side, the server side or both, through the per-side spec
    fields — optionally with one attack-gating fault event on a controlled
    node.  Admissibility is ``ScenarioSpec.validate``'s call, not ours."""
    worker = draw(st.none() | st.sampled_from(available("worker-attack")))
    server = draw(st.sampled_from(available("server-attack"))
                  if worker is None else
                  st.none() | st.sampled_from(available("server-attack")))
    controlled = (["worker/7", "worker/8"] if worker else []) \
        + (["ps/5"] if server else [])
    gate = draw(st.none() | st.fixed_dictionaries({
        "step": st.integers(0, 4),
        "kind": st.sampled_from(["activate_attack", "deactivate_attack"]),
        "nodes": st.lists(st.sampled_from(controlled), min_size=1,
                          unique=True)}))
    spec = ScenarioSpec(
        name="lifted", num_steps=5, eval_every=2, dataset_size=240,
        gradient_rule=draw(st.sampled_from(available_rules())),
        seed=draw(st.integers(0, 2 ** 16)),
        worker_attack=_attack(worker) if worker else None,
        server_attack=_attack(server) if server else None,
        faults={"events": [gate]} if gate else None)
    try:
        spec.validate()
    except ValueError:
        assume(False)
    return spec, worker, server


def _without_threat_names(history):
    """The history minus the three config keys that record what the
    *caller* passed — the one thing the spellings of a threat differ in."""
    payload = history.to_dict()
    payload["config"] = {
        key: value for key, value in payload["config"].items()
        if key not in ("worker_attack", "server_attack", "adversary")}
    return payload


class TestGeneratedLift:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=lifted_scenarios())
    def test_every_spelling_of_a_stateless_threat_is_one_run(
            self, scenario):
        spec, worker, server = scenario
        result = run(spec)
        assert result.runtime == "batched"
        fields = result.history
        assert fields.to_dict() == sequential_history(spec).to_dict()
        assert fields.config["adversary"] is None  # what the caller passed

        if worker and server:
            # No single ``adversary`` name says "both sides": build the
            # adversary the wiring lifts the two fields into by hand.
            arguments, test, model_fn = scenario_arguments(spec)
            arguments["adversary"] = StatelessAdversary(
                arguments.pop("worker_attack"),
                arguments.pop("server_attack"))
            other = GuanYuTrainer(
                config=spec.cluster_config(), model_fn=model_fn,
                test_dataset=test, delay_model=spec.build_delay_model(),
                cost_model=spec.build_cost_model(),
                cost_num_parameters=spec.billed_parameters, label=spec.name,
                **arguments,
            ).run(spec.num_steps, eval_every=spec.eval_every,
                  max_eval_samples=spec.max_eval_samples)
            assert other.config["adversary"] == f"{worker}+{server}"
        else:
            named = spec.replace(worker_attack=None, server_attack=None,
                                 adversary=_attack(worker or server))
            assert named.spec_hash() != spec.spec_hash()
            other = run(named).history
            assert other.config["adversary"] == (worker or server)
        assert _without_threat_names(other) == _without_threat_names(fields)


class TestSequentialVsBatched:
    @pytest.mark.parametrize("adversary", ADVERSARY_SPECS,
                             ids=lambda a: a["name"])
    def test_histories_bit_identical(self, adversary):
        specs = _specs(adversary)
        sequential = [sequential_history(spec.replace()) for spec in specs]
        batched = run_batched_scenarios([spec.replace() for spec in specs])
        for seq_history, bat_history in zip(sequential, batched):
            assert seq_history.to_dict() == bat_history.to_dict()

    def test_adversary_actually_changes_training(self):
        honest = run(ScenarioSpec(name="h", num_steps=6, dataset_size=240,
                                  seed=11)).history
        attacked = run(_specs(
            {"name": "omniscient_descent", "kwargs": {}},
            seeds=(11,))[0]).history
        assert honest.to_dict() != attacked.to_dict()


def _coordinator(mode_seed=5):
    adversary = get("collusion", attack="little_is_enough")
    worker_ids = [f"worker/{i}" for i in range(7)]
    binding = make_binding(
        adversary, seed=mode_seed, worker_ids=worker_ids,
        server_ids=[f"ps/{i}" for i in range(3)],
        num_attacking_workers=2, num_attacking_servers=0,
        gradient_rule_name="median", declared_byzantine_workers=2,
        declared_byzantine_servers=0, gradient_quorum=7, model_quorum=3)
    return adversary, binding, AdversaryCoordinator(adversary, binding)


def _honest_gradients(step, dimension=5):
    rng = np.random.default_rng(1000 + step)
    return [rng.normal(size=dimension) for _ in range(5)]


class TestThreeWiringsEmitIdenticalCorruption:
    def test_context_board_and_replay_agree(self):
        steps = range(4)
        # Wiring 1: sequential/batched style — peers inside the context.
        _, binding, sequential = _coordinator()
        by_context = {
            step: sequential.worker_gradient(
                "worker/6", AttackContext(step=step,
                                          honest_value=np.zeros(5),
                                          peer_values=_honest_gradients(step)))
            for step in steps}

        # Wiring 2: threaded style — observation board fed from racing
        # threads, corruption queried from two Byzantine node threads.
        _, binding, threaded = _coordinator()
        threaded.enable_board(lambda step: binding.honest_workers(),
                              timeout=5.0)
        by_board = {}
        board_lock = threading.Lock()

        def byzantine(step, node_id):
            value = threaded.worker_gradient(
                node_id, AttackContext(step=step, honest_value=np.zeros(5)))
            with board_lock:
                by_board[(step, node_id)] = value

        for step in steps:
            queries = [threading.Thread(target=byzantine,
                                        args=(step, node_id))
                       for node_id in ("worker/5", "worker/6")]
            for thread in queries:
                thread.start()
            publishers = []
            for index, worker_id in enumerate(binding.honest_workers()):
                publisher = threading.Thread(
                    target=threaded.publish,
                    args=(worker_id, step, _honest_gradients(step)[index]))
                publishers.append(publisher)
                publisher.start()
            for thread in [*queries, *publishers]:
                thread.join(timeout=5.0)
                assert not thread.is_alive()

        # Wiring 3: batched-lane style — a fresh coordinator replayed in
        # sequential order, per-recipient calls sharing the cached plan.
        _, _, lane = _coordinator()
        by_lane = {}
        for step in steps:
            for recipient in ("ps/0", "ps/1", "ps/2"):
                value = lane.worker_gradient(
                    "worker/6", AttackContext(
                        step=step, honest_value=np.zeros(5),
                        peer_values=_honest_gradients(step),
                        recipient=recipient))
                by_lane.setdefault(step, value)
                np.testing.assert_array_equal(by_lane[step], value)

        for step in steps:
            np.testing.assert_array_equal(by_context[step],
                                          by_board[(step, "worker/6")])
            np.testing.assert_array_equal(by_context[step],
                                          by_board[(step, "worker/5")])
            np.testing.assert_array_equal(by_context[step], by_lane[step])


class TestThreadedRuntime:
    def _runtime(self, adversary_name, **adversary_kwargs):
        from repro.campaign.spec import ScenarioSpec
        from repro.experiments.common import build_workload, make_model_factory
        from repro.core.config import ClusterConfig
        from repro.nn.schedules import ConstantSchedule

        spec = ScenarioSpec(num_workers=6, num_servers=6,
                            declared_byzantine_workers=1, dataset_size=240)
        train, _, in_features, num_classes = build_workload(spec)
        config = ClusterConfig(num_servers=6, num_workers=6,
                               num_byzantine_servers=1,
                               num_byzantine_workers=1)
        return ThreadedClusterRuntime(
            config=config,
            model_fn=make_model_factory(spec, in_features, num_classes),
            train_dataset=train, batch_size=8,
            schedule=ConstantSchedule(0.05),
            adversary=lift(get(adversary_name, **adversary_kwargs)),
            num_attacking_workers=1, quorum_timeout=30.0, seed=3)

    def test_observing_adversary_runs_to_completion(self):
        runtime = self._runtime("collusion")
        history = runtime.run(4)
        assert len(history.records) == 4
        losses = [record.train_loss for record in history.records]
        assert all(loss is not None and np.isfinite(loss) for loss in losses)
        assert history.config["adversary"] == "collusion"

    def test_stateless_adversary_runs_without_board(self):
        runtime = self._runtime("sign_flip")
        assert runtime.adversary_coordinator is not None
        assert runtime._observation_board is None
        history = runtime.run(3)
        assert len(history.records) == 3
        # Nobody reads the board for a per-call adversary, so honest
        # workers must not have accumulated gradient copies into it.
        assert runtime.adversary_coordinator._board == {}

    def test_adversary_and_legacy_attacks_are_mutually_exclusive(self):
        from repro.adversary import SignFlipAttack

        with pytest.raises(ValueError, match="not both"):
            runtime = self._runtime("collusion")
            ThreadedClusterRuntime(
                config=runtime.config, model_fn=lambda: None,
                train_dataset=None, worker_attack=SignFlipAttack(),
                adversary=get("collusion"))


class TestSleeperTiming:
    def test_sleeper_matches_dormant_run_until_wake_step(self):
        # The comparison baseline is a sleeper that never wakes (same
        # Byzantine node placement and covert-channel timing, zero
        # corruption), so any divergence is the wake event itself.
        base = ScenarioSpec(name="dormant", num_steps=6, dataset_size=240,
                            seed=21,
                            adversary={"name": "sleeper",
                                       "kwargs": {"wake_step": 100,
                                                  "inner": "collusion"}})
        sleeper = base.replace(
            name="sleeper",
            adversary={"name": "sleeper",
                       "kwargs": {"wake_step": 3, "inner": "collusion"}})
        dormant_losses = [r.train_loss
                          for r in run(base).history.records]
        sleeper_losses = [r.train_loss
                          for r in run(sleeper).history.records]
        # Corruption first lands in the parameters used at step wake+1, so
        # the loss trajectories agree up to and including the wake step.
        assert sleeper_losses[:4] == dormant_losses[:4]
        assert sleeper_losses[4:] != dormant_losses[4:]
