"""Cross-cutting integration tests: fault injection, sharding, schedules, models."""

import pytest

from repro import ClusterConfig, GuanYuTrainer, ScenarioSpec, run
from repro.data import SyntheticImageDataset
from repro.faults import FaultController, FaultSchedule
from repro.network.delays import ConstantDelay
from repro.network.simulator import NetworkSimulator
from repro.nn import build_model
from repro.nn.schedules import InverseTimeDecay
from repro.runtime.cost import CostModel, INSTANT


class TestFaultInjection:
    def test_guanyu_progresses_despite_message_loss_and_duplication(
            self, blobs_split, softmax_model_fn, fast_schedule):
        """Dropped and duplicated messages slow progress but never corrupt it."""
        train, test = blobs_split
        config = ClusterConfig(num_servers=6, num_workers=12,
                               num_byzantine_workers=1)
        trainer = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                                train_dataset=train, test_dataset=test,
                                batch_size=16, schedule=fast_schedule, seed=1)
        # Replace the network with a lossy one (10 % drops, 10 % duplicates).
        trainer.network = NetworkSimulator(
            delay_model=ConstantDelay(1e-3), seed=1,
            fault_controller=FaultController(
                FaultSchedule(drop_rate=0.1, duplicate_rate=0.1), seed=1))
        history = trainer.run(num_steps=40, eval_every=20)
        assert history.final_accuracy() > 0.85
        assert trainer.network.stats.messages_dropped > 0
        assert trainer.network.stats.messages_duplicated > 0


class TestShardingStrategies:
    @pytest.mark.parametrize("strategy", ["iid", "replicated", "by_class"])
    def test_guanyu_converges_under_each_sharding(self, blobs_split,
                                                  softmax_model_fn, fast_schedule,
                                                  strategy):
        train, test = blobs_split
        config = ClusterConfig(num_servers=3, num_workers=6)
        trainer = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                                train_dataset=train, test_dataset=test,
                                batch_size=16, schedule=fast_schedule, seed=1,
                                sharding=strategy)
        history = trainer.run(num_steps=60, eval_every=30)
        # by_class sharding is pathological but Multi-Krum still averages
        # several workers per step, so learning proceeds (slower).
        threshold = 0.85 if strategy != "by_class" else 0.5
        assert history.final_accuracy() > threshold


class TestSchedulesEndToEnd:
    def test_robbins_monro_schedule_converges(self, blobs_split, softmax_model_fn):
        train, test = blobs_split
        config = ClusterConfig(num_servers=3, num_workers=6)
        trainer = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                                train_dataset=train, test_dataset=test,
                                batch_size=16, seed=1,
                                schedule=InverseTimeDecay(initial=0.1, decay=0.02))
        history = trainer.run(num_steps=60, eval_every=30)
        assert history.final_accuracy() > 0.85
        # The recorded learning rate must follow the schedule.
        assert history.records[-1].learning_rate < history.records[0].learning_rate


class TestImageWorkload:
    def test_guanyu_learns_synthetic_images_with_mlp(self, fast_schedule):
        data = SyntheticImageDataset(num_samples=600, image_size=8, noise=0.2, seed=3)
        train, test = data.split(0.85, seed=3)
        model_fn = lambda: build_model("mlp", in_features=3 * 8 * 8, hidden=(32,),
                                       num_classes=10, seed=3)
        config = ClusterConfig(num_servers=3, num_workers=6)
        trainer = GuanYuTrainer(config=config, model_fn=model_fn, train_dataset=train,
                                test_dataset=test, batch_size=32,
                                schedule=fast_schedule, seed=3)
        history = trainer.run(num_steps=50, eval_every=25)
        assert history.final_accuracy() > 0.5  # 10 classes, chance is 0.1

    def test_small_cnn_end_to_end_single_server(self):
        spec = ScenarioSpec(name="cnn", trainer="vanilla", gradient_rule="mean",
                            dataset="images", dataset_size=300, image_size=16,
                            model="small_cnn", num_workers=3, batch_size=16,
                            learning_rate=0.05, seed=4, num_steps=15,
                            eval_every=15)
        history = run(spec).history
        assert len(history) == 15
        assert history.final_accuracy() > 0.1


class TestCostBilling:
    def test_billed_parameters_stretch_the_simulated_clock(self, blobs_split,
                                                           softmax_model_fn,
                                                           fast_schedule):
        train, _ = blobs_split
        config = ClusterConfig(num_servers=3, num_workers=6)

        def build(cost_params):
            return GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                                 train_dataset=train, batch_size=16,
                                 schedule=fast_schedule, seed=1,
                                 cost_num_parameters=cost_params)

        small = build(None).run(num_steps=5, eval_every=5)
        large = build(1_756_426).run(num_steps=5, eval_every=5)
        assert large.total_time() > small.total_time()

    def test_instant_cost_model_leaves_only_network_delays(self, blobs_split,
                                                           softmax_model_fn,
                                                           fast_schedule):
        train, _ = blobs_split
        config = ClusterConfig(num_servers=3, num_workers=6)
        trainer = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                                train_dataset=train, batch_size=16,
                                schedule=fast_schedule, seed=1, cost_model=INSTANT,
                                delay_model=ConstantDelay(1e-3,
                                                          bandwidth_bytes_per_second=1e12))
        history = trainer.run(num_steps=5, eval_every=5)
        # 3 network hops of 1 ms each per step, zero computation time.
        assert history.total_time() == pytest.approx(5 * 3e-3, rel=0.2)

    def test_custom_cost_model_is_honoured(self, blobs_split, softmax_model_fn,
                                           fast_schedule):
        train, _ = blobs_split
        slow_updates = CostModel(update_seconds_per_mparam=10.0)
        config = ClusterConfig(num_servers=3, num_workers=6)
        fast = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                             train_dataset=train, batch_size=16,
                             schedule=fast_schedule, seed=1)
        slow = GuanYuTrainer(config=config, model_fn=softmax_model_fn,
                             train_dataset=train, batch_size=16,
                             schedule=fast_schedule, seed=1, cost_model=slow_updates)
        assert slow.run(num_steps=3, eval_every=3).total_time() > \
            fast.run(num_steps=3, eval_every=3).total_time()
