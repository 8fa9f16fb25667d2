"""Integration tests for the single-server baselines (vanilla TF / Krum)."""

import pytest

from repro import SingleServerKrumTrainer, VanillaTrainer
from repro.adversary import RandomGradientAttack, SilentWorker
from repro.metrics import throughput_updates_per_second


def _vanilla(blobs_split, model_fn, schedule, **kwargs):
    train, test = blobs_split
    return VanillaTrainer(model_fn=model_fn, train_dataset=train, test_dataset=test,
                          batch_size=16, schedule=schedule, seed=2, **kwargs)


class TestVanillaTrainer:
    def test_converges_without_byzantine_workers(self, blobs_split, softmax_model_fn,
                                                 fast_schedule):
        history = _vanilla(blobs_split, softmax_model_fn, fast_schedule,
                           num_workers=6).run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_single_byzantine_worker_destroys_convergence(self, blobs_split,
                                                          softmax_model_fn,
                                                          fast_schedule):
        """Figure 4: vanilla averaging cannot tolerate even one Byzantine node."""
        history = _vanilla(blobs_split, softmax_model_fn, fast_schedule,
                           num_workers=6,
                           worker_attack=RandomGradientAttack(scale=100.0),
                           num_attacking_workers=1).run(num_steps=60, eval_every=20)
        assert history.final_accuracy() < 0.6

    def test_silent_byzantine_worker_is_harmless(self, blobs_split, softmax_model_fn,
                                                 fast_schedule):
        """The paper notes silence is the one Byzantine behaviour vanilla survives."""
        history = _vanilla(blobs_split, softmax_model_fn, fast_schedule,
                           num_workers=6, worker_attack=SilentWorker(),
                           num_attacking_workers=1).run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_external_communication_adds_time_overhead(self, blobs_split,
                                                       softmax_model_fn,
                                                       fast_schedule):
        """Section 5.3: vanilla GuanYu is slower than vanilla TF per update."""
        fast = _vanilla(blobs_split, softmax_model_fn, fast_schedule, num_workers=6,
                        external_communication=False).run(num_steps=15, eval_every=15)
        slow = _vanilla(blobs_split, softmax_model_fn, fast_schedule, num_workers=6,
                        external_communication=True).run(num_steps=15, eval_every=15)
        assert slow.total_time() > fast.total_time()
        assert (throughput_updates_per_second(fast)
                > throughput_updates_per_second(slow))

    def test_validation_errors(self, blobs_split, softmax_model_fn, fast_schedule):
        with pytest.raises(ValueError):
            _vanilla(blobs_split, softmax_model_fn, fast_schedule, num_workers=0)
        with pytest.raises(ValueError):
            _vanilla(blobs_split, softmax_model_fn, fast_schedule, num_workers=4,
                     num_attacking_workers=1)
        with pytest.raises(ValueError):
            _vanilla(blobs_split, softmax_model_fn, fast_schedule, num_workers=2,
                     worker_attack=RandomGradientAttack(), num_attacking_workers=3)

    def test_spread_is_zero_with_single_server(self, blobs_split, softmax_model_fn,
                                               fast_schedule):
        history = _vanilla(blobs_split, softmax_model_fn, fast_schedule,
                           num_workers=4).run(num_steps=3, eval_every=3)
        assert all(record.max_server_spread == 0.0 for record in history.records)


class TestSingleServerKrum:
    def test_tolerates_byzantine_workers_with_trusted_server(self, blobs_split,
                                                             softmax_model_fn,
                                                             fast_schedule):
        train, test = blobs_split
        trainer = SingleServerKrumTrainer(
            model_fn=softmax_model_fn, train_dataset=train, test_dataset=test,
            num_workers=9, num_byzantine_workers=2, batch_size=16,
            schedule=fast_schedule, seed=2,
            worker_attack=RandomGradientAttack(scale=100.0), num_attacking_workers=2)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_rejects_too_few_workers_for_declared_f(self, blobs_split,
                                                    softmax_model_fn, fast_schedule):
        train, _ = blobs_split
        with pytest.raises(ValueError):
            SingleServerKrumTrainer(model_fn=softmax_model_fn, train_dataset=train,
                                    num_workers=5, num_byzantine_workers=2,
                                    schedule=fast_schedule)

    def test_records_declared_f_in_config(self, blobs_split, softmax_model_fn,
                                          fast_schedule):
        train, _ = blobs_split
        trainer = SingleServerKrumTrainer(model_fn=softmax_model_fn,
                                          train_dataset=train, num_workers=9,
                                          num_byzantine_workers=2, batch_size=16,
                                          schedule=fast_schedule)
        assert trainer.history.config["declared_byzantine_workers"] == 2
        assert trainer.history.config["gradient_rule"] == "multi_krum"
