"""Integration tests for the GuanYu trainer (the paper's core claims)."""

import numpy as np
import pytest

from repro import ClusterConfig, GuanYuTrainer
from repro.adversary import (
    CorruptedModelAttack,
    EquivocationAttack,
    RandomGradientAttack,
    SilentServer,
    SilentWorker,
)
from repro.network.delays import ConstantDelay, LogNormalDelay
from repro.runtime.cost import INSTANT


def _guanyu(blobs_split, model_fn, schedule, *, servers=6, workers=9,
            f_servers=1, f_workers=2, seed=3, **kwargs):
    train, test = blobs_split
    config = ClusterConfig(num_servers=servers, num_workers=workers,
                           num_byzantine_servers=f_servers,
                           num_byzantine_workers=f_workers)
    return GuanYuTrainer(config=config, model_fn=model_fn, train_dataset=train,
                         test_dataset=test, batch_size=16, schedule=schedule,
                         seed=seed, **kwargs)


class TestBasicProtocol:
    def test_history_has_one_record_per_step(self, blobs_split, softmax_model_fn,
                                              fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        history = trainer.run(num_steps=5, eval_every=2)
        assert len(history) == 5
        assert [r.step for r in history.records] == list(range(5))

    def test_simulated_time_strictly_increases(self, blobs_split, softmax_model_fn,
                                                fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        history = trainer.run(num_steps=5, eval_every=5)
        times = history.times()
        assert np.all(np.diff(times) > 0)

    def test_correct_servers_start_identical(self, blobs_split, softmax_model_fn,
                                              fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        params = [s.current_parameters() for s in trainer.correct_servers]
        for vector in params[1:]:
            assert np.allclose(vector, params[0])

    def test_invalid_run_arguments(self, blobs_split, softmax_model_fn, fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        with pytest.raises(ValueError):
            trainer.run(num_steps=0)

    def test_attack_count_validation(self, blobs_split, softmax_model_fn,
                                     fast_schedule):
        with pytest.raises(ValueError):
            _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                    worker_attack=RandomGradientAttack(), num_attacking_workers=5)
        with pytest.raises(ValueError):
            _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                    num_attacking_workers=1)

    def test_deterministic_given_seed(self, blobs_split, softmax_model_fn,
                                      fast_schedule):
        a = _guanyu(blobs_split, softmax_model_fn, fast_schedule, seed=5)
        b = _guanyu(blobs_split, softmax_model_fn, fast_schedule, seed=5)
        ha = a.run(num_steps=4, eval_every=4)
        hb = b.run(num_steps=4, eval_every=4)
        assert np.allclose(a.global_parameters(), b.global_parameters())
        assert np.allclose(ha.times(), hb.times())

    def test_one_step_sends_three_scatters(self, blobs_split, softmax_model_fn,
                                           fast_schedule):
        # Servers scatter to the n̄ workers and to the n servers, workers to
        # the n servers; a server's phase-3 message to itself has no delay.
        delay = 0.25
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          delay_model=ConstantDelay(
                              delay, bandwidth_bytes_per_second=float("inf")))
        trainer.step(0)
        n, n_bar = 6, 9
        sent = n * n_bar + n_bar * n + n * n
        assert trainer.network.stats.messages_sent == sent
        assert trainer.network.stats.total_delay == delay * (sent - n)


class TestConvergence:
    def test_converges_without_byzantine_nodes(self, blobs_split, softmax_model_fn,
                                                fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          f_servers=0, f_workers=0, servers=3, workers=6)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_converges_with_declared_but_inactive_byzantine(self, blobs_split,
                                                            softmax_model_fn,
                                                            fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_tolerates_byzantine_workers(self, blobs_split, softmax_model_fn,
                                         fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          worker_attack=RandomGradientAttack(scale=100.0),
                          num_attacking_workers=2)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_tolerates_byzantine_server_equivocation(self, blobs_split,
                                                     softmax_model_fn,
                                                     fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          server_attack=EquivocationAttack(magnitude=50.0),
                          num_attacking_servers=1)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_tolerates_byzantine_workers_and_servers_together(self, blobs_split,
                                                              softmax_model_fn,
                                                              fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          worker_attack=RandomGradientAttack(scale=100.0),
                          num_attacking_workers=2,
                          server_attack=CorruptedModelAttack(noise_scale=100.0),
                          num_attacking_servers=1)
        history = trainer.run(num_steps=60, eval_every=20)
        assert history.final_accuracy() > 0.85

    def test_tolerates_silent_nodes(self, blobs_split, softmax_model_fn,
                                    fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          worker_attack=SilentWorker(), num_attacking_workers=2,
                          server_attack=SilentServer(), num_attacking_servers=1)
        history = trainer.run(num_steps=40, eval_every=20)
        assert history.final_accuracy() > 0.8

    def test_asynchronous_heavy_tailed_delays_do_not_block_progress(
            self, blobs_split, softmax_model_fn, fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          delay_model=LogNormalDelay(median=1e-3, sigma=2.0))
        history = trainer.run(num_steps=30, eval_every=30)
        assert len(history) == 30
        assert history.final_accuracy() > 0.6


class TestContractionBehaviour:
    def test_server_spread_stays_bounded_under_attack(self, blobs_split,
                                                      softmax_model_fn,
                                                      fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule,
                          server_attack=CorruptedModelAttack(noise_scale=100.0),
                          num_attacking_servers=1, cost_model=INSTANT)
        history = trainer.run(num_steps=40, eval_every=40)
        spreads = history.server_spreads()
        # The corrupted server sends models with noise of norm ~100·sqrt(d);
        # correct servers must never drift anywhere near that.
        assert np.nanmax(spreads) < 5.0

    def test_phase_durations_recorded_and_positive(self, blobs_split,
                                                   softmax_model_fn, fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        history = trainer.run(num_steps=3, eval_every=3)
        for record in history.records:
            assert record.phase_durations is not None
            assert set(record.phase_durations) == {"phase1_models_and_gradients",
                                                   "phase2_server_update",
                                                   "phase3_server_exchange"}
            assert all(value > 0 for value in record.phase_durations.values())

    def test_global_parameters_is_median_of_correct_servers(self, blobs_split,
                                                            softmax_model_fn,
                                                            fast_schedule):
        trainer = _guanyu(blobs_split, softmax_model_fn, fast_schedule)
        trainer.run(num_steps=3, eval_every=3)
        stacked = np.stack([s.current_parameters() for s in trainer.correct_servers])
        assert np.allclose(trainer.global_parameters(), np.median(stacked, axis=0))


class TestQuorumEffects:
    def test_larger_gradient_quorum_slows_each_step(self, blobs_split,
                                                    softmax_model_fn, fast_schedule):
        """Paper §5.3: larger quorums mean more waiting per update."""
        train, test = blobs_split
        small_q = ClusterConfig(num_servers=3, num_workers=12,
                                gradient_quorum=3)
        large_q = ClusterConfig(num_servers=3, num_workers=12,
                                gradient_quorum=12)
        t_small = GuanYuTrainer(config=small_q, model_fn=softmax_model_fn,
                                train_dataset=train, batch_size=16,
                                schedule=fast_schedule, seed=0)
        t_large = GuanYuTrainer(config=large_q, model_fn=softmax_model_fn,
                                train_dataset=train, batch_size=16,
                                schedule=fast_schedule, seed=0)
        h_small = t_small.run(num_steps=10, eval_every=10)
        h_large = t_large.run(num_steps=10, eval_every=10)
        assert h_large.total_time() > h_small.total_time()
