#!/usr/bin/env python
"""Quickstart: train a model with GuanYu on a synthetic task in under a minute.

This example builds the smallest meaningful GuanYu deployment — 4 replicated
parameter servers and 6 workers, none declared Byzantine — and trains a
linear classifier on a Gaussian-blobs task over the simulated asynchronous
network.  It then repeats the run with Byzantine nodes declared *and*
actively attacking, to show that accuracy is preserved.

Run with::

    python examples/quickstart.py
"""

from repro import ClusterConfig, GuanYuTrainer
from repro.adversary import EquivocationAttack, RandomGradientAttack
from repro.data import make_blobs_dataset
from repro.nn import build_model
from repro.nn.schedules import ConstantSchedule


def print_history(title, history):
    print(f"\n=== {title} ===")
    print(f"{'step':>6} {'sim time (s)':>14} {'loss':>8} {'accuracy':>9}")
    for record in history.records:
        if record.test_accuracy is None:
            continue
        print(f"{record.step:>6} {record.simulated_time:>14.3f} "
              f"{record.train_loss:>8.3f} {record.test_accuracy:>9.3f}")
    print(f"final accuracy: {history.final_accuracy():.3f}   "
          f"total simulated time: {history.total_time():.2f}s")


def main():
    # A small, learnable classification task (stand-in for CIFAR-10).
    dataset = make_blobs_dataset(num_samples=1200, num_classes=4, num_features=8,
                                 cluster_std=1.0, seed=7)
    train, test = dataset.split(0.85, seed=7)

    # Every node builds the same model from the same seed (GuanYu's θ_0).
    model_fn = lambda: build_model("softmax", in_features=8, num_classes=4, seed=7)
    schedule = ConstantSchedule(0.05)

    # ---------------------------------------------------------------- #
    # 1. A non-Byzantine deployment: 4 servers, 6 workers.
    # ---------------------------------------------------------------- #
    config = ClusterConfig(num_servers=4, num_workers=6)
    trainer = GuanYuTrainer(config=config, model_fn=model_fn, train_dataset=train,
                            test_dataset=test, batch_size=32, schedule=schedule,
                            seed=7, label="guanyu-clean")
    history = trainer.run(num_steps=80, eval_every=10)
    print_history("GuanYu, no Byzantine nodes", history)

    # ---------------------------------------------------------------- #
    # 2. The same task with Byzantine workers AND a Byzantine server.
    # ---------------------------------------------------------------- #
    config = ClusterConfig(num_servers=6, num_workers=9,
                           num_byzantine_servers=1, num_byzantine_workers=2)
    trainer = GuanYuTrainer(
        config=config, model_fn=model_fn, train_dataset=train, test_dataset=test,
        batch_size=32, schedule=schedule, seed=7, label="guanyu-attacked",
        worker_attack=RandomGradientAttack(scale=100.0), num_attacking_workers=2,
        server_attack=EquivocationAttack(magnitude=50.0), num_attacking_servers=1)
    attacked = trainer.run(num_steps=80, eval_every=10)
    print_history("GuanYu, 2 Byzantine workers + 1 Byzantine server", attacked)

    print("\nDespite the attack, accuracy stays within "
          f"{abs(history.final_accuracy() - attacked.final_accuracy()):.3f} "
          "of the clean run.")


if __name__ == "__main__":
    main()
