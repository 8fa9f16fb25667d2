#!/usr/bin/env python
"""A network partition opens mid-training, heals, and the quorums survive.

One parameter server (``ps/0``) is cut away from the rest of the cluster a
third of the way through training and reconnected later.  While the
partition is active the isolated replica stalls with stale parameters and
the inter-server spread grows; the moment it heals, the phase-3
coordinate-wise median pulls the stale replica back — the contraction the
paper's safety argument rests on, now visible step by step.

The same declarative schedule drives the simulated runtime here; set
``"runtime": "threaded"`` in a campaign spec to replay it under real
threads (see docs/faults.md).

Run with::

    PYTHONPATH=src python examples/partition_demo.py
"""

from repro.core import ClusterConfig, GuanYuTrainer
from repro.data import make_blobs_dataset
from repro.faults import FaultSchedule
from repro.metrics import evaluate_accuracy
from repro.nn import build_model
from repro.nn.schedules import ConstantSchedule

NUM_STEPS = 30
PARTITION_STEP = 10
HEAL_STEP = 20


def main():
    dataset = make_blobs_dataset(num_samples=1200, num_classes=4,
                                 num_features=8, cluster_std=1.0, seed=3)
    train, test = dataset.split(0.85, seed=3)
    model_fn = lambda: build_model("softmax", in_features=8, num_classes=4,
                                   seed=3)

    config = ClusterConfig(num_servers=6, num_workers=9,
                           num_byzantine_servers=1, num_byzantine_workers=2)
    isolated = "ps/0"
    rest = [node for node in config.server_ids() + config.worker_ids()
            if node != isolated]
    schedule = FaultSchedule.partition_window(
        groups=[[isolated], rest],
        partition_step=PARTITION_STEP, heal_step=HEAL_STEP)

    print(f"Cluster: {config.as_dict()}")
    print(f"Partition: {isolated} cut off during steps "
          f"[{PARTITION_STEP}, {HEAL_STEP}), quorums q={config.model_quorum} "
          f"keep the other {config.num_servers - 1} servers live.\n")

    trainer = GuanYuTrainer(
        config=config, model_fn=model_fn, train_dataset=train,
        test_dataset=test, batch_size=32, schedule=ConstantSchedule(0.05),
        seed=3, fault_schedule=schedule)
    history = trainer.run(num_steps=NUM_STEPS, eval_every=10)

    print("step | spread   | phase")
    print("-----+----------+---------------------------")
    for record in history.records:
        if record.step < PARTITION_STEP:
            phase = "healthy"
        elif record.step < HEAL_STEP:
            phase = "PARTITIONED (replica stalls)"
        else:
            phase = "healed (median re-contracts)"
        print(f"{record.step:4d} | {record.max_server_spread:8.4f} | {phase}")

    model = model_fn()
    model.set_flat_parameters(trainer.global_parameters())
    accuracy = evaluate_accuracy(model, test)
    stats = trainer.network.stats
    print(f"\nmessages blocked by the partition: {stats.messages_blocked}")
    print(f"final inter-server spread: "
          f"{history.records[-1].max_server_spread:.4f}")
    print(f"final top-1 accuracy: {accuracy:.3f}")
    assert accuracy > 0.8, "training should survive the partition"
    print("\nThe partition slowed nothing but the isolated replica: "
          "quorums kept the remaining servers live, and the phase-3 median "
          "absorbed the stale model on reconnection.")


if __name__ == "__main__":
    main()
