#!/usr/bin/env python
"""Run GuanYu with real threads: one thread per server and per worker.

The other examples drive the protocol over the deterministic network
simulator; this one uses the thread-based runtime, where delivery order is
decided by genuine scheduling non-determinism plus random jitter — the
closest offline analogue of the paper's gRPC deployment.  A straggler worker
and fully Byzantine nodes are thrown in to show that quorums keep the system
live and safe.

Run with::

    python examples/threaded_cluster.py
"""

import time

from repro.adversary import CorruptedModelAttack, RandomGradientAttack
from repro.core import ClusterConfig
from repro.data import make_blobs_dataset
from repro.metrics import evaluate_accuracy
from repro.nn import build_model
from repro.nn.schedules import ConstantSchedule
from repro.runtime.threads import ThreadedClusterRuntime


def main():
    dataset = make_blobs_dataset(num_samples=1200, num_classes=4, num_features=8,
                                 cluster_std=1.0, seed=3)
    train, test = dataset.split(0.85, seed=3)
    model_fn = lambda: build_model("softmax", in_features=8, num_classes=4, seed=3)

    config = ClusterConfig(num_servers=6, num_workers=9,
                           num_byzantine_servers=1, num_byzantine_workers=2)
    print("Cluster:", config.as_dict())
    print("Launching one thread per node "
          f"({config.num_servers} servers + {config.num_workers} workers), "
          "with 2 attacking workers, 1 attacking server and 1 straggler ...")

    runtime = ThreadedClusterRuntime(
        config=config,
        model_fn=model_fn,
        train_dataset=train,
        batch_size=32,
        schedule=ConstantSchedule(0.05),
        worker_attack=RandomGradientAttack(scale=100.0), num_attacking_workers=2,
        server_attack=CorruptedModelAttack(noise_scale=100.0),
        num_attacking_servers=1,
        jitter=0.002,                       # up to 2 ms random delivery delay
        straggler_sleep={"worker/0": 0.01},  # worker/0 is 10 ms slow per step
        seed=3,
    )

    started = time.perf_counter()
    history = runtime.run(num_steps=40)
    elapsed = time.perf_counter() - started

    model = model_fn()
    model.set_flat_parameters(runtime.global_parameters())
    accuracy = evaluate_accuracy(model, test)

    print(f"\nRan {len(history)} steps in {elapsed:.2f}s of real wall-clock time "
          f"({runtime.messages_sent} messages exchanged).")
    print(f"Final test accuracy (median of correct servers): {accuracy:.3f}")
    final_spread = history.records[-1].max_server_spread
    print(f"Final spread between correct server replicas:    {final_spread:.4f}")
    print("\nDespite real concurrency, a straggler and active Byzantine nodes, the "
          "correct replicas converge and agree — the contraction property at work.")


if __name__ == "__main__":
    main()
