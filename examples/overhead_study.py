#!/usr/bin/env python
"""Figure 3 / Section 5.3 story: what does Byzantine resilience cost?

Runs the five systems of the paper's Figure 3 (vanilla TF, vanilla GuanYu,
and three GuanYu deployments with increasing declared Byzantine counts) in a
non-Byzantine environment, then prints the throughput table and the two
overhead percentages of Section 5.3.

Run with::

    python examples/overhead_study.py [batch_size]
"""

import sys

from repro.campaign import ScenarioSpec
from repro.experiments import overhead_rows, run_figure3


def main():
    batch_size = int(sys.argv[1]) if len(sys.argv) > 1 else 128

    base = ScenarioSpec(dataset_size=2400,  # every shard holds a full batch
                        num_steps=60, eval_every=10, batch_size=batch_size)

    print(f"Running the Figure 3 comparison with mini-batch size {batch_size} ...")
    rows, histories = run_figure3(base=base)

    print(f"\n{'system':<24} {'final acc':>10} {'sim time (s)':>14} "
          f"{'updates/s':>11} {'time to target':>15}")
    for row in rows:
        time_to_target = row["time_to_target"]
        rendered = f"{time_to_target:.2f}s" if time_to_target is not None else "never"
        print(f"{row['system']:<24} {row['final_accuracy']:>10.3f} "
              f"{row['total_time']:>14.2f} {row['throughput']:>11.2f} "
              f"{rendered:>15}")

    (report,) = overhead_rows(histories)
    print("\nSection 5.3 overhead breakdown "
          "(paper: ~65 % runtime, up to ~33 % Byzantine resilience):")
    print(f"  overhead of leaving the optimised runtime : "
          f"{report['runtime_overhead_percent']:6.1f} %")
    print(f"  overhead of Byzantine resilience          : "
          f"{report['byzantine_overhead_percent']:6.1f} %")
    print("\nNote: absolute times come from the simulated clock (the model is "
          "billed at the paper's 1.75 M parameters); only the relative shape "
          "is meaningful.")


if __name__ == "__main__":
    main()
