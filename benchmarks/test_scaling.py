"""Scaling study — cluster size vs. throughput (extension benchmark).

Not a paper figure, but the natural systems question for a replicated
parameter-server design: how does throughput evolve as workers are added
(and the declared Byzantine headroom with them)?
"""

from repro.experiments import run_scaling_study


def test_scaling_with_worker_count(bench_scale):
    rows = run_scaling_study(scale=bench_scale, worker_counts=(6, 9, 12, 18),
                             num_steps=15)
    print("\nScaling study — workers vs. throughput")
    for row in rows:
        print("  workers={num_workers:3d}  f̄={declared_byzantine_workers}  "
              "throughput={throughput:7.2f} upd/s  acc={final_accuracy:.3f}"
              .format(**row))

    assert len(rows) == 4
    assert all(row["throughput"] > 0 for row in rows)
    # Quorums are sized from the declared f̄, so adding workers (and headroom)
    # never brings the system to a halt: throughput stays within one order of
    # magnitude across a 3x change in cluster size.
    throughputs = [row["throughput"] for row in rows]
    assert max(throughputs) < 10 * min(throughputs)
