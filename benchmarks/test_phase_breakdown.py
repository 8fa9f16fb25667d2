"""Where does a GuanYu step spend its time? (§5.3 overhead attribution)

The paper attributes the Byzantine-resilience overhead to (1) server
replication and quorum waiting, (2) robust aggregation at the servers, and
(3) the extra server-to-server exchange at the end of each step.  This
benchmark reports the simulated time spent in each of the three protocol
phases and checks the expected ordering.
"""

from repro.experiments import run_figure3


def test_phase_time_breakdown(bench_scale):
    result = run_figure3(scale=bench_scale, batch_size=128,
                         systems=["guanyu_f_workers_s1"])
    history = result.histories["guanyu_f_workers_s1"]
    breakdown = history.mean_phase_durations()

    print("\nPer-phase time breakdown of one GuanYu step (simulated seconds)")
    total = sum(breakdown.values())
    for phase, duration in breakdown.items():
        print(f"  {phase:32s} {duration:8.4f}s  ({100 * duration / total:5.1f} %)")

    assert set(breakdown) == {"phase1_models_and_gradients",
                              "phase2_server_update",
                              "phase3_server_exchange"}
    assert all(duration > 0 for duration in breakdown.values())
    # Phase 1 carries the gradient computation, so it dominates; the final
    # server-to-server exchange is the cheapest of the three.
    assert breakdown["phase1_models_and_gradients"] > \
        breakdown["phase3_server_exchange"]
    # The sum of the phase means tracks the per-step time (loose bound: the
    # phases are measured on node-average clocks, the step on the max clock).
    mean_step_time = history.total_time() / history.total_steps()
    assert 0.5 * mean_step_time < total < 1.5 * mean_step_time
