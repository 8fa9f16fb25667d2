"""Section 5.3 — the overhead breakdown (65 % runtime / ~30 % Byzantine)."""

import pytest

from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="module")
def breakdown(bench_base):
    """The one overhead row and Figure 3's batch-128 runs behind it."""
    (row,), histories = EXPERIMENTS["overhead"].run(bench_base, None, None)
    return row, histories


def test_overhead_breakdown_rows(breakdown):
    """Regenerate the two §5.3 percentages from time-to-accuracy measurements."""
    report, _ = breakdown

    print("\nSection 5.3 — overhead breakdown (paper: ~65 % / up to ~33 %)")
    for key, value in report.items():
        print(f"  {key:28s} {value:10.3f}")

    # Shape: leaving the optimised runtime costs the most; Byzantine
    # resilience adds a smaller, second overhead on top.
    assert report["time_vanilla_tf"] < report["time_guanyu_vanilla"]
    assert report["time_guanyu_vanilla"] < report["time_guanyu_byzantine"]
    assert 30.0 < report["runtime_overhead_percent"] < 130.0
    assert 5.0 < report["byzantine_overhead_percent"] < 80.0
    assert report["byzantine_overhead_percent"] < report["runtime_overhead_percent"]


def test_overhead_throughput_ordering(breakdown):
    """Throughput (updates/s) ordering mirrors the time overheads."""
    from repro.metrics import throughput_updates_per_second

    _, histories = breakdown
    throughput = {name: throughput_updates_per_second(history)
                  for name, history in histories.items()}
    print("\nThroughput (model updates per simulated second)")
    for name, value in throughput.items():
        print(f"  {name:22s} {value:8.2f}")
    assert throughput["vanilla_tf"] > throughput["guanyu_vanilla"]
    assert throughput["guanyu_vanilla"] > throughput["guanyu_f_workers_s1"]
