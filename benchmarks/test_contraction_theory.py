"""Supplementary material — contraction and breakdown-point checks.

Reproduces the numerical backing of the proof: the coordinate-wise median's
contraction coefficient (Lemma 9.2.3), including the "dimension plays
against the adversary" observation, Multi-Krum's bounded deviation
(Lemma 9.2.2), and the 1/3 asynchronous breakdown point (Section 3.5).
"""

import numpy as np

from repro.theory import (
    estimate_contraction,
    max_byzantine_servers,
    max_byzantine_workers,
    multi_krum_deviation_ratio,
    optimal_asynchronous_breakdown,
)


def test_contraction_coefficient_vs_dimension():
    """m < 1 for every dimension, shrinking as the dimension grows."""
    dimensions = (2, 10, 50, 200)

    coefficients = {d: estimate_contraction(num_correct=7, num_byzantine=2,
                                            dimension=d, num_trials=80, seed=0)
                    for d in dimensions}
    print("\nMedian contraction coefficient m (Lemma 9.2.3)")
    for dimension, value in coefficients.items():
        print(f"  d={dimension:4d}   m={value:.4f}")
    assert all(0.0 <= m < 1.0 for m in coefficients.values())
    assert coefficients[200] <= coefficients[2] + 0.05


def test_multi_krum_bounded_deviation():
    """Lemma 9.2.2: deviation bounded regardless of the attack magnitude."""
    rng = np.random.default_rng(0)
    correct = rng.normal(size=(13, 40))

    ratios = {scale: multi_krum_deviation_ratio(
                  correct, rng.normal(0.0, scale, size=(5, 40)), num_byzantine=5)
              for scale in (1.0, 1e2, 1e4, 1e6)}
    print("\nMulti-Krum deviation ratio vs. attack magnitude (Lemma 9.2.2)")
    for scale, ratio in ratios.items():
        print(f"  scale={scale:10.0f}   ratio={ratio:.4f}")
    values = np.array(list(ratios.values()))
    assert np.all(values < 20.0)
    # The bound is magnitude-independent: huge attacks do not inflate it.
    assert values.max() < 10 * values.min() + 1.0


def test_breakdown_point_arithmetic():
    """Section 3.5: 1/3 optimal asynchronous breakdown, n >= 3f + 3."""
    values = {
        "breakdown": optimal_asynchronous_breakdown(),
        "max_f_servers_6": max_byzantine_servers(6),
        "max_f_workers_18": max_byzantine_workers(18),
    }
    print("\nBreakdown-point arithmetic:", values)
    assert values["breakdown"] == 1.0 / 3.0
    assert values["max_f_servers_6"] == 1    # paper: 1 Byzantine server of 6
    assert values["max_f_workers_18"] == 5   # paper: 5 Byzantine workers of 18
