"""Table 2 — alignment of the parameter-difference vectors (Assumption 2).

The paper records, every 20 steps late in training, the two largest norms of
parameter-difference vectors between correct servers and cos(φ) between
those two difference vectors, finding values close to 1.
"""

import numpy as np

from repro.experiments import run_table2


def _print_rows(samples):
    print("\nTable 2 — parameter-vector alignment")
    print("  step   cos(phi)   max diff1   max diff2")
    for sample in samples:
        print(f"  {sample.step:5d}   {sample.cos_phi:8.4f}   "
              f"{sample.max_diff_1:9.5f}   {sample.max_diff_2:9.5f}")


def test_table2_alignment_close_to_one(bench_scale):
    """cos(φ) between the two largest difference vectors stays close to 1."""
    samples = run_table2(scale=bench_scale, interval=10)
    _print_rows(samples)
    assert len(samples) >= 3
    cosines = np.array([s.cos_phi for s in samples if not np.isnan(s.cos_phi)])
    assert cosines.size >= 3
    # The paper's Table 2 reports values around 0.98-0.99.
    assert np.median(cosines) > 0.8
    assert cosines[-1] > 0.8


def test_table2_alignment_survives_server_attack(bench_scale):
    """The alignment measurement also holds with an attacking Byzantine server."""
    samples = run_table2(scale=bench_scale, interval=10, attack_servers=True)
    _print_rows(samples)
    norms = np.array([s.max_diff_1 for s in samples])
    # The Byzantine server cannot blow the correct servers apart.
    assert np.all(norms < 10.0)
