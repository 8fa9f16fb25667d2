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
        print("  {step:5d}   {cos_phi:8.4f}   {max_diff1:9.5f}   "
              "{max_diff2:9.5f}".format(**sample))


def test_table2_alignment_close_to_one(bench_base):
    """cos(φ) between the two largest difference vectors stays close to 1."""
    samples, _ = run_table2(base=bench_base, interval=10)
    _print_rows(samples)
    assert len(samples) >= 3
    cosines = np.array([s["cos_phi"] for s in samples
                        if not np.isnan(s["cos_phi"])])
    assert cosines.size >= 3
    # The paper's Table 2 reports values around 0.98-0.99.
    assert np.median(cosines) > 0.8
    assert cosines[-1] > 0.8


def test_table2_alignment_survives_server_attack(bench_base):
    """The alignment measurement also holds with an attacking Byzantine server."""
    samples, _ = run_table2(base=bench_base.replace(server_attack={
        "name": "corrupted_model", "kwargs": {"noise_scale": 50.0}}),
        interval=10)
    _print_rows(samples)
    norms = np.array([s["max_diff1"] for s in samples])
    # The Byzantine server cannot blow the correct servers apart.
    assert np.all(norms < 10.0)
