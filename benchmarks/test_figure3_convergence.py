"""Figure 3 — overhead of GuanYu in a non-Byzantine environment.

Four panels: accuracy vs. model updates and accuracy vs. time, for
mini-batch sizes 128 (a, b) and 32 (c, d).  The assertions check the shape
reported by the paper:

* per *update*, every system converges at a comparable rate and declaring
  Byzantine nodes costs nothing (Fig. 3a/3c);
* per unit of *time*, vanilla TF is fastest, vanilla GuanYu pays the
  external-communication overhead, and the Byzantine-declared deployments
  pay an additional resilience overhead (Fig. 3b/3d).
"""

import pytest

from repro.experiments import run_figure3
from repro.metrics import time_to_accuracy
from repro.metrics.throughput import steps_to_accuracy


def _print_summary(result, panel):
    print(f"\nFigure 3({panel}) — batch size {result.batch_size}")
    for row in result.accuracy_summary():
        print("  {system:22s} final_acc={final_accuracy:.3f} "
              "time={total_time:8.2f}s throughput={throughput:6.2f} upd/s".format(**row))


@pytest.fixture(scope="module")
def figure3_batch128(bench_scale):
    return run_figure3(scale=bench_scale, batch_size=128)


@pytest.fixture(scope="module")
def figure3_batch32(bench_scale):
    return run_figure3(scale=bench_scale, batch_size=32)


class TestFigure3Batch128:
    def test_fig3a_accuracy_vs_updates(self, figure3_batch128):
        """Fig. 3a: all systems reach comparable accuracy per model update."""
        result = figure3_batch128
        _print_summary(result, "a")
        accuracies = {name: h.final_accuracy() for name, h in result.histories.items()}
        best = max(accuracies.values())
        assert best > 0.9
        # Byzantine-declared GuanYu keeps the same per-update convergence.
        assert accuracies["guanyu_f_workers_s1"] > best - 0.1
        target = result.reference_accuracy()
        steps_vanilla = steps_to_accuracy(result.histories["vanilla_tf"], target)
        steps_guanyu = steps_to_accuracy(result.histories["guanyu_f_workers_s1"], target)
        assert steps_guanyu is not None and steps_vanilla is not None
        assert steps_guanyu <= 3 * steps_vanilla

    def test_fig3b_accuracy_vs_time(self, figure3_batch128):
        """Fig. 3b: vanilla TF fastest, then vanilla GuanYu, then Byzantine GuanYu."""
        result = figure3_batch128
        _print_summary(result, "b")
        target = result.reference_accuracy()
        t_tf = time_to_accuracy(result.histories["vanilla_tf"], target)
        t_vanilla_guanyu = time_to_accuracy(result.histories["guanyu_vanilla"], target)
        t_byzantine = time_to_accuracy(result.histories["guanyu_f_workers_s1"], target)
        assert t_tf < t_vanilla_guanyu < t_byzantine
        # Paper: ~65 % runtime overhead, up to ~33 % Byzantine-resilience cost.
        runtime_overhead = (t_vanilla_guanyu - t_tf) / t_tf
        byzantine_overhead = (t_byzantine - t_vanilla_guanyu) / t_vanilla_guanyu
        assert 0.3 < runtime_overhead < 1.3
        assert 0.05 < byzantine_overhead < 0.8


class TestFigure3Batch32:
    def test_fig3c_accuracy_vs_updates(self, figure3_batch32):
        """Fig. 3c: same per-update story with the smaller mini-batch."""
        result = figure3_batch32
        _print_summary(result, "c")
        accuracies = {name: h.final_accuracy() for name, h in result.histories.items()}
        assert max(accuracies.values()) > 0.9
        assert accuracies["guanyu_f_workers_s1"] > max(accuracies.values()) - 0.1

    def test_fig3d_accuracy_vs_time(self, figure3_batch32):
        """Fig. 3d: the smaller batch makes the communication overheads starker."""
        result = figure3_batch32
        _print_summary(result, "d")
        target = result.reference_accuracy()
        t_tf = time_to_accuracy(result.histories["vanilla_tf"], target)
        t_vanilla_guanyu = time_to_accuracy(result.histories["guanyu_vanilla"], target)
        t_byzantine = time_to_accuracy(result.histories["guanyu_f_workers_s1"], target)
        assert t_tf < t_vanilla_guanyu < t_byzantine

    def test_fig3d_overheads_larger_than_batch128(self, figure3_batch32,
                                                  figure3_batch128):
        """The relative overhead grows when gradient computation shrinks."""
        def ratio(result):
            target = result.reference_accuracy()
            t_tf = time_to_accuracy(result.histories["vanilla_tf"], target)
            t_guanyu = time_to_accuracy(result.histories["guanyu_vanilla"], target)
            return t_guanyu / t_tf

        assert ratio(figure3_batch32) > ratio(figure3_batch128)
