"""Tests for the empirical breakdown-point search."""

import json

import numpy as np

import pytest

from repro import cli
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.experiments import EXPERIMENTS
from repro.experiments.breakdown import (
    admissible_max_attackers,
    run_breakdown_search,
)


def _base(steps=8):
    return ScenarioSpec(num_steps=steps)


class TestBreakdownSearch:
    def test_pinned_resilience_boundary_table(self):
        """The boundary table is fixed for the pinned seed.

        The shape is the paper's: plain averaging breaks at the first
        omniscient attacker, the Byzantine-resilient median survives to
        the admissible maximum ``(n̄ - 3) / 3``.
        """
        rows, _ = run_breakdown_search(
            base=_base(),
            gars=("mean", "median"),
            adversaries=("omniscient_descent", "reversed_gradient"))
        boundary = [(row["gradient_rule"], row["adversary"],
                     row["breakdown_f"], row["admissible_f"],
                     row["survives_admissible_max"])
                    for row in rows]
        assert boundary == [
            ("mean", "omniscient_descent", 0, 2, False),
            ("mean", "reversed_gradient", 0, 2, False),
            ("median", "omniscient_descent", 2, 2, True),
            ("median", "reversed_gradient", 2, 2, True),
        ]

    def test_search_is_bit_reproducible(self):
        first, first_runs = run_breakdown_search(
            base=_base(), gars=("median",),
            adversaries=("omniscient_descent",))
        second, second_runs = run_breakdown_search(
            base=_base(), gars=("median",),
            adversaries=("omniscient_descent",))
        assert first == second
        assert {name: history.to_dict()
                for name, history in first_runs.items()} \
            == {name: history.to_dict()
                for name, history in second_runs.items()}

    def test_store_caches_every_evaluation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first, runs = run_breakdown_search(
            base=_base(), store=store, gars=("median",),
            adversaries=("reversed_gradient",))
        entries = len(store)
        assert entries == 1 + first[0]["evaluations"]  # baseline + attacked
        assert len(runs) == entries
        second, _ = run_breakdown_search(
            base=_base(), store=store, gars=("median",),
            adversaries=("reversed_gradient",))
        assert len(store) == entries  # everything came from cache
        assert first == second
        # Cached entries are queryable like any other campaign result.
        assert store.query(adversary="reversed_gradient")

    def test_unknown_gar_raises(self):
        with pytest.raises(KeyError, match="unknown aggregation rule"):
            run_breakdown_search(base=_base(), gars=("nope",))

    def test_server_side_adversary_rejected_with_clear_message(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="worker-side"):
            run_breakdown_search(base=_base(), store=store, gars=("median",),
                                 adversaries=("stale_model",))
        assert len(store) == 0  # rejected before the baseline trains

    def test_unknown_adversary_raises_before_any_training(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyError, match="unknown adversary"):
            run_breakdown_search(base=_base(), store=store, gars=("median",),
                                 adversaries=("omniscient_decsent",))
        assert len(store) == 0  # the typo fails before the baseline trains

    def test_label_flip_adversary_gets_workload_classes(self):
        # blobs has 4 classes; the attack's default num_classes=10 would
        # poison labels past the softmax range and crash the evaluation.
        rows, runs = run_breakdown_search(base=_base(), gars=("median",),
                                          adversaries=("label_flip",))
        assert rows[0]["adversary"] == "label_flip"
        assert all(np.isfinite(history.records[-1].train_loss)
                   for history in runs.values())

    def test_adversary_kwargs_override(self):
        rows, _ = run_breakdown_search(
            base=_base(), gars=("median",), adversaries=("collusion",),
            adversary_kwargs={"collusion": {"attack": "sign_flip"}})
        assert rows[0]["adversary"] == "collusion"
        assert rows[0]["breakdown_f"] >= 0

    def test_admissible_max_respects_rule_minimums(self):
        base = _base()
        # 9 workers: the cluster arithmetic admits f̄ ≤ 2; Bulyan needs
        # 4f̄ + 3 inputs, so it caps at f̄ = 1 ((9 - 3) / 4).
        assert admissible_max_attackers(base, "median") == 2
        assert admissible_max_attackers(base, "bulyan") == 1


class TestBreakdownCli:
    BASE = ["--steps", "3", "--workers-count", "9", "--servers-count", "6"]

    def test_breakdown_subcommand(self, capsys):
        assert EXPERIMENTS["breakdown"].run is run_breakdown_search
        code = cli.main([*self.BASE, "reproduce", "breakdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "breakdown_f" in out and "admissible_f" in out
        assert "mean" in out and "median" in out and "multi_krum" in out

    def test_breakdown_json_and_store(self, capsys, tmp_path):
        path = tmp_path / "breakdown.json"
        store = tmp_path / "store"
        code = cli.main([*self.BASE, "--json", str(path), "reproduce",
                         "breakdown", "--store", str(store)])
        assert code == 0
        payload = json.loads(path.read_text())["breakdown"]
        assert [row["gradient_rule"] for row in payload["rows"]] \
            == ["mean"] * 3 + ["median"] * 3 + ["multi_krum"] * 3
        assert len(ResultStore(store)) == len(payload["histories"]) > 0

    def test_breakdown_unknown_rule_exits_2(self, capsys):
        code = cli.main([*self.BASE, "reproduce", "breakdwon"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err
