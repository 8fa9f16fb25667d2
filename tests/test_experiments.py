"""Tests for the experiment harnesses (fast, tiny scales).

The full-size shape assertions live in ``benchmarks/``; these tests check
that every harness runs end-to-end, returns the expected structure, and
respects its parameters.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import run
from repro.campaign import ResultStore, ScenarioSpec
from repro.experiments import (
    EXPERIMENTS,
    build_workload,
    make_model_factory,
    overhead_rows,
    paper_like,
    run_attack_sweep,
    run_crash_quorum_study,
    run_figure3,
    run_figure4,
    run_gar_ablation,
    run_heterogeneity_study,
    run_quorum_ablation,
    run_scaling_study,
    run_table2,
)
from repro.experiments.figure3 import FIGURE3_SYSTEMS
from repro.obs.tracer import Tracer, use_tracer
from repro.testing import sequential_history


@pytest.fixture(scope="module")
def tiny_base():
    """A deliberately tiny base so every harness finishes in a few seconds."""
    return ScenarioSpec(num_steps=8, eval_every=4, dataset_size=600,
                        num_workers=6, num_servers=3,
                        declared_byzantine_workers=1,
                        declared_byzantine_servers=0)


class TestScaleAndWorkload:
    def test_small_and_paper_like_presets_valid(self):
        for spec in (ScenarioSpec(), paper_like()):
            assert spec.num_workers >= 3 * spec.declared_byzantine_workers + 3
            assert spec.num_servers >= 3 * spec.declared_byzantine_servers + 3

    def test_build_workload_blobs_and_images(self):
        spec = ScenarioSpec()
        train, test, in_features, num_classes = build_workload(spec)
        assert len(train) > len(test)
        assert in_features == 8 and num_classes == 4

        spec = spec.replace(dataset="images", dataset_size=80)
        train, test, in_features, num_classes = build_workload(spec)
        assert in_features == 3 * spec.image_size ** 2
        assert num_classes == 10

    def test_unknown_dataset_and_model_raise(self):
        with pytest.raises(ValueError):
            build_workload(ScenarioSpec(dataset="imagenet"))
        with pytest.raises(ValueError):
            make_model_factory(ScenarioSpec(model="transformer"), 8, 4)

    def test_model_factory_is_deterministic(self):
        factory = make_model_factory(ScenarioSpec(), 8, 4)
        assert np.allclose(factory().get_flat_parameters(),
                           factory().get_flat_parameters())


class TestTable1:
    def test_report_structure(self):
        rows, histories = EXPERIMENTS["table1"].run(ScenarioSpec(), None, None)
        assert rows[-1]["parameters"] == pytest.approx(1.75e6, rel=0.02)
        assert len(rows) == 9 and rows[-1]["layer"] == "Total"
        assert histories == {}


class TestTable:
    """Every entry of the one experiment table."""

    def test_every_entry_has_a_title_a_runner_and_chart_axes(self):
        for name, experiment in EXPERIMENTS.items():
            assert experiment.title and callable(experiment.run), name
            assert set(experiment.charts) <= {"steps", "time"}, name

    def test_figures_chart_their_histories(self):
        assert EXPERIMENTS["figure3"].charts == ("steps", "time")
        assert EXPERIMENTS["figure4"].charts == ("steps",)


class TestFigure3:
    def test_runs_all_systems(self, tiny_base):
        rows, histories = run_figure3(base=tiny_base)
        assert set(histories) == set(FIGURE3_SYSTEMS)
        assert [row["system"] for row in rows] == list(FIGURE3_SYSTEMS)
        assert all(len(history) == tiny_base.num_steps
                   for history in histories.values())

    def test_subset_of_systems(self, tiny_base):
        _, histories = run_figure3(base=tiny_base, systems=["vanilla_tf"])
        assert list(histories) == ["vanilla_tf"]

    def test_both_batch_sizes_as_panels(self, tiny_base):
        rows, histories = EXPERIMENTS["figure3"].run(
            tiny_base.replace(num_steps=2, eval_every=2), None, None)
        assert [row["batch_size"] for row in rows] == [128] * 5 + [32] * 5
        assert list(histories)[0] == "batch=128/vanilla_tf"
        assert list(histories)[-1] == "batch=32/guanyu_f_workers_s1"

    def test_summary_rows_have_expected_keys(self, tiny_base):
        rows, _ = run_figure3(base=tiny_base, systems=["vanilla_tf",
                                                       "guanyu_vanilla"])
        assert {"system", "final_accuracy", "throughput",
                "time_to_target"} <= set(rows[0])


class TestFigure4AndOverhead:
    def test_figure4_structure(self, tiny_base):
        rows, histories = run_figure4(base=tiny_base)
        assert set(histories) == {"vanilla_tf", "vanilla_tf_byzantine",
                                  "guanyu_byzantine"}
        assert all(0.0 <= row["final_accuracy"] <= 1.0 for row in rows)

    def test_figure4_attacks_come_from_the_base(self, tiny_base):
        base = tiny_base.replace(worker_attack="sign_flip",
                                 num_attacking_workers=1)
        _, histories = run_figure4(base=base)
        assert histories["vanilla_tf"].config["worker_attack"] is None
        for name in ("vanilla_tf_byzantine", "guanyu_byzantine"):
            assert histories[name].config["worker_attack"] == "sign_flip"

    def test_overhead_report_requires_needed_systems(self, tiny_base):
        _, histories = run_figure3(base=tiny_base, systems=["vanilla_tf"])
        with pytest.raises(ValueError):
            overhead_rows(histories)

    def test_overhead_report_from_base(self, tiny_base):
        (row,), histories = EXPERIMENTS["overhead"].run(tiny_base, None, None)
        assert row["time_vanilla_tf"] > 0
        assert row["time_guanyu_byzantine"] > 0
        assert all(history.config["batch_size"] == 128
                   for history in histories.values())

    def test_overhead_shares_figure3_runs_through_the_store(self, tiny_base,
                                                             tmp_path):
        store = ResultStore(tmp_path / "store")
        base = tiny_base.replace(num_steps=2, eval_every=2)
        EXPERIMENTS["figure3"].run(base, store, None)
        entries = len(store)
        EXPERIMENTS["overhead"].run(base, store, None)
        assert len(store) == entries


class TestTable2:
    def test_sampling_interval_and_warmup(self, tiny_base):
        base = tiny_base.replace(num_steps=12, declared_byzantine_servers=0,
                                 num_servers=3)
        rows, _ = run_table2(base=base, interval=2, warmup_fraction=0.5)
        assert all(row["step"] >= 6 for row in rows)
        assert len(rows) >= 2


class TestAblations:
    def test_gar_ablation_subset(self, tiny_base):
        rows, histories = run_gar_ablation(base=tiny_base,
                                           rules=("median", "mean"))
        assert set(histories) == {"median", "mean"}
        assert [row["system"] for row in rows] == ["median", "mean"]

    def test_attack_sweep_custom_suite(self, tiny_base):
        rows, _ = run_attack_sweep(base=tiny_base, attacks={
            "sign_flip": {"worker_attack": "sign_flip"}})
        assert [row["system"] for row in rows] == ["sign_flip"]

    def test_attack_sweep_forwards_extra_suite_fields(self, tiny_base):
        _, histories = run_attack_sweep(base=tiny_base, attacks={
            "sf": {"worker_attack": "sign_flip", "gradient_rule": "median"}})
        assert histories["sf"].config["gradient_rule"] == "median"

    def test_attack_sweep_rejects_name_override(self, tiny_base):
        with pytest.raises(ValueError, match="cannot override 'name'"):
            run_attack_sweep(base=tiny_base, attacks={
                "sf": {"worker_attack": "sign_flip", "name": "custom"}})

    def test_quorum_ablation_explicit_quorums(self, tiny_base):
        base = tiny_base.replace(num_workers=9, declared_byzantine_workers=1)
        rows, _ = run_quorum_ablation(base=base, quorums=(5, 8))
        assert [row["gradient_quorum"] for row in rows] == [5, 8]

    def test_scaling_study_rows(self, tiny_base):
        rows, histories = run_scaling_study(
            base=tiny_base.replace(num_steps=4, eval_every=4),
            worker_counts=(6, 9))
        assert [row["num_workers"] for row in rows] == [6, 9]
        assert all(row["throughput"] > 0 for row in rows)
        assert all(len(history) == 4 for history in histories.values())


# --------------------------------------------------------------------------- #
# Pinned outputs: how a harness describes its runs must not change the runs
# --------------------------------------------------------------------------- #
def history_digest(history):
    text = json.dumps(history.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedOutputs:
    """Literals recorded when figure 3 and table 2 still constructed their
    trainers by hand and every harness converted a separate scale object
    into its scenarios."""

    #: batch size → system → sha256 of the canonical history JSON
    FIGURE3 = {
        16: {
            "vanilla_tf": "20dc72f3ad4d30d8407ef13db73a28b1"
                          "6b59891fb42fbc1677a83dcaa4675db8",
            "guanyu_vanilla": "a0492a2ad3ee64fdb611364d56df7844"
                              "d31d2d132b549e9fd5d76c8b7f0e5b1d",
            "guanyu_f0_s0": "90b917935a42a9fe59ea8c05a11f5844"
                            "aa3c45b9f376ff06dd94abfc7b2f73c0",
            "guanyu_f_workers_s0": "84ac045b8846db08298b30e0563c65ba"
                                   "5516858331fe2f9d723866d88741877a",
            "guanyu_f_workers_s1": "142c4aa8e81d82b9ebda0a6c25217a68"
                                   "b0f64acef404e7b0d742b42ce7851913",
        },
        8: {
            "vanilla_tf": "e17ccf7a01cfe63d29486f2ba08527a4"
                          "88c79d0d10e5f1ca148877a7a5987099",
            "guanyu_vanilla": "e536e56874a9e4c5371025a45f930e4f"
                              "742f1ede7bd3c7f3752bc71b7d9ca17d",
            "guanyu_f0_s0": "bc96a7d90fd894e1f19cbcbc04a12981"
                            "40c566bf180d00ddfde91e444db33ce7",
            "guanyu_f_workers_s0": "9ff3b6b16b18ee3e5a0d7fb7626d1e24"
                                   "6f6bc8fa752f6147ac8d139fe2b86e82",
            "guanyu_f_workers_s1": "6a09759bf27b3c4d702486a7d8934eb1"
                                   "c4fd1693240039052914d49fe0d1b2c3",
        },
    }

    #: attack_servers → (step, cos_phi, max_diff_1, max_diff_2, distinct)
    #: per sample, NaN written as None; measured over the distinct server
    #: vectors (counting duplicated servers read cos φ = 1.0 here)
    TABLE2 = {
        False: [
            (6, 0.8226878162178043, 0.0059179091002511675,
             0.0059179091002511675, 4),
            (8, 0.9956941151051406, 0.012285807979935469,
             0.012255491863210835, 4),
            (10, None, 0.007552448101721046, None, 2),
        ],
        True: [
            (6, 0.5577367982580833, 0.014733875517428092,
             0.01418667257890285, 5),
            (8, 0.6376963923464354, 0.07465076027058394,
             0.06786235264733788, 5),
            (10, 0.9890156238229221, 0.02700575334363218,
             0.026634689194973048, 5),
        ],
    }

    #: sorted store keys after the harness run of ``test_store_keys``
    STORE_KEYS = [
        "0d747ec4e6db6638eb3ce0adae5e0541928c107222d0dacd1ca1465e389ae197",
        "1ee9a599f5e2a3bdbcdc6159660caa1a1c0897004a55c5b3226f6a9ad7fc7703",
        "20c87551c2133894f334543dd9cc605277cd575c59a3b2334124ea7514995772",
        "258ddddb3461c12990c3bac718e609cef0b75dab7d59dd4303b4db4861aa13d1",
        "27bf59d4bfbf7ad2c89627e235e0bc5d4052222cf6dacff52023339b33a95b0d",
        "2966f533953a24021fb7361b7876aea397bea1e1dcb19474cacd04de0e2b9ac7",
        "3dcdf60d0eed26ff153cea7d3948f797d65d04b36348b4baa78337dd947b26ce",
        "485a9c6ce711fb6907043b392fe318b8826eee6645f59d89f85d770437edd342",
        "4a22be6b11441fae782b5ec63030ff8fa8d67e39e9aaa6b85325fe31f9c3f23e",
        "51c98d223fd29091c90d326f3eba897d96f11df16c8da01c1345773f08287712",
        "5659450a153a4b4a81f233bb0a23103eda2046282717bb763f195e0490a857a4",
        "56601254ba5201107654efa3dc090615c268c24738323cbb953fdcb56b2f4540",
        "5865c395f2eed1fe66595cf649d9c22ba06906e3bf52d8de49f10aa457f6ebed",
        "621f01fa4f8b15b84689596b8a70d7d9e39c844cf309ced4943fb5eafd3100a0",
        "7f8da34a48407732ee110c2dfcae37540cca726d6fcc38460555b87ff01ec4ac",
        "95c7c6f63450dd8ebb635125678b80ca4fbaf9a2321ac60fb8f3d42837aac17b",
        "a3052cfd0e7b552ef0b01da5f5a104ddbecca1588b08f83bf024855444a68cda",
        "a4029e9477d3ec410e83dd75c201e8462ca92a7e1872bfba93c2ab80d008fd8c",
        "a879dd266f9e170cf6932d143ccfae8fd3a4fad58e8ff1aca8c2a733847694ab",
        "abe0bba2d87bb893b72653b8e65cdfadb3070c62729e44820d905dc1d2eac5ab",
        "b54c5803919baeb36fbe70ff46b24c1d29eb929281451b4cc36b9b4563356d99",
        "dd3df08ad9d2382c999f97e76f7ca151ee90a5e8255937172992ae585d4154cf",
        "de2b0d91866508c89e092e8eec670d83daca8310b9ebe9dab1f7c49a3c03a868",
        "e5108a4e619ff1ed2239b51027166bbf2017a519a42627d0f782f3cac5728181",
        "f3660108e2879443e3513f1aba8613cd841f8cb25af83048adf4df1ee8847b2b",
    ]

    #: exponential delays, ps/5 crashed on [2, 5), worker/0 slowed from
    #: step 1, a Dirichlet split, and a partition that cuts ps/0 and
    #: worker/8 off on [7, 10): both are alive and stall three steps
    FAULTY = ScenarioSpec(
        name="faulty-pin", num_steps=12, eval_every=4, dataset_size=600,
        seed=11, delay_model="exponential",
        hetero={"partition": "dirichlet", "alpha": 0.5},
        faults={"events": [
            {"step": 2, "kind": "crash", "nodes": ["ps/5"]},
            {"step": 5, "kind": "recover", "nodes": ["ps/5"]},
            {"step": 1, "kind": "slowdown", "nodes": ["worker/0"],
             "factor": 3.0},
            {"step": 7, "kind": "partition", "label": "cut",
             "groups": [["ps/0", "worker/8"],
                        ["ps/1", "ps/2", "ps/3", "ps/4", "ps/5"]
                        + [f"worker/{i}" for i in range(8)]]},
            {"step": 10, "kind": "heal", "label": "cut"}]})
    #: a Byzantine server and two Byzantine workers
    BYZANTINE = ScenarioSpec(
        name="byzantine-pin", num_steps=12, eval_every=4, dataset_size=600,
        seed=12, worker_attack="little_is_enough",
        server_attack="corrupted_model")
    #: cell → sha256 of the canonical history JSON, on both engines
    CELLS = {
        "faulty": "218d530bf8d578588b2a04aa0c5ac1dc"
                  "70329393514375481ddd39638d761f9a",
        "byzantine": "261266e7264fef7211d045186e5c231e"
                     "e65ee709f4fdecdb87d0c98595bfcbc3",
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_cell_histories(self, cell):
        spec = {"faulty": self.FAULTY, "byzantine": self.BYZANTINE}[cell]
        tracer = Tracer()
        with use_tracer(tracer):
            sequential = sequential_history(spec)
        assert history_digest(sequential) == self.CELLS[cell]
        assert history_digest(run(spec).history) == self.CELLS[cell]
        stalled = [(event.step, sorted(event.attrs["nodes"]))
                   for event in tracer.events()
                   if event.name == "seq.fault.stalled"]
        if cell == "faulty":
            assert stalled == [(step, ["ps/5"]) for step in (2, 3, 4)] \
                + [(step, ["ps/0", "worker/8"]) for step in (7, 8, 9)]
        else:
            assert stalled == []

    @pytest.mark.parametrize("batch_size", [16, 8])
    def test_figure3_histories(self, tiny_base, batch_size):
        rows, histories = run_figure3(
            base=tiny_base.replace(batch_size=batch_size))
        assert [row["system"] for row in rows] == list(histories)
        assert {name: history_digest(history)
                for name, history in histories.items()} \
            == self.FIGURE3[batch_size]

    @pytest.mark.parametrize("attack_servers", [False, True])
    def test_table2_samples(self, attack_servers):
        base = ScenarioSpec(num_steps=12, dataset_size=600)
        if attack_servers:
            base = base.replace(server_attack={
                "name": "corrupted_model", "kwargs": {"noise_scale": 50.0}})
        rows, _ = run_table2(base=base, interval=2, warmup_fraction=0.5)
        assert [tuple(None if value != value else value for value in (
                    row["step"], row["cos_phi"], row["max_diff1"],
                    row["max_diff2"], row["distinct"])) for row in rows] \
            == self.TABLE2[attack_servers]

    def test_store_keys(self, tiny_base, tmp_path):
        store = ResultStore(tmp_path / "store")
        short = tiny_base.replace(num_steps=6)
        run_gar_ablation(base=tiny_base, rules=("median", "mean"), store=store)
        EXPERIMENTS["attack-sweep"].run(tiny_base, store, None)
        EXPERIMENTS["quorums"].run(tiny_base, store, None)
        run_scaling_study(base=tiny_base.replace(num_steps=4, eval_every=4),
                          worker_counts=(6, 9), store=store)
        EXPERIMENTS["figure4"].run(tiny_base, store, None)
        run_crash_quorum_study(base=short, crash_counts=(0, 1), store=store)
        EXPERIMENTS["partition-heal"].run(short, store, None)
        run_heterogeneity_study(base=short, skews=("iid", "dirichlet=1"),
                                gars=("median",), store=store)
        assert sorted(store.keys()) == self.STORE_KEYS
