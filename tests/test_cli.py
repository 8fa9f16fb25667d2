"""Tests for the command-line interface."""

import json

import pytest

from repro import cli


def _run(capsys, argv):
    exit_code = cli.main(argv)
    captured = capsys.readouterr()
    return exit_code, captured.out


BASE_ARGS = ["--steps", "6", "--workers-count", "6", "--servers-count", "3"]


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure99"])

    def test_defaults(self):
        args = cli.build_parser().parse_args(["figure3"])
        assert args.batch_size == 128
        assert args.preset == "small"

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_invalid_arguments_exit_2(self, capsys):
        # semantic validation errors (not argparse parse errors) must exit 2
        code = cli.main(["--steps", "4", "--workers-count", "6",
                         "--servers-count", "3", "scaling", "--workers", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSubcommands:
    def test_table1(self, capsys):
        code, out = _run(capsys, ["table1"])
        assert code == 0
        assert "1,756,426" in out

    def test_table1_json_output(self, capsys, tmp_path):
        path = tmp_path / "table1.json"
        code, _ = _run(capsys, ["--json", str(path), "table1"])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["total_parameters"] == 1756426

    def test_figure3(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["figure3", "--batch-size", "16"])
        assert code == 0
        assert "vanilla_tf" in out
        assert "top-1 accuracy" in out  # the ASCII chart was rendered

    def test_figure4(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["figure4"])
        assert code == 0
        assert "guanyu_byzantine" in out

    def test_table2(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["table2", "--interval", "2"])
        assert code == 0
        assert "cos_phi" in out

    def test_overhead(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["overhead"])
        assert code == 0
        assert "runtime_overhead_percent" in out

    def test_scaling_with_custom_worker_counts(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["scaling", "--workers", "6", "9"])
        assert code == 0
        assert "num_workers" in out

    def test_quorums(self, capsys):
        code, out = _run(capsys, ["--steps", "4", "--workers-count", "9",
                                  "--servers-count", "3", "quorums"])
        assert code == 0
        assert "q=" in out

    def test_gars(self, capsys):
        code, out = _run(capsys, BASE_ARGS + ["gars"])
        assert code == 0
        assert "multi_krum" in out

    def test_json_dump_for_histories(self, capsys, tmp_path):
        path = tmp_path / "fig4.json"
        code, _ = _run(capsys, BASE_ARGS + ["--json", str(path), "figure4"])
        assert code == 0
        payload = json.loads(path.read_text())
        assert "vanilla_tf_byzantine" in payload

    def test_list_prints_registries(self, capsys):
        code, out = _run(capsys, ["list"])
        assert code == 0
        assert "multi_krum" in out
        assert "random_gradient" in out
        assert "equivocation" in out
        assert "guanyu_threaded" in out
        assert "lognormal" in out
        assert "omniscient_descent" in out  # adversary registry included


class TestAttacksListing:
    def test_lists_attacks_and_adversaries_with_kind_and_params(self, capsys):
        code, out = _run(capsys, ["attacks"])
        assert code == 0
        # every registered attack appears with its kind tag
        from repro.adversary import STATELESS, available
        for name in available(STATELESS):
            assert name in out
        assert "[worker-attack" in out and "[server-attack" in out
        # native adversaries appear with their constructor parameters
        for name in available("adversary"):
            assert name in out
        assert "[adversary" in out
        assert "z_factor=1.5" in out          # attack parameters rendered
        assert "wake_step=20" in out          # adversary parameters rendered

    def test_json_dump(self, capsys, tmp_path):
        path = tmp_path / "attacks.json"
        code, _ = _run(capsys, ["--json", str(path), "attacks"])
        assert code == 0
        rows = json.loads(path.read_text())
        kinds = {row["name"]: row["kind"] for row in rows}
        assert kinds["sign_flip"] == "worker-attack"
        assert kinds["stale_model"] == "server-attack"
        assert kinds["collusion"] == "adversary"

    def test_rejects_extra_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["attacks", "--bogus"])
        assert excinfo.value.code == 2

    def test_attack_sweep_still_runs_the_ablation(self, capsys):
        code, out = _run(capsys, ["--steps", "4", "--workers-count", "9",
                                  "--servers-count", "6", "attack-sweep"])
        assert code == 0
        assert "Attack sweep" in out
        assert "sign_flip" in out


class TestSweep:
    SWEEP_ARGS = ["--steps", "4"] + BASE_ARGS[2:] + [
        "sweep", "--gars", "multi_krum", "median",
        "--attacks", "random_gradient", "sign_flip",
        "--seeds", "0", "1"]

    def test_grid_sweep_runs_persists_and_caches(self, capsys, tmp_path):
        argv = self.SWEEP_ARGS + ["--store", str(tmp_path / "store"),
                                  "--processes", "2"]
        code, out = _run(capsys, argv)
        assert code == 0
        # 2 GARs × 2 attacks × 2 seeds = 8 scenarios, all trained.
        assert "8 scenarios — ran 8, cached 0, failed 0" in out
        assert "gradient_rule=median-sign_flip-seed=1" in out

        # Second invocation: 100 % cache hits, no re-training.
        code, out = _run(capsys, argv)
        assert code == 0
        assert "8 scenarios — ran 0, cached 8, failed 0" in out

    def test_batch_seeds_sweep_matches_sequential_store(self, capsys,
                                                        tmp_path):
        """--batch-seeds runs the seed axis on the batched runtime and
        fills the store with the same content addresses a sequential sweep
        would (bit-identical histories, so resume works across modes)."""
        base = ["--steps", "4"] + BASE_ARGS[2:] + [
            "sweep", "--gars", "multi_krum", "--seeds", "0", "1", "2",
            "--processes", "1"]
        batched_store = tmp_path / "batched"
        code, out = _run(capsys, base + ["--batch-seeds", "--store",
                                         str(batched_store)])
        assert code == 0
        assert "ran 3 (3 batched), cached 0, failed 0" in out

        sequential_store = tmp_path / "sequential"
        code, _ = _run(capsys, base + ["--store", str(sequential_store)])
        assert code == 0
        batched_keys = sorted(p.name for p in batched_store.glob("??/*.json"))
        sequential_keys = sorted(p.name
                                 for p in sequential_store.glob("??/*.json"))
        assert batched_keys == sequential_keys

        # A batched store resumes a sequential sweep (and vice versa).
        code, out = _run(capsys, base + ["--store", str(batched_store)])
        assert code == 0
        assert "ran 0, cached 3, failed 0" in out

    def test_batch_seeds_failure_still_exits_nonzero(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, ScenarioSpec
        campaign = CampaignSpec(
            name="failing-batched",
            base=ScenarioSpec(num_steps=4, dataset_size=300,
                              worker_attack={"name": "label_flip",
                                             "kwargs": {"num_classes": 10}}),
            grid={"seed": [0, 1]})
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        code, out = _run(capsys, ["--crash-dir", str(tmp_path),
                                  "sweep", "--spec", str(path),
                                  "--batch-seeds", "--processes", "1"])
        assert code == 1
        assert "failed 2" in out
        # the flight recorder honoured --crash-dir instead of the CWD
        assert (tmp_path / "failing-batched.crash.json").is_file()

    def test_sweep_without_store_does_not_cache(self, capsys):
        argv = ["--steps", "4"] + BASE_ARGS[2:] + [
            "sweep", "--gars", "median", "--processes", "1"]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "1 scenarios — ran 1" in out

    def test_sweep_from_spec_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, ScenarioSpec
        campaign = CampaignSpec(
            name="from-file",
            base=ScenarioSpec(num_workers=6, num_servers=3,
                              declared_byzantine_workers=1,
                              declared_byzantine_servers=0, num_steps=4,
                              eval_every=2, dataset_size=300),
            grid={"seed": [0, 1]})
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        code, out = _run(capsys, ["sweep", "--spec", str(path),
                                  "--processes", "1"])
        assert code == 0
        assert "campaign 'from-file': 2 scenarios — ran 2" in out

    def test_sweep_unusable_store_path_exits_cleanly(self, capsys):
        argv = ["--steps", "4"] + BASE_ARGS[2:] + [
            "sweep", "--gars", "median", "--store", "/dev/null/store"]
        code, _ = _run(capsys, argv)
        assert code == 2

    def test_sweep_with_fault_schedule_file(self, capsys, tmp_path):
        faults = {"events": [
            {"step": 1, "kind": "crash", "nodes": ["ps/2"]},
            {"step": 3, "kind": "recover", "nodes": ["ps/2"]},
        ]}
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(faults))
        argv = ["--steps", "4"] + BASE_ARGS[2:] + [
            "sweep", "--gars", "multi_krum", "--faults", str(path),
            "--processes", "1"]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "1 scenarios — ran 1" in out

    def test_sweep_missing_faults_file_exits_2(self, capsys):
        argv = ["--steps", "4"] + BASE_ARGS[2:] + [
            "sweep", "--gars", "median", "--faults", "/does/not/exist.json"]
        code, _ = _run(capsys, argv)
        assert code == 2

    def test_sweep_rejects_spec_plus_faults(self, capsys, tmp_path):
        """--faults must not be silently ignored when --spec is given."""
        from repro.campaign import CampaignSpec
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(CampaignSpec(name="c").to_json())
        faults_path = tmp_path / "faults.json"
        faults_path.write_text(json.dumps({"events": []}))
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--faults", str(faults_path)])
        assert code == 2
        assert "--faults" in capsys.readouterr().err

    def test_sweep_reports_failures_with_nonzero_exit(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, ScenarioSpec
        campaign = CampaignSpec(
            name="failing",
            scenarios=[ScenarioSpec(
                name="bad", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=4, dataset_size=300,
                worker_attack={"name": "label_flip",
                               "kwargs": {"num_classes": 10}})])
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        code, out = _run(capsys, ["--crash-dir", str(tmp_path),
                                  "sweep", "--spec", str(path),
                                  "--processes", "1"])
        assert code == 1
        assert "FAILED bad" in out
        assert (tmp_path / "failing.crash.json").is_file()

    def test_adversary_axis_sweep(self, capsys, tmp_path):
        argv = ["--steps", "4", "--workers-count", "9",
                "--servers-count", "6", "sweep",
                "--adversaries", "collusion", "sign_flip",
                "--seeds", "0", "1", "--processes", "1",
                "--store", str(tmp_path / "store")]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "4 scenarios — ran 4, cached 0, failed 0" in out
        assert "collusion-seed=0" in out and "sign_flip-seed=1" in out
        # resume: same sweep is a pure cache hit
        code, out = _run(capsys, argv)
        assert code == 0
        assert "ran 0, cached 4, failed 0" in out

    def test_adversary_axis_composes_with_batch_seeds(self, capsys):
        code, out = _run(capsys, ["--steps", "4", "--workers-count", "9",
                                  "--servers-count", "6", "sweep",
                                  "--adversaries", "collusion",
                                  "--seeds", "0", "1", "--batch-seeds",
                                  "--processes", "1"])
        assert code == 0
        assert "ran 2 (2 batched)" in out

    def test_label_flip_adversary_axis_gets_workload_classes(self, capsys):
        # Mirrors the --attacks axis fix-up: the blobs workload has 4
        # classes, so the default num_classes=10 would poison labels past
        # the softmax range and crash the scenario.
        code, out = _run(capsys, ["--steps", "4", "--workers-count", "9",
                                  "--servers-count", "6", "sweep",
                                  "--adversaries", "label_flip",
                                  "--processes", "1"])
        assert code == 0
        assert "ran 1, cached 0, failed 0" in out

    def test_unknown_adversary_exits_2(self, capsys):
        code = cli.main(["sweep", "--adversaries", "teleport"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_attacks_and_adversaries_axes_cannot_be_combined(self, capsys):
        # An adversary cell overrides the attack cell's fields, so the two
        # axes would collapse into duplicate content addresses — reject.
        code = cli.main(["sweep", "--attacks", "sign_flip",
                         "--adversaries", "collusion"])
        assert code == 2
        assert "--adversaries" in capsys.readouterr().err


class TestResilience:
    RES_ARGS = ["--steps", "9", "--workers-count", "6", "--servers-count", "6"]

    def test_crash_mode_prints_boundary_table(self, capsys, tmp_path):
        argv = self.RES_ARGS + ["resilience", "--mode", "crash",
                                "--crashes", "0", "2", "--quorums", "3", "5",
                                "--crash-step", "3", "--recover-step", "6",
                                "--store", str(tmp_path / "store")]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "model_quorum" in out and "stalled_steps" in out
        assert "result store:" in out

    def test_partition_mode_prints_recovery_rows(self, capsys):
        argv = self.RES_ARGS + ["resilience", "--mode", "partition",
                                "--partition-step", "2",
                                "--heal-steps", "5", "8"]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "spread_before_heal" in out

    def test_json_dump(self, capsys, tmp_path):
        path = tmp_path / "res.json"
        argv = self.RES_ARGS + ["--json", str(path), "resilience",
                                "--mode", "crash", "--crashes", "0",
                                "--quorums", "3"]
        code, _ = _run(capsys, argv)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["model_quorum"] == 3

    def test_invalid_heal_steps_exit_2(self, capsys):
        argv = self.RES_ARGS + ["resilience", "--mode", "partition",
                                "--partition-step", "5",
                                "--heal-steps", "4"]
        code, _ = _run(capsys, argv)
        assert code == 2


class TestObservability:
    """Global --trace/--log-level flags and the trace/report subcommands."""

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        argv = ["--trace", str(trace_path), "--steps", "3",
                "--workers-count", "6", "--servers-count", "3", "figure4"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert "trace record(s)" in captured.err
        from repro.obs import read_jsonl

        records = read_jsonl(str(trace_path))
        assert records, "traced run must produce records"
        kinds = {record.kind for record in records}
        assert "span" in kinds
        # --trace enables decision records.
        assert any(record.name == "batch.gar.decision" for record in records)

    def test_trace_and_report_subcommands_render(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main(["--trace", str(trace_path), "--steps", "3",
                         "--workers-count", "6", "--servers-count", "3",
                         "figure4"])
        capsys.readouterr()
        assert code == 0

        code, out = _run(capsys, ["trace", str(trace_path)])
        assert code == 0
        assert "span(s)" in out
        assert "batch.step.compute" in out

        code, out = _run(capsys, ["report", str(trace_path)])
        assert code == 0
        assert "Phase breakdown" in out
        assert "Span timeline" in out
        assert "batch.step.aggregate" in out

    def test_trace_subcommand_missing_file_exits_2(self, capsys):
        code, _ = _run(capsys, ["trace", "/nonexistent/trace.jsonl"])
        assert code == 2

    def test_sweep_trace_carries_campaign_counters(self, capsys, tmp_path):
        trace_path = tmp_path / "sweep.jsonl"
        argv = ["--trace", str(trace_path), "--steps", "3",
                "--workers-count", "6", "--servers-count", "3",
                "sweep", "--gars", "median", "--seeds", "0", "1",
                "--processes", "1"]
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 0
        from repro.obs import read_jsonl

        records = read_jsonl(str(trace_path))
        counters = {record.name for record in records
                    if record.kind == "counter"}
        assert "campaign.cache_miss" in counters
        events = [record for record in records
                  if record.name == "campaign.scenario"]
        assert len(events) == 2

    def test_sweep_progress_lines_include_elapsed_time(self, capsys):
        argv = ["--steps", "3", "--workers-count", "6",
                "--servers-count", "3", "sweep", "--gars", "median",
                "--seeds", "0", "--processes", "1"]
        code, out = _run(capsys, argv)
        assert code == 0
        assert "[1/1] ran" in out
        assert "[+" in out  # per-scenario elapsed suffix

    def test_log_level_flag_configures_repro_logger(self, capsys):
        import logging

        code, _ = _run(capsys, ["--log-level", "debug", "table1"])
        assert code == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        code, _ = _run(capsys, ["--log-level", "warning", "table1"])
        assert code == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_unknown_log_level_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--log-level", "loud", "table1"])


class TestStoreSubcommand:
    """``repro store fsck`` / ``repro store gc`` against a real store."""

    def _seed_store(self, root, *, failed=False):
        from repro.campaign import ResultStore, ScenarioSpec
        from repro.obs import StepRecord, TrainingHistory

        store = ResultStore(root)
        history = TrainingHistory(label="t")
        history.add(StepRecord(step=1, simulated_time=1.0,
                               test_accuracy=0.5))
        keys = []
        for seed in (1, 2):
            spec = ScenarioSpec(name=f"s{seed}", num_workers=6,
                                num_servers=3,
                                declared_byzantine_workers=1,
                                declared_byzantine_servers=0, seed=seed)
            keys.append(store.put(
                spec, history,
                status="failed" if failed and seed == 2 else "ran"))
        return store, keys

    def test_fsck_ok_on_healthy_store(self, capsys, tmp_path):
        self._seed_store(tmp_path / "store")
        code, out = _run(capsys, ["store", "fsck",
                                  str(tmp_path / "store")])
        assert code == 0
        assert "ok: entries, index and telemetry agree" in out

    def test_fsck_reports_corruption_and_exits_1(self, capsys, tmp_path):
        store, keys = self._seed_store(tmp_path / "store")
        store.path_for(keys[0]).write_text("truncated")
        report_path = tmp_path / "report.json"
        code, out = _run(capsys, ["--json", str(report_path), "store",
                                  "fsck", str(tmp_path / "store")])
        assert code == 1
        assert "corrupt_entry" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert report["issues"][0]["kind"] == "corrupt_entry"

    def test_gc_dry_run_then_real(self, capsys, tmp_path):
        store, keys = self._seed_store(tmp_path / "store", failed=True)
        code, out = _run(capsys, ["store", "gc", str(tmp_path / "store"),
                                  "--dry-run"])
        assert code == 0
        assert "would remove 1 failed" in out
        assert store.contains(keys[1])

        code, out = _run(capsys, ["store", "gc", str(tmp_path / "store")])
        assert code == 0
        assert "removed 1 failed" in out
        assert not store.contains(keys[1])

        code, out = _run(capsys, ["store", "fsck",
                                  str(tmp_path / "store")])
        assert code == 0

    def test_store_requires_an_action(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["store"])

    def test_submit_to_unreachable_scheduler_exits_2(self, capsys, tmp_path):
        code = cli.main(["--steps", "4", "--workers-count", "6",
                         "--servers-count", "3", "sweep", "--gars",
                         "median", "--seeds", "0",
                         "--submit", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach scheduler" in capsys.readouterr().err
