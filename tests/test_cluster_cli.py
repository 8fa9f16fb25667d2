"""CLI surface of the process cluster runtime + graceful interruption.

Covers the ``repro cluster`` subcommand end-to-end, ``repro sweep
--runtime cluster``, and the SIGINT/SIGTERM contract of both: completed
results stay flushed in the ``--store`` and the process exits with the
distinct code 3 (``repro.cli.EXIT_INTERRUPTED``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import cli
from repro.campaign import ResultStore
from repro.runtime.cluster import cluster_available

needs_sockets = pytest.mark.skipif(
    not cluster_available(), reason="host cannot bind sockets")

BASE = ["--steps", "2", "--workers-count", "4", "--servers-count", "3",
        "--seed", "5"]


def _run(capsys, argv):
    exit_code = cli.main(argv)
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


class TestParser:
    def test_cluster_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cluster", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--transport" in out and "--faults" in out

    def test_sweep_grew_a_runtime_flag(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--runtime", "cluster"])
        assert args.runtime == "cluster"

    def test_exit_interrupted_is_distinct(self):
        assert cli.EXIT_INTERRUPTED == 3
        assert cli.EXIT_INTERRUPTED not in (0, 1, 2)


class TestClusterCommand:
    def test_invalid_gar_exits_2(self, capsys):
        code, _, err = _run(capsys, BASE + ["cluster", "--gar", "nonsense"])
        assert code == 2
        assert "error:" in err

    def test_sweep_runtime_demands_threaded_trainer(self, capsys):
        # a single-server baseline runs only on the sequential simulator:
        # spec validation must reject the pairing before anything runs
        code, _, err = _run(capsys, BASE + ["sweep", "--trainer", "vanilla",
                                            "--runtime", "cluster",
                                            "--gars", "median"])
        assert code == 2
        assert "vanilla" in err

    def test_sweep_spec_file_rejects_runtime_flag(self, capsys, tmp_path):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({"name": "c", "scenarios": []}))
        code, _, err = _run(capsys, BASE + ["sweep", "--spec", str(spec_file),
                                            "--runtime", "cluster"])
        assert code == 2
        assert "--runtime" in err

    @needs_sockets
    @pytest.mark.timeout(180)
    def test_cluster_end_to_end_with_store(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code, out, _ = _run(capsys, BASE + ["cluster", "--store",
                                            str(store_dir)])
        assert code == 0
        assert "Node lifecycle" in out
        assert "done" in out
        store = ResultStore(store_dir)
        assert len(store) == 1
        stored = store.get(store.keys()[0])
        assert stored.spec.runtime == "cluster"
        assert len(stored.history.records) == 2

    @needs_sockets
    @pytest.mark.timeout(180)
    def test_json_report_is_one_machine_readable_document(self, capsys):
        code, out, _ = _run(capsys, BASE + ["cluster", "--json"])
        assert code == 0
        document = json.loads(out)  # whole stdout is the JSON document
        assert document["scenario"] == "cluster"
        assert document["elapsed_seconds"] > 0.0
        nodes = document["report"]["nodes"]
        assert len(nodes) == 7  # 3 servers + 4 workers
        for info in nodes.values():
            assert info["state"] == "done"
            assert info["pids"] and info["exit_codes"] == [0]
            assert info["respawns"] == 0

    @needs_sockets
    @pytest.mark.timeout(180)
    def test_sweep_runs_cluster_runtime_end_to_end(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code, out, _ = _run(capsys, BASE + [
            "sweep", "--trainer", "guanyu_threaded", "--runtime", "cluster",
            "--gars", "median", "--store", str(store_dir),
            "--processes", "1"])
        assert code == 0
        assert "failed 0" in out
        store = ResultStore(store_dir)
        assert len(store) == 1
        assert store.get(store.keys()[0]).spec.runtime == "cluster"


@pytest.mark.timeout(180)
class TestGracefulInterruption:
    """Deliver real signals to a real `repro sweep` subprocess."""

    @staticmethod
    def _spawn_sweep(store_dir):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # enough scenarios x steps that the campaign outlives the signal
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--steps", "60",
             "sweep", "--gars", "median", "mean", "trimmed_mean",
             "multi_krum", "krum", "--store", str(store_dir),
             "--processes", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)

    @staticmethod
    def _wait_for_first_entry(store_dir, timeout=90.0):
        deadline = time.monotonic() + timeout
        store = ResultStore(store_dir)
        while time.monotonic() < deadline:
            if len(store) >= 1:
                return True
            time.sleep(0.2)
        return False

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_exits_3_and_keeps_flushed_results(self, tmp_path,
                                                      signum):
        store_dir = tmp_path / "store"
        process = self._spawn_sweep(store_dir)
        try:
            assert self._wait_for_first_entry(store_dir), \
                "no scenario completed before the signal"
            process.send_signal(signum)
            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == cli.EXIT_INTERRUPTED
        assert "interrupted" in out
        # whatever finished before the signal is still readable
        store = ResultStore(store_dir)
        assert len(store) >= 1
        for key in store.keys():
            assert store.get(key).history.records
