"""The one front door: ``repro.runtime.run`` dispatch and the legacy shims.

Every runtime — sequential simulator, batched lanes, threaded nodes,
process cluster — is reached through ``run(spec)``, the only scenario
entry point.
"""

import os
import subprocess
import sys

import pytest

import repro.api
import repro.campaign
import repro.campaign.engine
import repro.runtime as runtime_pkg
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.obs.tracer import Tracer
from repro.runtime import ScenarioResult, resolve_runtime, run
from repro.testing import sequential_history


def _spec(**overrides):
    fields = dict(name="facade", num_steps=4, eval_every=2,
                  dataset_size=400, max_eval_samples=64)
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestResolveRuntime:
    def test_default_trainers_resolve_sequential(self):
        # A lone dense-model GuanYu scenario is an R = 1 lane of the
        # vectorised engine; what it cannot express stays sequential.
        assert resolve_runtime(_spec()) == "batched"
        assert resolve_runtime(_spec(model="mlp")) == "batched"
        assert resolve_runtime(_spec(trainer="vanilla")) == "sequential"
        assert resolve_runtime(_spec(model="small_cnn",
                                     dataset="images")) == "sequential"

    def test_threaded_trainer_resolves_threaded(self):
        assert resolve_runtime(
            _spec(trainer="guanyu_threaded")) == "threaded"

    def test_explicit_runtimes_win(self, monkeypatch):
        # a host that cannot bind sockets resolves "cluster" to "threaded"
        monkeypatch.setattr(
            "repro.runtime.cluster.supervisor.cluster_available",
            lambda: True)
        assert resolve_runtime(_spec(runtime="batched")) == "batched"
        assert resolve_runtime(_spec(trainer="guanyu_threaded",
                                     runtime="cluster")) == "cluster"


class TestRun:
    def test_sequential_result_shape(self):
        result = run(_spec())
        assert isinstance(result, ScenarioResult)
        assert result.status == "ran"
        assert result.runtime == "batched"
        assert result.store_key is None
        assert result.duration_seconds > 0
        assert len(result.history.records) == 4

    def test_batched_runtime_bit_identical_to_sequential(self):
        sequential = sequential_history(_spec()).to_dict()
        batched = run(_spec(runtime="batched")).history.to_dict()
        assert sequential == batched
        assert run(_spec()).history.to_dict() == sequential

    def test_threaded_runtime_runs_and_labels(self):
        result = run(_spec(trainer="guanyu_threaded", num_steps=3,
                           name="threaded-run"))
        assert result.runtime == "threaded"
        assert result.history.label == "threaded-run"

    def test_invalid_spec_raises_before_running(self):
        with pytest.raises(ValueError):
            run(_spec(num_steps=0))

    def test_store_round_trip_and_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run(_spec(), store=store)
        assert first.status == "ran"
        assert first.store_key is not None
        assert store.contains(first.store_key)
        second = run(_spec(name="same-but-renamed"), store=store)
        assert second.status == "cached"
        assert second.store_key == first.store_key
        assert second.history.label == "same-but-renamed"
        assert second.history.to_dict() == first.history.to_dict() | {
            "label": "same-but-renamed"}

    def test_explicit_tracer_collects_the_run(self):
        tracer = Tracer()
        result = run(_spec(), tracer=tracer)
        assert result.status == "ran"
        assert tracer.events(), "the run should have produced trace events"

    def test_spec_kernels_selects_backend_for_the_run(self):
        reference = run(_spec()).history.to_dict()
        optimised = run(_spec(kernels="numpy-opt")).history.to_dict()
        assert reference == optimised

    def test_runtime_package_exports_the_facade(self):
        for name in ("run", "resolve_runtime", "ScenarioResult",
                     "RUNTIME_KINDS"):
            assert name in runtime_pkg.__all__


class TestPublicExports:
    def test_every_root_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_api_and_root_share_one_export_list(self):
        assert repro.api.__all__ == list(repro._API_EXPORTS)
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_root_import_stays_lazy(self):
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('repro.api' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "False"


class TestDeprecationShims:
    def test_run_is_the_only_scenario_entry_point(self):
        # The PR-8 scenario shim was removed once nothing called it: what
        # the campaign package offers for execution is run_campaign (many)
        # and build_trainer (construct, not run); one scenario is repro.run.
        executors = {name for name in repro.campaign.__all__
                     if name.startswith(("run", "execute", "build"))}
        assert executors == {"run_campaign", "build_trainer"}
        assert repro.campaign.engine.run_scenario is run
