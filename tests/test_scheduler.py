"""Campaign scheduler daemon: dedupe-before-run, HTTP API, job lifecycle.

The daemon's contract: a submitted campaign behaves exactly like a local
``repro sweep`` — same engine, same store dedupe — with the scheduler
adding only queueing and an HTTP surface.  The dedupe count is computed
against the store *index* at submission time, before any work is queued,
which is what ``sweep --submit`` prints as "already in the store".
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro import run
from repro.campaign import CampaignScheduler, ResultStore, ScenarioSpec
from repro.campaign.spec import AttackSpec, CampaignSpec
from repro.obs import MetricsRegistry, MetricsServer, use_registry
from repro.obs.httpd import MAX_BODY_BYTES
from repro.runtime.cluster import cluster_available

needs_sockets = pytest.mark.skipif(
    not cluster_available(), reason="host cannot bind sockets")


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=2, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


def seed_campaign(seeds, **overrides) -> CampaignSpec:
    return CampaignSpec(name="seeds", base=tiny_spec(**overrides),
                        grid={"seed": list(seeds)})


def wait_for(scheduler: CampaignScheduler, job_id: str,
             timeout: float = 60.0) -> dict:
    """Poll until the job leaves the queue/run states."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.job(job_id)
        if job is not None and job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.mark.timeout(180)
class TestSchedulerCore:
    def test_dedupe_happens_before_any_work_is_queued(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # pre-populate one of the campaign's two cells (stable API path)
        run(tiny_spec(seed=1), store=store)

        scheduler = CampaignScheduler(store)
        job = scheduler.submit(seed_campaign([1, 2]))
        # the dedupe count is in the submission reply — computed from the
        # store index before the worker thread ever sees the job
        assert job["state"] == "queued"
        assert job["total"] == 2
        assert job["cached_at_submit"] == 1

        with scheduler:
            finished = wait_for(scheduler, job["id"])
        assert finished["state"] == "done"
        assert finished["counts"] == {"cached": 1, "ran": 1}
        assert finished["completed"] == 2
        assert len(store) == 2

    def test_resubmission_is_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with CampaignScheduler(store) as scheduler:
            first = wait_for(scheduler,
                             scheduler.submit(seed_campaign([1, 2]))["id"])
            assert first["counts"] == {"ran": 2}
            again = scheduler.submit(seed_campaign([1, 2]))
            assert again["cached_at_submit"] == 2
            finished = wait_for(scheduler, again["id"])
        assert finished["state"] == "done"
        assert finished["counts"] == {"cached": 2}

    def test_scenario_failures_mark_the_job_failed(self, tmp_path):
        # label_flip with num_classes=10 fails at runtime on the 4-class
        # task (same injection test_campaign uses); the job must finish
        # "failed" with the scenario named, and the daemon must survive
        store = ResultStore(tmp_path / "store")
        bad = CampaignSpec(name="bad", scenarios=[
            tiny_spec(name="good"),
            tiny_spec(name="boom",
                      worker_attack=AttackSpec("label_flip",
                                               {"num_classes": 10})),
        ])
        with CampaignScheduler(store) as scheduler:
            finished = wait_for(scheduler, scheduler.submit(bad)["id"])
            assert finished["state"] == "failed"
            assert [f["scenario"] for f in finished["failures"]] == ["boom"]
            assert finished["error"] is None  # engine isolated the failure
            # the daemon still takes and finishes work afterwards
            after = wait_for(scheduler,
                             scheduler.submit(seed_campaign([9]))["id"])
        assert after["state"] == "done"

    def test_invalid_campaign_queues_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(store)
        inadmissible = CampaignSpec(
            name="inadmissible", base=tiny_spec(),
            grid={"declared_byzantine_workers": [1, 5]})  # 5 breaks n>=3f+3
        with pytest.raises(ValueError):
            scheduler.submit(inadmissible)
        assert scheduler.jobs() == []

    def test_status_document_and_telemetry(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = ResultStore(tmp_path / "store")
            run(tiny_spec(seed=1), store=store)
            with CampaignScheduler(store, processes=None) as scheduler:
                job = scheduler.submit(seed_campaign([1]))
                wait_for(scheduler, job["id"])
                status = scheduler.status()
        assert status["kind"] == "repro.scheduler"
        assert status["store_entries"] == 1
        assert status["jobs"] == {"done": 1}
        assert registry.counter(
            "repro_scheduler_scenarios_deduped_total").value() == 1.0
        assert registry.counter(
            "repro_scheduler_jobs_total").value(state="done") == 1.0
        assert registry.gauge(
            "repro_scheduler_jobs_pending").value() == 0


@needs_sockets
@pytest.mark.timeout(180)
class TestSchedulerOverHTTP:
    """End-to-end over a real socket: the acceptance-criterion path."""

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))

    def _post(self, url, document):
        request = urllib.request.Request(
            url, data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))

    def test_submitted_campaign_served_end_to_end(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run(tiny_spec(seed=1), store=store)

        with CampaignScheduler(store) as scheduler, \
                MetricsServer(0, status=scheduler.status,
                              routes=scheduler.handle_route) as server:
            status, job = self._post(
                server.url + "/campaigns",
                {"campaign": seed_campaign([1, 2]).to_dict()})
            assert status == 202
            assert job["cached_at_submit"] == 1  # deduped against the index

            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _, job = self._get(server.url + f"/campaigns/{job['id']}")
                if job["state"] in ("done", "failed"):
                    break
                time.sleep(0.1)
            assert job["state"] == "done"
            assert job["counts"] == {"cached": 1, "ran": 1}

            # results flow back through the same listener, index-backed
            status, document = self._get(server.url + "/results?seed=2")
            assert status == 200
            assert document["count"] == 1
            assert document["rows"][0]["seed"] == 2

            _, listing = self._get(server.url + "/campaigns")
            assert [j["id"] for j in listing["jobs"]] == [job["id"]]

            # the daemon's own /status still answers beside the new routes
            status, document = self._get(server.url + "/status")
            assert document["kind"] == "repro.scheduler"

    def test_http_error_paths(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with CampaignScheduler(store) as scheduler, \
                MetricsServer(0, status=scheduler.status,
                              routes=scheduler.handle_route) as server:
            # malformed body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                request = urllib.request.Request(
                    server.url + "/campaigns", data=b"not json",
                    method="POST")
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

            # inadmissible campaign: rejected, nothing queued
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server.url + "/campaigns", {
                    "name": "bad", "base": tiny_spec().to_dict(),
                    "grid": {"declared_byzantine_workers": [5]}})
            assert excinfo.value.code == 400
            assert scheduler.jobs() == []

            # unknown job
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/campaigns/job-9999")
            assert excinfo.value.code == 404

            # bogus query filter surfaces the store's nearest-field hint
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/results?gradent_rule=%22median%22")
            assert excinfo.value.code == 400
            detail = json.loads(excinfo.value.read().decode("utf-8"))
            assert "nearest valid fields" in detail["error"]

            # paths the scheduler does not own still 404 through the base
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/nope")
            assert excinfo.value.code == 404

    @pytest.mark.parametrize("length, code", [
        (str(MAX_BODY_BYTES + 1), 413), ("-5", 400), ("12abc", 400)])
    def test_untrusted_content_length(self, tmp_path, length, code):
        # Only the header is sent: the reply must not wait for (or buffer)
        # a body of the announced size, and the listener must stay up.
        store = ResultStore(tmp_path / "store")
        with CampaignScheduler(store) as scheduler, \
                MetricsServer(0, status=scheduler.status,
                              routes=scheduler.handle_route) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                    timeout=10)
            try:
                connection.putrequest("POST", "/campaigns")
                connection.putheader("Content-Length", length)
                connection.endheaders()
                assert connection.getresponse().status == code
            finally:
                connection.close()
            assert scheduler.jobs() == []
            assert self._get(server.url + "/status")[0] == 200
