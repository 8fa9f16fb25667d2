"""Tier-1 gate: the process cluster runtime matches the threaded runtime.

Under truly-full quorums (declared Byzantine counts 0, quorum = every
sender) each node's quorum set is scheduling-independent, and both runtimes
hand it to the GAR in the one mailbox's canonical sender order (so the rule
need not be permutation-invariant bit for bit: ``mean`` and ``multi_krum``
are gated beside the median family) — so the loss trajectory of a cluster
of real OS processes over real sockets must be **bit-identical** to the
in-process threaded runtime's, per seed.  These tests pin that, plus the
fault semantics that make the cluster "real": a scheduled crash SIGKILLs
an actual process (PID observed dead), and content addresses of pre-PR
stores stay valid (``runtime`` absent ≡ legacy in the spec hash).
"""

from __future__ import annotations

import os

import pytest

from repro.campaign.engine import build_trainer
from repro.campaign.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule
from repro.runtime.cluster import (
    ClusterOptions,
    Supervisor,
    cluster_available,
    unix_sockets_available,
)

needs_sockets = pytest.mark.skipif(
    not cluster_available(), reason="host cannot bind sockets")


def small_spec(**overrides) -> ScenarioSpec:
    """Smallest admissible cluster (n >= 3f + 3 with f = 0), full quorums,
    median-family rules: the envelope where cluster == threaded holds
    bit-exactly."""
    base = dict(name="cluster-eq", trainer="guanyu_threaded",
                num_workers=4, num_servers=3,
                declared_byzantine_workers=0, declared_byzantine_servers=0,
                model_quorum=3, gradient_quorum=4,
                gradient_rule="median", model_rule="median",
                num_steps=2, seed=9, quorum_timeout=30.0)
    base.update(overrides)
    return ScenarioSpec(**base)


def losses_of(history):
    return [record.train_loss for record in history.records]


def threaded_losses(spec: ScenarioSpec):
    return losses_of(build_trainer(spec).run(spec.num_steps))


@needs_sockets
@pytest.mark.timeout(180)
class TestClusterEquivalence:
    @pytest.mark.parametrize("rule", ["median", "trimmed_mean", "mean",
                                      "multi_krum"])
    def test_losses_identical_to_threaded(self, rule):
        spec = small_spec(gradient_rule=rule, model_rule="median")
        expected = threaded_losses(spec)
        runtime = Supervisor(spec.replace(runtime="cluster"))
        actual = losses_of(runtime.run())
        assert actual == expected
        report = runtime.report()
        assert all(node["state"] == "done"
                   for node in report["nodes"].values())

    def test_crash_event_kills_a_real_process(self):
        # worker/3 crashes forever at step 0, so every step runs with
        # exactly gradient_quorum = 3 live senders — the quorum multiset
        # stays scheduling-independent and the trajectories must match.
        # (A later crash step would leave step 0 racing 4 senders for 3
        # quorum slots, which is legitimately nondeterministic.)
        faults = FaultSchedule(events=[
            FaultEvent(step=0, kind="crash", nodes=["worker/3"])])
        spec = small_spec(gradient_quorum=3, num_steps=3, faults=faults)
        expected = threaded_losses(spec)

        runtime = Supervisor(spec.replace(runtime="cluster"))
        actual = losses_of(runtime.run())
        assert actual == expected  # run completed via quorum

        node = runtime.report()["nodes"]["worker/3"]
        assert node["state"] == "killed"
        assert node["exit_codes"] == [-9]  # SIGKILL, a real OS process
        assert node["crashed_steps"] == [0]
        assert node["respawns"] == 0
        # the PID must be demonstrably dead
        with pytest.raises(ProcessLookupError):
            os.kill(node["pids"][0], 0)

    def test_respawn_after_recover_matches_threaded(self):
        # full gradient quorum: while worker/1 is down nobody can assemble
        # a quorum, so every node sits the crash window out (None losses),
        # then the supervisor respawns the process and the run resumes.
        faults = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=["worker/1"]),
            FaultEvent(step=3, kind="recover", nodes=["worker/1"])])
        spec = small_spec(num_steps=4, faults=faults)
        expected = threaded_losses(spec)
        assert None in expected  # the crash window really sat out

        runtime = Supervisor(spec.replace(runtime="cluster"))
        actual = losses_of(runtime.run())
        assert actual == expected

        node = runtime.report()["nodes"]["worker/1"]
        assert node["state"] == "done"
        assert node["respawns"] == 1
        assert node["exit_codes"] == [-9, 0]  # killed, then a fresh process
        assert len(set(node["pids"])) == 2

    @pytest.mark.parametrize("transport", [
        pytest.param("unix", marks=pytest.mark.skipif(
            not unix_sockets_available(), reason="no AF_UNIX here")),
        "tcp"])
    @pytest.mark.parametrize("crashed", ["worker/1", "ps/1"])
    def test_respawn_in_the_very_next_step(self, crashed, transport):
        # The tightest window the schedule can express: the peers sit step
        # 1 out at once and address step 2's frames to a node whose process
        # is being killed and forked again at that moment.  Each frame must
        # fail on the kept connection to the dead incarnation and be
        # retried into the new one's re-bound listener, never swallowed.
        faults = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=[crashed]),
            FaultEvent(step=2, kind="recover", nodes=[crashed])])
        spec = small_spec(num_steps=4, faults=faults)
        expected = threaded_losses(spec)
        assert expected[1] is None and None not in expected[2:]

        runtime = Supervisor(spec.replace(runtime="cluster"),
                             options=ClusterOptions(transport=transport))
        actual = losses_of(runtime.run())
        assert actual == expected

        nodes = runtime.report()["nodes"]
        assert nodes[crashed]["state"] == "done"
        assert nodes[crashed]["respawns"] == 1
        assert nodes[crashed]["exit_codes"] == [-9, 0]
        # whoever sends to the respawned node (servers send to everyone,
        # workers to servers) re-connected to it once, and to nobody else
        for node_id, node in nodes.items():
            sends_to_it = node_id != crashed and (
                node["role"] == "server" or crashed.startswith("ps/"))
            assert node["reconnects"] == ({crashed: 1} if sends_to_it else {})


class TestContentAddressCompatibility:
    # literal values computed with the pre-cluster codebase: adding the
    # `runtime` field must not invalidate any existing store entry
    PINNED_SPEC_HASH = \
        "4c4a20a7e4e5d49c3b6d2815a05161838fc5c6eaa40c7ff5169c0c6a70c5bbce"
    PINNED_GROUP_HASH = \
        "4c6919bfb42a45d27918226fbb01b44785361a7462bf999362a3eaa874bcd519"

    @staticmethod
    def pin_spec() -> ScenarioSpec:
        # every non-default field spelled out: the hash covers all of them
        return ScenarioSpec(name="pin", trainer="guanyu",
                            gradient_rule="median", model_rule="median",
                            num_workers=4, num_servers=3,
                            declared_byzantine_workers=0,
                            declared_byzantine_servers=0,
                            model_quorum=3, gradient_quorum=4,
                            num_steps=2, seed=9)

    def test_absent_runtime_hashes_like_legacy(self):
        spec = self.pin_spec()
        assert spec.runtime is None
        assert spec.spec_hash() == self.PINNED_SPEC_HASH
        assert spec.batch_group_hash() == self.PINNED_GROUP_HASH

    def test_cluster_runtime_changes_the_hash(self):
        spec = self.pin_spec()
        assert spec.replace(runtime="cluster").spec_hash() \
            != self.PINNED_SPEC_HASH

    def test_runtime_roundtrips_through_dict(self):
        spec = small_spec(runtime="cluster")
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.runtime == "cluster"
        assert clone.spec_hash() == spec.spec_hash()

    def test_runtime_requires_threaded_trainer(self):
        # every replicated protocol runs on the cluster; a single-server
        # baseline runs only on the sequential simulator
        with pytest.raises(ValueError, match="single-server"):
            ScenarioSpec(name="bad", trainer="vanilla", gradient_rule="mean",
                         runtime="cluster").validate()

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            small_spec(runtime="quantum").validate()
