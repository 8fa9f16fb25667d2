"""Lane-sharded batched execution is bit-identical to single-process.

``run_batched_scenarios(specs, lanes=N)`` splits a seed group's replica
lanes into contiguous chunks executed across a process pool.  Because
every lane is fully independent, the merged histories must equal the
single-process batched run **bitwise** — which the tier-1 batched
equivalence suite in turn pins to the sequential trainer.  The cases here
deliberately span the hard axes: attacks with per-lane RNG, fault
schedules with probabilistic drops, and non-i.i.d. hetero partitions.
"""

import pytest

from repro.batch import (
    BatchingUnsupported,
    run_batched_scenarios,
)
from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule
from repro.kernels import use_backend

SEEDS = (21, 22, 23, 24, 25)


def _small(**overrides):
    base = dict(num_steps=6, eval_every=3, dataset_size=400,
                max_eval_samples=64)
    base.update(overrides)
    return base


def _specs(tag, **fields):
    return [ScenarioSpec(name=f"{tag}{seed}", seed=seed, **_small(**fields))
            for seed in SEEDS]


def assert_sharded_identical(specs, lanes=2):
    single = run_batched_scenarios([spec.replace() for spec in specs])
    sharded = run_batched_scenarios([spec.replace() for spec in specs],
                                    lanes=lanes)
    assert len(single) == len(sharded) == len(specs)
    for lone, merged in zip(single, sharded):
        assert lone.to_dict() == merged.to_dict()
    return sharded


class TestBitIdentity:
    def test_plain_softmax(self):
        assert_sharded_identical(_specs("p"))

    def test_uneven_chunks(self):
        # 5 specs over 3 lanes → chunks of 2/2/1; order must be preserved.
        assert_sharded_identical(_specs("u"), lanes=3)

    def test_worker_attack_with_rng(self):
        assert_sharded_identical(
            _specs("w", worker_attack="random_gradient"))

    def test_adversary(self):
        assert_sharded_identical(_specs("a", adversary="collusion"))

    def test_fault_schedule_with_drops(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=2, kind="crash", nodes=["ps/1"]),
            FaultEvent(step=4, kind="recover", nodes=["ps/1"]),
        ], duplicate_rate=0.05)
        assert_sharded_identical(_specs("f", faults=schedule.to_dict()))

    def test_hetero_partition(self):
        hetero = {"partition": "dirichlet", "alpha": 0.5, "min_samples": 16}
        assert_sharded_identical(_specs("h", hetero=hetero))

    def test_numpy_opt_backend_propagates_to_chunk_workers(self):
        specs = _specs("k")
        with use_backend("reference"):
            want = run_batched_scenarios([spec.replace() for spec in specs])
        with use_backend("numpy-opt"):
            got = run_batched_scenarios([spec.replace() for spec in specs],
                                        lanes=2)
        for reference, sharded in zip(want, got):
            assert reference.to_dict() == sharded.to_dict()


class TestValidation:
    def test_mixed_group_rejected_in_parent(self):
        # The specs differ in more than seed/name; over two lanes each
        # chunk of one would be internally consistent, so only a
        # parent-side cross-check can catch the mix.
        specs = [ScenarioSpec(name="a", seed=1, **_small()),
                 ScenarioSpec(name="b", seed=2, **_small(batch_size=8))]
        with pytest.raises(ValueError, match="differ only"):
            run_batched_scenarios(specs, lanes=2)

    def test_non_positive_lanes_rejected(self):
        with pytest.raises(ValueError, match="lanes"):
            run_batched_scenarios(_specs("n"), lanes=0)

    def test_unbatchable_spec_raises_batching_unsupported(self):
        spec = ScenarioSpec(name="t", trainer="guanyu_threaded",
                            num_steps=4)
        with pytest.raises(BatchingUnsupported):
            run_batched_scenarios([spec], lanes=2)

    def test_chunk_size_covering_all_specs_stays_single_process(
            self, monkeypatch):
        # a lone spec is one chunk whatever the lanes: no pool is spawned
        # and the call degenerates to the single-process path.
        monkeypatch.setattr("repro.batch.trainer.multiprocessing.get_context",
                            lambda: pytest.fail("a pool was spawned"))
        histories = run_batched_scenarios(_specs("s")[:1], lanes=4)
        assert len(histories) == 1


class TestEnginePlumbing:
    def test_run_campaign_lanes_matches_unsharded(self):
        specs = _specs("e")
        plain = run_campaign([spec.replace() for spec in specs],
                             batch_seeds=True)
        sharded = run_campaign([spec.replace() for spec in specs],
                               batch_seeds=True, lanes=2)
        assert [outcome.status for outcome in sharded.outcomes] == \
            [outcome.status for outcome in plain.outcomes]
        assert all(outcome.batched for outcome in sharded.outcomes
                   if outcome.status == "ran")
        for name, history in plain.histories().items():
            assert history.to_dict() == sharded.histories()[name].to_dict()

    def test_run_campaign_lanes_with_pool_and_mixed_tasks(self):
        # Batch groups run lane-sharded in the foreground while the lone
        # (unbatchable-by-grouping) scenarios go to the scenario pool.
        specs = _specs("m") + [
            ScenarioSpec(name="lone", seed=99,
                         **_small(learning_rate=0.04))]
        plain = run_campaign([spec.replace() for spec in specs],
                             batch_seeds=True)
        sharded = run_campaign([spec.replace() for spec in specs],
                               batch_seeds=True, lanes=2, processes=2)
        assert sharded.counts()["failed"] == 0
        for name, history in plain.histories().items():
            assert history.to_dict() == sharded.histories()[name].to_dict()
