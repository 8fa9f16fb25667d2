"""The single-server baselines (vanilla TF, vanilla GuanYu, single-server
Multi-Krum), reached the way every caller reaches them: a
:class:`ScenarioSpec` naming the protocol, run by :func:`repro.run`."""

import hashlib
import json

import pytest

from repro import ScenarioSpec, run
from repro.campaign import AttackSpec, build_trainer
from repro.metrics import throughput_updates_per_second

RANDOM_GRADIENT = AttackSpec("random_gradient", {"scale": 100.0})


def vanilla(**overrides) -> ScenarioSpec:
    """A vanilla-TF run over six workers (mean at one trusted server)."""
    fields = dict(name="vanilla", trainer="vanilla", gradient_rule="mean",
                  num_workers=6, batch_size=16, learning_rate=0.05, seed=2,
                  num_steps=60, eval_every=20)
    fields.update(overrides)
    return ScenarioSpec(**fields)


def krum(**overrides) -> ScenarioSpec:
    """Single-server Multi-Krum over nine workers, f̄ = 2 declared."""
    return vanilla(**{"name": "krum", "trainer": "single_server_krum",
                      "gradient_rule": "multi_krum", "num_workers": 9,
                      "declared_byzantine_workers": 2, **overrides})


class TestVanilla:
    def test_converges_without_byzantine_workers(self):
        assert run(vanilla()).history.final_accuracy() > 0.85

    def test_single_byzantine_worker_destroys_convergence(self):
        """Figure 4: vanilla averaging cannot tolerate even one Byzantine node."""
        history = run(vanilla(worker_attack=RANDOM_GRADIENT,
                              num_attacking_workers=1)).history
        assert history.final_accuracy() < 0.6

    def test_silent_byzantine_worker_is_harmless(self):
        """The paper notes silence is the one Byzantine behaviour vanilla survives."""
        history = run(vanilla(worker_attack="silent_worker",
                              num_attacking_workers=1)).history
        assert history.final_accuracy() > 0.85

    def test_external_communication_adds_time_overhead(self):
        """Section 5.3: vanilla GuanYu is slower than vanilla TF per update."""
        fast = run(vanilla(num_steps=15, eval_every=15)).history
        slow = run(vanilla(num_steps=15, eval_every=15,
                           external_communication=True)).history
        assert slow.total_time() > fast.total_time()
        assert (throughput_updates_per_second(fast)
                > throughput_updates_per_second(slow))

    @pytest.mark.parametrize("overrides, message", [
        (dict(num_workers=0), "num_workers must be positive"),
        (dict(num_workers=4, num_attacking_workers=1),
         "requires a worker_attack"),
        (dict(num_workers=2, worker_attack=RANDOM_GRADIENT,
              num_attacking_workers=3), "more attacking workers than workers"),
    ])
    def test_validation_errors(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            vanilla(**overrides).validate()

    def test_spread_is_zero_with_single_server(self):
        history = run(vanilla(num_workers=4, num_steps=3, eval_every=3)).history
        assert all(record.max_server_spread == 0.0
                   for record in history.records)

    def test_attackers_may_exceed_the_declared_count(self):
        # validation counts a baseline's attackers against n̄ only
        spec = vanilla(declared_byzantine_workers=0, num_steps=3,
                       worker_attack=RANDOM_GRADIENT, num_attacking_workers=2)
        assert len(run(spec).history) == 3


class TestSingleServerKrum:
    def test_tolerates_byzantine_workers_with_trusted_server(self):
        history = run(krum(worker_attack=RANDOM_GRADIENT,
                           num_attacking_workers=2)).history
        assert history.final_accuracy() > 0.85

    def test_rejects_too_few_workers_for_declared_f(self):
        with pytest.raises(ValueError, match="at least 7 inputs"):
            krum(num_workers=5).validate()

    def test_records_declared_f_in_config(self):
        config = build_trainer(krum()).history.config
        assert config["declared_byzantine_workers"] == 2
        assert config["gradient_rule"] == "multi_krum"


# --------------------------------------------------------------------------- #
# Pinned outputs
# --------------------------------------------------------------------------- #
#: Figure 3's ``vanilla_tf`` scenario over the experiments suite's tiny base
FIGURE3_VANILLA = ScenarioSpec(
    name="vanilla_tf", trainer="vanilla", gradient_rule="mean", num_workers=6,
    num_servers=3, declared_byzantine_workers=1, declared_byzantine_servers=0,
    num_steps=8, eval_every=4, dataset_size=600)


def clockless_digest(history) -> str:
    """sha256 of the canonical history JSON without the clock fields
    (``simulated_time``, ``phase_durations``) of its records."""
    payload = history.to_dict()
    for record in payload["records"]:
        del record["simulated_time"], record["phase_durations"]
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedBaselines:
    """Literals recorded while each baseline was a trainer class of its own
    with a step of its own: the step the baselines now share with GuanYu
    must reproduce every loss, accuracy and config bit for bit, and the
    clock to a re-association of one sum."""

    #: name → (overrides of FIGURE3_VANILLA, clockless digest, total_time)
    PINS = {
        "vanilla_tf": ({}, "4c2f458da846807e64e3e68fe996d3b5"
                           "16cb3b554ec306e3d9617a35a48fc919",
                       0.1252910845009612),
        "external_communication": (
            dict(external_communication=True),
            "a05633477b607d5e1860618aa28faecb89b28438d161ec1b956f01749cc9f5cc",
            0.40951924450096094),
        "random_gradient": (
            dict(worker_attack=RANDOM_GRADIENT, num_attacking_workers=1),
            "4fbaea23d66ec6e42f8fe8679752a481b049a49cea2b354d59209ccd79773f0d",
            0.1252910845009612),
        "silent_worker": (
            dict(worker_attack="silent_worker", num_attacking_workers=1),
            "b979062067106819556a58787caaf745804289f427f11d99263915de020b2034",
            0.12443672621821388),
        "hetero": (
            dict(hetero={"profiles": [{"batch_size": 8, "local_steps": 2,
                                       "delay_multiplier": 3.0}]}),
            "ca2bca849d368a74bc34068252abe0026677faa930b9e7f706cacec449cc85e8",
            0.2952200957009612),
        "single_server_krum": (
            dict(trainer="single_server_krum", gradient_rule="multi_krum",
                 num_workers=9, declared_byzantine_workers=2,
                 worker_attack=RANDOM_GRADIENT, num_attacking_workers=2),
            "33a7f368b56e19ed0083c493e01d04d4156a2f0388acf5cfc32d0de4562ae0ca",
            0.23947472536439193),
        "small_cnn": (
            dict(dataset="images", model="small_cnn", num_steps=2,
                 eval_every=1, dataset_size=120, max_eval_samples=32),
            "3cf7ea8edc923b402b65dcc5c0c2d590d759b75284fb7e4cb21d2c4df92a5897",
            0.03213454274784414),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_history_is_pinned(self, name):
        overrides, digest, total_time = self.PINS[name]
        history = run(FIGURE3_VANILLA.replace(name=name, **overrides)).history
        assert clockless_digest(history) == digest
        assert history.total_time() == pytest.approx(total_time, rel=1e-12)
