"""The node fold of the vectorised engine.

``BatchedGuanYuTrainer.step`` treats the nodes of a protocol phase as one
more batch axis: a single quorum collection, one median/GAR call and one
forward/backward serve every node whose stack fits the working-set budget.
These tests pin the fold itself — the multi-recipient quorum rule against
a per-recipient reference, the starvation message, the number of kernel
calls a step makes (so neither an accidental de-fold nor an unbounded fold
can land unnoticed; counts repeat exactly, nothing is timed), and the
hetero mix that folds some workers and walks others.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.batch import BatchedGuanYuTrainer, run_batched_scenarios
from repro.batch.trainer import BatchedExecutionError, _PhaseBuffer
from repro.campaign.spec import ScenarioSpec
from repro.network.message import MessageKind
from repro.runtime import run
from repro.testing import sequential_history

DIMENSION = 3


def reference_collect(times, honest, directed, recipient, quorum, not_before):
    """One recipient's quorum, replica by replica, in plain Python.

    Messages are ranked by delivery time, ties broken by send order (the
    sender index); a directed payload replaces the sender's honest one for
    this recipient only.
    """
    num_senders, num_replicas = times.shape[1], times.shape[2]
    stacks, completion, senders = [], [], []
    for r in range(num_replicas):
        ranked = sorted(range(num_senders),
                        key=lambda s: (times[recipient, s, r], s))[:quorum]
        stacks.append([directed.get((recipient, s), honest[s])[r]
                       for s in ranked])
        completion.append(max(not_before[r],
                              times[recipient, ranked[-1], r]))
        senders.append(ranked)
    return np.array(stacks), np.array(completion), np.array(senders).T


@st.composite
def mailboxes(draw):
    replicas = draw(st.sampled_from([1, 4]))
    recipients = draw(st.integers(1, 4))
    senders = draw(st.integers(2, 5))
    # A small pool of delivery times makes ties (and so the send-order
    # tie-break) common; inf is a message that never arrives.
    time = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5, np.inf])
    times = np.array(draw(st.lists(
        time, min_size=recipients * senders * replicas,
        max_size=recipients * senders * replicas))).reshape(
            recipients, senders, replicas)
    delivered = np.isfinite(times).sum(axis=1).min()
    assume(delivered >= 1)
    quorum = draw(st.integers(1, int(delivered)))
    equivocators = draw(st.integers(0, 2))
    directed_links = draw(st.lists(
        st.tuples(st.integers(0, recipients - 1),
                  st.integers(0, senders - 1)),
        unique=True, max_size=recipients * equivocators))
    # Some recipients are still busy when their quorum completes.
    not_before = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 2.5, 9.0]),
        min_size=recipients * replicas,
        max_size=recipients * replicas))).reshape(recipients, replicas)
    seed = draw(st.integers(0, 2 ** 16))
    return (times, quorum, equivocators, directed_links, not_before, seed)


class TestMultiRecipientCollect:
    @settings(max_examples=200, deadline=None)
    @given(mailboxes())
    def test_equals_the_per_recipient_reference(self, mailbox):
        times, quorum, equivocators, directed_links, not_before, seed = mailbox
        recipients, senders, replicas = times.shape
        rng = np.random.default_rng(seed)
        honest = rng.normal(size=(senders, replicas, DIMENSION))
        buffer = _PhaseBuffer(recipients, senders, replicas, DIMENSION,
                              equivocators)
        for s in range(senders):
            buffer.add_broadcast(s, honest[s], np.isfinite(times[:, s, :]),
                                 times[:, s, :])
        directed = {}
        for j, s in directed_links:
            directed[j, s] = rng.normal(size=(replicas, DIMENSION))
            buffer.add_directed(j, s, directed[j, s],
                                np.isfinite(times[j, s]), times[j, s])

        # Any subset of the recipients, in node order, is one fold.
        fold = [j for j in range(recipients) if (seed >> j) & 1] \
            or list(range(recipients))
        names = [f"node/{j}" for j in range(recipients)]
        stacked, completion, selected = buffer.collect(
            fold, names, quorum, not_before=not_before[fold],
            kind=MessageKind.MODEL_TO_WORKER, step=0)

        assert stacked.shape == (len(fold) * replicas, quorum, DIMENSION)
        for position, j in enumerate(fold):
            want_stack, want_completion, want_senders = reference_collect(
                times, honest, directed, j, quorum, not_before[j])
            rows = slice(position * replicas, (position + 1) * replicas)
            assert np.array_equal(stacked[rows], want_stack)
            assert np.array_equal(completion[position], want_completion)
            assert np.array_equal(selected[position], want_senders)

    def test_buffer_is_reusable_after_reset(self):
        buffer = _PhaseBuffer(2, 3, 1, DIMENSION, num_equivocators=1)
        delivered = np.ones((2, 1), dtype=bool)
        for _ in range(3):  # more steps than directed rows exist
            buffer.reset()
            for s in range(3):
                buffer.add_broadcast(s, np.full((1, DIMENSION), float(s)),
                                     delivered, np.full((2, 1), 1.0 + s))
            for j in range(2):
                buffer.add_directed(j, 0, np.full((1, DIMENSION), 10.0 + j),
                                    np.ones(1, dtype=bool), np.zeros(1))
            stacked, _, selected = buffer.collect(
                [0, 1], ["a", "b"], 2, not_before=np.zeros((2, 1)),
                kind=MessageKind.MODEL_TO_WORKER, step=0)
            assert selected[:, :, 0].tolist() == [[0, 1], [0, 1]]
            assert stacked[:, :, 0].tolist() == [[10.0, 1.0], [11.0, 1.0]]


class TestStarvation:
    def test_names_the_first_starved_recipient_and_its_replicas(self):
        replicas, senders = 3, 4
        buffer = _PhaseBuffer(4, senders, replicas, DIMENSION, 0)
        times = np.ones((4, replicas))
        delivered = np.ones((4, replicas), dtype=bool)
        for s in range(senders):
            buffer.add_broadcast(s, np.zeros((replicas, DIMENSION)),
                                 delivered, times)
        # worker/1 hears two senders in replicas 0 and 2, worker/3 in 1.
        buffer.times[1, 2:, 0] = buffer.times[1, 2:, 2] = np.inf
        buffer.times[3, 2:, 1] = np.inf
        names = [f"worker/{j}" for j in range(4)]
        with pytest.raises(BatchedExecutionError) as raised:
            buffer.collect([0, 1, 2, 3], names, 3,
                           not_before=np.zeros((4, replicas)),
                           kind=MessageKind.MODEL_TO_WORKER, step=7)
        assert str(raised.value) == (
            "replica(s) [0, 2]: worker/1 needed a quorum of 3 "
            "'model_to_worker' messages for step 7 but fewer senders "
            "delivered; falling back to sequential execution")

    def test_a_lone_lane_fails_in_the_simulators_words(self):
        buffer = _PhaseBuffer(2, 4, 1, DIMENSION, 0)
        for s in range(4):
            buffer.add_broadcast(s, np.zeros((1, DIMENSION)),
                                 np.ones((2, 1), dtype=bool), np.ones((2, 1)))
        buffer.times[1, 1:, 0] = np.inf  # ps/1 hears one sender
        with pytest.raises(BatchedExecutionError) as raised:
            buffer.collect([0, 1], ["ps/0", "ps/1"], 3,
                           not_before=np.zeros((2, 1)),
                           kind=MessageKind.MODEL_TO_SERVER, step=4)
        assert str(raised.value) == (
            "ps/1 needed a quorum of 3 'model_to_server' messages for step "
            "4 but only 1 distinct senders delivered")


def count_kernel_calls(trainer, monkeypatch):
    """Wrap the three entry points a step reaches its kernels through."""
    calls = {"model_rule": [], "gradient_rule": [], "forward_backward": []}

    def counting(name, function, shape_of):
        def wrapper(*args):
            calls[name].append(shape_of(*args))
            return function(*args)
        return wrapper

    monkeypatch.setattr(trainer.model_rule, "aggregate_batched", counting(
        "model_rule", trainer.model_rule.aggregate_batched,
        lambda stacked: stacked.shape))
    monkeypatch.setattr(trainer.gradient_rule, "aggregate_batched", counting(
        "gradient_rule", trainer.gradient_rule.aggregate_batched,
        lambda stacked: stacked.shape))
    monkeypatch.setattr(trainer.dense_stack, "forward_backward", counting(
        "forward_backward", trainer.dense_stack.forward_backward,
        lambda flat, features, labels: flat.shape))
    return calls


class TestKernelCallCounts:
    def test_paper_grid_shape_is_one_call_per_phase(self, monkeypatch):
        # 9 workers + 6 servers, D = 36, one lane: every node of a phase
        # shares one stack.
        trainer = BatchedGuanYuTrainer([ScenarioSpec(name="grid", seed=3)])
        calls = count_kernel_calls(trainer, monkeypatch)
        trainer.step(0)
        d = trainer.num_parameters
        assert calls["model_rule"] == [(9, 5, d), (6, 5, d)]
        assert calls["gradient_rule"] == [(6, 7, d)]
        assert calls["forward_backward"] == [(9, d)]

    def test_seed_group_folds_nodes_and_replicas_together(self, monkeypatch):
        trainer = BatchedGuanYuTrainer(
            [ScenarioSpec(name=f"s{seed}", seed=seed) for seed in range(4)])
        calls = count_kernel_calls(trainer, monkeypatch)
        trainer.step(0)
        d = trainer.num_parameters
        assert calls["model_rule"] == [(36, 5, d), (24, 5, d)]
        assert calls["gradient_rule"] == [(24, 7, d)]
        assert calls["forward_backward"] == [(36, d)]

    # The ledger's wide_gar shape: at D = 30,730 one node's quorum stack
    # already fills the working-set budget.
    WIDE = dict(dataset="images", image_size=32, model="softmax",
                num_workers=30, num_servers=9, declared_byzantine_workers=6,
                declared_byzantine_servers=2, batch_size=8, dataset_size=240,
                max_eval_samples=16)

    def test_wide_model_keeps_one_node_per_call(self, monkeypatch):
        trainer = BatchedGuanYuTrainer([ScenarioSpec(
            name="wide", seed=3, **self.WIDE)])
        d = trainer.num_parameters
        assert d == 30730
        every_worker = list(range(30))
        assert trainer._folds(every_worker, trainer.config.model_quorum) \
            == [[index] for index in every_worker]
        calls = count_kernel_calls(trainer, monkeypatch)
        trainer.step(0)
        model_quorum = trainer.config.model_quorum
        gradient_quorum = trainer.config.gradient_quorum
        assert calls["model_rule"] == [(1, model_quorum, d)] * (30 + 9)
        assert calls["gradient_rule"] == [(1, gradient_quorum, d)] * 9
        assert calls["forward_backward"] == [(1, d)] * 30

    @pytest.mark.parametrize("shape, folds", [({}, 1), (WIDE, 9)])
    def test_geometric_median_enters_weiszfeld_once_per_fold(
            self, monkeypatch, shape, folds):
        # A fold is one Weiszfeld run over its whole stack — and the
        # wide_gar shape, one node to a fold, stays at one run per server.
        trainer = BatchedGuanYuTrainer([ScenarioSpec(
            name="gm", gradient_rule="geometric_median", seed=3, **shape)])
        rule = trainer.gradient_rule
        entries = []

        def recording(shapes, function):
            def wrapper(stacked):
                shapes.append(stacked.shape)
                return function(stacked)
            return wrapper

        monkeypatch.setattr(rule, "_aggregate_batched",
                            recording(entries, rule._aggregate_batched))
        trainer.step(0)
        nodes = trainer.config.num_servers // folds
        assert entries == [(nodes, trainer.config.gradient_quorum,
                            trainer.num_parameters)] * folds


class TestHeteroMix:
    """Workers with one local step fold per batch shape; a worker with
    ``local_steps > 1`` walks on its own — in the same draw order."""

    HETERO = {"partition": "dirichlet", "alpha": 0.8, "min_samples": 16,
              "profiles": [{"local_steps": 3}, {}, {"batch_size": 4},
                           {"batch_size": 4, "local_steps": 3,
                            "delay_multiplier": 1.5}, {}]}

    def _spec(self, seed, **fields):
        return ScenarioSpec(name=f"mix-{seed}", num_steps=5, eval_every=2,
                            dataset_size=400, seed=seed,
                            hetero=dict(self.HETERO), **fields)

    def test_one_lane_equals_the_simulator(self):
        spec = self._spec(21, worker_attack="little_is_enough")
        result = run(spec)
        assert result.runtime == "batched"
        assert result.history.to_dict() == sequential_history(spec).to_dict()

    def test_seed_group_equals_the_simulator(self):
        specs = [self._spec(seed) for seed in (21, 22, 23)]
        for spec, history in zip(specs, run_batched_scenarios(specs)):
            assert history.to_dict() == sequential_history(spec).to_dict()

    def test_mix_folds_by_batch_shape(self, monkeypatch):
        trainer = BatchedGuanYuTrainer([self._spec(21)])
        calls = count_kernel_calls(trainer, monkeypatch)
        trainer.step(0)
        d = trainer.num_parameters
        # 9 workers cycle through 5 profiles: workers 0, 3, 5 and 8 walk
        # three local steps each (12 one-worker calls); 1, 4 and 6 fold on
        # the default batch shape, 2 and 7 on batch size 4.
        walked = [shape for shape in calls["forward_backward"]
                  if shape == (1, d)]
        folded = [shape for shape in calls["forward_backward"]
                  if shape != (1, d)]
        assert len(walked) == 12
        assert sorted(folded) == sorted([(3, d), (2, d)])
