"""Vectorised multi-replica GuanYu runtime.

:class:`BatchedGuanYuTrainer` executes ``R`` seeds of **one** scenario in a
single process by stacking every per-replica quantity along a leading
replica axis:

* server parameters are ``(R, D)`` arrays (one row per replica),
* the vectors entering an aggregation are ``(R, n, D)`` stacks routed
  through :meth:`GradientAggregationRule.aggregate_batched`,
* worker gradients come from the replica-batched dense plan
  (:mod:`repro.nn.plan`),
* the nodes of a protocol phase all run the same operation, so they fold
  into that leading axis too: one quorum collection, one median/GAR call
  and one forward/backward serve ``J`` nodes as a ``(J·R, ...)`` stack,
  ``J`` bounded by :data:`_FOLD_BUDGET`,
* simulated clocks and message delivery times are ``(R,)`` arrays,
* a worker attack that declares ``WorkerAttack.pure`` answers once per
  (worker, step) for every lane and recipient.

Everything that must differ per replica stays per replica: each lane owns
the delay generator the sequential :class:`NetworkSimulator` would have
used (seeded with the replica's seed and consumed in the identical order),
its own data loaders, attack instances and attack generators, and its own
:class:`~repro.faults.FaultController` for probabilistic drop decisions.
The result is **bit-identical per seed** to running the scenario through
:class:`~repro.core.trainer.GuanYuTrainer` — the tier-1 equivalence test
(``tests/test_batch_equivalence.py``) compares full histories.

Scenarios the batched formulation cannot express (convolutional models,
non-``guanyu`` trainers) raise :class:`BatchingUnsupported`; the default
dispatch never sends them here, and ``runtime: "batched"`` on one fails
validation.  Transient conditions a single replica would have failed on
(quorum starvation under heavy message loss) raise
:class:`BatchedExecutionError`.  The campaign
engine re-runs a failed group one scenario at a time, so one starved seed
cannot fail its siblings; a lone lane's error *is* the scenario's outcome
(for quorum starvation, the sequential simulator's sentence word for
word), so neither ``--batch-seeds`` nor the default R = 1 dispatch can
change an outcome.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import AttackContext
from repro.aggregation import (
    get_rule,
    pairwise_squared_distances_batched,
    record_decision,
)
from repro.kernels import active_backend
from repro.core.nodes import (
    GradientResult,
    apply_server_attack,
    apply_worker_attack,
    poison_worker_batch,
)
from repro.core.wiring import ClusterWiring
from repro.faults import FaultController
from repro.faults.controller import LinkTable
from repro.metrics.accuracy import plan_accuracy
from repro.nn.plan import (
    BATCHABLE_MODELS,
    BatchedDenseStack,
    BatchingUnsupported,
)
from repro.obs.history import StepRecord, TrainingHistory
from repro.obs.telemetry import get_registry, phase
from repro.obs.tracer import get_tracer
from repro.network.message import ROUTES, MessageKind
from repro.runtime.facade import TRAINERS


#: float64 elements a folded ``(J·R, q, D)`` quorum stack may hold: 2 MiB, an
#: L2-sized working set.  A larger stack leaves the cache and folding stops
#: paying, so at D = 30,730 a fold is a single node.
_FOLD_BUDGET = 1 << 18


class BatchedExecutionError(RuntimeError):
    """A replica hit a condition the batched runtime cannot isolate.

    The campaign engine re-runs the affected group scenario by scenario;
    raised by a lone lane it is that scenario's own failure.
    """


def spec_supports_batching(spec) -> bool:
    """Whether a :class:`ScenarioSpec` can run on the batched runtime: its
    trainer's row of :data:`repro.runtime.facade.TRAINERS` lists it, and
    its model is a dense stack."""
    return ("batched" in TRAINERS[spec.trainer].runtimes
            and spec.model in BATCHABLE_MODELS)


def _check_group(specs: Sequence) -> None:
    """Raise unless ``specs`` are seeds of one configuration the batched
    runtime can express."""
    if specs and not spec_supports_batching(specs[0]):
        raise BatchingUnsupported(
            f"trainer '{specs[0].trainer}' / model '{specs[0].model}' has "
            f"no batched formulation")
    payloads = [{key: value for key, value in spec.to_dict().items()
                 if key not in ("name", "seed")} for spec in specs]
    if any(payload != payloads[0] for payload in payloads[1:]):
        raise ValueError("batched execution requires scenarios that differ "
                         "only in seed (and name)")


# --------------------------------------------------------------------------- #
# Per-replica state
# --------------------------------------------------------------------------- #
class _Lane:
    """Everything that is private to one replica."""

    __slots__ = ("spec", "seed", "test_dataset", "model", "loaders",
                 "worker_rngs", "server_rngs", "worker_attacks",
                 "server_attacks", "delay_rng", "fault_controller", "history")

    def __init__(self) -> None:
        self.fault_controller: Optional[FaultController] = None


class _PhaseBuffer:
    """Vectorised mailboxes of one protocol phase.

    ``times[j, s, r]`` is the delivery time of sender ``s``'s message to
    recipient ``j`` in replica ``r`` (``inf`` when suppressed or silent).
    Honest payloads are stored once per sender (``(R, D)``); a Byzantine
    per-recipient (possibly equivocating) send gets a payload row of its
    own, and ``_rows[j, s]`` names the row recipient ``j`` reads sender
    ``s`` from.  Quorum collection replays the sequential simulator's rule
    exactly: messages are ranked by delivery time with ties broken by send
    order, which the stable argsort over the send-ordered sender axis
    reproduces.
    """

    def __init__(self, num_recipients: int, num_senders: int,
                 num_replicas: int, dimension: int,
                 num_equivocators: int) -> None:
        self.times = np.full((num_recipients, num_senders, num_replicas),
                             np.inf)
        self.payloads = np.zeros(
            (num_senders + num_recipients * num_equivocators, num_replicas,
             dimension))
        self._rows = np.empty((num_recipients, num_senders), dtype=np.intp)
        self._lanes = np.arange(num_replicas)
        self.reset()

    def reset(self) -> None:
        """Make the buffer reusable for the next step.

        Payload storage is reused as-is: a stale row belongs to a sender
        whose times are ``inf`` (it can never enter a quorum — starvation
        raises first) or to a directed send no recipient points at.
        """
        self.times.fill(np.inf)
        self._rows[:] = np.arange(self._rows.shape[1])
        self._next_row = self._rows.shape[1]

    def add_broadcast(self, sender_index: int, payload: np.ndarray,
                      delivered: np.ndarray, times: np.ndarray) -> None:
        """Record one broadcast: same payload to every recipient (an honest
        send, or a pure attack's one answer for all of them)."""
        self.payloads[sender_index] = payload
        self.times[:, sender_index, :] = np.where(delivered, times, np.inf)

    def add_directed(self, recipient_index: int, sender_index: int,
                     payload_rows: np.ndarray, present: np.ndarray,
                     times: np.ndarray) -> None:
        """Record one per-recipient (possibly equivocating) send.

        ``present`` marks replicas whose attack produced a message at all
        (silent replicas deliver nothing); ``payload_rows`` is ``(R, D)``
        with arbitrary content on silent rows.
        """
        self.times[recipient_index, sender_index, :] = np.where(
            present, times, np.inf)
        self.payloads[self._next_row] = payload_rows
        self._rows[recipient_index, sender_index] = self._next_row
        self._next_row += 1

    def collect(self, recipient_indices: Sequence[int],
                recipient_ids: Sequence[str], quorum: int,
                not_before: np.ndarray, *, kind: MessageKind, step: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The quorums of ``J`` recipients in one gather: first-``quorum``
        payload stack ``(J·R, q, D)`` (slice ``j·R + r`` is what recipient
        ``j`` aggregates in replica ``r``), completion times ``(J, R)`` and
        the quorums' sender indices ``(J, q, R)`` in quorum order.

        ``kind`` and ``step`` only name the phase in the starvation error;
        a lone lane's is the sequential simulator's sentence, word for word.
        """
        recipient_indices = np.asarray(recipient_indices)
        times = self.times[recipient_indices]  # (J, S, R)
        selected = np.argsort(times, axis=1, kind="stable")[:, :quorum]
        last = times[np.arange(len(times))[:, None], selected[:, quorum - 1],
                     self._lanes]  # (J, R)
        starved = ~np.isfinite(last)
        if starved.any():
            first = int(np.argmax(starved.any(axis=1)))
            needed = (f"{recipient_ids[recipient_indices[first]]} needed a "
                      f"quorum of {quorum} '{kind.value}' messages for step "
                      f"{step}")
            if len(self._lanes) == 1:
                raise BatchedExecutionError(
                    f"{needed} but only "
                    f"{int(np.isfinite(times[first, :, 0]).sum())} distinct "
                    f"senders delivered")
            raise BatchedExecutionError(
                f"replica(s) {np.nonzero(starved[first])[0].tolist()}: "
                f"{needed} but fewer senders delivered; falling back to "
                f"sequential execution")
        rows = self._rows[recipient_indices[:, None, None], selected]
        stacked = self.payloads[rows.transpose(0, 2, 1),
                                self._lanes[None, :, None]]  # (J, R, q, D)
        return (stacked.reshape((-1,) + stacked.shape[2:]),
                np.maximum(not_before, last), selected)


# --------------------------------------------------------------------------- #
# The batched trainer
# --------------------------------------------------------------------------- #
class BatchedGuanYuTrainer:
    """Run ``R`` seeds of one GuanYu scenario in lock-step, vectorised.

    Parameters
    ----------
    specs:
        Validated :class:`~repro.campaign.spec.ScenarioSpec` instances that
        are identical except for ``name`` and ``seed`` — one per replica.
        Replica ``r`` reproduces, bit for bit, the history the sequential
        trainer produces for ``specs[r]``.

    Raises
    ------
    BatchingUnsupported
        For scenarios outside the batched envelope (non-``guanyu`` trainer,
        convolutional model).
    ValueError
        For specs that differ in anything but name/seed, or fail the same
        admissibility checks the sequential trainer applies.
    """

    def __init__(self, specs: Sequence) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("need at least one scenario spec")
        _check_group(specs)
        base = specs[0]
        self.specs = specs
        self.num_replicas = len(specs)
        self.config = base.cluster_config()
        self.gradient_rule_name = base.gradient_rule
        self.model_rule_name = base.model_rule
        self.cost_model = base.build_cost_model()
        self.delay_model = base.build_delay_model()

        self.worker_ids = self.config.worker_ids()
        self.server_ids = self.config.server_ids()
        num_attacking_workers = base.resolved_num_attacking_workers()
        num_attacking_servers = base.resolved_num_attacking_servers()

        self.gradient_rule = get_rule(
            self.gradient_rule_name,
            num_byzantine=self.config.num_byzantine_workers)
        self.model_rule = get_rule(
            self.model_rule_name,
            num_byzantine=self.config.num_byzantine_servers)

        self.lanes: List[_Lane] = []
        for spec in specs:
            lane, wiring = self._build_lane(spec)
            if not self.lanes:
                # Placement, profiles, schedule and fault participation
                # are seed-independent: lane 0's wiring speaks for the
                # group.
                self._wiring = wiring
                self.attacking_workers = wiring.attacking_workers
                self.attacking_servers = wiring.attacking_servers
                self.profiles = wiring.profiles
                self.schedule = wiring.schedule
                template = lane.model
            self.lanes.append(lane)

        # Hetero partitions vary per seed, and a shard smaller than the
        # requested batch size clamps its loader — per-lane batch shapes
        # would then disagree and the (R, B, ...) stacks could not form.
        for index in range(len(self.worker_ids)):
            lane_batch_sizes = {lane.loaders[index].batch_size
                                for lane in self.lanes}
            if len(lane_batch_sizes) > 1:
                raise BatchedExecutionError(
                    f"worker {self.worker_ids[index]}: per-seed hetero "
                    f"partitions clamp the batch size differently across "
                    f"replicas ({sorted(lane_batch_sizes)}); falling back "
                    f"to sequential execution")

        # each lane's shards are row views of one block (partition_dataset)
        self._blocks = [lane.loaders[0].dataset.block for lane in self.lanes]
        self._starts = np.array([[loader.dataset.start
                                  for loader in lane.loaders]
                                 for lane in self.lanes])
        self.dense_stack = BatchedDenseStack(template)
        self.num_parameters = template.num_parameters()
        self.billed_parameters = (base.billed_parameters
                                  if base.billed_parameters
                                  else self.num_parameters)
        self._message_bytes = 64 + 4 * self.num_parameters
        self._serialization = self.cost_model.serialization_time(
            self.billed_parameters)
        self.has_faults = base.faults is not None
        #: (sender ids, recipient ids) and mailboxes of each kind's route
        self._endpoints = {kind: route.of(self.worker_ids, self.server_ids)
                           for kind, route in ROUTES.items()}
        self._buffers = {
            kind: _PhaseBuffer(len(recipients), len(senders),
                               self.num_replicas, self.num_parameters,
                               len(ROUTES[kind].of(self.attacking_workers,
                                                   self.attacking_servers)[0]))
            for kind, (senders, recipients) in self._endpoints.items()}

        # θ stack: server axis × replica axis × parameter axis.  Every
        # replica starts all of its servers from that replica's θ0.
        theta0 = np.stack([lane.model.get_flat_parameters()
                           for lane in self.lanes])  # (R, D)
        self.theta = np.broadcast_to(
            theta0, (len(self.server_ids),) + theta0.shape).copy()
        self.worker_clock = np.zeros((len(self.worker_ids),
                                      self.num_replicas))
        self.server_clock = np.zeros((len(self.server_ids),
                                      self.num_replicas))

        self._correct_server_idx = [
            index for index, server_id in enumerate(self.server_ids)
            if server_id not in self.attacking_servers]
        self._attacking_worker_idx = {
            index for index, worker_id in enumerate(self.worker_ids)
            if worker_id in self.attacking_workers}

        shared_config = {
            **self.config.as_dict(),
            "batch_size": base.batch_size,
            "gradient_rule": self.gradient_rule_name,
            "model_rule": self.model_rule_name,
            "num_attacking_workers": num_attacking_workers,
            "num_attacking_servers": num_attacking_servers,
            "worker_attack": (base.worker_attack.name
                              if base.worker_attack else None),
            "server_attack": (base.server_attack.name
                              if base.server_attack else None),
            "adversary": base.adversary.name if base.adversary else None,
            "faults": base.faults.to_dict() if base.faults else None,
            "hetero": base.hetero.to_dict() if base.hetero else None,
        }
        for lane in self.lanes:
            lane.history.config = dict(shared_config)

    # ------------------------------------------------------------------ #
    def _build_lane(self, spec) -> Tuple[_Lane, ClusterWiring]:
        """One replica's private state from the scenario wiring: loaders,
        rng streams and (fault-gated) attack maps — no node objects.

        Each replica owns a full, independent attack/adversary set (state
        and derived randomness keyed by the lane's own seed), replayed in
        the same order the sequential trainer would have driven it.
        """
        wiring, test, model_fn = ClusterWiring.from_spec(spec)
        lane = _Lane()
        lane.spec = spec
        lane.seed = spec.seed
        lane.test_dataset = test
        lane.model = model_fn()
        lane.delay_rng = np.random.default_rng(spec.seed)
        lane.fault_controller = wiring.faults
        lane.loaders = [wiring.loader(index)
                        for index in range(len(self.worker_ids))]
        lane.worker_rngs = [
            np.random.default_rng(wiring.worker_rng_seed(index))
            for index in range(len(self.worker_ids))]
        lane.server_rngs = [
            np.random.default_rng(wiring.server_rng_seed(index))
            for index in range(len(self.server_ids))]
        lane.worker_attacks = wiring.worker_attacks
        lane.server_attacks = wiring.server_attacks
        lane.history = TrainingHistory(label=spec.name)
        return lane, wiring

    # ------------------------------------------------------------------ #
    # Fault / delay plumbing (one phase at a time, vectorised over lanes)
    # ------------------------------------------------------------------ #
    def _delivered(self, links: LinkTable, senders: List[int],
                   kind: MessageKind, step: int) -> np.ndarray:
        """Delivery masks of ``senders``' messages to every recipient of
        the phase: ``(S, J)`` when every lane agrees, else ``(R, S, J)``.

        Crash, partition and delay verdicts are the same in every lane
        (lane 0's compiled table speaks for all); only a lossy link's drop
        is sampled per lane, from that lane's own controller hash.
        """
        deliver = links.deliver[senders]
        lossy = deliver & (links.drop_rate[senders] > 0)
        if not lossy.any():
            return deliver
        delivered = np.repeat(deliver[None], self.num_replicas, axis=0)
        sender_ids, recipient_ids = self._endpoints[kind]
        for s, j in zip(*np.nonzero(lossy)):
            rate = links.drop_rate[senders[s], j]
            for r, lane in enumerate(self.lanes):
                delivered[r, s, j] = not lane.fault_controller.dropped(
                    sender_ids[senders[s]], recipient_ids[j], kind.value,
                    step, rate)
        return delivered

    def _scatter(self, kind: MessageKind, step: int, active, payloads,
                 clock: np.ndarray, phase_start: np.ndarray, corrupt,
                 peers: Sequence[np.ndarray] = ()) -> _PhaseBuffer:
        """``kind``'s buffer, filled with the step's sends of every sender
        of its route (:data:`~repro.network.message.ROUTES`) in ``active``.

        An honest sender ``s`` sends ``payloads[s]`` ``(R, D)`` at
        ``clock[s]`` (:meth:`_flush_merged`).  A Byzantine one sends on the
        covert channel at ``phase_start``: no base delay and no draw, like
        the simulator's ``delay_override=0.0``, though a fault's extra
        delay still applies.  A pure attack (only worker attacks declare
        it) answers once, at ``payloads[s]`` and ``peers``, for every
        recipient and lane; any other is asked ``corrupt(s, r,
        recipient)`` recipient by recipient, lane by lane — the order the
        sequential trainer drives its generators in.
        """
        buffer = self._buffers[kind]
        buffer.reset()
        sender_ids, recipient_ids = self._endpoints[kind]
        links = (self.lanes[0].fault_controller.link_table(
            sender_ids, recipient_ids, step) if self.has_faults else None)
        attacks = ROUTES[kind].of(self.lanes[0].worker_attacks,
                                  self.lanes[0].server_attacks)[0]
        shape = (len(recipient_ids), self.num_replicas)
        honest: List[int] = []
        for s_index, sender_id in enumerate(sender_ids):
            if sender_id not in active:
                continue
            attack = attacks[sender_id]
            if attack is None:
                honest.append(s_index)
                continue
            delivered = np.ones(shape, dtype=bool)
            times = np.broadcast_to(phase_start, shape)
            if links is not None:
                delivered = np.broadcast_to(
                    self._delivered(links, [s_index], kind, step),
                    (self.num_replicas, 1, shape[0]))[:, 0].T
                times = phase_start + links.extra_delay[s_index][:, None]
            if getattr(attack, "pure", False):
                value = attack.corrupt_gradient(AttackContext(
                    step=step, honest_value=payloads[s_index],
                    peer_values=peers, rng=None))
                present = value is not None
                buffer.add_broadcast(s_index, value if present else 0.0,
                                     delivered & present, times)
                continue
            for j, recipient_id in enumerate(recipient_ids):
                rows = np.zeros((self.num_replicas, self.num_parameters))
                present = np.zeros(self.num_replicas, dtype=bool)
                for r in range(self.num_replicas):
                    value = corrupt(s_index, r, recipient_id)
                    if value is not None:
                        rows[r], present[r] = value, True
                buffer.add_directed(j, s_index, rows, present & delivered[j],
                                    times[j])
        self._flush_merged(buffer, kind, step, honest, payloads, clock, links)
        return buffer

    def _flush_merged(self, buffer: _PhaseBuffer, kind: MessageKind,
                      step: int, senders: List[int], payloads,
                      clock: np.ndarray, links: Optional[LinkTable]) -> None:
        """Record a phase's honest broadcasts with one delay draw per lane.

        ``senders`` are the honest senders' indices in send order; sender
        ``s`` sends ``payloads[s]`` ``(R, D)`` at ``clock[s]`` plus the
        serialisation time.  The simulator draws one latency per delivered
        message, sender by sender and recipient by recipient, from one
        generator per lane; a server's message to itself and a blocked or
        dropped message draw nothing.  Every latency is link-independent,
        so those draws are one ``sample_batch`` request per lane (the
        ``latency_batch`` contract), scattered into the drawn slots; a
        delivered message then arrives at ``send_time + delay·factor +
        extra``, the simulator's ops in its order.  Without faults (no
        ``links``) the factor and extra are skipped and all slots deliver.
        """
        if not senders:
            return
        for s_index in senders:
            buffer.payloads[s_index] = payloads[s_index]
        shape = (self.num_replicas, len(senders),
                 len(self._endpoints[kind][1]))
        drawn = np.ones(shape[1:], dtype=bool)
        if ROUTES[kind].senders == ROUTES[kind].recipients:
            drawn[np.arange(len(senders)), senders] = False
        if links is not None:
            delivered = self._delivered(links, senders, kind, step)
            drawn = drawn & delivered
        delays = np.zeros(shape)
        if drawn.ndim == 2:  # every lane draws into the same slots
            draws = np.empty((self.num_replicas, int(drawn.sum())))
            for r, lane in enumerate(self.lanes):
                draws[r] = self.delay_model.sample_batch(
                    lane.delay_rng, self._message_bytes, draws.shape[1])
            delays[:, drawn] = draws
        else:
            for r, lane in enumerate(self.lanes):
                delays[r][drawn[r]] = self.delay_model.sample_batch(
                    lane.delay_rng, self._message_bytes, int(drawn[r].sum()))
        if links is not None:
            delays = delays * links.delay_factor[senders] \
                + links.extra_delay[senders]
        send_time = clock[senders] + self._serialization  # (S, R)
        times = send_time.T[:, :, None] + delays
        if links is not None:
            times = np.where(delivered, times, np.inf)
        buffer.times[:, senders, :] = times.transpose(2, 1, 0)

    def _server_spreads(self) -> np.ndarray:
        """Per-replica ``max_pairwise_distance`` over the correct servers.

        One batched Gram kernel replaces R sequential calls; like the
        sequential helper, the winning pair's norm is re-evaluated directly
        so exact agreement reports exactly zero.
        """
        if len(self._correct_server_idx) < 2:
            return np.zeros(self.num_replicas)
        stacked = np.ascontiguousarray(
            self.theta[self._correct_server_idx].transpose(1, 0, 2))
        squared = pairwise_squared_distances_batched(stacked)
        n = stacked.shape[1]
        winners = squared.reshape(self.num_replicas, -1).argmax(axis=1)
        rows, cols = np.unravel_index(winners, (n, n))
        return np.array([
            float(np.linalg.norm(stacked[r, rows[r]] - stacked[r, cols[r]]))
            for r in range(self.num_replicas)])

    # ------------------------------------------------------------------ #
    # Protocol helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mean_over_nodes(clock: np.ndarray, indices: List[int]) -> np.ndarray:
        """Per-replica mean of ``clock[indices]`` — sequential-identical.

        The sequential trainer means a 1-D list per replica, which NumPy
        reduces with its pairwise base case; reducing the *outer* axis of a
        2-D slice uses a different accumulation order once more than eight
        nodes are involved.  Transposing to a contiguous last-axis
        reduction restores the 1-D order bit for bit.
        """
        return np.mean(np.ascontiguousarray(clock[indices].T), axis=1)

    def _folds(self, indices: List[int], quorum: int) -> List[List[int]]:
        """``indices`` cut into runs of nodes whose shared ``(J·R, q, D)``
        quorum stack stays within :data:`_FOLD_BUDGET`."""
        size = max(1, _FOLD_BUDGET // (self.num_replicas * quorum
                                       * self.num_parameters))
        return [indices[start:start + size]
                for start in range(0, len(indices), size)]

    def _draw_fold(self, workers: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The next mini-batch of each of ``workers`` (one batch size) in
        every lane: ``(J, R, B, …)`` features and ``(J, R, B)`` labels.

        Each (worker, lane) index row is the next row of that loader's own
        stream, offset by the shard's start in its lane's block; each
        lane's rows are then one gather from the block.
        """
        loader = self.lanes[0].loaders[workers[0]]
        shape = (len(workers), self.num_replicas, loader.batch_size)
        rows = np.concatenate([
            lane.loaders[w].next_indices()
            for lane in self.lanes for w in workers]).reshape(
                self.num_replicas, len(workers), -1) \
            + self._starts[:, workers, None]
        features = np.empty(shape + loader.dataset.feature_shape)
        labels = np.empty(shape, dtype=np.int64)
        for r, block in enumerate(self._blocks):
            features[:, r] = block.features.take(rows[r], axis=0)
            labels[:, r] = block.labels.take(rows[r], axis=0)
        return features, labels

    def _poison(self, w_index: int, theta: np.ndarray, step_index: int,
                features: np.ndarray, labels: np.ndarray) -> None:
        """Run worker ``w_index``'s data-poisoning hook lane by lane on its
        ``(R, B, …)`` batch, in place, at ``theta`` ``(R, D)`` — the
        parameters the gradient is computed at, exactly like
        :meth:`WorkerNode.compute_gradient`."""
        worker_id = self.worker_ids[w_index]
        for r, lane in enumerate(self.lanes):
            attack = lane.worker_attacks[worker_id]
            if attack is not None and attack.poisons:
                features[r], labels[r] = poison_worker_batch(
                    attack, lane.worker_rngs[w_index], theta[r], step_index,
                    features[r], labels[r])

    def _worker_gradients(self, workers: List[int], models: np.ndarray,
                          step_index: int) -> List[tuple]:
        """``(losses (R,), gradients (R, D), samples)`` of each of
        ``workers`` at its aggregated model ``models[j]`` ``(R, D)``.

        Workers taking one local step fold by batch size: their mini-batches
        are gathered per fold (:meth:`_draw_fold`) and share one
        forward/backward over the folded ``J·R`` axis.  Poisoning hooks and
        the local walks of workers with ``local_steps > 1`` (k steps from
        the aggregated model, mean gradient — WorkerNode's op for op) then
        run node by node, lane by lane — the order the sequential trainer
        drives attack generators and adversary hooks in.
        """
        replicas = self.num_replicas
        results: List[tuple] = [None] * len(workers)
        folds: Dict[int, List[int]] = {}
        for j, w_index in enumerate(workers):
            if self.profiles[w_index].local_steps == 1:
                batch_size = self.lanes[0].loaders[w_index].batch_size
                folds.setdefault(batch_size, []).append(j)
        stacks = [self._draw_fold([workers[j] for j in rows])
                  for rows in folds.values()]
        batches = {j: (features[p], labels[p])
                   for rows, (features, labels) in zip(folds.values(), stacks)
                   for p, j in enumerate(rows)}
        for j, w_index in enumerate(workers):
            if j in batches:
                self._poison(w_index, models[j], step_index, *batches[j])
                continue
            local_steps = self.profiles[w_index].local_steps
            eta = self.schedule(step_index)
            theta = models[j]
            gradient_sum = np.zeros_like(theta)
            lane_losses: List[List[float]] = [[] for _ in range(replicas)]
            total_samples = 0
            for _ in range(local_steps):
                features, labels = (part[0] for part in
                                    self._draw_fold([w_index]))
                self._poison(w_index, theta, step_index, features, labels)
                losses, gradients = self.dense_stack.forward_backward(
                    theta, features, labels)
                gradient_sum += gradients
                for r in range(replicas):
                    lane_losses[r].append(float(losses[r]))
                total_samples += labels.shape[1]
                theta = theta - eta * gradients
            results[j] = (
                np.array([float(np.mean(entry)) for entry in lane_losses]),
                gradient_sum / local_steps, total_samples)
        for rows, (features, labels) in zip(folds.values(), stacks):
            # one batch size across the fold (the usual case): no copy
            theta = models if len(rows) == len(workers) else models[rows]
            losses, gradients = self.dense_stack.forward_backward(
                theta.reshape(-1, self.num_parameters),
                features.reshape((-1,) + features.shape[2:]),
                labels.reshape(-1, labels.shape[2]))
            for j, worker_losses, worker_gradients in zip(
                    rows, losses.reshape(len(rows), replicas),
                    gradients.reshape(len(rows), replicas, -1)):
                results[j] = (worker_losses, worker_gradients,
                              labels.shape[2])
        return results

    # ------------------------------------------------------------------ #
    def step(self, step_index: int) -> List[StepRecord]:
        """One three-phase GuanYu step across all replicas.

        Returns one :class:`StepRecord` per replica, bit-identical to the
        record the sequential trainer produces for that replica's seed.
        """
        config = self.config
        cost = self.cost_model
        d = self.billed_parameters
        replicas = self.num_replicas
        tracer = get_tracer()

        active_workers, active_servers = self._wiring.participants(step_index)
        if tracer.enabled:
            stalled = [node_id for node_id in self.worker_ids
                       if node_id not in active_workers] \
                + [node_id for node_id in self.server_ids
                   if node_id not in active_servers]
            if stalled:
                tracer.event("batch.fault.stalled", step=step_index,
                             nodes=stalled)
        if self.has_faults:
            server_alive = self.lanes[0].fault_controller.alive_mask(
                self.server_ids, step_index)
        else:
            server_alive = np.ones(len(self.server_ids), dtype=bool)
        alive_correct_idx = [index for index in self._correct_server_idx
                             if server_alive[index]]
        if not alive_correct_idx:
            raise RuntimeError(
                f"fault schedule leaves no correct server alive at step "
                f"{step_index}; the protocol cannot make progress")
        phase_start = self.server_clock[alive_correct_idx].min(axis=0)

        def corrupt_model(s_index: int, r: int, recipient: str):
            lane = self.lanes[r]
            return apply_server_attack(
                lane.server_attacks[self.server_ids[s_index]],
                lane.server_rngs[s_index], self.theta[s_index, r], step_index,
                recipient=recipient)

        # ------------------------- Phase 1 ------------------------------ #
        with phase("batch.step.broadcast", runtime="batch", step=step_index,
                   replicas=replicas):
            buffer = self._scatter(MessageKind.MODEL_TO_WORKER, step_index,
                                   active_servers, self.theta,
                                   self.server_clock, phase_start,
                                   corrupt_model)

        with phase("batch.step.compute", runtime="batch", step=step_index,
                   replicas=replicas):
            gradient_stack: Dict[int, np.ndarray] = {}
            loss_stack: Dict[int, np.ndarray] = {}
            batch_sizes: Dict[int, int] = {}
            #: per-attacking-worker aggregated models (observable by
            #: adversaries)
            model_stack: Dict[int, np.ndarray] = {}
            active_worker_indices = [index for index, worker_id
                                     in enumerate(self.worker_ids)
                                     if worker_id in active_workers]
            for fold in self._folds(active_worker_indices,
                                    config.model_quorum):
                stacked, completion, _ = buffer.collect(
                    fold, self.worker_ids, config.model_quorum,
                    not_before=self.worker_clock[fold],
                    kind=MessageKind.MODEL_TO_WORKER, step=step_index)
                aggregated = self.model_rule.aggregate_batched(
                    stacked).reshape(len(fold), replicas, -1)
                results = self._worker_gradients(fold, aggregated, step_index)
                for j, w_index in enumerate(fold):
                    loss_stack[w_index], gradient_stack[w_index], \
                        batch_sizes[w_index] = results[j]
                    if self.worker_ids[w_index] in self.attacking_workers:
                        model_stack[w_index] = aggregated[j]
                    compute_time = self.profiles[w_index].delay_multiplier * (
                        cost.median_time(config.model_quorum, d)
                        + cost.gradient_time(batch_sizes[w_index], d))
                    self.worker_clock[w_index] = completion[j] + compute_time

        alive_correct_worker_idx = [
            index for index in active_worker_indices
            if self.worker_ids[index] not in self.attacking_workers]
        if alive_correct_worker_idx:
            phase1_end = self._mean_over_nodes(self.worker_clock,
                                               alive_correct_worker_idx)
        else:
            phase1_end = phase_start

        # ------------------------- Phase 2 ------------------------------ #
        with phase("batch.step.gather", runtime="batch", step=step_index,
                   replicas=replicas):
            peers = [gradient_stack[index]
                     for index in alive_correct_worker_idx]

            def corrupt_gradient(w_index: int, r: int, recipient: str):
                lane = self.lanes[r]
                result = GradientResult(
                    gradient=gradient_stack[w_index][r],
                    loss=float(loss_stack[w_index][r]),
                    batch_size=batch_sizes[w_index])
                return apply_worker_attack(
                    lane.worker_attacks[self.worker_ids[w_index]],
                    lane.worker_rngs[w_index], result, step_index,
                    peer_gradients=[peer[r] for peer in peers],
                    recipient=recipient, model=model_stack[w_index][r])

            buffer = self._scatter(
                MessageKind.GRADIENT_TO_SERVER, step_index, active_workers,
                gradient_stack, self.worker_clock, phase_start,
                corrupt_gradient, peers)

        with phase("batch.step.aggregate", runtime="batch", step=step_index,
                   replicas=replicas):
            active_correct_server_idx = [
                index for index in alive_correct_idx
                if self.server_ids[index] in active_servers]
            learning_rate = self.schedule(step_index)
            compute_time = (cost.aggregation_time(self.gradient_rule_name,
                                                  config.gradient_quorum, d)
                            + cost.update_time(d))
            for fold in self._folds(active_correct_server_idx,
                                    config.gradient_quorum):
                stacked, completion, senders = buffer.collect(
                    fold, self.server_ids, config.gradient_quorum,
                    not_before=self.server_clock[fold],
                    kind=MessageKind.GRADIENT_TO_SERVER, step=step_index)
                if tracer.record_decisions:
                    for j, s_index in enumerate(fold):
                        for r, lane in enumerate(self.lanes):
                            record_decision(
                                "batch.gar.decision", self.gradient_rule,
                                stacked[j * replicas + r],
                                senders[j, :, r].tolist(),
                                self._attacking_worker_idx, step=step_index,
                                node=self.server_ids[s_index], replica=r,
                                scenario=lane.spec.name)
                aggregated = self.gradient_rule.aggregate_batched(stacked)
                self.theta[fold] -= learning_rate * aggregated.reshape(
                    len(fold), replicas, -1)
                self.server_clock[fold] = completion + compute_time
            phase2_end = self._mean_over_nodes(self.server_clock,
                                               alive_correct_idx)

        # ------------------------- Phase 3 ------------------------------ #
        with phase("batch.step.apply", runtime="batch", step=step_index,
                   replicas=replicas):
            buffer = self._scatter(MessageKind.MODEL_TO_SERVER, step_index,
                                   active_servers, self.theta,
                                   self.server_clock, phase_start,
                                   corrupt_model)

            for fold in self._folds(active_correct_server_idx,
                                    config.model_quorum):
                stacked, completion, _ = buffer.collect(
                    fold, self.server_ids, config.model_quorum,
                    not_before=self.server_clock[fold],
                    kind=MessageKind.MODEL_TO_SERVER, step=step_index)
                self.theta[fold] = self.model_rule.aggregate_batched(
                    stacked).reshape(len(fold), replicas, -1)
                self.server_clock[fold] = completion \
                    + cost.median_time(config.model_quorum, d)
            phase3_end = self._mean_over_nodes(self.server_clock,
                                               alive_correct_idx)

        # ------------------------- Records ------------------------------ #
        simulated_time = self.server_clock[alive_correct_idx].max(axis=0)
        spreads = self._server_spreads()
        records = []
        for r in range(replicas):
            if alive_correct_worker_idx:
                train_loss = float(np.mean(
                    [loss_stack[index][r]
                     for index in alive_correct_worker_idx]))
            else:
                train_loss = None
            spread = float(spreads[r])
            records.append(StepRecord(
                step=step_index,
                simulated_time=float(simulated_time[r]),
                train_loss=train_loss,
                max_server_spread=spread,
                learning_rate=self.schedule(step_index),
                phase_durations={
                    "phase1_models_and_gradients":
                        float(phase1_end[r] - phase_start[r]),
                    "phase2_server_update":
                        float(phase2_end[r] - phase1_end[r]),
                    "phase3_server_exchange":
                        float(phase3_end[r] - phase2_end[r]),
                },
            ))
        return records

    # ------------------------------------------------------------------ #
    def global_parameters(self) -> np.ndarray:
        """``(R, D)`` observer view: per-replica median of correct servers."""
        return active_backend().median(
            self.theta[self._correct_server_idx], axis=0)

    def _evaluate(self, lane: _Lane, parameters: np.ndarray,
                  max_samples: Optional[int]) -> float:
        return plan_accuracy(self.dense_stack, parameters, lane.test_dataset,
                             max_samples=max_samples)

    def run(self, num_steps: int, eval_every: int = 10,
            max_eval_samples: Optional[int] = 512) -> List[TrainingHistory]:
        """Run ``num_steps`` updates; returns one history per replica."""
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        for step_index in range(num_steps):
            records = self.step(step_index)
            is_eval_step = (step_index % eval_every == 0) \
                or (step_index == num_steps - 1)
            if is_eval_step:
                observer = self.global_parameters()
                for r, lane in enumerate(self.lanes):
                    if lane.test_dataset is not None:
                        records[r].test_accuracy = self._evaluate(
                            lane, observer[r], max_eval_samples)
            for r, lane in enumerate(self.lanes):
                lane.history.add(records[r])
        return [lane.history for lane in self.lanes]


def _run_single_process(specs: Sequence) -> List[TrainingHistory]:
    trainer = BatchedGuanYuTrainer(specs)
    base = specs[0]
    return trainer.run(base.num_steps, eval_every=base.eval_every,
                       max_eval_samples=base.max_eval_samples)


def _run_lane_chunk(task: Tuple[List[Dict], str]
                    ) -> Tuple[List[TrainingHistory], float]:
    """Pool worker: run one contiguous chunk of replica lanes.

    Receives ``(spec payload dicts, backend name)`` — payloads because
    worker processes may be spawned rather than forked, and the backend
    name because an in-process :func:`~repro.kernels.set_backend` override
    in the parent would otherwise not survive a spawn.  Returns the chunk
    histories plus the chunk's wall-clock seconds, which the parent feeds
    to the telemetry registry (a chunk worker's own registry is the
    process-default no-op).
    """
    from repro.campaign.spec import ScenarioSpec  # lazy: avoid import cycle
    from repro.kernels import use_backend

    payloads, backend = task
    specs = [ScenarioSpec.from_dict(payload) for payload in payloads]
    started = time.perf_counter()
    with use_backend(backend):
        histories = _run_single_process(specs)
    return histories, time.perf_counter() - started


def run_batched_scenarios(specs: Sequence, lanes: Optional[int] = None,
                          lane_chunk: Optional[int] = None
                          ) -> List[TrainingHistory]:
    """Execute seed-replica scenarios on the batched runtime.

    ``specs`` must be :class:`~repro.campaign.spec.ScenarioSpec` instances
    identical except for ``name``/``seed``.  Returns one history per spec,
    in order, each bit-identical to the sequential
    :class:`~repro.core.trainer.GuanYuTrainer` run of that spec.

    With ``lanes > 1`` the replica lanes are split into contiguous chunks
    of ``lane_chunk`` specs (default ``ceil(len(specs) / lanes)``), each
    executed as its own :class:`BatchedGuanYuTrainer` in a process pool of
    ``lanes`` workers.  Lane→chunk assignment is deterministic (chunk ``i``
    holds ``specs[i * lane_chunk : (i + 1) * lane_chunk]``) and every lane
    is fully independent of the others, so the merged histories are
    bit-identical to the single-process batched run — and therefore to the
    sequential trainer — per seed.  The active kernel backend propagates
    to the chunk workers.  Exceptions raised inside a chunk (including
    :class:`BatchedExecutionError`) propagate to the caller, where the
    campaign engine's per-scenario re-run applies as usual.
    """
    specs = list(specs)
    for spec in specs:
        spec.validate()
    # The cross-spec check must run in the parent: chunks only see their
    # own slice, and a mixed group split across chunks would otherwise be
    # silently accepted.
    _check_group(specs)

    if lanes is None:
        lanes = 1
    if lanes < 1:
        raise ValueError("lanes must be a positive integer")
    if lane_chunk is not None and lane_chunk < 1:
        raise ValueError("lane_chunk must be a positive integer")
    if multiprocessing.current_process().daemon:
        # Daemonic pool workers (the campaign engine's scenario pool)
        # cannot fork children of their own.
        lanes = 1
    chunk_size = lane_chunk if lane_chunk is not None \
        else -(-len(specs) // max(lanes, 1))
    if lanes <= 1 or not specs or chunk_size >= len(specs):
        return _run_single_process(specs)

    backend = active_backend().name
    chunks = [specs[start: start + chunk_size]
              for start in range(0, len(specs), chunk_size)]
    tasks = [([spec.to_dict() for spec in chunk], backend)
             for chunk in chunks]
    with multiprocessing.get_context().Pool(
            processes=min(lanes, len(chunks))) as pool:
        chunk_results = pool.map(_run_lane_chunk, tasks)
    registry = get_registry()
    if registry.enabled:
        for _, elapsed in chunk_results:
            registry.observe("repro_batch_lane_chunk_seconds", elapsed,
                             backend=backend)
    return [history for chunk, _ in chunk_results for history in chunk]
