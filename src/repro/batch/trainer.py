"""Vectorised multi-replica GuanYu runtime.

:class:`BatchedGuanYuTrainer` executes ``R`` lanes of **one** scenario —
its seeds and its aggregation rules, :data:`LANE_FIELDS` — in a single
process by stacking every per-replica quantity along a leading replica
axis:

* server parameters are ``(R, D)`` arrays (one row per replica),
* the vectors entering an aggregation are ``(R, n, D)`` stacks routed
  through :meth:`GradientAggregationRule.decide_batched`, one call per
  distinct rule over the rows of the lanes running it,
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
its gradient and model rules (and so its simulated aggregation cost and
its history's ``config``), its attack instances and the node generators
they consume.  What a seed determines is built once per distinct seed of
the group and read by every lane with that seed: the dataset, partition
and test set, θ0, the workers' mini-batch streams, the delay generator
the sequential :class:`NetworkSimulator` would have used (seeded with the
seed and consumed in the identical order) and the
:class:`~repro.faults.FaultController` whose hash decides lossy drops —
so a GAR ablation at one seed draws its mini-batches and delays once.
The result is **bit-identical per lane** to running its scenario through
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
from repro.core.wiring import ClusterWiring, SeedWiring, lane_arguments
from repro.faults.controller import LinkTable
from repro.metrics.accuracy import EVAL_BATCH
from repro.nn.plan import (
    BATCHABLE_MODELS,
    BatchedDenseStack,
    BatchingUnsupported,
)
from repro.obs.history import StepRecord, TrainingHistory, phase_durations
from repro.obs.telemetry import get_registry, phase
from repro.obs.tracer import get_tracer
from repro.network.message import ROUTES, MessageKind, one_trusted_server
from repro.runtime.facade import CLOCKS, TRAINERS


#: float64 elements a folded ``(J·R, q, D)`` quorum stack may hold: 2 MiB, an
#: L2-sized working set.  A larger stack leaves the cache and folding stops
#: paying, so at D = 30,730 a fold is a single node.
_FOLD_BUDGET = 1 << 18


#: what becomes of a group a :class:`BatchedExecutionError` fails
#: (``repro.campaign.engine._run_batched_payloads``)
_RERUN = ("the campaign engine re-runs the group scenario by scenario, "
          "one lane each")


class BatchedExecutionError(RuntimeError):
    """A replica hit a condition the batched runtime cannot isolate.

    The campaign engine re-runs the affected group scenario by scenario;
    raised by a lone lane it is that scenario's own failure.
    """


def spec_supports_batching(spec) -> bool:
    """Whether a :class:`ScenarioSpec` can run on the batched runtime: its
    protocol (:data:`repro.runtime.facade.TRAINERS`) walks the servers'
    exchange (replicated servers), its runtime keeps the simulated clock,
    and its model is a dense stack."""
    return (not one_trusted_server(TRAINERS[spec.trainer].routes)
            and CLOCKS[spec.runtime] == "simulated" and spec.model in BATCHABLE_MODELS)


#: the :class:`ScenarioSpec` fields a lane sets for itself: scenarios equal
#: in every other field run as one group (:func:`batch_group_key`)
LANE_FIELDS = ("name", "seed", "gradient_rule", "model_rule")


def batch_group_key(spec) -> str:
    """The content hash of ``spec`` without :data:`LANE_FIELDS`: scenarios
    sharing it can run as lanes of one :class:`BatchedGuanYuTrainer`."""
    return spec.content_hash(*LANE_FIELDS)


def _check_group(specs: Sequence) -> None:
    """Raise unless ``specs`` are lanes of one configuration the batched
    runtime can express."""
    if specs and not spec_supports_batching(specs[0]):
        raise BatchingUnsupported(
            f"trainer '{specs[0].trainer}' / runtime '{specs[0].runtime}' / model "
            f"'{specs[0].model}' has no batched formulation")
    if len({batch_group_key(spec) for spec in specs}) > 1:
        raise ValueError("batched execution requires scenarios that differ "
                         "only in seed, name, gradient_rule and model_rule")


def _rule_lanes(names: Sequence[str], num_byzantine: int
                ) -> List[Tuple[object, np.ndarray]]:
    """``(rule, lanes)`` for each distinct rule name in ``names`` (one per
    lane), in first-lane order; ``lanes`` are the indices running it."""
    names = np.array(names)
    return [(get_rule(name, num_byzantine=num_byzantine),
             np.flatnonzero(names == name))
            for name in dict.fromkeys(names.tolist())]


# --------------------------------------------------------------------------- #
# Per-replica state
# --------------------------------------------------------------------------- #
class _Seed:
    """What every lane with one seed reads, built once per distinct seed:
    its :class:`~repro.core.wiring.SeedWiring` (partition, fault
    controller), test set and θ0 model, its workers' mini-batch streams and
    the delay generator the sequential :class:`NetworkSimulator` would have
    used (seeded with the seed).  Lanes differ from each other only in
    :data:`LANE_FIELDS`, none of which but ``seed`` reaches any of this, so
    lanes with one seed would consume these streams identically: one draw
    serves them all."""

    __slots__ = ("wiring", "test_dataset", "model", "loaders", "delay_rng")


class _Lane:
    """Everything that is private to one replica: its spec and history, its
    rules' attack wiring and the node generators those attacks consume
    (``None`` for an honest node, whose generator nothing draws from)."""

    __slots__ = ("spec", "worker_rngs", "server_rngs", "worker_attacks",
                 "server_attacks", "history")


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
                f"{needed} but fewer senders delivered; {_RERUN}")
        rows = self._rows[recipient_indices[:, None, None], selected]
        stacked = self.payloads[rows.transpose(0, 2, 1),
                                self._lanes[None, :, None]]  # (J, R, q, D)
        return (stacked.reshape((-1,) + stacked.shape[2:]),
                np.maximum(not_before, last), selected)


# --------------------------------------------------------------------------- #
# The batched trainer
# --------------------------------------------------------------------------- #
class BatchedGuanYuTrainer:
    """Run ``R`` lanes of one GuanYu scenario in lock-step, vectorised.

    Parameters
    ----------
    specs:
        Validated :class:`~repro.campaign.spec.ScenarioSpec` instances that
        are identical except for :data:`LANE_FIELDS` (name, seed and the
        two aggregation rules) — one per replica.  Replica ``r``
        reproduces, bit for bit, the history the sequential trainer
        produces for ``specs[r]``.

    Raises
    ------
    BatchingUnsupported
        For scenarios outside the batched envelope (non-``guanyu`` trainer,
        convolutional model).
    ValueError
        For specs that differ beyond :data:`LANE_FIELDS`, or fail the same
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
        self.cost_model = base.build_cost_model()
        self.delay_model = base.build_delay_model()

        self.worker_ids = self.config.worker_ids()
        self.server_ids = self.config.server_ids()

        #: the rules that aggregate what workers and what servers send:
        #: ``(rule, lanes)`` pairs (:func:`_rule_lanes`), one per distinct
        #: rule, so a seed group makes one call over its whole stack
        self._gradient_rules = _rule_lanes(
            [spec.gradient_rule for spec in specs],
            self.config.num_byzantine_workers)
        self._model_rules = _rule_lanes(
            [spec.model_rule for spec in specs],
            self.config.num_byzantine_servers)
        #: lane 0's rules (every lane's, in a seed group)
        self.gradient_rule = self._gradient_rules[0][0]
        self.model_rule = self._model_rules[0][0]

        #: one :class:`_Seed` per distinct seed, in first-lane order
        #: (``_lane_seed[r]`` is lane ``r``'s)
        self._seeds: List[_Seed] = []
        seed_index: Dict[int, int] = {}
        self.lanes: List[_Lane] = []
        for spec in specs:
            if spec.seed not in seed_index:
                seed_index[spec.seed] = len(self._seeds)
                self._seeds.append(self._build_seed(spec))
            lane, wiring = self._build_lane(
                spec, self._seeds[seed_index[spec.seed]].wiring)
            if not self.lanes:
                # Placement, profiles, schedule and fault participation
                # depend on no lane field: lane 0's wiring speaks for the
                # group.
                self._wiring = wiring
                self.attacking_workers = wiring.attacking_workers
                self.attacking_servers = wiring.attacking_servers
                self.profiles = wiring.profiles
                self.schedule = wiring.schedule
            self.lanes.append(lane)
        self._lane_seed = np.array([seed_index[spec.seed] for spec in specs])

        # Hetero partitions vary per seed, and a shard smaller than the
        # requested batch size clamps its loader — per-seed batch shapes
        # would then disagree and the (R, B, ...) stacks could not form.
        for index in range(len(self.worker_ids)):
            batch_sizes = {seeded.loaders[index].batch_size
                           for seeded in self._seeds}
            if len(batch_sizes) > 1:
                raise BatchedExecutionError(
                    f"worker {self.worker_ids[index]}: per-seed hetero "
                    f"partitions clamp the batch size differently across "
                    f"seeds ({sorted(batch_sizes)}); {_RERUN}")

        # each seed's shards are row views of one block (partition_dataset)
        self._blocks = [seeded.loaders[0].dataset.block
                        for seeded in self._seeds]
        self._starts = np.array([[loader.dataset.start
                                  for loader in seeded.loaders]
                                 for seeded in self._seeds])
        template = self._seeds[0].model
        self.dense_stack = BatchedDenseStack(template)
        self.num_parameters = template.num_parameters()
        self.billed_parameters = (base.billed_parameters
                                  if base.billed_parameters
                                  else self.num_parameters)
        self._message_bytes = 64 + 4 * self.num_parameters
        self._serialization = self.cost_model.serialization_time(
            self.billed_parameters)
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
        # replica starts all of its servers from its seed's θ0.
        theta0 = np.stack([self._seeds[k].model.get_flat_parameters()
                           for k in self._lane_seed])  # (R, D)
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
        #: workers whose attack poisons batches in some lane
        self._poisoning_workers = {
            index for index, worker_id in enumerate(self.worker_ids)
            if any(getattr(lane.worker_attacks[worker_id], "poisons", False)
                   for lane in self.lanes)}

        self._delay_multipliers = np.array([profile.delay_multiplier
                                            for profile in self.profiles])
        #: worker index → its step's (losses (R,), gradients (R, D), samples,
        #: aggregated model (R, D) if it attacks, else None)
        self._computed: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    def _build_seed(self, spec) -> _Seed:
        """What every lane with ``spec``'s seed reads (:class:`_Seed`)."""
        seeded = _Seed()
        seeded.wiring, seeded.test_dataset, model_fn = \
            SeedWiring.from_spec(spec)
        seeded.model = model_fn()
        seeded.loaders = [seeded.wiring.loader(index)
                          for index in range(len(self.worker_ids))]
        seeded.delay_rng = np.random.default_rng(spec.seed)
        return seeded

    def _build_lane(self, spec, seed_wiring: SeedWiring
                    ) -> Tuple[_Lane, ClusterWiring]:
        """One replica's private state from its rules' wiring over its
        seed's: rng streams and (fault-gated) attack maps — no node objects.

        Each replica owns a full, independent attack/adversary set (state
        and derived randomness keyed by the lane's own seed), replayed in
        the same order the sequential trainer would have driven it.
        """
        wiring = ClusterWiring(seed_wiring, **lane_arguments(spec))
        lane = _Lane()
        lane.spec = spec
        # only an attack draws from a node's generator: honest nodes get none
        lane.worker_rngs = [
            np.random.default_rng(wiring.worker_rng_seed(index))
            if wiring.worker_attacks[node_id] is not None else None
            for index, node_id in enumerate(self.worker_ids)]
        lane.server_rngs = [
            np.random.default_rng(wiring.server_rng_seed(index))
            if wiring.server_attacks[node_id] is not None else None
            for index, node_id in enumerate(self.server_ids)]
        lane.worker_attacks = wiring.worker_attacks
        lane.server_attacks = wiring.server_attacks
        lane.history = TrainingHistory(label=spec.name)
        lane.history.config = dict(wiring.history_config)
        return lane, wiring

    # ------------------------------------------------------------------ #
    # Fault / delay plumbing (one phase at a time, vectorised over lanes)
    # ------------------------------------------------------------------ #
    def _delivered(self, links: LinkTable, senders: List[int],
                   kind: MessageKind, step: int) -> np.ndarray:
        """Delivery masks of ``senders``' messages to every recipient of
        the phase: ``(1, S, J)`` when every lane agrees, else ``(K, S, J)``,
        one per distinct seed (:meth:`_per_lane`).

        Crash, partition and delay verdicts are the same in every lane
        (lane 0's compiled table speaks for all); only a lossy link's drop
        is sampled per seed, from that seed's controller hash.
        """
        deliver = links.deliver[senders]
        lossy = deliver & (links.drop_rate[senders] > 0)
        if not lossy.any():
            return deliver[None]
        delivered = np.repeat(deliver[None], len(self._seeds), axis=0)
        sender_ids, recipient_ids = self._endpoints[kind]
        for s, j in zip(*np.nonzero(lossy)):
            rate = links.drop_rate[senders[s], j]
            for k, seeded in enumerate(self._seeds):
                delivered[k, s, j] = not seeded.wiring.faults.dropped(
                    sender_ids[senders[s]], recipient_ids[j], kind.value,
                    step, rate)
        return delivered

    def _per_lane(self, per_seed: np.ndarray) -> np.ndarray:
        """A ``(K, …)`` array, one row per distinct seed, as one row per
        lane ``(R, …)``; a single row is returned as is, to broadcast."""
        if len(per_seed) in (1, self.num_replicas):
            return per_seed
        return per_seed[self._lane_seed]

    def _scatter(self, kind: MessageKind, step: int, active, payloads,
                 corrupt, peers: Sequence[np.ndarray], *, clock: np.ndarray,
                 phase_start: np.ndarray) -> _PhaseBuffer:
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
        faults = self._wiring.faults
        links = (faults.link_table(sender_ids, recipient_ids, step)
                 if faults is not None else None)
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
                    self._per_lane(self._delivered(links, [s_index], kind,
                                                   step)),
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
        """Record a phase's honest broadcasts with one delay draw per seed.

        ``senders`` are the honest senders' indices in send order; sender
        ``s`` sends ``payloads[s]`` ``(R, D)`` at ``clock[s]`` plus the
        serialisation time.  The simulator draws one latency per delivered
        message, sender by sender and recipient by recipient, from one
        generator per lane; a server's message to itself and a blocked or
        dropped message draw nothing.  Every latency is link-independent,
        so those draws are one ``sample_batch`` request per seed (the
        ``latency_batch`` contract; lanes with one seed drop the same
        messages and so draw the same latencies), scattered into the drawn
        slots; a delivered message then arrives at ``send_time +
        delay·factor + extra``, the simulator's ops in its order.  Without
        faults (no ``links``) the factor and extra are skipped and all
        slots deliver.
        """
        if not senders:
            return
        for s_index in senders:
            buffer.payloads[s_index] = payloads[s_index]
        drawn = np.ones((1, len(senders), len(self._endpoints[kind][1])),
                        dtype=bool)
        if ROUTES[kind].senders == ROUTES[kind].recipients:
            drawn[0, np.arange(len(senders)), senders] = False
        if links is not None:
            delivered = self._delivered(links, senders, kind, step)
            drawn = drawn & delivered
        delays = np.zeros((len(self._seeds),) + drawn.shape[1:])
        if len(drawn) == 1:  # every seed draws into the same slots
            draws = np.empty((len(self._seeds), int(drawn.sum())))
            for k, seeded in enumerate(self._seeds):
                draws[k] = self.delay_model.sample_batch(
                    seeded.delay_rng, self._message_bytes, draws.shape[1])
            delays[:, drawn[0]] = draws
        else:
            for k, seeded in enumerate(self._seeds):
                delays[k][drawn[k]] = self.delay_model.sample_batch(
                    seeded.delay_rng, self._message_bytes,
                    int(drawn[k].sum()))
        if links is not None:
            delays = delays * links.delay_factor[senders] \
                + links.extra_delay[senders]
        send_time = clock[senders] + self._serialization  # (S, R)
        times = send_time.T[:, :, None] + self._per_lane(delays)
        if links is not None:
            times = np.where(self._per_lane(delivered), times, np.inf)
        buffer.times[:, senders, :] = times.transpose(2, 1, 0)

    def _server_spreads(self) -> np.ndarray:
        """Per-replica ``max_pairwise_distance`` over the correct servers.

        One batched Gram kernel replaces R sequential calls; like the
        sequential helper, the winning pair's norm is re-evaluated directly
        so exact agreement reports exactly zero — ``np.linalg.norm``'s
        ``sqrt(dot)``, as one stacked vector·vector ``np.matmul``, which
        NumPy computes with that same ``dot`` per row.
        """
        if len(self._correct_server_idx) < 2:
            return np.zeros(self.num_replicas)
        stacked = np.ascontiguousarray(
            self.theta[self._correct_server_idx].transpose(1, 0, 2))
        squared = pairwise_squared_distances_batched(stacked)
        n = stacked.shape[1]
        winners = squared.reshape(self.num_replicas, -1).argmax(axis=1)
        rows, cols = np.unravel_index(winners, (n, n))
        lanes = np.arange(self.num_replicas)
        difference = stacked[lanes, rows] - stacked[lanes, cols]  # (R, D)
        return np.sqrt(np.matmul(difference[:, None, :],
                                 difference[:, :, None])[:, 0, 0])

    # ------------------------------------------------------------------ #
    # Protocol helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mean_over_nodes(values: np.ndarray) -> np.ndarray:
        """Per-replica mean of ``values`` ``(N, R)`` over its node axis —
        sequential-identical.

        The sequential trainer means a 1-D list per replica, which NumPy
        reduces with its pairwise base case; reducing the *outer* axis of a
        2-D array uses a different accumulation order once more than eight
        nodes are involved.  Transposing to a contiguous last-axis
        reduction restores the 1-D order bit for bit; the sum over the
        count is what ``np.mean`` computes, without its wrapper.
        """
        return np.add.reduce(np.ascontiguousarray(values.T), axis=1) \
            / values.shape[0]

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

        Each (worker, seed) index row is the next row of that seed's loader,
        offset by the shard's start in the seed's block; each seed's rows
        are then one gather from its block, copied to each of its lanes.
        """
        loader = self._seeds[0].loaders[workers[0]]
        seeds = len(self._seeds)
        shape = (len(workers), seeds, loader.batch_size)
        rows = np.concatenate([
            seeded.loaders[w].next_indices()
            for seeded in self._seeds for w in workers]).reshape(
                seeds, len(workers), -1) \
            + self._starts[:, workers, None]
        features = np.empty(shape + loader.dataset.feature_shape)
        labels = np.empty(shape, dtype=np.int64)
        for k, block in enumerate(self._blocks):
            features[:, k] = block.features.take(rows[k], axis=0)
            labels[:, k] = block.labels.take(rows[k], axis=0)
        if seeds == self.num_replicas:
            return features, labels
        return features[:, self._lane_seed], labels[:, self._lane_seed]

    def _poison(self, w_index: int, theta: np.ndarray, step_index: int,
                features: np.ndarray, labels: np.ndarray) -> None:
        """Run worker ``w_index``'s data-poisoning hook lane by lane on its
        ``(R, B, …)`` batch, in place, at ``theta`` ``(R, D)`` — the
        parameters the gradient is computed at, exactly like
        :meth:`WorkerNode.compute_gradient`.  A worker no lane's attack
        poisons (:attr:`_poisoning_workers`) returns at once."""
        if w_index not in self._poisoning_workers:
            return
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
                batch_size = self._seeds[0].loaders[w_index].batch_size
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

    def _receive(self, kind: MessageKind, fold: List[int],
                 aggregated: np.ndarray, step_index: int) -> np.ndarray | int:
        """What ``fold``'s recipients do with their aggregated quorums of
        ``kind`` ``(J, R, D)`` — :meth:`WorkerNode.receive` and
        :meth:`ServerNode.receive` op for op.  Workers compute gradients
        there (into :attr:`_computed`), servers take the gradient step
        (phase 2) or install the models (phase 3).  Returns the samples
        each worker computed on, ``(J,)``, or 0 for servers."""
        if kind is MessageKind.MODEL_TO_WORKER:
            results = self._worker_gradients(fold, aggregated, step_index)
            for j, w_index in enumerate(fold):
                # an attacking worker's model is observable by adversaries
                self._computed[w_index] = results[j] + (
                    aggregated[j] if w_index in self._attacking_worker_idx
                    else None,)
            return np.array([samples for _, _, samples in results])
        if kind is MessageKind.GRADIENT_TO_SERVER:
            self.theta[fold] -= self.schedule(step_index) * aggregated
        else:
            self.theta[fold] = aggregated
        return 0

    def _collect(self, buffer: _PhaseBuffer, kind: MessageKind,
                 recipients: List[int], clock: np.ndarray,
                 step_index: int) -> None:
        """Every node of ``recipients`` reduces its first quorum of ``kind``
        from ``buffer``, fold by fold (:meth:`_folds`): each lane's rule for
        the route's senders aggregates it (:meth:`_decide`), a traced
        decision record reads that same call, :meth:`_receive` uses the
        aggregate, and the node's clock moves to the quorum's completion
        plus the cost model's
        :meth:`~repro.runtime.cost.CostModel.receive_time` — a worker's
        scaled by its straggler factor, a server's priced at its lane's
        gradient rule."""
        route = ROUTES[kind]
        replicas = self.num_replicas
        quorum = route.quorum(self.config.model_quorum,
                              self.config.gradient_quorum)
        rules = route.of(self._gradient_rules, self._model_rules)[0]
        recipient_ids = route.of(self.worker_ids, self.server_ids)[1]
        record_decisions = route.senders == "worker" \
            and get_tracer().record_decisions
        for fold in self._folds(recipients, quorum):
            stacked, completion, senders = buffer.collect(
                fold, recipient_ids, quorum, not_before=clock[fold],
                kind=kind, step=step_index)
            output, calls = self._decide(rules, stacked, len(fold))
            if record_decisions:
                for rule, rows, aggregate in calls:
                    for position, row in enumerate(rows.tolist()):
                        j, r = divmod(row, replicas)
                        record_decision(
                            "batch.gar.decision", rule, stacked[row],
                            aggregate, senders[j, :, r].tolist(),
                            self._attacking_worker_idx, row=position,
                            step=step_index, node=recipient_ids[fold[j]],
                            replica=r, scenario=self.lanes[r].spec.name)
            samples = self._receive(
                kind, fold, output.reshape(len(fold), replicas, -1),
                step_index)
            # freed before the next fold's call: held over, it raised the
            # peak RSS of a D = 30,730 Bulyan run by 3 MB
            del output, calls
            if route.senders == "worker":  # each lane's own gradient rule
                compute = np.empty(replicas)
                for rule, lanes in rules:
                    compute[lanes] = self.cost_model.receive_time(
                        kind, quorum, self.billed_parameters, rule.name)
            else:
                compute = self.cost_model.receive_time(
                    kind, quorum, self.billed_parameters,
                    self.gradient_rule.name, samples)
            if route.recipients == "worker":  # one straggler factor a row
                compute = (self._delay_multipliers[fold] * compute)[:, None]
            clock[fold] = completion + compute

    def _decide(self, rules: List[Tuple[object, np.ndarray]],
                stacked: np.ndarray, nodes: int
                ) -> Tuple[np.ndarray, List[tuple]]:
        """The ``(J·R, D)`` aggregates of a fold's ``(J·R, q, D)`` stack of
        ``nodes`` nodes, and each rule's call as ``(rule, rows,
        aggregate)``: row ``i`` of ``aggregate`` is stack row ``rows[i]``.

        A rule reduces the rows of its lanes in one call — the whole stack
        when every lane shares it.  Row ``r`` of a call depends on its own
        slice alone (the :class:`~repro.aggregation.base.Aggregate`
        contract), so splitting the stack by rule changes no bit.
        """
        if len(rules) == 1:
            rule = rules[0][0]
            aggregate = rule.decide_batched(stacked)
            return aggregate.output, [(rule, np.arange(len(stacked)),
                                       aggregate)]
        output = np.empty((len(stacked), stacked.shape[2]))
        calls = []
        for rule, lanes in rules:
            rows = (np.arange(nodes)[:, None] * self.num_replicas
                    + lanes).ravel()
            aggregate = rule.decide_batched(stacked[rows])
            output[rows] = aggregate.output
            calls.append((rule, rows, aggregate))
        return output, calls

    # ------------------------------------------------------------------ #
    def step(self, step_index: int) -> List[StepRecord]:
        """One GuanYu step across all replicas: one walk over
        :data:`~repro.network.message.ROUTES`, like
        :meth:`GuanYuTrainer.step <repro.core.trainer.GuanYuTrainer.step>`.

        Returns one :class:`StepRecord` per replica, bit-identical to the
        record the sequential trainer produces for that replica's seed.
        """
        replicas = self.num_replicas
        active_workers, active_servers, alive = \
            self._wiring.simulated_step(step_index, "batch")
        alive_idx = [self.server_ids.index(node_id) for node_id in alive]
        workers = [index for index, node_id in enumerate(self.worker_ids)
                   if node_id in active_workers]
        correct_workers = [index for index in workers
                           if index not in self._attacking_worker_idx]
        receivers = (workers, [index for index in alive_idx
                               if self.server_ids[index] in active_servers])
        # a phase ends when, on average, the correct participating workers
        # or the live correct servers (stalled ones included) finish it
        observed = (correct_workers, alive_idx)
        clocks = (self.worker_clock, self.server_clock)
        phase_start = self.server_clock[alive_idx].min(axis=0)
        self._computed = {}
        gradients: Dict[int, np.ndarray] = {}
        peers: List[np.ndarray] = []  # the honest gradients, once computed

        def corrupt_model(s_index: int, r: int, recipient: str):
            lane = self.lanes[r]
            return apply_server_attack(
                lane.server_attacks[self.server_ids[s_index]],
                lane.server_rngs[s_index], self.theta[s_index, r], step_index,
                recipient=recipient)

        def corrupt_gradient(w_index: int, r: int, recipient: str):
            lane = self.lanes[r]
            losses, _, samples, model = self._computed[w_index]
            result = GradientResult(gradient=gradients[w_index][r],
                                    loss=float(losses[r]),
                                    batch_size=samples)
            return apply_worker_attack(
                lane.worker_attacks[self.worker_ids[w_index]],
                lane.worker_rngs[w_index], result, step_index,
                peer_gradients=[peer[r] for peer in peers],
                recipient=recipient, model=model[r])

        phase_ends: Dict[str, np.ndarray] = {}
        for kind, route in ROUTES.items():
            recipients = route.of(*receivers)[1]
            sender_clock, clock = route.of(*clocks)
            with phase(f"batch.step.{route.scatter}", runtime="batch",
                       step=step_index, replicas=replicas):
                buffer = self._scatter(
                    kind, step_index, route.of(active_workers,
                                               active_servers)[0],
                    *route.of((gradients, corrupt_gradient, peers),
                              (self.theta, corrupt_model, ()))[0],
                    clock=sender_clock, phase_start=phase_start)
                if route.collect == route.scatter:  # the servers' exchange
                    self._collect(buffer, kind, recipients, clock, step_index)
            if route.collect != route.scatter:
                with phase(f"batch.step.{route.collect}", runtime="batch",
                           step=step_index, replicas=replicas):
                    self._collect(buffer, kind, recipients, clock, step_index)
            ends = route.of(*observed)[1]
            phase_ends[route.phase] = self._mean_over_nodes(clock[ends]) \
                if ends else phase_start
            gradients = {index: computed[1]
                         for index, computed in self._computed.items()}
            peers = [gradients[index] for index in correct_workers]

        simulated_time = self.server_clock[alive_idx].max(axis=0)
        spreads = self._server_spreads()
        durations = phase_durations(phase_start, phase_ends)
        losses = [self._computed[index][0] for index in correct_workers]
        train_losses = (self._mean_over_nodes(np.array(losses)).tolist()
                        if losses else [None] * replicas)
        records = []
        for r in range(replicas):
            records.append(StepRecord(
                step=step_index,
                simulated_time=float(simulated_time[r]),
                train_loss=train_losses[r],
                max_server_spread=float(spreads[r]),
                learning_rate=self.schedule(step_index),
                phase_durations=durations[r],
            ))
        return records

    # ------------------------------------------------------------------ #
    def global_parameters(self) -> np.ndarray:
        """``(R, D)`` observer view: per-replica median of correct servers."""
        return active_backend().median(
            self.theta[self._correct_server_idx], axis=0)

    def _accuracies(self, observer: np.ndarray,
                    max_samples: Optional[int]) -> np.ndarray:
        """Each lane's test accuracy at its row of ``observer`` ``(R, D)``:
        :func:`~repro.metrics.accuracy.plan_accuracy`'s chunks and integer
        counts, one forward per chunk over a block of lanes, lane ``r``
        reading its seed's test rows (one configuration: every seed's test
        set has one size).  A block's feature stack stays within
        :data:`_FOLD_BUDGET`; lanes of one seed read one view of its rows.
        """
        tests = [seeded.test_dataset for seeded in self._seeds]
        size = len(tests[0])
        limit = size if max_samples is None else min(max_samples, size)
        block = max(1, _FOLD_BUDGET // (EVAL_BATCH * tests[0].features[0].size))
        lane_seeds = self._lane_seed.tolist()
        correct = np.zeros(self.num_replicas, dtype=np.int64)
        for start in range(0, limit, EVAL_BATCH):
            stop = min(start + EVAL_BATCH, limit)
            for first in range(0, self.num_replicas, block):
                lanes = slice(first, first + block)
                seeds = lane_seeds[lanes]
                if seeds.count(seeds[0]) == len(seeds):
                    rows = tests[seeds[0]].features[start:stop]
                    features = (rows[None] if len(seeds) == 1 else
                                np.broadcast_to(rows, (len(seeds),) + rows.shape))
                    labels = tests[seeds[0]].labels[start:stop]
                else:
                    features = np.stack([tests[k].features[start:stop]
                                         for k in seeds])
                    labels = np.stack([tests[k].labels[start:stop]
                                       for k in seeds])
                predictions = np.argmax(self.dense_stack.forward_logits(
                    observer[lanes], features), axis=-1)
                correct[lanes] += np.add.reduce(predictions == labels, axis=1)
        return correct / limit if limit else np.zeros(self.num_replicas)

    def run(self, num_steps: int, eval_every: int = 10,
            max_eval_samples: Optional[int] = 512) -> List[TrainingHistory]:
        """Run ``num_steps`` updates; returns one history per replica."""
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        for step_index in range(num_steps):
            records = self.step(step_index)
            is_eval_step = (step_index % eval_every == 0) \
                or (step_index == num_steps - 1)
            if is_eval_step and self._seeds[0].test_dataset is not None:
                accuracies = self._accuracies(self.global_parameters(),
                                              max_eval_samples)
                for record, accuracy in zip(records, accuracies.tolist()):
                    record.test_accuracy = accuracy
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


def run_batched_scenarios(specs: Sequence, lanes: Optional[int] = None
                          ) -> List[TrainingHistory]:
    """Execute the lanes of one scenario on the batched runtime.

    ``specs`` must be :class:`~repro.campaign.spec.ScenarioSpec` instances
    identical except for :data:`LANE_FIELDS`.  Returns one history per spec,
    in order, each bit-identical to the sequential
    :class:`~repro.core.trainer.GuanYuTrainer` run of that spec.

    With ``lanes > 1`` the replica lanes are split into contiguous chunks
    of ``c = ceil(len(specs) / lanes)`` specs, each executed as its own
    :class:`BatchedGuanYuTrainer` in a process pool of ``lanes`` workers.
    Lane→chunk assignment is deterministic (chunk ``i`` holds
    ``specs[i * c : (i + 1) * c]``) and every lane is fully independent of
    the others, so the merged histories are bit-identical to the
    single-process batched run — and therefore to the sequential trainer —
    per seed.  The active kernel backend propagates to the chunk workers.
    Exceptions raised inside a chunk (including
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
    if multiprocessing.current_process().daemon:
        # Daemonic pool workers (the campaign engine's scenario pool)
        # cannot fork children of their own.
        lanes = 1
    if lanes == 1 or len(specs) <= 1:
        return _run_single_process(specs)

    chunk_size = -(-len(specs) // lanes)
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
