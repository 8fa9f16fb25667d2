"""Vectorised multi-replica GuanYu runtime.

:class:`BatchedGuanYuTrainer` executes ``R`` seeds of **one** scenario in a
single process by stacking every per-replica quantity along a leading
replica axis:

* server parameters are ``(R, D)`` arrays (one row per replica),
* the vectors entering an aggregation are ``(R, n, D)`` stacks routed
  through :meth:`GradientAggregationRule.aggregate_batched`,
* worker gradients come from the replica-batched dense stack
  (:mod:`repro.batch.models`),
* the nodes of a protocol phase all run the same operation, so they fold
  into that leading axis too: one quorum collection, one median/GAR call
  and one forward/backward serve ``J`` nodes as a ``(J·R, ...)`` stack,
  ``J`` bounded by :data:`_FOLD_BUDGET`,
* simulated clocks and message delivery times are ``(R,)`` arrays.

Everything that must differ per replica stays per replica: each lane owns
the delay generator the sequential :class:`NetworkSimulator` would have
used (seeded with the replica's seed and consumed in the identical order),
its own data loaders, attack instances and attack generators, and its own
:class:`~repro.faults.FaultController` for probabilistic drop decisions.
The result is **bit-identical per seed** to running the scenario through
:class:`~repro.core.trainer.GuanYuTrainer` — the tier-1 equivalence test
(``tests/test_batch_equivalence.py``) compares full histories.

Scenarios the batched formulation cannot express (convolutional models,
non-``guanyu`` trainers) raise :class:`BatchingUnsupported`; transient
conditions a single replica would have failed on (quorum starvation under
heavy message loss) raise :class:`BatchedExecutionError`.  The campaign
engine re-runs a failed group one scenario at a time, so one starved seed
cannot fail its siblings; a lone lane's error *is* the scenario's outcome
(for quorum starvation, the sequential simulator's sentence word for
word), so neither ``--batch-seeds`` nor the default R = 1 dispatch can
change an outcome.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aggregation import (
    get_rule,
    pairwise_squared_distances_batched,
    record_decision,
)
from repro.kernels import active_backend
from repro.batch.models import (
    BATCHABLE_MODELS,
    BatchedDenseStack,
    BatchingUnsupported,
)
from repro.core.nodes import (
    GradientResult,
    apply_server_attack,
    apply_worker_attack,
    poison_worker_batch,
)
from repro.core.wiring import ClusterWiring
from repro.faults import FaultController
from repro.metrics.accuracy import evaluate_accuracy
from repro.obs.history import StepRecord, TrainingHistory
from repro.obs.telemetry import get_registry, phase
from repro.obs.tracer import get_tracer
from repro.network.message import MessageKind


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
    """Whether a :class:`ScenarioSpec` can run on the batched runtime."""
    return spec.trainer == "guanyu" and spec.model in BATCHABLE_MODELS


def _seedless_payload(spec) -> Dict:
    payload = spec.to_dict()
    payload.pop("name")
    payload.pop("seed")
    return payload


# --------------------------------------------------------------------------- #
# Per-replica state
# --------------------------------------------------------------------------- #
class _Lane:
    """Everything that is private to one replica."""

    __slots__ = ("spec", "seed", "test_dataset", "eval_model", "loaders",
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
        """Record one honest broadcast: same payload to every recipient."""
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
        base = specs[0]
        if not spec_supports_batching(base):
            raise BatchingUnsupported(
                f"trainer '{base.trainer}' / model '{base.model}' has no "
                f"batched formulation")
        reference = _seedless_payload(base)
        for spec in specs[1:]:
            if _seedless_payload(spec) != reference:
                raise ValueError(
                    "batched execution requires scenarios that differ only "
                    "in seed (and name)")

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
                template = lane.eval_model
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

        self.dense_stack = BatchedDenseStack(template)
        self.num_parameters = template.num_parameters()
        self.billed_parameters = (base.billed_parameters
                                  if base.billed_parameters
                                  else self.num_parameters)
        self._message_bytes = 64 + 4 * self.num_parameters
        self._serialization = self.cost_model.serialization_time(
            self.billed_parameters)
        self.has_faults = base.faults is not None
        # With no probabilistic drops, every fault decision is a pure
        # function of (schedule, step) — judge lane 0 once and share it.
        self._lane_invariant_faults = self.has_faults and \
            base.faults.drop_rate == 0 and \
            not any(event.kind == "drop_rate" for event in base.faults.events)
        # With no fault schedule and a link-independent latency, every
        # honest broadcast of a phase delivers everywhere with one plain
        # draw per message — so a phase's draws can be merged into a single
        # sample_batch call per lane (bit-identical: same generator, same
        # stream order).
        self._fast_delays = (not self.has_faults) and \
            self.delay_model.latency_is_link_independent

        num_workers = len(self.worker_ids)
        num_servers = len(self.server_ids)
        self._buffer1 = _PhaseBuffer(num_workers, num_servers,
                                     self.num_replicas, self.num_parameters,
                                     len(self.attacking_servers))
        self._buffer2 = _PhaseBuffer(num_servers, num_workers,
                                     self.num_replicas, self.num_parameters,
                                     len(self.attacking_workers))
        self._buffer3 = _PhaseBuffer(num_servers, num_servers,
                                     self.num_replicas, self.num_parameters,
                                     len(self.attacking_servers))

        # θ stack: server axis × replica axis × parameter axis.  Every
        # replica starts all of its servers from that replica's θ0.
        theta0 = np.stack([lane.eval_model.get_flat_parameters()
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
        lane.eval_model = model_fn()
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
    # Fault / delay plumbing (per logical message, vectorised over lanes)
    # ------------------------------------------------------------------ #
    def _judge(self, sender: str, recipients: Sequence[str], kind: str,
               step: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(delivered (n, R), factor (n,), extra (n,))`` for one broadcast.

        Crash/partition suppression and link slow-downs are pure functions
        of ``(schedule, step)`` — identical across replicas; only the
        probabilistic drop decision differs per lane (hash-based sampling
        keyed by the lane seed, exactly as the sequential controller).
        """
        count = len(recipients)
        if not self.has_faults:
            return (np.ones((count, self.num_replicas), dtype=bool),
                    np.ones(count), np.zeros(count))
        delivered = np.zeros((count, self.num_replicas), dtype=bool)
        factor = np.ones(count)
        extra = np.zeros(count)
        for j, recipient in enumerate(recipients):
            if self._lane_invariant_faults:
                decision = self.lanes[0].fault_controller.on_send(
                    sender, recipient, kind, step)
                delivered[j, :] = decision.deliver
                if decision.deliver:
                    factor[j] = decision.delay_factor
                    extra[j] = decision.extra_delay
                continue
            for r, lane in enumerate(self.lanes):
                decision = lane.fault_controller.on_send(sender, recipient,
                                                         kind, step)
                delivered[j, r] = decision.deliver
                if decision.deliver:
                    factor[j] = decision.delay_factor
                    extra[j] = decision.extra_delay
        return delivered, factor, extra

    def _broadcast_times(self, sender: str, recipients: Sequence[str],
                         kind: MessageKind, step: int, send_time: np.ndarray,
                         skip_draw: Optional[Set[int]] = None,
                         override: Optional[float] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Delivery times ``(n, R)`` of one sender's messages to ``recipients``.

        Replays the sequential send loop: per replica, one latency draw per
        *delivered* message in recipient order (a single vectorised request
        on the lane generator yields the identical subsequence).  Messages
        with a delay override — Byzantine covert-channel sends
        (``override=0.0``) and a server's message to itself
        (``skip_draw``) — consume no randomness, exactly like the
        sequential simulator.
        """
        delivered, factor, extra = self._judge(sender, recipients,
                                               kind.value, step)
        count = len(recipients)
        delays = np.zeros((count, self.num_replicas))
        if override is None:
            draw_mask = np.ones(count, dtype=bool)
            if skip_draw:
                draw_mask[list(skip_draw)] = False
            for r, lane in enumerate(self.lanes):
                lane_mask = delivered[:, r] & draw_mask
                draws = self.delay_model.sample_batch(
                    lane.delay_rng, sender, None, self._message_bytes,
                    int(lane_mask.sum()))
                delays[lane_mask, r] = draws
        else:
            delays[:] = max(float(override), 0.0)
        delays = delays * factor[:, None] + extra[:, None]
        return delivered, send_time[None, :] + delays

    def _flush_merged(self, buffer: _PhaseBuffer,
                      sends: List[Tuple[int, np.ndarray, np.ndarray,
                                        Optional[int]]],
                      num_recipients: int) -> None:
        """Record a phase's honest broadcasts with one delay draw per lane.

        ``sends`` holds ``(sender_index, payload (R, D), send_time (R,),
        skip)`` in the order the slow path would have drawn them; ``skip``
        is the recipient index whose message consumes no randomness (a
        server's message to itself).  Only valid under ``_fast_delays``:
        with no fault schedule every message delivers with factor 1 and no
        extra delay, and a link-independent latency makes the concatenated
        per-lane draw bit-identical to the per-send ``sample_batch`` calls
        on the same generator.
        """
        counts = [num_recipients - (0 if skip is None else 1)
                  for _, _, _, skip in sends]
        total = sum(counts)
        draws = np.empty((self.num_replicas, total))
        for r, lane in enumerate(self.lanes):
            draws[r] = self.delay_model.sample_batch(
                lane.delay_rng, None, None, self._message_bytes, total)
        offset = 0
        for (s_index, payload, send_time, skip), count in zip(sends, counts):
            segment = draws[:, offset:offset + count]  # (R, count)
            offset += count
            buffer.payloads[s_index] = payload
            times = buffer.times[:, s_index, :]  # (num_recipients, R) view
            if skip is None:
                times[...] = send_time[None, :] + segment.T
            else:
                mask = np.ones(num_recipients, dtype=bool)
                mask[skip] = False
                times[mask] = send_time[None, :] + segment.T
                times[skip] = send_time

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

    def _draw_batches(self, w_index: int, theta: np.ndarray, step_index: int
                      ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Worker ``w_index``'s next mini-batch in every lane (per-lane
        feature and label rows), any data-poisoning hook run at ``theta``
        ``(R, D)`` — the parameters the gradient is computed at, exactly
        like :meth:`WorkerNode.compute_gradient`."""
        worker_id = self.worker_ids[w_index]
        features_rows, labels_rows = [], []
        for r, lane in enumerate(self.lanes):
            features, labels = lane.loaders[w_index].next_batch()
            features, labels = poison_worker_batch(
                lane.worker_attacks[worker_id],
                lane.worker_rngs[w_index], theta[r], step_index,
                features, labels)
            features_rows.append(features)
            labels_rows.append(np.asarray(labels, dtype=np.int64))
        return features_rows, labels_rows

    def _worker_gradients(self, workers: List[int], models: np.ndarray,
                          step_index: int) -> List[tuple]:
        """``(losses (R,), gradients (R, D), samples)`` of each of
        ``workers`` at its aggregated model ``models[j]`` ``(R, D)``.

        Mini-batches are drawn node by node, lane by lane — the order the
        sequential trainer drives loaders, attack generators and adversary
        hooks in.  Workers taking one local step on equal batch shapes then
        share one forward/backward over the folded ``J·R`` axis; a worker
        with ``local_steps > 1`` replays WorkerNode's local-SGD walk op for
        op (k steps from the aggregated model, mean gradient) on its own.
        """
        replicas = self.num_replicas
        results: List[tuple] = [None] * len(workers)
        folded: Dict[tuple, Tuple[list, list, list]] = {}
        for j, w_index in enumerate(workers):
            local_steps = self.profiles[w_index].local_steps
            if local_steps == 1:
                features, labels = self._draw_batches(w_index, models[j],
                                                      step_index)
                members = folded.setdefault(features[0].shape, ([], [], []))
                members[0].append(j)
                members[1].extend(features)
                members[2].extend(labels)
                continue
            eta = self.schedule(step_index)
            theta = models[j]
            gradient_sum = np.zeros_like(theta)
            lane_losses: List[List[float]] = [[] for _ in range(replicas)]
            total_samples = 0
            for _ in range(local_steps):
                features, labels = self._draw_batches(w_index, theta,
                                                      step_index)
                losses, gradients = self.dense_stack.forward_backward(
                    theta, np.stack(features), np.stack(labels))
                gradient_sum += gradients
                for r in range(replicas):
                    lane_losses[r].append(float(losses[r]))
                total_samples += labels[0].shape[0]
                theta = theta - eta * gradients
            results[j] = (
                np.array([float(np.mean(entry)) for entry in lane_losses]),
                gradient_sum / local_steps, total_samples)
        for rows, features, labels in folded.values():
            # one batch shape across the fold (the usual case): no copy
            theta = models if len(rows) == len(workers) else models[rows]
            losses, gradients = self.dense_stack.forward_backward(
                theta.reshape(-1, self.num_parameters),
                np.stack(features), np.stack(labels))
            for j, worker_losses, worker_gradients in zip(
                    rows, losses.reshape(len(rows), replicas),
                    gradients.reshape(len(rows), replicas, -1)):
                results[j] = (worker_losses, worker_gradients,
                              labels[0].shape[0])
        return results

    def _corrupt_models(self, server_index: int, step: int,
                        recipient: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-lane Byzantine model payloads ``(R, D)`` + presence mask."""
        server_id = self.server_ids[server_index]
        payloads = np.zeros((self.num_replicas, self.num_parameters))
        present = np.zeros(self.num_replicas, dtype=bool)
        for r, lane in enumerate(self.lanes):
            value = apply_server_attack(lane.server_attacks[server_id],
                                        lane.server_rngs[server_index],
                                        self.theta[server_index, r], step,
                                        recipient=recipient)
            if value is not None:
                payloads[r] = value
                present[r] = True
        return payloads, present

    # ------------------------------------------------------------------ #
    def step(self, step_index: int) -> List[StepRecord]:
        """One three-phase GuanYu step across all replicas.

        Returns one :class:`StepRecord` per replica, bit-identical to the
        record the sequential trainer produces for that replica's seed.
        """
        config = self.config
        cost = self.cost_model
        d = self.billed_parameters
        serialization = self._serialization
        replicas = self.num_replicas
        tracer = get_tracer()

        if self.has_faults:
            for lane in self.lanes:
                lane.fault_controller.on_step(step_index)
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

        # ------------------------- Phase 1 ------------------------------ #
        with phase("batch.step.broadcast", runtime="batch", step=step_index,
                   replicas=replicas):
            fast = self._fast_delays
            buffer1 = self._buffer1
            buffer1.reset()
            merged: List[Tuple[int, np.ndarray, np.ndarray,
                               Optional[int]]] = []
            for s_index, server_id in enumerate(self.server_ids):
                if server_id not in active_servers:
                    continue
                if server_id in self.attacking_servers:
                    for w_index, worker_id in enumerate(self.worker_ids):
                        payloads, present = self._corrupt_models(
                            s_index, step_index, recipient=worker_id)
                        delivered, times = self._broadcast_times(
                            server_id, [worker_id],
                            MessageKind.MODEL_TO_WORKER, step_index,
                            phase_start, override=0.0)
                        buffer1.add_directed(w_index, s_index, payloads,
                                             present & delivered[0], times[0])
                else:
                    send_time = self.server_clock[s_index] + serialization
                    if fast:
                        merged.append((s_index, self.theta[s_index], send_time,
                                       None))
                    else:
                        delivered, times = self._broadcast_times(
                            server_id, self.worker_ids,
                            MessageKind.MODEL_TO_WORKER, step_index, send_time)
                        buffer1.add_broadcast(s_index, self.theta[s_index],
                                              delivered, times)
            if merged:
                self._flush_merged(buffer1, merged, len(self.worker_ids))

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
                stacked, completion, _ = buffer1.collect(
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
            peer_gradients = [
                [gradient_stack[index][r]
                 for index in alive_correct_worker_idx]
                for r in range(replicas)]
            buffer2 = self._buffer2
            buffer2.reset()
            merged = []
            for w_index in active_worker_indices:
                worker_id = self.worker_ids[w_index]
                if worker_id in self.attacking_workers:
                    for s_index, server_id in enumerate(self.server_ids):
                        payloads = np.zeros((replicas, self.num_parameters))
                        present = np.zeros(replicas, dtype=bool)
                        for r, lane in enumerate(self.lanes):
                            result = GradientResult(
                                gradient=gradient_stack[w_index][r],
                                loss=float(loss_stack[w_index][r]),
                                batch_size=batch_sizes[w_index])
                            value = apply_worker_attack(
                                lane.worker_attacks[worker_id],
                                lane.worker_rngs[w_index], result, step_index,
                                peer_gradients=peer_gradients[r],
                                recipient=server_id,
                                model=model_stack[w_index][r])
                            if value is not None:
                                payloads[r] = value
                                present[r] = True
                        delivered, times = self._broadcast_times(
                            worker_id, [server_id],
                            MessageKind.GRADIENT_TO_SERVER, step_index,
                            phase_start, override=0.0)
                        buffer2.add_directed(s_index, w_index, payloads,
                                             present & delivered[0], times[0])
                else:
                    send_time = self.worker_clock[w_index] + serialization
                    if fast:
                        merged.append((w_index, gradient_stack[w_index],
                                       send_time, None))
                    else:
                        delivered, times = self._broadcast_times(
                            worker_id, self.server_ids,
                            MessageKind.GRADIENT_TO_SERVER, step_index,
                            send_time)
                        buffer2.add_broadcast(w_index, gradient_stack[w_index],
                                              delivered, times)
            if merged:
                self._flush_merged(buffer2, merged, len(self.server_ids))

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
                stacked, completion, senders = buffer2.collect(
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
            buffer3 = self._buffer3
            buffer3.reset()
            merged = []
            for s_index, server_id in enumerate(self.server_ids):
                if server_id not in active_servers:
                    continue
                if server_id in self.attacking_servers:
                    for peer_index, peer_id in enumerate(self.server_ids):
                        payloads, present = self._corrupt_models(
                            s_index, step_index, recipient=peer_id)
                        delivered, times = self._broadcast_times(
                            server_id, [peer_id], MessageKind.MODEL_TO_SERVER,
                            step_index, phase_start, override=0.0)
                        buffer3.add_directed(peer_index, s_index, payloads,
                                             present & delivered[0], times[0])
                else:
                    send_time = self.server_clock[s_index] + serialization
                    if fast:
                        merged.append((s_index, self.theta[s_index], send_time,
                                       s_index))
                    else:
                        delivered, times = self._broadcast_times(
                            server_id, self.server_ids,
                            MessageKind.MODEL_TO_SERVER, step_index, send_time,
                            skip_draw={s_index})
                        buffer3.add_broadcast(
                            s_index, self.theta[s_index].copy(), delivered,
                            times)
            if merged:
                self._flush_merged(buffer3, merged, len(self.server_ids))

            for fold in self._folds(active_correct_server_idx,
                                    config.model_quorum):
                stacked, completion, _ = buffer3.collect(
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
        lane.eval_model.set_flat_parameters(parameters)
        return evaluate_accuracy(lane.eval_model, lane.test_dataset,
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
    campaign engine's sequential fallback applies as usual.
    """
    specs = list(specs)
    for spec in specs:
        spec.validate()
    if specs and not spec_supports_batching(specs[0]):
        raise BatchingUnsupported(
            f"trainer '{specs[0].trainer}' / model '{specs[0].model}' has "
            f"no batched formulation")
    # The cross-spec check must run in the parent: chunks only see their
    # own slice, and a mixed group split across chunks would otherwise be
    # silently accepted.
    reference = _seedless_payload(specs[0]) if specs else None
    for spec in specs[1:]:
        if _seedless_payload(spec) != reference:
            raise ValueError(
                "batched execution requires scenarios that differ only "
                "in seed (and name)")

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
