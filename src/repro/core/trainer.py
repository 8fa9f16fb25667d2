"""The sequential simulator: one protocol step for GuanYu and its baselines.

:class:`GuanYuTrainer` runs a protocol over the asynchronous network
simulator, one walk over :data:`~repro.network.message.ROUTES` per step.
Which routes it walks is the protocol (``repro.runtime.facade.TRAINERS``):

* GuanYu walks all three — the three-phase protocol of Section 3.3 with
  ``n`` replicated, possibly Byzantine parameter servers and ``n̄``
  possibly Byzantine workers;
* the single-server baselines walk the first two with one *trusted*
  server (:class:`~repro.core.config.TrustedServerConfig`): "vanilla TF"
  and "vanilla GuanYu" (the same computation paying the serialisation
  overhead of Section 4, ``external_communication``) aggregate with the
  rule they are given, single-server Multi-Krum (Blanchard et al., 2017)
  with Multi-Krum.

Every run writes a :class:`repro.obs.history.TrainingHistory`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.adversary.base import ServerAttack, WorkerAttack
from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode, WorkerNode, max_pairwise_distance
from repro.core.wiring import ClusterWiring, SeedWiring
from repro.data.datasets import Dataset
from repro.faults import FaultSchedule
from repro.hetero import HeteroSpec
from repro.kernels import active_backend
from repro.aggregation.decision import record_decision
from repro.metrics.accuracy import evaluate_accuracy, plan_accuracy
from repro.obs.history import StepRecord, TrainingHistory, phase_durations
from repro.obs.telemetry import phase
from repro.obs.tracer import get_tracer
from repro.network.delays import DelayModel, UniformDelay
from repro.network.message import ROUTES, MessageKind, one_trusted_server
from repro.network.simulator import NetworkSimulator
from repro.nn.module import Module
from repro.nn.plan import dense_plan
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule
from repro.runtime.cost import GRID5000_LIKE, CostModel

ModelFactory = Callable[[], Module]

#: the ``history.config`` keys of a protocol with one trusted server
TRUSTED_SERVER_KEYS = ("num_workers", "batch_size", "external_communication",
                       "gradient_rule", "num_attacking_workers",
                       "worker_attack", "hetero")


class GuanYuTrainer:
    """A protocol (paper Section 3.3, or a baseline) over the simulated network.

    Parameters
    ----------
    config:
        Cluster arithmetic ``(n, f, n̄, f̄, q, q̄)``.  The Byzantine counts in
        the config are the *declared* numbers (they size the quorums and the
        aggregation rules); the *actual* number of attacking nodes is given
        separately so that, as in the paper's Figure 3, a deployment can
        declare ``f̄ = 5`` while running in a non-Byzantine environment.
        A baseline's is a :class:`~repro.core.config.TrustedServerConfig`.
    model_fn:
        Zero-argument factory returning a *fresh but identically initialised*
        model: every worker calls it, and one more model is every server's
        θ_0 (and the evaluated model), so all replicas start from the same
        θ_0.
    train_dataset, test_dataset:
        Training data (sharded across workers) and held-out evaluation data.
    worker_attack, num_attacking_workers:
        Behaviour and count of actually-Byzantine workers (last worker ids).
    server_attack, num_attacking_servers:
        Behaviour and count of actually-Byzantine servers (last server ids).
    gradient_rule_name, model_rule_name:
        GARs used for phase 2 (default Multi-Krum) and phases 1/3 (default
        coordinate-wise median); exposed for the ablation benchmarks.
    adversary:
        Optional :class:`~repro.adversary.Adversary` controlling *all*
        actually-Byzantine nodes as one colluding entity (mutually
        exclusive with ``worker_attack`` / ``server_attack``, which the
        wiring lifts into a :class:`~repro.adversary.StatelessAdversary`
        itself).  The attacking counts still come from
        ``num_attacking_workers`` / ``num_attacking_servers``.
    routes:
        The :data:`~repro.network.message.ROUTES` kinds a step walks, in
        order: all three for GuanYu; without ``MODEL_TO_SERVER`` the one
        server is trusted — it waits for every worker that sends, and
        Byzantine workers send on the honest channel.
    external_communication:
        Whether a protocol without the servers' exchange bills each
        message's serialisation (communication outside the framework,
        Section 4).  GuanYu always does.
    batch_size:
        Per-worker mini-batch size (the paper uses 128 and 32).
    schedule:
        Learning-rate schedule η_t (paper default: constant 0.001).
    delay_model, cost_model:
        Network latency distribution and local-computation cost model that
        together define the simulated clock.
    sharding:
        ``"iid"``, ``"replicated"`` or ``"by_class"`` (see
        :func:`repro.data.loader.partition_dataset`).
    seed:
        Master seed; every stochastic component is derived from it.
    cost_num_parameters:
        Parameter count used by the *cost model only* (computation and
        serialisation times, message sizes on the simulated clock).  The
        scaled-down experiments train a small model but bill time as if the
        paper's 1.75 M-parameter CNN were being exchanged, which preserves
        the time-axis shape of Figure 3.  Defaults to the actual model size.
    fault_schedule:
        Optional time-varying faults (see :mod:`repro.faults`).  Crashed
        nodes skip their local computation and all traffic; quorums keep the
        protocol live as long as every receiver can still hear from a full
        quorum (e.g. ≤ ``f`` crashed servers with the default quorums), and
        an infeasible schedule fails loudly with a quorum error.
    hetero:
        Optional :class:`~repro.hetero.HeteroSpec`: non-i.i.d. data
        partitions (Dirichlet label skew, shard splits, sample imbalance,
        feature drift) and heterogeneous worker profiles (per-worker batch
        size, local steps, delay multiplier).  Partitions are a pure
        function of ``(seed, num_workers, hetero)``, identical across all
        runtimes; absent means the legacy homogeneous ``sharding`` split.
    """

    def __init__(self, config: ClusterConfig, model_fn: ModelFactory,
                 train_dataset: Dataset, test_dataset: Optional[Dataset] = None,
                 worker_attack: Optional[WorkerAttack] = None,
                 num_attacking_workers: int = 0,
                 server_attack: Optional[ServerAttack] = None,
                 num_attacking_servers: int = 0,
                 gradient_rule_name: str = "multi_krum",
                 model_rule_name: str = "median",
                 adversary=None,
                 routes: Sequence[MessageKind] = tuple(ROUTES),
                 external_communication: bool = False,
                 batch_size: int = 32,
                 schedule: Optional[LearningRateSchedule] = None,
                 delay_model: Optional[DelayModel] = None,
                 cost_model: CostModel = GRID5000_LIKE,
                 sharding: str = "iid", seed: int = 0,
                 cost_num_parameters: Optional[int] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 hetero: Optional[HeteroSpec] = None,
                 label: str = "guanyu") -> None:
        self.config = config
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.schedule = schedule if schedule is not None else ConstantSchedule(0.001)
        self.cost_model = cost_model
        self.gradient_rule_name = gradient_rule_name
        self.model_rule_name = model_rule_name
        self.routes = {kind: ROUTES[kind] for kind in routes}
        #: one trusted server, no servers' exchange: it waits for every
        #: worker that sends, so a Byzantine worker gains nothing from the
        #: adversary's covert channel and sends on the honest one
        self._trusted = one_trusted_server(self.routes)

        #: θ_0 for every server, and the evaluated model: through its
        #: dense plan when it has one, else through the tape
        self._eval_model = model_fn()
        self._eval_plan = dense_plan(self._eval_model)
        self.num_parameters = self._eval_model.num_parameters()
        self.billed_parameters = (cost_num_parameters if cost_num_parameters
                                  else self.num_parameters)
        #: seconds a sender spends serialising each message
        self._overhead = (self.cost_model.serialization_time(
            self.billed_parameters)
            if external_communication or not self._trusted else 0.0)

        self.wiring = ClusterWiring(SeedWiring(
            config, train_dataset, seed=seed, batch_size=batch_size,
            sharding=sharding, hetero=hetero, schedule=self.schedule,
            fault_schedule=fault_schedule),
            worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers,
            server_attack=server_attack,
            num_attacking_servers=num_attacking_servers,
            gradient_rule_name=gradient_rule_name,
            model_rule_name=model_rule_name, adversary=adversary)
        self.adversary_coordinator = self.wiring.coordinator
        self.network = NetworkSimulator(delay_model=delay_model or UniformDelay(),
                                        seed=seed,
                                        fault_controller=self.wiring.faults)
        self.workers: List[WorkerNode] = [
            self.wiring.worker(index, model_fn())
            for index in range(len(self.wiring.worker_ids))]
        self.servers: List[ServerNode] = [
            self.wiring.server(index, self._eval_model)
            for index in range(len(self.wiring.server_ids))]
        #: straggler factor each worker's profile applies to its compute time
        self._delay_multipliers: Dict[str, float] = {
            worker_id: profile.delay_multiplier
            for worker_id, profile in zip(self.wiring.worker_ids,
                                          self.wiring.profiles)}

        self._server_clock = {server.node_id: 0.0 for server in self.servers}
        self._worker_clock = {worker.node_id: 0.0 for worker in self.workers}
        self.history = TrainingHistory(label=label)
        recorded = {**self.wiring.history_config,
                    "external_communication": external_communication}
        self.history.config = \
            {key: recorded[key] for key in TRUSTED_SERVER_KEYS} \
            if self._trusted else dict(self.wiring.history_config)

    # ------------------------------------------------------------------ #
    @property
    def correct_servers(self) -> List[ServerNode]:
        return [server for server in self.servers if not server.is_byzantine]

    def global_parameters(self) -> np.ndarray:
        """Coordinate-wise median of the correct servers' models (paper Eq. 1)."""
        vectors = [server.current_parameters() for server in self.correct_servers]
        return active_backend().median(np.stack(vectors), axis=0)

    def server_spread(self) -> float:
        """``max_{a,b} ||θ^(a) − θ^(b)||`` over correct servers."""
        return max_pairwise_distance(
            [server.current_parameters() for server in self.correct_servers])

    def _evaluate(self, parameters: np.ndarray, max_samples: Optional[int]) -> float:
        if self._eval_plan is not None:
            return plan_accuracy(self._eval_plan, parameters,
                                 self.test_dataset, max_samples=max_samples)
        self._eval_model.set_flat_parameters(parameters)
        return evaluate_accuracy(self._eval_model, self.test_dataset,
                                 max_samples=max_samples)

    # ------------------------------------------------------------------ #
    def _scatter(self, senders: List, kind: MessageKind, step: int,
                 clock: Dict[str, float], phase_start: float,
                 peers: List[np.ndarray]) -> int:
        """Every node of ``senders`` sends ``kind`` to every recipient of
        its route (:data:`~repro.network.message.ROUTES`); returns how many
        of them sent anything.

        What a sender sends is its ``outgoing(step, recipient, peers)``.
        A Byzantine sender is asked per recipient, and under GuanYu races
        honest traffic on the adversary's covert channel: sent at
        ``phase_start``, no delay.  An honest sender is asked once
        (``recipient=None``).  Every other message leaves at its sender's
        ``clock`` plus the serialisation overhead; a node's message to
        itself (phase 3 only) is available to it immediately.
        """
        recipients = ROUTES[kind].of(self.wiring.worker_ids,
                                     self.wiring.server_ids)[1]
        sent = 0
        for sender in senders:
            byzantine = sender.is_byzantine
            send_time, delay = (phase_start, 0.0) \
                if byzantine and not self._trusted \
                else (clock[sender.node_id] + self._overhead, None)
            value = None if byzantine else sender.outgoing(step, None, peers)
            spoke = False
            for recipient in recipients:
                if byzantine:
                    value = sender.outgoing(step, recipient, peers)
                spoke |= value is not None
                self.network.send(
                    sender.node_id, recipient, kind, step, value,
                    send_time=send_time,
                    delay_override=0.0 if recipient == sender.node_id else delay)
            sent += spoke
        return sent

    def _collect(self, recipients: List, kind: MessageKind, step: int,
                 clock: Dict[str, float], sent: int) -> None:
        """Every node of ``recipients`` reduces its first quorum of
        ``kind`` (its ``receive``), and its clock moves to the quorum's
        completion plus the cost model's ``receive_time``, scaled by a
        worker's straggler factor.

        The quorum is the config's.  Under one trusted server it is every
        one of the ``sent`` senders, at least one: with none, the quorum
        error stands."""
        route = ROUTES[kind]
        quorum = max(sent, 1) if self._trusted else route.quorum(
            self.config.model_quorum, self.config.gradient_quorum)
        record_decisions = route.senders == "worker" \
            and get_tracer().record_decisions
        for node in recipients:
            record = self.network.collect_quorum(
                node.node_id, kind, step, quorum=quorum,
                not_before=clock[node.node_id])
            result = node.receive(kind, record.payloads, step)
            if record_decisions:
                rule = node.gradient_aggregator
                # a Byzantine server applies nothing: one call on the side
                aggregate = node.last_aggregate if not node.is_byzantine \
                    else rule.decide_batched(np.stack(record.payloads)[None])
                record_decision("seq.gar.decision", rule, record.payloads,
                                aggregate, record.senders,
                                self.wiring.attacking_workers,
                                step=step, node=node.node_id)
            clock[node.node_id] = record.completion_time \
                + self._delay_multipliers.get(node.node_id, 1.0) \
                * self.cost_model.receive_time(
                    kind, quorum, self.billed_parameters,
                    self.gradient_rule_name,
                    result.batch_size if result is not None else 0)

    def step(self, step_index: int) -> StepRecord:
        """One protocol step: one walk over the trainer's :attr:`routes`,
        for GuanYu the three phases of Figure 2.

        On each route the participating senders scatter, then every
        participating recipient collects its first quorum and reduces it.
        Under a fault schedule, crashed nodes neither compute nor send nor
        collect for the step, and nodes left short of a quorum (e.g.
        partitioned away) stall with frozen state until reachability
        returns; everyone else proceeds on quorums alone.  A schedule that
        starves *everyone* freezes learning for the step — visible as
        ``train_loss=None`` — and training resumes when the faults lift.
        A Byzantine server collects nothing: it sends on the covert
        channel, never on its own clock, and installs nothing.
        """
        active_workers, active_servers, alive = \
            self.wiring.simulated_step(step_index, "seq")
        workers = [w for w in self.workers if w.node_id in active_workers]
        servers = [s for s in self.servers if s.node_id in active_servers]
        correct_workers = [w for w in workers if not w.is_byzantine]
        receivers = (workers, [s for s in servers if not s.is_byzantine])
        # a phase ends when, on average, the correct participating workers
        # or the live correct servers (stalled ones included) finish it
        observed = ([w.node_id for w in correct_workers], alive)
        clocks = (self._worker_clock, self._server_clock)
        phase_start = min(self._server_clock[node_id] for node_id in alive)

        phase_ends: Dict[str, float] = {}
        peers: List[np.ndarray] = []  # the honest gradients, once computed
        for kind, route in self.routes.items():
            recipients = route.of(*receivers)[1]
            sender_clock, clock = route.of(*clocks)
            with phase(f"seq.step.{route.scatter}", runtime="seq",
                       step=step_index):
                sent = self._scatter(route.of(workers, servers)[0], kind,
                                     step_index, sender_clock, phase_start,
                                     peers)
                if route.collect == route.scatter:  # the servers' exchange
                    self._collect(recipients, kind, step_index, clock, sent)
            if route.collect != route.scatter:
                with phase(f"seq.step.{route.collect}", runtime="seq",
                           step=step_index,
                           **{f"{route.recipients}s": len(recipients)}):
                    self._collect(recipients, kind, step_index, clock, sent)
            ends = [clock[node_id] for node_id in route.of(*observed)[1]]
            phase_ends[route.phase] = \
                float(np.mean(ends)) if ends else phase_start
            peers = [w.last_result.gradient for w in correct_workers]

        # Drop anything left over from this step (late messages are discarded).
        self.network.purge_step(step_index)
        correct_losses = [w.last_result.loss for w in correct_workers]
        return StepRecord(
            step=step_index,
            simulated_time=max(self._server_clock[node_id]
                               for node_id in alive),
            train_loss=float(np.mean(correct_losses)) if correct_losses else None,
            max_server_spread=self.server_spread(),
            learning_rate=self.schedule(step_index),
            phase_durations=phase_durations(phase_start, phase_ends)[0],
        )

    def run(self, num_steps: int, eval_every: int = 10,
            max_eval_samples: Optional[int] = 512) -> TrainingHistory:
        """Run ``num_steps`` model updates.

        Accuracy is evaluated every ``eval_every`` steps (and on the final
        step) on at most ``max_eval_samples`` held-out samples.
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        for step_index in range(num_steps):
            record = self.step(step_index)
            is_eval_step = (step_index % eval_every == 0) or (step_index == num_steps - 1)
            if is_eval_step and self.test_dataset is not None:
                record.test_accuracy = self._evaluate(self.global_parameters(),
                                                      max_eval_samples)
            self.history.add(record)
        return self.history
