"""Distributed trainers: GuanYu and its single-server baselines.

Three trainers are provided, all sharing the same constructor vocabulary
(model factory, dataset, batch size, learning-rate schedule, delay and cost
models, seeds) and the same output (:class:`repro.obs.history.TrainingHistory`):

* :class:`GuanYuTrainer` — the full three-phase protocol of Section 3.3 with
  ``n`` replicated, possibly Byzantine parameter servers and ``n̄`` possibly
  Byzantine workers, run over the asynchronous network simulator.
* :class:`VanillaTrainer` — a single *trusted* parameter server averaging
  worker gradients.  With ``external_communication=False`` it models the
  paper's "vanilla TF" baseline (optimised in-runtime communication); with
  ``external_communication=True`` it models "vanilla GuanYu" (same graph,
  communication handled outside the framework, paying the serialisation
  overhead of Section 4).
* :class:`SingleServerKrumTrainer` — the prior-work baseline: Byzantine
  workers tolerated through Multi-Krum, but the single parameter server is
  still assumed honest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adversary.base import ServerAttack, WorkerAttack
from repro.aggregation import ArithmeticMean, CoordinateWiseMedian, MultiKrum
from repro.core.config import ClusterConfig
from repro.core.nodes import GradientResult, ServerNode, WorkerNode, max_pairwise_distance
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
from repro.network.message import ROUTES, MessageKind
from repro.network.simulator import NetworkSimulator
from repro.nn.module import Module
from repro.nn.plan import dense_plan
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule
from repro.runtime.cost import GRID5000_LIKE, CostModel

ModelFactory = Callable[[], Module]


class DistributedTrainer:
    """Shared infrastructure for the distributed trainers.

    Parameters
    ----------
    model_fn:
        Zero-argument factory returning a *fresh but identically initialised*
        model: every worker calls it, and one more model is every server's
        θ_0 (and the evaluated model), so all replicas start from the same
        θ_0.
    train_dataset, test_dataset:
        Training data (sharded across workers) and held-out evaluation data.
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
        Optional declarative :class:`~repro.faults.FaultSchedule` (crashes,
        partitions, delay spikes, gated attacks) injected at the network
        and protocol layer.  Only :class:`GuanYuTrainer` supports it — the
        single-server baselines assume a live trusted server.
    hetero:
        Optional :class:`~repro.hetero.HeteroSpec`: non-i.i.d. data
        partitions (Dirichlet label skew, shard splits, sample imbalance,
        feature drift) and heterogeneous worker profiles (per-worker batch
        size, local steps, delay multiplier).  Partitions are a pure
        function of ``(seed, num_workers, hetero)``, identical across all
        runtimes; absent means the legacy homogeneous ``sharding`` split.
    """

    def __init__(self, model_fn: ModelFactory, train_dataset: Dataset,
                 test_dataset: Optional[Dataset] = None, batch_size: int = 32,
                 schedule: Optional[LearningRateSchedule] = None,
                 delay_model: Optional[DelayModel] = None,
                 cost_model: CostModel = GRID5000_LIKE,
                 sharding: str = "iid", seed: int = 0,
                 cost_num_parameters: Optional[int] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 hetero: Optional[HeteroSpec] = None,
                 label: str = "experiment") -> None:
        self.model_fn = model_fn
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.hetero = hetero
        self.schedule = schedule if schedule is not None else ConstantSchedule(0.001)
        self.delay_model = delay_model if delay_model is not None else UniformDelay()
        self.cost_model = cost_model
        self.sharding = sharding
        self.seed = seed
        self.label = label
        self.fault_schedule = fault_schedule

        #: θ_0 for every server, and the evaluated model: through its
        #: dense plan when it has one, else through the tape
        self._eval_model = model_fn()
        self._eval_plan = dense_plan(self._eval_model)
        self.num_parameters = self._eval_model.num_parameters()
        self.billed_parameters = (cost_num_parameters if cost_num_parameters
                                  else self.num_parameters)
        self.history = TrainingHistory(label=label)

    # ------------------------------------------------------------------ #
    # Helpers shared by subclasses
    # ------------------------------------------------------------------ #
    def _wire(self, config: ClusterConfig, **attacks) -> ClusterWiring:
        """Derive the network and the workers from the one shared scenario
        wiring (:mod:`repro.core.wiring`)."""
        wiring = ClusterWiring(SeedWiring(
            config, self.train_dataset, seed=self.seed,
            batch_size=self.batch_size, sharding=self.sharding,
            hetero=self.hetero, schedule=self.schedule,
            fault_schedule=self.fault_schedule), **attacks)
        self.network = NetworkSimulator(delay_model=self.delay_model,
                                        seed=self.seed,
                                        fault_controller=wiring.faults)
        self.workers: List[WorkerNode] = [
            wiring.worker(index, self.model_fn())
            for index in range(len(wiring.worker_ids))]
        #: straggler factor each worker's profile applies to its compute time
        self._delay_multipliers: Dict[str, float] = {
            worker_id: profile.delay_multiplier
            for worker_id, profile in zip(wiring.worker_ids, wiring.profiles)}
        return wiring

    def _evaluate(self, parameters: np.ndarray, max_samples: Optional[int]) -> float:
        if self.test_dataset is None:
            return float("nan")
        if self._eval_plan is not None:
            return plan_accuracy(self._eval_plan, parameters,
                                 self.test_dataset, max_samples=max_samples)
        self._eval_model.set_flat_parameters(parameters)
        return evaluate_accuracy(self._eval_model, self.test_dataset,
                                 max_samples=max_samples)

    def _serialization(self) -> float:
        return self.cost_model.serialization_time(self.billed_parameters)

    # ------------------------------------------------------------------ #
    def global_parameters(self) -> np.ndarray:
        """Parameter vector an external observer would read (trainer-specific)."""
        raise NotImplementedError

    def step(self, step_index: int) -> StepRecord:
        """Execute one learning step and return its record."""
        raise NotImplementedError

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


# --------------------------------------------------------------------------- #
# GuanYu
# --------------------------------------------------------------------------- #
class GuanYuTrainer(DistributedTrainer):
    """The GuanYu protocol (paper Section 3.3) over the simulated network.

    Parameters
    ----------
    config:
        Cluster arithmetic ``(n, f, n̄, f̄, q, q̄)``.  The Byzantine counts in
        the config are the *declared* numbers (they size the quorums and the
        aggregation rules); the *actual* number of attacking nodes is given
        separately so that, as in the paper's Figure 3, a deployment can
        declare ``f̄ = 5`` while running in a non-Byzantine environment.
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
    fault_schedule:
        Optional time-varying faults (see :mod:`repro.faults`).  Crashed
        nodes skip their local computation and all traffic; quorums keep the
        protocol live as long as every receiver can still hear from a full
        quorum (e.g. ≤ ``f`` crashed servers with the default quorums), and
        an infeasible schedule fails loudly with a quorum error.
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
                 label: str = "guanyu", **kwargs) -> None:
        super().__init__(model_fn=model_fn, train_dataset=train_dataset,
                         test_dataset=test_dataset, label=label, **kwargs)
        self.config = config
        self.adversary = adversary
        self.gradient_rule_name = gradient_rule_name
        self.model_rule_name = model_rule_name
        self.wiring = self._wire(
            config, worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers,
            server_attack=server_attack,
            num_attacking_servers=num_attacking_servers,
            gradient_rule_name=gradient_rule_name,
            model_rule_name=model_rule_name, adversary=adversary)
        self.adversary_coordinator = self.wiring.coordinator
        self.servers: List[ServerNode] = [
            self.wiring.server(index, self._eval_model)
            for index in range(len(self.wiring.server_ids))]

        self._server_clock = {server.node_id: 0.0 for server in self.servers}
        self._worker_clock = {worker.node_id: 0.0 for worker in self.workers}
        self.history.config = dict(self.wiring.history_config)

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

    # ------------------------------------------------------------------ #
    def _scatter(self, senders: List, kind: MessageKind, step: int,
                 clock: Dict[str, float], phase_start: float,
                 peers: List[np.ndarray]) -> None:
        """Every node of ``senders`` sends ``kind`` to every recipient of
        its route (:data:`~repro.network.message.ROUTES`).

        What a sender sends is its ``outgoing(step, recipient, peers)``.
        A Byzantine sender is asked per recipient and races honest traffic
        on the adversary's covert channel: sent at ``phase_start``, no
        delay.  An honest sender is asked once (``recipient=None``) and
        sends at its ``clock`` plus the serialisation time; its message to
        itself (phase 3 only) is available to it immediately.
        """
        recipients = ROUTES[kind].of(self.wiring.worker_ids,
                                     self.wiring.server_ids)[1]
        for sender in senders:
            if sender.is_byzantine:
                for recipient in recipients:
                    self.network.send(sender.node_id, recipient, kind, step,
                                      sender.outgoing(step, recipient, peers),
                                      send_time=phase_start,
                                      delay_override=0.0)
                continue
            value = sender.outgoing(step, None, peers)
            send_time = clock[sender.node_id] + self._serialization()
            for recipient in recipients:
                self.network.send(
                    sender.node_id, recipient, kind, step, value,
                    send_time=send_time,
                    delay_override=0.0 if recipient == sender.node_id else None)

    def _collect(self, recipients: List, kind: MessageKind, step: int,
                 clock: Dict[str, float]) -> None:
        """Every node of ``recipients`` reduces its first quorum of
        ``kind`` (its ``receive``), and its clock moves to the quorum's
        completion plus the cost model's ``receive_time``, scaled by a
        worker's straggler factor."""
        route = ROUTES[kind]
        quorum = route.quorum(self.config.model_quorum,
                              self.config.gradient_quorum)
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
        """One full GuanYu step: one walk over
        :data:`~repro.network.message.ROUTES`, the three phases of Figure 2.

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
        for kind, route in ROUTES.items():
            recipients = route.of(*receivers)[1]
            sender_clock, clock = route.of(*clocks)
            with phase(f"seq.step.{route.scatter}", runtime="seq",
                       step=step_index):
                self._scatter(route.of(workers, servers)[0], kind, step_index,
                              sender_clock, phase_start, peers)
                if route.collect == route.scatter:  # the servers' exchange
                    self._collect(recipients, kind, step_index, clock)
            if route.collect != route.scatter:
                with phase(f"seq.step.{route.collect}", runtime="seq",
                           step=step_index,
                           **{f"{route.recipients}s": len(recipients)}):
                    self._collect(recipients, kind, step_index, clock)
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


# --------------------------------------------------------------------------- #
# Single-server baselines
# --------------------------------------------------------------------------- #
class _TrustedServerConfig(ClusterConfig):
    """The baselines' degenerate cluster: one trusted server, so none of the
    ``3f + 3`` / quorum arithmetic applies and any worker may attack."""

    def __post_init__(self) -> None:
        self.model_quorum, self.gradient_quorum = 1, self.num_workers


class VanillaTrainer(DistributedTrainer):
    """Single trusted parameter server averaging worker gradients.

    ``external_communication=False`` models the paper's **vanilla TF**
    baseline (communication inside the optimised framework runtime);
    ``external_communication=True`` models **vanilla GuanYu** (identical
    computation graph, communication handled outside the framework and thus
    paying the tensor→numpy→protobuf serialisation cost of Section 4).
    """

    SERVER_ID = "ps/0"

    def __init__(self, model_fn: ModelFactory, train_dataset: Dataset,
                 test_dataset: Optional[Dataset] = None, num_workers: int = 4,
                 worker_attack: Optional[WorkerAttack] = None,
                 num_attacking_workers: int = 0,
                 external_communication: bool = False,
                 gradient_rule=None, label: str = "vanilla", **kwargs) -> None:
        super().__init__(model_fn=model_fn, train_dataset=train_dataset,
                         test_dataset=test_dataset, label=label, **kwargs)
        if self.fault_schedule is not None:
            raise ValueError(
                "fault schedules require replicated parameter servers; the "
                "single-server trainers assume a live trusted server — use "
                "GuanYuTrainer or the threaded runtime")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if num_attacking_workers > num_workers:
            raise ValueError("cannot have more attacking workers than workers")
        self.num_workers = num_workers
        self.external_communication = external_communication
        self.gradient_rule = gradient_rule if gradient_rule is not None else ArithmeticMean()

        # With a single trusted server there is no model aggregation at the
        # workers: the "median of one" is the identity.
        wiring = self._wire(
            _TrustedServerConfig(num_servers=1, num_workers=num_workers,
                                 num_byzantine_workers=num_attacking_workers),
            worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers)
        self.server = ServerNode(
            node_id=self.SERVER_ID,
            parameters=self._eval_model.get_flat_parameters(),
            gradient_aggregator=self.gradient_rule,
            model_aggregator=CoordinateWiseMedian(num_byzantine=0),
            schedule=self.schedule,
            seed=wiring.server_rng_seed(0),
        )
        self._server_clock = 0.0
        self._worker_clock = {worker.node_id: 0.0 for worker in self.workers}
        self.history.config = {
            "num_workers": num_workers,
            "batch_size": self.batch_size,
            "external_communication": external_communication,
            "gradient_rule": getattr(self.gradient_rule, "name", "mean"),
            "num_attacking_workers": num_attacking_workers,
            "worker_attack": getattr(worker_attack, "name", None),
            "hetero": self.hetero.to_dict() if self.hetero else None,
        }

    # ------------------------------------------------------------------ #
    def global_parameters(self) -> np.ndarray:
        return self.server.current_parameters()

    def _overhead(self) -> float:
        return self._serialization() if self.external_communication else 0.0

    def step(self, step_index: int) -> StepRecord:
        cost = self.cost_model
        d = self.billed_parameters
        overhead = self._overhead()
        worker_ids = [worker.node_id for worker in self.workers]

        # Server broadcasts the current model to every worker.
        self.network.broadcast(self.SERVER_ID, worker_ids,
                               MessageKind.MODEL_TO_WORKER, step_index,
                               self.server.outgoing(step_index),
                               send_time=self._server_clock + overhead)

        # Workers compute gradients at the received model.
        results: Dict[str, GradientResult] = {}
        correct_gradients: List[np.ndarray] = []
        for worker in self.workers:
            record = self.network.collect_quorum(
                worker.node_id, MessageKind.MODEL_TO_WORKER, step_index,
                quorum=1, not_before=self._worker_clock[worker.node_id])
            result = worker.compute_gradient(record.payloads, step_index)
            results[worker.node_id] = result
            self._worker_clock[worker.node_id] = (
                record.completion_time
                + self._delay_multipliers[worker.node_id]
                * cost.gradient_time(result.batch_size, d))
            if not worker.is_byzantine:
                correct_gradients.append(result.gradient)

        # Workers send their gradients back (Byzantine ones may corrupt or
        # stay silent); the trusted server averages what it receives.
        responding = 0
        for worker in self.workers:
            payload = worker.outgoing(step_index, self.SERVER_ID,
                                      correct_gradients)
            if payload is not None:
                responding += 1
            self.network.send(worker.node_id, self.SERVER_ID,
                              MessageKind.GRADIENT_TO_SERVER, step_index, payload,
                              send_time=self._worker_clock[worker.node_id] + overhead)

        record = self.network.collect_quorum(
            self.SERVER_ID, MessageKind.GRADIENT_TO_SERVER, step_index,
            quorum=max(responding, 1), not_before=self._server_clock)
        self.server.apply_gradients(record.payloads, step_index)
        rule_name = getattr(self.gradient_rule, "name", "mean")
        self._server_clock = (record.completion_time
                              + cost.aggregation_time(rule_name, responding, d)
                              + cost.update_time(d))
        self.network.purge_step(step_index)

        correct_losses = [results[w.node_id].loss for w in self.workers
                          if not w.is_byzantine]
        return StepRecord(
            step=step_index,
            simulated_time=self._server_clock,
            train_loss=float(np.mean(correct_losses)) if correct_losses else None,
            max_server_spread=0.0,
            learning_rate=self.schedule(step_index),
        )


class SingleServerKrumTrainer(VanillaTrainer):
    """Prior-work baseline: Multi-Krum at a single *trusted* parameter server.

    Tolerates Byzantine workers (Blanchard et al., 2017) but offers no
    protection whatsoever against a Byzantine parameter server — the gap
    GuanYu closes.
    """

    def __init__(self, model_fn: ModelFactory, train_dataset: Dataset,
                 num_byzantine_workers: int = 0, num_workers: int = 4,
                 label: str = "single_server_krum", **kwargs) -> None:
        rule = MultiKrum(num_byzantine=num_byzantine_workers)
        if num_workers < rule.minimum_inputs():
            raise ValueError(
                f"Multi-Krum with f={num_byzantine_workers} needs at least "
                f"{rule.minimum_inputs()} workers"
            )
        super().__init__(model_fn=model_fn, train_dataset=train_dataset,
                         num_workers=num_workers, gradient_rule=rule,
                         label=label, **kwargs)
        self.history.config["declared_byzantine_workers"] = num_byzantine_workers
