"""Command-line interface to the experiment harnesses.

Usage (after ``pip install -e .``)::

    python -m repro.cli reproduce                    # every experiment
    python -m repro.cli reproduce figure3 figure4 --store results/
    python -m repro.cli attacks
    python -m repro.cli list
    python -m repro.cli sweep --gars multi_krum median \
        --attacks random_gradient sign_flip --seeds 0 1 --store results/
    python -m repro.cli sweep --adversaries omniscient_descent collusion
    python -m repro.cli sweep --hetero iid dirichlet=0.1 shards=2
    python -m repro.cli sweep --runtime cluster --gars median
    python -m repro.cli cluster --servers-count 3 --workers-count 4 --steps 3
    python -m repro.cli --trace trace.jsonl reproduce figure4
    python -m repro.cli trace trace.jsonl
    python -m repro.cli report trace.jsonl --width 72
    python -m repro.cli serve --store results/ --port 8642 --processes 4
    python -m repro.cli sweep --gars median --seeds 0 1 \
        --submit http://127.0.0.1:8642
    python -m repro.cli store fsck results/
    python -m repro.cli store gc results/ --dry-run

``reproduce [NAME ...]`` runs the named experiments of
:data:`repro.experiments.EXPERIMENTS` (all by default) at their paper
settings and prints each one's table, plus ASCII accuracy charts for the
figures; ``--json PATH`` additionally writes the rows and histories.  The
per-experiment subcommands it replaced map onto it as follows (custom
grids are ``sweep`` or the harness keywords)::

    table1 / figure3 / figure4 / table2 / overhead   reproduce <same name>
    attack-sweep / gars / quorums / scaling          reproduce <same name>
    resilience --mode crash                          reproduce crash-quorum
    resilience --mode partition                      reproduce partition-heal
    breakdown / hetero                               reproduce <same name>
    figure3 --batch-size B --x-axis A                (both sizes, both axes)
    table2 --interval N                              (every 20 steps)

``sweep`` runs a declarative scenario campaign (grid flags or a ``--spec``
JSON file) through the campaign engine — in parallel, with
content-addressed result caching when ``--store`` is given; ``--faults
FILE`` attaches a fault schedule to every grid cell and ``--adversaries``
sweeps stateful coordinated adversaries as a grid axis; ``--hetero`` sweeps
non-i.i.d. data partitions (``dirichlet=ALPHA``, ``shards=K``,
``imbalance=GAMMA``, ``drift=SIGMA``).  ``attacks`` and ``list`` print the
registries sweep specs draw from.  ``cluster`` runs one scenario on the
**process cluster runtime** — every parameter server and worker as a
separate OS process over real sockets under a supervising daemon (see
``docs/cluster.md``); ``sweep --runtime cluster`` puts whole grids on it,
``--runtime threaded`` on node threads (``--trainer`` names the protocol).
``sweep`` and ``cluster`` handle SIGINT/SIGTERM gracefully: completed
scenario results are already flushed to the ``--store`` and the command
exits with the distinct code 3 so callers can tell "interrupted" from
"failed".

Observability (see ``docs/observability.md``): the global ``--trace FILE``
flag records a structured trace of any subcommand (phase spans, GAR
decision records, campaign cache/queue counters) to a JSONL file without
perturbing the run; ``trace`` summarises such a file and ``report``
renders its per-phase breakdown table and ASCII span timeline;
``--log-level`` / ``--log-json`` configure structured logging for every
subcommand.

Live telemetry (see ``docs/telemetry.md``): ``sweep --metrics-port`` and
``cluster --metrics-port`` serve the run's metrics registry over HTTP on
127.0.0.1 — ``/metrics`` (Prometheus text), ``/status`` (progress JSON),
``/healthz`` — and ``monitor`` polls such an endpoint into a live ASCII
dashboard.  A trace destination ending in ``.gz`` is gzip-compressed and
``trace``/``report`` read ``.jsonl.gz`` files transparently; on scenario
failure or SIGINT/SIGTERM the flight recorder dumps the trace ring and
final metrics snapshot to ``<name>.crash.json`` beside the store (or
under the global ``--crash-dir``).

Store service (see ``docs/store.md``): ``serve`` runs the campaign
scheduler daemon — campaigns submitted as JSON over local HTTP are
deduped against the store's sidecar index and executed through the
campaign engine; ``sweep --submit URL`` is its client.  ``store fsck``
verifies a store's entries and index (read-only, exit 1 on problems)
and ``store gc`` drops failed/corrupt entries and compacts the index.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from typing import Dict, Optional

from repro.adversary import registry
from repro.aggregation import available_rules, get_rule
from repro.core.config import ClusterConfig
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    available_cost_models,
    available_delay_models,
    available_trainers,
    run_campaign,
)
from repro.experiments import EXPERIMENTS
from repro.experiments.common import paper_like, workload_attack_kwargs
from repro.faults import FaultSchedule
from repro.kernels import set_backend
from repro import __version__
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    Tracer,
    TrainingHistory,
    configure_logging,
    get_registry,
    get_tracer,
    parse_prometheus_text,
    read_jsonl,
    use_registry,
    use_tracer,
    write_crash_report,
)
from repro.plotting import (
    format_table,
    histories_summary_table,
    render_dashboard,
    render_histories,
    render_phase_breakdown,
    render_span_timeline,
    scenarios_completed,
)
from repro.runtime.facade import CLOCKS, READ_SPELLINGS


#: exit code of ``sweep``/``cluster`` runs cut short by SIGINT/SIGTERM —
#: distinct from 1 (scenario failures) and 2 (invalid arguments) so CI and
#: shell wrappers can tell an interrupted campaign from a broken one.
EXIT_INTERRUPTED = 3


@contextlib.contextmanager
def _graceful_interrupt():
    """Deliver SIGTERM as :class:`KeyboardInterrupt` for one command.

    SIGINT already raises ``KeyboardInterrupt``; routing SIGTERM through
    the same exception lets long-running subcommands unwind their
    ``finally`` blocks (tearing down cluster processes, closing the pool)
    instead of dying mid-write.  The previous handler is restored on exit.
    Outside the main thread — e.g. a test harness driving :func:`main`
    directly — handlers cannot be installed and the command runs with the
    process defaults.
    """
    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - non-main-thread callers
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _flight_record(name: str, reason: str, *,
                   store: Optional[ResultStore] = None,
                   trace_path: Optional[str] = None,
                   crash_dir: Optional[str] = None,
                   context: Optional[Dict] = None) -> None:
    """Dump the flight recorder (trace ring + metrics snapshot) to disk.

    Called on scenario failure and on SIGINT/SIGTERM so post-mortems have
    the observability state that would otherwise die with the process.
    Best-effort: a full disk must not mask the original failure.
    """
    try:
        path = write_crash_report(
            name, reason,
            store_root=str(store.root) if store is not None else None,
            trace_path=trace_path, crash_dir=crash_dir, tracer=get_tracer(),
            registry=get_registry(), context=context)
    except OSError as exc:  # pragma: no cover - disk-full/permission paths
        print(f"warning: could not write crash report: {exc}",
              file=sys.stderr)
    else:
        print(f"(flight recorder: {path})", file=sys.stderr)


def _dump_metrics_snapshot(path: Optional[str]) -> None:
    """Write the active registry's snapshot JSON (``--metrics-snapshot``).

    A no-op without the flag; with it, the file is written even after an
    interrupt so CI can archive the final telemetry state unconditionally.
    """
    if not path:
        return
    registry = get_registry()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(registry.snapshot(), handle, indent=2, sort_keys=True,
                      default=str)
    except OSError as exc:
        print(f"warning: could not write metrics snapshot to {path}: {exc}",
              file=sys.stderr)
    else:
        print(f"(wrote metrics snapshot to {path})", file=sys.stderr)


@contextlib.contextmanager
def _metrics_endpoint(port: Optional[int], status):
    """Install a fresh registry and serve it over HTTP for one command.

    ``port`` of ``None`` (flag not given) keeps telemetry at the no-op
    default: zero hot-path cost, no socket bound.  ``0`` binds an
    ephemeral port (printed so callers can find it).
    """
    if port is None:
        yield None
        return
    registry = MetricsRegistry()
    with use_registry(registry), \
            MetricsServer(port, registry=registry, status=status) as server:
        # stderr: 'cluster --json' and piped sweeps keep stdout machine-
        # readable, and CI still sees the bound (possibly ephemeral) port.
        print(f"metrics endpoint: {server.url}/metrics  "
              f"(/status, /healthz; 'repro monitor --port {server.port}')",
              file=sys.stderr, flush=True)
        yield server


def _base_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The base scenario of a command: the preset plus the global flags."""
    base = ScenarioSpec() if args.preset == "small" else paper_like()
    flags = {"num_steps": args.steps, "num_workers": args.workers_count,
             "num_servers": args.servers_count, "seed": args.seed,
             "delay_model": args.delay_model}
    base = base.replace(**{field: value for field, value in flags.items()
                           if value is not None})
    # Keep the declared Byzantine counts admissible (n >= 3f + 3) after any
    # cluster-size overrides.
    return base.replace(
        declared_byzantine_workers=min(
            base.declared_byzantine_workers,
            ClusterConfig.max_admissible_byzantine(base.num_workers)),
        declared_byzantine_servers=min(
            base.declared_byzantine_servers,
            ClusterConfig.max_admissible_byzantine(base.num_servers)),
        dataset_size=max(base.dataset_size, 2400))


def _dump_json(path: Optional[str], payload) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    print(f"\n(wrote raw results to {path})")


def _histories_payload(histories: Dict[str, TrainingHistory]) -> Dict:
    return {name: history.to_dict() for name, history in histories.items()}


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _print_charts(histories: Dict[str, TrainingHistory], axes: tuple) -> None:
    """One accuracy chart per x axis and panel (``panel/system`` names)."""
    panels: Dict[str, Dict[str, TrainingHistory]] = {}
    for name, history in histories.items():
        panel, _, system = name.rpartition("/")
        panels.setdefault(panel, {})[system] = history
    for axis in axes:
        for panel, series in panels.items():
            print("\n" + " — ".join(filter(None, (panel, f"accuracy vs. {axis}"))))
            print(render_histories(series, x_axis=axis))


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run experiments of :data:`repro.experiments.EXPERIMENTS` and print
    each one's table (and charts, for the figures)."""
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment(s) {unknown}; available: "
                         f"{list(EXPERIMENTS)}")
    base = _base_from_args(args)
    store = ResultStore(args.store) if args.store else None
    entries_before = len(store) if store is not None else 0
    payload = {}
    for name in args.names or EXPERIMENTS:
        experiment = EXPERIMENTS[name]
        rows, histories = experiment.run(base, store, args.processes)
        print(f"{experiment.title}\n")
        columns = list(dict.fromkeys(key for row in rows for key in row))
        print(format_table(rows, columns=columns, float_format="{:.4f}"))
        _print_charts(histories, experiment.charts)
        print()
        payload[name] = {"rows": rows,
                         "histories": _histories_payload(histories)}
    if store is not None:
        print(f"result store: {store.root} ({len(store)} entries, "
              f"{len(store) - entries_before} new)")
    _dump_json(args.json, payload)
    return 0


def cmd_attacks(args: argparse.Namespace) -> int:
    """List the registered attacks and adversaries (name, kind, parameters)."""
    import inspect

    def parameters_of(obj) -> str:
        signature = inspect.signature(type(obj).__init__)
        parts = []
        for parameter in list(signature.parameters.values())[1:]:  # skip self
            if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                                  inspect.Parameter.VAR_KEYWORD):
                continue  # attacks without an __init__ inherit object's
            if parameter.default is inspect.Parameter.empty:
                parts.append(parameter.name)
            else:
                parts.append(f"{parameter.name}={parameter.default!r}")
        return ", ".join(parts) if parts else "-"

    rows = []
    for name in (registry.available(registry.STATELESS)
                 + registry.available("adversary")):
        behaviour = registry.get(name)
        rows.append((name, behaviour.kind, parameters_of(behaviour)))

    print("Registered attacks and adversaries "
          "(legacy attack names also resolve as stateless adversaries):\n")
    for name, kind, parameters in rows:
        print(f"  {name:<20} [{kind:<13}] {parameters}")
    _dump_json(args.json, [{"name": name, "kind": kind, "parameters": params}
                           for name, kind, params in rows])
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """Print the registries a sweep spec can draw from."""

    def first_doc_line(obj) -> str:
        return (obj.__doc__ or "").strip().splitlines()[0] if obj.__doc__ else ""

    print("Aggregation rules (gradient_rule / model_rule):")
    for name in available_rules():
        rule = get_rule(name)
        tag = "resilient" if rule.byzantine_resilient else "non-resilient"
        print(f"  {name:<18} [{tag:<13}] {first_doc_line(type(rule))}")

    for title, kinds in (
            ("Attacks (worker_attack / server_attack)", registry.STATELESS),
            ("Adversaries (stateful, coordinated; legacy attack names also "
             "resolve)", "adversary")):
        print(f"\n{title}:")
        for name in registry.available(kinds):
            behaviour = registry.get(name)
            role = behaviour.kind.removesuffix("-attack")
            print(f"  {name:<18} [{role:<13}] "
                  f"{first_doc_line(type(behaviour))}")

    from repro.hetero import available_partitions

    print(f"\nTrainers:         {', '.join(available_trainers())}")
    print(f"Runtimes:         {', '.join(map(str, CLOCKS))} (None: batched or sequential)")
    print(f"Delay models:     {', '.join(available_delay_models())}")
    print(f"Cost models:      {', '.join(available_cost_models())}")
    print(f"Hetero partitions: {', '.join(available_partitions())} "
          f"(sweep --hetero / spec 'hetero' field)")
    return 0


# --------------------------------------------------------------------------- #
# Sweep subcommand (campaign engine)
# --------------------------------------------------------------------------- #
def _attack_axis_entry(attack_name: str, base: ScenarioSpec) -> Dict:
    """Grid-axis patch selecting one attack (worker or server side)."""
    attack = registry.get(attack_name)  # raises on unknown names
    kwargs = workload_attack_kwargs(attack_name, base.dataset)
    entry: Dict[str, object] = {"_name": attack_name,
                                "worker_attack": None, "server_attack": None}
    side = "worker_attack" if attack.attacks_workers else "server_attack"
    entry[side] = {"name": attack_name, "kwargs": kwargs}
    return entry


def _workers_axis_entry(num_workers: int, base: ScenarioSpec) -> Dict:
    """Grid-axis patch for a cluster size, keeping ``n̄ ≥ 3f̄ + 3``."""
    declared = min(base.declared_byzantine_workers,
                   ClusterConfig.max_admissible_byzantine(num_workers))
    return {"_name": f"workers={num_workers}", "num_workers": num_workers,
            "declared_byzantine_workers": declared}


def _campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        if args.faults:
            raise ValueError(
                "--faults applies to grid sweeps only; a --spec campaign "
                "file carries fault schedules in its scenarios' own "
                "'faults' fields")
        if args.runtime:
            raise ValueError(
                "--runtime applies to grid sweeps only; a --spec campaign "
                "file carries the runtime in its scenarios' own 'runtime' "
                "fields")
        return CampaignSpec.from_json_file(args.spec)
    base = _base_from_args(args).replace(trainer=args.trainer, name=args.name,
                                         runtime=args.runtime)
    if args.faults:
        with open(args.faults, "r", encoding="utf-8") as handle:
            base = base.replace(faults=FaultSchedule.from_json(handle.read()))
    grid: Dict[str, list] = {}
    if args.gars:
        grid["gradient_rule"] = list(args.gars)
    if args.attacks:
        grid["attack"] = [_attack_axis_entry(name, base) for name in args.attacks]
    if args.adversaries:
        if args.attacks:
            # An adversary cell would override the attack cell's fields and
            # the two axes would collapse into duplicate content addresses
            # under misleading names — sweep them as separate campaigns, or
            # put stateless attack names directly on the adversary axis.
            raise ValueError(
                "--attacks and --adversaries cannot be combined: both set "
                "the scenario's Byzantine behaviour; legacy attack names "
                "are valid --adversaries values")
        for name in args.adversaries:
            registry.get(name, **workload_attack_kwargs(
                name, base.dataset))  # raises on typos
        grid["adversary"] = [
            {"_name": name,
             "adversary": {"name": name,
                           "kwargs": workload_attack_kwargs(name,
                                                            base.dataset)},
             "worker_attack": None, "server_attack": None}
            for name in args.adversaries]
    if args.hetero:
        from repro.hetero import HeteroSpec

        entries = []
        for token in args.hetero:
            hetero = HeteroSpec.from_token(token)  # raises on typos
            entries.append({"_name": token,
                            "hetero": hetero.to_dict() if hetero else None})
        grid["hetero"] = entries
    if args.seeds:
        grid["seed"] = list(args.seeds)
    if args.workers_grid:
        grid["cluster"] = [_workers_axis_entry(count, base)
                           for count in args.workers_grid]
    return CampaignSpec(name=args.name, base=base, grid=grid)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        campaign = _campaign_from_args(args)
        campaign_name = campaign.name
        scenarios = campaign.expand(
            on_invalid="skip" if args.skip_invalid else "raise")
        # --submit hands execution to a scheduler daemon; the local
        # expansion above still validates the campaign before any I/O.
        store = (ResultStore(args.store)
                 if args.store and not args.submit else None)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: invalid campaign: {exc}", file=sys.stderr)
        return 2
    if args.submit:
        return _submit_sweep(args, campaign)
    processes = args.processes
    if processes is None:
        processes = max(1, min(os.cpu_count() or 1, 8))

    started = time.perf_counter()
    # Shared with the /status endpoint's serving thread; plain key updates
    # on a dict are atomic under the GIL, and the endpoint copies it per
    # request, so no further locking is needed.
    progress_state: Dict[str, object] = {
        "command": "sweep", "campaign": campaign_name,
        "total": len(scenarios), "completed": 0,
        "counts": {"ran": 0, "cached": 0, "failed": 0},
        "elapsed_seconds": 0.0,
        "store": str(store.root) if store is not None else None,
    }

    def report_progress(outcome, completed, total) -> None:
        elapsed = time.perf_counter() - started
        counts = dict(progress_state["counts"])
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        progress_state.update(completed=completed, counts=counts,
                              elapsed_seconds=round(elapsed, 3))
        line = f"[{completed}/{total}] {outcome.status:<6} {outcome.spec.name}"
        if outcome.status == "ran":
            line += f" ({outcome.duration_seconds:.2f}s"
            line += ", batched)" if outcome.batched else ")"
        elif outcome.status == "failed":
            line += f" — {outcome.error}"
        line += f" [+{elapsed:.1f}s]"
        # Explicit flush: piped into `tee`/CI logs, stdout is block-buffered
        # and progress would otherwise arrive only at campaign end.
        print(line, flush=True)

    with _metrics_endpoint(args.metrics_port, lambda: dict(progress_state)):
        try:
            with _graceful_interrupt():
                result = run_campaign(scenarios, name=campaign_name,
                                      store=store, processes=processes,
                                      progress=report_progress,
                                      batch_seeds=args.batch_seeds,
                                      lanes=args.lanes)
        except KeyboardInterrupt:
            # Completed scenarios were persisted the moment they finished
            # (the engine calls store.put per outcome), so the interrupt
            # loses only the in-flight work; the flight recorder preserves
            # the trace ring and telemetry snapshot for the post-mortem.
            _flight_record(campaign_name, "interrupted", store=store,
                           trace_path=args.trace, crash_dir=args.crash_dir,
                           context=dict(progress_state))
            _dump_metrics_snapshot(args.metrics_snapshot)
            if store is not None:
                print(f"\ninterrupted: completed results already flushed to "
                      f"{store.root} ({len(store)} entries); re-run the same "
                      f"sweep to resume", flush=True)
            else:
                print("\ninterrupted (no --store given: completed results "
                      "were not persisted)", flush=True)
            return EXIT_INTERRUPTED
        if result.failures():
            _flight_record(
                campaign_name, "scenario-failure", store=store,
                trace_path=args.trace, crash_dir=args.crash_dir,
                context={"failed": [outcome.spec.name for outcome
                                    in result.failures()]})
        elapsed = time.perf_counter() - started
        counts = result.counts()
        num_batched = sum(1 for outcome in result.outcomes if outcome.batched)
        batched_note = f" ({num_batched} batched)" if num_batched else ""
        # One-line machine-greppable summary; the scheduled CI workflow
        # relies on this line plus the non-zero exit code below to detect
        # failures.
        print(f"\ncampaign '{result.name}': {len(result.outcomes)} scenarios "
              f"— ran {counts['ran']}{batched_note}, "
              f"cached {counts['cached']}, "
              f"failed {counts['failed']} in {elapsed:.1f}s "
              f"({processes} process(es))")
        if store is not None:
            print(f"result store: {store.root} ({len(store)} entries)")
        histories = result.histories()
        if histories:
            print("\n" + histories_summary_table(histories))
        for outcome in result.failures():
            print(f"FAILED {outcome.spec.name}: {outcome.error}")
        _dump_json(args.json, _histories_payload(histories))
        _dump_metrics_snapshot(args.metrics_snapshot)
        return 1 if result.failures() else 0


# --------------------------------------------------------------------------- #
# Cluster subcommand (process cluster runtime)
# --------------------------------------------------------------------------- #
def _cluster_report_rows(report: Dict) -> list:
    """Flatten a supervisor report into table rows for display."""
    rows = []
    for node_id, info in report["nodes"].items():
        rows.append({
            "node": node_id,
            "state": info["state"],
            "exits": ",".join(str(code) for code in info["exit_codes"]) or "-",
            "respawns": info["respawns"],
            "crashed_steps": ",".join(str(step)
                                      for step in info["crashed_steps"]) or "-",
        })
    return rows


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run one scenario as real OS processes over real sockets."""
    from repro.runtime.cluster import (
        ClusterOptions,
        Supervisor,
        SupervisorError,
        cluster_available,
    )

    try:
        spec = _base_from_args(args).replace(name=args.name,
                                             runtime="cluster")
        if args.gar:
            spec = spec.replace(gradient_rule=args.gar)
        if args.faults:
            with open(args.faults, "r", encoding="utf-8") as handle:
                spec = spec.replace(
                    faults=FaultSchedule.from_json(handle.read()))
        spec.validate()
        store = ResultStore(args.store) if args.store else None
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    if not cluster_available():
        print("error: this host cannot bind sockets, so the process cluster "
              "runtime is unavailable; run the scenario on the threaded "
              "runtime instead (repro sweep --runtime threaded)",
              file=sys.stderr)
        return 1
    supervisor = Supervisor(spec,
                            options=ClusterOptions(transport=args.transport))

    def cluster_status() -> Dict:
        return {"command": "cluster", "scenario": spec.name,
                "report": supervisor.report()}

    started = time.perf_counter()
    with _metrics_endpoint(args.metrics_port, cluster_status):
        try:
            with _graceful_interrupt():
                history = supervisor.run()
        except KeyboardInterrupt:
            # Supervisor.run tears the node processes down in its
            # ``finally`` before the interrupt reaches us; a single
            # scenario has no partial result worth flushing, but the
            # flight recorder keeps the trace ring + metrics snapshot.
            _flight_record(spec.name, "interrupted", store=store,
                           trace_path=args.trace, crash_dir=args.crash_dir)
            print("\ninterrupted: cluster torn down, no completed result "
                  "to flush", file=sys.stderr)
            return EXIT_INTERRUPTED
        except SupervisorError as exc:
            _flight_record(spec.name, "cluster-failure", store=store,
                           trace_path=args.trace, crash_dir=args.crash_dir,
                           context={"error": str(exc)})
            print(f"error: cluster run failed: {exc}", file=sys.stderr)
            report = supervisor.report()
            if args.json_report:
                print(json.dumps(report, indent=2, sort_keys=True,
                                 default=str))
            else:
                print("\nNode lifecycle at failure:", file=sys.stderr)
                print(format_table(_cluster_report_rows(report)),
                      file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        report = supervisor.report()
        key = (store.put(spec, history, duration_seconds=elapsed)
               if store is not None else None)
        if args.json_report:
            # Machine-readable mode: stdout is one JSON document carrying
            # the supervisor report (per-incarnation pids, exit codes,
            # probe timeouts) instead of the lifecycle table.
            print(json.dumps({"scenario": spec.name,
                              "elapsed_seconds": round(elapsed, 3),
                              "report": report,
                              "store_key": key},
                             indent=2, sort_keys=True, default=str))
        else:
            print(f"cluster run '{spec.name}' — {spec.num_servers} "
                  f"server(s) + {spec.num_workers} worker(s) as OS "
                  f"processes over {report['transport']} sockets, "
                  f"{spec.num_steps} step(s) in {elapsed:.1f}s\n")
            print(histories_summary_table({spec.name: history}))
            print("\nNode lifecycle:")
            print(format_table(_cluster_report_rows(report)))
            if store is not None:
                print(f"\nresult store: {store.root} ({len(store)} entries; "
                      f"this run: {key[:12]})")
        _dump_json(args.json, {"history": history.to_dict(),
                               "report": report})
        return 0


# --------------------------------------------------------------------------- #
# Trace / report subcommands (observability layer)
# --------------------------------------------------------------------------- #
def _load_trace(path: str) -> list:
    try:
        return list(read_jsonl(path))
    except OSError as exc:
        raise ValueError(f"cannot read trace file: {exc}") from exc


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarise a trace JSONL file: record counts, counters, event kinds."""
    records = _load_trace(args.file)
    spans = [r for r in records if r.kind == "span"]
    events = [r for r in records if r.kind == "event"]
    counters: Dict[str, float] = {}
    for record in records:
        if record.kind == "counter":
            value = record.attrs.get("value", 0)
            counters[record.name] = counters.get(record.name, 0) + value
    print(f"trace {args.file}: {len(records)} record(s) — "
          f"{len(spans)} span(s), {len(events)} event(s), "
          f"{len(counters)} counter(s)")

    print("\nPhase breakdown:")
    print(render_phase_breakdown(records))

    event_counts: Dict[str, int] = {}
    for record in events:
        event_counts[record.name] = event_counts.get(record.name, 0) + 1
    if event_counts:
        print("\nEvents:")
        print(format_table([{"event": name, "count": count}
                            for name, count
                            in sorted(event_counts.items())]))
    if counters:
        print("\nCounters:")
        print(format_table([{"counter": name, "value": value}
                            for name, value in sorted(counters.items())]))
    _dump_json(args.json, {
        "records": len(records),
        "spans": len(spans),
        "events": event_counts,
        "counters": counters,
    })
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a trace's phase-breakdown table and ASCII span timeline."""
    records = _load_trace(args.file)
    print(f"report — {args.file}\n")
    print("Phase breakdown:")
    print(render_phase_breakdown(records))
    print("\nSpan timeline:")
    print(render_span_timeline(records, width=args.width,
                               max_rows=args.max_rows, node=args.node))
    _dump_json(args.json, [record.to_dict() for record in records
                           if record.kind == "span"])
    return 0


# --------------------------------------------------------------------------- #
# Monitor subcommand (live-telemetry dashboard)
# --------------------------------------------------------------------------- #
def _fetch_endpoint(base: str, timeout: float):
    """One poll: parsed /metrics families + /status JSON document."""
    import urllib.request

    with urllib.request.urlopen(base + "/metrics", timeout=timeout) as reply:
        families = parse_prometheus_text(reply.read().decode("utf-8"))
    with urllib.request.urlopen(base + "/status", timeout=timeout) as reply:
        status = json.loads(reply.read().decode("utf-8"))
    return families, status


def cmd_monitor(args: argparse.Namespace) -> int:
    """Poll a --metrics-port endpoint and render a live ASCII dashboard."""
    import urllib.error

    if args.url:
        base = args.url.rstrip("/")
    elif args.port is not None:
        base = f"http://127.0.0.1:{args.port}"
    else:
        print("error: monitor needs --port or --url", file=sys.stderr)
        return 2
    rates: list = []
    previous_completed: Optional[float] = None
    previous_poll: Optional[float] = None
    frames = 0
    families: Dict = {}
    status: Dict = {}
    try:
        while True:
            try:
                families, status = _fetch_endpoint(base, args.timeout)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                if frames:
                    # The watched run finished and closed its endpoint —
                    # that is the dashboard's normal end, not a failure.
                    print(f"\nendpoint {base} gone ({exc}); monitored run "
                          f"finished?", file=sys.stderr)
                    break
                print(f"error: cannot poll {base}: {exc}", file=sys.stderr)
                return 1
            now = time.perf_counter()
            completed = scenarios_completed(families)
            if previous_completed is not None and now > previous_poll:
                rates.append((completed - previous_completed)
                             / (now - previous_poll))
                rates[:] = rates[-120:]
            previous_completed, previous_poll = completed, now
            frame = render_dashboard(families, status, throughput=rates,
                                     width=args.width)
            if frames and not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass  # Ctrl-C is how an open-ended watch ends — not an error
    _dump_json(args.json, {"status": status,
                           "families": list(families.values())})
    return 0


# --------------------------------------------------------------------------- #
# Scheduler daemon (serve) and its sweep client (--submit)
# --------------------------------------------------------------------------- #
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign scheduler daemon until SIGINT/SIGTERM."""
    from repro.campaign.scheduler import CampaignScheduler

    registry = MetricsRegistry()
    with use_registry(registry):
        store = ResultStore(args.store)
        scheduler = CampaignScheduler(
            store, processes=args.processes,
            batch_seeds=not args.no_batch_seeds, lanes=args.lanes)
        with scheduler, MetricsServer(args.port, registry=registry,
                                      status=scheduler.status,
                                      routes=scheduler.handle_route
                                      ) as server:
            # stdout so wrappers (and the weekly CI smoke) can capture the
            # bound URL even with --port 0.
            print(f"scheduler: {server.url}  "
                  f"(POST /campaigns; GET /campaigns[/<id>], /results, "
                  f"/metrics, /status; store: {store.root})", flush=True)
            try:
                with _graceful_interrupt():
                    while True:
                        time.sleep(0.5)
            except KeyboardInterrupt:
                print("shutting down: finishing the running job (if any)",
                      file=sys.stderr, flush=True)
    return 0


def _submit_sweep(args: argparse.Namespace, campaign: CampaignSpec) -> int:
    """Run ``sweep`` as a client of a ``repro serve`` daemon."""
    import urllib.error
    import urllib.request

    base = args.submit.rstrip("/")
    document = {"campaign": campaign.to_dict(),
                "options": {"on_invalid":
                            "skip" if args.skip_invalid else "raise"}}
    request = urllib.request.Request(
        base + "/campaigns", data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            job = json.load(response)
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"error: scheduler rejected the campaign ({exc.code}): "
              f"{detail}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach scheduler at {base}: {exc}",
              file=sys.stderr)
        return 2
    print(f"submitted '{job['name']}' as {job['id']}: {job['total']} "
          f"scenario(s), {job['cached_at_submit']} already in the store",
          flush=True)
    last_completed = -1
    try:
        with _graceful_interrupt():
            while True:
                with urllib.request.urlopen(
                        f"{base}/campaigns/{job['id']}",
                        timeout=30) as response:
                    job = json.load(response)
                if job["completed"] != last_completed:
                    last_completed = job["completed"]
                    counts = job.get("counts") or {}
                    summary = ", ".join(
                        f"{status} {count}"
                        for status, count in sorted(counts.items()))
                    print(f"[{job['completed']}/{job['total']}] "
                          f"{summary or job['state']}", flush=True)
                if job["state"] in ("done", "failed"):
                    break
                time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        # Detaching is not cancelling: the daemon owns the job.
        print(f"\ndetached: {job['id']} keeps running on the scheduler "
              f"(poll {base}/campaigns/{job['id']})", flush=True)
        return EXIT_INTERRUPTED
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: lost the scheduler at {base}: {exc}", file=sys.stderr)
        return 1
    for failure in job.get("failures") or []:
        print(f"FAILED {failure['scenario']}: {failure['error']}")
    if job.get("error"):
        print(f"error: {job['error']}", file=sys.stderr)
    counts = ", ".join(f"{status} {count}" for status, count
                       in sorted((job.get("counts") or {}).items()))
    print(f"campaign '{job['name']}' ({job['id']}): {job['state']}"
          + (f" — {counts}" if counts else ""))
    return 0 if job["state"] == "done" else 1


# --------------------------------------------------------------------------- #
# Store hygiene (store fsck / store gc)
# --------------------------------------------------------------------------- #
def cmd_store_fsck(args: argparse.Namespace) -> int:
    store = ResultStore(args.root)
    report = store.fsck()
    print(f"fsck {store.root}: {report.entries} entr(ies) in "
          f"{report.shards} shard(s), {report.stale_temps} stale temp "
          f"file(s)")
    for issue in report.issues:
        print(f"  {issue.kind}: {issue.detail}")
    if report.ok:
        print("ok: entries, index and telemetry agree")
    else:
        print(f"{len(report.issues)} problem(s) found "
              f"('repro store gc' removes corrupt/failed entries and "
              f"recompacts the index)")
    _dump_json(args.json, report.to_dict())
    return 0 if report.ok else 1


def cmd_store_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.root)
    stats = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {store.root}: {verb} {stats['removed_failed']} failed and "
          f"{stats['removed_corrupt']} corrupt entr(ies), "
          f"{stats['orphan_rows_dropped']} orphan index row(s), "
          f"{stats['stale_temps_removed']} stale temp file(s); "
          f"compacted {stats['shards_compacted']} shard index(es); "
          f"{stats['entries']} entr(ies) remain")
    _dump_json(args.json, stats)
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the GuanYu paper.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--json", help="write raw results to this JSON file")
    parser.add_argument("--preset", choices=("small", "paper"), default="small",
                        help="workload preset (default: small)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the number of model updates")
    parser.add_argument("--workers-count", type=int, default=None,
                        help="override the number of workers")
    parser.add_argument("--servers-count", type=int, default=None,
                        help="override the number of parameter servers")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--delay-model", choices=available_delay_models(),
                        default=None, metavar="NAME",
                        help="override the network delay model "
                             f"({', '.join(available_delay_models())})")
    parser.add_argument("--log-level",
                        choices=("debug", "info", "warning", "error"),
                        default="warning",
                        help="logging verbosity of the 'repro' loggers "
                             "(default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines (for ingestion)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record a structured trace of the run "
                             "(spans/events/counters) to this JSONL file; "
                             "inspect it with 'repro trace' / 'repro report'")
    parser.add_argument("--crash-dir", default=None, metavar="DIR",
                        help="directory for flight-recorder *.crash.json "
                             "dumps (default: beside the --store, else "
                             "beside the trace file, else the system "
                             "temp directory)")
    parser.add_argument("--kernel-backend", default=None, metavar="NAME",
                        help="kernel backend for this process (see "
                             "repro.kernels; overrides the "
                             "REPRO_KERNEL_BACKEND environment variable)")

    subparsers = parser.add_subparsers(dest="command", required=True)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="run the paper's experiments (all by default) and print their "
             "tables",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiments:\n" + "\n".join(
            f"  {name:<15} {experiment.title}"
            for name, experiment in EXPERIMENTS.items()))
    reproduce.add_argument("names", nargs="*", metavar="NAME",
                           help="experiments to run (default: all; listed "
                                "below)")
    reproduce.add_argument("--store", default=None,
                           help="result-store directory (caching/resume)")
    reproduce.add_argument("--processes", type=int, default=None,
                           help="pool size (default: serial)")
    reproduce.set_defaults(func=cmd_reproduce)

    subparsers.add_parser(
        "attacks",
        help="list registered attacks and adversaries (name, kind, params)") \
        .set_defaults(func=cmd_attacks)
    subparsers.add_parser(
        "list", help="print the rule/attack registries sweep specs draw from") \
        .set_defaults(func=cmd_list)

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative scenario campaign (grid or JSON spec)")
    sweep.add_argument("--spec", default=None,
                       help="campaign spec JSON file (overrides grid flags)")
    sweep.add_argument("--name", default="sweep", help="campaign name")
    sweep.add_argument("--trainer", default="guanyu", help="protocol for grid sweeps",
                       choices=available_trainers() + sorted({t for t, _ in READ_SPELLINGS}))
    sweep.add_argument("--gars", nargs="+", default=None, metavar="RULE",
                       help="gradient aggregation rules to sweep over")
    sweep.add_argument("--attacks", nargs="+", default=None, metavar="ATTACK",
                       help="registered attacks to sweep over")
    sweep.add_argument("--adversaries", nargs="+", default=None,
                       metavar="ADVERSARY",
                       help="stateful adversaries (or wrapped legacy attack "
                            "names) to sweep over")
    sweep.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="seeds to sweep over")
    sweep.add_argument("--workers-grid", type=int, nargs="+", default=None,
                       metavar="N", help="cluster sizes to sweep over")
    sweep.add_argument("--store", default=None,
                       help="result-store directory (enables caching/resume)")
    sweep.add_argument("--processes", type=int, default=None,
                       help="pool size (default: min(cpu_count, 8); 1 = serial)")
    sweep.add_argument("--batch-seeds", action="store_true",
                       help="run scenarios that differ only in seed and "
                            "gradient/model rule as one vectorised multi-"
                            "replica execution (bit-identical per scenario; "
                            "see docs/performance.md)")
    sweep.add_argument("--lanes", type=int, default=None,
                       help="with --batch-seeds: shard each group's replica "
                            "lanes over this many worker processes (merged "
                            "histories stay bit-identical; see "
                            "docs/performance.md)")
    sweep.add_argument("--hetero", nargs="+", default=None, metavar="SKEW",
                       help="data-heterogeneity levels to sweep over (iid, "
                            "dirichlet=ALPHA, shards=K, imbalance=GAMMA, "
                            "drift=SIGMA)")
    sweep.add_argument("--faults", default=None, metavar="FILE",
                       help="fault-schedule JSON applied to every grid cell")
    sweep.add_argument("--runtime", choices=[kind for kind in CLOCKS if kind],
                       default=None,
                       help="engine for every grid cell: 'batched' runs each scenario as a "
                            "one-replica lane on the vectorised runtime; 'threaded' runs "
                            "one thread and 'cluster' one OS process over sockets per "
                            "node, on the real clock (replicated protocols only)")
    sweep.add_argument("--skip-invalid", action="store_true",
                       help="drop inadmissible grid cells instead of failing")
    sweep.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="serve live telemetry over HTTP on 127.0.0.1 "
                            "(/metrics Prometheus text, /status campaign "
                            "progress, /healthz); 0 picks an ephemeral "
                            "port; watch it with 'repro monitor'")
    sweep.add_argument("--submit", default=None, metavar="URL",
                       help="submit the campaign to a 'repro serve' "
                            "scheduler daemon at URL (e.g. "
                            "http://127.0.0.1:8642) and poll it to "
                            "completion instead of executing locally")
    sweep.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="--submit progress poll interval (default: 0.5)")
    sweep.add_argument("--metrics-snapshot", default=None, metavar="FILE",
                       help="write the final telemetry snapshot JSON here "
                            "(also on interrupt); implies nothing unless "
                            "--metrics-port enabled telemetry")
    sweep.set_defaults(func=cmd_sweep)

    cluster = subparsers.add_parser(
        "cluster",
        help="run one scenario on the process cluster runtime: every "
             "server/worker a separate OS process over real sockets, "
             "under a supervising daemon (docs/cluster.md)")
    cluster.add_argument("--name", default="cluster", help="scenario name")
    cluster.add_argument("--gar", default=None, metavar="RULE",
                         help="gradient aggregation rule "
                              "(default: the scale's rule)")
    cluster.add_argument("--transport", choices=("auto", "unix", "tcp"),
                         default="auto",
                         help="socket family (auto prefers Unix-domain "
                              "sockets, falling back to TCP loopback)")
    cluster.add_argument("--faults", default=None, metavar="FILE",
                         help="fault-schedule JSON (crash events SIGKILL "
                              "the real node process; recover events "
                              "respawn it from the last server snapshot)")
    cluster.add_argument("--store", default=None,
                         help="result-store directory to persist the "
                              "history under its content address")
    cluster.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve live telemetry over HTTP on 127.0.0.1 "
                              "(node liveness/incarnation gauges, probe "
                              "RTTs, frame/byte counters); 0 picks an "
                              "ephemeral port")
    # dest avoids the root parser's global `--json PATH`; as a subcommand
    # flag this is a boolean mode switch, not an output path.
    cluster.add_argument("--json", dest="json_report", action="store_true",
                         help="print the supervisor report (per-incarnation "
                              "pids, exit codes, probe timeouts) as one "
                              "JSON document instead of the lifecycle "
                              "table")
    cluster.set_defaults(func=cmd_cluster)

    trace = subparsers.add_parser(
        "trace", help="summarise a trace JSONL file (--trace output)")
    trace.add_argument("file", help="trace JSONL file to summarise")
    trace.set_defaults(func=cmd_trace)

    report = subparsers.add_parser(
        "report",
        help="render a trace's phase-breakdown table and span timeline")
    report.add_argument("file", help="trace JSONL file to render")
    report.add_argument("--width", type=int, default=64,
                        help="timeline width in characters (default: 64)")
    report.add_argument("--max-rows", type=int, default=30,
                        help="max span names in the timeline (default: 30)")
    report.add_argument("--node", default=None,
                        help="restrict the timeline to one node id")
    report.set_defaults(func=cmd_report)

    monitor = subparsers.add_parser(
        "monitor",
        help="poll a --metrics-port endpoint and render a live ASCII "
             "dashboard (throughput, phases, node health, GAR gauges)")
    monitor.add_argument("--port", type=int, default=None,
                         help="metrics port on 127.0.0.1 (the value given "
                              "to sweep/cluster --metrics-port)")
    monitor.add_argument("--url", default=None,
                         help="full endpoint base URL (overrides --port)")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default: 2)")
    monitor.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="stop after N dashboard frames "
                              "(default: run until Ctrl-C)")
    monitor.add_argument("--timeout", type=float, default=5.0,
                         help="HTTP timeout per poll (default: 5)")
    monitor.add_argument("--width", type=int, default=72,
                         help="dashboard width in characters (default: 72)")
    monitor.add_argument("--no-clear", action="store_true",
                         help="append frames instead of clearing the "
                              "screen (for logs/CI)")
    monitor.set_defaults(func=cmd_monitor)

    serve = subparsers.add_parser(
        "serve",
        help="campaign scheduler daemon: accept campaign JSON over local "
             "HTTP (POST /campaigns), dedupe against the store index and "
             "execute through the campaign engine")
    serve.add_argument("--store", required=True,
                       help="result-store directory the daemon serves "
                            "and persists into")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="HTTP port on 127.0.0.1 (default: 0 = "
                            "ephemeral, printed at startup)")
    serve.add_argument("--processes", type=int, default=None,
                       help="pool size per job (default: serial)")
    serve.add_argument("--lanes", type=int, default=None,
                       help="shard batched seed/rule groups across this many "
                            "lanes (as sweep --lanes)")
    serve.add_argument("--no-batch-seeds", action="store_true",
                       help="disable vectorised seed and rule batching "
                            "for submitted jobs")
    serve.set_defaults(func=cmd_serve)

    store_parser = subparsers.add_parser(
        "store", help="result-store hygiene: fsck (verify) and gc (collect)")
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)
    fsck = store_sub.add_parser(
        "fsck",
        help="verify entries against their content addresses and the "
             "sidecar index against the entries (read-only; exit 1 on "
             "problems)")
    fsck.add_argument("root", help="result-store directory to check")
    fsck.set_defaults(func=cmd_store_fsck)
    gc = store_sub.add_parser(
        "gc",
        help="drop failed/corrupt entries, orphan index rows and stale "
             "temp files, then compact the sidecar index")
    gc.add_argument("root", help="result-store directory to collect")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without changing "
                         "anything")
    gc.set_defaults(func=cmd_store_gc)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Entry point: parse arguments and dispatch to the chosen subcommand.

    Invalid arguments exit with status 2 (argparse's convention, applied
    consistently to the semantic validation errors — ``ValueError`` /
    ``KeyError`` — the harnesses raise for inadmissible parameters).
    Genuine runtime failures (I/O errors, training errors) propagate with
    their traceback and exit 1; per-scenario sweep failures are reported
    by ``cmd_sweep`` itself.

    ``--trace FILE`` installs a :class:`repro.obs.Tracer` (with GAR
    decision records enabled) around the dispatched subcommand and writes
    the collected records as JSONL when it finishes — including when it
    fails, so traces of broken runs survive for post-mortems.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level, json_mode=args.log_json)
    tracer = Tracer(record_decisions=True) if args.trace else None
    try:
        if args.kernel_backend is not None:
            # Process-wide: pool workers inherit it via the spec payloads'
            # kernels field or (forked pools) the registry override.
            set_backend(args.kernel_backend)
        if tracer is None:
            return args.func(args)
        with use_tracer(tracer):
            return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            try:
                written = tracer.export(args.trace)
            except OSError as exc:
                print(f"warning: could not write trace to {args.trace}: "
                      f"{exc}", file=sys.stderr)
            else:
                print(f"(wrote {written} trace record(s) to {args.trace})",
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
