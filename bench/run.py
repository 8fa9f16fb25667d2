"""The perf ledger's entry point.

Three ways to call it, all from the repository root::

    python3 bench/run.py --workload seq_grid --seed 3 --seconds 8 --trace 0
    python3 bench/run.py --label before                     # a result set
    python3 bench/run.py --quick                            # smoke run

The first is the contract ``BENCHMARK.json`` describes: one workload, one
run, one JSON object as the last line of standard output, holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).
The second runs every workload ten times on consecutive seeds, each in a
fresh interpreter, and writes ``bench/out/results-<label>.json`` for
``bench/agree.py``.  Everything the benchmark writes goes under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from spans import PHASES, NullSpans, Spans, quartiles, spin, tail

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
#: set-ups per untraced run (``setup_s`` is import time + their median)
SETUP_REPEATS = 3
#: a run measures at least this many passes, however long one takes
MIN_PASSES = 3
#: untraced runs per workload in a result set
RUNS = 10


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def machine_block() -> dict:
    import numpy
    from repro.kernels import active_backend
    from repro.runtime.cluster import cluster_available

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": commit, "kernel_backend": active_backend().name,
            "cluster_available": cluster_available()}


def make_tmp_root() -> str:
    """A scratch directory inside ``bench/out`` that ``tempfile`` (and so
    the cluster supervisor's socket directory) uses for this run."""
    os.makedirs(OUT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    # A Unix socket path holds ~107 bytes; the supervisor appends
    # "/repro-cluster-XXXXXXXX/worker-N.sock" (~37 bytes) to the temp root.
    if len(tmp_root) <= 64:
        tempfile.tempdir = tmp_root
        os.environ["TMPDIR"] = tmp_root
    else:
        print(f"note: {tmp_root} is too long for socket paths; the cluster "
              f"runtime keeps its sockets in the system temp directory",
              file=sys.stderr)
    return tmp_root


# --------------------------------------------------------------------------- #
# One workload, one run
# --------------------------------------------------------------------------- #
class ChildMemory(threading.Thread):
    """Peak resident memory of this process's children, polled from /proc.

    ``getrusage(RUSAGE_CHILDREN)`` cannot give it: a child started with
    ``vfork`` begins life charged with its parent's peak, so its
    ``ru_maxrss`` never reads below the bench process's own.  ``peak_mb`` is
    the largest sum, over the children alive at one moment, of each one's
    own high-water mark.  Where there is no /proc it stays 0.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.peak_mb = 0.0
        self._done = threading.Event()

    def run(self) -> None:
        me = str(os.getpid())
        while os.path.isdir("/proc") and not self._done.wait(0.1):
            total = 0.0
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                        parent = handle.read().rsplit(")", 1)[1].split()[1]
                    if parent != me:
                        continue
                    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                total += int(line.split()[1]) / 1024.0
                except (OSError, IndexError, ValueError):
                    continue  # the process ended between two reads
            self.peak_mb = max(self.peak_mb, total)

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak_mb


def run_untraced(workload, seconds: float, quick: bool, import_s: float
                 ) -> dict:
    """The end-to-end run.  Every wall time is divided by the host's
    slowdown around it (``spans.spin``), so the metrics are in seconds of
    the reference host whatever the host is doing."""
    from workloads import digest_of

    setups, slow = [], spin()
    for repeat in range(1 if quick else SETUP_REPEATS):
        if repeat:
            workload.close()
        mark = time.perf_counter()
        workload.prepare()
        wall = time.perf_counter() - mark
        before, slow = slow, spin()
        setups.append(wall / ((before + slow) / 2))

    spans, passes, slowdowns, usage = NullSpans(), [], [], 0.0
    least = 1 if quick else max(MIN_PASSES, workload.cycle)
    children = ChildMemory()
    if workload.spawns_processes:
        children.start()
    started = time.perf_counter()
    while (len(passes) < least or time.perf_counter() - started < seconds
           or (len(passes) % workload.cycle and not quick)):
        passes.append(workload.one_pass(len(passes), spans))
        before, slow = slow, spin()
        slowdowns.append((before + slow) / 2)
        if len(passes) == least:
            # Sampled after a fixed amount of work, so a faster machine,
            # which fits more passes into the run, reports the same memory.
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if workload.spawns_processes:
                usage += children.stop()
    measured = time.perf_counter() - started
    after = workload.check_after()
    workload.close()

    # Passes of one composition cost the same but for noise the slowdown
    # did not capture, so each composition counts with its median pass.
    scaled = [done.work_wall / factor
              for done, factor in zip(passes, slowdowns)]
    cycle = min(workload.cycle, len(passes))
    typical = [statistics.median(scaled[slot::cycle]) for slot in range(cycle)]
    work = sum(done.work for done in passes[:cycle])
    latencies = [latency * 1e3 for done in passes
                 for latency in done.latencies]
    digests = [done.digest for done in passes[:cycle] if done.digest]
    metrics = {
        "work_per_s": {"value": work / sum(typical), "unit": "1/s"},
        "peak_rss_mb": {"value": usage, "unit": "MB"},
        "setup_s": {"value": import_s + statistics.median(setups),
                    "unit": "s"},
    }
    return {
        "metrics": metrics,
        "attempted": sum(done.attempted for done in passes) + 1,
        "failed": sum(done.failed for done in passes) + len(after),
        "errors": [error for done in passes for error in done.errors][:5]
        + after,
        "detail": {
            "passes": len(passes), "measured_s": measured,
            "pass_work_walls_s": [done.work_wall for done in passes],
            "pass_slowdowns": slowdowns,
            "work_per_cycle": work,
            "work_unit": workload.work_unit, "request": workload.request,
            "unscaled_work_per_s": sum(done.work for done in passes)
            / sum(done.work_wall for done in passes),
            "request_ms": dict(quartiles(latencies), tail=tail(latencies)),
            "setup_s": {"import_s": import_s, "prepare_s": setups},
            "digest": (digest_of(digests) if len(digests) > 1
                       else digests[0] if digests else None),
        },
    }


LIVE_PHASE = {"worker.gather": "gather", "server.gather": "gather",
              "worker.compute": "compute", "server.broadcast": "broadcast",
              "server.aggregate": "aggregate", "server.apply": "apply"}
SHARE_LAYERS = ("engine", "store", "scheduler", "scenario_setup", *PHASES,
                "runtime_overhead", "unattributed")


def layer_shares(passes, walls, spans, tracer) -> dict:
    """Where the traced passes' wall time went, as shares of that wall.

    Bench-side spans give the store, engine and scheduler self times; the
    program's own spans give the five protocol phases; what a scenario
    spends outside its phases (building the trainer, data, evaluation) is
    ``scenario_setup``.  The live runtimes' spans overlap across node
    threads and processes, so their phases split the mean per-node time
    inside the loops; the rest of a live run (thread or process start,
    handshake, teardown) is ``runtime_overhead``.
    """
    wall = sum(walls)
    own = spans.self_times()
    seconds = dict.fromkeys(SHARE_LAYERS, 0.0)
    seconds["store"] = sum(value for name, value in own.items()
                           if name.startswith("campaign.store."))
    scenarios, per_node = 0.0, {}
    for event in tracer.events():
        if event.name == "campaign.scenario":
            scenarios += event.attrs.get("duration_s", 0.0)
        elif event.kind != "span":
            continue
        elif event.name.startswith(("seq.step.", "batch.step.")):
            seconds[event.name.rsplit(".", 1)[1]] += event.dur
        elif event.name.startswith(("thr.", "clu.")):
            phase = LIVE_PHASE.get(event.name.split(".", 1)[1])
            node = per_node.setdefault(event.node or event.source, {})
            node[phase] = node.get(phase, 0.0) + event.dur
    seconds["scenario_setup"] = max(
        scenarios - sum(seconds[name] for name in PHASES), 0.0)

    campaign = sum(done.campaign_wall for done in passes)
    inside = sum(own.get(f"campaign.store.{name}", 0.0)
                 for name in ("contains", "get", "put"))
    if campaign:
        seconds["engine"] = max(campaign - inside - scenarios, 0.0)
    submitted = sum(value for name, value in own.items()
                    if name.startswith("campaign.scheduler."))
    if submitted:
        seconds["scheduler"] = max(
            submitted - campaign - own.get("campaign.store.keys", 0.0), 0.0)

    live = sum(done.live_wall for done in passes)
    if live and per_node:
        in_loops = sum(sum(node.values()) for node in per_node.values())
        stepping = in_loops / len(per_node)
        for node in per_node.values():
            for phase, value in node.items():
                seconds[phase] += value / in_loops * stepping
        seconds["runtime_overhead"] = max(live - stepping, 0.0)
    elif live:
        seconds["runtime_overhead"] = live

    seconds["unattributed"] = max(wall - sum(seconds.values()), 0.0)
    return {name: value / wall for name, value in seconds.items()}


def run_traced(workload, seconds: float, quick: bool, tmp_root: str,
               probe_rows=None) -> dict:
    """The per-layer run: passes alternate untraced and traced over at
    least one cycle (tracing overhead is the median difference of a pair),
    then the layer probes run at the workload's shape (the smoke run hands in ``probe_rows`` it already
    has).  End-to-end numbers never come from here."""
    from repro.obs.tracer import Tracer, use_tracer

    from probes import run_probes

    workload.prepare()
    spans, tracer = Spans(), Tracer(capacity=1_000_000)
    plain, traced, walls = [], [], {"plain": [], "traced": []}
    started = time.perf_counter()
    pairs = 1 if quick else max(2, workload.cycle)
    while len(traced) < pairs or time.perf_counter() - started < seconds:
        mark = time.perf_counter()
        plain.append(workload.one_pass(len(plain), NullSpans()))
        walls["plain"].append(time.perf_counter() - mark)
        mark = time.perf_counter()
        with use_tracer(tracer), spans.span("bench.pass",
                                            unit=f"pass-{len(traced)}"):
            traced.append(workload.one_pass(len(traced), spans))
        walls["traced"].append(time.perf_counter() - mark)
    after = workload.check_after()
    workload.close()

    rows = dict(probe_rows or run_probes(workload.shape(), tmp_root, quick))
    overhead = statistics.median(
        with_tracer / without - 1.0
        for with_tracer, without in zip(walls["traced"], walls["plain"]))
    rows["obs.trace_overhead_share"] = {
        "value": overhead, "unit": "ratio", "n": len(traced)}
    rows["request_p50_ms"] = {
        "value": statistics.median(latency * 1e3 for done in plain
                                   for latency in done.latencies),
        "unit": "ms", "n": sum(len(done.latencies) for done in plain)}
    shares = layer_shares(traced, walls["traced"], spans, tracer)
    for layer, share in shares.items():
        rows[f"trace.share.{layer}"] = {"value": share, "unit": "ratio"}

    os.makedirs(OUT, exist_ok=True)
    spans.write_jsonl(
        os.path.join(OUT, f"trace-{workload.name}.jsonl"),
        extra=(dict(event.to_dict(), origin="repro.obs.tracer")
               for event in tracer.events()))
    passes = plain + traced
    probe_failures = sum(row.get("failures", 0) for row in rows.values())
    return {
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in rows.items()},
        "attempted": (sum(done.attempted for done in passes) + 1
                      + len(rows)),
        "failed": (sum(done.failed for done in passes) + len(after)
                   + probe_failures),
        "errors": [error for done in passes for error in done.errors][:5]
        + after + [f"probe {name}: {row['error']}"
                   for name, row in rows.items() if "error" in row],
        "detail": {"pairs": len(traced), "rows": rows,
                   "dropped_trace_records": tracer.dropped},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, tmp_root: str, import_s: float,
                 probe_rows=None) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick, tmp_root)
    try:
        if trace:
            result = run_traced(workload, seconds, quick, tmp_root,
                                probe_rows)
        else:
            result = run_untraced(workload, seconds, quick, import_s)
    finally:
        workload.close()
    result.update(workload=name, seed=seed, trace=int(trace),
                  correct=result["failed"] == 0)
    return result


def check_names(result: dict, contract: dict) -> list:
    """Metric names the contract lists for this mode but the run lacks."""
    wanted = contract["per_layer" if result["trace"] else "end_to_end"]
    return [metric["name"] for metric in wanted
            if metric["name"] not in result["metrics"]]


def report(result: dict, machine: dict) -> None:
    """Every metric by name with its unit, the detail file, the last line."""
    for name, metric in sorted(result["metrics"].items()):
        shown = ("null" if metric["value"] is None  # a probe that cannot run
                 else f"{metric['value']:.6g}")
        print(f"{result['workload']:<15} {name:<42} {shown:>14} "
              f"{metric['unit']}")
    for error in result["errors"]:
        print(f"FAILED {result['workload']}: {error}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{result['workload']}-seed{result['seed']}"
                             f"-trace{result['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, machine=machine), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


# --------------------------------------------------------------------------- #
# Result sets and the smoke run
# --------------------------------------------------------------------------- #
def run_suite(args, contract: dict) -> int:
    """``RUNS`` rounds of every workload, one seed per round and one fresh
    interpreter per run (so ``peak_rss_mb`` and ``setup_s`` are that
    workload's alone).  Rounds, not ten runs of one workload in a row: a
    workload's runs are then spread over the whole recording, and their
    quartiles show what the host did in that time."""
    runs, status = [], 0
    for seed in range(args.seed, args.seed + RUNS):
        for name in (entry["name"] for entry in contract["workloads"]):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            mark = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT)
            wall = time.perf_counter() - mark
            if done.returncode != 0:
                status = 1
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}\n{done.stderr}")
                continue
            with open(os.path.join(OUT, f"{name}-seed{seed}-trace0.json"),
                      encoding="utf-8") as handle:
                result = json.load(handle)
            result["run_wall_s"] = wall
            runs.append(result)
            shown = ", ".join(f"{key} {value['value']:.5g}"
                              for key, value in result["metrics"].items())
            print(f"{name:<15} seed {seed:<3} {wall:6.1f}s  {shown}",
                  flush=True)
    path = os.path.join(OUT, f"results-{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"label": args.label, "machine": machine_block(),
                   "seconds": args.seconds, "runs": runs}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return status


def run_quick(args, contract: dict, tmp_root: str, import_s: float) -> int:
    """Every workload, both modes, tiny constants, one interpreter; the
    layer probes run once, at the first workload's shape."""
    machine, status, results, probe_rows = machine_block(), 0, [], None
    for entry in contract["workloads"]:
        for trace in (False, True):
            result = run_workload(entry["name"], args.seed, 0.0, trace, True,
                                  tmp_root, import_s, probe_rows)
            if trace and probe_rows is None:
                probe_rows = result["detail"]["rows"]
            missing = check_names(result, contract)
            if missing or not result["correct"]:
                status = 1
                print(f"{entry['name']} trace {int(trace)}: missing "
                      f"{missing}, errors {result['errors']}")
            results.append({key: result[key] for key in (
                "workload", "trace", "correct", "attempted", "failed",
                "metrics")})
    path = os.path.join(OUT, "quick.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"machine": machine, "runs": results}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once and "
                        "print the contract's JSON line")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (the first seed of a result set)")
    parser.add_argument("--seconds", type=float,
                        help="seconds one run measures (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run instead of the end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: every workload, both modes, tiny")
    parser.add_argument("--label", default="local",
                        help="result set: bench/out/results-<label>.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT}/src/repro not found — the benchmark measures "
              f"the program in this checkout and cannot run without it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if not args.quick and not args.workload:
        return run_suite(args, contract)

    tmp_root = make_tmp_root()
    try:
        mark = time.perf_counter()
        import workloads  # noqa: F401 - timed: this is ``import repro``
        import_s = time.perf_counter() - mark
        import_s /= spin()  # after only: a spin imports NumPy itself
        if args.quick:
            return run_quick(args, contract, tmp_root, import_s)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload '{args.workload}'; known: "
                         f"{sorted(workloads.WORKLOADS)}")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), False, tmp_root, import_s)
        missing = check_names(result, contract)
        if missing:
            print(f"error: metrics missing from the run: {missing}",
                  file=sys.stderr)
            return 1
        report(result, machine_block())
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
