"""Two sha256 per scenario of the benchmark's 64-cell grid, per engine.

The grid is ``seq_grid``'s shape: 4 GARs x 4 threats x 2 delay models x
2 environments (``bench/workloads.py``, ``SeqGrid``).  Each cell runs
through three engines, under a tracer that records GAR decisions:

* ``default`` — :func:`repro.run`, the batched engine for these dense
  models, as a one-lane group;
* ``sequential`` — the oracle, :func:`repro.testing.sequential_history`;
* ``grouped`` — :func:`repro.batch.run_batched_scenarios` on the four GAR
  cells of the cell's (threat, delay, environment) combination as one
  group of four lanes.

Each run prints the sha256 of its history's canonical JSON, and then that
of its ``*.gar.decision`` events in order, with the wall-clock
``ts``/``dur`` dropped and the engine's ``seq.``/``batch.`` prefix cut
off; a grouped lane's records are the ones naming its scenario, with the
lane index the one-lane run would report (0)::

    PYTHONPATH=src python tests/digests.py > before.txt
    # ... change the engines ...
    PYTHONPATH=src python tests/digests.py > after.txt
    diff before.txt after.txt

An empty diff means the change left every history and every decision
record of the grid as it was.  To compare against another checkout, run
this file with ``PYTHONPATH=<checkout>/src`` (a checkout without rule
groups lacks the ``grouped`` column: compare ``grep -v grouped``).
Grouping is exact when the ``grouped`` column equals ``default``::

    diff <(grep ' default ' after.txt | sed 's/ default / x /') \\
         <(grep ' grouped ' after.txt | sed 's/ grouped / x /')
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro import ScenarioSpec, run
from repro.batch import run_batched_scenarios
from repro.obs import Tracer, use_tracer
from repro.testing import sequential_history

# the grid is the benchmark's own, read from bench/workloads.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import GARS, SeqGrid

THREATS, DELAYS, ENVIRONMENTS = \
    SeqGrid.THREATS, SeqGrid.DELAYS, SeqGrid.ENVIRONMENTS


def grid(steps: int, seed: int):
    """The 64 cells, GAR-major."""
    for rule, threat, delay, environment in itertools.product(
            GARS, range(len(THREATS)), range(len(DELAYS)),
            range(len(ENVIRONMENTS))):
        yield ScenarioSpec(
            name=f"{rule}-t{threat}-d{delay}-e{environment}",
            gradient_rule=rule, num_steps=steps, seed=seed,
            **THREATS[threat], **DELAYS[delay], **ENVIRONMENTS[environment])


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def decisions(tracer: Tracer, lane=None) -> list:
    """The run's decision records, without clock readings or engine; with
    ``lane``, those of that scenario's lane, numbered as a lone run's."""
    records = []
    for event in tracer.events():
        if event.name.endswith(".gar.decision"):
            record = event.to_dict()
            if lane is not None:
                if record["attrs"]["scenario"] != lane:
                    continue
                record["attrs"]["replica"] = 0
            record.pop("ts")
            record.pop("dur", None)
            record["name"] = "gar.decision"
            records.append(record)
    return records


def grouped(specs) -> dict:
    """Name → (history digest, decision digest) of every lane, the grid's
    GAR cells run four lanes to a group."""
    groups = {}
    for spec in specs:
        groups.setdefault(spec.name.split("-", 1)[1], []).append(spec)
    digests = {}
    for group in groups.values():
        with use_tracer(Tracer(record_decisions=True)) as tracer:
            histories = run_batched_scenarios(group)
        for spec, history in zip(group, histories):
            digests[spec.name] = (digest(history.to_dict()),
                                  digest(decisions(tracer, spec.name)))
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    engines = (("default", lambda spec: run(spec).history),
               ("sequential", sequential_history))
    specs = list(grid(args.steps, args.seed))
    lanes = grouped(specs)
    for spec in specs:
        for engine, execute in engines:
            with use_tracer(Tracer(record_decisions=True)) as tracer:
                history = execute(spec)
            print(spec.name, engine, digest(history.to_dict()),
                  digest(decisions(tracer)), flush=True)
        print(spec.name, "grouped", *lanes[spec.name], flush=True)


if __name__ == "__main__":
    main()
