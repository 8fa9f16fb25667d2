"""Concurrent-writer safety of the content-addressed ResultStore.

The cluster runtime put multiple OS processes on this machine for the
first time, and ``repro sweep --processes N`` has always fanned out over a
pool — so two processes racing ``store.put`` on the *same* content address
(identical scenario run twice) and on *different* addresses must never
corrupt an entry.  The store's temp-file + ``os.replace`` write discipline
is what makes this safe; these tests hammer it from real processes.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.campaign import ResultStore, ScenarioSpec
from repro.obs import TrainingHistory
from repro.runtime import run


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=2, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


def _hammer(root: str, spec_payloads, history_payload, rounds: int) -> None:
    """Child-process body: repeatedly put every spec into the store."""
    store = ResultStore(root)
    history = TrainingHistory.from_dict(history_payload)
    for _ in range(rounds):
        for payload in spec_payloads:
            store.put(ScenarioSpec.from_dict(payload), history,
                      duration_seconds=0.1)


@pytest.mark.timeout(120)
class TestConcurrentWriters:
    def test_same_and_different_addresses_from_two_processes(self, tmp_path):
        root = str(tmp_path / "store")
        shared = tiny_spec(name="shared")  # both processes write this key
        history = run(shared).history
        payload = history.to_dict()

        # each process also writes its own distinct addresses
        own_a = [tiny_spec(name=f"a{seed}", seed=seed).to_dict()
                 for seed in (101, 102)]
        own_b = [tiny_spec(name=f"b{seed}", seed=seed).to_dict()
                 for seed in (201, 202)]
        procs = [
            multiprocessing.Process(
                target=_hammer,
                args=(root, [shared.to_dict()] + own, payload, 25))
            for own in (own_a, own_b)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=90)
            assert proc.exitcode == 0

        store = ResultStore(root)
        expected_keys = {shared.spec_hash()} | \
            {ScenarioSpec.from_dict(p).spec_hash() for p in own_a + own_b}
        assert set(store.keys()) == expected_keys
        assert len(store) == 5
        # every entry must be intact JSON with a readable history — a torn
        # write would explode here
        for key in store.keys():
            stored = store.get(key)
            assert stored.history.to_dict() == payload
            assert stored.key == key

    def test_concurrent_puts_of_identical_content_are_idempotent(self,
                                                                 tmp_path):
        root = str(tmp_path / "store")
        spec = tiny_spec(name="idem")
        history = run(spec).history
        procs = [multiprocessing.Process(
            target=_hammer, args=(root, [spec.to_dict()],
                                  history.to_dict(), 50))
            for _ in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=90)
            assert proc.exitcode == 0
        store = ResultStore(root)
        assert len(store) == 1
        assert store.get(spec.spec_hash()).spec == spec
