"""Sidecar index, query grammar, fsck/gc hygiene and delete telemetry.

The store's redesign promise is a single observable: however many entries
a store holds, ``keys()`` / ``query()`` / ``summary_rows()`` answer from
the per-shard ``index.jsonl`` without opening one entry payload — and the
index is a *cache*, so every way it can go wrong (missing, stale, torn,
deliberately corrupted) must resolve to either a silent rebuild or an
explicit ``fsck`` finding.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro.campaign import ResultStore, ScenarioSpec
from repro.campaign.index import INDEX_FILENAME, StoreIndex
from repro.campaign.spec import AttackSpec
from repro.obs import MetricsRegistry, StepRecord, TrainingHistory, use_registry


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=2, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


def tiny_history(accuracy: float = 0.75) -> TrainingHistory:
    history = TrainingHistory(label="tiny")
    history.add(StepRecord(step=1, simulated_time=2.5,
                           test_accuracy=accuracy))
    return history


# --------------------------------------------------------------------------- #
# The core promise: index-backed reads never open payloads
# --------------------------------------------------------------------------- #
class TestIndexBackedReads:
    def test_query_on_1k_entry_store_opens_no_payloads(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        for seed in range(1000):
            writer.put(tiny_spec(name=f"s{seed}", seed=seed),
                       tiny_history(accuracy=seed / 1000.0),
                       duration_seconds=0.01)

        # a fresh handle sees only the index the writer left behind
        store = ResultStore(root)
        assert len(store.keys()) == 1000
        hits = store.query(seed=123)
        assert [r.spec.seed for r in hits] == [123]
        rows = store.summary_rows()
        assert len(rows) == 1000
        assert store.payload_reads == 0  # the acceptance criterion

        # one lazy history access pays exactly one payload read
        assert not hits[0].history_loaded
        assert hits[0].history.final_accuracy() == pytest.approx(0.123)
        assert hits[0].history_loaded
        assert store.payload_reads == 1

    def test_summary_rows_come_from_the_index(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        spec = tiny_spec(seed=7)
        writer.put(spec, tiny_history(accuracy=0.5), duration_seconds=1.0)
        store = ResultStore(tmp_path / "store")
        (row,) = store.summary_rows()
        assert row["scenario"] == "tiny" and row["seed"] == 7
        assert row["final_accuracy"] == pytest.approx(0.5)
        assert row["sim_time_s"] == pytest.approx(2.5)
        assert row["key"] == spec.spec_hash()[:10]
        assert store.payload_reads == 0

    def test_missing_index_rebuilds_transparently(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        for seed in (1, 2, 3):
            writer.put(tiny_spec(seed=seed), tiny_history())
        for index_path in (tmp_path / "store").glob(f"??/{INDEX_FILENAME}"):
            index_path.unlink()

        store = ResultStore(tmp_path / "store")
        assert {r.spec.seed for r in store.query(name="tiny")} == {1, 2, 3}
        rebuilt_reads = store.payload_reads
        assert rebuilt_reads == 3  # one per payload, once
        store.query(seed=2)  # now served from the rebuilt index
        assert store.payload_reads == rebuilt_reads

    def test_foreign_writer_is_detected_by_freshness_check(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(seed=1), tiny_history())
        assert len(store) == 1

        # another process writes an entry without touching our index view
        other = ResultStore(tmp_path / "store")
        key = other.put(tiny_spec(seed=2), tiny_history())

        # key-set freshness check notices the new stem and rebuilds
        assert key in store.keys()
        assert {r.spec.seed for r in store.query(name="tiny")} == {1, 2}

    def test_load_all_is_the_slow_path(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        for seed in (1, 2):
            writer.put(tiny_spec(seed=seed), tiny_history())
        store = ResultStore(tmp_path / "store")
        results = list(store.load_all())
        assert all(r.history_loaded for r in results)
        assert store.payload_reads == 2


# --------------------------------------------------------------------------- #
# Query grammar: top-level, dotted, meta
# --------------------------------------------------------------------------- #
class TestQueryGrammar:
    def test_existing_flat_filters_keep_working(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(name="m", gradient_rule="median"),
                  tiny_history())
        store.put(tiny_spec(name="k", gradient_rule="krum"), tiny_history())
        assert [r.spec.name for r in store.query(gradient_rule="median")] \
            == ["m"]
        assert [r.spec.name
                for r in store.query(gradient_rule="krum", name="k")] == ["k"]

    def test_attack_filters_match_on_the_name(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(name="atk",
                            worker_attack=AttackSpec("sign_flip")),
                  tiny_history())
        store.put(tiny_spec(name="clean"), tiny_history())
        assert [r.spec.name
                for r in store.query(worker_attack="sign_flip")] == ["atk"]

    def test_dotted_nested_spec_filter(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(name="het",
                            hetero={"partition": "dirichlet", "alpha": 0.5}),
                  tiny_history())
        store.put(tiny_spec(name="iid"), tiny_history())
        hits = store.query(**{"hetero.partition": "dirichlet"})
        assert [r.spec.name for r in hits] == ["het"]
        # absent path on the iid entry is "no match", not an error
        assert store.query(**{"hetero.partition": "shards"}) == []

    def test_meta_status_filter(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(seed=1), tiny_history(), status="ran")
        store.put(tiny_spec(seed=2), tiny_history(), status="failed")
        assert [r.spec.seed for r in store.query(status="ran")] == [1]
        assert [r.spec.seed for r in store.query(status="failed")] == [2]

    def test_dotted_meta_filter_reaches_extra_meta(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(seed=1), tiny_history(),
                  extra_meta={"campaign": "sweep-a"})
        store.put(tiny_spec(seed=2), tiny_history(),
                  extra_meta={"campaign": "sweep-b"})
        hits = store.query(**{"meta.campaign": "sweep-b"})
        assert [r.spec.seed for r in hits] == [2]

    def test_unknown_field_names_nearest_valid_fields(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyError,
                           match="unknown scenario fields") as excinfo:
            store.query(gradent_rule="median")
        assert "nearest valid fields" in str(excinfo.value)
        assert "gradient_rule" in str(excinfo.value)

    def test_filters_compose_across_shapes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(tiny_spec(seed=1, gradient_rule="median"), tiny_history(),
                  status="ran")
        store.put(tiny_spec(seed=2, gradient_rule="median"), tiny_history(),
                  status="failed")
        hits = store.query(gradient_rule="median", status="ran")
        assert [r.spec.seed for r in hits] == [1]


# --------------------------------------------------------------------------- #
# Delete: telemetry gauge and index row (the PR's regression test)
# --------------------------------------------------------------------------- #
class TestDeleteTelemetry:
    def test_delete_decrements_gauge_and_drops_index_row(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = ResultStore(tmp_path / "store")
            keys = [store.put(tiny_spec(seed=seed), tiny_history())
                    for seed in (1, 2)]
            assert registry.gauge("repro_store_entries").value() == 2

            assert store.delete(keys[0]) is True
            assert registry.gauge("repro_store_entries").value() == 1
            assert store.keys() == [keys[1]]
            assert registry.counter("repro_store_ops_total") \
                .value(op="delete") == 1.0
            # gauge, files and index all agree afterwards
            assert store.fsck().ok

    def test_delete_of_absent_key_is_a_noop(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = ResultStore(tmp_path / "store")
            store.put(tiny_spec(seed=1), tiny_history())
            assert store.delete("0" * 64) is False
            assert registry.gauge("repro_store_entries").value() == 1


# --------------------------------------------------------------------------- #
# fsck
# --------------------------------------------------------------------------- #
class TestFsck:
    def test_healthy_store_is_ok(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for seed in (1, 2, 3):
            store.put(tiny_spec(seed=seed), tiny_history())
        report = store.fsck()
        assert report.ok
        assert report.entries == 3 and report.shards >= 1
        assert report.to_dict()["ok"] is True

    def test_detects_corrupted_entry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        store.put(tiny_spec(seed=2), tiny_history())
        store.path_for(key).write_text('{"version": 1, "spec": trunca')

        report = ResultStore(tmp_path / "store").fsck()
        kinds = {issue.kind for issue in report.issues}
        assert kinds == {"corrupt_entry"}
        (issue,) = report.issues
        assert issue.key == key

    def test_detects_stale_index_row(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history(), status="ran")
        # rewrite the payload's meta behind the index's back: the key set
        # still matches, so no rebuild hides the divergence
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["meta"]["status"] = "failed"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))

        report = ResultStore(tmp_path / "store").fsck()
        kinds = {issue.kind for issue in report.issues}
        assert kinds == {"stale_index_row"}

    def test_detects_orphan_index_row(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        store.put(tiny_spec(seed=2), tiny_history())
        store.path_for(key).unlink()  # entry gone, index row left behind

        report = ResultStore(tmp_path / "store").fsck()
        assert {issue.kind for issue in report.issues} \
            == {"orphan_index_row"}
        assert report.issues[0].key == key

    def test_detects_corrupt_index_line(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        index_path = store.index.index_path(key[:2])
        with open(index_path, "a", encoding="utf-8") as handle:
            handle.write('{"torn line\n')

        report = ResultStore(tmp_path / "store").fsck()
        assert {issue.kind for issue in report.issues} \
            == {"corrupt_index_line"}

    def test_detects_hash_mismatch(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["spec"]["seed"] = 999  # content no longer hashes to the name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))

        report = ResultStore(tmp_path / "store").fsck()
        kinds = {issue.kind for issue in report.issues}
        assert "hash_mismatch" in kinds

    def test_detects_gauge_drift(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = ResultStore(tmp_path / "store")
            store.put(tiny_spec(seed=1), tiny_history())
            registry.set_gauge("repro_store_entries", 5)  # deliberate drift
            report = store.fsck()
        assert {issue.kind for issue in report.issues} == {"gauge_drift"}

    def test_fsck_is_read_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        store.path_for(key).write_text("garbage")
        before = sorted(p.name for p in (tmp_path / "store").rglob("*"))
        ResultStore(tmp_path / "store").fsck()
        after = sorted(p.name for p in (tmp_path / "store").rglob("*"))
        assert before == after


# --------------------------------------------------------------------------- #
# gc
# --------------------------------------------------------------------------- #
class TestGc:
    def test_dry_run_reports_without_changing_anything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        failed_key = store.put(tiny_spec(seed=1), tiny_history(),
                               status="failed")
        store.put(tiny_spec(seed=2), tiny_history())
        stats = store.gc(dry_run=True)
        assert stats["removed_failed"] == 1
        assert stats["shards_compacted"] == 0
        assert store.contains(failed_key)  # nothing was touched
        assert len(store) == 2

    def test_gc_removes_failed_entries_and_compacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        failed_key = store.put(tiny_spec(seed=1), tiny_history(),
                               status="failed")
        kept_key = store.put(tiny_spec(seed=2), tiny_history())
        stats = store.gc()
        assert stats["removed_failed"] == 1
        assert stats["entries"] == 1
        assert not store.contains(failed_key) and store.contains(kept_key)
        # compaction leaves one fresh row per live entry
        index_lines = [line for index_path
                       in (tmp_path / "store").glob(f"??/{INDEX_FILENAME}")
                       for line in index_path.read_text().splitlines()
                       if line.strip()]
        assert len(index_lines) == 1
        assert json.loads(index_lines[0])["key"] == kept_key

    def test_gc_removes_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        store.put(tiny_spec(seed=2), tiny_history())
        store.path_for(key).write_text("not json")

        fresh = ResultStore(tmp_path / "store")
        stats = fresh.gc()
        assert stats["removed_corrupt"] == 1
        assert stats["entries"] == 1
        assert fresh.fsck().ok  # hygiene restored

    def test_gc_drops_orphan_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        store.path_for(key).unlink()
        stats = ResultStore(tmp_path / "store").gc()
        assert stats["orphan_rows_dropped"] == 1
        assert stats["entries"] == 0


# --------------------------------------------------------------------------- #
# Entry codec: compact canonical JSON written, any JSON read
# --------------------------------------------------------------------------- #
class TestEntryCodec:
    def test_put_writes_one_compact_canonical_line(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec, history = tiny_spec(seed=1), tiny_history()
        key = store.put(spec, history, duration_seconds=0.5)
        raw = store.path_for(key).read_bytes()
        payload = json.loads(raw)
        assert b"\n" not in raw
        assert raw == json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
        assert payload["version"] == 1 and payload["key"] == key
        assert payload["spec"] == spec.to_dict()
        assert payload["history"] == history.to_dict()
        assert payload["meta"]["duration_seconds"] == 0.5

    def test_indented_and_compact_entries_answer_alike(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        indented = writer.put(tiny_spec(seed=1, gradient_rule="median"),
                              tiny_history(accuracy=0.25),
                              duration_seconds=1.0)
        compact = writer.put(tiny_spec(seed=2, gradient_rule="median"),
                             tiny_history(accuracy=0.5), duration_seconds=1.0)
        # rewrite one entry the way stores were written before entries
        # became compact: same content, indented
        path = writer.path_for(indented)
        path.write_text(json.dumps(json.loads(path.read_bytes()), indent=2,
                                   sort_keys=True), encoding="utf-8")
        assert path.read_text().startswith('{\n  "history": {')
        expected = {indented: (1, 0.25), compact: (2, 0.5)}

        store = ResultStore(root)
        for key, (seed, accuracy) in expected.items():
            result = store.get(key)
            assert result.spec.seed == seed
            assert result.history.final_accuracy() == pytest.approx(accuracy)
            assert result.meta["duration_seconds"] == 1.0
        assert {r.key: (r.spec.seed, r.history.final_accuracy())
                for r in store.query(gradient_rule="median")} == expected
        rows = store.summary_rows()
        assert {row["seed"]: row["final_accuracy"] for row in rows} \
            == {1: 0.25, 2: 0.5}

        for index_path in root.glob(f"??/{INDEX_FILENAME}"):
            index_path.unlink()
        rebuilt = ResultStore(root)
        assert rebuilt.summary_rows() == rows  # from the payloads
        assert rebuilt.payload_reads == 2
        assert rebuilt.fsck().ok
        assert rebuilt.gc(dry_run=True) == {
            "removed_failed": 0, "removed_corrupt": 0,
            "orphan_rows_dropped": 0, "stale_temps_removed": 0,
            "shards_compacted": 0, "entries": 2}


# --------------------------------------------------------------------------- #
# Concurrent index writers (real processes, and threads for the same-key race)
# --------------------------------------------------------------------------- #
def _churn(root: str, keep_payloads, churn_payloads, history_payload,
           rounds: int) -> None:
    """Child-process body: put keep-specs, put+delete churn-specs."""
    store = ResultStore(root)
    history = TrainingHistory.from_dict(history_payload)
    for _ in range(rounds):
        for payload in keep_payloads:
            store.put(ScenarioSpec.from_dict(payload), history,
                      duration_seconds=0.1)
        for payload in churn_payloads:
            spec = ScenarioSpec.from_dict(payload)
            store.put(spec, history, duration_seconds=0.1)
            store.delete(spec.spec_hash())


@pytest.mark.timeout(120)
class TestConcurrentIndexWriters:
    def test_two_processes_putting_and_deleting(self, tmp_path):
        root = str(tmp_path / "store")
        history_payload = tiny_history().to_dict()
        shared = tiny_spec(name="shared")  # both processes keep this key
        keep_a = [shared.to_dict(),
                  tiny_spec(name="a", seed=101).to_dict()]
        keep_b = [shared.to_dict(),
                  tiny_spec(name="b", seed=201).to_dict()]
        # churn keys are disjoint per process, so each key's index rows
        # are sequenced by a single writer and the final op wins cleanly
        churn_a = [tiny_spec(name="ca", seed=111).to_dict()]
        churn_b = [tiny_spec(name="cb", seed=211).to_dict()]
        procs = [
            multiprocessing.Process(
                target=_churn,
                args=(root, keep, churn, history_payload, 25))
            for keep, churn in ((keep_a, churn_a), (keep_b, churn_b))
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=90)
            assert proc.exitcode == 0

        store = ResultStore(root)
        expected = {shared.spec_hash()} | {
            ScenarioSpec.from_dict(p).spec_hash()
            for p in keep_a[1:] + keep_b[1:]}
        assert set(store.keys()) == expected
        # the index answers the full query without payloads, and agrees
        # byte-for-byte with what fsck derives from the files
        assert {r.spec.name for r in store.query(num_workers=6)} \
            == {"shared", "a", "b"}
        assert store.fsck().ok

    def test_same_key_put_race(self, tmp_path, monkeypatch):
        # Writer A replaces the entry, then writer B puts the same key start
        # to finish, then A appends its row: the entry would hold B's meta
        # beside A's folded row, with the key sets still in agreement.  The
        # shard lock makes B wait for A's row instead (A waits up to 1 s).
        root = tmp_path / "store"
        spec = tiny_spec(name="shared")
        store_a, store_b = ResultStore(root), ResultStore(root)
        a_replaced, b_done = threading.Event(), threading.Event()
        real_replace = os.replace

        def replace(source, target):
            real_replace(source, target)
            if threading.current_thread().name == "writer-a" \
                    and not a_replaced.is_set():
                a_replaced.set()
                b_done.wait(timeout=1.0)

        def write_a():
            store_a.put(spec, tiny_history(), status="ran")

        def write_b():
            a_replaced.wait(timeout=30)
            store_b.put(spec, tiny_history(), status="failed",
                        extra_meta={"writer": "b"})
            b_done.set()

        monkeypatch.setattr(os, "replace", replace)
        threads = [threading.Thread(target=write_a, name="writer-a"),
                   threading.Thread(target=write_b, name="writer-b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        monkeypatch.undo()
        assert a_replaced.is_set() and b_done.is_set()

        store = ResultStore(root)
        report = store.fsck()
        assert report.ok, report.to_dict()
        (row,) = store.query(name="shared")
        assert row.meta == store.get(spec.spec_hash()).meta
        assert row.meta["writer"] == "b"

    def test_index_survives_a_torn_line_mid_write(self, tmp_path):
        # simulate a writer killed mid-append: entry file exists, index
        # row is half a line — the freshness check must trigger a rebuild
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        index_path = store.index.index_path(key[:2])
        with open(index_path, "w", encoding="utf-8") as handle:
            handle.write('{"v": 1, "op": "put", "ke')  # torn

        fresh = ResultStore(tmp_path / "store")
        assert fresh.keys() == [key]  # rebuilt from the payload
        assert fresh.query(seed=1)[0].key == key
        # the rebuild rewrote the shard index; it is whole again
        assert json.loads(index_path.read_text().strip())["key"] == key


# --------------------------------------------------------------------------- #
# Index internals worth pinning down
# --------------------------------------------------------------------------- #
class TestStoreIndexUnit:
    def test_fold_latest_wins_and_del_removes(self):
        rows = [
            {"op": "put", "key": "k1", "meta": {"status": "ran"}},
            {"op": "put", "key": "k2", "meta": {"status": "ran"}},
            {"op": "put", "key": "k1", "meta": {"status": "failed"}},
            {"op": "del", "key": "k2"},
        ]
        folded = StoreIndex.fold(rows)
        assert set(folded) == {"k1"}
        assert folded["k1"]["meta"]["status"] == "failed"

    def test_appends_are_single_writes_of_whole_lines(self, tmp_path):
        index = StoreIndex(tmp_path)
        index.append_put("ab" + "0" * 62, {"name": "x"}, {"status": "ran"},
                         {"final_accuracy": None, "sim_time_s": 0.0},
                         commit=lambda: None)
        index.append_delete("ab" + "0" * 62, commit=lambda: None)
        lines = (tmp_path / "ab" / INDEX_FILENAME).read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
        assert index.fold_raw("ab") == {}

    def test_rebuild_skips_unreadable_payloads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        good = store.put(tiny_spec(seed=1), tiny_history())
        bad = store.put(tiny_spec(seed=2), tiny_history())
        store.path_for(bad).write_text("junk")
        index = StoreIndex(tmp_path / "store")
        folded = index.rebuild(good[:2])
        assert good in folded
        assert bad not in folded or bad[:2] != good[:2]

    def test_stale_temp_files_are_swept_on_open(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = store.put(tiny_spec(seed=1), tiny_history())
        shard = store.path_for(key).parent
        stale = shard / ".old-entry.json.1234.tmp"
        stale.write_text("half a payload")
        ancient = stale.stat().st_mtime - 2 * ResultStore.STALE_TEMP_SECONDS
        os.utime(stale, (ancient, ancient))
        ResultStore(tmp_path / "store")
        assert not stale.exists()
