"""Content-addressed on-disk store for campaign results.

Layout (all JSON, human-greppable)::

    <root>/
      ab/
        ab3f...e1.json     # key = ScenarioSpec.spec_hash()
        index.jsonl        # sidecar index (see repro.campaign.index)
      c0/
        c04d...92.json
        index.jsonl

Each entry holds the full scenario spec, the serialised
:class:`~repro.obs.history.TrainingHistory` and run metadata, so a store
is self-describing: results can be compared across campaigns (and machines)
without the producing code.  An entry is compact canonical JSON — sorted
keys, no whitespace, one line; ``python -m json.tool`` pretty-prints it.
Entries written indented by older versions read identically: there is one
reader, ``json.load``.  Writes go through a temp file + ``os.replace`` so
interrupted campaigns never leave half-written entries — which is what
makes resume safe.  The replace (or a delete's unlink) and the entry's
index row are made under one per-shard ``flock`` (see
:mod:`repro.campaign.index`), so concurrent writers of one key cannot leave
the row of one beside the entry of the other.

Reads scale through the sidecar index: ``keys()``, ``query()`` and
``summary_rows()`` answer from the per-shard ``index.jsonl`` (flattened
spec + meta + summary per entry) without opening any entry payload, and
the index rebuilds itself from the payloads whenever it is missing or
disagrees with the directory listing.  ``load_all()`` remains the slow
path that parses every payload.  Hygiene lives here too: :meth:`ResultStore.fsck`
verifies entries against their content addresses and the index against
the entries; :meth:`ResultStore.gc` drops failed entries and compacts
the index (``repro store fsck`` / ``repro store gc`` from the CLI).
"""

from __future__ import annotations

import difflib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.campaign.index import INDEX_FILENAME, StoreIndex, summary_from_history
from repro.campaign.spec import SCENARIO_FIELDS, ScenarioSpec
from repro.obs.history import TrainingHistory
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer

STORE_VERSION = 1

#: meta keys accepted as bare ``query()`` filters (``status="ran"``);
#: anything under meta is reachable with a dotted ``meta.<path>`` filter.
META_FIELDS = ("status", "duration_seconds", "created_at")

_MISSING = object()


class StoredResult:
    """One cached scenario result.

    Results returned by the index-backed ``query()``/``summary_rows()``
    carry the spec, meta and a per-entry summary out of the index; the
    :class:`~repro.obs.history.TrainingHistory` payload is read from disk
    only when :attr:`history` is first accessed.  Results from
    :meth:`ResultStore.get` arrive fully loaded.
    """

    def __init__(self, key: str, spec: ScenarioSpec,
                 history: Optional[TrainingHistory] = None,
                 meta: Optional[Dict] = None, *,
                 summary: Optional[Dict] = None,
                 loader: Optional[Callable[[], TrainingHistory]] = None
                 ) -> None:
        self.key = key
        self.spec = spec
        self.meta = {} if meta is None else meta
        self._history = history
        self._summary = summary
        self._loader = loader

    @property
    def history(self) -> TrainingHistory:
        """The training history (loaded from the entry payload on demand)."""
        if self._history is None:
            if self._loader is None:
                raise ValueError(
                    f"stored result {self.key[:10]} has no history attached")
            self._history = self._loader()
        return self._history

    @property
    def history_loaded(self) -> bool:
        """Whether accessing :attr:`history` already paid the payload read."""
        return self._history is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredResult):
            return NotImplemented
        return (self.key == other.key and self.spec == other.spec
                and self.meta == other.meta)

    def __repr__(self) -> str:
        loaded = "loaded" if self.history_loaded else "lazy"
        return (f"StoredResult(key={self.key[:10]!r}, "
                f"scenario={self.spec.name!r}, history={loaded})")

    def summary_row(self) -> Dict[str, object]:
        """Row for :func:`repro.plotting.format_table` comparisons."""
        spec = self.spec
        if self._summary is not None and not self.history_loaded:
            final_accuracy = self._summary.get("final_accuracy")
            sim_time = self._summary.get("sim_time_s", 0.0)
        else:
            final_accuracy = self.history.final_accuracy()
            sim_time = self.history.total_time()
        return {
            "scenario": spec.name,
            "trainer": spec.trainer,
            "gradient_rule": spec.gradient_rule,
            "worker_attack": spec.worker_attack.name if spec.worker_attack else None,
            "server_attack": spec.server_attack.name if spec.server_attack else None,
            "adversary": spec.adversary.name if spec.adversary else None,
            "workers": spec.num_workers,
            "seed": spec.seed,
            "fault_events": len(spec.faults.events) if spec.faults else 0,
            "hetero": spec.hetero.partition if spec.hetero else None,
            "final_accuracy": final_accuracy,
            "sim_time_s": sim_time,
            "key": self.key[:10],
        }


@dataclass
class FsckIssue:
    """One integrity problem ``fsck`` found."""

    kind: str
    detail: str
    key: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "detail": self.detail, "key": self.key}


@dataclass
class FsckReport:
    """What :meth:`ResultStore.fsck` verified and what it found."""

    entries: int = 0
    shards: int = 0
    stale_temps: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "entries": self.entries,
            "shards": self.shards,
            "stale_temps": self.stale_temps,
            "issues": [issue.to_dict() for issue in self.issues],
        }


class ResultStore:
    """Content-addressed result cache keyed by :meth:`ScenarioSpec.spec_hash`."""

    #: temp files older than this are orphans from a killed writer
    STALE_TEMP_SECONDS = 3600.0

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.index = StoreIndex(self.root)
        self._sweep_stale_temp_files()
        registry = get_registry()
        if registry.enabled:
            # One scan at open; put()/delete() adjust from here, so the
            # gauge stays accurate without a per-write glob.
            registry.set_gauge("repro_store_entries", len(self.keys()))

    @property
    def payload_reads(self) -> int:
        """Entry payload files opened through this handle.

        The observable behind the index's core promise: ``query()`` and
        ``summary_rows()`` leave this untouched however many entries the
        store holds.
        """
        return self.index.payload_reads

    def _sweep_stale_temp_files(self) -> int:
        """Remove temp litter left by killed writers.

        Only files comfortably older than any plausible in-flight write are
        touched, so a concurrent campaign's active temp files are safe.
        """
        removed = 0
        cutoff = time.time() - self.STALE_TEMP_SECONDS
        for temp_path in self.root.glob("??/.*.tmp"):
            try:
                if temp_path.stat().st_mtime < cutoff:
                    temp_path.unlink()
                    removed += 1
            except OSError:
                pass  # already promoted or removed by its writer
        return removed

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def keys(self) -> List[str]:
        return sorted(row["key"] for row in self.index.iter_entries())

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ #
    def put(self, spec: ScenarioSpec, history: TrainingHistory, *,
            status: str = "ran", duration_seconds: Optional[float] = None,
            extra_meta: Optional[Dict] = None) -> str:
        """Persist one result; returns its content-address key."""
        started = time.perf_counter()
        key = spec.spec_hash()
        path = self.path_for(key)
        existed = path.is_file()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": STORE_VERSION,
            "key": key,
            "spec": spec.to_dict(),
            "history": history.to_dict(),
            "meta": {
                "status": status,
                "duration_seconds": duration_seconds,
                "created_at": time.time(),
                **(extra_meta or {}),
            },
        }
        # One C-encoder call and one write: ``indent`` would send json
        # through its pure-Python encoder, a write call per token.
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        # Unique temp name per writer: concurrent campaigns sharing a store
        # may race on the same key, and a shared ".tmp" would interleave.
        descriptor, temp_name = tempfile.mkstemp(prefix=f".{path.name}.",
                                                 suffix=".tmp",
                                                 dir=path.parent)
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        # Entry first, index row second, both under the shard lock: a
        # writer killed between the two leaves a key-set mismatch the next
        # reader detects and rebuilds.
        self.index.append_put(key, payload["spec"], payload["meta"],
                              summary_from_history(payload["history"]),
                              commit=lambda: os.replace(temp_name, path))
        get_tracer().count("store.put")
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_store_ops_total", op="put")
            registry.observe("repro_store_op_seconds",
                             time.perf_counter() - started, op="put")
            if not existed:
                registry.add_gauge("repro_store_entries", 1)
        return key

    def get(self, key: str) -> StoredResult:
        started = time.perf_counter()
        path = self.path_for(key)
        if not path.is_file():
            raise KeyError(f"no stored result for key '{key}'")
        payload = self.index.read_entry(path)
        get_tracer().count("store.get")
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_store_ops_total", op="get")
            registry.observe("repro_store_op_seconds",
                             time.perf_counter() - started, op="get")
        return StoredResult(
            key=payload["key"],
            spec=ScenarioSpec.from_dict(payload["spec"]),
            history=TrainingHistory.from_dict(payload["history"]),
            meta=payload.get("meta", {}),
        )

    def delete(self, key: str) -> bool:
        path = self.path_for(key)
        if not path.is_file():
            return False
        self.index.append_delete(key, commit=path.unlink)
        get_tracer().count("store.delete")
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_store_ops_total", op="delete")
            registry.add_gauge("repro_store_entries", -1)
        return True

    def _load_history(self, key: str) -> TrainingHistory:
        """Payload read behind a lazy :attr:`StoredResult.history`."""
        payload = self.index.read_entry(self.path_for(key))
        return TrainingHistory.from_dict(payload["history"])

    # ------------------------------------------------------------------ #
    # Cross-campaign queries (index-backed; no payload opens)
    # ------------------------------------------------------------------ #
    def load_all(self) -> Iterator[StoredResult]:
        """Fully-loaded results for every entry — the *slow path*.

        Opens and parses every payload file.  Prefer :meth:`query` /
        :meth:`summary_rows`, which answer from the sidecar index, and
        reach for this only when every history is genuinely needed.
        """
        for key in self.keys():
            yield self.get(key)

    def query(self, **filters) -> List[StoredResult]:
        """Stored results whose spec fields match every filter.

        Answered entirely from the sidecar index — no entry payloads are
        opened; returned results load their history lazily on first
        ``.history`` access.  Three filter shapes compose:

        * top-level spec fields — ``query(gradient_rule="median")``;
          attack/adversary values match on the *name*, so
          ``query(worker_attack="sign_flip")`` works;
        * dotted nested paths — ``query(**{"hetero.partition":
          "dirichlet"})`` or ``query(**{"meta.trace_summary.events": 0})``;
          a path absent from an entry simply doesn't match (no error);
        * meta fields — ``query(status="ran")`` (see :data:`META_FIELDS`).

        Unknown field names raise :class:`KeyError` naming the nearest
        valid fields.
        """
        self._validate_filter_names(filters)
        matches = []
        for row in self.index.iter_entries():
            if self._row_matches(row, filters):
                matches.append(self._result_from_row(row))
        return matches

    @staticmethod
    def _validate_filter_names(filters: Dict[str, Any]) -> None:
        valid = sorted(SCENARIO_FIELDS) + list(META_FIELDS)
        unknown = []
        for name in filters:
            root = name.split(".", 1)[0]
            if (root in SCENARIO_FIELDS or root == "meta"
                    or name in META_FIELDS):
                continue
            unknown.append(name)
        if unknown:
            message = f"unknown scenario fields: {sorted(unknown)}"
            suggestions: List[str] = []
            for name in sorted(unknown):
                for match in difflib.get_close_matches(name, valid, n=2):
                    if match not in suggestions:
                        suggestions.append(match)
            if suggestions:
                message += f"; nearest valid fields: {suggestions}"
            raise KeyError(message)

    @staticmethod
    def _row_matches(row: Dict, filters: Dict[str, Any]) -> bool:
        spec_dict = row.get("spec") or {}
        meta = row.get("meta") or {}
        for name, wanted in filters.items():
            if "." in name:
                root, rest = name.split(".", 1)
                scope = meta if root == "meta" else spec_dict.get(root)
                value = _navigate(scope, rest.split("."))
            elif name in SCENARIO_FIELDS:
                value = spec_dict.get(name, _MISSING)
                if isinstance(value, dict) and "name" in value:
                    value = value["name"]
            else:
                value = meta.get(name, _MISSING)
            if value is _MISSING or value != wanted:
                return False
        return True

    def _result_from_row(self, row: Dict) -> StoredResult:
        key = row["key"]
        return StoredResult(
            key=key,
            spec=ScenarioSpec.from_dict(row.get("spec") or {}),
            meta=dict(row.get("meta") or {}),
            summary=row.get("summary"),
            loader=lambda key=key: self._load_history(key),
        )

    def summary_rows(self, results: Optional[List[StoredResult]] = None
                     ) -> List[Dict[str, object]]:
        """Comparison rows for every (or the given) stored result.

        The no-argument form is index-backed: rows come straight from the
        per-entry summaries without opening any payload.
        """
        if results is None:
            results = [self._result_from_row(row)
                       for row in self.index.iter_entries()]
        return [result.summary_row() for result in results]

    # ------------------------------------------------------------------ #
    # Hygiene: fsck / gc  (``repro store fsck`` / ``repro store gc``)
    # ------------------------------------------------------------------ #
    def fsck(self) -> FsckReport:
        """Verify entries and index against each other (read-only).

        Checks, per shard: entry payloads parse as JSON, deserialise to a
        spec, and hash back to their filename; entries sit in the shard
        their key names; the *raw* index (no auto-rebuild — deliberate
        corruption must stay visible) parses line by line, carries no row
        for a missing entry, no entry without a row, and no row whose
        spec/meta disagree with the payload.  When telemetry is active
        the ``repro_store_entries`` gauge is compared against the actual
        entry count.
        """
        report = FsckReport()
        cutoff = time.time() - self.STALE_TEMP_SECONDS
        for temp_path in self.root.glob("??/.*.tmp"):
            try:
                if temp_path.stat().st_mtime < cutoff:
                    report.stale_temps += 1
            except OSError:
                pass
        for prefix in self.index.shard_prefixes():
            report.shards += 1
            shard = self.root / prefix
            payloads: Dict[str, Dict] = {}
            unreadable: set = set()
            for path in sorted(shard.glob("*.json")):
                report.entries += 1
                try:
                    payload = self.index.read_entry(path)
                    if not isinstance(payload, dict):
                        raise ValueError("not an object")
                except (OSError, ValueError):
                    report.issues.append(FsckIssue(
                        "corrupt_entry",
                        f"{path}: unreadable or truncated JSON",
                        key=path.stem))
                    unreadable.add(path.stem)
                    continue
                if path.stem[:2] != prefix:
                    report.issues.append(FsckIssue(
                        "misplaced_entry",
                        f"{path}: key belongs in shard {path.stem[:2]}/",
                        key=path.stem))
                try:
                    recomputed = ScenarioSpec.from_dict(
                        payload["spec"]).spec_hash()
                except Exception:
                    report.issues.append(FsckIssue(
                        "corrupt_entry",
                        f"{path}: spec does not deserialise",
                        key=path.stem))
                    unreadable.add(path.stem)
                    continue
                if recomputed != path.stem:
                    report.issues.append(FsckIssue(
                        "hash_mismatch",
                        f"{path}: content hashes to {recomputed[:10]}..., "
                        f"filename claims {path.stem[:10]}...",
                        key=path.stem))
                payloads[path.stem] = payload
            rows, line_errors = self.index.read_raw(prefix)
            for detail in line_errors:
                report.issues.append(FsckIssue("corrupt_index_line", detail))
            folded = StoreIndex.fold(rows)
            for key in sorted(folded):
                if key in unreadable:
                    continue  # already reported as corrupt_entry
                if key not in payloads:
                    report.issues.append(FsckIssue(
                        "orphan_index_row",
                        f"{prefix}/{INDEX_FILENAME}: row for entry "
                        f"{key[:10]}... which does not exist",
                        key=key))
                    continue
                payload = payloads[key]
                row = folded[key]
                if (row.get("spec") != payload.get("spec")
                        or row.get("meta") != payload.get("meta", {})):
                    report.issues.append(FsckIssue(
                        "stale_index_row",
                        f"{prefix}/{INDEX_FILENAME}: row for {key[:10]}... "
                        f"disagrees with the entry payload",
                        key=key))
            for key in sorted(payloads):
                if key not in folded:
                    report.issues.append(FsckIssue(
                        "missing_index_row",
                        f"{prefix}: entry {key[:10]}... has no index row",
                        key=key))
        registry = get_registry()
        if registry.enabled:
            gauge = registry.gauge("repro_store_entries").value()
            if gauge is not None and int(gauge) != report.entries - len(
                    {i.key for i in report.issues
                     if i.kind == "corrupt_entry"}):
                report.issues.append(FsckIssue(
                    "gauge_drift",
                    f"repro_store_entries gauge reads {int(gauge)}, "
                    f"store holds {report.entries} entries"))
        return report

    def gc(self, *, dry_run: bool = False) -> Dict[str, int]:
        """Collect garbage: failed entries, orphan index rows, stale temps.

        * entries whose meta status is ``"failed"`` are deleted (their
          spec hash is unchanged, so a later campaign simply re-runs them);
        * unreadable (corrupt/truncated) entries are deleted — they can
          never be served, and while present they keep the shard index
          permanently stale;
        * every shard index is compacted to one fresh row per live entry,
          which also drops superseded rows (older puts for a key) and
          orphan rows pointing at entries that no longer exist;
        * temp files older than :attr:`STALE_TEMP_SECONDS` are removed.

        With ``dry_run=True`` nothing changes; the report shows what a
        real pass would do.
        """
        removed_failed = 0
        removed_corrupt = 0
        orphan_rows = 0
        shards = self.index.shard_prefixes()
        for prefix in shards:
            folded = self.index.fold_raw(prefix)
            for key in sorted(folded):
                if not self.contains(key):
                    orphan_rows += 1
                    continue
                meta = folded[key].get("meta") or {}
                if meta.get("status") == "failed":
                    removed_failed += 1
                    if not dry_run:
                        self.delete(key)
            for path in sorted((self.root / prefix).glob("*.json")):
                try:
                    self.index.read_entry(path)
                except (OSError, ValueError):
                    removed_corrupt += 1
                    if not dry_run:
                        self.delete(path.stem)
        stale_temps = 0
        cutoff = time.time() - self.STALE_TEMP_SECONDS
        for temp_path in self.root.glob("??/.*.tmp"):
            try:
                if temp_path.stat().st_mtime < cutoff:
                    stale_temps += 1
                    if not dry_run:
                        temp_path.unlink()
            except OSError:
                pass
        if not dry_run:
            for prefix in shards:
                self.index.compact(prefix)
        return {
            "removed_failed": removed_failed,
            "removed_corrupt": removed_corrupt,
            "orphan_rows_dropped": orphan_rows,
            "stale_temps_removed": stale_temps,
            "shards_compacted": 0 if dry_run else len(shards),
            "entries": len(self),
        }


def _navigate(scope: Any, parts: List[str]) -> Any:
    """Walk ``parts`` through nested dicts; ``_MISSING`` when absent."""
    value = scope
    for part in parts:
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value
