"""Append-only sidecar index for the content-addressed result store.

The store's database problem: ``query()`` / ``summary_rows()`` used to
open and JSON-parse *every* entry payload on every call, which is fine
for a dozen results and hopeless for a million.  This module gives each
shard directory a compact sidecar::

    <root>/
      ab/
        ab3f...e1.json     # entry payload (spec + history + meta)
        index.jsonl        # one row per index operation, latest wins

Each ``put`` row carries the flattened scenario spec, the entry's meta
block and a tiny summary (final accuracy, simulated time) — everything
a query or a summary table needs — so reads never touch the payloads.

Durability model (deliberately boring):

* Rows are appended with a single ``O_APPEND`` write.  On local
  filesystems small appends land atomically, so concurrent writers
  sharing a store interleave whole lines, not bytes.
* Writers of one shard take turns on ``flock(LOCK_EX)`` held on that
  shard's ``index.jsonl``: ``put`` holds it across the entry's
  ``os.replace`` and its row, ``delete`` across the unlink and its
  ``del`` row, a rebuild from its first payload read to its replace.
  Entry order and row order therefore agree for every key, also when
  two writers put the same key.
* The index is a *cache*, never the source of truth.  The entry files
  are.  A reader checks freshness by comparing the folded key set
  against the shard's ``*.json`` stems (a directory listing — no
  payload opens) and rebuilds the shard index from payloads when they
  disagree.  Torn lines, writers killed between entry write and index
  append, and writers that bypass the index all resolve to a
  detectable mismatch followed by a clean rebuild.
* Rebuilds write a fresh ``index.jsonl`` through a temp file +
  ``os.replace``, the same discipline the entry writers use.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.telemetry import get_registry

__all__ = ["StoreIndex", "INDEX_FILENAME", "INDEX_VERSION"]

INDEX_VERSION = 1
INDEX_FILENAME = "index.jsonl"


class StoreIndex:
    """Per-shard ``index.jsonl`` maintenance and folded views.

    A row is one JSON object per line::

        {"v": 1, "op": "put", "key": "...", "spec": {...},
         "meta": {...}, "summary": {...}}
        {"v": 1, "op": "del", "key": "..."}

    Folding replays rows in order (latest wins; ``del`` removes), which
    makes the file safe to append to from many processes at once.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: payload files opened by rebuilds (observability for tests)
        self.payload_reads = 0
        # (mtime_ns, size) → folded rows, per shard: skips re-parsing an
        # unchanged index file on repeated queries from one process.
        self._cache: Dict[str, Tuple[Tuple[int, int], Dict[str, dict]]] = {}

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def index_path(self, prefix: str) -> Path:
        return self.root / prefix / INDEX_FILENAME

    def shard_prefixes(self) -> List[str]:
        """Shard directories that exist on disk (``ab/``-style)."""
        return sorted(p.name for p in self.root.glob("??") if p.is_dir())

    # ------------------------------------------------------------------ #
    # Writes (called by ResultStore.put/delete)
    # ------------------------------------------------------------------ #
    def append_put(self, key: str, spec_dict: dict, meta: dict,
                   summary: dict, *, commit: Callable[[], object]) -> None:
        """Append a ``put`` row; ``commit`` (the entry's ``os.replace``)
        runs first, under the same shard lock."""
        self._append(key[:2], {
            "v": INDEX_VERSION, "op": "put", "key": key,
            "spec": spec_dict, "meta": meta, "summary": summary,
        }, commit)

    def append_delete(self, key: str, *,
                      commit: Callable[[], object]) -> None:
        """Append a ``del`` row; ``commit`` (the entry's unlink) runs
        first, under the same shard lock."""
        self._append(key[:2], {"v": INDEX_VERSION, "op": "del", "key": key},
                     commit)

    def _append(self, prefix: str, row: dict,
                commit: Callable[[], object]) -> None:
        line = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
        with self._locked(prefix) as descriptor:
            commit()
            os.write(descriptor, line)

    @contextlib.contextmanager
    def _locked(self, prefix: str) -> Iterator[int]:
        """Hold the shard's writer lock; yields its ``O_APPEND`` descriptor.

        The lock is ``flock(LOCK_EX)`` on ``index.jsonl`` itself.  Entry
        changes and their rows are made under it, so two writers of one
        key leave entry and row from the same writer.  A rebuild replaces
        the file, so a writer that waited on the old inode re-opens the
        new one before it counts as holding the lock.
        """
        path = self.index_path(prefix)
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                 0o644)
            held = False
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
                held = os.path.samestat(os.fstat(descriptor), os.stat(path))
            except FileNotFoundError:
                pass  # unlinked while we waited: lock a fresh file
            finally:
                if not held:
                    os.close(descriptor)
            if held:
                break
        try:
            yield descriptor
        finally:
            os.close(descriptor)  # releases the lock
            self._cache.pop(prefix, None)

    # ------------------------------------------------------------------ #
    # Entry payloads (the one reader)
    # ------------------------------------------------------------------ #
    def read_entry(self, path: Path) -> dict:
        """Parse one entry payload, counted in :attr:`payload_reads`.

        Compact and indented entries parse alike.  Raises ``OSError`` or
        ``ValueError`` (bad JSON or UTF-8) for an unreadable file.
        """
        self.payload_reads += 1
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------ #
    # Raw reads (fsck wants the file as-is, no rebuild side effects)
    # ------------------------------------------------------------------ #
    def read_raw(self, prefix: str) -> Tuple[List[dict], List[str]]:
        """All parseable rows of one shard index plus corrupt-line notes."""
        path = self.index_path(prefix)
        rows: List[dict] = []
        errors: List[str] = []
        if not path.is_file():
            return rows, errors
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    errors.append(f"{path}:{number}: unparseable index line")
                    continue
                if not isinstance(row, dict) or "key" not in row:
                    errors.append(f"{path}:{number}: malformed index row")
                    continue
                rows.append(row)
        return rows, errors

    def fold_raw(self, prefix: str) -> Dict[str, dict]:
        """Folded view of the shard index *without* freshness checking."""
        rows, _ = self.read_raw(prefix)
        return self.fold(rows)

    @staticmethod
    def fold(rows: List[dict]) -> Dict[str, dict]:
        folded: Dict[str, dict] = {}
        for row in rows:
            if row.get("op") == "del":
                folded.pop(row["key"], None)
            else:
                folded[row["key"]] = row
        return folded

    # ------------------------------------------------------------------ #
    # Fresh reads (the query path)
    # ------------------------------------------------------------------ #
    def entries(self, prefix: str) -> Dict[str, dict]:
        """Folded rows for one shard, rebuilt if missing or stale.

        Freshness is the invariant ``folded keys == shard *.json stems``,
        checked with a directory listing only.  Any divergence — torn
        line, missed append, foreign writer — triggers a rebuild from the
        payloads, so the answer is always consistent with the files.
        """
        shard = self.root / prefix
        stems = {p.stem for p in shard.glob("*.json")}
        folded = self._cached_fold(prefix)
        if set(folded) == stems:
            return folded
        return self.rebuild(prefix)

    def iter_entries(self) -> Iterator[dict]:
        """Fresh folded rows across every shard (sorted by key)."""
        for prefix in self.shard_prefixes():
            entries = self.entries(prefix)
            for key in sorted(entries):
                yield entries[key]

    def _cached_fold(self, prefix: str) -> Dict[str, dict]:
        path = self.index_path(prefix)
        try:
            stat = path.stat()
            signature: Optional[Tuple[int, int]] = (stat.st_mtime_ns,
                                                    stat.st_size)
        except OSError:
            signature = None
        cached = self._cache.get(prefix)
        if (cached is not None and signature is not None
                and cached[0] == signature):
            return cached[1]
        folded = self.fold_raw(prefix)
        if signature is not None:
            self._cache[prefix] = (signature, folded)
        return folded

    # ------------------------------------------------------------------ #
    # Rebuild / compaction
    # ------------------------------------------------------------------ #
    def rebuild(self, prefix: str) -> Dict[str, dict]:
        """Regenerate one shard index from its entry payloads.

        Unreadable payloads are skipped (``repro store fsck`` reports
        them); the rebuilt file is promoted atomically so concurrent
        readers only ever see a complete index.  The shard lock is held
        from the first payload read to the replace, so no put or delete
        lands between what the rebuild read and what it writes.
        """
        shard = self.root / prefix
        folded: Dict[str, dict] = {}
        with self._locked(prefix):
            for path in sorted(shard.glob("*.json")):
                row = self._row_from_payload(path)
                if row is not None:
                    folded[row["key"]] = row
            descriptor, temp_name = tempfile.mkstemp(
                prefix=f".{INDEX_FILENAME}.", suffix=".tmp", dir=shard)
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                for key in sorted(folded):
                    handle.write(json.dumps(folded[key], sort_keys=True)
                                 + "\n")
            os.replace(temp_name, self.index_path(prefix))
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_store_index_rebuilds_total")
        return folded

    def compact(self, prefix: str) -> Dict[str, dict]:
        """Rewrite one shard index as one fresh row per live entry."""
        return self.rebuild(prefix)

    def _row_from_payload(self, path: Path) -> Optional[dict]:
        try:
            payload = self.read_entry(path)
            spec = payload["spec"]
            meta = payload.get("meta", {})
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return {
            "v": INDEX_VERSION, "op": "put", "key": path.stem,
            "spec": spec, "meta": meta,
            "summary": summary_from_history(payload.get("history")),
        }


def summary_from_history(history_dict: Optional[dict]) -> dict:
    """The tiny per-entry summary an index row carries.

    Computed from the serialised history so rebuilds (which hold the raw
    payload dict) and ``put()`` (which holds a live ``TrainingHistory``)
    produce identical rows.
    """
    final_accuracy = None
    sim_time = 0.0
    if isinstance(history_dict, dict):
        records = history_dict.get("records") or []
        for record in reversed(records):
            accuracy = record.get("test_accuracy")
            if accuracy is not None:
                final_accuracy = accuracy
                break
        if records:
            sim_time = records[-1].get("simulated_time", 0.0)
    if isinstance(final_accuracy, float) and math.isnan(final_accuracy):
        final_accuracy = None  # NaN is not portable JSON
    return {"final_accuracy": final_accuracy, "sim_time_s": sim_time}
