"""LakeTable: a hash-partitioned Parquet lake table with an atomic,
epoch-keyed commit manifest (the exactly-once sink).

Layout under ``root/``::

    manifest.json                  <- atomic pointer to current state
    epochs/epoch-0000042/part-00013.parquet
    epochs/epoch-0000042/_staging marker files ...

Commit protocol (two-phase):
  1. every partition task writes its full new partition state to
     ``epochs/epoch-N/part-XXXXX.parquet`` (staging; rewriting is safe —
     nothing references these files until commit),
  2. the driver writes ``manifest.json.tmp`` with the new partition map +
     lineage and ``os.replace``s it over ``manifest.json`` (atomic on
     POSIX).  A crash before step 2 leaves the previous manifest intact;
     re-running the epoch overwrites staging and commits once.

Replaying an epoch that is already in ``manifest["epochs"]`` is a no-op,
and the LWW merge itself is idempotent, so retries / duplicate WAL
segments cannot double-apply (exactly-once, BASELINE.json:6).

Replaces the reference's op-hash JSON checkpoints
(``/root/reference/docetl/runner.py:546-663``) with partition-level
lineage: applied LSN ranges, row counts, and logical checksums per
partition.

Checksum contract: a partition record's ``checksum`` covers its NEWEST
level file — for single-file partitions (merge mode, full compaction)
that is the full logical LWW state; for multi-level partitions (delta
appends, tiered folds) it is the latest delta / folded middle run only.
Either way it is deterministic for a given event history + fold
schedule, so cross-run comparison and corruption audits stay sound; an
audit that needs a whole-state checksum on a multi-level partition
should full-fold first (``compact(policy="full")``).  The formula
(``apply._state_checksum``) is unchanged since the first manifests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

EMPTY_MANIFEST: dict[str, Any] = {
    "version": 1,
    "epoch": -1,
    "epochs": [],
    "num_partitions": None,
    "partitions": {},
    # routing-hash version baked into the table: rows already live in
    # files placed by this hash (``apply.url_partition``).  "v2" is the
    # only one; a manifest without it is refused on open.
    "partition_hash": "v2",
}


@dataclass
class LakeTable:
    """Handle to a partitioned lake table rooted at ``root``."""

    root: str
    num_partitions: int = 64
    _manifest: dict[str, Any] | None = field(default=None, repr=False)

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def manifest(self, *, refresh: bool = False) -> dict[str, Any]:
        if self._manifest is None or refresh:
            if os.path.exists(self.manifest_path):
                with open(self.manifest_path) as f:
                    m = json.load(f)
                if m.get("partition_hash") != "v2":
                    # rows were placed by another hash: routing new
                    # events by v2 would split a url across partitions
                    raise ValueError(
                        f"table at {self.root} has partition_hash="
                        f"{m.get('partition_hash')!r}; only 'v2' is supported")
                self._manifest = m
            else:
                self._manifest = dict(EMPTY_MANIFEST, num_partitions=self.num_partitions)
        if self._manifest.get("num_partitions"):
            self.num_partitions = self._manifest["num_partitions"]
        return self._manifest

    def committed_epochs(self) -> list[int]:
        return list(self.manifest().get("epochs", []))

    @staticmethod
    def _rec_paths(rec: dict) -> list[str]:
        """A partition's file list (oldest -> newest level).  Back-compat:
        single-``path`` records read as a one-element list."""
        if "paths" in rec:
            return list(rec["paths"])
        return [rec["path"]] if rec.get("path") else []

    def partition_paths(self, pid: int) -> list[str]:
        """Absolute paths of a partition's files, oldest level first."""
        rec = self.manifest().get("partitions", {}).get(str(pid))
        if not rec:
            return []
        return [os.path.join(self.root, p) for p in self._rec_paths(rec)]

    def partition_map(self) -> dict[int, list[str]]:
        m = self.manifest()
        return {
            int(pid): [os.path.join(self.root, p) for p in self._rec_paths(rec)]
            for pid, rec in m.get("partitions", {}).items()
        }

    def partition_files(self) -> list[str]:
        return [p for paths in self.partition_map().values() for p in paths]

    # -- staging + commit -------------------------------------------------

    def commit(
        self, epoch: int, partition_records: list[dict[str, Any]],
        metrics: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Atomically publish an epoch.

        ``partition_records``: one lineage dict per *changed* partition:
        ``{"pid", "path" (relative to root), "rows", "live_rows",
        "lsn_min", "lsn_max", "checksum", "append": bool}``.  With
        ``append`` (LSM/delta mode) the file is stacked on the partition's
        level list; otherwise it replaces the partition's state
        (merge/compaction mode).  Unchanged partitions keep their previous
        entry (their files live in older epoch dirs — the manifest, not
        the directory layout, defines the table state).
        """
        m = json.loads(json.dumps(self.manifest()))  # deep copy
        if epoch in m["epochs"]:
            return m  # already committed -> no-op (idempotent replay)
        parts = m.setdefault("partitions", {})
        for rec in partition_records:
            pid = str(rec["pid"])
            prev = parts.get(pid, {})
            ranges = list(prev.get("applied_lsn_ranges", []))
            if rec.get("lsn_min") is not None:
                ranges.append([rec["lsn_min"], rec["lsn_max"]])
            if rec.get("append"):
                paths = self._rec_paths(prev) + [rec["path"]]
                rows = prev.get("rows", 0) + rec["rows"]
                # the delta's live count alone would UNDER-count the
                # partition (the base's live rows are still live); sum
                # across levels for the documented physical upper bound
                live = prev.get("live_rows", 0) + rec.get("live_rows",
                                                          rec["rows"])
            else:
                paths = [rec["path"]]
                rows = rec["rows"]
                live = rec.get("live_rows", rec["rows"])
            parts[pid] = {
                "paths": paths,
                "rows": rows,
                "live_rows": live,
                "checksum": rec.get("checksum"),
                "applied_lsn_ranges": ranges,
            }
        m["epoch"] = max(m["epoch"], epoch)
        m["epochs"] = sorted(set(m["epochs"]) | {epoch})
        m["num_partitions"] = self.num_partitions
        if metrics is not None:
            m.setdefault("epoch_metrics", {})[str(epoch)] = metrics
        return self._write_manifest(m)

    def commit_compaction(self, tag: str, partition_records: list[dict[str, Any]]) -> dict[str, Any]:
        """Atomically replace partition level-lists with compacted files.

        Compactions live in their own manifest namespace (``compactions``)
        — they never consume or collide with WAL epoch ids, so epoch
        replay-detection stays sound."""
        m = json.loads(json.dumps(self.manifest()))
        done = m.setdefault("compactions", [])
        if tag in done:
            return m  # idempotent
        parts = m.setdefault("partitions", {})
        for rec in partition_records:
            pid = str(rec["pid"])
            prev = parts.get(pid, {})
            # tiered compaction keeps the oldest (base) run untouched
            # and stacks the folded middle run after it, preserving the
            # oldest->newest path order and newest-checksum contracts
            kept = [p for p in rec.get("kept_paths") or [] if p]
            parts[pid] = {
                "paths": kept + [rec["path"]],
                "rows": rec["rows"],
                "live_rows": rec.get("live_rows", rec["rows"]),
                "checksum": rec.get("checksum"),
                "applied_lsn_ranges": prev.get("applied_lsn_ranges", []),
            }
        done.append(tag)
        return self._write_manifest(m)

    def commit_resplit(
        self, tag: str, new_num_partitions: int,
        partition_records: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """Atomically publish a REPARTITION of the whole table (partition
        splitting/merging when states grow or shrink).

        Replaces the entire partition map and ``num_partitions`` in one
        manifest swap — readers and subsequent ``apply_events`` route by
        the manifest's partition count, so the switch is atomic with the
        data.  Lineage LSN ranges coarsen to one [min, max] per new
        partition (recomputed from the data — the old per-epoch ranges
        described partitions that no longer exist).  Idempotent per
        ``tag``; epoch replay-detection (``epochs``) is preserved."""
        m = json.loads(json.dumps(self.manifest()))
        done = m.setdefault("resplits", [])
        if tag in done:
            return m  # idempotent
        parts: dict[str, Any] = {}
        for rec in partition_records:
            ranges = []
            if rec.get("lsn_min") is not None:
                ranges.append([rec["lsn_min"], rec["lsn_max"]])
            parts[str(rec["pid"])] = {
                "paths": [rec["path"]],
                "rows": rec["rows"],
                "live_rows": rec.get("live_rows", rec["rows"]),
                "checksum": rec.get("checksum"),
                "applied_lsn_ranges": ranges,
            }
        m["partitions"] = parts
        m["num_partitions"] = new_num_partitions
        self.num_partitions = new_num_partitions
        done.append(tag)
        return self._write_manifest(m)

    def _write_manifest(self, m: dict[str, Any]) -> dict[str, Any]:
        tmp = self.manifest_path + ".tmp"
        os.makedirs(self.root, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(m, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.manifest_path)
        self._manifest = m
        return m
