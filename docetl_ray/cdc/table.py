"""LakeTable: a hash-partitioned Parquet lake table with an atomic,
epoch-keyed commit manifest (the exactly-once sink).

Layout under ``root/``::

    manifest.json                  <- atomic pointer to current state
    epochs/epoch-0000042/<run id>/part-00013.parquet
    compactions/<tag>/<run id>/part-00013.parquet
    resplits/<tag>/<run id>/part-00013.parquet

Commit protocol: ``cdc/manifest.py``.  Partition tasks stage (and
fsync) their files in their run's own directory (a fresh run id per
``apply_events`` / ``compact`` / ``resplit`` call, ``manifest.run_dir``),
unreferenced until the driver commits their lineage records; a crash
before that leaves the previous manifest, and a re-run stages beside the
dead run's files and commits once.  A stale run of a committed epoch or
tag cannot overwrite the files the manifest names.

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

import os
from dataclasses import dataclass, field
from typing import Any

from .manifest import Store

EMPTY_MANIFEST: dict[str, Any] = {
    "version": 1, "epochs": [], "num_partitions": None, "partitions": {},
    # routing-hash version baked into the table: rows already live in
    # files placed by this hash (``apply.url_partition``).  "v2" is the
    # only one; a manifest without it is refused on open.
    "partition_hash": "v2",
}


def _ranges(rec: dict) -> list:
    return [[rec["lsn_min"], rec["lsn_max"]]] if rec.get("lsn_min") is not None else []


def _entry(rec: dict, paths: list[str], ranges: list, base: dict | None = None) -> dict:
    """A partition's manifest entry with ``rec``'s file as its newest
    level; with ``base`` (a delta append) the counts add to the base's:
    the delta's live count alone would UNDER-count the partition, so
    levels sum to the documented physical upper bound."""
    base = base or {}
    return {
        "paths": paths,
        "rows": base.get("rows", 0) + rec["rows"],
        "live_rows": base.get("live_rows", 0) + rec.get("live_rows", rec["rows"]),
        "checksum": rec.get("checksum"),
        "applied_lsn_ranges": ranges,
    }


def _dirs(records: list[dict]) -> set[str]:
    return {os.path.dirname(rec["path"]) for rec in records}


@dataclass
class LakeTable(Store):
    """Handle to a partitioned lake table rooted at ``root``."""

    root: str
    num_partitions: int = 64
    _manifest: dict[str, Any] | None = field(default=None, repr=False)

    # -- manifest ---------------------------------------------------------

    def _empty(self) -> dict[str, Any]:
        return dict(EMPTY_MANIFEST, num_partitions=self.num_partitions)

    def _opened(self, m: dict[str, Any]) -> dict[str, Any]:
        if m.get("partition_hash") != "v2":
            # rows were placed by another hash: routing new events by
            # v2 would split a url across partitions
            raise ValueError(
                f"table at {self.root} has partition_hash="
                f"{m.get('partition_hash')!r}; only 'v2' is supported")
        self.num_partitions = m.get("num_partitions") or self.num_partitions
        return m

    def committed_epochs(self) -> list[int]:
        return list(self.manifest().get("epochs", []))

    def partition_map(self) -> dict[int, list[str]]:
        """Each partition's absolute file paths, oldest level first."""
        return {int(pid): [os.path.join(self.root, p) for p in rec["paths"]]
                for pid, rec in self.manifest()["partitions"].items()}

    # -- commits (protocol: cdc/manifest.py) -----------------------------

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
        def change(m):
            parts = m["partitions"]
            for rec in partition_records:
                prev = parts.get(str(rec["pid"]), {})
                base = prev if rec.get("append") else {}
                parts[str(rec["pid"])] = _entry(
                    rec, base.get("paths", []) + [rec["path"]],
                    prev.get("applied_lsn_ranges", []) + _ranges(rec), base)
            if metrics is not None:
                m.setdefault("epoch_metrics", {})[str(epoch)] = metrics

        return self._commit("epochs", epoch, change, _dirs(partition_records))

    def commit_compaction(self, tag: str, partition_records: list[dict[str, Any]]) -> dict[str, Any]:
        """Atomically replace partition level-lists with compacted files.

        Compactions live in their own manifest namespace (``compactions``)
        — they never consume or collide with WAL epoch ids, so epoch
        replay-detection stays sound."""
        def change(m):
            parts = m["partitions"]
            for rec in partition_records:
                pid = str(rec["pid"])
                # tiered compaction keeps the oldest (base) run untouched
                # and stacks the folded middle run after it, preserving
                # the oldest->newest path order and newest-checksum contracts
                kept = [p for p in rec.get("kept_paths") or [] if p]
                parts[pid] = _entry(rec, kept + [rec["path"]],
                                    parts.get(pid, {}).get("applied_lsn_ranges", []))

        return self._commit("compactions", tag, change, _dirs(partition_records))

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
        def change(m):
            m["partitions"] = {str(rec["pid"]): _entry(rec, [rec["path"]], _ranges(rec))
                               for rec in partition_records}
            m["num_partitions"] = new_num_partitions

        return self._commit("resplits", tag, change, _dirs(partition_records))
