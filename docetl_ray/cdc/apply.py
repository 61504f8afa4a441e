"""The CDC apply layer: WAL events -> keyed shuffle -> LWW upsert ->
staged partition Parquet -> atomic manifest commit.

Pipeline shape (streaming, zero-copy Arrow batches)::

    events (Dataset: the WAL read, no map operator of its own)
      | exchange_refs("part", _ApplyPartition, map_fn=partial_apply)
      |   split tasks, each given a run of consecutive upstream blocks
      |   as they arrive: partial_apply per block -- per-batch LWW
      |   winners per url, their text extracted and html dropped, add
      |   part col -- then cut the rows by part, report each part's bytes
      |   reduce tasks, each a contiguous run of partitions packed by
      |   bytes (one task per CPU at least): per partition, final LWW
      |   merge + base-state merge, writes staging parquet, emits a
      |   lineage row
      v
    lineage rows (tiny) -> driver -> LakeTable.commit(epoch, ...)  # atomic

Skew handling: the LWW merge is associative + idempotent, so
``partial_apply`` combines events per url *within each batch, inside the
split task, right before partitioning* — a hot url (Zipf head)
contributes at most one row per input batch to the exchange instead of
its full event count.  This is the
pre-aggregation analogue of hot-key salting: the "salt" is the batch id,
and the per-partition final merge re-merges the salted partials
deterministically.  Partition count is configurable (``LakeTable.num_partitions``)
for partition splitting when states grow.

Ordering: LWW needs a per-key total order (warc_ts, lsn tiebreak); Ray
Data gives no cross-block order, so every merge sorts its rows by
(url, warc_ts, lsn) explicitly — arrival order is never relied upon.

Mirrors the reference's reduce fold/merge decomposition
(``/root/reference/docetl/operations/reduce.py:466-629``: partial folds,
associative merge) and resolve's per-partition mutable state
(``docetl/operations/resolve.py:441-477``), recast as deterministic
Arrow kernels with tombstone rows for delete propagation.
"""

from __future__ import annotations

import functools
import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..html_text import extract_text_batch
from ..schemas import OP_DELETE, unify_tables
from .table import LakeTable

_LWW_KEYS = [("url", "ascending"), ("warc_ts", "ascending"), ("lsn", "ascending")]


def url_partition(
    urls: np.ndarray, num_partitions: int, *, version: str = "v2"
) -> np.ndarray:
    """Deterministic hash partition of url strings.

    ``version="v2"`` (default for new tables): vectorized fixed-key C
    siphash via ``pandas.util.hash_pandas_object`` — no per-row Python,
    process- and run-stable.  ``version="crc32"``: the round-1 per-row
    crc32 loop, kept because the partition function is BAKED INTO
    committed manifests (``manifest["partition_hash"]``) — tables created
    before v2 keep routing by crc32 until a ``resplit`` rewrites every
    partition and upgrades the manifest."""
    if version == "crc32":
        return np.fromiter(
            (zlib.crc32(u.encode("utf-8")) % num_partitions for u in urls),
            dtype=np.int32,
            count=len(urls),
        )
    import pandas as pd

    h = pd.util.hash_pandas_object(pd.Series(urls), index=False).to_numpy()
    return (h % np.uint64(num_partitions)).astype(np.int32)


def lww_last_per_url(t: pa.Table) -> pa.Table:
    """Keep the last writer per url: max (warc_ts, lsn).

    Exactly ``last_per_key(t, "url", ["warc_ts", "lsn"])`` — delegated so
    the run-boundary-mask algorithm lives in one place.  The output is
    strictly url-ascending, so every state run is written as returned."""
    return last_per_key(t, "url", ["warc_ts", "lsn"])


def events_to_state(batch: pa.Table, *, extract: bool = True) -> pa.Table:
    """Convert raw WAL event rows to state-form rows.

    insert/update -> live row with text extracted from html (byte-stable,
    ``docetl_ray.html_text``); delete -> tombstone row (_deleted=true,
    null text/lang).  ``html`` is dropped immediately after extraction so
    the wide binary column never enters the shuffle (project early).
    """
    if extract and "html" in batch.column_names:
        batch = extract_text_batch(batch)
    deleted = pc.equal(batch["op"], OP_DELETE)
    if "text" in batch.column_names:
        text = pc.if_else(deleted, pa.scalar(None, pa.string()), batch["text"])
        batch = batch.set_column(
            batch.column_names.index("text"), "text", text
        )
    drop = [c for c in ("html", "op") if c in batch.column_names]
    batch = batch.drop_columns(drop)
    return batch.append_column("_deleted", deleted)


def _lww_with_ranges(t: pa.Table) -> tuple[pa.Table, pa.Array, pa.Array]:
    """LWW winners per url plus exact per-url applied-LSN ranges
    ``(lo, hi)``, aligned with the winners (for partition lineage)."""
    n = t.num_rows
    idx = pc.sort_indices(t, sort_keys=_LWW_KEYS)
    u = t["url"].take(idx).to_numpy(zero_copy_only=False)
    last = np.empty(n, dtype=bool)
    last[:-1] = u[1:] != u[:-1]
    last[-1] = True
    starts = np.flatnonzero(np.concatenate(([True], last[:-1])))
    lsn = t["lsn"].take(idx).to_numpy(zero_copy_only=False)
    lo = np.minimum.reduceat(lsn, starts)
    hi = np.maximum.reduceat(lsn, starts)
    # gather only the winners' rows: raw events carry the html
    return (t.take(idx.filter(pa.array(last))), pa.array(lo, type=pa.int64()),
            pa.array(hi, type=pa.int64()))


def partial_apply(
    batch: pa.Table, *, num_partitions: int, extract: bool = True,
    part_version: str = "v2",
) -> pa.Table:
    """Per-batch combiner: per-url LWW winners of the raw events, then
    their state form (html->text for winners only) + part column."""
    winners, lo, hi = _lww_with_ranges(batch) if batch.num_rows else (
        batch, pa.array([], pa.int64()), pa.array([], pa.int64()))
    state = events_to_state(winners, extract=extract)
    part = url_partition(
        state["url"].to_numpy(zero_copy_only=False), num_partitions,
        version=part_version,
    )
    return state.append_column("_lsn_lo", lo).append_column("_lsn_hi", hi) \
        .append_column("part", pa.array(part, type=pa.int32()))


def last_per_key(t: pa.Table, key_col: str, order_cols: list[str]) -> pa.Table:
    """Generic LWW combine: last row per key by ascending ``order_cols``."""
    n = t.num_rows
    if n <= 1:
        return t
    keys = [(key_col, "ascending")] + [(c, "ascending") for c in order_cols]
    t = t.take(pc.sort_indices(t, sort_keys=keys))
    u = t[key_col].to_numpy(zero_copy_only=False)
    mask = np.empty(n, dtype=bool)
    mask[:-1] = u[1:] != u[:-1]
    mask[-1] = True
    return t.filter(pa.array(mask))


def lww_latest(ds, key_col: str, order_cols):
    """Distributed last-writer-wins: latest row per key ordered by
    ``order_cols`` (ascending; ties -> later element wins).

    Same partial/final decomposition as the CDC apply: per-batch combine
    first (hot keys collapse before the shuffle), then one grouped final
    merge.  SQL oracle: ``QUALIFY row_number() OVER (PARTITION BY key
    ORDER BY o1 DESC, o2 DESC) = 1``.
    """
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    from ..stages.util_ray import bucket_codes

    num_buckets = 32

    def partial(batch: pa.Table) -> pa.Table:
        # strip schema metadata so every batch carries the IDENTICAL
        # schema object (pandas-origin metadata made Ray's schema dedup
        # warn "Failed to hash the schemas" per batch)
        w = last_per_key(batch.replace_schema_metadata(None), key_col, order_cols)
        b = bucket_codes(w, key_col, num_buckets)
        return w.append_column("_kbucket", pa.array(b, pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        # whole-bucket LWW in one vectorized sort+filter — NOT per distinct
        # key: groupby(key).map_groups pays ~ms of task/pandas overhead per
        # key, which dominates on high-cardinality keys
        group = group.drop_columns(["_kbucket"])
        return last_per_key(
            group.replace_schema_metadata(None), key_col, order_cols
        )

    # the take()-based task exchange, not ds.groupby: Ray's sort shuffle
    # slices map blocks and sliced Arrow tables pickle their FULL parent
    # buffers, so payload rows would ship ~num_buckets times.  The
    # per-batch combine runs inside its split tasks (map_fn).
    from ..stages.util_ray import exchange_map_groups

    return exchange_map_groups(ds, "_kbucket", num_buckets, final, map_fn=partial)


def _atomic_write_parquet(t: pa.Table, path: str):
    """Write-temp + rename so a task killed mid-write never leaves a
    truncated file behind (Ray retries the task; the rename is atomic and
    the rewrite is deterministic, so retries are safe).  ``url`` and
    ``text`` are unique per row, so they skip the dictionary pass."""
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(t, tmp, use_dictionary=[
        c for c in t.column_names if c not in ("url", "text")])
    os.replace(tmp, path)


def _combine_hashes(arrays: list[np.ndarray]) -> np.ndarray:
    """Row hash of a tuple of per-column hashes: pandas' combine rule
    (``hash_pandas_object`` on a DataFrame, after CPython's tuple hash)."""
    mult = np.uint64(1000003)
    out = np.full_like(arrays[0], 0x345678)
    for i, a in enumerate(arrays):
        out ^= a
        out *= mult
        mult += np.uint64(82520 + 2 * (len(arrays) - i))
    return out + np.uint64(97531)


def _state_checksum(t: pa.Table) -> str:
    """Order-independent logical checksum of a partition state.

    ``md5(rows:sum)``: sum mod 2^64 of row hashes over (url, lsn,
    warc_ts_us, deleted, text-null-flag, text or "") -- per column pandas'
    fixed-key siphash (no categorize pass: url and text are unique per
    row), combined by ``_combine_hashes``.  The value is that of
    ``hash_pandas_object`` on the six-column frame, as in earlier
    manifests.  Chunking- and file-format-independent, no per-row Python.
    """
    if t.num_rows == 0:
        return "0"
    import pandas as pd

    tnull = pc.is_null(t["text"])
    # bytes hash as their str would, without the decode; nulls -> b""
    text = t["text"].cast(pa.large_binary()).to_numpy(zero_copy_only=False)
    text[tnull.to_numpy(zero_copy_only=False)] = b""
    cols = [
        t["url"].cast(pa.large_binary()).to_numpy(zero_copy_only=False),
        t["lsn"].to_numpy(),
        t["warc_ts"].cast(pa.int64()).to_numpy(),
        t["_deleted"].cast(pa.int8()).to_numpy(),
        tnull.cast(pa.int8()).to_numpy(),
        text,
    ]
    h = _combine_hashes([pd.util.hash_array(c, categorize=False) for c in cols])
    with np.errstate(over="ignore"):
        total = int(h.sum(dtype=np.uint64))
    return hashlib.md5(f"{t.num_rows}:{total}".encode()).hexdigest()


class _ApplyPartition:
    """Per-partition final merge: staged write + lineage row.

    The reduce ``fn`` of ``util_ray.exchange_refs``; the
    current-manifest partition->file map is broadcast once via
    ``ray.put`` and read zero-copy in each task (no per-batch
    reshipping).  Returns the partition's lineage rows as plain dicts —
    one, or none for an empty partition, which writes no file.  (Dicts,
    not an Arrow table: Ray's per-table serialization measured ~30 ms
    per 16-partition epoch on one CPU, a fixed cost on every tail
    epoch.)
    """

    __name__ = "apply_partition"

    def __init__(self, manifest_ref, table_root: str, epoch: int, mode: str = "merge"):
        self._ref = manifest_ref
        self.root = table_root
        self.epoch = epoch
        self.mode = mode
        self._map = None

    def __call__(self, group: pa.Table) -> list[dict]:
        import ray

        if group.num_rows == 0:
            return []
        if self._map is None:
            self._map = ray.get(self._ref) if not isinstance(self._ref, dict) else self._ref
        pid = int(group["part"][0].as_py())
        lsn_min = pc.min(group["_lsn_lo"]).as_py()
        lsn_max = pc.max(group["_lsn_hi"]).as_py()
        winners = lww_last_per_url(
            group.drop_columns(["part", "_lsn_lo", "_lsn_hi"])
        )

        # LWW output is strictly url-ascending: written as returned
        if self.mode == "delta":
            # LSM path: write only this epoch's winners; base untouched.
            merged = winners
            append = True
        else:
            base_paths = self._map.get(pid) or []
            if base_paths:
                bases = [pq.read_table(p) for p in base_paths]
                merged = lww_last_per_url(unify_tables(bases + [winners]))
            else:
                merged = winners
            append = False

        staging_dir = os.path.join(self.root, "epochs", f"epoch-{self.epoch:07d}")
        os.makedirs(staging_dir, exist_ok=True)
        fname = f"part-{pid:05d}.parquet"
        out = os.path.join(staging_dir, fname)
        _atomic_write_parquet(merged, out)

        live = int(pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0)
        rel = os.path.join("epochs", f"epoch-{self.epoch:07d}", fname)
        return [
            {
                "pid": pid,
                "path": rel,
                "rows": merged.num_rows,
                "live_rows": live,
                "lsn_min": lsn_min,
                "lsn_max": lsn_max,
                "checksum": _state_checksum(merged),
                "append": append,
            }
        ]


AUTO_COMPACT_LEVELS = 4


def apply_events(
    table: LakeTable, events, epoch: int, *, extract: bool = True,
    mode: str = "merge", compact_after: int | None | str = "auto",
) -> dict:
    """Apply one WAL segment (a Dataset of event rows) as one epoch.

    ``mode="merge"`` (copy-on-write): each partition's full state is
    rewritten per epoch — O(state) per epoch, single file per partition.
    ``mode="delta"`` (LSM / RocksDB-like): only the epoch's winners are
    written and stacked as a new level — O(epoch) per epoch; reads merge
    levels by LWW and ``compact()`` folds levels back to one file.
    ``compact_after``: in delta mode, auto-compact partitions whose level
    count exceeds this (``"auto"`` = ``AUTO_COMPACT_LEVELS``; ``None``/0
    disables), so read-side level-merge cost stays bounded without
    manual ``compact()`` calls — the 50M-event table read 99 s with 4
    stacked levels vs 5.6 s after one compact.

    Exactly-once: if ``epoch`` is already committed this is a no-op; a
    crash before commit leaves the previous manifest state; re-applying
    duplicate events is idempotent under LWW.  Returns the new manifest.
    """
    import ray

    from ..stages.util_ray import exchange_refs

    if compact_after == "auto":
        compact_after = AUTO_COMPACT_LEVELS

    if epoch in table.committed_epochs():
        return table.manifest()

    nparts = table.num_partitions
    part_map = table.partition_map()
    ref = ray.put(part_map)

    import time

    t0 = time.perf_counter()
    combine = functools.partial(
        partial_apply,
        num_partitions=nparts,
        extract=extract,
        # the routing hash is pinned per table in the manifest;
        # pre-v2 tables keep crc32 until a resplit upgrades them
        part_version=table.partition_hash,
    )
    applier = _ApplyPartition(ref, table.root, epoch, mode)
    # the pre-combine runs inside the split tasks (map_fn): as a Ray Data
    # map operator in front of the exchange it cost more in scheduling
    # than in work (BASELINE.md round 8).  The lineage rows come straight
    # from the reduce outputs, one ref per partition: they go to the
    # driver anyway, and the Dataset form (exchange_map_groups) would
    # fuse each reduce task's partitions into one block with its metadata
    out = exchange_refs(events, "part", nparts, applier, map_fn=combine)
    lineage = [r for rows in ray.get(out) for r in rows]
    metrics = {
        "wall_sec": round(time.perf_counter() - t0, 3),
        "mode": mode,
        "partitions_touched": len(lineage),
        "rows_written": int(sum(r["rows"] for r in lineage)),
        "live_rows_written": int(sum(r["live_rows"] for r in lineage)),
    }
    m = table.commit(epoch, lineage, metrics=metrics)
    if mode == "delta" and compact_after:
        over = [
            pid for pid, paths in table.partition_map().items()
            if len(paths) > compact_after
        ]
        if over:
            # tiered: each trigger folds only the delta levels (~O(recent
            # epochs) write cost), going full only when the folded middle
            # run has grown to rival the base
            m = compact(table, tag=f"auto-epoch-{epoch}", pids=over,
                        policy="tiered")
    return m


class _ResplitPartition:
    """Reduce side of a table repartition: merge a new partition's rows,
    write its file, emit a lineage row (same contract as
    ``_ApplyPartition``: the exchange's reduce ``fn``, nothing written
    and no row for an empty partition)."""

    __name__ = "resplit_partition"

    def __init__(self, table_root: str, tag: str):
        self.root = table_root
        self.tag = tag

    def __call__(self, group: pa.Table) -> list[dict]:
        if group.num_rows == 0:
            return []
        pid = int(group["part"][0].as_py())
        merged = lww_last_per_url(group.drop_columns(["part"]))
        out_dir = os.path.join(self.root, "resplits", self.tag)
        os.makedirs(out_dir, exist_ok=True)
        fname = f"part-{pid:05d}.parquet"
        _atomic_write_parquet(merged, os.path.join(out_dir, fname))
        live = int(pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0)
        return [
            {
                "pid": pid,
                "path": os.path.join("resplits", self.tag, fname),
                "rows": merged.num_rows,
                "live_rows": live,
                "lsn_min": pc.min(merged["lsn"]).as_py(),
                "lsn_max": pc.max(merged["lsn"]).as_py(),
                "checksum": _state_checksum(merged),
                "append": False,
            }
        ]


def resplit(table: LakeTable, new_num_partitions: int, *, tag: str) -> dict:
    """Repartition the table to ``new_num_partitions`` — the explicit
    partition-splitting lever for when per-partition states outgrow a
    worker (or merging when they shrink).

    One exchange: current state (tombstones INCLUDED — delete suppression
    must survive the move) re-routes by the v2 ``url_partition`` hash
    mod M through the same keyed exchange as the apply path, each new
    partition writes one file under ``resplits/<tag>/``, and
    ``commit_resplit`` swaps the whole partition map + partition count in
    one atomic manifest write.  Subsequent ``apply_events`` calls pick up
    the new count from the manifest (``LakeTable.manifest`` syncs
    ``num_partitions``).  Idempotent per ``tag``; a crash before commit
    leaves the old layout live."""
    import ray

    from ..stages.util_ray import exchange_refs

    if tag in table.manifest().get("resplits", []):
        return table.manifest()

    ds = read_state(table, include_tombstones=True)

    def add_part(batch: pa.Table) -> pa.Table:
        # resplit rewrites every partition, so it always routes with the
        # current (v2) hash and upgrades manifest["partition_hash"]
        part = url_partition(
            batch["url"].to_numpy(zero_copy_only=False), new_num_partitions,
            version="v2",
        )
        return batch.append_column("part", pa.array(part, pa.int32()))

    writer = _ResplitPartition(table.root, tag)
    out = exchange_refs(ds, "part", new_num_partitions, writer, map_fn=add_part)
    recs = [r for rows in ray.get(out) for r in rows]
    return table.commit_resplit(tag, new_num_partitions, recs)


def compact(
    table: LakeTable, *, tag: str, pids: list[int] | None = None,
    drop_tombstones_below_lsn: int | None = None, policy: str = "full",
) -> dict:
    """Fold a partition's delta levels (LSM compaction).

    ``policy="full"`` folds every level into one file.  ``"tiered"``
    bounds write amplification: the partition's LARGEST file (the base
    run) is left untouched and only the smaller delta levels fold into
    one middle run — unless the deltas together already rival the base
    (>= half its size), in which case the fold goes full.  A partial
    LWW fold is safe because last-writer-wins is associative and
    commutative per key ((warc_ts, lsn) max): the subset's winner stays
    the partition's candidate and subset losers can never win globally.
    Without this, an auto-compacting table rewrites its ENTIRE state
    every K epochs — O(state) write cost per trigger, unbounded as
    state grows; tiered keeps each trigger ~O(recent deltas).

    Tombstones are RETAINED by default: a delete must keep suppressing
    older out-of-order events until the WAL guarantees none older can
    still arrive.  ``drop_tombstones_below_lsn`` is that guarantee made
    explicit — a retention watermark: tombstones with ``lsn <`` it are
    garbage-collected (the caller asserts the WAL will never replay an
    event with a smaller lsn for those keys).  GC is only sound when
    EVERY level folds (a GC'd tombstone would resurrect an older live
    row in an untouched level), so a watermark forces full folds.
    Idempotent per ``tag``; distributed one task per partition."""
    import ray.data as rd

    # committed-tag re-runs must return BEFORE any file IO: merge_one
    # writes into compactions/<tag>/, and after the first commit those
    # paths are live manifest levels — a re-run that re-merged (now with
    # freshly stacked deltas) would overwrite a live file while
    # commit_compaction's replay guard discards the new records, leaving
    # the manifest checksum pointing at content that no longer exists.
    if tag in table.manifest(refresh=True).get("compactions", []):
        return table.manifest()

    if drop_tombstones_below_lsn is not None:
        policy = "full"
    pmap = table.partition_map()
    # plain compaction only folds stacked levels (len > 1); a GC
    # watermark must ALSO rewrite single-level partitions — their
    # tombstones below the watermark would otherwise be retained
    # forever with no signal (the docstring promises the watermark
    # forces full folds everywhere it applies)
    min_levels = 1 if drop_tombstones_below_lsn is not None else 2
    todo = [
        {"pid": pid, "paths": paths}
        for pid, paths in sorted(pmap.items())
        if (pids is None or pid in pids) and len(paths) >= min_levels
    ]
    if not todo:
        return table.manifest()

    root = table.root
    cdir = os.path.join("compactions", tag)

    def merge_one(batch: pa.Table) -> pa.Table:
        out_rows = []
        for row in batch.to_pylist():
            pid = int(row["pid"])
            paths = list(row["paths"])
            kept: list[str] = []
            if policy == "tiered":
                sizes = [os.path.getsize(p) for p in paths]
                # partial fold ONLY when the OLDEST level (the base run,
                # paths[0]) dominates: keeping any newer level would
                # break the manifest's oldest->newest path order and the
                # newest-level checksum contract (table.py:28-35).  A
                # bulk delta that outgrew the base escalates to a full
                # fold instead — one exact rewrite, after which it IS
                # the base.  Deltas strictly below half the base ->
                # partial fold; >= half -> full fold (2x keeps the
                # comparison integer-exact, no floor drift at odd sizes)
                if 2 * (sum(sizes) - sizes[0]) < sizes[0]:
                    kept = [paths[0]]
                    paths = paths[1:]
            tables = [pq.read_table(p) for p in paths]
            merged = lww_last_per_url(unify_tables(tables))
            if drop_tombstones_below_lsn is not None:
                gc_mask = pc.and_(
                    merged["_deleted"],
                    pc.less(merged["lsn"], drop_tombstones_below_lsn),
                )
                merged = merged.filter(pc.invert(gc_mask))
            os.makedirs(os.path.join(root, cdir), exist_ok=True)
            fname = f"part-{pid:05d}.parquet"
            _atomic_write_parquet(merged, os.path.join(root, cdir, fname))
            live = int(pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py() or 0)
            # kept-base contribution from the parquet footer only (no
            # column scan — tiered exists to keep each trigger O(recent
            # deltas)): physical rows bound live rows, and a base row
            # superseded in the middle run counts in both anyway, so
            # live_rows is a documented UPPER BOUND on logical live rows
            # after a tiered fold (exact needs the O(state) full fold).
            kept_rows = sum(pq.read_metadata(p).num_rows for p in kept)
            live += kept_rows
            out_rows.append(
                {
                    "pid": pid,
                    "path": os.path.join(cdir, fname),
                    "rows": merged.num_rows + kept_rows,
                    "live_rows": live,
                    # newest-level checksum — same contract delta-mode
                    # commits already use for multi-level partitions
                    # (table.py commit()): deterministic per fold
                    # schedule, detects middle-run corruption.
                    "checksum": _state_checksum(merged),
                    "kept_paths": [os.path.relpath(p, root) for p in kept],
                }
            )
        return pa.Table.from_pylist(out_rows)

    recs = (
        rd.from_items(todo)
        .map_batches(merge_one, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    return table.commit_compaction(tag, recs)


def read_state(table: LakeTable, *, include_tombstones: bool = False):
    """Current committed table state as a Ray Dataset.

    Merge-mode partitions (one file) stream straight from parquet; delta
    partitions merge their level files by LWW inside the read task (one
    task per partition — merge-on-read), so readers always see exactly
    the last-writer row per url regardless of how many epochs are
    stacked."""
    import ray.data as rd

    pmap = table.partition_map()
    if not pmap:
        return rd.from_arrow(
            pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "warc_ts": pa.array([], pa.timestamp("us")),
                    "lsn": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "_deleted": pa.array([], pa.bool_()),
                }
            )
        )
    multi = {pid: paths for pid, paths in pmap.items() if len(paths) > 1}
    single = [paths[0] for pid, paths in pmap.items() if len(paths) == 1]

    parts = []
    if single:
        parts.append(rd.read_parquet(single))
    if multi:

        def merge_read(batch: pa.Table) -> pa.Table:
            tables = []
            for row in batch.to_pylist():
                merged = lww_last_per_url(
                    unify_tables([pq.read_table(p) for p in row["paths"]])
                )
                tables.append(merged)
            return unify_tables(tables)

        parts.append(
            rd.from_items([{"pid": pid, "paths": paths} for pid, paths in sorted(multi.items())])
            .map_batches(merge_read, batch_size=1, batch_format="pyarrow")
        )
    ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    if not include_tombstones:
        ds = ds.map_batches(
            lambda t: t.filter(pc.invert(t["_deleted"])), batch_format="pyarrow"
        )
    return ds
