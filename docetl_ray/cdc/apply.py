"""The CDC apply layer: WAL events -> keyed shuffle -> LWW upsert ->
staged partition Parquet -> atomic manifest commit.

Pipeline shape (streaming, zero-copy Arrow batches)::

    events (Dataset: a bare read_parquet of the WAL files -- never
      |     executed by Ray Data; any other Dataset streams its blocks)
      | exchange_refs("part", _ApplyPartition, map_fn=partial_apply)
      |   split tasks, each given a run of consecutive read tasks (one
      |   per WAL file; other inputs: upstream blocks as they arrive):
      |   read each file as one block, partial_apply per block --
      |   per-batch LWW winners per url, their text extracted and html
      |   dropped, add part col -- then cut the rows by part, report
      |   each part's bytes
      |   reduce tasks, each a contiguous run of partitions packed by
      |   bytes (one task per CPU at least): per partition, final LWW
      |   merge + base-state merge, writes staging parquet, emits a
      |   lineage row
      v
    lineage rows (tiny) -> driver -> LakeTable.commit(epoch, ...)  # atomic
      | delta mode, a partition over AUTO_COMPACT_LEVELS levels:
      v compact(policy="tiered"): plain fold tasks, then an atomic commit

    read_state(table): plain read tasks, partitions packed by their
      |   level files' bytes: per partition, merge the levels by LWW,
      |   drop tombstones, return the block and its metadata
      v
    Dataset, one block per partition (resplit sends it through
      exchange_refs again, to the same reduce with no base state)

One partition kernel serves the apply's reduce, ``resplit``, the
compaction folds and the read tasks: ``_merge_levels`` (read the level
files, LWW-merge them when there are several) and ``_write_partition``
(atomic write, row counts, checksum; the core of every lineage record).

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..html_text import extract_text_batch
from ..schemas import OP_DELETE, unify_tables
from .table import LakeTable

_LWW_KEYS = [("url", "ascending"), ("warc_ts", "ascending"), ("lsn", "ascending")]


def url_partition(urls: np.ndarray, num_partitions: int) -> np.ndarray:
    """Deterministic hash partition of url strings: vectorized fixed-key
    C siphash via ``pandas.util.hash_pandas_object`` — no per-row Python,
    process- and run-stable.  The hash is baked into committed manifests
    (``manifest["partition_hash"] == "v2"``, checked on open)."""
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


def _sorted_runs(t: pa.Table, key_col: str, sort_keys) -> tuple[pa.Array, np.ndarray]:
    """Every LWW's run-boundary kernel: ``t``'s sort indices by ``sort_keys``
    (``key_col`` first) and a mask over them marking each key's last row,
    its winner; callers gather only the winners (``idx.filter(mask)``)."""
    idx = pc.sort_indices(t, sort_keys=sort_keys)
    u = t[key_col].take(idx).to_numpy(zero_copy_only=False)
    last = np.empty(len(u), dtype=bool)
    last[:-1] = u[1:] != u[:-1]
    last[-1:] = True
    return idx, last


def _lww_with_ranges(t: pa.Table) -> tuple[pa.Table, pa.Array, pa.Array]:
    """LWW winners per url plus exact per-url applied-LSN ranges
    ``(lo, hi)``, aligned with the winners (for partition lineage)."""
    idx, last = _sorted_runs(t, "url", _LWW_KEYS)
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
    their state form (html->text for winners only) + part column.
    ``part_version`` names the routing hash, and ``"v2"`` is the only
    one; it stays a keyword because perfbench's layer replay passes it."""
    if part_version != "v2":
        raise ValueError(f"unknown partition hash {part_version!r}")
    winners, lo, hi = _lww_with_ranges(batch) if batch.num_rows else (
        batch, pa.array([], pa.int64()), pa.array([], pa.int64()))
    state = events_to_state(winners, extract=extract)
    part = url_partition(state["url"].to_numpy(zero_copy_only=False), num_partitions)
    return state.append_column("_lsn_lo", lo).append_column("_lsn_hi", hi) \
        .append_column("part", pa.array(part, type=pa.int32()))


def last_per_key(t: pa.Table, key_col: str, order_cols: list[str]) -> pa.Table:
    """Generic LWW combine: last row per key by ascending ``order_cols``."""
    if t.num_rows <= 1:
        return t
    keys = [(key_col, "ascending")] + [(c, "ascending") for c in order_cols]
    idx, last = _sorted_runs(t, key_col, keys)
    return t.take(idx.filter(pa.array(last)))


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


def _merge_levels(paths: list[str], newest: pa.Table | None = None) -> pa.Table:
    """A partition's state: its level files (oldest first), then
    ``newest`` when given, merged by LWW — the one level merge of the
    apply, the compaction folds and ``read_state``.  Every level is
    already one url-sorted LWW run, so a lone table comes back as read."""
    tables = [pq.read_table(p) for p in paths]
    if newest is not None:
        tables.append(newest)
    return lww_last_per_url(unify_tables(tables)) if len(tables) > 1 else tables[0]


def _write_partition(root: str, rel_dir: str, pid: int, merged: pa.Table) -> dict:
    """Write ``merged`` atomically as ``<rel_dir>/part-<pid>.parquet``
    under ``root``; returns the lineage record's core ``{path (relative
    to root), rows, live_rows, checksum}``, to which callers add theirs."""
    rel = os.path.join(rel_dir, f"part-{pid:05d}.parquet")
    os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
    _atomic_write_parquet(merged, os.path.join(root, rel))
    live = pc.sum(pc.cast(pc.invert(merged["_deleted"]), pa.int64())).as_py()
    return {"path": rel, "rows": merged.num_rows, "live_rows": int(live or 0),
            "checksum": _state_checksum(merged)}


class _ApplyPartition:
    """Per-partition final merge: staged write + lineage row.

    The reduce ``fn`` of ``util_ray.exchange_refs`` for the apply and
    ``resplit``; it writes under ``out_dir`` (relative to the table
    root: the epoch's ``epochs/epoch-N`` or the resplit's
    ``resplits/<tag>``).  The partition->files map of the current
    manifest is broadcast once via ``ray.put`` and read zero-copy in
    each task (no per-batch reshipping); ``resplit`` passes ``{}``, as
    it sends every partition its whole state.  Returns the partition's
    lineage rows as plain dicts — one, or none for an empty partition,
    which writes no file.  (Dicts, not an Arrow table: Ray's per-table
    serialization measured ~30 ms per 16-partition epoch on one CPU, a
    fixed cost on every tail epoch.)
    """

    __name__ = "apply_partition"

    def __init__(self, manifest_ref, table_root: str, out_dir: str, mode: str = "merge"):
        self._ref = manifest_ref
        self.root = table_root
        self.out_dir = out_dir
        self.mode = mode
        self._map = None

    def __call__(self, group: pa.Table) -> list[dict]:
        import ray

        if group.num_rows == 0:
            return []
        if self._map is None:
            self._map = self._ref if isinstance(self._ref, dict) else ray.get(self._ref)
        pid = int(group["part"][0].as_py())
        winners = lww_last_per_url(
            group.drop_columns(["part", "_lsn_lo", "_lsn_hi"])
        )
        # delta (LSM) mode writes only this epoch's winners as a new
        # level and leaves the base untouched; merge mode folds them in
        append = self.mode == "delta"
        merged = winners if append else _merge_levels(self._map.get(pid, []), winners)
        rec = _write_partition(self.root, self.out_dir, pid, merged)
        rec.update(pid=pid, lsn_min=pc.min(group["_lsn_lo"]).as_py(),
                   lsn_max=pc.max(group["_lsn_hi"]).as_py(), append=append)
        return [rec]


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
    combine = functools.partial(partial_apply, num_partitions=nparts, extract=extract)
    applier = _ApplyPartition(
        ref, table.root, os.path.join("epochs", f"epoch-{epoch:07d}"), mode)
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


def resplit(table: LakeTable, new_num_partitions: int, *, tag: str) -> dict:
    """Repartition the table to ``new_num_partitions`` — the explicit
    partition-splitting lever for when per-partition states outgrow a
    worker (or merging when they shrink).

    One exchange: current state (tombstones INCLUDED — delete suppression
    must survive the move) re-routes by ``url_partition`` mod M through
    the same keyed exchange and the same reduce (``_ApplyPartition``,
    with no base) as the apply path; each new partition writes one file
    under ``resplits/<tag>/``, and
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
        # each row is its url's one state row, so its applied-LSN range
        # is its own lsn
        part = url_partition(batch["url"].to_numpy(zero_copy_only=False), new_num_partitions)
        return batch.append_column("_lsn_lo", batch["lsn"]) \
            .append_column("_lsn_hi", batch["lsn"]) \
            .append_column("part", pa.array(part, pa.int32()))

    writer = _ApplyPartition({}, table.root, os.path.join("resplits", tag))
    out = exchange_refs(ds, "part", new_num_partitions, writer, map_fn=add_part)
    recs = [r for rows in ray.get(out) for r in rows]
    return table.commit_resplit(tag, new_num_partitions, recs)


def _packed_tasks(fn, todo: list, *args, with_meta: bool = False) -> list:
    """``fn(*args, todo[lo:hi])`` as plain Ray tasks, no Ray Data
    operator: the ``(pid, paths)`` partitions of ``todo``, sized by
    their level files' bytes, are packed into contiguous ranges
    (``util_ray._pack``, at least one per CPU), one task each.  A task
    writes nothing but its own partitions' files, each atomically, so it
    retries as a unit, exceptions included, 3 times per partition it
    holds (as the exchange's reduce tasks do).  Returns one ref per
    task, in range order; ``with_meta``: ``fn`` returns a block and its
    metadata per partition, and so do the refs, in pid order."""
    import ray

    from ..stages.util_ray import _pack, cluster_cpus

    task = ray.remote(retry_exceptions=True)(fn)
    nbytes = [sum(os.path.getsize(p) for p in paths) for _, paths in todo]
    refs = []
    for lo, hi in _pack(nbytes, cluster_cpus()):
        n = hi - lo
        out = task.options(max_retries=3 * n, num_returns=2 * n if with_meta else 1) \
            .remote(*args, todo[lo:hi])
        refs += out if with_meta else [out]
    return refs


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
    Idempotent per ``tag``.  The folds run as packed plain tasks
    (``_packed_tasks``), each folding its range in pid order and writing
    each fold atomically under ``compactions/<tag>/``."""
    import ray

    # committed-tag re-runs must return BEFORE any file IO: a fold
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
        (pid, paths) for pid, paths in sorted(pmap.items())
        if (pids is None or pid in pids) and len(paths) >= min_levels
    ]
    if not todo:
        return table.manifest()

    refs = _packed_tasks(_fold_partitions, todo, table.root, tag, policy,
                         drop_tombstones_below_lsn)
    return table.commit_compaction(tag, [r for recs in ray.get(refs) for r in recs])


def _fold_partitions(root: str, tag: str, policy: str, gc_lsn: int | None,
                     todo: list) -> list[dict]:
    """One compaction task: fold each ``(pid, paths)`` of ``todo`` into
    ``compactions/<tag>/part-<pid>.parquet`` and return their lineage
    records, in order (``compact``)."""
    out_rows = []
    for pid, paths in todo:
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
        merged = _merge_levels(paths)
        if gc_lsn is not None:
            gc_mask = pc.and_(merged["_deleted"], pc.less(merged["lsn"], gc_lsn))
            merged = merged.filter(pc.invert(gc_mask))
        # the record's checksum is the new level's: the newest-level
        # contract delta-mode commits already use for multi-level
        # partitions (table.py), deterministic per fold schedule
        rec = _write_partition(root, os.path.join("compactions", tag), pid, merged)
        # kept-base contribution from the parquet footer only (no
        # column scan — tiered exists to keep each trigger O(recent
        # deltas)): physical rows bound live rows, and a base row
        # superseded in the middle run counts in both anyway, so
        # live_rows is a documented UPPER BOUND on logical live rows
        # after a tiered fold (exact needs the O(state) full fold).
        kept_rows = sum(pq.read_metadata(p).num_rows for p in kept)
        rec.update(pid=pid, rows=rec["rows"] + kept_rows,
                   live_rows=rec["live_rows"] + kept_rows,
                   kept_paths=[os.path.relpath(p, root) for p in kept])
        out_rows.append(rec)
    return out_rows


def _read_partitions(include_tombstones: bool, todo: list) -> list:
    """One ``read_state`` task: for each ``(pid, paths)`` of ``todo``, in
    order, the partition's merged state (its tombstones dropped unless
    ``include_tombstones``) and that block's Ray Data metadata, computed
    where the table already is — two values per partition."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    out = []
    for _, paths in todo:
        stats = BlockExecStats.builder()
        t = _merge_levels(paths)
        if not include_tombstones:
            t = t.filter(pc.invert(t["_deleted"]))
        out += [t, BlockMetadataWithSchema.from_block(t, stats=stats.build())]
    return out


def read_state(table: LakeTable, *, include_tombstones: bool = False):
    """Current committed table state as a materialized Ray Dataset with
    one block per partition, in pid order.

    Merge-on-read as packed plain tasks (``_packed_tasks``, as
    ``compact`` runs its folds), no Ray Data operator: each task merges
    each of its partitions' levels by LWW (``_merge_levels``; a
    one-level partition is read as is) and drops the tombstones in
    place, so readers see exactly the last-writer row per url however
    many epochs are stacked.  The tasks also return each block's
    metadata, so the Dataset costs no further task.  They run when this
    is called, not when the Dataset is consumed."""
    import ray

    from ..stages.util_ray import _materialized_dataset

    pmap = table.partition_map()
    if not pmap:
        from ray.data.block import BlockMetadataWithSchema

        empty = pa.table(
            {
                "url": pa.array([], pa.string()),
                "warc_ts": pa.array([], pa.timestamp("us")),
                "lsn": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "_deleted": pa.array([], pa.bool_()),
            }
        )
        return _materialized_dataset(
            [ray.put(empty)], [BlockMetadataWithSchema.from_block(empty)])
    refs = _packed_tasks(_read_partitions, sorted(pmap.items()), include_tombstones,
                         with_meta=True)
    return _materialized_dataset(refs[0::2], ray.get(refs[1::2]))
