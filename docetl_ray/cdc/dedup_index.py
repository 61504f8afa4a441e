"""Incremental corpus-dedup index: dedup NEW ingest epochs against the
already-committed corpus WITHOUT rescanning its documents.

Per-document keys (exact content fingerprints, or MinHash LSH band
buckets + compact signatures) are persisted as epoch-segmented Parquet,
and a new epoch is (1) keyed-shuffle anti-joined / candidate-joined
against ALL prior segments, (2) deduped within itself, and (3) its
survivors' keys appended under an atomic, epoch-keyed manifest (same
exactly-once protocol as ``cdc.table.LakeTable``: staging files are
invisible until the ``manifest.json`` swap; replaying a committed epoch
is a no-op and returns the identical survivor set).

Cost: step (1) exchanges every prior segment's keys again, so an epoch
costs O(epoch + index), not O(epoch): on one CPU, an exact index's epoch
of 20,000 new docs took a median 693 ms at 60-120k index rows and
1,118 ms at 420-480k (about 1 ms more per 1,000 index rows).  The
documents themselves are never rescanned.

Reference analogue: DocETL's resolve/dedup is one-shot over a fully
materialized corpus (``/root/reference/docetl/operations/resolve.py:
193-200`` exact short-circuit, ``resolve.py:441-477`` clustering); the
incremental-against-state recast is the CDC-engine equivalent for
continuous ingest.

Layout under ``root/``::

    manifest.json
    segments/epoch-0000001-keys/   (exact: (h, id) | minhash: (bucket, id))
    segments/epoch-0000001-sigs/   (minhash only: (id, _sig list<int64>))
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_EMPTY = {"version": 1, "kind": None, "params": {}, "epochs": [], "segments": {}}


@dataclass
class DedupIndex:
    """Handle to an incremental dedup index rooted at ``root``.

    ``kind``: ``"exact"`` (16-hex-char md5 content fingerprints — the
    SQL-replicable key) or ``"minhash"`` (LSH band buckets + signatures).
    ``params`` are pinned at creation; reopening with different params
    raises (keys from different params don't compare).
    """

    root: str
    kind: str = "exact"
    params: dict[str, Any] = field(default_factory=dict)
    _manifest: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def manifest(self, *, refresh: bool = False) -> dict[str, Any]:
        if self._manifest is None or refresh:
            if os.path.exists(self.manifest_path):
                with open(self.manifest_path) as f:
                    self._manifest = json.load(f)
                if self._manifest["kind"] != self.kind:
                    raise ValueError(
                        f"index at {self.root} is kind={self._manifest['kind']!r}, "
                        f"opened as {self.kind!r}"
                    )
                if self.params and self._manifest["params"] != self.params:
                    raise ValueError(
                        f"index params mismatch: stored {self._manifest['params']} "
                        f"vs requested {self.params}"
                    )
                self.params = self._manifest["params"]
            else:
                self._manifest = dict(_EMPTY, kind=self.kind, params=self.params)
        return self._manifest

    def committed_epochs(self) -> list[int]:
        return sorted(int(e) for e in self.manifest().get("epochs", []))

    def segment_files(self, part: str, *, exclude_epoch: int | None = None) -> list[str]:
        """Absolute parquet files of ``part`` ("keys"|"sigs") in every
        committed epoch except ``exclude_epoch`` (replay must not see its
        own).  Files, not segment directories: ``read_parquet`` takes
        one directory or a list of files, not a list of directories."""
        out = []
        for ep, rec in self.manifest().get("segments", {}).items():
            if exclude_epoch is not None and int(ep) == exclude_epoch:
                continue
            if rec.get(part):
                d = os.path.join(self.root, rec[part])
                out += [os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")]
        return sorted(out)

    def staging_dir(self, epoch: int, part: str) -> str:
        d = os.path.join(self.root, "segments", f"epoch-{epoch:07d}-{part}")
        os.makedirs(d, exist_ok=True)
        return d

    def commit_epoch(self, epoch: int, parts: dict[str, str], rows: int) -> dict:
        """Atomically publish an epoch's segments (relative paths)."""
        m = json.loads(json.dumps(self.manifest()))
        if epoch in m["epochs"]:
            return m  # idempotent replay
        m["segments"][str(epoch)] = dict(parts, rows=rows)
        m["epochs"] = sorted(set(m["epochs"]) | {epoch})
        tmp = self.manifest_path + ".tmp"
        os.makedirs(self.root, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(m, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.manifest_path)
        self._manifest = m
        return m


def _seal_segment(out_dir: str, schema: pa.Schema) -> int:
    """Finish a segment write: an all-dropped epoch produces ZERO files
    (Ray skips empty blocks), so write one typed empty file — readers of
    the manifest must always find a parseable segment.  Returns rows."""
    files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    if not files:
        pq.write_table(schema.empty_table(), os.path.join(out_dir, "part-empty.parquet"))
        return 0
    return sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows for f in files)


def _md5_keys(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(h, id) rows, h = first 16 hex chars of md5(text) — matching DuckDB
    ``substr(md5(text), 1, 16)`` so the exact path is oracle-checkable.
    Per-batch pre-combine: one row per distinct h, keeping the min id."""
    texts = batch[text_col].to_pylist()
    h = pa.array(
        [hashlib.md5(("" if t is None else t).encode()).hexdigest()[:16] for t in texts],
        pa.string(),
    )
    t = pa.table({"h": h, id_col: batch[id_col]})
    idx = pc.sort_indices(t, sort_keys=[("h", "ascending"), (id_col, "ascending")])
    t = t.take(idx)
    if t.num_rows == 0:
        return t
    hs = np.asarray(t["h"].to_pylist())
    first = np.concatenate(([True], hs[1:] != hs[:-1]))
    return t.filter(pa.array(first))


def incremental_exact_dedup(index: DedupIndex, ds, text_col: str, id_col: str, epoch: int):
    """Filter ``ds`` (one ingest epoch) to rows whose exact content
    fingerprint is new — unseen in the index AND first (min id) within
    this epoch — then commit the survivors' keys as the epoch's segment.

    Returns ``(kept_ds, n_kept)``.  ``kept_ds`` is a lazy semi-join of the
    input against the COMMITTED segment, so a replay of an
    already-committed epoch returns exactly the committed survivor set
    without recomputing (and without double-appending).
    """
    import ray.data as rd

    from ..stages.joins import hash_join
    from ..stages.reduces import grouped_aggregate

    if index.kind != "exact":
        raise ValueError("incremental_exact_dedup needs an exact-kind index")
    committed = epoch in index.committed_epochs()
    if not committed:
        keyed = ds.map_batches(
            lambda b: _md5_keys(b, text_col, id_col), batch_format="pyarrow"
        )
        # global first-occurrence within the epoch: grouped min id
        winners = grouped_aggregate(keyed, ["h"], [(id_col, "min", id_col)])
        prior = index.segment_files("keys", exclude_epoch=epoch)
        if prior:
            seen = rd.read_parquet(prior, columns=["h"])
            winners = hash_join(
                winners, seen, on="h", how="anti",
                left_schema=pa.schema([("h", pa.string()), (id_col, pa.int64())]),
                right_schema=pa.schema([("h", pa.string())]),
            )
        out_dir = index.staging_dir(epoch, "keys")
        # staging: rewriting on retry is safe — nothing references the
        # files until the manifest swap below
        for f in os.listdir(out_dir):
            os.unlink(os.path.join(out_dir, f))
        winners.write_parquet(out_dir)
        n_kept = _seal_segment(
            out_dir, pa.schema([("h", pa.string()), (id_col, pa.int64())])
        )
        index.commit_epoch(
            epoch, {"keys": os.path.relpath(out_dir, index.root)}, n_kept
        )
    seg = [
        os.path.join(index.root, index.manifest()["segments"][str(epoch)]["keys"])
    ]
    kept_ids = rd.read_parquet(seg, columns=[id_col])
    kept = hash_join(ds, kept_ids, on=id_col, how="semi")
    n_kept = index.manifest()["segments"][str(epoch)]["rows"]
    return kept, n_kept


def _sig_and_band_tables(ds, text_col, id_col, *, num_perm, bands, shingle_k):
    """Materialized (id, _sig) table + lazy (bucket, id) band rows for an
    epoch, using the same signature/band arithmetic as stages.dedup."""
    from ..stages.dedup import _band_buckets_vec, _perm_params, minhash_signatures_batch

    a, b = _perm_params(num_perm)
    rows_per_band = num_perm // bands

    def sig_table(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        sigs = minhash_signatures_batch(texts, a, b, shingle_k).astype(np.int64)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1), pa.int64()), num_perm
        ).cast(pa.list_(pa.int64()))
        return pa.table({id_col: batch[id_col], "_sig": col})

    sig_ds = ds.map_batches(sig_table, batch_format="pyarrow").materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"bucket": pa.array([], pa.int64()), id_col: batch[id_col]})
        sigs = (
            pc.list_flatten(batch["_sig"].combine_chunks())
            .to_numpy(zero_copy_only=False)
            .reshape(n, num_perm)
        )
        bucket, ids_rep = _band_buckets_vec(sigs, batch[id_col], bands, rows_per_band)
        return pa.table({"bucket": bucket, id_col: ids_rep})

    band_ds = sig_ds.map_batches(band_rows, batch_format="pyarrow")
    return sig_ds, band_ds


def incremental_minhash_dedup(
    index: DedupIndex,
    ds,
    text_col: str,
    id_col: str,
    epoch: int,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
):
    """Near-dup-filter one ingest epoch against the indexed corpus, then
    within itself, and append the survivors' LSH state to the index.

    1. band-bucket join of the epoch's docs against the index's committed
       ``(bucket, id)`` segments (keyed shuffle — only colliding buckets
       move), signature-estimated Jaccard >= ``threshold`` drops the doc;
    2. surviving docs near-dedup among themselves via
       :func:`stages.dedup.minhash_dedup` (min-id representative);
    3. final survivors' ``(bucket, id)`` + ``(id, _sig)`` commit as the
       epoch's segments (atomic manifest swap, idempotent replay).

    Returns ``(kept_ds, n_kept)`` — kept rows of ``ds`` as a lazy
    semi-join against the committed sigs segment.
    """
    import ray.data as rd

    from ..stages.dedup import minhash_dedup
    from ..stages.joins import hash_join
    from ..stages.reduces import grouped_aggregate

    if index.kind != "minhash":
        raise ValueError("incremental_minhash_dedup needs a minhash-kind index")
    want = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                threshold=threshold)
    m = index.manifest()
    if m["params"] and m["params"] != want:
        raise ValueError(f"index params {m['params']} != requested {want}")
    index.params = m["params"] = want  # pinned into the next manifest swap
    committed = epoch in index.committed_epochs()
    if not committed:
        from ..stages.joins import _ds_arrow_schema_lazy

        sig_ds, band_ds = _sig_and_band_tables(
            ds, text_col, id_col, num_perm=num_perm, bands=bands, shingle_k=shingle_k
        )
        sig_schema = _ds_arrow_schema_lazy(sig_ds)  # materialized -> cheap
        idt = sig_schema.field(id_col).type
        sigt = sig_schema.field("_sig").type
        new_ids_dropped = None
        prior_keys = index.segment_files("keys", exclude_epoch=epoch)
        if prior_keys:
            old_bands = rd.read_parquet(prior_keys).map_batches(
                lambda t: t.rename_columns(["bucket", "_oid"]), batch_format="pyarrow"
            )
            # candidate (new, old) pairs: bucket-keyed shuffle join, then
            # per-pair dedup (a pair can collide in several bands)
            cand = hash_join(
                band_ds, old_bands, on="bucket",
                left_schema=pa.schema([("bucket", pa.int64()), (id_col, idt)]),
                right_schema=pa.schema([("bucket", pa.int64()), ("_oid", idt)]),
            ).select_columns([id_col, "_oid"])
            cand = grouped_aggregate(
                cand.map_batches(
                    lambda t: t.append_column("_one", pa.array(np.ones(t.num_rows, np.int8))),
                    batch_format="pyarrow",
                ),
                [id_col, "_oid"], [("_one", "count", "_n")],
            )
            old_sigs = rd.read_parquet(index.segment_files("sigs", exclude_epoch=epoch))
            old_sigs = old_sigs.map_batches(
                lambda t: t.rename_columns(["_oid", "_osig"]), batch_format="pyarrow"
            )
            pair_schema = pa.schema([(id_col, idt), ("_oid", idt), ("_n", pa.int64())])
            with_new = hash_join(
                cand, sig_ds.map_batches(
                    lambda t: t.rename_columns(["_nid", "_nsig"]), batch_format="pyarrow"
                ),
                on=id_col, right_on="_nid", num_buckets=8,
                left_schema=pair_schema,
                right_schema=pa.schema([("_nid", idt), ("_nsig", sigt)]),
            )
            # with_new keeps its right key column (_nid) — the wire schema
            # must carry it or the bucketize pad drops rows' columns
            with_both = hash_join(
                with_new, old_sigs, on="_oid", right_on="_oid", num_buckets=8,
                left_schema=pa.schema(
                    list(pair_schema)
                    + [pa.field("_nid", idt), pa.field("_nsig", sigt)]
                ),
                right_schema=pa.schema([("_oid", idt), ("_osig", sigt)]),
            )

            def est(batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0:
                    return pa.table({id_col: pa.array([], idt)})
                sn = np.asarray(batch["_nsig"].to_pylist(), dtype=np.int64)
                so = np.asarray(batch["_osig"].to_pylist(), dtype=np.int64)
                m = (sn == so).mean(axis=1) >= threshold
                return pa.table({id_col: batch[id_col].filter(pa.array(m))})

            est.__name__ = "vs_index_estimate"
            new_ids_dropped = grouped_aggregate(
                with_both.map_batches(est, batch_format="pyarrow").map_batches(
                    lambda t: t.append_column("_one", pa.array(np.ones(t.num_rows, np.int8))),
                    batch_format="pyarrow",
                ),
                [id_col], [("_one", "count", "_n")],
            ).select_columns([id_col])
        stage1 = ds
        if new_ids_dropped is not None:
            # right_schema pinned: an all-kept epoch makes the dropped set
            # EMPTY, and lazy inference on an empty join chain returns no
            # schema (which would crash the anti join's key rename)
            stage1 = hash_join(
                ds, new_ids_dropped, on=id_col, how="anti",
                right_schema=pa.schema([(id_col, idt)]),
            )
        # within-epoch near-dedup among the index-survivors
        stage2, _cmap = minhash_dedup(
            stage1, text_col, id_col,
            num_perm=num_perm, bands=bands, shingle_k=shingle_k, threshold=threshold,
        )
        surv_ids = stage2.select_columns([id_col])
        kept_sigs = hash_join(sig_ds, surv_ids, on=id_col, how="semi")
        kept_bands = hash_join(
            band_ds, surv_ids, on=id_col, how="semi",
            left_schema=pa.schema([("bucket", pa.int64()), (id_col, idt)]),
        )
        sig_dir = index.staging_dir(epoch, "sigs")
        key_dir = index.staging_dir(epoch, "keys")
        for d in (sig_dir, key_dir):
            for f in os.listdir(d):
                os.unlink(os.path.join(d, f))
        kept_sigs.write_parquet(sig_dir)
        kept_bands.write_parquet(key_dir)
        _seal_segment(key_dir, pa.schema([("bucket", pa.int64()), (id_col, idt)]))
        n_kept = _seal_segment(sig_dir, pa.schema([(id_col, idt), ("_sig", sigt)]))
        index.commit_epoch(
            epoch,
            {"keys": os.path.relpath(key_dir, index.root),
             "sigs": os.path.relpath(sig_dir, index.root)},
            n_kept,
        )
    seg = [os.path.join(index.root, index.manifest()["segments"][str(epoch)]["sigs"])]
    kept_ids = rd.read_parquet(seg, columns=[id_col])
    kept = hash_join(ds, kept_ids, on=id_col, how="semi")
    n_kept = index.manifest()["segments"][str(epoch)]["rows"]
    return kept, n_kept
