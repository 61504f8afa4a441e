"""Incremental corpus-dedup index: dedup NEW ingest epochs against the
already-committed corpus WITHOUT rescanning its documents.

Per-document keys (exact content fingerprints, or MinHash LSH band
buckets + compact signatures) are persisted as epoch-segmented Parquet,
and a new epoch is (1) keyed-shuffle anti-joined / candidate-joined
against ALL prior segments, (2) deduped within itself, and (3) its
survivors' keys appended under an atomic, epoch-keyed manifest (the
commit protocol of ``cdc/manifest.py``, as ``cdc.table.LakeTable``:
staged segments are invisible until the commit; replaying a committed
epoch is a no-op and returns the identical survivor set).

Cost: step (1) exchanges every prior segment's keys again, so an epoch
costs O(epoch + index), not O(epoch): on one CPU, an exact index's epoch
of 20,000 new docs took a median 693 ms at 60-120k index rows and
1,118 ms at 420-480k (about 1 ms more per 1,000 index rows).  A MinHash
epoch runs ``minhash_dedup``'s steps on its one signature pass: with a
prior segment, three keyed exchanges at default bounds (the bands join,
the band pairs, the survivors' semi join); 2,200 synth docs against a
1.8-5.4k-doc index took 2.1-2.3 s on one CPU.  The documents themselves
are never rescanned.

Reference analogue: DocETL's resolve/dedup is one-shot over a fully
materialized corpus (``/root/reference/docetl/operations/resolve.py:
193-200`` exact short-circuit, ``resolve.py:441-477`` clustering); the
incremental-against-state recast is the CDC-engine equivalent for
continuous ingest.

Layout under ``root/``::

    manifest.json
    segments/epoch-0000001-keys/<run id>/   (exact: (h, id) | minhash: (bucket, id))
    segments/epoch-0000001-sigs/<run id>/   (minhash only: (id, _sig list<int64>))

Each run of an epoch stages under a fresh run id (``manifest.run_dir``),
so a stale run of a committed epoch never touches the committed files.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .manifest import Store, fsync_path, run_dir

_EMPTY = {"version": 1, "kind": None, "params": {}, "epochs": [], "segments": {}}


@dataclass
class DedupIndex(Store):
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

    def _empty(self) -> dict[str, Any]:
        return dict(_EMPTY, kind=self.kind, params=self.params)

    def _opened(self, m: dict[str, Any]) -> dict[str, Any]:
        if m["kind"] != self.kind:
            raise ValueError(
                f"index at {self.root} is kind={m['kind']!r}, opened as {self.kind!r}")
        if self.params and m["params"] != self.params:
            raise ValueError(
                f"index params mismatch: stored {m['params']} vs requested {self.params}")
        self.params = m["params"]
        return m

    def committed_epochs(self) -> list[int]:
        return sorted(int(e) for e in self.manifest().get("epochs", []))

    def segment_files(self, part: str) -> list[str]:
        """Absolute parquet files of ``part`` ("keys"|"sigs") in every
        committed epoch (an epoch being staged is not committed in the
        manifest its run read).  Files, not segment directories:
        ``read_parquet`` takes one directory or a list of files."""
        out = []
        for rec in self.manifest().get("segments", {}).values():
            if rec.get(part):
                d = os.path.join(self.root, rec[part])
                out += [os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")]
        return sorted(out)

    def staging_dir(self, epoch: int, part: str) -> str:
        """A fresh directory for one run's ``part`` segment of ``epoch``:
        ``segments/epoch-N-<part>/<run id>``, the run id new per call."""
        d = os.path.join(self.root, run_dir(os.path.join("segments", f"epoch-{epoch:07d}-{part}")))
        os.makedirs(d)
        return d

    def commit_epoch(self, epoch: int, parts: dict[str, str], rows: int) -> dict:
        """Atomically publish an epoch's segments (relative paths) and pin
        the handle's ``params``."""
        def change(m):
            m["segments"][str(epoch)] = dict(parts, rows=rows)
            m["params"] = self.params

        return self._commit("epochs", epoch, change, parts.values())


def _seal_segment(out_dir: str, schema: pa.Schema) -> int:
    """Finish a segment write: an all-dropped epoch produces ZERO files
    (Ray skips empty blocks), so write one typed empty file — readers of
    the manifest must always find a parseable segment.  Every file is
    fsynced before the commit names it.  Returns rows."""
    files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    if not files:
        files = ["part-empty.parquet"]
        pq.write_table(schema.empty_table(), os.path.join(out_dir, files[0]))
    for f in files:
        fsync_path(os.path.join(out_dir, f))
    return sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows for f in files)


def _stage_segment(index: DedupIndex, epoch: int, part: str, ds, schema: pa.Schema):
    """Write ``ds`` as the epoch's ``part`` segment, in a directory of
    its own run, and seal it; returns that directory (relative to the
    index root) and rows.  Nothing references it until the commit, and
    a stale run of a committed epoch writes beside, never over, the
    committed segment."""
    d = index.staging_dir(epoch, part)
    ds.write_parquet(d)
    return os.path.relpath(d, index.root), _seal_segment(d, schema)


def _kept(index: DedupIndex, ds, id_col: str, epoch: int, part: str):
    """``ds`` semi-joined with the ids of the epoch's COMMITTED ``part``
    segment, and their count."""
    import ray.data as rd

    from ..stages.joins import hash_join

    seg = index.manifest()["segments"][str(epoch)]
    kept_ids = rd.read_parquet(os.path.join(index.root, seg[part]), columns=[id_col])
    return hash_join(ds, kept_ids, on=id_col, how="semi"), seg["rows"]


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
    committed = epoch in index.manifest(refresh=True)["epochs"]
    if not committed:
        keyed = ds.map_batches(
            lambda b: _md5_keys(b, text_col, id_col), batch_format="pyarrow"
        )
        # global first-occurrence within the epoch: grouped min id
        winners = grouped_aggregate(keyed, ["h"], [(id_col, "min", id_col)])
        prior = index.segment_files("keys")
        if prior:
            seen = rd.read_parquet(prior, columns=["h"])
            winners = hash_join(
                winners, seen, on="h", how="anti",
                left_schema=pa.schema([("h", pa.string()), (id_col, pa.int64())]),
                right_schema=pa.schema([("h", pa.string())]),
            )
        keys, n_kept = _stage_segment(index, epoch, "keys", winners, pa.schema(
            [("h", pa.string()), (id_col, pa.int64())]))
        index.commit_epoch(epoch, {"keys": keys}, n_kept)
    return _kept(index, ds, id_col, epoch, "keys")


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
       move); a doc whose signature-estimated Jaccard with an indexed doc
       is >= ``threshold`` drops;
    2. the rest near-dedup among themselves through the steps of
       :func:`stages.dedup.minhash_dedup`, on the signatures already
       computed (min-id representative);
    3. final survivors' ``(bucket, id)`` + ``(id, _sig)`` commit as the
       epoch's segments (atomic manifest swap, idempotent replay).

    Returns ``(kept_ds, n_kept)`` — kept rows of ``ds`` as a lazy
    semi-join against the committed sigs segment.
    """
    import ray.data as rd

    from ..stages.dedup import (_band_rows, _components, _distinct_pairs, _drop_ids,
                                _est_pairs, _est_prefilter, _keep_representatives,
                                _sig_and_bands)
    from ..stages.joins import _ds_arrow_schema_lazy, hash_join

    if index.kind != "minhash":
        raise ValueError("incremental_minhash_dedup needs a minhash-kind index")
    want = dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                threshold=threshold)
    m = index.manifest(refresh=True)
    if m["params"] and m["params"] != want:
        raise ValueError(f"index params {m['params']} != requested {want}")
    index.params = want  # commit_epoch pins it into the manifest
    if epoch not in m["epochs"]:
        sig_ds, band_ds = _sig_and_bands(
            ds, text_col, id_col, num_perm=num_perm, bands=bands, shingle_k=shingle_k
        )
        sig_schema = _ds_arrow_schema_lazy(sig_ds)  # materialized -> cheap
        idt = sig_schema.field(id_col).type
        band_schema = pa.schema([("bucket", pa.int64()), (id_col, idt)])
        prior_keys = index.segment_files("keys")
        if prior_keys:
            # candidate (epoch, index) pairs: the bucket-keyed join moves
            # only the colliding buckets' rows to each other
            cand = hash_join(
                band_ds.map_batches(lambda t: t.rename_columns(["bucket", "id_a"]),
                                    batch_format="pyarrow"),
                rd.read_parquet(prior_keys).map_batches(
                    lambda t: t.rename_columns(["bucket", "id_b"]), batch_format="pyarrow"),
                on="bucket",
                left_schema=pa.schema([("bucket", pa.int64()), ("id_a", idt)]),
                right_schema=pa.schema([("bucket", pa.int64()), ("id_b", idt)]),
            ).select_columns(["id_a", "id_b"])
            # each side's signatures are fetched from its own table: an
            # epoch id equal to an index id still compares its own
            # signature with the index's
            hits = _est_prefilter(
                _distinct_pairs(cand), (sig_ds, id_col),
                (rd.read_parquet(index.segment_files("sigs")), id_col),
                num_perm, threshold,
            )
            if isinstance(hits, pa.Table):
                dropped = pc.unique(hits["id_a"])
            else:
                dropped = hits.map_batches(lambda t: pa.table({"id": t["id_a"]}),
                                           batch_format="pyarrow")
            sig_ds = _drop_ids(sig_ds, id_col, dropped).materialize()
            band_ds = _band_rows(sig_ds, id_col, num_perm=num_perm, bands=bands)
        # within-epoch near-dedup among the index survivors, on the
        # signatures already computed; min-id representative per cluster
        cmap = _components(_est_pairs(sig_ds, band_ds, id_col, num_perm, threshold))
        kept_sigs = _keep_representatives(sig_ds, id_col, cmap).materialize()
        sigs, n_kept = _stage_segment(index, epoch, "sigs", kept_sigs, sig_schema)
        keys, _ = _stage_segment(index, epoch, "keys",
                                 _band_rows(kept_sigs, id_col, num_perm=num_perm, bands=bands),
                                 band_schema)
        index.commit_epoch(epoch, {"keys": keys, "sigs": sigs}, n_kept)
    return _kept(index, ds, id_col, epoch, "sigs")
