"""Fuzzy (similarity) join: the deterministic recast of docetl's
LLM-verified ``equijoin`` (SURVEY.md §2.1; reference
``/root/reference/docetl/operations/equijoin.py``).

The reference blocks candidate pairs (embedding cosine / eval'd
conditions, ``equijoin.py:253-406``) and has an LLM confirm each pair;
here blocking is MinHash-LSH over the join-text columns (same banding
machinery as ``stages/dedup.py``) and confirmation is exact n-gram
Jaccard ≥ threshold — deterministic and scalable:

    left, right
      -> ONE two-input keyed exchange on the band bucket (each side's
         ``map_fn``: its minhash bands per row, vectorized)
         -> cross-side candidate pairs of the buckets on both sides
      -> distinct pairs + exact-Jaccard verify, the pipeline shared with
         the MinHash exact dedup (``dedup._distinct_pairs`` /
         ``dedup._verify_text_pairs``): on the driver while the pair set
         is sparse (only pair ids and the pair-touched texts are
         collected), else through keyed exchanges, the texts routed TO
         the pairs by two hash joins (never a whole-side broadcast)
      -> per-side match ``limits``

``embedding_blocked_join`` blocks on the same two-input exchange.  Per-side
``limits`` mirror ``equijoin.py:474-489`` (cap matches per left/right row,
keeping the highest-similarity pairs deterministically).
"""

from __future__ import annotations

import logging
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .dedup import (
    _BUCKET_CAP,
    _band_buckets_vec,
    _distinct_pairs,
    _id_type,
    _perm_params,
    _verify_text_pairs,
    minhash_signatures_batch,
)
from .grouped import partitioned_map
from .joins import hash_join
from .llm import FakeDeterministicClient, _safe_eval, render_prompt
from .reduces import grouped_aggregate
from .util_ray import (broadcast_cached, bucket_codes, collect_small, md5_int_planes,
                       quantized_lsh_codes)

# hash partitions of the candidate phases' bucket exchange
_NUM_PARTS = 32


def _with_part(t: pa.Table) -> pa.Table:
    """``t`` plus the exchange's partition column, the hash of ``bucket``."""
    return t.append_column("_part", pa.array(bucket_codes(t, "bucket", _NUM_PARTS)))


def _common_runs(l: pa.Table, r: pa.Table):
    """Two sides' groups of a bucket exchange: each side's distinct
    ``(bucket, rid)`` rows sorted by them, then the run (start, length)
    in it of each bucket both sides hold, aligned by bucket: ``(l table,
    r table, l starts, l lengths, r starts, r lengths)``."""
    runs = []
    for t in (l, r):
        t = t.take(pc.sort_indices(
            t, sort_keys=[("bucket", "ascending"), ("rid", "ascending")]))
        b = t["bucket"].to_numpy()
        v = t["rid"].to_numpy(zero_copy_only=False)
        keep = np.ones(len(b), dtype=bool)
        keep[1:] = (b[1:] != b[:-1]) | (v[1:] != v[:-1])
        runs.append((t.filter(pa.array(keep)),
                     *np.unique(b[keep], return_index=True, return_counts=True)))
    (lt, lu, ls, nl), (rt, ru, rs, nr) = runs
    _, li, ri = np.intersect1d(lu, ru, assume_unique=True, return_indices=True)
    return lt, rt, ls[li], nl[li], rs[ri], nr[ri]


def _cross_pairs(l: pa.Table, r: pa.Table) -> pa.Table:
    """fuzzy_join's reduce: the cross-side ``(id_a, id_b)`` candidate
    pairs of every band bucket present in both sides' groups, FULLY
    vectorized across the partition's buckets — index arithmetic over
    their runs, no per-bucket Python (a pandas-groupby iteration over
    ~80k LSH buckets cost ~2.5 s per run)."""
    if not (l.num_columns and r.num_columns):
        return pa.table({})
    lt, rt, ls, nl, rs, nr = _common_runs(l, r)
    # degenerate-bucket guard: a band bucket with a huge cross product
    # (boilerplate collisions) is clamped to the first _BUCKET_CAP
    # id-ordered members per side (the reference's comparison caps,
    # equijoin.py:549-603), and logged: genuine matches concentrate in
    # small buckets, giant ones are low-information collisions.
    big = (nl * nr) > _BUCKET_CAP * _BUCKET_CAP
    if big.any():
        logging.getLogger("docetl_ray.dedup").warning(
            "capped %d degenerate fuzzy-join bucket(s) (> %d^2 pairs) "
            "to %d members per side", int(big.sum()), _BUCKET_CAP, _BUCKET_CAP,
        )
        nl = np.where(big, np.minimum(nl, _BUCKET_CAP), nl)
        nr = np.where(big, np.minimum(nr, _BUCKET_CAP), nr)
    per_bucket = nl * nr
    total = int(per_bucket.sum())
    # pair index arithmetic: within-bucket pair p -> (p // nr, p % nr)
    pb = np.repeat(np.arange(len(per_bucket)), per_bucket)
    offs = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))
    within = np.arange(total) - offs[pb]
    return pa.table({
        "id_a": lt["rid"].take(ls[pb] + within // nr[pb]),
        "id_b": rt["rid"].take(rs[pb] + within % nr[pb]),
    })


def fuzzy_join(
    left,
    right,
    *,
    left_text: str,
    right_text: str,
    left_id: str,
    right_id: str,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    limits: tuple[int | None, int | None] = (None, None),
    left_schema=None,
    right_schema=None,
):
    """Similarity join; returns Dataset of
    ``(left_id, right_id, jaccard)`` pairs with exact n-gram Jaccard >=
    threshold.  Join payload columns back with ``broadcast_join`` /
    ``hash_join`` on the id columns.

    ``left_schema`` / ``right_schema``: optional input wire schemas; when
    given (or lazily inferable) the text-routing hash joins of a dense
    pair set stream instead of materializing their inputs."""
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm)

    def bander(text_col, id_col):
        def fn(batch: pa.Table) -> pa.Table:
            sigs = minhash_signatures_batch(
                batch[text_col].to_pylist(), a, b, shingle_k
            ).astype(np.int64)
            # vectorized FNV band hash (see dedup._band_buckets_vec) —
            # replaces the per-(doc, band) crc32 Python loop
            bucket, ids_rep = _band_buckets_vec(
                sigs, batch[id_col], bands, rows_per_band
            )
            return _with_part(pa.table({"bucket": bucket, "rid": ids_rep}))

        return fn

    # ONE two-input exchange on the band bucket's hash: whole buckets of
    # both sides meet in one reduce task (per-bucket map_groups would pay
    # ~ms task/pandas overhead per LSH bucket, and there are ~docs x
    # bands buckets), and _cross_pairs runs vectorized across them.  Imported
    # here: perfbench's tracer counts exchanges by wrapping this attribute
    from .util_ray import exchange_map_groups

    cand = exchange_map_groups(
        (left, right), "_part", _NUM_PARTS, _cross_pairs,
        map_fn=(bander(left_text, left_id), bander(right_text, right_id)),
    )
    rid_out = right_id if right_id != left_id else f"{right_id}_right"
    pairs = _verify_text_pairs(
        _distinct_pairs(cand), (left, left_id, left_text),
        (right, right_id, right_text), threshold=threshold,
        shingle_k=shingle_k, names=(left_id, rid_out, "jaccard"),
        schemas=(left_schema, right_schema),
    )
    return _fuzzy_apply_limits(pairs, left_id, rid_out, limits)


def _fuzzy_apply_limits(pairs, left_id: str, rid_col: str, limits):
    """Per-side match caps, highest-jaccard-first deterministic
    (``equijoin.py:474-489``)."""
    lim_l, lim_r = limits
    if lim_l is None and lim_r is None:
        return pairs

    def cap(key: str, other: str, n: int):
        # vectorized across every key in the partition: global sort once,
        # then pandas' C-level groupby().head — join ids are
        # high-cardinality, so per-key fn calls are the wrong altitude
        def capper(group: pd.DataFrame) -> pd.DataFrame:
            return (
                group.sort_values(["jaccard", other],
                                  ascending=[False, True], kind="mergesort")
                .groupby(key, sort=False).head(n)
            )

        capper.__name__ = f"cap_{key}"
        return capper

    if lim_l is not None:
        pairs = partitioned_map(pairs, left_id, cap(left_id, rid_col, lim_l))
    if lim_r is not None:
        pairs = partitioned_map(pairs, rid_col, cap(rid_col, left_id, lim_r))
    return pairs


def embedding_blocked_join(
    left,
    right,
    *,
    left_emb: str,
    right_emb: str,
    left_id: str,
    right_id: str,
    blocking_threshold: float,
    num_planes: int = 8,
    probe_flips: int = 1,
    limit_comparisons: int | None = None,
    seed: int = 11,
):
    """Embedding-blocked join candidates: the reference equijoin's
    embedding blocking phase (``/root/reference/docetl/operations/
    equijoin.py:300-406`` — embed both sides, keep pairs with cosine >=
    ``blocking_threshold``) recast shuffle-consciously:

    - both sides are bucketed by md5-integer-plane sign codes over
      4096-quantized embeddings (``util_ray.md5_int_planes`` /
      ``quantized_lsh_codes`` — exact integer arithmetic, so a SQL oracle
      recomputes the buckets bit-for-bit); the right side also lands in
      every code within ``probe_flips`` bit flips, so a cross-side pair
      surfaces iff ``hamming(code_l, code_r) <= probe_flips``.  Each
      side's bucketing is its ``map_fn`` of one two-input exchange on the
      bucket's hash (no side column, no union),
    - exact cosine within co-bucketed cross-side pairs (vectorized
      matmul per bucket present on both sides),
    - ``limit_comparisons``: deterministic stratified cap mirroring the
      reference's ``stratified_length_sample`` (``equijoin.py:549-603``):
      stratify by the smaller-cardinality side and round-robin the BEST
      pairs per stratum (cosine here stands in for the reference's
      token-length priority — no tokenizer dependency, same
      stratified round-robin shape).

    Returns ``(left_id, right_id)`` pairs (ids only — downstream
    verification/LLM compare attaches payloads by id); the right column
    is ``{right_id}_right`` when the two id names are equal, as in
    ``fuzzy_join``.
    """
    rid_out = right_id if right_id != left_id else f"{right_id}_right"

    def bucketer(emb_col, id_col, probe: bool):
        def fn(batch: pa.Table) -> pa.Table:
            embs = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
            codes = quantized_lsh_codes(
                embs, md5_int_planes(num_planes, embs.shape[1], tag=f"emb{seed}"))
            # each code, then (probing side) its num_planes one-bit flips
            flips = np.array([0] + [1 << i for i in range(num_planes)
                                    if probe and probe_flips >= 1], np.int64)
            codes = (codes[:, None] ^ flips[None, :]).reshape(-1)
            idx = pa.array(np.repeat(np.arange(batch.num_rows), len(flips)))
            return _with_part(pa.table({
                "bucket": pa.array(codes, pa.int64()),
                "rid": batch[id_col].take(idx),
                "emb": batch[emb_col].take(idx),
            }))

        return fn

    def unit_rows(col) -> np.ndarray:
        m = np.asarray(col.to_pylist(), dtype=np.float64)
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        return m / n[:, None]

    def pairs(l: pa.Table, r: pa.Table) -> pa.Table:
        if not (l.num_columns and r.num_columns):
            return pa.table({})
        lt, rt, ls, nl, rs, nr = _common_runs(l, r)
        xs, ys, cos = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        for a, na, b, nb in zip(ls, nl, rs, nr):
            sim = unit_rows(lt["emb"].slice(a, na)) @ unit_rows(rt["emb"].slice(b, nb)).T
            x, y = np.where(sim >= blocking_threshold)
            xs.append(a + x)
            ys.append(b + y)
            cos.append(sim[x, y])
        return pa.table({
            "lid": lt["rid"].take(np.concatenate(xs)),
            "rid_": rt["rid"].take(np.concatenate(ys)),
            "cosine": pa.array(np.concatenate(cos), pa.float64()),
        })

    from .util_ray import exchange_map_groups

    cand = exchange_map_groups(
        (left, right), "_part", _NUM_PARTS, pairs,
        map_fn=(bucketer(left_emb, left_id, False),
                bucketer(right_emb, right_id, True)),
    )
    if cand.count() == 0:  # block metadata: no execution
        return rd.from_arrow(pa.schema([
            (left_id, _id_type(left, left_id)), (rid_out, _id_type(right, right_id)),
        ]).empty_table())

    # probe buckets overlap -> same pair can surface several times
    uniq = grouped_aggregate(cand, ["lid", "rid_"], [("cosine", "max", "cosine")])

    if limit_comparisons is None:
        def ids_only(t: pa.Table) -> pa.Table:
            return pa.table({left_id: t["lid"], rid_out: t["rid_"]})

        ids_only.__name__ = "pairs_ids"
        return uniq.map_batches(ids_only, batch_format="pyarrow")

    # stratified deterministic cap (equijoin.py:549-603 recast): group by
    # the smaller-cardinality side, order each stratum best-first, take
    # round-robin across strata until the cap fills.  Pairs are sparse
    # post-blocking, so the cap runs on the driver like the reference.
    t = collect_small(uniq)
    df = t.to_pandas()
    n_l, n_r = df["lid"].nunique(), df["rid_"].nunique()
    key = "lid" if n_l <= n_r else "rid_"
    df = df.sort_values(["cosine", "lid", "rid_"],
                        ascending=[False, True, True], kind="mergesort")
    df["_rr"] = df.groupby(key, sort=False).cumcount()
    capped = df.sort_values(["_rr", "cosine"], ascending=[True, False],
                            kind="mergesort").head(limit_comparisons)
    capped = capped.sort_values(["lid", "rid_"], kind="mergesort")
    return rd.from_arrow(
        pa.table({left_id: pa.array(capped["lid"].to_numpy()),
                  rid_out: pa.array(capped["rid_"].to_numpy())})
    )


def condition_blocked_pairs(
    left,
    right,
    conditions: list[str],
    *,
    left_id: str,
    right_id: str,
):
    """Candidate ``(left_id, right_id)`` pairs where ANY eval'd pair
    predicate holds — the reference equijoin's ``blocking_conditions``
    surface (``/root/reference/docetl/operations/equijoin.py:38-43``:
    ``eval(condition, {"left": item1, "right": item2})``), recast with
    ``_safe_eval`` (no builtins) instead of bare ``eval``.

    Physical shape: the right side is collected once and broadcast
    (``ray.put`` + per-worker cache); each left batch evaluates the
    predicates against every right row — O(|L|x|R|) predicate evals,
    exactly the reference's cost (its multiprocessing starmap over the
    cross product), but distributed over left blocks with no shuffle.
    This is inherently a small-side blocking strategy: at scale use LSH
    (``minhash_candidates``) or ``embedding_blocked_join`` and reserve
    predicates for the compare stage."""
    if left_id == right_id:
        raise ValueError(
            "condition_blocked_pairs needs distinct left_id/right_id "
            "column names (rename one side first)"
        )
    rt = collect_small(right)
    right_rows = rt.to_pylist()
    rref = ray.put(right_rows)
    rid_type = rt.schema.field(right_id).type  # type only — never close
    del rt, right  # over the table (it would ship with every task)

    def block(batch: pa.Table) -> pa.Table:
        rrows = broadcast_cached(rref)
        out_l, out_r = [], []
        for lrow in batch.to_pylist():
            for rrow in rrows:
                if any(
                    _safe_eval(c, {"left": lrow, "right": rrow})
                    for c in conditions
                ):
                    out_l.append(lrow[left_id])
                    out_r.append(rrow[right_id])
        lt = batch.schema.field(left_id).type
        return pa.table(
            {left_id: pa.array(out_l, lt), right_id: pa.array(out_r, rid_type)}
        )

    block.__name__ = "condition_block"
    return left.map_batches(block, batch_format="pyarrow")


def llm_equijoin(
    left,
    right,
    blocked_pairs,
    *,
    left_id: str,
    right_id: str,
    comparison_prompt: str,
    client_factory=None,
    limits: tuple[int | None, int | None] = (None, None),
):
    """LLM-verified equijoin over a blocked candidate set — the compare +
    merge phase of the reference equijoin
    (``/root/reference/docetl/operations/equijoin.py:440-509``):

    - ``blocked_pairs``: Dataset of ``(left_id, right_id)`` candidates
      (from ``embedding_blocked_join``, ``fuzzy_join`` pairs, or a code
      blocking stage); its right column is ``{right_id}_right`` when the
      two id names are equal,
    - both sides' full rows are routed TO the pairs with keyed-shuffle
      hash joins (never a whole-side broadcast),
    - ``comparison_prompt`` rendered with ``input1``/``input2`` per pair;
      the pluggable client returns ``{"is_match": bool}`` — distributed,
      stateless tasks,
    - matched rows merge with the reference's collision suffixing
      (``{k}_left`` / ``{k}_right`` when a key exists on both sides,
      ``equijoin.py:480-483``),
    - per-side match ``limits`` (``equijoin.py:474-478``) are enforced on
      the (sparse) match set in deterministic ``(left_id, right_id)``
      order — the reference caps in completion order, which is
      thread-timing dependent; sorted order is the reproducible recast.
    """
    def proj(ds_side, prefix):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns([f"{prefix}{c}" for c in batch.column_names])

        fn.__name__ = f"proj{prefix}"
        return ds_side.map_batches(fn, batch_format="pyarrow")

    lp = proj(left, "_l_")
    rp = proj(right, "_r_")
    # the pairs name their right ids as fuzzy_join and
    # embedding_blocked_join do: {right_id}_right when the names are equal
    pair_rid = right_id if right_id != left_id else f"{right_id}_right"
    with_l = hash_join(blocked_pairs, lp, on=left_id, right_on=f"_l_{left_id}")
    with_lr = hash_join(with_l, rp, on=pair_rid, right_on=f"_r_{right_id}")

    def compare(batch: pa.Table) -> pa.Table:
        client = (client_factory or FakeDeterministicClient)()
        lcols = [c for c in batch.column_names if c.startswith("_l_")]
        rcols = [c for c in batch.column_names if c.startswith("_r_")]
        keep = []
        for row in batch.to_pylist():
            input1 = {c[3:]: row[c] for c in lcols}
            input2 = {c[3:]: row[c] for c in rcols}
            rendered = render_prompt(
                comparison_prompt, {"input1": input1, "input2": input2}
            )
            keep.append(
                bool(client.complete(rendered, {"is_match": "bool"}).get("is_match"))
            )
        return batch.filter(pa.array(keep, pa.bool_()))

    compare.__name__ = "llm_equijoin_compare"
    matches = with_lr.map_batches(compare, batch_format="pyarrow")

    def merge_names(t: pa.Table) -> pa.Table:
        # keep only the side-prefixed columns (the pairs' own key columns
        # duplicate _l_/_r_ ids), then apply the reference's collision
        # suffixing: shared keys -> {k}_left / {k}_right, else bare k
        t = t.select([c for c in t.column_names if c.startswith(("_l_", "_r_"))])
        lnames = {c[3:] for c in t.column_names if c.startswith("_l_")}
        rnames = {c[3:] for c in t.column_names if c.startswith("_r_")}
        out_names = []
        for c in t.column_names:
            k = c[3:]
            if c.startswith("_l_"):
                out_names.append(f"{k}_left" if k in rnames else k)
            else:
                out_names.append(f"{k}_right" if k in lnames else k)
        return t.rename_columns(out_names)

    lim_l, lim_r = limits
    if lim_l is None and lim_r is None:
        return matches.map_batches(merge_names, batch_format="pyarrow")

    # caps need global per-key match counts; matches are sparse
    # post-compare, so the cap runs on the driver like the reference
    t = collect_small(matches)
    if t.num_rows == 0:
        return rd.from_arrow(merge_names(t)) if t.num_columns else rd.from_arrow(t)
    t = t.sort_by([(f"_l_{left_id}", "ascending"), (f"_r_{right_id}", "ascending")])
    lcount: dict = defaultdict(int)
    rcount: dict = defaultdict(int)
    keep = []
    lids = t[f"_l_{left_id}"].to_pylist()
    rids = t[f"_r_{right_id}"].to_pylist()
    for lv, rv in zip(lids, rids):
        ok = (lim_l is None or lcount[lv] < lim_l) and (
            lim_r is None or rcount[rv] < lim_r
        )
        keep.append(ok)
        if ok:
            lcount[lv] += 1
            rcount[rv] += 1
    return rd.from_arrow(merge_names(t.filter(pa.array(keep, pa.bool_()))))
