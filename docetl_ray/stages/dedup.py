"""Near-duplicate detection at corpus scale: MinHash+LSH, SimHash,
n-gram Jaccard verification, embedding-cosine near-dup.

These are the training-data-pipeline deduplicators (beyond the
reference's LLM ``resolve``; same role as its embedding blocking,
``/root/reference/docetl/operations/resolve.py:296-340``) built
shuffle-consciously:

  shingle/minhash per batch (vectorized numpy)
    -> explode to (band, band_hash, id, sig) rows
    -> ONE keyed exchange on the band bucket (``partitioned_map``)
    -> candidate pairs + signature-estimated Jaccard per bucket
    -> connected components -> canonical id per cluster

Connected components: candidate edges after thresholding are a tiny
fraction of the corpus, so components run on the driver's union-find by
default; ``distributed=True`` switches to
``connected_components_distributed`` — min-label propagation where each
round is one keyed-shuffle join + one partial-combined grouped min —
when the edge set is itself too large for one machine.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

_MERSENNE = (1 << 61) - 1

def _broadcast_sig_cache(ref):
    """Per-worker-process cache for the broadcast signature map (the
    shared bounded LRU — an unbounded dict pins every repeat's plasma
    object forever and degrades the whole session; see util_ray)."""
    from .util_ray import broadcast_cached

    return broadcast_cached(ref)


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)  # fixed seed: signatures are pinned
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


_POLY_B = np.uint64(1099511628211)


def shingles(text: str, k: int = 5) -> np.ndarray:
    """Char k-gram shingle hashes — vectorized polynomial rolling hash
    over the UTF-8 bytes (deterministic, numpy-wrapping uint64)."""
    b = (text or "").encode("utf-8")
    if len(b) < k:
        return np.array([zlib.crc32(b)], dtype=np.uint64)
    arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
    w = _POLY_B ** np.arange(k, dtype=np.uint64)  # wraps mod 2^64
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    return np.unique((windows * w).sum(axis=1, dtype=np.uint64))


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray, k: int = 5) -> np.ndarray:
    sh = shingles(text, k)
    # (num_perm, n_shingles) universal hash, min over shingles
    with np.errstate(over="ignore"):
        vals = (a[:, None] * sh[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1).astype(np.uint64)


def minhash_signatures_batch(
    texts: list, a: np.ndarray, b: np.ndarray, k: int = 5
) -> np.ndarray:
    """Signatures for a whole batch in one vectorized pass: concatenate
    every doc's shingle hashes, apply each permutation to the flat vector
    once, and segment-min back per doc with ``np.minimum.reduceat`` —
    identical uint64 wrap-around arithmetic to ``minhash_signature``,
    without the per-doc Python dispatch.  Returns ``(len(texts), num_perm)``.
    """
    shs = [shingles(t, k) for t in texts]
    lens = np.fromiter((len(s) for s in shs), dtype=np.int64, count=len(shs))
    flat = np.concatenate(shs) if shs else np.empty(0, np.uint64)
    offsets = np.zeros(len(shs), dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    out = np.empty((len(texts), len(a)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for pi in range(len(a)):
            vals = (a[pi] * flat + b[pi]) % _MERSENNE
            out[:, pi] = np.minimum.reduceat(vals, offsets)
    return out


def _band_buckets_vec(sigs: np.ndarray, ids: "pa.ChunkedArray | pa.Array",
                      bands: int, rows_per_band: int):
    """Vectorized LSH band bucket ids: FNV-1a folded over each band's
    ``rows_per_band`` int64 signature lanes — ``rows_per_band`` numpy
    passes total, replacing the per-(doc, band) crc32 C-call loop.

    Bucket layout: band index in the top byte (bands <= 128), 56 hash
    bits below — always non-negative as int64.  Spurious cross-value
    collisions only ADD candidate pairs that verification removes, so
    the hash choice is recall-neutral.

    Returns ``(bucket int64 array of n*bands, ids repeated xbands)``.
    """
    n = sigs.shape[0]
    sigs3 = sigs.reshape(n, bands, rows_per_band).astype(np.uint64)
    h = np.full((n, bands), 0xCBF29CE484222325, np.uint64)
    for r in range(rows_per_band):
        h = (h ^ sigs3[:, :, r]) * np.uint64(0x100000001B3)
    band_idx = np.arange(bands, dtype=np.uint64)[None, :]
    bucket = (
        (band_idx << np.uint64(56)) | (h & np.uint64((1 << 56) - 1))
    ).astype(np.int64)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    ids_rep = ids.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), bands)))
    return pa.array(bucket.reshape(-1), pa.int64()), ids_rep


_BUCKET_CAP = 512  # full-cross-product ceiling per LSH bucket
_BUCKET_CHAIN_WINDOW = 4


def _bucket_pair_indices(
    starts: np.ndarray,
    counts: np.ndarray,
    *,
    cap: int = _BUCKET_CAP,
    window: int = _BUCKET_CHAIN_WINDOW,
):
    """Per-bucket candidate pair positions with a degenerate-bucket guard.

    Buckets with <= ``cap`` members emit the full n x n index cross
    product (callers keep the strict upper triangle by id).  DEGENERATE
    buckets (> cap members — thousands of empty/boilerplate docs sharing
    one band hash, common in real web corpora) would emit n^2 transient
    pairs inside one reduce task; instead each member is paired with its
    next ``window`` id-ordered neighbors only: identical/near-identical
    members stay transitively connected through connected components,
    pair volume is bounded at n*window, and dissimilar band collisions
    were going to fail verification anyway.  Mirrors the reference's
    comparison caps (``/root/reference/docetl/operations/resolve.py:
    491-516``, ``equijoin.py:549-603``).  Returns ``(xi, yi,
    n_capped_buckets)`` — xi/yi are positions into the bucket-sorted
    row order.
    """
    big = counts > cap
    sm_starts, sm_counts = starts[~big], counts[~big]
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    if len(sm_counts):
        per_bucket = sm_counts * sm_counts
        total = int(per_bucket.sum())
        pb = np.repeat(np.arange(len(sm_counts)), per_bucket)
        offs = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))
        within = np.arange(total) - offs[pb]
        xs.append(sm_starts[pb] + within // sm_counts[pb])
        ys.append(sm_starts[pb] + within % sm_counts[pb])
    n_capped = int(big.sum())
    if n_capped:
        import logging

        logging.getLogger("docetl_ray.dedup").warning(
            "capped %d degenerate LSH bucket(s) (>%d members) to "
            "window-%d chain pairs", n_capped, cap, window,
        )
        for s, n in zip(starts[big], counts[big]):
            i = np.arange(int(n))
            for j in range(1, window + 1):
                if n - j <= 0:
                    break
                xs.append(s + i[: n - j])
                ys.append(s + i[j:])
    if not xs:
        e = np.empty(0, dtype=np.int64)
        return e, e, n_capped
    return np.concatenate(xs), np.concatenate(ys), n_capped


def jaccard_ngram(a: str, b: str, k: int = 5) -> float:
    """Exact char-k-gram Jaccard (the verification metric)."""
    sa, sb = set(shingles(a, k).tolist()), set(shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _sig_est_join(pairs_ds, sig_ds, id_col: str, thr: float, *,
                  left_schema=None, name: str = "minhash_est_join"):
    """Signature-estimated Jaccard per pair with the signatures routed
    TO the pairs by two keyed-shuffle hash joins — no driver-side
    id->signature map, so the path has no corpus-size ceiling.  Returns
    ``(id_a, id_b, est_jaccard)`` filtered to ``est_jaccard >= thr``.
    Shared by ``verify="shuffle"`` (thr = threshold) and the
    ``verify="exact"`` prefilter (thr = threshold - margin)."""
    from .joins import _ds_arrow_schema_lazy, hash_join

    def ren(suffix):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {f"_sid{suffix}": batch[id_col], f"_sig{suffix}": batch["_sig"]}
            )

        fn.__name__ = f"sig{suffix}"
        return fn

    sig_schema = _ds_arrow_schema_lazy(sig_ds)  # materialized -> cheap
    idt = sig_schema.field(id_col).type
    sigt = sig_schema.field("_sig").type
    if left_schema is None:
        left_schema = pa.schema([("id_a", idt), ("id_b", idt)])
    with_a = hash_join(
        pairs_ds, sig_ds.map_batches(ren("a"), batch_format="pyarrow"),
        on="id_a", right_on="_sida",
        left_schema=left_schema,
        right_schema=pa.schema([("_sida", idt), ("_siga", sigt)]),
    )
    with_ab = hash_join(
        with_a, sig_ds.map_batches(ren("b"), batch_format="pyarrow"),
        on="id_b", right_on="_sidb",
        left_schema=pa.schema(
            list(left_schema) + [pa.field("_sida", idt), pa.field("_siga", sigt)]
        ),
        right_schema=pa.schema([("_sidb", idt), ("_sigb", sigt)]),
    )

    def est_pair(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("id_a", idt), ("id_b", idt), ("est_jaccard", pa.float64())]
            ).empty_table()
        sa = np.asarray(batch["_siga"].to_pylist(), dtype=np.int64)
        sb = np.asarray(batch["_sigb"].to_pylist(), dtype=np.int64)
        est = (sa == sb).mean(axis=1)
        out = pa.table(
            {"id_a": batch["id_a"], "id_b": batch["id_b"],
             "est_jaccard": pa.array(est, pa.float64())}
        )
        return out.filter(pa.compute.greater_equal(out["est_jaccard"], thr))

    est_pair.__name__ = name
    return with_ab.map_batches(est_pair, batch_format="pyarrow")


def minhash_candidates(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    verify: str = "broadcast",
    sparse_text_pairs: int = 10_000,
    sig_broadcast_pairs: int = 2_000_000,
):
    """MinHash+LSH candidate pairs with signature-estimated Jaccard.

    Returns a Dataset of ``(id_a, id_b, est_jaccard)`` rows with
    ``est_jaccard >= threshold`` (id_a < id_b, deduplicated).

    ``verify="broadcast"`` ships the id->signature map once via
    ``ray.put`` (right up to ~10M docs at 64 perms ≈ 5 GB);
    ``verify="shuffle"`` instead routes signatures TO the candidate
    pairs with two keyed-shuffle hash joins — no driver materialization,
    the 100-TB path.  ``verify="exact"`` uses the same keyed-shuffle
    signature routing for its prefilter (then keyed-shuffle text joins
    for the true-Jaccard decision), so it is ceiling-free too.
    """
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm)

    # stage 1: per-doc signature; band rows carry ONLY (bucket, id) — the
    # signatures themselves are shuffled once as a compact side table and
    # broadcast for verification (at 64 perms a sig is 512 B; the id->sig
    # map stays broadcastable up to ~10M docs.  Beyond that, switch the
    # verify join to a second keyed shuffle).
    def sig_table(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # a null id cannot participate in pair identity (band-bucket
        # pair generation sorts/compares ids, and None vs str raises);
        # drop such rows here — same semantics as the pc.is_in
        # membership filters downstream, which treat null as non-member
        batch = batch.filter(pc.is_valid(batch[id_col]))
        texts = batch[text_col].to_pylist()
        sigs = minhash_signatures_batch(texts, a, b, shingle_k).astype(np.int64)
        flat = pa.array(sigs.reshape(-1), pa.int64())
        col = pa.FixedSizeListArray.from_arrays(flat, num_perm).cast(
            pa.list_(pa.int64())
        )
        return pa.table({id_col: batch[id_col], "_sig": col})

    sig_ds = ds.map_batches(sig_table, batch_format="pyarrow").materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = batch.num_rows
        if n == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: batch[id_col]})
        # zero-copy list<int64> -> (n, num_perm) view
        sigs = (
            pc.list_flatten(batch["_sig"].combine_chunks())
            .to_numpy(zero_copy_only=False)
            .reshape(n, num_perm)
        )
        bucket, ids_rep = _band_buckets_vec(sigs, batch[id_col], bands,
                                            rows_per_band)
        return pa.table({"bucket": bucket, id_col: ids_rep})

    banded = sig_ds.map_batches(band_rows, batch_format="pyarrow")

    # ONE task per hash partition of `bucket` (not per bucket): a
    # per-bucket map_groups pays ~ms pandas overhead per LSH bucket and
    # there are ~#docs × bands buckets; partitioned_map keeps whole
    # buckets co-located through the take()-based exchange while the
    # pair generation runs vectorized across buckets inside the task.
    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        # FULLY vectorized across all buckets in the partition: generate
        # each bucket's full n x n cross product via index arithmetic and
        # keep the strict upper triangle (id_a < id_b).  The 2x transient
        # overgeneration beats a pandas-groupby iteration over ~docs x
        # bands buckets (~ms each) by a wide margin.
        id_dtype = group[id_col].dtype
        empty = pd.DataFrame(
            {"id_a": pd.Series([], dtype=id_dtype),
             "id_b": pd.Series([], dtype=id_dtype)}
        )
        g = group.drop_duplicates(subset=["bucket", id_col]).sort_values(
            ["bucket", id_col], kind="mergesort"
        )
        if len(g) < 2:
            return empty
        b_arr = g["bucket"].to_numpy()
        ids = g[id_col].to_numpy()
        _, starts, counts = np.unique(b_arr, return_index=True, return_counts=True)
        keep = counts >= 2
        starts, counts = starts[keep], counts[keep]
        if len(counts) == 0:
            return empty
        xi, yi, _ = _bucket_pair_indices(starts, counts)
        ia, ib = ids[xi], ids[yi]
        m = ia < ib  # strict upper triangle (ids sorted within bucket)
        return pd.DataFrame({"id_a": ia[m], "id_b": ib[m]})

    from .grouped import partitioned_map

    cand = partitioned_map(banded, "bucket", pairs, num_partitions=32)

    # stage 2: estimate Jaccard per candidate pair from the signatures.
    if verify == "exact":
        # exact-Jaccard verify: an est-Jaccard PREFILTER at (threshold -
        # margin) first kills the ~99% of band-collision pairs that are
        # nowhere near the threshold (margin 0.25 = 5 sigma of the
        # 64-perm estimator at j=0.8 -> miss prob ~1e-6 per true pair;
        # without it every candidate pair pays the text join), then the
        # survivors' texts are routed TO the pairs with two keyed-shuffle
        # hash joins (same shape as fuzzy_join) and the TRUE char k-gram
        # Jaccard decides — no estimation error at the decision boundary,
        # no driver materialization.  With full banding recall at the
        # threshold (miss prob (1 - j^rows)^bands per pair) the result
        # equals the exact all-pairs answer, which is what makes the
        # DuckDB oracle for minhash_dedup_documents exact.
        # The prefilter's signature lookup is O(CANDIDATE PAIRS), never
        # O(corpus): below ``sig_broadcast_pairs`` the sigs of exactly
        # the ids appearing in some pair are fetched with a map-only
        # ``is_in`` pass and broadcast (the pair set is LSH-sparse by
        # construction); above it the sigs are routed to the distinct
        # pairs by the same two keyed-shuffle joins the texts use.
        # Either way no driver-side corpus structure exists on the
        # exact path (the old full id->sig map capped it at ~10M docs).
        from .joins import _ds_arrow_schema_lazy, hash_join
        from .util_ray import closure_broadcast, collect_small as _cs

        pre_thr = max(0.0, threshold - 0.25)
        # id-only pairs: materializing is bounded by the banded candidate
        # count and lets every decision below read counts for free
        cand_mat = cand.materialize()
        n_cand = cand_mat.count()

        def _empty_pairs():
            import ray.data as rd

            sig_schema0 = _ds_arrow_schema_lazy(sig_ds)
            idt0 = sig_schema0.field(id_col).type
            return rd.from_arrow(pa.schema(
                [("id_a", idt0), ("id_b", idt0),
                 ("est_jaccard", pa.float64())]
            ).empty_table())

        if n_cand == 0:
            return _empty_pairs()

        pair_tbl = None  # driver-resident distinct pairs (small-pair branch)
        if n_cand <= sig_broadcast_pairs:
            # DRIVER-SIDE prefilter over the pair-touched sig subset: the
            # id-only pairs and the sigs of exactly the ids they touch
            # already land on the driver to size/build the broadcast
            # (both O(pairs), never O(corpus)), so the cross-band dedup
            # and the est-prefilter run here as vectorized numpy —
            # removing two whole distributed passes (a prefilter map and
            # a take()-exchange dedup) whose multi-second fixed cost
            # dominated wall time at LSH-sparse candidate counts.
            pt0 = _cs(cand_mat)
            pair_df = pt0.select(["id_a", "id_b"]).to_pandas().drop_duplicates(
                subset=["id_a", "id_b"], ignore_index=True
            )
            # vectorized unique over the pair-touched ids (Arrow kernel;
            # Python sets would box ~2x pair count of values), sorted
            # once so per-batch membership below is a searchsorted —
            # pc.is_in would rebuild its hash set from the value_set on
            # EVERY corpus batch, and a bare closure over a multi-MB
            # array would ship per task instead of once per worker
            import pyarrow.compute as pc

            need_np = np.sort(
                pc.drop_null(pc.unique(pa.chunked_array(
                    list(pt0["id_a"].chunks) + list(pt0["id_b"].chunks)
                ))).to_numpy(zero_copy_only=False)
            )
            get_need = closure_broadcast(need_np)

            def pick_sigs(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                need = get_need()
                # drop null ids FIRST (parity with the pc.is_in filter
                # this replaced, which treated null as non-member): a
                # None inside an object array makes searchsorted raise,
                # and a null in an int64 column degrades to_numpy to
                # float64, breaking bit-exact id comparison past 2^53
                batch = batch.filter(pc.is_valid(batch[id_col]))
                ids = batch[id_col].to_numpy(zero_copy_only=False)
                if not len(need) or not len(ids):
                    t = batch.slice(0, 0)
                else:
                    ix = np.minimum(
                        np.searchsorted(need, ids), len(need) - 1
                    )
                    mask = np.asarray(need[ix] == ids, dtype=bool)
                    t = batch.filter(pa.array(mask))
                return pa.table({"_pid": t[id_col], "_psig": t["_sig"]})

            pick_sigs.__name__ = "minhash_pick_pair_sigs"
            small_sig = _cs(sig_ds.map_batches(pick_sigs, batch_format="pyarrow"))

            sig_mat = (
                pc.list_flatten(small_sig["_psig"].combine_chunks())
                .to_numpy(zero_copy_only=False)
                .reshape(small_sig.num_rows, num_perm)
            )
            # id -> sig_mat row, LAST-wins on duplicate ids (the corpus
            # id_col isn't guaranteed unique; a plain pd.Index would
            # raise InvalidIndexError from get_indexer on duplicates)
            pos = pd.Series(
                np.arange(small_sig.num_rows),
                index=small_sig["_pid"].to_pylist(),
            )
            pos = pos[~pos.index.duplicated(keep="last")]
            row_of, row_map = pos.index, pos.to_numpy()
            keep_chunks = []
            # column-wise accumulation into PREALLOCATED buffers: a full
            # (pairs, num_perm) fancy-index gather allocates
            # O(pairs x num_perm x 8 B) of fresh pages, and first-touch
            # page-fault cost dominates the vectorized compare by 30-50x
            # (measured on this host: 2.4-4.5 s vs 0.09 s for 155k
            # pairs); per-perm int64 ``np.take(..., out=)`` keeps the
            # working set at O(pairs) regardless of num_perm.  Chunked
            # so even that stays bounded at the 2M-pair branch ceiling.
            for lo in range(0, len(pair_df), 1_000_000):
                ch = pair_df.iloc[lo:lo + 1_000_000]
                ra = row_of.get_indexer(ch["id_a"].to_numpy())
                rb = row_of.get_indexer(ch["id_b"].to_numpy())
                if (ra < 0).any() or (rb < 0).any():
                    # -1 would silently np.take the LAST row's signature
                    missing = set(ch["id_a"][ra < 0]) | set(ch["id_b"][rb < 0])
                    raise KeyError(
                        f"minhash exact prefilter: pair ids missing from "
                        f"signature table: {sorted(missing)[:5]}"
                    )
                ra, rb = row_map[ra], row_map[rb]
                n_ch = len(ch)
                acc = np.zeros(n_ch, dtype=np.int32)
                eq = np.empty(n_ch, dtype=bool)
                ca = np.empty(n_ch, dtype=np.int64)
                cb = np.empty(n_ch, dtype=np.int64)
                for j in range(num_perm):
                    col = sig_mat[:, j]
                    np.take(col, ra, out=ca)
                    np.take(col, rb, out=cb)
                    np.equal(ca, cb, out=eq)
                    acc += eq
                keep_chunks.append(acc >= pre_thr * num_perm - 1e-9)
            surv = pair_df[np.concatenate(keep_chunks)] if keep_chunks else pair_df
            if not len(surv):
                return _empty_pairs()
            idt0 = pt0.schema.field("id_a").type
            pair_tbl = pa.table({
                "id_a": pa.array(surv["id_a"].to_numpy()).cast(idt0),
                "id_b": pa.array(surv["id_b"].to_numpy()).cast(idt0),
            })
        if pair_tbl is None:
            from .grouped import partitioned_map as _pm

            def dd(df):
                return df.drop_duplicates(subset=["id_a", "id_b"])

            # pair volume too large to hold pair ids on the driver:
            # collapse cross-band duplicates with the take()-exchange
            # (they would multiply the join volume by up to the band
            # count), then keyed-shuffle the sigs to the distinct pairs
            dd.__name__ = "pair_dedup"
            uniq0 = _pm(
                cand_mat.map_batches(dd, batch_format="pandas"),
                ["id_a", "id_b"], dd,
            )
            # pairs are already distinct after the dedup exchange
            uniq = _sig_est_join(
                uniq0, sig_ds, id_col, pre_thr, name="minhash_exact_prefilter"
            ).map_batches(
                lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow"
            ).materialize()

            n_pairs = uniq.count()
            if n_pairs == 0:
                return _empty_pairs()
            if n_pairs <= sparse_text_pairs:
                pair_tbl = _cs(uniq).select(["id_a", "id_b"])

        if pair_tbl is not None and pair_tbl.num_rows <= sparse_text_pairs:
            # SPARSE fast path, ON THE DRIVER: few enough survivors that
            # their texts fit one machine — one map-only ``is_in`` pass
            # fetches exactly the pair-touched texts (no corpus shuffle at
            # all), then the shingle-set Jaccard over ≤ sparse_text_pairs
            # pairs runs locally (it ran inside a single distributed task
            # before — same work, minus a whole pass).  Skips both
            # keyed-shuffle text joins (~2 s fixed cost each at small
            # scale; at web scale the dense path below streams).
            import pyarrow.compute as pc
            import ray.data as rd

            ids_a = pair_tbl["id_a"].to_pylist()
            ids_b = pair_tbl["id_b"].to_pylist()
            need = sorted(set(ids_a) | set(ids_b))
            need_arr = pa.array(need)

            def pick(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                ids = batch[id_col]
                if pa.types.is_null(ids.type):
                    # an all-null-id block (e.g. a one-row from_items
                    # block) types its column as null; is_in raises on
                    # the null-vs-string value_set mismatch.  Null ids
                    # are non-members by definition.
                    return pa.table({"_pid": pa.array([], need_arr.type),
                                     "_ptxt": batch[text_col].slice(0, 0)})
                t = batch.filter(pc.is_in(ids, value_set=need_arr))
                return pa.table({"_pid": t[id_col], "_ptxt": t[text_col]})

            pick.__name__ = "minhash_pick_texts"
            small = _cs(ds.map_batches(pick, batch_format="pyarrow"))
            texts = dict(
                zip(small["_pid"].to_pylist(), small["_ptxt"].to_pylist())
            )
            cache: dict = {}

            def sh(i):
                s = cache.get(i)
                if s is None:
                    s = set(shingles(texts.get(i) or "", shingle_k).tolist())
                    cache[i] = s
                return s

            jac = []
            for ia, ib in zip(ids_a, ids_b):
                sa, sb = sh(ia), sh(ib)
                if not sa and not sb:
                    jac.append(1.0)
                    continue
                inter = len(sa & sb)
                jac.append(inter / (len(sa) + len(sb) - inter))
            out = pair_tbl.append_column(
                "est_jaccard", pa.array(jac, pa.float64())
            )
            return rd.from_arrow(
                out.filter(pc.greater_equal(out["est_jaccard"], threshold))
            )

        if pair_tbl is not None:
            # broadcast-branch survivors too numerous for a text
            # broadcast: lift them back into a Dataset for the
            # keyed-shuffle dense path
            import ray.data as rd

            uniq = rd.from_arrow(pair_tbl).materialize()

        # DENSE text-verify path: prefiltered survivors too numerous for
        # a text broadcast — route the texts to the pairs with two
        # keyed-shuffle hash joins (same shape as fuzzy_join).
        def proj(out_id, out_text):
            def fn(batch: pa.Table) -> pa.Table:
                return pa.table({out_id: batch[id_col], out_text: batch[text_col]})

            fn.__name__ = f"proj_{out_id}"
            return fn

        ta = ds.map_batches(proj("_da", "_ta"), batch_format="pyarrow")
        tb = ds.map_batches(proj("_db", "_tb"), batch_format="pyarrow")
        # wire schemas passed explicitly so neither the candidate pipeline
        # nor the text projections hit hash_join's materialize fallback
        # (a full barrier that would pin the corpus in the object store);
        # id/text types come from the (already-materialized) signature
        # table and a metadata-only probe of the input
        sig_schema = _ds_arrow_schema_lazy(sig_ds)  # materialized -> cheap
        idt = sig_schema.field(id_col).type
        in_schema = _ds_arrow_schema_lazy(ds)
        text_t = in_schema.field(text_col).type if in_schema is not None else pa.string()
        pair_schema = pa.schema([(c, idt) for c in ("id_a", "id_b")])
        # prefiltered pairs are sparse — 8 buckets keeps task overhead
        # low while the texts still stream through the exchange
        with_a = hash_join(
            uniq, ta, on="id_a", right_on="_da", num_buckets=8,
            left_schema=pair_schema,
            right_schema=pa.schema([("_da", idt), ("_ta", text_t)]),
        )
        with_ab = hash_join(
            with_a, tb, on="id_b", right_on="_db", num_buckets=8,
            left_schema=pa.schema(
                list(pair_schema) + [pa.field("_da", idt), pa.field("_ta", text_t)]
            ),
            right_schema=pa.schema([("_db", idt), ("_tb", text_t)]),
        )

        def exact_verify(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # shingle each distinct doc once per batch (hot docs appear
            # in many candidate pairs)
            cache: dict = {}

            def sh(i, text):
                s = cache.get(i)
                if s is None:
                    s = set(shingles(text or "", shingle_k).tolist())
                    cache[i] = s
                return s

            jac = []
            for ia, ib, t_a, t_b in zip(
                batch["id_a"].to_pylist(), batch["id_b"].to_pylist(),
                batch["_ta"].to_pylist(), batch["_tb"].to_pylist(),
            ):
                sa, sb = sh(ia, t_a), sh(ib, t_b)
                if not sa and not sb:
                    jac.append(1.0)
                    continue
                inter = len(sa & sb)
                jac.append(inter / (len(sa) + len(sb) - inter))
            out = pa.table(
                {"id_a": batch["id_a"], "id_b": batch["id_b"],
                 "est_jaccard": pa.array(jac, pa.float64())}
            )
            return out.filter(pc.greater_equal(out["est_jaccard"], threshold))

        exact_verify.__name__ = "minhash_verify_exact"
        return with_ab.map_batches(exact_verify, batch_format="pyarrow")

    if verify == "shuffle":
        # keyed-shuffle verify: hash-join the signature table onto the
        # pairs (twice) — never materializes the sig map on the driver.
        survivors = _sig_est_join(
            cand, sig_ds, id_col, threshold, name="minhash_verify_shuffle"
        )
    else:
        # broadcast verify: ray.put the id->sig map once, zero-copy read +
        # per-worker cache in every task (documented ~10M-doc ceiling)
        import ray

        from .util_ray import collect_small

        sig_small = collect_small(sig_ds)
        sig_map = {
            i: np.asarray(s, dtype=np.int64)
            for i, s in zip(sig_small[id_col].to_pylist(), sig_small["_sig"].to_pylist())
        }
        ref = ray.put(sig_map)

        def verify_fn(batch: pa.Table) -> pa.Table:
            sigs = _broadcast_sig_cache(ref)
            ia = batch["id_a"].to_pylist()
            ib = batch["id_b"].to_pylist()
            if not ia:
                return pa.table(
                    {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                     "est_jaccard": pa.array([], pa.float64())}
                )
            sa = np.stack([sigs[x] for x in ia])
            sb = np.stack([sigs[y] for y in ib])
            est = (sa == sb).mean(axis=1)
            out = pa.table(
                {
                    "id_a": batch["id_a"],
                    "id_b": batch["id_b"],
                    "est_jaccard": pa.array(est, pa.float64()),
                }
            )
            return out.filter(pa.compute.greater_equal(out["est_jaccard"], threshold))

        verify_fn.__name__ = "minhash_verify"
        survivors = cand.map_batches(verify_fn, batch_format="pyarrow")

    # cross-band duplicate pairs survive redundantly (bounded by band
    # count); dedup with a partial-combined grouped max — one bounded
    # shuffle of the (sparse) survivor set, no single-task bottleneck
    from .reduces import grouped_aggregate

    return grouped_aggregate(survivors, ["id_a", "id_b"],
                             [("est_jaccard", "max", "est_jaccard")])


def connected_components(edges: pa.Table, all_ids=None) -> dict:
    """Driver-side union-find over candidate edges -> {id: canonical_id}.

    Edges are the *thresholded* candidates (sparse by construction); for
    edge sets too big for one machine use iterative min-label propagation
    (distributed) instead — see module docstring.
    """
    if edges.num_rows == 0 or "id_a" not in edges.column_names:
        return {}
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for ia, ib in zip(edges["id_a"].to_pylist(), edges["id_b"].to_pylist()):
        ra, rb = find(ia), find(ib)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


def connected_components_distributed(
    edges,
    *,
    num_partitions: int = 32,
    max_rounds: int = 16,
):
    """Distributed connected components by min-label propagation.

    ``edges``: Dataset with ``id_a``/``id_b`` columns.  Returns a Dataset
    ``(id, label)`` covering every id that appears in an edge, with
    ``label`` = the minimum id of its connected component.

    Each round is ONE keyed-shuffle hash join (labels onto the static
    symmetrized edge list) plus one partial-combined grouped min — no
    driver-side state, so the edge set may exceed single-machine memory.
    Rounds stop when the global label sum stops decreasing (it is
    monotone non-increasing, so equality == convergence); near-dup
    clusters have tiny diameters, so 2-4 rounds is typical.
    ``max_rounds`` bounds pathological chains.

    Reference anchor: the clustering step of resolve
    (``/root/reference/docetl/operations/resolve.py:441-477``) — an
    in-process union-find recast as iterated shuffles.
    """
    from .joins import hash_join
    from .reduces import global_aggregate, grouped_aggregate

    def symmetrize(batch: pa.Table) -> pa.Table:
        fwd = pa.table({"src": batch["id_a"], "dst": batch["id_b"]})
        rev = pa.table({"src": batch["id_b"], "dst": batch["id_a"]})
        return pa.concat_tables([fwd, rev]).combine_chunks()

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()

    # 1-hop head start: label(v) = min(v, min neighbor)
    import pyarrow.compute as pc

    def init_label(batch: pa.Table) -> pa.Table:
        lab = pc.min_element_wise(batch["src"], batch["_mindst"])
        return pa.table({"id": batch["src"], "label": lab})

    labels = (
        grouped_aggregate(sym, ["src"], [("dst", "min", "_mindst")])
        .map_batches(init_label, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = global_aggregate(labels, [("label", "sum", "s")])["s"]

    for _ in range(max_rounds):
        prop = hash_join(sym, labels, on="src", right_on="id",
                         num_buckets=num_partitions)

        def relabel(batch: pa.Table) -> pa.Table:
            return pa.table({"id": batch["dst"], "label": batch["label"]})

        cand = prop.map_batches(relabel, batch_format="pyarrow")
        labels = grouped_aggregate(
            cand.union(labels), ["id"], [("label", "min", "label")]
        ).materialize()
        s = global_aggregate(labels, [("label", "sum", "s")])["s"]
        if s == prev_sum:
            break
        prev_sum = s
    return labels


def _keep_representatives(ds, id_col: str, dup_ids_ds_or_set, *, how: str = "broadcast"):
    """Drop ``dup_ids`` rows from ``ds``.

    ``how="broadcast"``: dup ids collected once, vectorized ``pc.is_in``
    filter per batch (right when dups fit one machine — the common case).
    ``how="antijoin"``: keyed-shuffle anti join (right when even the dup
    id set is huge); ships the corpus through one exchange.
    """
    import pyarrow.compute as pc

    if how == "antijoin":
        from .joins import hash_join

        return hash_join(ds, dup_ids_ds_or_set, on=id_col, right_on="id", how="anti")

    if not isinstance(dup_ids_ds_or_set, (set, frozenset, list)):
        from .util_ray import collect_small

        t = collect_small(dup_ids_ds_or_set)
        dup_ids_ds_or_set = set(t["id"].to_pylist()) if t.num_rows else set()
    value_set = pa.array(sorted(dup_ids_ds_or_set))

    def keep(batch: pa.Table) -> pa.Table:
        if len(value_set) == 0:
            return batch
        mask = pc.invert(pc.is_in(batch[id_col], value_set=value_set))
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def minhash_dedup(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    distributed: bool | str = False,
    auto_doc_threshold: int = 5_000_000,
    verify: str | None = None,
):
    """End-to-end near-dup removal: keep one representative (min id) per
    near-duplicate cluster.  Returns (deduped_ds, canonical_map).

    ``distributed=True`` runs connected components as distributed
    min-label propagation and the keep-filter as an anti join — no
    driver-side edge materialization; ``canonical_map`` is then returned
    as a Dataset ``(id, label)`` instead of a dict.  ``"auto"`` probes
    the corpus size with one cheap ``ds.count()`` BEFORE the candidate
    pass (so the broadcast-verify driver signature map is never built
    for a corpus above ``auto_doc_threshold`` docs — the scenario auto
    mode exists to protect).

    ``verify`` overrides the verification strategy: ``"broadcast"``
    (signature estimate, driver sig map — fastest under ~10M docs),
    ``"shuffle"`` (signature estimate, keyed-shuffle routing — the
    100-TB path), or ``"exact"`` (true char-k-gram Jaccard, signatures
    AND texts both routed to the pairs by keyed-shuffle joins; what the
    DuckDB oracle checks).  Both ``"shuffle"`` and ``"exact"`` build no
    driver-side corpus structure and carry no size ceiling."""
    from .util_ray import collect_small

    if distributed == "auto":
        distributed = ds.count() > auto_doc_threshold
    cand = minhash_candidates(
        ds, text_col, id_col,
        num_perm=num_perm, bands=bands, shingle_k=shingle_k, threshold=threshold,
        verify=verify or ("shuffle" if distributed else "broadcast"),
    )
    if distributed:
        labels = connected_components_distributed(cand)
        import pyarrow.compute as pc

        dups = labels.map_batches(
            lambda t: t.filter(pc.not_equal(t["id"], t["label"])).select(["id"]),
            batch_format="pyarrow",
        )
        return _keep_representatives(ds, id_col, dups, how="antijoin"), labels

    edges = collect_small(cand)
    cmap = connected_components(edges)
    dup_ids = {k for k, v in cmap.items() if v != k}
    return _keep_representatives(ds, id_col, dup_ids), cmap


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_TOKHASH_CACHE: dict[str, int] = {}
_TOKHASH_CACHE_MAX = 1_000_000
_SIMHASH_TOKEN_RE = None


def _token_hash64(tok: str) -> int:
    """First 8 bytes of md5(token) as big-endian uint64 — SQL-parity:
    ``('0x' || substr(md5(tok), 1, 16))::UBIGINT`` in DuckDB.  Cached per
    worker (Zipfian vocab -> high hit rate)."""
    v = _TOKHASH_CACHE.get(tok)
    if v is None:
        import hashlib

        v = int.from_bytes(hashlib.md5(tok.encode("utf-8")).digest()[:8], "big")
        if len(_TOKHASH_CACHE) >= _TOKHASH_CACHE_MAX:
            _TOKHASH_CACHE.clear()
        _TOKHASH_CACHE[tok] = v
    return v


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (md5-derived bit votes).

    Vectorized: hash unique tokens once (cached), then one numpy
    bit-unpack + weighted vote across all 64 bits — no per-token Python
    bit loop."""
    global _SIMHASH_TOKEN_RE
    if _SIMHASH_TOKEN_RE is None:
        import re

        _SIMHASH_TOKEN_RE = re.compile(r"\S+")
    toks = _SIMHASH_TOKEN_RE.findall(text or "")
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    hs = np.fromiter((_token_hash64(t) for t in uniq), dtype=np.uint64, count=len(uniq))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    votes = ((2 * bits - 1) * counts[:, None].astype(np.int64)).sum(axis=0)
    sel = np.where(votes > 0)[0]
    out = np.uint64(0)
    for i in sel:
        out |= np.uint64(1) << np.uint64(i)
    return int(out)


def add_simhash(ds, text_col: str, *, out_col: str = "simhash"):
    def fn(batch: pa.Table) -> pa.Table:
        hs = [simhash64(t) for t in batch[text_col].to_pylist()]
        return batch.append_column(
            out_col, pa.array(np.array(hs, dtype=np.uint64).astype(np.int64), pa.int64())
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def simhash_dedup(ds, text_col: str, id_col: str):
    """Exact-SimHash dedup: identical 64-bit fingerprints collapse to the
    min-id representative (``simhash_near_dedup`` below is the
    hamming-radius variant; exact match is the pinned default)."""
    from .resolve import dedup_exact

    withsim = add_simhash(ds, text_col)
    return dedup_exact(withsim, "simhash", tiebreak_col=id_col, keep="min")


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    return np.unpackbits(v.view(np.uint8)).reshape(len(v), 8 * 8).sum(axis=1)


def simhash_near_dedup(
    ds,
    text_col: str,
    id_col: str,
    *,
    max_hamming: int = 3,
    output_col: str = "canonical_id",
    distributed: bool = False,
):
    """SimHash near-dup clustering within a hamming radius.

    Bands the 64 fingerprint bits into ``max_hamming + 1`` DISJOINT
    chunks that cover all 64 bits; by pigeonhole, any pair within the
    radius agrees on at least one full chunk — so the band-bucket
    candidate generation has FULL recall (deterministic, unlike
    MinHash banding), and the SQL oracle (all pairs with
    ``bit_count(xor) <= r``) is exact.  One keyed exchange on the band
    key (``partitioned_map``); in-bucket verification is a vectorized
    XOR-popcount; components -> ``output_col`` = min-id representative
    per row.

    ``distributed=True`` runs components as min-label propagation and
    attaches labels with a keyed-shuffle hash join — no driver-side edge
    or label materialization (the 100-TB path, same surface as
    ``minhash_dedup``).  Either way the per-row attach is vectorized
    (Arrow join / is_in), never a per-row dict lookup."""
    from .grouped import grouped_map
    from .reduces import grouped_aggregate
    from .util_ray import collect_small

    bands = max_hamming + 1
    base_w, extra = divmod(64, bands)
    offsets, widths = [], []
    pos = 0
    for bi in range(bands):
        w = base_w + (1 if bi < extra else 0)
        offsets.append(pos)
        widths.append(w)
        pos += w

    withsim = add_simhash(ds, text_col)

    def band_rows(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        parts = []
        for bi in range(bands):
            chunk = (h >> np.uint64(offsets[bi])) & np.uint64((1 << widths[bi]) - 1)
            key = (np.uint64(bi) << np.uint64(58)) | chunk  # band-tagged bucket
            parts.append(
                pa.table(
                    {
                        "bkey": pa.array(key.astype(np.int64), pa.int64()),
                        id_col: batch[id_col],
                        "sim": batch["simhash"],
                    }
                )
            )
        return pa.concat_tables(parts).combine_chunks()

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL buckets in the partition (index-arithmetic
        # cross product per bkey run, strict upper triangle, then one
        # vectorized XOR-popcount hamming verify)
        id_dtype = g[id_col].dtype
        empty = pd.DataFrame(
            {"id_a": pd.Series([], dtype=id_dtype),
             "id_b": pd.Series([], dtype=id_dtype)}
        )
        g = g.drop_duplicates(subset=["bkey", id_col]).sort_values(
            ["bkey", id_col], kind="mergesort"
        )
        if len(g) < 2:
            return empty
        ids = g[id_col].to_numpy()
        sims = g["sim"].to_numpy().astype(np.uint64)
        _, starts, counts = np.unique(
            g["bkey"].to_numpy(), return_index=True, return_counts=True
        )
        keep_b = counts >= 2
        starts, counts = starts[keep_b], counts[keep_b]
        if len(counts) == 0:
            return empty
        xi, yi, _ = _bucket_pair_indices(starts, counts)
        m = ids[xi] < ids[yi]
        xi, yi = xi[m], yi[m]
        if len(xi) == 0:
            return empty
        ham = _popcount64(sims[xi] ^ sims[yi])
        keep = ham <= max_hamming
        return pd.DataFrame({"id_a": ids[xi[keep]], "id_b": ids[yi[keep]]})

    banded = withsim.map_batches(band_rows, batch_format="pyarrow")
    # whole buckets co-located per hash partition of bkey (not per
    # distinct bkey): `pairs` is vectorized across buckets, the
    # take()-exchange replaces the sort-shuffle fixed cost
    from .grouped import partitioned_map

    cand = partitioned_map(banded, "bkey", pairs, num_partitions=32)
    if distributed:
        # same pair can surface from several bands: dedup with a grouped
        # count so label propagation sees each edge once
        uniq = grouped_aggregate(
            cand.map_batches(
                lambda t: t.append_column(
                    "_one", pa.array([1] * t.num_rows, pa.int8())
                ),
                batch_format="pyarrow",
            ),
            ["id_a", "id_b"],
            [("_one", "count", "_n")],
        )
        labels = connected_components_distributed(uniq)
        return _attach_labels_join(ds, id_col, labels, output_col), labels

    # driver path: union-find is idempotent under duplicate edges, so the
    # cross-band pair-dedup shuffle is pure overhead — collect the raw
    # candidates (≤ bands x the deduped volume, still sparse) directly
    cmap = connected_components(collect_small(cand))
    return _attach_labels_broadcast(ds, id_col, cmap, output_col), cmap


def _attach_labels_broadcast(ds, id_col: str, cmap: dict, output_col: str):
    """Attach ``output_col = cmap.get(id, id)`` via a broadcast sorted-key
    binary search (vectorized ``np.searchsorted`` per batch — no per-row
    dict lookups).  Right when the label map fits one machine."""
    from .util_ray import closure_broadcast

    keys = np.array(sorted(cmap))
    vals = np.array([cmap[k] for k in keys])
    get_kv = closure_broadcast((keys, vals))

    def attach(batch: pa.Table) -> pa.Table:
        k, v = get_kv()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(k) == 0 or batch.num_rows == 0:
            return batch.append_column(output_col, batch[id_col])
        pos = np.searchsorted(k, ids)
        pos_c = np.minimum(pos, len(k) - 1)
        valid = k[pos_c] == ids
        out = ids.copy()
        out[valid] = v[pos_c[valid]]
        return batch.append_column(output_col, pa.array(out, batch[id_col].type))

    attach.__name__ = "attach_labels"
    return ds.map_batches(attach, batch_format="pyarrow")


def _attach_labels_join(ds, id_col: str, labels, output_col: str):
    """Attach component labels with a keyed-shuffle LEFT hash join
    (ids without an edge keep themselves) — no driver materialization."""
    import pyarrow.compute as pc

    from .joins import hash_join

    joined = hash_join(ds, labels, on=id_col, right_on="id", how="left")

    def finish(batch: pa.Table) -> pa.Table:
        lab = pc.coalesce(
            pc.cast(batch["label"], batch[id_col].type), batch[id_col]
        )
        out = batch.drop_columns(
            [c for c in ("label", "id") if c in batch.column_names]
        )
        return out.append_column(output_col, lab)

    finish.__name__ = "attach_labels_join"
    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dedup(
    ds,
    emb_col: str,
    id_col: str,
    *,
    threshold: float = 0.95,
    num_planes: int = 12,
    seed: int = 11,
    distributed: bool = False,
):
    """Embedding near-dup: LSH-bucket by hyperplane sign code, then
    exact pairwise cosine within buckets -> candidate edges -> components.
    Returns (deduped_ds, canonical_map); with ``distributed=True``,
    components run as min-label propagation and the map is a Dataset.

    Hyperplanes are md5-derived INTEGER planes applied to
    4096-quantized embeddings (``util_ray.md5_int_planes`` /
    ``quantized_lsh_codes``): bucket codes are exact integer arithmetic,
    reproducible bit-for-bit by a SQL oracle — which makes the engine's
    "same bucket AND cosine >= threshold" semantics exactly checkable
    (the oracle conditions on the buckets, so LSH recall is not part of
    the correctness claim)."""
    from .util_ray import collect_small, md5_int_planes, quantized_lsh_codes

    dim_probe = ds.take(1)[0][emb_col]
    dim = len(dim_probe)
    planes = md5_int_planes(num_planes, dim, tag=f"emb{seed}")

    def bucketize(batch: pa.Table) -> pa.Table:
        embs = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
        code = quantized_lsh_codes(embs, planes)
        return pa.table(
            {
                id_col: batch[id_col],
                "_code": pa.array(code, pa.int64()),
                emb_col: batch[emb_col],
            }
        )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
        g = group.sort_values(id_col, kind="mergesort")
        ids = g[id_col].to_numpy()
        m = np.asarray([np.asarray(e, dtype=np.float64) for e in g[emb_col]])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        mn = m / norms[:, None]
        n = len(g)
        if n <= _BUCKET_CAP:
            sim = mn @ mn.T
            xs, ys = np.where(np.triu(sim, 1) >= threshold)
            cs = sim[xs, ys]
        else:
            # degenerate bucket: window-chain pairs only (bounded n*window;
            # near-identical members stay connected through components —
            # see _bucket_pair_indices)
            import logging

            logging.getLogger("docetl_ray.dedup").warning(
                "capped degenerate embedding-LSH bucket (%d members) to "
                "window-%d chain pairs", n, _BUCKET_CHAIN_WINDOW,
            )
            xs_l, ys_l = [], []
            for j in range(1, _BUCKET_CHAIN_WINDOW + 1):
                if n - j <= 0:
                    break
                xs_l.append(np.arange(n - j))
                ys_l.append(np.arange(j, n))
            xs = np.concatenate(xs_l)
            ys = np.concatenate(ys_l)
            cs = (mn[xs] * mn[ys]).sum(axis=1)
            keep = cs >= threshold
            xs, ys, cs = xs[keep], ys[keep], cs[keep]
        return pd.DataFrame({"id_a": ids[xs], "id_b": ids[ys], "cosine": cs})

    # bucketed grouped exchange (NOT per-bucket map_groups): LSH codes are
    # high-cardinality, so per-code tasks would pay ~ms overhead per code;
    # grouped_map shuffles once on hash(code) and iterates codes locally
    from .grouped import grouped_map

    cand = grouped_map(
        ds.map_batches(bucketize, batch_format="pyarrow"), "_code", pairs
    )
    if distributed:
        labels = connected_components_distributed(cand)
        import pyarrow.compute as pc

        dups = labels.map_batches(
            lambda t: t.filter(pc.not_equal(t["id"], t["label"])).select(["id"]),
            batch_format="pyarrow",
        )
        return _keep_representatives(ds, id_col, dups, how="antijoin"), labels

    edges = collect_small(cand)
    cmap = connected_components(edges)
    dup_ids = {k for k, v in cmap.items() if v != k}
    return _keep_representatives(ds, id_col, dup_ids), cmap
