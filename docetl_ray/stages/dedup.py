"""Near-duplicate detection at corpus scale: MinHash+LSH, SimHash,
n-gram Jaccard verification, embedding-cosine near-dup.

These are the training-data-pipeline deduplicators (beyond the
reference's LLM ``resolve``; same role as its embedding blocking,
``/root/reference/docetl/operations/resolve.py:296-340``) built
shuffle-consciously:

  shingle/minhash per batch (vectorized numpy)
    -> explode to (band bucket, id) rows
    -> ONE keyed exchange on the band bucket (``partitioned_map``)
       -> candidate pairs per bucket
    -> verify: signature-estimated Jaccard (``verify="broadcast"`` /
       ``"shuffle"``), or the exact candidate-pair pipeline shared with
       ``fuzzy_join`` (``verify="exact"``): ``_distinct_pairs`` ->
       estimate prefilter -> ``_verify_text_pairs`` (true char-k-gram
       Jaccard, ``_pair_jaccard``), each step on the driver under its
       size bound and through keyed exchanges above it
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


def _sig_est_join(pairs_ds, sig_ds, id_col: str, thr: float, *,
                  name: str = "minhash_est_join"):
    """Signature-estimated Jaccard per pair with the signatures routed
    TO the pairs by two keyed-shuffle hash joins — no driver-side
    id->signature map, so the path has no corpus-size ceiling.  Returns
    ``(id_a, id_b, est_jaccard)`` filtered to ``est_jaccard >= thr``.
    Shared by ``verify="shuffle"`` (thr = threshold) and the
    ``verify="exact"`` prefilter above ``_DRIVER_PAIRS`` (thr = threshold
    - margin)."""
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


# Candidate-pair verification, shared by ``minhash_candidates(verify=
# "exact")`` and ``fuzzy_join``: the distinct pairs, then the exact
# shingle Jaccard of their texts.  Under each bound the step runs on the
# driver (only pair ids, then the pair-touched texts, are collected);
# above it, through keyed exchanges.  The text bound is driver memory:
# up to twice as many texts as pairs are collected, so it assumes ~KB
# texts.
_DRIVER_PAIRS = 2_000_000  # raw candidate pairs deduplicated on the driver
_SPARSE_TEXT_PAIRS = 100_000  # distinct pairs verified on the driver


def _pair_jaccard(ids_a, ids_b, texts_a, texts_b, k: int, *,
                  same: bool = False) -> np.ndarray:
    """Exact char-k-gram Jaccard of each pair (both shingle sets empty ->
    1.0).  Each distinct id is shingled once per call — hot docs sit in
    many candidate pairs; ``same`` shares one cache between the sides
    when their ids name the same documents."""
    cache_a: dict = {}
    cache_b = cache_a if same else {}
    out = np.empty(len(ids_a), dtype=np.float64)
    for n, (ia, ib, ta, tb) in enumerate(zip(ids_a, ids_b, texts_a, texts_b)):
        sa = cache_a.get(ia)
        if sa is None:
            sa = cache_a[ia] = set(shingles(ta or "", k).tolist())
        sb = cache_b.get(ib)
        if sb is None:
            sb = cache_b[ib] = set(shingles(tb or "", k).tolist())
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        out[n] = inter / union if union else 1.0
    return out


def jaccard_ngram(a: str, b: str, k: int = 5) -> float:
    """Exact char-k-gram Jaccard (the verification metric)."""
    return float(_pair_jaccard((0,), (0,), (a,), (b,), k)[0])


def _drop_duplicate_pairs(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop_duplicates(subset=["id_a", "id_b"])


def _distinct_pairs(cand):
    """The distinct ``(id_a, id_b)`` rows of a candidate-pair Dataset (a
    pair surfaces once per LSH band it collides in).  Up to
    ``_DRIVER_PAIRS`` raw pairs are collected (ids only) and deduplicated
    on the driver into an Arrow table; more go through one
    ``partitioned_map`` exchange into a materialized Dataset."""
    from .util_ray import collect_small

    cand = cand.materialize()
    if cand.count() <= _DRIVER_PAIRS:
        t = collect_small(cand)
        if t.num_rows == 0:
            return t
        return t.group_by(["id_a", "id_b"], use_threads=False).aggregate([])

    from .grouped import partitioned_map

    return partitioned_map(cand, ["id_a", "id_b"], _drop_duplicate_pairs).materialize()


def _est_prefilter(pairs, sig_ds, id_col: str, num_perm: int, thr: float):
    """The distinct pairs whose signature-estimated Jaccard is at least
    ``thr``, in the form ``_distinct_pairs`` returned them.  A driver
    table is filtered on the driver against the signatures of exactly the
    ids it touches (one map-only pass fetches them: O(pairs), never
    O(corpus)); a Dataset gets the signatures routed to it by
    ``_sig_est_join`` (and keeps its ``est_jaccard`` column)."""
    if not isinstance(pairs, pa.Table):
        return _sig_est_join(
            pairs, sig_ds, id_col, thr, name="minhash_exact_prefilter"
        ).materialize()
    if pairs.num_rows == 0:
        return pairs
    import pyarrow.compute as pc

    from .util_ray import closure_broadcast, collect_small

    # sorted once so per-batch membership below is a searchsorted —
    # pc.is_in would rebuild its hash set from the value_set on EVERY
    # corpus batch, and a bare closure over a multi-MB array would ship
    # per task instead of once per worker
    need_np = np.sort(pc.unique(pa.chunked_array(
        pairs["id_a"].chunks + pairs["id_b"].chunks
    )).to_numpy(zero_copy_only=False))
    get_need = closure_broadcast(need_np)

    def pick_sigs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        need = get_need()
        # drop null ids FIRST: a None inside an object array makes
        # searchsorted raise, and a null in an int64 column degrades
        # to_numpy to float64, breaking bit-exact id comparison past 2^53
        batch = batch.filter(pc.is_valid(batch[id_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if not len(ids):
            t = batch
        else:
            ix = np.minimum(np.searchsorted(need, ids), len(need) - 1)
            t = batch.filter(pa.array(np.asarray(need[ix] == ids, dtype=bool)))
        return pa.table({"_pid": t[id_col], "_psig": t["_sig"]})

    pick_sigs.__name__ = "minhash_pick_pair_sigs"
    small_sig = collect_small(sig_ds.map_batches(pick_sigs, batch_format="pyarrow"))
    sig_mat = (
        pc.list_flatten(small_sig["_psig"].combine_chunks())
        .to_numpy(zero_copy_only=False)
        .reshape(small_sig.num_rows, num_perm)
    )
    # id -> sig_mat row, LAST-wins on duplicate ids (the corpus id_col
    # isn't guaranteed unique; a plain pd.Index would raise
    # InvalidIndexError from get_indexer on duplicates)
    pos = pd.Series(np.arange(small_sig.num_rows),
                    index=small_sig["_pid"].to_pylist())
    pos = pos[~pos.index.duplicated(keep="last")]
    row_of, row_map = pos.index, pos.to_numpy()
    ids_a = pairs["id_a"].to_numpy(zero_copy_only=False)
    ids_b = pairs["id_b"].to_numpy(zero_copy_only=False)
    keep = np.empty(pairs.num_rows, dtype=bool)
    # column-wise accumulation into PREALLOCATED buffers: a full (pairs,
    # num_perm) fancy-index gather allocates O(pairs x num_perm x 8 B) of
    # fresh pages, and first-touch page-fault cost dominated the
    # vectorized compare by 30-50x (2.4-4.5 s vs 0.09 s for 155k pairs on
    # one host); per-perm int64 ``np.take(..., out=)`` keeps the working
    # set at O(pairs) whatever num_perm is, and chunking bounds that too
    for lo in range(0, len(ids_a), 1_000_000):
        ch_a, ch_b = ids_a[lo:lo + 1_000_000], ids_b[lo:lo + 1_000_000]
        ra, rb = row_of.get_indexer(ch_a), row_of.get_indexer(ch_b)
        if (ra < 0).any() or (rb < 0).any():
            # -1 would silently np.take the LAST row's signature
            missing = set(ch_a[ra < 0]) | set(ch_b[rb < 0])
            raise KeyError(
                f"minhash exact prefilter: pair ids missing from "
                f"signature table: {sorted(missing)[:5]}"
            )
        ra, rb = row_map[ra], row_map[rb]
        n_ch = len(ra)
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
        keep[lo:lo + n_ch] = acc >= thr * num_perm - 1e-9
    return pairs.filter(pa.array(keep))


def _id_type(ds, col: str, schema=None) -> pa.DataType:
    """``ds``'s ``col`` type, to type an empty result: read from the
    upstream when Ray knows no lazy schema (an empty ``from_arrow``)."""
    from .joins import _ds_arrow_schema, _ds_arrow_schema_lazy

    s = schema or _ds_arrow_schema_lazy(ds) or _ds_arrow_schema(ds)
    return s.field(col).type if col in s.names else pa.int64()


def _verify_text_pairs(pairs, left, right, *, threshold: float, shingle_k: int,
                       names, schemas=(None, None)):
    """The distinct candidate pairs whose texts' exact char-k-gram
    Jaccard is at least ``threshold``, as a Dataset with columns
    ``names`` = (id_a, id_b, Jaccard) — ``id_a`` naming a ``left`` row
    and ``id_b`` a ``right`` row.

    ``left`` / ``right`` are ``(Dataset, id column, text column)`` and
    ``schemas`` their wire schemas (None: inferred lazily when Ray can;
    an empty result is typed by ``_id_type``).  ``pairs`` is an Arrow
    table or a materialized Dataset of ``(id_a, id_b)`` (other columns
    are ignored).  Up to
    ``_SPARSE_TEXT_PAIRS`` pairs are verified on the driver after one
    map-only ``is_in`` pass per side (one pass when both sides are the
    same Dataset) fetches exactly the pair-touched texts; more get their
    texts routed to them by two keyed-shuffle hash joins (no corpus
    structure on the driver) and are verified in one map."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .joins import _ds_arrow_schema_lazy, hash_join
    from .util_ray import collect_small

    same = left == right
    (lds, lid, ltext), (rds, rid, rtext) = left, right
    ls = schemas[0] or _ds_arrow_schema_lazy(lds)
    rs = schemas[1] or _ds_arrow_schema_lazy(rds)

    def verified(ids_a, ids_b, jac) -> pa.Table:
        out = pa.table({names[0]: ids_a, names[1]: ids_b,
                        names[2]: pa.array(jac, pa.float64())})
        return out.filter(pc.greater_equal(out[names[2]], threshold))

    n = pairs.num_rows if isinstance(pairs, pa.Table) else pairs.count()
    if n == 0:
        return rd.from_arrow(pa.schema([
            (names[0], _id_type(lds, lid, ls)), (names[1], _id_type(rds, rid, rs)),
            (names[2], pa.float64()),
        ]).empty_table())

    if n <= _SPARSE_TEXT_PAIRS:
        if not isinstance(pairs, pa.Table):
            pairs = collect_small(pairs)

        def pick(side, need: pa.Array) -> dict:
            ds, id_col, text_col = side

            def fn(batch: pa.Table) -> pa.Table:
                ids = batch[id_col]
                if pa.types.is_null(ids.type):
                    # an all-null-id block (e.g. a one-row from_items
                    # block) types its column as null, and is_in raises on
                    # the type mismatch; null ids are non-members anyway
                    return pa.table({"_pid": pa.array([], need.type),
                                     "_ptxt": batch[text_col].slice(0, 0)})
                t = batch.filter(pc.is_in(ids, value_set=need))
                return pa.table({"_pid": t[id_col], "_ptxt": t[text_col]})

            fn.__name__ = "pick_pair_texts"
            t = collect_small(ds.map_batches(fn, batch_format="pyarrow"))
            return dict(zip(t["_pid"].to_pylist(), t["_ptxt"].to_pylist()))

        if same:
            ta = tb = pick(left, pc.unique(pa.chunked_array(
                pairs["id_a"].chunks + pairs["id_b"].chunks)))
        else:
            ta = pick(left, pc.unique(pairs["id_a"]))
            tb = pick(right, pc.unique(pairs["id_b"]))
        ia, ib = pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()
        jac = _pair_jaccard(ia, ib, [ta.get(i) for i in ia],
                            [tb.get(i) for i in ib], shingle_k, same=same)
        return rd.from_arrow(verified(pairs["id_a"], pairs["id_b"], jac))

    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs)

    def proj(side, tag):
        ds, id_col, text_col = side

        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({f"_id{tag}": batch[id_col], f"_t{tag}": batch[text_col]})

        fn.__name__ = f"project_texts_{tag}"
        return ds.map_batches(fn, batch_format="pyarrow")

    def wire(s, id_col, text_col, tag):
        if s is None:  # hash_join materializes the projection for it
            return None
        return pa.schema([(f"_id{tag}", s.field(id_col).type),
                          (f"_t{tag}", s.field(text_col).type)])

    # explicit wire schemas keep both joins streaming: the pairs are
    # materialized (schema known for free) and the side schemas were
    # given or inferred without executing anything
    pair_schema = _ds_arrow_schema_lazy(pairs)
    wa, wb = wire(ls, lid, ltext, "a"), wire(rs, rid, rtext, "b")
    with_a = hash_join(pairs, proj(left, "a"), on="id_a", right_on="_ida",
                       left_schema=pair_schema, right_schema=wa)
    with_ab = hash_join(
        with_a, proj(right, "b"), on="id_b", right_on="_idb",
        left_schema=pa.schema(list(pair_schema) + list(wa)) if wa is not None else None,
        right_schema=wb,
    )

    def verify_text_pairs(batch: pa.Table) -> pa.Table:
        jac = _pair_jaccard(
            batch["id_a"].to_pylist(), batch["id_b"].to_pylist(),
            batch["_ta"].to_pylist(), batch["_tb"].to_pylist(), shingle_k,
            same=same,
        )
        return verified(batch["id_a"], batch["id_b"], jac)

    return with_ab.map_batches(verify_text_pairs, batch_format="pyarrow")


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
):
    """MinHash+LSH candidate pairs with signature-estimated Jaccard.

    Returns a Dataset of ``(id_a, id_b, est_jaccard)`` rows with
    ``est_jaccard >= threshold`` (id_a < id_b, deduplicated).

    ``verify="broadcast"`` ships the id->signature map once via
    ``ray.put`` (right up to ~10M docs at 64 perms ≈ 5 GB);
    ``verify="shuffle"`` instead routes signatures TO the candidate
    pairs with two keyed-shuffle hash joins — no driver materialization,
    the 100-TB path.  ``verify="exact"`` reports the TRUE char-k-gram
    Jaccard instead (in ``est_jaccard``): the distinct pairs, an estimate
    prefilter, then the text verify shared with ``fuzzy_join``; each
    step holds only O(candidate pairs) on the driver, and moves to keyed
    exchanges above ``_DRIVER_PAIRS`` / ``_SPARSE_TEXT_PAIRS``, so it is
    ceiling-free too.
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
        # exact-Jaccard verify: the distinct pairs, then an est-Jaccard
        # PREFILTER at (threshold - margin) kills the ~99% of
        # band-collision pairs that are nowhere near the threshold
        # (margin 0.25 = 5 sigma of the 64-perm estimator at j=0.8 ->
        # miss prob ~1e-6 per true pair; without it every candidate pair
        # pays the text fetch), then the TRUE char k-gram Jaccard decides
        # (``_verify_text_pairs``, shared with fuzzy_join) — no estimation
        # error at the decision boundary.  With full banding recall at
        # the threshold (miss prob (1 - j^rows)^bands per pair) the
        # result equals the exact all-pairs answer, which is what makes
        # the DuckDB oracle for minhash_dedup_documents exact.  No step
        # builds a driver-side corpus structure: what reaches the driver
        # is O(candidate pairs), and above the helpers' bounds nothing does.
        from .joins import _ds_arrow_schema_lazy

        in_schema = _ds_arrow_schema_lazy(ds)
        text_t = in_schema.field(text_col).type if in_schema is not None else pa.string()
        # id type from the (already-materialized) signature table
        wire = pa.schema([_ds_arrow_schema_lazy(sig_ds).field(id_col),
                          pa.field(text_col, text_t)])
        pairs = _est_prefilter(_distinct_pairs(cand), sig_ds, id_col, num_perm,
                               max(0.0, threshold - 0.25))
        side = (ds, id_col, text_col)
        return _verify_text_pairs(
            pairs, side, side, threshold=threshold, shingle_k=shingle_k,
            names=("id_a", "id_b", "est_jaccard"), schemas=(wire, wire),
        )

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

        from .util_ray import broadcast_cached, collect_small

        sig_small = collect_small(sig_ds)
        sig_map = {
            i: np.asarray(s, dtype=np.int64)
            for i, s in zip(sig_small[id_col].to_pylist(), sig_small["_sig"].to_pylist())
        }
        ref = ray.put(sig_map)

        def verify_fn(batch: pa.Table) -> pa.Table:
            sigs = broadcast_cached(ref)
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
    100-TB path), or ``"exact"`` (true char-k-gram Jaccard over only the
    pair-touched signatures and texts, by keyed-shuffle joins at scale;
    what the DuckDB oracle checks).  Both ``"shuffle"`` and ``"exact"`` build no
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
        # same pair can surface from several bands: one exchange drops
        # the copies so label propagation sees each edge once
        uniq = partitioned_map(cand, ["id_a", "id_b"], _drop_duplicate_pairs)
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

    def bucketize(batch: pa.Table) -> pa.Table:
        embs = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
        code = quantized_lsh_codes(
            embs, md5_int_planes(num_planes, embs.shape[1], tag=f"emb{seed}"))
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
