"""Near-duplicate detection at corpus scale: MinHash+LSH, SimHash,
n-gram Jaccard verification, embedding-cosine near-dup.

These are the training-data-pipeline deduplicators (beyond the
reference's LLM ``resolve``; same role as its embedding blocking,
``/root/reference/docetl/operations/resolve.py:296-340``) built
shuffle-consciously:

  shingle/minhash per batch (vectorized numpy; ``_sig_and_bands``)
    -> explode to (band bucket, id) rows (``_band_rows``)
    -> ONE keyed exchange on the band bucket (``_est_pairs``)
       -> candidate pairs per bucket
    -> verify: ``_distinct_pairs`` -> ``_est_prefilter`` (signature-
       estimated Jaccard over the pair-touched signatures only); at the
       threshold that is the answer (``verify="estimate"``), and at
       threshold - margin it prefilters ``_verify_text_pairs`` (true
       char-k-gram Jaccard, ``_pair_jaccard``; ``verify="exact"``, the
       pipeline shared with ``fuzzy_join``).  Both scores go through one
       pair-value step, ``_scored_pairs``: on the driver under its size
       bound, two keyed-shuffle joins above it
    -> connected components (``_components``) -> canonical id per cluster

The incremental MinHash index (``cdc.dedup_index``) runs the same steps
on its epoch's signatures: the estimate against the index's signatures
for the epoch-vs-index pairs, then ``_est_pairs`` and ``_components``
within the epoch.

Connected components follow the same rule: thresholded edges are a tiny
fraction of the corpus, so up to ``_DRIVER_PAIRS`` of them run through
the driver's union-find (a dict canonical map); more run through
``connected_components_distributed`` — min-label propagation with
pointer jumping, each round one keyed-shuffle join + one partial-combined
grouped min, run until no label changes — and the canonical map is an
``(id, label)`` Dataset.  The keep-filter and the label attach follow
the form the map came back in.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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


# Candidate-pair verification, shared by ``minhash_candidates``, the
# incremental MinHash index (``cdc.dedup_index``) and ``fuzzy_join``: the
# distinct pairs, their signature estimate, then (for ``verify="exact"``)
# the exact shingle Jaccard of their texts.  Both scores go through one
# pair-value step, ``_scored_pairs``: up to its bound it runs on the
# driver (only pair ids, then the pair-touched signatures or texts, are
# collected); above it two keyed-shuffle hash joins route the values to
# the pairs.  The estimate's bound is ``_DRIVER_PAIRS``, the text
# verify's ``_SPARSE_TEXT_PAIRS``; both are driver memory.
# ``_components`` puts connected components on the pair bound too, and
# there too it is driver memory, not a speed crossover: on one CPU the
# union-find beat min-label propagation at every size measured (1M pair
# edges: 1.9 s vs 5.1 s; 2M: 3.1 s vs 8.3 s) while its dict grew the
# driver by ~190 MB per 1M edges.  The text bound assumes ~KB texts: up
# to twice as many texts as pairs are collected.
_DRIVER_PAIRS = 2_000_000  # raw pairs deduplicated / scored / edges unioned on the driver
_SPARSE_TEXT_PAIRS = 100_000  # distinct pairs text-verified on the driver


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


def _id_type(ds, col: str, schema=None) -> pa.DataType:
    """``ds``'s ``col`` type, to type an empty result: read from the
    upstream when Ray knows no lazy schema (an empty ``from_arrow``)."""
    from .joins import _ds_arrow_schema, _ds_arrow_schema_lazy

    s = schema or _ds_arrow_schema_lazy(ds) or _ds_arrow_schema(ds)
    return s.field(col).type if col in s.names else pa.int64()


def _pick(side, need: pa.Array) -> pa.Table:
    """``(_pid, _pval)``: the id and value of every row of ``side`` =
    ``(Dataset, id column, value column)`` whose id is in ``need``, from
    one map-only pass collected on the driver."""
    from .util_ray import closure_broadcast, collect_small

    ds, id_col, val_col = side
    # sorted once so per-batch membership below is a searchsorted —
    # pc.is_in would rebuild its hash set from the value_set on EVERY
    # batch, and a bare closure over a multi-MB array would ship per
    # task instead of once per worker
    get_need = closure_broadcast(np.sort(need.to_numpy(zero_copy_only=False)))
    need_type = need.type

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        if pa.types.is_null(ids.type):
            # an all-null-id block (e.g. a one-row from_items block)
            # types its column as null; null ids are non-members
            return pa.table({"_pid": pa.array([], need_type),
                             "_pval": batch[val_col].slice(0, 0)})
        # drop null ids FIRST: a None inside an object array makes
        # searchsorted raise, and a null in an int64 column degrades
        # to_numpy to float64, breaking bit-exact id comparison past 2^53
        if ids.null_count:
            batch = batch.filter(pc.is_valid(ids))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids):
            need = get_need()
            ix = np.minimum(np.searchsorted(need, ids), len(need) - 1)
            batch = batch.filter(pa.array(np.asarray(need[ix] == ids, dtype=bool)))
        return pa.table({"_pid": batch[id_col], "_pval": batch[val_col]})

    pick.__name__ = "pick_pair_values"
    return collect_small(ds.map_batches(pick, batch_format="pyarrow"))


def _matches(ids, pid) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, r)`` with ``ids[i] == pid[r]``, and ``(i, -1)`` for an
    ``ids[i]`` that ``pid`` does not hold: one Arrow hash join, so an id
    picked more than once matches each of its rows."""
    j = pa.table({"_k": ids, "_i": pa.array(np.arange(len(ids)))}).join(
        pa.table({"_k": pid.cast(ids.type), "_r": pa.array(np.arange(len(pid)))}),
        "_k", join_type="left outer", use_threads=False,
    )
    return j["_i"].to_numpy(), j["_r"].fill_null(-1).to_numpy()


def _scored_pairs(pairs, left, right, *, bound: int, score, threshold: float,
                  names, schemas=(None, None)):
    """The one pair-value step: the pairs of ``pairs`` whose ``score`` is
    at least ``threshold``, as columns ``names`` = (id_a, id_b, score) —
    ``id_a`` naming a ``left`` row and ``id_b`` a ``right`` row.

    ``pairs`` is an Arrow table or a materialized Dataset of distinct
    ``(id_a, id_b)`` (other columns are ignored).  ``left`` / ``right``
    are ``(Dataset, id column, value column)`` and ``schemas`` their wire
    schemas (None: inferred lazily when Ray can; an empty result is typed
    by ``_id_type``).  ``score(ids_a, ids_b, va, ra, vb, rb)`` returns one
    float per pair: ``va`` is an Arrow array of ``left`` values and ``ra``
    each pair's position in it, -1 for an id ``left`` does not hold (``vb``
    / ``rb`` likewise; ``vb is va`` when both sides are the same Dataset).

    Up to ``bound`` pairs are scored on the driver, in one call, and come
    back as an Arrow table: one ``_pick`` pass per side (one when both
    sides are the same Dataset) fetches the values of exactly the
    pair-touched ids, and a pair whose id a side holds twice scores its
    best combination.  More get the values routed to them by two
    keyed-shuffle hash joins (no corpus structure on the driver), are
    scored per batch on aligned rows and come back as a lazy Dataset."""
    import ray.data as rd

    from .joins import _ds_arrow_schema_lazy, hash_join
    from .util_ray import collect_small

    same = left == right
    (lds, lid, _), (rds, rid, _) = left, right
    ls = schemas[0] or _ds_arrow_schema_lazy(lds)
    rs = schemas[1] or _ds_arrow_schema_lazy(rds)

    def scored(ids_a, ids_b, s) -> pa.Table:
        out = pa.table({names[0]: ids_a, names[1]: ids_b,
                        names[2]: pa.array(s, pa.float64())})
        return out.filter(pc.greater_equal(out[names[2]], threshold))

    n = pairs.num_rows if isinstance(pairs, pa.Table) else pairs.count()
    if n == 0:
        return pa.schema([
            (names[0], _id_type(lds, lid, ls)), (names[1], _id_type(rds, rid, rs)),
            (names[2], pa.float64()),
        ]).empty_table()

    if n <= bound:
        if not isinstance(pairs, pa.Table):
            pairs = collect_small(pairs)
        ia, ib = pairs["id_a"], pairs["id_b"]
        if same:
            ta = tb = _pick(left, pc.unique(pa.chunked_array(ia.chunks + ib.chunks)))
        else:
            ta, tb = _pick(left, pc.unique(ia)), _pick(right, pc.unique(ib))
        va = ta["_pval"]
        vb = va if same else tb["_pval"]
        # each (pair, a row, b row): a side may hold an id more than once
        # (the corpus id column is not guaranteed unique, and an index
        # holds an id once per epoch that kept it), and a pair then
        # scores its best combination, as the joins above the bound do
        i, ra = _matches(ia, ta["_pid"])
        k, rb = _matches(ib.take(i), tb["_pid"])
        i, ra = i[k], ra[k]
        s = score(ia.take(i), ib.take(i), va, ra, vb, rb)
        best = np.full(n, -np.inf)
        if len(i) == n:
            best[i] = s
        else:
            np.maximum.at(best, i, s)
        return scored(ia, ib, best)

    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs)

    def proj(side, tag):
        ds, id_col, val_col = side

        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({f"_id{tag}": batch[id_col], f"_v{tag}": batch[val_col]})

        fn.__name__ = f"project_values_{tag}"
        return ds.map_batches(fn, batch_format="pyarrow")

    def wire(s, side, tag):
        if s is None:  # hash_join materializes the projection for it
            return None
        return pa.schema([(f"_id{tag}", s.field(side[1]).type),
                          (f"_v{tag}", s.field(side[2]).type)])

    # explicit wire schemas keep both joins streaming: the pairs are
    # materialized (schema known for free) and the side schemas were
    # given or inferred without executing anything
    pair_schema = _ds_arrow_schema_lazy(pairs)
    wa, wb = wire(ls, left, "a"), wire(rs, right, "b")
    with_a = hash_join(pairs, proj(left, "a"), on="id_a", right_on="_ida",
                       left_schema=pair_schema, right_schema=wa)
    with_ab = hash_join(
        with_a, proj(right, "b"), on="id_b", right_on="_idb",
        left_schema=pa.schema(list(pair_schema) + list(wa)) if wa is not None else None,
        right_schema=wb,
    )

    def score_rows(batch: pa.Table) -> pa.Table:
        rows = np.arange(batch.num_rows)
        ia, ib = batch["id_a"], batch["id_b"]
        return scored(ia, ib, score(ia, ib, batch["_va"], rows, batch["_vb"], rows))

    score_rows.__name__ = "score_pairs"
    return with_ab.map_batches(score_rows, batch_format="pyarrow")


def _sig_matrix(sigs, num_perm: int) -> np.ndarray:
    """A ``list<int64>`` signature column as a zero-copy ``(n, num_perm)``
    view."""
    if isinstance(sigs, pa.ChunkedArray):
        sigs = sigs.combine_chunks()
    return pc.list_flatten(sigs).to_numpy(zero_copy_only=False).reshape(len(sigs), num_perm)


def _est_prefilter(pairs, left, right, num_perm: int, thr: float):
    """The distinct pairs whose signature-estimated Jaccard is at least
    ``thr``, as ``(id_a, id_b, est_jaccard)``: ``_scored_pairs`` under
    ``_DRIVER_PAIRS`` over the two sides' signatures, ``left`` / ``right``
    = ``(Dataset of (id, _sig), id column)`` (the same pair twice for one
    corpus).  An Arrow table from the driver, else a materialized
    Dataset; O(pairs) on the driver either way, never O(corpus)."""

    def est(ids_a, ids_b, va, ra, vb, rb) -> np.ndarray:
        if (ra < 0).any() or (rb < 0).any():
            # -1 would silently np.take the LAST row's signature
            missing = (set(ids_a.to_numpy(zero_copy_only=False)[ra < 0])
                       | set(ids_b.to_numpy(zero_copy_only=False)[rb < 0]))
            raise KeyError(f"minhash prefilter: pair ids missing from "
                           f"signature table: {sorted(missing)[:5]}")
        ma = _sig_matrix(va, num_perm)
        mb = ma if vb is va else _sig_matrix(vb, num_perm)
        out = np.empty(len(ra), dtype=np.float64)
        # column-wise accumulation into PREALLOCATED buffers: a full
        # (pairs, num_perm) fancy-index gather allocates O(pairs x
        # num_perm x 8 B) of fresh pages, and first-touch page-fault cost
        # dominated the vectorized compare by 30-50x (2.4-4.5 s vs 0.09 s
        # for 155k pairs on one host); per-perm int64 ``np.take(...,
        # out=)`` keeps the working set at O(pairs) whatever num_perm is,
        # and chunking bounds that too
        for lo in range(0, len(ra), 1_000_000):
            ch_a, ch_b = ra[lo:lo + 1_000_000], rb[lo:lo + 1_000_000]
            n_ch = len(ch_a)
            acc = np.zeros(n_ch, dtype=np.int32)
            eq = np.empty(n_ch, dtype=bool)
            ca = np.empty(n_ch, dtype=np.int64)
            cb = np.empty(n_ch, dtype=np.int64)
            for j in range(num_perm):
                np.take(ma[:, j], ch_a, out=ca)
                np.take(mb[:, j], ch_b, out=cb)
                np.equal(ca, cb, out=eq)
                acc += eq
            out[lo:lo + n_ch] = acc / num_perm
        return out

    out = _scored_pairs(pairs, (*left, "_sig"), (*right, "_sig"), bound=_DRIVER_PAIRS,
                        score=est, threshold=thr, names=("id_a", "id_b", "est_jaccard"))
    return out if isinstance(out, pa.Table) else out.materialize()


def _verify_text_pairs(pairs, left, right, *, threshold: float, shingle_k: int,
                       names, schemas=(None, None)):
    """The distinct candidate pairs whose texts' exact char-k-gram
    Jaccard is at least ``threshold``, as a Dataset with columns
    ``names`` = (id_a, id_b, Jaccard): ``_scored_pairs`` under
    ``_SPARSE_TEXT_PAIRS``, ``left`` / ``right`` being ``(Dataset, id
    column, text column)``."""
    import ray.data as rd

    same = left == right

    def jaccard(ids_a, ids_b, va, ra, vb, rb) -> np.ndarray:
        ta = va.to_pylist()
        tb = ta if vb is va else vb.to_pylist()
        return _pair_jaccard(
            ids_a.to_pylist(), ids_b.to_pylist(),
            [ta[r] if r >= 0 else None for r in ra.tolist()],
            [tb[r] if r >= 0 else None for r in rb.tolist()], shingle_k, same=same,
        )

    out = _scored_pairs(pairs, left, right, bound=_SPARSE_TEXT_PAIRS, score=jaccard,
                        threshold=threshold, names=names, schemas=schemas)
    return rd.from_arrow(out) if isinstance(out, pa.Table) else out


def minhash_candidates(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    verify: str = "estimate",
):
    """MinHash+LSH candidate pairs with their Jaccard.

    Returns a Dataset of ``(id_a, id_b, est_jaccard)`` rows with
    ``est_jaccard >= threshold`` (id_a < id_b, deduplicated).

    ``verify="estimate"``: ``est_jaccard`` is the signature estimate —
    the distinct pairs, then ``_est_prefilter`` at the threshold.
    ``verify="exact"`` reports the TRUE char-k-gram Jaccard instead: the
    same two steps at threshold - margin, then the text verify shared
    with ``fuzzy_join``.  Either way each step holds only O(candidate
    pairs) on the driver — never an O(corpus) signature map — and moves
    to keyed exchanges above ``_DRIVER_PAIRS`` / ``_SPARSE_TEXT_PAIRS``,
    so neither carries a corpus-size ceiling.
    """
    out = _minhash_pairs(ds, text_col, id_col, num_perm=num_perm, bands=bands,
                         shingle_k=shingle_k, threshold=threshold, verify=verify)
    if isinstance(out, pa.Table):
        import ray.data as rd

        return rd.from_arrow(out)
    return out


def _sig_and_bands(ds, text_col: str, id_col: str, *, num_perm: int, bands: int,
                   shingle_k: int):
    """Per-doc MinHash signatures as a materialized ``(id, _sig)``
    Dataset, and its lazy ``(bucket, id)`` LSH band rows -- the one
    signature pass of ``minhash_dedup`` and of an incremental MinHash
    index epoch (``cdc.dedup_index``)."""
    a, b = _perm_params(num_perm)

    def sig_table(batch: pa.Table) -> pa.Table:
        # a null id cannot participate in pair identity (band-bucket
        # pair generation sorts/compares ids, and None vs str raises);
        # drop such rows here — same semantics as the membership
        # filters downstream, which treat null as non-member
        batch = batch.filter(pc.is_valid(batch[id_col]))
        texts = batch[text_col].to_pylist()
        sigs = minhash_signatures_batch(texts, a, b, shingle_k).astype(np.int64)
        flat = pa.array(sigs.reshape(-1), pa.int64())
        col = pa.FixedSizeListArray.from_arrays(flat, num_perm).cast(
            pa.list_(pa.int64())
        )
        return pa.table({id_col: batch[id_col], "_sig": col})

    sig_ds = ds.map_batches(sig_table, batch_format="pyarrow").materialize()
    return sig_ds, _band_rows(sig_ds, id_col, num_perm=num_perm, bands=bands)


def _band_rows(sig_ds, id_col: str, *, num_perm: int, bands: int):
    """The lazy ``(bucket, id)`` LSH band rows of any ``(id, _sig)``
    signature Dataset."""
    rows_per_band = num_perm // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: batch[id_col]})
        bucket, ids_rep = _band_buckets_vec(_sig_matrix(batch["_sig"], num_perm),
                                            batch[id_col], bands, rows_per_band)
        return pa.table({"bucket": bucket, id_col: ids_rep})

    return sig_ds.map_batches(band_rows, batch_format="pyarrow")


def _est_pairs(sig_ds, banded, id_col: str, num_perm: int, thr: float):
    """The near-dup pairs of one signature table and its ``(bucket, id)``
    band rows: each LSH bucket's ``(id_a, id_b)`` pairs (id_a < id_b),
    the distinct ones (a pair surfaces once per band it collides in),
    then their signature estimate at ``thr`` over the pair-touched
    signatures only (``_est_prefilter``'s form).

    ONE task per hash partition of ``bucket`` (not per bucket): a
    per-bucket map_groups pays ~ms pandas overhead per LSH bucket and
    there are ~#docs × bands buckets; partitioned_map keeps whole
    buckets co-located through the take()-based exchange while the pair
    generation runs vectorized across buckets inside the task."""

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
    side = (sig_ds, id_col)
    return _est_prefilter(_distinct_pairs(cand), side, side, num_perm, thr)


def _minhash_pairs(ds, text_col: str, id_col: str, *, num_perm: int, bands: int,
                   shingle_k: int, threshold: float, verify: str):
    """``minhash_candidates``' pairs in the form the last step left them:
    the estimate verify's driver branch returns its Arrow table, so
    ``minhash_dedup`` hands it to ``_components`` without a round trip
    through the object store."""
    if verify not in ("estimate", "exact"):
        raise ValueError(f"verify must be 'estimate' or 'exact', got {verify!r}")
    # band rows carry ONLY (bucket, id) — the signatures stay a compact
    # materialized side table that verification reads only for the ids
    # in candidate pairs
    sig_ds, banded = _sig_and_bands(ds, text_col, id_col, num_perm=num_perm,
                                    bands=bands, shingle_k=shingle_k)
    if verify == "estimate":
        return _est_pairs(sig_ds, banded, id_col, num_perm, threshold)

    # exact-Jaccard verify: the estimate as a PREFILTER at (threshold -
    # margin) kills the ~99% of band-collision pairs that are nowhere
    # near the threshold (margin 0.25 = 5 sigma of the 64-perm estimator
    # at j=0.8 -> miss prob ~1e-6 per true pair; without it every
    # candidate pair pays the text fetch), then the TRUE char k-gram
    # Jaccard decides (``_verify_text_pairs``, shared with fuzzy_join) —
    # no estimation error at the decision boundary.  With full banding
    # recall at the threshold (miss prob (1 - j^rows)^bands per pair) the
    # result equals the exact all-pairs answer, which is what makes the
    # DuckDB oracle for minhash_dedup_documents exact.
    from .joins import _ds_arrow_schema_lazy

    in_schema = _ds_arrow_schema_lazy(ds)
    text_t = in_schema.field(text_col).type if in_schema is not None else pa.string()
    # id type from the (already-materialized) signature table
    wire = pa.schema([_ds_arrow_schema_lazy(sig_ds).field(id_col),
                      pa.field(text_col, text_t)])
    pairs = _est_pairs(sig_ds, banded, id_col, num_perm, max(0.0, threshold - 0.25))
    side = (ds, id_col, text_col)
    return _verify_text_pairs(
        pairs, side, side, threshold=threshold, shingle_k=shingle_k,
        names=("id_a", "id_b", "est_jaccard"), schemas=(wire, wire),
    )


def connected_components(edges: pa.Table) -> dict:
    """Driver-side union-find over candidate edges -> {id: canonical_id}
    for every id that is not its component's minimum.

    Edges are the *thresholded* candidates (sparse by construction);
    ``_components`` sends edge sets above ``_DRIVER_PAIRS`` to
    ``connected_components_distributed`` instead.
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


def connected_components_distributed(edges, *, num_partitions: int = 32):
    """Distributed connected components by min-label propagation with
    pointer jumping.

    ``edges``: Dataset with ``id_a``/``id_b`` columns.  Returns a Dataset
    ``(id, label)`` covering every id that appears in an edge, with
    ``label`` = the minimum id of its connected component.

    Each round is ONE keyed-shuffle hash join plus one partial-combined
    grouped min — no driver-side state, so the edge set may exceed
    single-machine memory.  The join offers every id the labels of its
    neighbours and the label of its own label (``L(v) <- L(L(v))``), so
    a label travels a doubling distance per round along a path instead
    of one hop: the capped chains ``_bucket_pair_indices`` builds in a
    degenerate bucket (diameter ~ n / window) settle in about
    log2(diameter) rounds, and no graph takes more than its diameter + 1.  Every
    label is an id of the same component and labels never increase, so
    the rounds run until no id's label changed (counted against its
    previous label, which works for any id type); at that fixpoint each
    component carries its minimum id.

    Reference anchor: the clustering step of resolve
    (``/root/reference/docetl/operations/resolve.py:441-477``) — an
    in-process union-find recast as iterated shuffles.
    """
    import ray.data as rd

    from .joins import hash_join
    from .reduces import global_aggregate, grouped_aggregate

    edges = edges.materialize()
    idt = _id_type(edges, "id_a")
    if edges.count() == 0:
        return rd.from_arrow(pa.schema([("id", idt), ("label", idt)]).empty_table())
    req_schema = pa.schema([("src", idt), ("dst", idt)])
    # labels carry the previous round's label as ``prev`` for the
    # convergence count
    lab_schema = pa.schema([("id", idt), ("label", idt), ("prev", idt)])

    def symmetrize(batch: pa.Table) -> pa.Table:
        fwd = pa.table({"src": batch["id_a"], "dst": batch["id_b"]})
        rev = pa.table({"src": batch["id_b"], "dst": batch["id_a"]})
        return pa.concat_tables([fwd, rev]).combine_chunks()

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()

    # 1-hop head start: label(v) = min(v, min neighbor)
    def init_label(batch: pa.Table) -> pa.Table:
        lab = pc.min_element_wise(batch["src"], batch["_mindst"])
        return pa.table({"id": batch["src"], "label": lab, "prev": batch["src"]})

    labels = (
        grouped_aggregate(sym, ["src"], [("dst", "min", "_mindst")])
        .map_batches(init_label, batch_format="pyarrow")
        .materialize()
    )

    def jump(batch: pa.Table) -> pa.Table:
        # ask label(v) for its own label, on behalf of v
        t = batch.filter(pc.not_equal(batch["id"], batch["label"]))
        return pa.table({"src": t["label"], "dst": t["id"]})

    def offer(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["dst"], "label": batch["label"],
                         "prev": pa.nulls(batch.num_rows, idt)})

    def current(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["id"], "label": batch["label"],
                         "prev": batch["label"]})

    def changed(batch: pa.Table) -> pa.Table:
        ne = pc.cast(pc.not_equal(batch["label"], batch["prev"]), pa.int64())
        return pa.table({"n": [pc.sum(ne).as_py() or 0]})

    n_changed = 1
    while n_changed:
        requests = sym.union(labels.map_batches(jump, batch_format="pyarrow"))
        offers = hash_join(
            requests, labels, on="src", right_on="id", num_buckets=num_partitions,
            left_schema=req_schema, right_schema=lab_schema,
        ).map_batches(offer, batch_format="pyarrow")
        labels = grouped_aggregate(
            offers.union(labels.map_batches(current, batch_format="pyarrow")),
            ["id"], [("label", "min", "label"), ("prev", "min", "prev")],
        ).materialize()
        n_changed = global_aggregate(
            labels.map_batches(changed, batch_format="pyarrow"), [("n", "sum", "n")]
        )["n"]
    return labels.map_batches(lambda t: t.select(["id", "label"]),
                              batch_format="pyarrow")


def _components(edges):
    """Connected components of the thresholded edges (an Arrow table or
    a Dataset with ``id_a`` / ``id_b`` columns, each edge at least once),
    placed by their count — block metadata once the Dataset is
    materialized: up to ``_DRIVER_PAIRS`` edges go through the driver's
    union-find and come back as the ``connected_components`` dict; more
    go through ``connected_components_distributed`` and come back as its
    ``(id, label)`` Dataset.  ``_keep_representatives`` and
    ``_attach_labels`` take either form."""
    from .util_ray import collect_small

    if not isinstance(edges, pa.Table):
        edges = edges.materialize()
        if edges.count() > _DRIVER_PAIRS:
            return connected_components_distributed(edges)
        edges = collect_small(edges)
    return connected_components(edges)


def _drop_ids(ds, id_col: str, ids):
    """``ds`` without the rows whose id is in ``ids``: an Arrow array is
    one vectorized ``pc.is_in`` filter per batch; a Dataset of one ``id``
    column is a keyed-shuffle anti join."""
    if not isinstance(ids, (pa.Array, pa.ChunkedArray)):
        from .joins import hash_join

        return hash_join(ds, ids, on=id_col, right_on="id", how="anti")

    def keep(batch: pa.Table) -> pa.Table:
        if len(ids) == 0:
            return batch
        return batch.filter(pc.invert(pc.is_in(batch[id_col], value_set=ids)))

    return ds.map_batches(keep, batch_format="pyarrow")


def _keep_representatives(ds, id_col: str, cmap):
    """Drop every row of ``ds`` that is not its component's minimum id:
    the keys of a ``_components`` dict, or the ``id != label`` rows of a
    label Dataset (``_drop_ids``)."""
    if isinstance(cmap, dict):
        return _drop_ids(ds, id_col, pa.array(sorted(cmap)))
    return _drop_ids(ds, id_col, cmap.map_batches(
        lambda t: t.filter(pc.not_equal(t["id"], t["label"])).select(["id"]),
        batch_format="pyarrow",
    ))


def minhash_dedup(
    ds,
    text_col: str,
    id_col: str,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.7,
    verify: str = "estimate",
):
    """End-to-end near-dup removal: keep one representative (min id) per
    near-duplicate cluster.  Returns (deduped_ds, canonical_map).

    ``verify`` is ``minhash_candidates``': ``"estimate"`` (signature
    estimate) or ``"exact"`` (true char-k-gram Jaccard; what the DuckDB
    oracle checks).  Components run through ``_components``:
    ``canonical_map`` is a dict ``{id: min id}`` of the non-minimum ids
    when the verified edges fit the driver bound, else an ``(id, label)``
    Dataset covering every id in an edge (the keep-filter is then an anti
    join).  No step holds an O(corpus) structure on the driver."""
    cmap = _components(_minhash_pairs(
        ds, text_col, id_col,
        num_perm=num_perm, bands=bands, shingle_k=shingle_k, threshold=threshold,
        verify=verify,
    ))
    return _keep_representatives(ds, id_col, cmap), cmap


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
    per row.  Returns (ds with ``output_col``, canonical_map).

    The same pair can surface from several bands: ``_distinct_pairs``
    drops the copies, and ``_components`` places the components by the
    distinct edge count — a driver union-find dict attached by a
    broadcast binary search, or above ``_DRIVER_PAIRS`` min-label
    propagation attached by a keyed-shuffle join.  Either way the
    per-row attach is vectorized, never a per-row dict lookup."""
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
    cmap = _components(_distinct_pairs(cand))
    return _attach_labels(ds, id_col, cmap, output_col), cmap


def _attach_labels(ds, id_col: str, cmap, output_col: str):
    """Attach ``output_col`` = the row's component label (itself when it
    is in no edge) for either form ``_components`` returns."""
    if isinstance(cmap, dict):
        return _attach_labels_broadcast(ds, id_col, cmap, output_col)
    return _attach_labels_join(ds, id_col, cmap, output_col)


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
    (ids without an edge keep themselves) — no driver materialization.
    The labels travel under private names, so an input column called
    ``id`` or ``label`` (or ``id_col == "id"``) survives the join."""
    from .joins import hash_join

    def private(batch: pa.Table) -> pa.Table:
        return pa.table({"_cc_id": batch["id"], "_cc_label": batch["label"]})

    joined = hash_join(
        ds, labels.map_batches(private, batch_format="pyarrow"),
        on=id_col, right_on="_cc_id", how="left",
    )

    def finish(batch: pa.Table) -> pa.Table:
        lab = pc.coalesce(
            pc.cast(batch["_cc_label"], batch[id_col].type), batch[id_col]
        )
        out = batch.drop_columns(["_cc_id", "_cc_label"])
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
):
    """Embedding near-dup: LSH-bucket by hyperplane sign code, then
    exact pairwise cosine within buckets -> candidate edges -> components.
    Returns (deduped_ds, canonical_map); as in ``minhash_dedup`` the map
    is a dict, or an ``(id, label)`` Dataset above ``_DRIVER_PAIRS``
    edges.

    Hyperplanes are md5-derived INTEGER planes applied to
    4096-quantized embeddings (``util_ray.md5_int_planes`` /
    ``quantized_lsh_codes``): bucket codes are exact integer arithmetic,
    reproducible bit-for-bit by a SQL oracle — which makes the engine's
    "same bucket AND cosine >= threshold" semantics exactly checkable
    (the oracle conditions on the buckets, so LSH recall is not part of
    the correctness claim)."""
    from .util_ray import md5_int_planes, quantized_lsh_codes

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
    cmap = _components(cand)
    return _keep_representatives(ds, id_col, cmap), cmap
