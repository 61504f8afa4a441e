"""Sampling / top-k stages: docetl ``sample`` and ``topk`` parity
(SURVEY.md §2.1 sample/topk; reference
``/root/reference/docetl/operations/sample.py:364-640``,
``operations/topk.py:144-235``) — deterministic, no LLM, scale-first.

Determinism strategy: anywhere the reference uses RNG (uniform sampling)
we use a content-hash keep-rule (md5 of the key column below a threshold)
so the same rows are chosen regardless of parallelism, block layout, or
run — and the rule is expressible in DuckDB for the oracle
(``substr(md5(key), 1, 8) < 'xxxxxxxx'``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def sample_first(ds, n: int):
    """Head-n (reference sample method="first", sample.py:364-371)."""
    return ds.limit(n)


def hash_threshold_for_frac(frac: float) -> str:
    """8-hex-digit md5 prefix threshold selecting ~frac of rows."""
    return f"{int(frac * 16**8):08x}"


def sample_uniform_hash(ds, key_col: str, frac: float):
    """Deterministic ~uniform sample: keep rows whose md5(key) prefix is
    below the threshold.  Oracle SQL:
    ``WHERE substr(md5(CAST(key AS VARCHAR)), 1, 8) < '<threshold>'``."""
    thr = hash_threshold_for_frac(frac)

    def fn(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[key_col], pa.string()).to_pylist()
        mask = [
            hashlib.md5(("" if k is None else k).encode()).hexdigest()[:8] < thr
            for k in keys
        ]
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_custom(ds, key_col: str, values):
    """Keep rows whose key is in an explicit list (sample method="custom",
    sample.py:434-453) — broadcast semi-filter, no shuffle."""
    vals = set(values)

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key_col], value_set=pa.array(list(vals))))

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_stratified(ds, stratify_cols, n_per_group: int, order_by):
    """n rows per group in deterministic order (samples_per_group mode,
    sample.py:248-302).  Oracle: row_number() OVER (PARTITION BY ...
    ORDER BY ...) <= n."""
    stratify_cols = (
        [stratify_cols] if isinstance(stratify_cols, str) else list(stratify_cols)
    )
    order_by = [order_by] if isinstance(order_by, str) else list(order_by)

    def head(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(order_by, kind="mergesort").head(n_per_group)

    # grouped_map's take()-based exchange instead of groupby.map_groups:
    # stratify keys are categorical so per-key fn calls are cheap either
    # way, but the sort shuffle pays seconds of fixed cost per invocation
    from .grouped import grouped_map

    return grouped_map(ds, stratify_cols, head)


def _topk_table(ds, sort_cols, k: int, descending) -> pa.Table:
    """Global top-k as one Arrow table in sort order, without a global
    sort: each block keeps its own top k (one ``map_batches`` call per
    block), and the driver sorts the at most k × blocks survivors once.
    k is small by contract.  Ties keep block order, and nulls sort last,
    as in ``Dataset.sort``."""
    from .util_ray import collect_small

    sort_cols = [sort_cols] if isinstance(sort_cols, str) else list(sort_cols)
    desc = descending if isinstance(descending, list) else [descending] * len(sort_cols)
    order = [(c, "descending" if d else "ascending") for c, d in zip(sort_cols, desc)]

    def head(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=order)[:k])

    top = collect_small(ds.map_batches(head, batch_format="pyarrow", batch_size=None))
    return head(top) if top.num_columns else top


def topk(ds, sort_cols, k: int, *, descending=True):
    """Global top-k in sort order (topk method=embedding/fts head, sample
    top_* tail).  ``descending``: one flag, or one per sort column."""
    import ray.data as rd

    return rd.from_arrow(_topk_table(ds, sort_cols, k, descending))


def topk_stratified(ds, stratify_cols, sort_col: str, k: int, *, descending: bool = True):
    """Top-k within each group (topk stratify_key, topk.py:144-180)."""
    stratify_cols = (
        [stratify_cols] if isinstance(stratify_cols, str) else list(stratify_cols)
    )

    def head(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            sort_col, ascending=not descending, kind="mergesort"
        ).head(k)

    from .grouped import grouped_map

    return grouped_map(ds, stratify_cols, head)


def rank_topk(ds, sort_cols, k: int, *, descending: bool = True, rank_col: str = "_rank"):
    """docetl ``rank`` head-k parity (rank.py:874-885): globally order,
    keep k, emit 1-based ``_rank``.  k is small by contract (the
    reference's rerank budget bounds it), so assigning ranks on the
    driver is O(k)."""
    import ray.data as rd

    t = _topk_table(ds, sort_cols, k, descending)
    return rd.from_arrow(
        t.append_column(rank_col, pa.array(np.arange(1, t.num_rows + 1), pa.int64()))
    )


def top_embedding(ds, emb_col: str, id_col: str, query_vec, k: int):
    """Cosine top-k against ONE query vector (sample method
    "top_embedding", sample.py:455-514) — thin wrapper over the ANN
    brute-force path (per-batch partials, tiny final merge)."""
    import numpy as np

    from .ann import ann_topk_bruteforce

    out = ann_topk_bruteforce(ds, emb_col, id_col, np.asarray([query_vec]), k=k)
    return out.drop_columns(["query_id"])


def top_fts(ds, text_col: str, id_col: str, query: str, k: int, *,
            k1: float = 1.5, b: float = 0.75):
    """BM25 full-text top-k (sample method "top_fts", sample.py:516-640)
    without materializing a corpus index: pass 1 aggregates document
    frequencies FOR THE QUERY TERMS ONLY (a tiny global aggregate), the
    stats are broadcast, and pass 2 scores each doc per batch ->
    ``topk(score)``."""
    import re

    import numpy as np

    word = re.compile(r"\w+", re.UNICODE)
    q_terms = sorted({w.lower() for w in word.findall(query)})
    if not q_terms:
        raise ValueError("empty query")

    def partial_stats(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        df = {t: 0 for t in q_terms}
        total_len = 0
        for s in texts:
            toks = [w.lower() for w in word.findall(s or "")]
            total_len += len(toks)
            st = set(toks)
            for t in q_terms:
                if t in st:
                    df[t] += 1
        row = {"n_docs": [len(texts)], "total_len": [total_len]}
        for t in q_terms:
            row[f"df_{t}"] = [df[t]]
        return pa.table(row)

    from .util_ray import collect_small

    stats = collect_small(ds.map_batches(partial_stats, batch_format="pyarrow"))
    n_docs = pc.sum(stats["n_docs"]).as_py()
    avg_len = (pc.sum(stats["total_len"]).as_py() or 1) / max(1, n_docs)
    idf = {
        t: float(np.log(1 + (n_docs - dfv + 0.5) / (dfv + 0.5)))
        for t, dfv in ((t, pc.sum(stats[f"df_{t}"]).as_py()) for t in q_terms)
    }

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        scores = []
        for s in texts:
            toks = [w.lower() for w in word.findall(s or "")]
            L = len(toks)
            tf: dict[str, int] = {}
            for w in toks:
                if w in idf:
                    tf[w] = tf.get(w, 0) + 1
            sc = 0.0
            for t, f in tf.items():
                sc += idf[t] * f * (k1 + 1) / (f + k1 * (1 - b + b * L / avg_len))
            scores.append(sc)
        return pa.table(
            {
                id_col: batch[id_col],
                "score": pa.array(scores, pa.float64()),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow")
    return topk(scored, ["score", id_col], k, descending=[True, False])


def sample_outliers_embedding(
    ds,
    emb_col: str,
    *,
    std_cutoff: float | None = None,
    samples: int | float | None = None,
    keep: str = "inliers",
    center: list | None = None,
):
    """Outlier filter by EUCLIDEAN DISTANCE FROM THE EMBEDDING CENTROID —
    the reference's actual outliers method (``sample.py:390-432``), which
    embeds rows and cuts on distance to the mean vector:

    - pass 1 (distributed): per-batch partial (count, per-dim sum, per-dim
      sum-of-squares) -> tiny driver reduce -> centroid + per-dim variance.
    - cutoff: ``std_cutoff`` mode: ``sqrt(sum(var)) * std_cutoff``
      (sample.py:413-417); ``samples`` mode: the n-th smallest distance,
      found with a distributed ``sort().limit()`` (sample.py:418-425).
    - pass 2 (distributed): vectorized distance filter against the
      broadcast centroid.  ``keep="outliers"`` keeps ``dist > cutoff``
      (the reference's ``keep=True``), else ``dist <= cutoff``.
    """
    import ray

    from .util_ray import collect_small

    def partial(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
        return pa.table(
            {
                "n": pa.array([len(m)], pa.int64()),
                "s": pa.array([m.sum(axis=0).tolist()], pa.list_(pa.float64())),
                "s2": pa.array([(m * m).sum(axis=0).tolist()], pa.list_(pa.float64())),
            }
        )

    stats = collect_small(ds.map_batches(partial, batch_format="pyarrow"))
    n = sum(stats["n"].to_pylist())
    s = np.asarray(stats["s"].to_pylist(), dtype=np.float64).sum(axis=0)
    s2 = np.asarray(stats["s2"].to_pylist(), dtype=np.float64).sum(axis=0)
    ctr = np.asarray(center, dtype=np.float64) if center is not None else s / n
    ctr_ref = ray.put(ctr)

    def with_dist(batch: pa.Table) -> pa.Table:
        c = ray.get(ctr_ref)
        m = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
        d = np.sqrt(((m - c) ** 2).sum(axis=1))
        return batch.append_column("_dist", pa.array(d, pa.float64()))

    if std_cutoff is not None:
        var = s2 / n - (s / n) ** 2  # population variance per dim
        cutoff = float(np.sqrt(var.sum()) * std_cutoff)
    elif samples is not None:
        n_samples = int(samples * n) if isinstance(samples, float) else samples
        idx = min(n_samples, n - 1)
        dists = (
            ds.map_batches(with_dist, batch_format="pyarrow")
            .select_columns(["_dist"])
            .sort("_dist")
            .limit(idx + 1)
        )
        cutoff = float(collect_small(dists)["_dist"][idx].as_py())
    else:
        raise ValueError("need std_cutoff or samples")

    def fn(batch: pa.Table) -> pa.Table:
        t = with_dist(batch)
        mask = (
            pc.greater(t["_dist"], cutoff)
            if keep == "outliers"
            else pc.less_equal(t["_dist"], cutoff)
        )
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_outliers(
    ds, value_col: str, *, std_cutoff: float | None = None, keep: str = "inliers"
):
    """Outlier filter by distance from the global mean (sample
    method="outliers", sample.py:390-432) — two passes: tiny global
    moment aggregate, then a broadcast threshold filter."""
    from .reduces import global_aggregate

    stats = global_aggregate(
        ds, [(value_col, "mean", "m"), (value_col, "count", "n"), (value_col, "sum", "s")]
    )
    # second moment pass
    m = stats["m"]

    def sq(batch: pa.Table) -> pa.Table:
        d = pc.subtract(pc.cast(batch[value_col], pa.float64()), m)
        return pa.table({"sq": pc.multiply(d, d)})

    sq_stats = global_aggregate(
        ds.map_batches(sq, batch_format="pyarrow"), [("sq", "mean", "var")]
    )
    std = float(np.sqrt(sq_stats["var"] or 0.0))
    cut = (std_cutoff if std_cutoff is not None else 2.0) * std

    def fn(batch: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(pc.cast(batch[value_col], pa.float64()), m))
        mask = pc.less_equal(d, cut) if keep == "inliers" else pc.greater(d, cut)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")
