"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC pipeline (WAL derived from
sf0.001 documents -> LWW upsert -> exactly-once Parquet lake) and
returns the live table state.  ``queries()`` exposes one callable per
implemented operator from SURVEY.md §2 (+ the training-data ops);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible one.  Ray is initialised by the driver BEFORE importing
this module — nothing here calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Callable
from typing import Any

SAMPLE_FRAC = 0.25


def _rp(sf_dir: str, name: str, columns=None):
    import pyarrow.parquet as pq
    import ray.data as rd

    import pyarrow as pa

    path = f"{sf_dir}/{name}.parquet"
    # strip pandas metadata from the file schema: metadata-bearing
    # pa.Schema is unhashable, which defeats Ray's schema-dedup fast path
    # and floods a warning per block.  With column pruning the schema
    # passed must be the PRUNED one (Ray validates block schemas against
    # it post-projection).
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, schema=schema, columns=columns)


def _typed_table(ds):
    """Materialize a (small, possibly empty) result Dataset into a pyarrow
    Table that keeps its column types.  ``Dataset.to_pandas()`` on a
    fully-filtered dataset yields a ZERO-COLUMN frame, which the driver's
    schema compare then fails on 0-row results — pinning the Dataset's own
    Arrow schema here preserves types regardless of row count.  ``ds`` is
    materialized first, so the schema and the collect read one execution."""
    from docetl_ray.stages.joins import _ds_arrow_schema
    from docetl_ray.stages.util_ray import collect_small

    ds = ds.materialize()
    schema = _ds_arrow_schema(ds)
    t = collect_small(ds)
    if t.num_columns == 0:
        return schema.empty_table()
    return t.select(schema.names).cast(schema)


def entry() -> Any:
    from docetl_ray.pipelines import cdc_flagship

    out = tempfile.mkdtemp(prefix="docetl_ray_entry_")
    shutil.rmtree(out, ignore_errors=True)
    return cdc_flagship("/root/testdata/sf0.001", out)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _q_map_filter_revenue(sf_dir):
    import pyarrow.compute as pc

    from docetl_ray.stages import code_filter, code_map

    ds = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"])
    # per-row double product: bit-identical in any IEEE-754 engine (no
    # rounding needed for the oracle compare)
    ds = code_map(
        ds,
        lambda t: t.append_column(
            "revenue",
            pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])),
        ),
    )
    ds = code_filter(ds, lambda t: pc.greater(t["l_quantity"], 30.0))
    return ds.select_columns(["l_orderkey", "l_linenumber", "l_quantity", "revenue"])


def _q_reduce_groupby_pricing(sf_dir):
    import pyarrow as pa
    import pyarrow.compute as pc

    from docetl_ray.stages import grouped_aggregate

    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
    # l_quantity is integer-valued, so double sums are exact regardless of
    # summation order; avg = exact_sum / count is a single deterministic
    # division — no rounding needed for the oracle compare.
    return grouped_aggregate(
        ds,
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty"),
            ("l_quantity", "mean", "avg_qty"),
            ("l_quantity", "count", "count_order"),
            ("l_extendedprice", "max", "max_price"),
        ],
    )


def _q_reduce_global(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages import global_aggregate

    ds = _rp(sf_dir, "orders", ["o_totalprice"])
    r = global_aggregate(
        ds,
        [("o_totalprice", "count", "n_orders"), ("o_totalprice", "max", "max_price"),
         ("o_totalprice", "min", "min_price")],
    )
    return pa.table({"n_orders": [r["n_orders"]], "max_price": [r["max_price"]],
                     "min_price": [r["min_price"]]})


def _q_join_broadcast(sf_dir):
    import pyarrow.parquet as pq

    from docetl_ray.stages import broadcast_join

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    out = broadcast_join(ds, nation, on="c_nationkey", right_on="n_nationkey", how="inner")
    return out.select_columns(["c_custkey", "c_name", "n_name"])


def _q_join_hash(sf_dir):
    from docetl_ray.stages import hash_join

    li = _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])
    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    out = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey", how="inner",
                    num_buckets=16)
    return out.select_columns(["l_orderkey", "l_linenumber", "o_orderstatus"])


def _q_join_semi(sf_dir):
    import pyarrow.parquet as pq

    from docetl_ray.stages import broadcast_join

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return broadcast_join(ds, orders, on="c_custkey", right_on="o_custkey", how="semi")


def _q_join_anti(sf_dir):
    import pyarrow.parquet as pq

    from docetl_ray.stages import broadcast_join

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    out = broadcast_join(ds, orders, on="c_custkey", right_on="o_custkey", how="anti")
    # possibly-empty result: return a typed Arrow table (see _typed_table)
    return _typed_table(out)


def _q_topk_orders(sf_dir):
    from docetl_ray.stages.sample import topk

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"])
    return topk(orders, ["o_totalprice", "o_orderkey"], 10, descending=True)


def _q_topk_stratified(sf_dir):
    from docetl_ray.stages.sample import topk_stratified

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"])
    return topk_stratified(orders, "o_orderstatus", "o_totalprice", 3)


def _q_sample_uniform(sf_dir):
    from docetl_ray.stages.sample import sample_uniform_hash

    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return sample_uniform_hash(ds, "o_orderkey", SAMPLE_FRAC)


def _q_sample_first(sf_dir):
    from docetl_ray.stages.sample import sample_first

    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return sample_first(ds.sort("o_orderkey"), 100)


def _q_sample_custom(sf_dir):
    from docetl_ray.stages.sample import sample_custom

    ds = _rp(sf_dir, "nation", ["n_nationkey", "n_name"])
    # possibly-empty result: return a typed Arrow table (see _typed_table)
    return _typed_table(sample_custom(ds, "n_name", ["FRANCE", "GERMANY", "JAPAN"]))


def _q_sample_outliers(sf_dir):
    from docetl_ray.stages.sample import sample_outliers

    ds = _rp(sf_dir, "events", ["event_id", "value"])
    return sample_outliers(ds, "value", std_cutoff=2.0, keep="inliers")


def _q_dedup_exact(sf_dir):
    from docetl_ray.stages.resolve import dedup_exact

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return dedup_exact(docs, "text", tiebreak_col="doc_id", keep="min").select_columns(
        ["doc_id", "text"]
    )


def _q_unnest_embeddings(sf_dir):
    from docetl_ray.stages.unnest_split_gather import unnest

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = unnest(emb, "embedding")

    def ren(t):
        names = ["emb_val" if c == "embedding" else c for c in t.column_names]
        return t.rename_columns(names)

    return out.map_batches(ren, batch_format="pyarrow")


def _q_split_tokens(sf_dir):
    from docetl_ray.stages.unnest_split_gather import split

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = split(docs, "text", name="sp", method="token_count", token_count=50)
    return out.select_columns(["doc_id", "sp_chunk_num", "text_chunk"])


def _q_token_count(sf_dir):
    from docetl_ray.stages.textops import token_count

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return token_count(docs, "text").select_columns(["doc_id", "n_tokens"])


def _q_bpe_token_count(sf_dir):
    from docetl_ray.stages.textops import bpe_token_count

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_count(docs, "text").select_columns(["doc_id", "n_bpe_tokens"])


def _q_quantiles(sf_dir):
    # exact distributed order statistics with NO global sort: iterative
    # histogram refinement (collect_threshold=2000 forces real
    # refinement passes at every sf)
    import ray.data as rd

    from docetl_ray.stages.quantiles import quantiles

    li = _rp(sf_dir, "lineitem", ["l_extendedprice"])
    t = quantiles(li, "l_extendedprice", [0.01, 0.25, 0.5, 0.75, 0.99],
                  collect_threshold=2000)
    return rd.from_arrow(t)


def _q_asof_join(sf_dir):
    # temporal enrichment: odd events (queries) matched to the latest
    # even event (state) of the same user at-or-before their timestamp;
    # right side pre-deduped per (user_id, ts) so DuckDB's ASOF JOIN
    # (which picks an unspecified duplicate) is deterministic
    import pyarrow as pa
    import pyarrow.compute as pc

    from docetl_ray.stages.asof import asof_join

    ev = _rp(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    left = ev.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 1)),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "r_event_id": t["event_id"],
                "r_value": t["value"],
            }
        ).filter(pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)),
        batch_format="pyarrow",
    )
    lsch = pa.schema(
        [("event_id", pa.int64()), ("ts", pa.timestamp("us")),
         ("user_id", pa.int64()), ("value", pa.float64())]
    )
    rsch = pa.schema(
        [("user_id", pa.int64()), ("ts", pa.timestamp("us")),
         ("r_event_id", pa.int64()), ("r_value", pa.float64())]
    )
    return asof_join(left, right, on="ts", by="user_id", how="left",
                     left_schema=lsch, right_schema=rsch)


def _q_incremental_dedup(sf_dir):
    # Incremental corpus dedup over 3 epochs (doc_id < 250, < 375, the
    # rest): each epoch is filtered against the PERSISTED fingerprint
    # index of all earlier epochs (cdc.dedup_index), never rescanning
    # their documents.  Deterministic dup synthesis: every doc_id % 5 ==
    # 0 doc carries one of two boilerplate strings (cross-epoch dups),
    # docs from 250 on with doc_id % 7 == 3 carry one of two "late"
    # strings (within-epoch dups in epoch 1, cross-epoch dups in epoch
    # 2), and epoch-2 docs with doc_id % 11 == 4 one of two "fresh"
    # strings (within-epoch dups -> min doc_id wins).  Returns the
    # survivors of epochs 1 and 2.
    import pyarrow as pa

    from docetl_ray.cdc import DedupIndex, incremental_exact_dedup

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for i, t in zip(ids, texts):
            if i % 5 == 0:
                out.append(f"dup-{i % 10}")
            elif i >= 250 and i % 7 == 3:
                out.append(f"late-{i % 14}")
            elif i >= 375 and i % 11 == 4:
                out.append(f"fresh-{i % 22}")
            else:
                out.append(t)
        return pa.table({"doc_id": batch["doc_id"], "text": pa.array(out)})

    docs = _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth, batch_format="pyarrow"
    )

    def epoch_docs(lo, hi):
        ids = pa.compute.field("doc_id")
        keep = (ids >= lo) & (ids < hi)
        return docs.map_batches(lambda t: t.filter(keep), batch_format="pyarrow")

    root = tempfile.mkdtemp(prefix="docetl_ray_dedupidx_")
    shutil.rmtree(root, ignore_errors=True)
    idx = DedupIndex(root, kind="exact")
    incremental_exact_dedup(idx, epoch_docs(0, 250), "text", "doc_id", 0)
    kept1, _n = incremental_exact_dedup(idx, epoch_docs(250, 375), "text", "doc_id", 1)
    kept2, _n = incremental_exact_dedup(idx, epoch_docs(375, 2**62), "text", "doc_id", 2)
    return kept1.union(kept2)


def _q_cdc_flagship_delta(sf_dir):
    from docetl_ray.cdc import LakeTable, apply_events, read_state
    from docetl_ray.cdc.apply import compact
    from docetl_ray.pipelines import wal_from_documents

    out = tempfile.mkdtemp(prefix="docetl_ray_delta_")
    shutil.rmtree(out, ignore_errors=True)
    table = LakeTable(out, num_partitions=16)
    apply_events(table, wal_from_documents(sf_dir), epoch=0, mode="delta")
    apply_events(table, wal_from_documents(sf_dir, copies=3, lsn_base=1_000_000),
                 epoch=1, mode="delta")
    compact(table, tag="q")
    return read_state(table).drop_columns(["_deleted"])


def _q_text_ratios(sf_dir):
    from docetl_ray.stages.textops import quality_score

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return quality_score(docs, "text").select_columns(
        ["doc_id", "punct_ratio", "stopword_ratio", "mean_token_len"]
    )


def _q_doc_stats(sf_dir):
    from docetl_ray.stages.textops import quality_score

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return quality_score(docs, "text").select_columns(["doc_id", "n_chars", "n_tokens"])


def _q_add_hash_id(sf_dir):
    from docetl_ray.stages import add_hash_id

    docs = _rp(sf_dir, "documents", ["doc_id", "lang"])
    return add_hash_id(docs, ["doc_id", "lang"], id_key="doc_id_hash")


def _q_distinct_segments(sf_dir):
    from docetl_ray.stages import grouped_aggregate

    ds = _rp(sf_dir, "customer", ["c_mktsegment", "c_custkey"])
    return grouped_aggregate(ds, ["c_mktsegment"],
                             [("c_custkey", "count", "n_customers")])


def _q_cdc_lww_latest(sf_dir):
    from docetl_ray.cdc.apply import lww_latest

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_id", "event_type", "value"])
    return lww_latest(ev, "user_id", ["ts", "event_id"])


def _q_cdc_upsert_state(sf_dir):
    import pyarrow.compute as pc

    from docetl_ray.cdc.apply import lww_latest

    ev = _rp(sf_dir, "events", ["user_id", "ts", "event_id", "event_type", "value"])
    latest = lww_latest(ev, "user_id", ["ts", "event_id"])
    # 'error' as the tombstone op: keys whose last event errored are dropped
    live = latest.map_batches(
        lambda t: t.filter(pc.not_equal(t["event_type"], "error")),
        batch_format="pyarrow",
    )
    return live.select_columns(["user_id", "ts", "event_id", "value"])


def _q_window_tumbling(sf_dir):
    from docetl_ray.stages.window import tumbling_window_aggregate

    ev = _rp(sf_dir, "events", ["user_id", "ts", "value"])
    return tumbling_window_aggregate(
        ev, "ts", "user_id", window_seconds=86400,
        aggs=[("value", "count", "n_events"), ("value", "min", "min_value")],
    )


def _q_session_windows(sf_dir):
    from docetl_ray.stages.window import session_windows

    ev = _rp(sf_dir, "events", ["user_id", "ts"])
    return session_windows(ev, "ts", "user_id", gap_seconds=1800)


def _q_parallel_map(sf_dir):
    import pyarrow.compute as pc

    from docetl_ray.stages import parallel_map

    ds = _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity", "l_tax"])
    out = parallel_map(
        ds,
        [
            lambda t: {"qty2": pc.multiply(t["l_quantity"], 2.0)},
            lambda t: {"taxed": pc.add(t["l_tax"], 1.0)},
        ],
    )
    return out


def _q_top_fts(sf_dir):
    from docetl_ray.stages.sample import top_fts

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = top_fts(docs, "text", "doc_id", "spark window merge", 20)
    return out.select_columns(["doc_id"])


def _q_top_embedding(sf_dir):
    import pyarrow.parquet as pq

    from docetl_ray.stages.sample import top_embedding

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]) \
        .sort_by([("vec_id", "ascending")])["embedding"][0].as_py()
    return top_embedding(emb, "embedding", "vec_id", q, 5).select_columns(["vec_id"])


def _q_extract_regex(sf_dir):
    from docetl_ray.stages.extract import extract_regex

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    # sorted matches so the oracle can use list_sort(list_distinct(...))
    return extract_regex(docs, "text", [r"b[a-z]+"], sort_matches=True).select_columns(
        ["doc_id", "text_extracted"]
    )


def _q_rank_topk_orders(sf_dir):
    from docetl_ray.stages.sample import rank_topk

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return rank_topk(orders, ["o_totalprice", "o_orderkey"], 10, descending=True)


def _q_ann_bruteforce(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from docetl_ray.stages.ann import ann_topk_bruteforce

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = qtab.sort_by([("vec_id", "ascending")]).slice(0, 3)
    queries = np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64)
    out = ann_topk_bruteforce(emb, "embedding", "vec_id", queries, k=5)
    return out.select_columns(["query_id", "vec_id"])


# -- ops below were initially rows-only; ALL now have DuckDB oracles
# (see oracle_sql()).  The former rows-only trio became exact: minhash
# dedup via exact-Jaccard verification (full-recall banding, verified
# exhaustively per scale), embedding_dedup and ann_topk_lsh via
# md5-integer-plane LSH whose bucket codes the oracle recomputes
# bit-for-bit and conditions on. ---------------------------------------

def _q_cdc_flagship(sf_dir):
    from docetl_ray.pipelines import cdc_flagship

    out = tempfile.mkdtemp(prefix="docetl_ray_q_")
    shutil.rmtree(out, ignore_errors=True)
    return cdc_flagship(sf_dir, out)


def _q_gather(sf_dir):
    from docetl_ray.stages.unnest_split_gather import gather, split

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    chunks = split(docs, "text", name="sp", method="token_count", token_count=50)
    out = gather(chunks, "text_chunk", "sp_id", "sp_chunk_num")
    return out.select_columns(["doc_id", "sp_chunk_num", "text_chunk_rendered"])


def _q_minhash_dedup(sf_dir):
    from docetl_ray.stages.dedup import minhash_dedup

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    # exact-Jaccard verification (texts keyed-shuffled to candidate
    # pairs): with full banding recall at j>=0.8 (miss prob
    # (1-j^4)^16 <= 3e-10 at the fixture's min true-edge j=0.92,
    # verified exhaustively at sf0.001/sf0.01) the result equals the
    # all-pairs DuckDB answer exactly.
    deduped, _ = minhash_dedup(docs, "text", "doc_id", threshold=0.8, verify="exact")
    return deduped.select_columns(["doc_id"])


def _q_simhash(sf_dir):
    from docetl_ray.stages.dedup import add_simhash

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return add_simhash(docs, "text").select_columns(["doc_id", "simhash"])


def _q_embedding_dedup(sf_dir):
    from docetl_ray.stages.dedup import embedding_dedup

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # md5-integer-plane LSH codes are exact integer arithmetic, so the
    # oracle recomputes the buckets bit-for-bit and conditions on them —
    # "same bucket AND cosine >= thr" is checked exactly (recall is not
    # part of the claim).  thr=0.4 sits in an empirical gap (>6e-4) of
    # the in-bucket cosine distribution at sf0.001/sf0.01.
    deduped, _ = embedding_dedup(
        emb, "embedding", "vec_id", threshold=0.4, num_planes=6
    )
    return deduped.select_columns(["vec_id"])


def _q_lang_id(sf_dir):
    from docetl_ray.stages.textops import lang_id

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return lang_id(docs, "text").select_columns(["doc_id", "lang_pred"])


def _q_quality(sf_dir):
    from docetl_ray.stages.textops import quality_score

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return quality_score(docs, "text").select_columns(
        ["doc_id", "punct_ratio", "stopword_ratio", "mean_token_len", "quality"]
    )


def _q_fingerprint(sf_dir):
    from docetl_ray.stages.textops import fingerprint

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    # sql_parity: md5 gram hash + md5 set digest, exactly replicable in
    # DuckDB (the fast path uses a vectorized polynomial hash instead)
    return fingerprint(docs, "text", sql_parity=True).select_columns(
        ["doc_id", "fingerprint"]
    )


def _q_resolve_fuzzy(sf_dir):
    from docetl_ray.stages.resolve import resolve_fuzzy

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "source"])
    out = resolve_fuzzy(docs, blocking_col="source", text_col="text",
                        threshold=0.8, id_col="doc_id")
    return out.select_columns(["doc_id", "canonical_id"])


def _q_simhash_near_dedup(sf_dir):
    from docetl_ray.stages.dedup import simhash_near_dedup

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    out, _ = simhash_near_dedup(docs, "text", "doc_id", max_hamming=3)
    return out.select_columns(["doc_id", "canonical_id"])


def _q_sample_outliers_embedding(sf_dir):
    from docetl_ray.stages.sample import sample_outliers_embedding

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = sample_outliers_embedding(emb, "embedding", std_cutoff=1.0, keep="inliers")
    return out.select_columns(["vec_id"])


def _q_resolve_embedding_blocked(sf_dir):
    from docetl_ray.stages.resolve import resolve_embedding_blocked

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = resolve_embedding_blocked(
        emb, emb_col="embedding", id_col="vec_id",
        blocking_threshold=0.7, match_threshold=0.85,
    )
    return out.select_columns(["vec_id", "canonical_id"])


def _q_ann_lsh(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from docetl_ray.stages.ann import ann_topk_lsh

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = qtab.sort_by([("vec_id", "ascending")]).slice(0, 3)
    queries = np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64)
    out = ann_topk_lsh(emb, "embedding", "vec_id", queries, k=5, probe_flips=1)
    return out.select_columns(["query_id", "vec_id"])


def _q_ann_ivf(sf_dir):
    # IVF-flat (FAISS-style coarse quantizer -> inverted lists -> exact
    # within-list search).  Seed centroids = 16 lowest-vec_id corpus
    # vectors so the oracle recomputes assignment/probes/top-k exactly.
    import numpy as np
    import pyarrow.parquet as pq

    from docetl_ray.stages.ann import ann_topk_ivf

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = qtab.sort_by([("vec_id", "ascending")]).slice(0, 3)
    queries = np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64)
    out = ann_topk_ivf(emb, "embedding", "vec_id", queries, k=5, nlist=16, nprobe=4)
    return out.select_columns(["query_id", "vec_id"])


def _q_fuzzy_join(sf_dir):
    import pyarrow.compute as pc

    from docetl_ray.stages.fuzzy_join import fuzzy_join

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    left = docs.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 250)), batch_format="pyarrow"
    )
    right = docs.map_batches(
        lambda t: t.filter(pc.greater_equal(t["doc_id"], 250)), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.rename_columns(["rdoc_id", "rtext"]), batch_format="pyarrow"
    )
    return fuzzy_join(left, right, left_text="text", right_text="rtext",
                      left_id="doc_id", right_id="rdoc_id", threshold=0.8)


def _q_cluster_threshold(sf_dir):
    from docetl_ray.stages.cluster import cluster_threshold

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # single-linkage threshold cut == connected components of the
    # "distance <= 1.05" graph; 1.05 sits in an empirical gap (>6e-4
    # at sf0.01, >9e-5 at sf0.001) of the pairwise-distance
    # distribution, so float ulp differences vs DuckDB's list_distance
    # cannot flip an edge.
    out = cluster_threshold(emb, "embedding", "vec_id", distance_threshold=1.05)
    return out.select_columns(["vec_id", "cluster_id"])


def _q_link_resolve(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.link_resolve import link_resolve

    docs = _rp(sf_dir, "documents", ["doc_id", "source"])

    # synthesize dangling graph edges deterministically: every 5th doc's
    # link gets an "_x" suffix (absent from the id set); link_resolve
    # repairs them by best char-3-gram Jaccard > 0.5 against the known
    # source ids (two-char sources like "src5" score exactly 0.5 and are
    # deliberately kept dangling — both paths exercised)
    def mk_link(t: pa.Table) -> pa.Table:
        link = [
            s + "_x" if d % 5 == 0 else s
            for d, s in zip(t["doc_id"].to_pylist(), t["source"].to_pylist())
        ]
        return t.append_column("link", pa.array(link, pa.string()))

    ds = docs.map_batches(mk_link, batch_format="pyarrow")
    out = link_resolve(ds, id_col="source", link_col="link", threshold=0.5)
    return out.select_columns(["doc_id", "link"])


def _q_embedding_blocked_join(sf_dir):
    import pyarrow.compute as pc

    from docetl_ray.stages.fuzzy_join import embedding_blocked_join

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    left = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 250)), batch_format="pyarrow"
    )
    right = emb.map_batches(
        lambda t: t.filter(pc.greater_equal(t["vec_id"], 250)), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.rename_columns(["rvec_id", "rembedding"]), batch_format="pyarrow"
    )
    # equijoin embedding-blocking parity: md5-integer-plane codes are
    # exact integer arithmetic, so the oracle recomputes buckets
    # bit-for-bit; 0.35 sits in a >7e-4 cosine gap at sf0.001/sf0.01
    return embedding_blocked_join(
        left, right, left_emb="embedding", right_emb="rembedding",
        left_id="vec_id", right_id="rvec_id", blocking_threshold=0.35,
    )


def _q_multimodal_image(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.multimodal import image_pipeline

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fake_payload(t: pa.Table) -> pa.Table:
        payloads = [(s or "").encode("utf-8")[:256] for s in t["text"].to_pylist()]
        return t.drop_columns(["text"]).append_column(
            "image", pa.array(payloads, pa.binary())
        )

    with_bytes = docs.map_batches(fake_payload, batch_format="pyarrow")
    feats = image_pipeline(with_bytes, bytes_col="image", sql_parity=True)

    # project the list column to scalars for the driver's value-hash
    # (element 0 + exact sum — the 12-bit feature mantissas sum exactly)
    def digest(t: pa.Table) -> pa.Table:
        vals = t["image_features"].to_pylist()
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "image_bytes_len": t["image_bytes_len"],
                "feat0": pa.array([v[0] for v in vals], pa.float64()),
                "feat_sum": pa.array([float(sum(v)) for v in vals], pa.float64()),
            }
        )

    return feats.map_batches(digest, batch_format="pyarrow")


def _q_multimodal_audio(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.multimodal import AudioFrameSampleStage

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fake_payload(t: pa.Table) -> pa.Table:
        payloads = [(s or "").encode("utf-8")[:128] for s in t["text"].to_pylist()]
        return t.drop_columns(["text"]).append_column(
            "audio", pa.array(payloads, pa.binary())
        )

    with_bytes = docs.map_batches(fake_payload, batch_format="pyarrow")
    return with_bytes.map_batches(
        AudioFrameSampleStage,
        fn_constructor_kwargs={"bytes_col": "audio", "sql_parity": True},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 4),
        num_cpus=1,
    )


def _q_multimodal_video(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.multimodal import VideoKeyframeStage

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def fake_payload(t: pa.Table) -> pa.Table:
        payloads = [(s or "").encode("utf-8")[:64] for s in t["text"].to_pylist()]
        return t.drop_columns(["text"]).append_column(
            "video", pa.array(payloads, pa.binary())
        )

    frames = docs.map_batches(fake_payload, batch_format="pyarrow").map_batches(
        VideoKeyframeStage,
        fn_constructor_kwargs={"bytes_col": "video", "sql_parity": True},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 4),
        num_cpus=1,
    )

    # scalar digest of the list column for the driver's value-hash
    def digest(t: pa.Table) -> pa.Table:
        vals = t["keyframe_features"].to_pylist()
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "keyframe_ts": t["keyframe_ts"],
                "feat0": pa.array([v[0] for v in vals], pa.float64()),
                "feat_sum": pa.array([float(sum(v)) for v in vals], pa.float64()),
            }
        )

    return frames.map_batches(digest, batch_format="pyarrow")


# -- LLM prompt-operator surfaces, oracle-checked end-to-end ---------------
#
# The deterministic offline client derives every output from
# md5(rendered_prompt) with fixed per-key byte slices
# (stages/llm.py FakeDeterministicClient), so the WHOLE prompt path —
# Jinja render per row/group, schema-typed parsing, filter masking,
# grouped reduce — is replayable in DuckDB: md5() + hex-slice arithmetic
# over the same rendered strings.  These queries pin the plumbing
# (reference operations/map.py:308-422, filter.py:80-98,
# reduce.py:915-980) under the exact-hash gate, not just pytest.

def _q_llm_map(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.llm import llm_map

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    out = llm_map(
        docs,
        "Classify:\n{{ input.text }}",
        {"category": "enum[news, blog, docs, forum]", "score": "int"},
        concurrency=(1, 4),
        batch_size=256,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "category": t["category"].cast(pa.string()),
            "score": t["score"],
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _q_llm_map_gleaning(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.llm import llm_map

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    # gleaning chain (reference api.py:307-462): initial call -> validator
    # call -> should_refine? -> improvement call.  Every hop is another
    # md5 of a longer rendered string, replayed hop-by-hop in the oracle.
    out = llm_map(
        docs,
        "Classify:\n{{ input.text }}",
        {"category": "enum[news, blog, docs, forum]", "score": "int"},
        gleaning={"validation_prompt": "Check the classification quality.",
                  "num_rounds": 1},
        concurrency=(1, 4),
        batch_size=256,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "category": t["category"].cast(pa.string()),
            "score": t["score"],
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _q_llm_filter(sf_dir):
    from docetl_ray.stages.llm import llm_filter

    docs = _rp(sf_dir, "documents", ["doc_id", "text", "lang"])
    kept = llm_filter(docs, "Keep this doc?\n{{ input.text }}",
                      concurrency=(1, 4))
    return kept.select_columns(["doc_id", "lang"])


def _q_llm_reduce(sf_dir):
    from docetl_ray.stages.llm import llm_reduce

    docs = _rp(sf_dir, "documents", ["doc_id", "lang"])
    # sort inside the template so the rendered prompt is independent of
    # within-group row order (groups arrive unordered from the shuffle)
    out = llm_reduce(
        docs,
        "lang",
        "Summarize {{ reduce_key.lang }}: "
        "{% for d in inputs|sort(attribute='doc_id') %}{{ d.doc_id }};{% endfor %}",
        {"confidence": "float", "summary": "str"},
    )
    return out.select_columns(["lang", "summary", "confidence", "_counts_prereduce"])


def _q_gopher_quality(sf_dir):
    from docetl_ray.stages.textops import gopher_quality

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return gopher_quality(docs, "text").drop_columns(["text"])


def _q_repetition_stats(sf_dir):
    from docetl_ray.stages.textops import repetition_stats

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    return repetition_stats(docs, "text").drop_columns(["text"])


def _q_pii_scrub(sf_dir):
    # deterministic PII seeding (the fixture carries none): every doc_id
    # % 4 == 1 doc gains one email, one intl phone, one IPv4 — the SQL
    # oracle replays the seeding AND the RE2 scrub (pyarrow and DuckDB
    # share the RE2 engine, so replacements match byte-for-byte)
    import pyarrow as pa

    from docetl_ray.stages.textops import pii_scrub

    def seed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            (
                f"{t} contact user{i}@example.com or "
                f"+1 555-000-{i % 10000:04d} at 192.168.{i % 256}.7"
            )
            if i % 4 == 1
            else t
            for i, t in zip(ids, texts)
        ]
        return pa.table({"doc_id": batch["doc_id"], "text": pa.array(out)})

    docs = _rp(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        seed, batch_format="pyarrow"
    )
    return pii_scrub(docs, "text", out_col="text_clean").drop_columns(["text"])


def _synth_url_parts(batch):
    """Deterministic messy-URL fixture columns from doc_id (the test
    tables carry no url column; the SQL oracle replays this exact
    construction, so both construction AND normalization are checked)."""
    import functools

    import numpy as np

    def cat(*parts):
        return functools.reduce(np.char.add, [np.asarray(p) for p in parts])

    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    dstr = d.astype("U20")
    scheme = np.where(d % 3 == 1, "https", "http")
    host = cat("h", (d % 13).astype("U2"), ".example.com")
    port_keep = np.where(d % 4 == 2, ":8080", "")
    path = cat("/", (d % 997).astype("U4"), "/", dstr)
    return d, dstr, scheme, host, port_keep, path


def _synth_raw_urls(batch):
    """Variant-A spelling: uppercased scheme/host, default port when
    doc_id%4==0, empty path when %7==0, fragment when %5==0, and a
    non-URL string for %11==0 rows (pass-through coverage)."""
    import functools

    import numpy as np

    def cat(*parts):
        return functools.reduce(np.char.add, [np.asarray(p) for p in parts])

    d, dstr, scheme, host, port_keep, path = _synth_url_parts(batch)
    defport = np.where(scheme == "https", ":443", ":80")
    port_raw = np.where(d % 4 == 0, defport, port_keep)
    path_raw = np.where(d % 7 == 0, "", path)
    frag = np.where(d % 5 == 0, cat("#sec-", dstr), "")
    url = cat(np.char.upper(scheme), "://", np.char.upper(host), port_raw,
              path_raw, frag)
    return np.where(d % 11 == 0, cat("doc ", dstr, " has no url"), url)


def _q_url_normalize(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.urlops import url_normalize

    docs = _rp(sf_dir, "documents", ["doc_id"])

    def synth(batch: "pa.Table") -> "pa.Table":
        return batch.append_column("url_raw", pa.array(_synth_raw_urls(batch)))

    ds = docs.map_batches(synth, batch_format="pyarrow")
    return url_normalize(ds, "url_raw", out_col="url")


def _q_host_stats(sf_dir):
    import functools

    import numpy as np
    import pyarrow as pa

    from docetl_ray.stages.urlops import host_stats

    docs = _rp(sf_dir, "documents", ["doc_id"])

    def synth_two_spellings(batch: "pa.Table") -> "pa.Table":
        # two raw spellings of the SAME canonical url per doc — host
        # stats must collapse them before counting
        def cat(*parts):
            return functools.reduce(np.char.add, [np.asarray(p) for p in parts])

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % 11 != 0))
        raw_a = _synth_raw_urls(batch)
        d, _, scheme, host, port_keep, path = _synth_url_parts(batch)
        raw_b = cat(scheme, "://", host, port_keep, np.where(d % 7 == 0, "", path))
        return pa.table({"url": pa.array(np.concatenate([raw_a, raw_b]))})

    ds = docs.map_batches(synth_two_spellings, batch_format="pyarrow")
    return host_stats(ds, "url")


def _q_rank_qurk(sf_dir):
    import ray.data as rd

    from docetl_ray.stages.rank import rank_comparison_qurk
    from docetl_ray.util import collect

    # the md5 batch keying is positional, so pin the input order
    # (Ray's streaming executor doesn't guarantee block order)
    docs = collect(_rp(sf_dir, "documents", ["doc_id", "text"])).sort_by("doc_id")
    out = rank_comparison_qurk(
        rd.from_arrow(docs),
        criteria="most informative",
        input_keys=["text"],
        batch_size=10,
        num_batches=200,
    )
    return out.select(["doc_id", "_rank"])


def _q_paragraph_dedup(sf_dir):
    import functools

    import numpy as np
    import pyarrow as pa

    from docetl_ray.stages.textops import paragraph_dedup

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def synth(batch: "pa.Table") -> "pa.Table":
        # deterministic multi-paragraph construction with shared
        # boilerplate (fixture docs are single-line): a footer every doc
        # shares, a second one on even doc_ids, a unique one on %3==0
        def cat(*parts):
            return functools.reduce(np.char.add, [np.asarray(p) for p in parts])

        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = np.asarray(batch["text"].to_pylist(), dtype=object)
        t2 = base + "\nSubscribe to our newsletter"
        t2 = t2 + np.where(d % 2 == 0, "\nCopyright 2024 Example Corp", "")
        t2 = t2 + np.where(
            d % 3 == 0, cat("\nfooter-", d.astype("U20")).astype(object), ""
        )
        return pa.table({"doc_id": batch["doc_id"], "text": pa.array(list(t2))})

    ds = docs.map_batches(synth, batch_format="pyarrow")
    return paragraph_dedup(ds, "text", min_count=2)


def _q_llm_resolve(sf_dir):
    import pyarrow as pa
    import pyarrow.compute as pc

    from docetl_ray.stages.resolve import llm_resolve

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    # precomputed mod-bucket blocking key (the reference blocks by user
    # rule too); pairwise LLM compare within each block -> min-id
    # union-find -> per-cluster LLM resolution merged over every row
    # (resolve.py:553-756)
    def add_blk(t: pa.Table) -> pa.Table:
        return t.append_column(
            "blk", pc.cast(pc.bit_wise_and(t["doc_id"], 63), pa.int64())
        )

    out = llm_resolve(
        docs.map_batches(add_blk, batch_format="pyarrow"),
        blocking_col="blk",
        id_col="doc_id",
        comparison_prompt="Same?\nA: {{ input1.text }}\nB: {{ input2.text }}",
        resolution_prompt="Merge: {% for d in inputs %}{{ d.doc_id }},{% endfor %}",
        output_schema={"canonical_text": "str"},
    )

    def fin(t: pa.Table) -> pa.Table:
        # singleton clusters never get the resolution key, so a batch
        # holding only singletons lacks the column entirely
        ct = (
            t["canonical_text"]
            if "canonical_text" in t.column_names
            else pa.nulls(t.num_rows, pa.string())
        )
        return pa.table({
            "doc_id": t["doc_id"],
            "_canonical": t["_canonical"],
            "canonical_text": pc.fill_null(ct, ""),
            "_kv_pairs_preresolve_resolve": t["_kv_pairs_preresolve_resolve"],
        })

    return out.map_batches(fin, batch_format="pyarrow")


def _q_llm_resolve_blocked(sf_dir):
    import pyarrow as pa
    import pyarrow.compute as pc

    from docetl_ray.stages.resolve import llm_resolve

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def add_blk(t: pa.Table) -> pa.Table:
        return t.append_column(
            "blk", pc.cast(pc.bit_wise_and(t["doc_id"], 63), pa.int64())
        )

    # eval'd pair-predicate blocking (reference resolve.py:290-294): only
    # pairs whose texts share a 4-char prefix are LLM-compared
    out = llm_resolve(
        docs.map_batches(add_blk, batch_format="pyarrow"),
        blocking_col="blk",
        id_col="doc_id",
        comparison_prompt="Same?\nA: {{ input1.text }}\nB: {{ input2.text }}",
        blocking_conditions=['input1["text"][:4] == input2["text"][:4]'],
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "_canonical": t["_canonical"]})

    return out.map_batches(fin, batch_format="pyarrow")


def _q_condition_blocked_join(sf_dir):
    import pyarrow as pa

    from docetl_ray.stages.fuzzy_join import condition_blocked_pairs, llm_equijoin

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(["r_id", "r_text"])

    right = docs.sort("doc_id").limit(50).map_batches(ren, batch_format="pyarrow")
    pairs = condition_blocked_pairs(
        docs, right,
        ['left["text"][:6] == right["r_text"][:6]'],
        left_id="doc_id", right_id="r_id",
    )
    return llm_equijoin(
        docs, right, pairs,
        left_id="doc_id", right_id="r_id",
        comparison_prompt="Join?\nL: {{ input1.text }}\nR: {{ input2.r_text }}",
    )


def _q_rank_likert(sf_dir):
    from docetl_ray.stages.rank import rank

    docs = _rp(sf_dir, "documents", ["doc_id", "text"])
    # full LLM rank path: distributed likert rating (actor pool) -> sort
    # with id tiebreak -> ONE budgeted picky-window refinement call over
    # the top-k prefix -> swap-to-front reorder (reference
    # rank.py:671-885).  budget=1 makes the window plan a single
    # whole-prefix window, so the oracle can replay the compare call and
    # the resulting permutation exactly.
    out = rank(
        docs,
        criteria="most informative",
        input_keys=["text"],
        k=20,
        initial_ordering_method="likert",
        id_col="doc_id",
        rerank_call_budget=1,
        num_top_items_per_window=3,
    )
    return out.select_columns(["doc_id", "_rank"])


def _q_optimizer_decision(sf_dir):
    """The `docetl build` optimizer's chunking decision over documents:
    sample the first 100 docs (doc_id order), measure whitespace-token
    counts, and decide chunked-vs-unchanged with token_limit=40 — the
    p90/budget/candidate-ladder arithmetic is recomputed exactly in the
    oracle SQL.  Also executes the full rewritten sample plan
    (split/gather/submap/combine) as a smoke of plan validity."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from docetl_ray.optimizer import Optimizer

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_by([("doc_id", "ascending")])
    cfg = {
        "datasets": {"docs": {"type": "memory", "data": tbl.to_pylist()}},
        "operations": [
            {"name": "summ", "type": "map", "optimize": True,
             "prompt": "Summarize: {{ input.text }}",
             "output": {"schema": {"summary": "str"}}},
        ],
        "pipeline": {"steps": [
            {"name": "s1", "input": "docs", "operations": ["summ"]},
        ]},
    }
    out = Optimizer(cfg, token_limit=40, sample_limit=100).optimize()
    note = out["operations"][0]["_optimizer"]
    chunked = note["decision"] == "chunked"
    return pa.table({
        "decision": pa.array([note["decision"]], pa.string()),
        "p90_doc_tokens": pa.array([note["p90_doc_tokens"]], pa.int64()),
        "token_budget": pa.array([note["token_budget"]], pa.int64()),
        "chunk_tokens": pa.array(
            [note.get("chunk_tokens")], pa.int64()),
        "n_ops": pa.array([len(out["operations"])], pa.int64()),
    }) if chunked else pa.table({
        "decision": pa.array([note["decision"]], pa.string()),
        "p90_doc_tokens": pa.array([note["p90_doc_tokens"]], pa.int64()),
        "token_budget": pa.array([note["token_budget"]], pa.int64()),
        "chunk_tokens": pa.array([None], pa.int64()),
        "n_ops": pa.array([len(out["operations"])], pa.int64()),
    })


def _q_moar_first_layer(sf_dir):
    """MOAR's first-layer initialization (docetl_ray/moar.py; reference
    ``docetl/moar/MOARSearch.py:180-240``) over the first 200 documents:
    run a one-map plan once per catalog model, meter exact integer
    micro-dollar costs (whitespace tokens × per-token rates, distinct
    rendered prompts billed once — the per-actor response cache), score
    the synthetic md5-draw accuracy, and mark cost/accuracy frontier
    membership.  Every cell is recomputed in the oracle SQL."""
    import os

    import pyarrow.parquet as pq

    from docetl_ray.moar import moar_first_layer

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).sort_by([("doc_id", "ascending")]).slice(0, 200)
    return moar_first_layer(
        tbl.to_pylist(), prompt="Summarize:\n{{ input.text }}",
        output_schema={"summary": "str"}, id_field="doc_id")


def queries() -> dict[str, Callable[[str], Any]]:
    # Ordering note: the correctness driver records only the FIRST 50
    # entries of this dict, so the registry order is a ROTATION POLICY:
    # each round, the entries whose last driver-side oracle row is
    # OLDEST lead the dict, and the entries green in the immediately
    # preceding round's artifact sit in the tail.  That way the union of
    # any two consecutive CORRECTNESS_r{N}.json artifacts covers all 74
    # entries (tests/test_round5.py checks this).  (Every entry is
    # additionally sweep-checked each round by tests/test_ray_entry.py,
    # which parametrizes over the whole dict.)
    # Round-6 rotation: the 24 entries last driver-recorded in r4 (they
    # sat in the tail during r5) lead; the 24 entries rotated into the
    # r5 window now hold the tail.
    return {
        # --- last driver rows in r4; rotated into the r6 window ---
        "ann_topk_lsh": _q_ann_lsh,
        "ann_topk_ivf": _q_ann_ivf,
        "cluster_threshold_embeddings": _q_cluster_threshold,
        "link_resolve_documents": _q_link_resolve,
        "embedding_blocked_join_embeddings": _q_embedding_blocked_join,
        "multimodal_image_features": _q_multimodal_image,
        "multimodal_audio_frames": _q_multimodal_audio,
        "multimodal_video_keyframes": _q_multimodal_video,
        "llm_map_documents": _q_llm_map,
        "llm_map_gleaning_documents": _q_llm_map_gleaning,
        "llm_filter_documents": _q_llm_filter,
        "llm_reduce_lang_documents": _q_llm_reduce,
        "rank_likert_documents": _q_rank_likert,
        "llm_resolve_documents": _q_llm_resolve,
        "llm_resolve_blocked_documents": _q_llm_resolve_blocked,
        "condition_blocked_join_documents": _q_condition_blocked_join,
        "gopher_quality_documents": _q_gopher_quality,
        "repetition_stats_documents": _q_repetition_stats,
        "pii_scrub_documents": _q_pii_scrub,
        "url_normalize_documents": _q_url_normalize,
        "host_stats_documents": _q_host_stats,
        "paragraph_dedup_documents": _q_paragraph_dedup,
        "rank_qurk_documents": _q_rank_qurk,
        "join_semi_customers_with_orders": _q_join_semi,
        # --- staples kept in the driver window (flagship / perf-tracked) ---
        "map_filter_revenue": _q_map_filter_revenue,
        "reduce_groupby_pricing": _q_reduce_groupby_pricing,
        "reduce_global": _q_reduce_global,
        "join_broadcast_customer_nation": _q_join_broadcast,
        "join_hash_lineitem_orders": _q_join_hash,
        "topk_orders": _q_topk_orders,
        "dedup_exact_documents": _q_dedup_exact,
        "split_documents_tokens": _q_split_tokens,
        "token_count_documents": _q_token_count,
        "cdc_lww_latest_events": _q_cdc_lww_latest,
        "window_tumbling_events": _q_window_tumbling,
        "ann_topk_bruteforce": _q_ann_bruteforce,
        "rank_topk_orders": _q_rank_topk_orders,
        "cdc_flagship_delta": _q_cdc_flagship_delta,
        "incremental_dedup_documents": _q_incremental_dedup,
        "asof_join_events": _q_asof_join,
        "quantiles_lineitem": _q_quantiles,
        "simhash_near_dedup_documents": _q_simhash_near_dedup,
        "top_fts_documents": _q_top_fts,
        "fuzzy_join_documents": _q_fuzzy_join,
        "cdc_flagship": _q_cdc_flagship,
        "gather_documents": _q_gather,
        "minhash_dedup_documents": _q_minhash_dedup,
        "simhash_documents": _q_simhash,
        "embedding_dedup_embeddings": _q_embedding_dedup,
        "resolve_fuzzy_documents": _q_resolve_fuzzy,
        # --- tail: green driver rows in the round-5 artifact ---
        "moar_first_layer_documents": _q_moar_first_layer,
        "optimizer_chunking_decision": _q_optimizer_decision,
        "join_anti_customers_without_orders": _q_join_anti,
        "topk_stratified_orders": _q_topk_stratified,
        "sample_uniform_hash_orders": _q_sample_uniform,
        "sample_first_orders": _q_sample_first,
        "sample_custom_nations": _q_sample_custom,
        "sample_outliers_events": _q_sample_outliers,
        "unnest_embeddings": _q_unnest_embeddings,
        "bpe_token_count_documents": _q_bpe_token_count,
        "text_ratios_documents": _q_text_ratios,
        "doc_stats": _q_doc_stats,
        "add_hash_id_documents": _q_add_hash_id,
        "distinct_segments": _q_distinct_segments,
        "cdc_upsert_state_events": _q_cdc_upsert_state,
        "session_windows_events": _q_session_windows,
        "extract_regex_documents": _q_extract_regex,
        "parallel_map_lineitem": _q_parallel_map,
        "top_embedding_vectors": _q_top_embedding,
        "sample_outliers_embedding": _q_sample_outliers_embedding,
        "lang_id_documents": _q_lang_id,
        "quality_documents": _q_quality,
        "fingerprint_documents": _q_fingerprint,
        "resolve_embedding_blocked": _q_resolve_embedding_blocked,
    }


def oracle_sql() -> dict[str, str]:
    from docetl_ray.stages.sample import hash_threshold_for_frac

    thr = hash_threshold_for_frac(SAMPLE_FRAC)
    return {
        "map_filter_revenue": """
            SELECT l_orderkey, l_linenumber, l_quantity,
                   l_extendedprice * (1 - l_discount) AS revenue
            FROM lineitem WHERE l_quantity > 30
        """,
        "reduce_groupby_pricing": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   sum(l_quantity) / count(l_quantity) AS avg_qty,
                   count(l_quantity) AS count_order,
                   max(l_extendedprice) AS max_price
            FROM lineitem GROUP BY 1, 2
        """,
        "reduce_global": """
            SELECT count(o_totalprice) AS n_orders, max(o_totalprice) AS max_price,
                   min(o_totalprice) AS min_price
            FROM orders
        """,
        "join_broadcast_customer_nation": """
            SELECT c_custkey, c_name, n_name
            FROM customer JOIN nation ON c_nationkey = n_nationkey
        """,
        "join_hash_lineitem_orders": """
            SELECT l_orderkey, l_linenumber, o_orderstatus
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        """,
        "join_semi_customers_with_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders)
        """,
        "join_anti_customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        """,
        "topk_orders": """
            SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders
            ORDER BY o_totalprice DESC, o_orderkey DESC LIMIT 10
        """,
        "topk_stratified_orders": """
            SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders
            QUALIFY row_number() OVER (PARTITION BY o_orderstatus
                                       ORDER BY o_totalprice DESC, o_orderkey) <= 3
        """,
        "sample_uniform_hash_orders": f"""
            SELECT o_orderkey, o_custkey FROM orders
            WHERE substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8) < '{thr}'
        """,
        "sample_first_orders": """
            SELECT o_orderkey, o_custkey FROM orders ORDER BY o_orderkey LIMIT 100
        """,
        "sample_custom_nations": """
            SELECT n_nationkey, n_name FROM nation
            WHERE n_name IN ('FRANCE', 'GERMANY', 'JAPAN')
        """,
        "sample_outliers_events": """
            SELECT event_id, value FROM events
            WHERE abs(value - (SELECT avg(value) FROM events))
                  <= 2.0 * (SELECT stddev_pop(value) FROM events)
        """,
        "dedup_exact_documents": """
            SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
        """,
        "unnest_embeddings": """
            SELECT vec_id, unnest(embedding) AS emb_val FROM embeddings
        """,
        "split_documents_tokens": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents)
            SELECT doc_id, cn AS sp_chunk_num,
                   array_to_string(t[(cn-1)*50+1 : cn*50], ' ') AS text_chunk
            FROM toks, LATERAL (
              SELECT unnest(range(1, greatest(1, CAST(ceil(len(t)/50.0) AS BIGINT)) + 1)) AS cn)
        """,
        "token_count_documents": r"""
            SELECT doc_id,
                   len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n_tokens
            FROM documents
        """,
        "bpe_token_count_documents": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text,
                       '''s|''t|''re|''ve|''m|''ll|''d|[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+'))
                   AS n_bpe_tokens
            FROM documents
        """,
        "doc_stats": r"""
            SELECT doc_id, length(text) AS n_chars,
                   len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n_tokens
            FROM documents
        """,
        "add_hash_id_documents": """
            SELECT doc_id, lang,
                   md5(concat_ws('|', CAST(doc_id AS VARCHAR), lang)) AS doc_id_hash
            FROM documents
        """,
        "distinct_segments": """
            SELECT c_mktsegment, count(c_custkey) AS n_customers
            FROM customer GROUP BY 1
        """,
        "cdc_lww_latest_events": """
            SELECT user_id, ts, event_id, event_type, value FROM events
            QUALIFY row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts DESC, event_id DESC) = 1
        """,
        "cdc_upsert_state_events": """
            SELECT user_id, ts, event_id, value FROM (
              SELECT *, row_number() OVER (PARTITION BY user_id
                                           ORDER BY ts DESC, event_id DESC) AS rn
              FROM events) WHERE rn = 1 AND event_type <> 'error'
        """,
        "window_tumbling_events": """
            SELECT user_id,
                   to_timestamp(floor(epoch(ts) / 86400) * 86400)::TIMESTAMP AS window_start,
                   count(value) AS n_events, min(value) AS min_value
            FROM events GROUP BY 1, 2
        """,
        "session_windows_events": """
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM (SELECT user_id, ts,
                         sum(is_new) OVER (PARTITION BY user_id ORDER BY ts
                                           ROWS UNBOUNDED PRECEDING) AS sid
                  FROM (SELECT user_id, ts,
                               CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                         > INTERVAL 30 MINUTE
                                    THEN 1 ELSE 0 END AS is_new
                        FROM events))
            GROUP BY user_id, sid
        """,
        "parallel_map_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity, l_tax,
                   l_quantity * 2 AS qty2, l_tax + 1 AS taxed
            FROM lineitem
        """,
        "top_embedding_vectors": """
            WITH q AS (SELECT embedding AS qe FROM embeddings
                       ORDER BY vec_id LIMIT 1)
            SELECT vec_id FROM (
              SELECT e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS score
              FROM embeddings e CROSS JOIN q)
            QUALIFY row_number() OVER (ORDER BY score DESC, vec_id) <= 5
        """,
        "extract_regex_documents": r"""
            SELECT doc_id,
                   coalesce(array_to_string(list_sort(list_distinct(
                       regexp_extract_all(text, 'b[a-z]+'))), chr(10)), '') AS text_extracted
            FROM documents
        """,
        "rank_topk_orders": """
            SELECT o_orderkey, o_totalprice,
                   CAST(row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey DESC)
                        AS BIGINT) AS _rank
            FROM orders ORDER BY o_totalprice DESC, o_orderkey DESC LIMIT 10
        """,
        "text_ratios_documents": r"""
            WITH toks AS (
              SELECT doc_id, text,
                     list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents)
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[.!?,;:]')) AS DOUBLE)
                     / greatest(1, length(text)) AS punct_ratio,
                   CAST(len(list_filter(t, x -> lower(x) IN
                        ('the','and','of','to','in','is','that','it','with','for','was','this')))
                        AS DOUBLE) / greatest(1, len(t)) AS stopword_ratio,
                   CASE WHEN len(t) = 0 THEN 0.0
                        ELSE CAST(list_sum(list_transform(t, x -> length(x))) AS DOUBLE) / len(t)
                   END AS mean_token_len
            FROM toks
        """,
        "lang_id_documents": """
            WITH w AS (
              SELECT doc_id, text,
                     list_transform(regexp_extract_all(text, '[a-zA-Z]+'),
                                    x -> lower(x))[1:2000] AS ws
              FROM documents),
            s AS (
              SELECT doc_id, text,
                len(list_filter(ws, x -> x IN ('der','die','das','und','ist','nicht','mit','ein','eine','zu','den','von'))) AS s_de,
                len(list_filter(ws, x -> x IN ('the','and','of','to','in','is','that','it','with','for','was','this'))) AS s_en,
                len(list_filter(ws, x -> x IN ('el','la','los','las','y','es','una','en','por','para','que','con'))) AS s_es,
                len(list_filter(ws, x -> x IN ('le','la','les','et','est','une','des','du','dans','pour','que','pas'))) AS s_fr
              FROM w)
            SELECT doc_id,
              CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                   WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
                   WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
                   WHEN s_es >= s_fr THEN 'es'
                   ELSE 'fr' END AS lang_pred
            FROM s
        """,
        "gather_documents": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t,
                     md5(text) AS sp_id
              FROM documents),
            chunks AS (
              SELECT doc_id, sp_id, cn AS sp_chunk_num,
                     array_to_string(t[(cn-1)*50+1 : cn*50], ' ') AS chunk
              FROM toks, LATERAL (
                SELECT unnest(range(1, greatest(1, CAST(ceil(len(t)/50.0) AS BIGINT)) + 1)) AS cn)),
            w AS (
              SELECT doc_id, sp_id, sp_chunk_num, chunk,
                     lag(chunk)  OVER win AS prev_chunk,
                     lead(chunk) OVER win AS next_chunk,
                     sum(length(chunk)) OVER (PARTITION BY sp_id ORDER BY sp_chunk_num
                                              ROWS BETWEEN UNBOUNDED PRECEDING AND 2 PRECEDING) AS skip_before,
                     sum(length(chunk)) OVER (PARTITION BY sp_id ORDER BY sp_chunk_num
                                              ROWS BETWEEN 2 FOLLOWING AND UNBOUNDED FOLLOWING) AS skip_after
              FROM chunks WINDOW win AS (PARTITION BY sp_id ORDER BY sp_chunk_num))
            SELECT doc_id, sp_chunk_num,
              concat_ws(chr(10),
                CASE WHEN skip_before IS NOT NULL
                     THEN '[... ' || skip_before || ' characters skipped ...]' END,
                CASE WHEN prev_chunk IS NOT NULL
                     THEN '--- Previous Chunk ' || (sp_chunk_num-1) || ' ---' END,
                prev_chunk,
                '--- Begin Main Chunk ---', chunk, '--- End Main Chunk ---',
                CASE WHEN next_chunk IS NOT NULL
                     THEN '--- Next Chunk ' || (sp_chunk_num+1) || ' ---' END,
                next_chunk,
                CASE WHEN skip_after IS NOT NULL
                     THEN '[... ' || skip_after || ' characters skipped ...]' END
              ) AS text_chunk_rendered
            FROM w
        """,
        "cdc_flagship": """
            WITH final AS (
              SELECT doc_id, text, lang,
                     doc_id*2 + 1 AS lsn,
                     'https://docs.example/' || (doc_id % 997) || '/' || doc_id AS url,
                     make_timestamp(1704067200000000 + (doc_id*2+1)*1000000) AS warc_ts,
                     ((doc_id*2654435761 + 1) % 10 = 0) AS is_del
              FROM documents)
            SELECT lsn, url, warc_ts, lang, text || chr(10) || 'v1' AS text
            FROM final WHERE NOT is_del
        """,
        "cdc_flagship_delta": """
            WITH final AS (
              SELECT doc_id, text, lang,
                     1000000 + doc_id*3 + 2 AS lsn,
                     'https://docs.example/' || (doc_id % 997) || '/' || doc_id AS url,
                     make_timestamp(1704067200000000 + (1000000 + doc_id*3 + 2)*1000000) AS warc_ts,
                     ((doc_id*2654435761 + 2) % 10 = 0) AS is_del
              FROM documents)
            SELECT lsn, url, warc_ts, lang, text || chr(10) || 'v2' AS text
            FROM final WHERE NOT is_del
        """,
        "ann_topk_bruteforce": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)),
                 qn AS (SELECT row_number() OVER (ORDER BY query_id) - 1 AS query_id, qe FROM q)
            SELECT query_id, vec_id FROM (
              SELECT qn.query_id, e.vec_id,
                     list_cosine_similarity(qn.qe, e.embedding) AS score
              FROM qn CROSS JOIN embeddings e)
            QUALIFY row_number() OVER (PARTITION BY query_id
                                       ORDER BY score DESC, vec_id) <= 5
        """,
        # multimodal video stage, sql_parity fake decode: 3 keyframes per
        # doc; duration = 1 + md5(payload)%600, ts = dur*(f+0.5)/3,
        # feature d = (md5(payload:f:d) % 4096)/4096, payload = first 64
        # utf-8 bytes of text
        "multimodal_video_keyframes": """
            WITH base AS (
              SELECT doc_id, substr(text, 1, 64) AS p,
                     1.0 + (('0x' || substr(md5(substr(text, 1, 64)), 1, 16))::UBIGINT % 600) AS dur
              FROM documents),
            frames AS (
              SELECT doc_id, p, dur, f.f AS f, dur * (f.f + 0.5) / 3 AS keyframe_ts
              FROM base, range(0, 3) AS f(f)),
            feats AS (
              SELECT doc_id, keyframe_ts, f,
                     list_transform(range(0, 8), d ->
                       CAST((('0x' || substr(md5(p || ':' || f || ':' || d), 1, 16))::UBIGINT
                             % 4096) AS DOUBLE) / 4096.0) AS v
              FROM frames)
            SELECT doc_id, keyframe_ts, v[1] AS feat0, list_sum(v) AS feat_sum
            FROM feats
        """,
        # multimodal audio stage, sql_parity fake decode: 4 frames per doc,
        # energy f = (md5(first-128-bytes || ':' || f) prefix % 10000)/10000
        "multimodal_audio_frames": """
            SELECT doc_id, CAST(f.f AS INTEGER) AS frame_no,
                   CAST((('0x' || substr(md5(substr(text, 1, 128) || ':' || f.f), 1, 16))::UBIGINT
                         % 10000) AS DOUBLE) / 10000.0 AS frame_energy
            FROM documents, range(0, 4) AS f(f)
        """,
        # simhash near-dup: banding over max_hamming+1 disjoint chunks has
        # FULL recall by pigeonhole, so the engine equals the all-pairs
        # hamming<=3 SQL answer exactly; components via recursive CTE
        "simhash_near_dedup_documents": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents),
            th AS (
              SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
              FROM toks),
            bits AS (
              SELECT doc_id, b.b AS b,
                     sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
              FROM th, range(0, 64) AS b(b)
              GROUP BY doc_id, b.b),
            acc AS (
              SELECT doc_id,
                     sum(CASE WHEN v > 0
                              THEN CAST(1::UBIGINT << b AS HUGEINT) ELSE 0 END) AS s
              FROM bits GROUP BY doc_id),
            sh AS (
              SELECT d.doc_id,
                     CAST(CASE WHEN coalesce(a.s, 0) >= 9223372036854775808
                               THEN coalesce(a.s, 0) - 18446744073709551616
                               ELSE coalesce(a.s, 0) END AS BIGINT) AS simhash
              FROM documents d LEFT JOIN acc a ON a.doc_id = d.doc_id),
            e0 AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib
              FROM sh a JOIN sh b ON a.doc_id < b.doc_id
              WHERE bit_count(xor(a.simhash, b.simhash)) <= 3),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT doc_id AS id, doc_id AS r FROM documents
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id
            )
            SELECT id AS doc_id, min(r) AS canonical_id FROM reach GROUP BY id
        """,
        # embedding-centroid outliers, std mode: centroid + population
        # variance per dim, cutoff = sqrt(sum var) * std (sample.py:390-432)
        "sample_outliers_embedding": """
            WITH dims AS (
              SELECT vec_id, g.i AS i, CAST(embedding[g.i] AS DOUBLE) AS v
              FROM embeddings, (SELECT unnest(range(1, 65)) AS i) g
            ),
            nrows AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM embeddings),
            ctr AS (
              SELECT i, sum(v) / (SELECT n FROM nrows) AS c,
                     sum(v*v) / (SELECT n FROM nrows)
                       - (sum(v) / (SELECT n FROM nrows)) * (sum(v) / (SELECT n FROM nrows)) AS var
              FROM dims GROUP BY i
            ),
            cut AS (SELECT sqrt(sum(var)) * 1.0 AS cutoff FROM ctr),
            dist AS (
              SELECT vec_id, sqrt(sum((v - c) * (v - c))) AS d
              FROM dims JOIN ctr USING (i) GROUP BY vec_id
            )
            SELECT vec_id FROM dist, cut WHERE d <= cutoff
        """,
        # cosine-blocked resolve: edges = pairs with cosine >= 0.85 (the
        # confirm threshold; blocking 0.7 is a superset, full recall via
        # exact all-pairs), recursive-CTE connected components
        "resolve_embedding_blocked": """
            WITH RECURSIVE e0 AS (
              SELECT a.vec_id AS ia, b.vec_id AS ib
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                           CAST(b.embedding AS DOUBLE[])) >= 0.85
            ),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT vec_id AS id, vec_id AS r FROM embeddings
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id
            )
            SELECT id AS vec_id, min(r) AS canonical_id FROM reach GROUP BY id
        """,
        # multimodal image stage, sql_parity fake decode: payload = first
        # 256 utf-8 bytes of text (ASCII corpus, so SQL substr matches);
        # feature i = (md5(payload || ':' || i) first-8-bytes % 4096)/4096
        # — 12-bit mantissas, exact in both float64 paths
        "multimodal_image_features": """
            WITH f AS (
              SELECT doc_id,
                     least(length(text), 256) AS image_bytes_len,
                     list_transform(range(0, 16), i ->
                       CAST((('0x' || substr(md5(substr(text, 1, 256) || ':' || i), 1, 16))::UBIGINT
                             % 4096) AS DOUBLE) / 4096.0
                     ) AS image_features
              FROM documents)
            SELECT doc_id, image_bytes_len,
                   image_features[1] AS feat0,
                   list_sum(image_features) AS feat_sum
            FROM f
        """,
        # fuzzy resolve: token-Jaccard >= 0.8 edges within source blocks,
        # connected components via recursive reachability closure (UNION
        # dedups, so it terminates), canonical = min id of the component
        "resolve_fuzzy_documents": r"""
            WITH RECURSIVE tok AS (
              SELECT doc_id, source,
                     unnest(regexp_extract_all(lower(text), '\w+')) AS w
              FROM documents
            ),
            tokd AS (SELECT DISTINCT doc_id, source, w FROM tok),
            sz AS (SELECT doc_id, count(*) AS n FROM tokd GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
              FROM tokd a JOIN tokd b
                ON a.w = b.w AND a.source = b.source AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ),
            e0 AS (
              SELECT ia, ib FROM inter
              JOIN sz sa ON sa.doc_id = ia JOIN sz sb ON sb.doc_id = ib
              WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
            ),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT doc_id AS id, doc_id AS r FROM documents
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id
            )
            SELECT id AS doc_id, min(r) AS canonical_id FROM reach GROUP BY id
        """,
        # text_ratios plus the pinned quality score formula (same clip
        # expressions, same evaluation order as the numpy implementation)
        "quality_documents": r"""
            WITH toks AS (
              SELECT doc_id, text,
                     list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents),
            feats AS (
              SELECT doc_id,
                     len(t) AS n_tok,
                     CAST(len(regexp_extract_all(text, '[.!?,;:]')) AS DOUBLE)
                       / greatest(1, length(text)) AS punct_ratio,
                     CAST(len(list_filter(t, x -> lower(x) IN
                          ('the','and','of','to','in','is','that','it','with','for','was','this')))
                          AS DOUBLE) / greatest(1, len(t)) AS stopword_ratio,
                     CASE WHEN len(t) = 0 THEN 0.0
                          ELSE CAST(list_sum(list_transform(t, x -> length(x))) AS DOUBLE) / len(t)
                     END AS mean_token_len
              FROM toks)
            SELECT doc_id, punct_ratio, stopword_ratio, mean_token_len,
                   0.5 * (least(greatest(CAST(n_tok AS DOUBLE) / 50.0, 0), 1)
                          * least(greatest((5000 - CAST(n_tok AS DOUBLE)) / 5000.0, 0), 1))
                   + 0.25 * (1.0 - least(greatest(abs(punct_ratio - 0.02) * 20, 0), 1))
                   + 0.25 * (1.0 - least(greatest(abs(mean_token_len - 5.0) / 5.0, 0), 1))
                     AS quality
            FROM feats
        """,
        # winnowing fingerprint, sql_parity mode: md5 char-5-gram hashes
        # (lexicographic min == numeric min on the uint64 hex prefix),
        # window-4 minima over fully-contained windows, md5 of the sorted
        # comma-joined selected set
        "fingerprint_documents": """
            WITH pos AS (
              SELECT doc_id, text, unnest(range(1, greatest(length(text) - 3, 2))) AS p
              FROM documents),
            g AS (
              SELECT doc_id, p, substr(md5(substr(text, p, 5)), 1, 16) AS h
              FROM pos),
            wm AS (
              SELECT doc_id, p,
                     min(h) OVER (PARTITION BY doc_id ORDER BY p
                                  ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS mh,
                     max(p) OVER (PARTITION BY doc_id) AS maxp
              FROM g),
            sel AS (
              SELECT DISTINCT doc_id, mh FROM wm WHERE p <= maxp - 3
              UNION
              SELECT doc_id, min(h) AS mh FROM g GROUP BY doc_id HAVING max(p) < 4
            )
            SELECT doc_id, md5(string_agg(mh, ',' ORDER BY mh)) AS fingerprint
            FROM sel GROUP BY doc_id
        """,
        # SimHash-64: md5-prefix token hashes, per-bit weighted votes,
        # reassembled with two's-complement wrap to match the int64 output
        "simhash_documents": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents),
            th AS (
              SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
              FROM toks),
            bits AS (
              SELECT doc_id, b.b AS b,
                     sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
              FROM th, range(0, 64) AS b(b)
              GROUP BY doc_id, b.b),
            acc AS (
              SELECT doc_id,
                     sum(CASE WHEN v > 0
                              THEN CAST(1::UBIGINT << b AS HUGEINT) ELSE 0 END) AS s
              FROM bits GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(CASE WHEN coalesce(a.s, 0) >= 9223372036854775808
                             THEN coalesce(a.s, 0) - 18446744073709551616
                             ELSE coalesce(a.s, 0) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN acc a ON a.doc_id = d.doc_id
        """,
        # BM25 (k1=1.5, b=0.75) over \w+ lowercased tokens — identical
        # two-pass stats (query-term df + global avg doc length) in SQL
        "top_fts_documents": """
            WITH toks AS (
              SELECT doc_id, lower(unnest(regexp_extract_all(text, '\\w+'))) AS w
              FROM documents
            ),
            dl AS (SELECT doc_id, count(*) AS L FROM toks GROUP BY doc_id),
            const AS (
              SELECT (SELECT count(*) FROM documents) AS n_docs,
                     (SELECT CAST(count(*) AS DOUBLE) FROM toks)
                       / (SELECT count(*) FROM documents) AS avgl
            ),
            qdf AS (
              SELECT w, count(DISTINCT doc_id) AS df FROM toks
              WHERE w IN ('spark','window','merge') GROUP BY w
            ),
            idf AS (
              SELECT w, ln(1 + ((SELECT n_docs FROM const) - df + 0.5) / (df + 0.5)) AS idf
              FROM qdf
            ),
            tf AS (
              SELECT doc_id, w, count(*) AS f FROM toks
              WHERE w IN ('spark','window','merge') GROUP BY doc_id, w
            ),
            score AS (
              SELECT tf.doc_id,
                     sum(idf.idf * tf.f * (1.5 + 1)
                         / (tf.f + 1.5 * (1 - 0.75 + 0.75 * dl.L / (SELECT avgl FROM const)))) AS s
              FROM tf JOIN idf ON tf.w = idf.w JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            )
            SELECT doc_id FROM score
            QUALIFY row_number() OVER (ORDER BY s DESC, doc_id) <= 20
        """,
        # minhash near-dup dedup with EXACT-Jaccard verification: equals
        # the all-pairs char-5-gram Jaccard >= 0.8 answer (components ->
        # keep min id) whenever LSH banding recall covers every true edge
        # (miss prob (1-j^4)^16 per pair; exhaustively verified 0 missed
        # at sf0.001/sf0.01/sf0.1, min true-edge j = 0.83)
        "minhash_dedup_documents": """
            WITH RECURSIVE sh0 AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, greatest(length(text) - 3, 2)),
                                           p -> substr(text, p, 5))) AS s
              FROM documents),
            shd AS (SELECT DISTINCT doc_id, s FROM sh0),
            sz AS (SELECT doc_id, count(*) AS n FROM shd GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
              FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
            e0 AS (
              SELECT ia, ib FROM inter
              JOIN sz sa ON sa.doc_id = ia JOIN sz sb ON sb.doc_id = ib
              WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT doc_id AS id, doc_id AS r FROM documents
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id)
            SELECT id AS doc_id FROM reach GROUP BY id HAVING min(r) = id
        """,
        # embedding near-dup: the md5-integer-plane LSH codes (quantized
        # q = floor(v*4096 + 0.5), w = md5%2001 - 1000 — all-integer, so
        # bit-for-bit reproducible here) are recomputed and conditioned
        # on: edges = same 6-plane code AND cosine >= 0.4; components ->
        # survivors keep min id
        "embedding_dedup_embeddings": """
            WITH RECURSIVE planes AS (
              SELECT j.j AS j, d.d AS d,
                     CAST(('0x' || substr(md5('emb11:' || j.j || ':' || d.d), 1, 16))::UBIGINT
                          % 2001 AS BIGINT) - 1000 AS w
              FROM range(0, 6) j(j), range(0, 64) d(d)),
            qv AS (
              SELECT vec_id, d.d AS d,
                     CAST(floor(CAST(embedding[d.d + 1] AS DOUBLE) * 4096 + 0.5) AS BIGINT) AS q
              FROM embeddings, range(0, 64) d(d)),
            dots AS (SELECT qv.vec_id, p.j AS j, sum(qv.q * p.w) AS dot
                     FROM qv JOIN planes p ON p.d = qv.d GROUP BY 1, 2),
            codes AS (
              SELECT vec_id, sum(CASE WHEN dot > 0 THEN CAST(1 AS BIGINT) << j ELSE 0 END) AS code
              FROM dots GROUP BY 1),
            e0 AS (
              SELECT a.vec_id AS ia, b.vec_id AS ib
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              JOIN codes ca ON ca.vec_id = a.vec_id
              JOIN codes cb ON cb.vec_id = b.vec_id
              WHERE ca.code = cb.code
                AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                           CAST(b.embedding AS DOUBLE[])) >= 0.4),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT vec_id AS id, vec_id AS r FROM embeddings
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id)
            SELECT id AS vec_id FROM reach GROUP BY id HAVING min(r) = id
        """,
        # LSH-bucketed ANN: recompute the 8-plane codes, form the UNION
        # probe set (hamming <= 1 from ANY query's code — the engine
        # scores every probed vector against every query), exact top-5
        # by cosine within the candidates
        "ann_topk_lsh": """
            WITH planes AS (
              SELECT j.j AS j, d.d AS d,
                     CAST(('0x' || substr(md5('ann11:' || j.j || ':' || d.d), 1, 16))::UBIGINT
                          % 2001 AS BIGINT) - 1000 AS w
              FROM range(0, 8) j(j), range(0, 64) d(d)),
            qv AS (
              SELECT vec_id, d.d AS d,
                     CAST(floor(CAST(embedding[d.d + 1] AS DOUBLE) * 4096 + 0.5) AS BIGINT) AS q
              FROM embeddings, range(0, 64) d(d)),
            dots AS (SELECT qv.vec_id, p.j AS j, sum(qv.q * p.w) AS dot
                     FROM qv JOIN planes p ON p.d = qv.d GROUP BY 1, 2),
            codes AS (
              SELECT vec_id, sum(CASE WHEN dot > 0 THEN CAST(1 AS BIGINT) << j ELSE 0 END) AS code
              FROM dots GROUP BY 1),
            qsel AS (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 3),
            qn AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                          vec_id, embedding FROM qsel),
            qcodes AS (SELECT qn.query_id, c.code FROM qn JOIN codes c USING (vec_id)),
            cand AS (
              SELECT DISTINCT c.vec_id FROM codes c
              JOIN qcodes qc ON bit_count(xor(c.code, qc.code)) <= 1),
            scored AS (
              SELECT qn.query_id, e.vec_id,
                     list_cosine_similarity(CAST(qn.embedding AS DOUBLE[]),
                                            CAST(e.embedding AS DOUBLE[])) AS s
              FROM qn CROSS JOIN embeddings e
              JOIN cand ON cand.vec_id = e.vec_id)
            SELECT query_id, vec_id FROM scored
            QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id) <= 5
        """,
        # exact quantiles (no global sort in the engine); DuckDB's
        # quantile_disc is the oracle — list form + 1-based list index
        "quantiles_lineitem": """
            WITH qs(q, i) AS (VALUES (0.01, 1), (0.25, 2), (0.5, 3),
                                     (0.75, 4), (0.99, 5)),
            agg AS (SELECT quantile_disc(l_extendedprice,
                             [0.01, 0.25, 0.5, 0.75, 0.99]) AS v
                    FROM lineitem)
            SELECT CAST(qs.q AS DOUBLE) AS q,
                   CAST(agg.v[qs.i] AS DOUBLE) AS value
            FROM qs, agg
        """,
        # as-of join: DuckDB's native ASOF JOIN is the oracle; the right
        # side is pre-deduped per (user_id, ts) — ASOF picks an
        # unspecified row among exact duplicates, the engine picks a
        # deterministic one, so the dedup makes both well-defined
        "asof_join_events": """
            WITH l AS (SELECT event_id, ts, user_id, value
                       FROM events WHERE event_id % 2 = 1),
            r0 AS (SELECT user_id, ts, event_id AS r_event_id,
                          value AS r_value
                   FROM events WHERE event_id % 2 = 0),
            r AS (SELECT * FROM r0
                  QUALIFY row_number() OVER (
                    PARTITION BY user_id, ts
                    ORDER BY r_event_id DESC, r_value DESC) = 1)
            SELECT l.event_id, l.ts, l.user_id, l.value,
                   r.r_event_id, r.r_value
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        # incremental dedup vs persisted index, 3 epochs: the survivors
        # of epochs 1 and 2 = each md5-prefix fingerprint's first doc
        # (min doc_id) within the first epoch that carries it, unless
        # that epoch is 0
        "incremental_dedup_documents": """
            WITH synth AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 5 = 0
                            THEN 'dup-' || CAST(doc_id % 10 AS VARCHAR)
                          WHEN doc_id >= 250 AND doc_id % 7 = 3
                            THEN 'late-' || CAST(doc_id % 14 AS VARCHAR)
                          WHEN doc_id >= 375 AND doc_id % 11 = 4
                            THEN 'fresh-' || CAST(doc_id % 22 AS VARCHAR)
                          ELSE text END AS text
              FROM documents),
            keyed AS (
              SELECT doc_id, text, substr(md5(text), 1, 16) AS h,
                     CASE WHEN doc_id < 250 THEN 0
                          WHEN doc_id < 375 THEN 1 ELSE 2 END AS epoch
              FROM synth),
            first AS (SELECT h, min(epoch) AS e FROM keyed GROUP BY h)
            SELECT doc_id, text FROM keyed JOIN first USING (h)
            WHERE epoch = e AND epoch > 0
            QUALIFY row_number() OVER (PARTITION BY h ORDER BY doc_id) = 1
        """,
        # IVF-flat ANN: centroids = 16 lowest-vec_id vectors; every vector
        # joins the inverted list of its max-cosine centroid (ties ->
        # lowest centroid index); each query probes its 4 closest lists;
        # exact top-5 by cosine within the probed lists
        "ann_topk_ivf": """
            WITH cent AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid,
                     CAST(embedding AS DOUBLE[]) AS ce
              FROM embeddings QUALIFY row_number() OVER (ORDER BY vec_id) <= 16),
            q AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                     CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings QUALIFY row_number() OVER (ORDER BY vec_id) <= 3),
            assign AS (
              SELECT vec_id, embedding, cid FROM (
                SELECT e.vec_id, e.embedding, c.cid,
                       row_number() OVER (PARTITION BY e.vec_id
                         ORDER BY list_cosine_similarity(c.ce,
                                    CAST(e.embedding AS DOUBLE[])) DESC, c.cid) AS rn
                FROM embeddings e CROSS JOIN cent c) WHERE rn = 1),
            probes AS (
              SELECT query_id, cid FROM (
                SELECT q.query_id, c.cid,
                       row_number() OVER (PARTITION BY q.query_id
                         ORDER BY list_cosine_similarity(c.ce, q.qe) DESC, c.cid) AS rn
                FROM q CROSS JOIN cent c) WHERE rn <= 4)
            SELECT query_id, vec_id FROM (
              SELECT p.query_id, a.vec_id,
                     row_number() OVER (PARTITION BY p.query_id
                       ORDER BY list_cosine_similarity(q.qe,
                                  CAST(a.embedding AS DOUBLE[])) DESC, a.vec_id) AS rn
              FROM probes p JOIN assign a USING (cid) JOIN q USING (query_id))
            WHERE rn <= 5
        """,
        # embedding-blocked equijoin candidates: recompute the 8-plane
        # codes; pair surfaces iff hamming(code_l, code_r) <= 1 (the
        # probe_flips=1 multi-probe) AND cosine >= 0.35
        "embedding_blocked_join_embeddings": """
            WITH planes AS (
              SELECT j.j AS j, d.d AS d,
                     CAST(('0x' || substr(md5('emb11:' || j.j || ':' || d.d), 1, 16))::UBIGINT
                          % 2001 AS BIGINT) - 1000 AS w
              FROM range(0, 8) j(j), range(0, 64) d(d)),
            qv AS (
              SELECT vec_id, d.d AS d,
                     CAST(floor(CAST(embedding[d.d + 1] AS DOUBLE) * 4096 + 0.5) AS BIGINT) AS q
              FROM embeddings, range(0, 64) d(d)),
            dots AS (SELECT qv.vec_id, p.j AS j, sum(qv.q * p.w) AS dot
                     FROM qv JOIN planes p ON p.d = qv.d GROUP BY 1, 2),
            codes AS (
              SELECT vec_id, sum(CASE WHEN dot > 0 THEN CAST(1 AS BIGINT) << j ELSE 0 END) AS code
              FROM dots GROUP BY 1),
            l AS (SELECT e.vec_id, e.embedding, c.code FROM embeddings e
                  JOIN codes c USING (vec_id) WHERE e.vec_id < 250),
            r AS (SELECT e.vec_id, e.embedding, c.code FROM embeddings e
                  JOIN codes c USING (vec_id) WHERE e.vec_id >= 250)
            SELECT l.vec_id, r.vec_id AS rvec_id
            FROM l JOIN r ON bit_count(xor(l.code, r.code)) <= 1
            WHERE list_cosine_similarity(CAST(l.embedding AS DOUBLE[]),
                                         CAST(r.embedding AS DOUBLE[])) >= 0.35
        """,
        # single-linkage threshold cut == components of the euclidean
        # "distance <= 1.05" graph; cluster_id = min member id (1.05 sits
        # in an empirical >6e-4 gap of the distance distribution)
        "cluster_threshold_embeddings": """
            WITH RECURSIVE e0 AS (
              SELECT a.vec_id AS ia, b.vec_id AS ib
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_distance(CAST(a.embedding AS DOUBLE[]),
                                  CAST(b.embedding AS DOUBLE[])) <= 1.05),
            edges AS (SELECT ia AS a, ib AS b FROM e0
                      UNION ALL SELECT ib AS a, ia AS b FROM e0),
            reach AS (
              SELECT vec_id AS id, vec_id AS r FROM embeddings
              UNION
              SELECT e.b AS id, reach.r AS r FROM reach JOIN edges e ON e.a = reach.id)
            SELECT id AS vec_id, min(r) AS cluster_id FROM reach GROUP BY id
        """,
        # dangling-link repair: links absent from the id set are rewritten
        # to the best char-3-gram-Jaccard id when strictly > 0.5 (ties ->
        # smallest id), else kept — same arithmetic as
        # stages/link_resolve.py / resolve.char_ngram_jaccard
        "link_resolve_documents": """
            WITH ids AS (SELECT DISTINCT source AS id FROM documents),
            rows_ AS (
              SELECT doc_id, source,
                     CASE WHEN doc_id % 5 = 0 THEN source || '_x' ELSE source END AS link
              FROM documents),
            dang AS (SELECT DISTINCT link FROM rows_
                     WHERE link NOT IN (SELECT id FROM ids)),
            vg AS (SELECT link,
                          list_distinct(list_transform(
                            range(1, greatest(length(lower(link)) - 2, 1) + 1),
                            p -> substr(lower(link), p, 3))) AS g
                   FROM dang),
            ig AS (SELECT id,
                          list_distinct(list_transform(
                            range(1, greatest(length(lower(id)) - 2, 1) + 1),
                            p -> substr(lower(id), p, 3))) AS g
                   FROM ids),
            scored AS (
              SELECT v.link, i.id,
                     CAST(len(list_intersect(v.g, i.g)) AS DOUBLE)
                       / (len(v.g) + len(i.g) - len(list_intersect(v.g, i.g))) AS s
              FROM vg v CROSS JOIN ig i),
            best AS (SELECT link, id, s FROM scored
                     QUALIFY row_number() OVER (PARTITION BY link ORDER BY s DESC, id) = 1),
            rmap AS (SELECT link, CASE WHEN s > 0.5 THEN id ELSE link END AS newv FROM best)
            SELECT r.doc_id, coalesce(m.newv, r.link) AS link
            FROM rows_ r LEFT JOIN rmap m ON m.link = r.link
        """,
        # exact char-5-gram Jaccard join: the engine's MinHash-LSH blocking
        # plus exact verification equals the all-pairs SQL answer whenever
        # LSH recall covers every >=threshold pair (miss prob <= (1-j)^64
        # per pair at j>=0.8 — negligible; checked exact at sf0.01)
        "fuzzy_join_documents": """
            WITH sh0 AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, greatest(length(text) - 3, 2)),
                                           p -> substr(text, p, 5))) AS s
              FROM documents
            ),
            shd AS (SELECT DISTINCT doc_id, s FROM sh0),
            sz AS (SELECT doc_id, count(*) AS n FROM shd GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS doc_id, b.doc_id AS rdoc_id, count(*) AS i
              FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < 250 AND b.doc_id >= 250
              GROUP BY a.doc_id, b.doc_id
            )
            SELECT i.doc_id, i.rdoc_id,
                   CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) AS jaccard
            FROM inter i
            JOIN sz sa ON sa.doc_id = i.doc_id
            JOIN sz sb ON sb.doc_id = i.rdoc_id
            WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.8
        """,
        # LLM prompt ops: the deterministic client derives each output key
        # from md5(rendered prompt) — key i (schema keys sorted) reads
        # bytes [4i%12, 4i%12+4) big-endian.  Replayed here as hex-slice
        # arithmetic over the identically rendered string.
        # llm_map schema {category: enum[news,blog,docs,forum], score: int}:
        # category = enum[seed0 % 4], score = seed1 % 100.
        "llm_map_documents": """
            WITH p AS (SELECT doc_id,
                              md5('Classify:' || chr(10) || text) AS h
                       FROM documents)
            SELECT doc_id,
                   (['news', 'blog', 'docs', 'forum'])[
                       CAST(('0x' || substr(h, 1, 8))::UBIGINT % 4 AS INT) + 1
                   ] AS category,
                   CAST(('0x' || substr(h, 9, 8))::UBIGINT % 100 AS BIGINT) AS score
            FROM p
        """,
        # gleaning chain, replayed hop-by-hop: out0 = f(md5(r)); validator
        # call h1 = md5(r + "\n[assistant] " + json.dumps(out0, sorted) +
        # "\n[validator] " + vprompt) gives should_refine = seed1 % 2 and
        # improvements = 'gen_%05d'; if refining, final = f(md5(r +
        # "\n[improve round 1] " + improvements)) else out0.
        "llm_map_gleaning_documents": """
            WITH p AS (SELECT doc_id, 'Classify:' || chr(10) || text AS r
                       FROM documents),
            s0 AS (SELECT doc_id, r, md5(r) AS h0 FROM p),
            o0 AS (SELECT doc_id, r,
                      (['news', 'blog', 'docs', 'forum'])[
                          CAST(('0x' || substr(h0, 1, 8))::UBIGINT % 4 AS INT) + 1
                      ] AS cat0,
                      ('0x' || substr(h0, 9, 8))::UBIGINT % 100 AS score0
                   FROM s0),
            g AS (SELECT doc_id, r, cat0, score0,
                     md5(r || chr(10) || '[assistant] {"category": "' || cat0
                         || '", "score": ' || score0 || '}' || chr(10)
                         || '[validator] Check the classification quality.') AS h1
                  FROM o0),
            d AS (SELECT doc_id, r, cat0, score0,
                     ('0x' || substr(h1, 9, 8))::UBIGINT % 2 AS refine,
                     'gen_' || lpad(CAST(('0x' || substr(h1, 1, 8))::UBIGINT % 100000
                                         AS VARCHAR), 5, '0') AS improvements
                  FROM g),
            f AS (SELECT doc_id, cat0, score0, refine,
                     CASE WHEN refine = 1
                          THEN md5(r || chr(10) || '[improve round 1] ' || improvements)
                     END AS h2
                  FROM d)
            SELECT doc_id,
                   CASE WHEN refine = 1
                        THEN (['news', 'blog', 'docs', 'forum'])[
                            CAST(('0x' || substr(h2, 1, 8))::UBIGINT % 4 AS INT) + 1]
                        ELSE cat0 END AS category,
                   CAST(CASE WHEN refine = 1
                             THEN ('0x' || substr(h2, 9, 8))::UBIGINT % 100
                             ELSE score0 END AS BIGINT) AS score
            FROM f
        """,
        # llm_filter: bool key = seed0 % 2, row kept where true
        "llm_filter_documents": """
            SELECT doc_id, lang FROM documents
            WHERE ('0x' || substr(md5('Keep this doc?' || chr(10) || text), 1, 8))::UBIGINT
                  % 2 = 1
        """,
        # Gopher quality rules: every metric is an RE2 count / literal
        # count, divisions double/double in fixed operand order (Arrow
        # and DuckDB both run RE2, so (?m), \b and the unicode literals
        # behave identically)
        "gopher_quality_documents": r"""
            WITH m AS (
              SELECT doc_id,
                     length(text) AS n_chars,
                     len(regexp_extract_all(text, '\s')) AS n_ws,
                     len(regexp_extract_all(text, '\S+')) AS n_words,
                     len(regexp_extract_all(text, '#'))
                       + len(regexp_extract_all(text, '\.\.\.')) AS n_sym,
                     length(text) - length(replace(text, chr(10), '')) + 1 AS n_lines,
                     len(regexp_extract_all(text, '(?m)^\s*[-*•]')) AS n_bullet,
                     len(regexp_extract_all(text, '(?m)(\.\.\.|…)$')) AS n_ellip,
                     len(regexp_extract_all(text, '\S*[A-Za-z]\S*')) AS n_alpha,
                     (CASE WHEN regexp_matches(text, '(?i)\bthe\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bbe\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bto\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bof\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\band\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bthat\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bhave\b') THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(text, '(?i)\bwith\b') THEN 1 ELSE 0 END
                     ) AS n_stop_hits
              FROM documents),
            f AS (
              SELECT doc_id, n_words, n_stop_hits,
                     CASE WHEN n_words > 0
                          THEN (n_chars - n_ws) / greatest(1, n_words)
                          ELSE 0.0 END AS mean_word_len,
                     n_sym / greatest(1, n_words) AS symbol_word_ratio,
                     n_bullet / n_lines AS bullet_line_frac,
                     n_ellip / n_lines AS ellipsis_line_frac,
                     n_alpha / greatest(1, n_words) AS alpha_word_frac
              FROM m)
            SELECT doc_id, n_words, mean_word_len, symbol_word_ratio,
                   bullet_line_frac, ellipsis_line_frac, alpha_word_frac,
                   n_stop_hits,
                   (n_words BETWEEN 50 AND 100000
                    AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
                    AND symbol_word_ratio < 0.1
                    AND bullet_line_frac < 0.9
                    AND ellipsis_line_frac < 0.3
                    AND alpha_word_frac > 0.8
                    AND n_stop_hits >= 2) AS gopher_pass
            FROM f
        """,
        # line-repetition metrics over non-empty lines; integer sums
        # divided as doubles, identical to the numpy computation
        "repetition_stats_documents": """
            WITH l AS (
              SELECT doc_id, x AS line, length(x) AS c
              FROM documents, unnest(string_split(text, chr(10))) AS t(x)
              WHERE x <> ''),
            g AS (SELECT doc_id, line, count(*) AS cnt, first(c) AS c
                  FROM l GROUP BY doc_id, line),
            per AS (SELECT doc_id,
                           sum(cnt) AS n_lines,
                           count(*) AS n_distinct,
                           sum(cnt * c) AS all_chars,
                           sum(CASE WHEN cnt > 1 THEN cnt * c ELSE 0 END) AS dup_chars
                    FROM g GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce((per.n_lines - per.n_distinct) / per.n_lines, 0.0)
                       AS dup_line_frac,
                   coalesce(per.dup_chars / per.all_chars, 0.0) AS dup_line_char_frac
            FROM documents d LEFT JOIN per USING (doc_id)
        """,
        # PII scrub: oracle replays the deterministic PII seeding and the
        # RE2 redaction chain (email -> ipv4 -> phone; counts on the
        # ORIGINAL text); pyarrow and DuckDB both run RE2
        "pii_scrub_documents": r"""
            WITH synth AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 4 = 1 THEN
                       text || ' contact user' || CAST(doc_id AS VARCHAR)
                            || '@example.com or +1 555-000-'
                            || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                            || ' at 192.168.' || CAST(doc_id % 256 AS VARCHAR)
                            || '.7'
                     ELSE text END AS text
              FROM documents)
            SELECT doc_id,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(text,
                         '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                         '<EMAIL>', 'g'),
                       '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
                     '\+\d[\d\-\s]{7,}\d', '<PHONE>', 'g') AS text_clean,
                   len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}'))::BIGINT
                     AS n_email,
                   len(regexp_extract_all(text,
                     '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))::BIGINT AS n_ipv4,
                   len(regexp_extract_all(text,
                     '\+\d[\d\-\s]{7,}\d'))::BIGINT AS n_phone
            FROM synth
        """,
        # URL canonicalization: the oracle replays the deterministic
        # messy-URL construction (_synth_raw_urls) AND the RFC 3986
        # syntax-based normalization (lowercase scheme/host, strip
        # default port, drop fragment, empty path -> '/'); non-URL rows
        # (doc_id%11==0) pass through unchanged
        "url_normalize_documents": """
            WITH s AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 3 = 1 THEN 'https' ELSE 'http' END AS scheme,
                     'h' || (doc_id % 13) || '.example.com' AS host,
                     CASE WHEN doc_id % 4 = 2 THEN ':8080' ELSE '' END AS port_keep,
                     '/' || (doc_id % 997) || '/' || doc_id AS path
              FROM documents)
            SELECT doc_id,
                   CASE WHEN doc_id % 11 = 0 THEN 'doc ' || doc_id || ' has no url'
                        ELSE upper(scheme) || '://' || upper(host)
                             || CASE WHEN doc_id % 4 = 0
                                     THEN CASE WHEN scheme = 'https'
                                               THEN ':443' ELSE ':80' END
                                     ELSE port_keep END
                             || CASE WHEN doc_id % 7 = 0 THEN '' ELSE path END
                             || CASE WHEN doc_id % 5 = 0 THEN '#sec-' || doc_id
                                     ELSE '' END
                   END AS url_raw,
                   CASE WHEN doc_id % 11 = 0 THEN 'doc ' || doc_id || ' has no url'
                        ELSE scheme || '://' || host || port_keep
                             || CASE WHEN doc_id % 7 = 0 THEN '/' ELSE path END
                   END AS url
            FROM s
        """,
        # per-host page stats over two spellings of each canonical url;
        # docs with doc_id%7==0 share one canonical url per
        # (host, scheme, port) so n_urls genuinely deduplicates
        "host_stats_documents": """
            WITH s AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 3 = 1 THEN 'https' ELSE 'http' END AS scheme,
                     'h' || (doc_id % 13) || '.example.com' AS host,
                     CASE WHEN doc_id % 4 = 2 THEN ':8080' ELSE '' END AS port_keep,
                     '/' || (doc_id % 997) || '/' || doc_id AS path
              FROM documents
              WHERE doc_id % 11 <> 0),
            c AS (
              SELECT host,
                     scheme || '://' || host || port_keep
                     || CASE WHEN doc_id % 7 = 0 THEN '/' ELSE path END AS url
              FROM s)
            SELECT host, 2 * count(*) AS n_pages, count(DISTINCT url) AS n_urls
            FROM c GROUP BY host
        """,
        # comparison-QuRK rank: md5-keyed deterministic batches, the
        # fake client's 2-element ranking = (seed%7, (seed>>8)%7) from
        # the first 4 bytes of md5(rendered prompt); one win per batch
        # when both entries are valid and distinct; final order = wins
        # desc, original (doc_id) position asc
        "rank_qurk_documents": """
            WITH docs AS (
              SELECT doc_id, text,
                     row_number() OVER (ORDER BY doc_id) - 1 AS pos
              FROM documents),
            keyed AS (
              SELECT b.bn, d.pos, d.doc_id, d.text,
                     md5('qurk|' || b.bn || '|' || d.pos) AS k
              FROM (SELECT unnest(range(200)) AS bn) b, docs d),
            topk AS (
              SELECT * FROM (
                SELECT bn, pos, doc_id, text,
                       row_number() OVER (PARTITION BY bn ORDER BY k) - 1 AS j
                FROM keyed)
              WHERE j < 10),
            prompts AS (
              SELECT bn, count(*) AS s,
                     'Rank these documents for: most informative' || chr(10) ||
                     string_agg('[' || j || '] text: ' || text,
                                chr(10) || '---' || chr(10) ORDER BY j) AS p
              FROM topk GROUP BY bn),
            rk AS (
              SELECT bn, s,
                     (('0x' || substr(md5(p), 1, 8))::UBIGINT % 7) AS r0,
                     ((('0x' || substr(md5(p), 1, 8))::UBIGINT // 256) % 7) AS r1
              FROM prompts),
            winner AS (
              SELECT bn, r0 AS jwin FROM rk
              WHERE r0 < s AND r1 < s AND r0 <> r1),
            wins AS (
              SELECT t.doc_id, count(*) AS w
              FROM winner x JOIN topk t ON t.bn = x.bn AND t.j = x.jwin
              GROUP BY t.doc_id)
            SELECT d.doc_id,
                   row_number() OVER (ORDER BY coalesce(w.w, 0) DESC, d.pos)
                       AS _rank
            FROM docs d LEFT JOIN wins w USING (doc_id)
        """,
        # CCNet-style paragraph dedup: drop paragraphs appearing in >=2
        # distinct docs; empty paragraphs are never counted or dropped;
        # the oracle replays the boilerplate construction AND the dedup
        "paragraph_dedup_documents": """
            WITH d2 AS (
              SELECT doc_id,
                     text || chr(10) || 'Subscribe to our newsletter'
                       || CASE WHEN doc_id % 2 = 0
                               THEN chr(10) || 'Copyright 2024 Example Corp'
                               ELSE '' END
                       || CASE WHEN doc_id % 3 = 0
                               THEN chr(10) || 'footer-' || doc_id
                               ELSE '' END AS text
              FROM documents),
            p AS (
              SELECT doc_id,
                     string_split(text, chr(10))[i] AS para, i AS idx
              FROM d2,
                   unnest(range(1, len(string_split(text, chr(10))) + 1)) AS t(i)),
            hot AS (
              SELECT para FROM (
                SELECT para, count(DISTINCT doc_id) AS c
                FROM p WHERE para <> '' GROUP BY para)
              WHERE c >= 2),
            kept AS (
              SELECT doc_id, string_agg(para, chr(10) ORDER BY idx) AS text
              FROM p WHERE para NOT IN (SELECT para FROM hot)
              GROUP BY doc_id)
            SELECT d2.doc_id, coalesce(k.text, '') AS text
            FROM d2 LEFT JOIN kept k USING (doc_id)
        """,
        # LLM resolve: pairwise is_match = md5(rendered compare prompt)
        # seed0 % 2 within each mod-64 block; components = min-label
        # recursive closure over matched edges (min-root union-find
        # semantics); multi-row clusters take canonical_text =
        # 'gen_%05d' from md5 of the resolution prompt rendered with the
        # cluster's sorted doc_ids.
        "llm_resolve_documents": r"""
            WITH RECURSIVE d AS (
              SELECT doc_id, text, doc_id & 63 AS blk FROM documents),
            edges AS (
              SELECT a.doc_id AS u, b.doc_id AS v
              FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
              WHERE ('0x' || substr(md5('Same?' || chr(10) || 'A: ' || a.text
                                        || chr(10) || 'B: ' || b.text), 1, 8))::UBIGINT
                    % 2 = 1),
            sym AS (SELECT u, v FROM edges UNION ALL SELECT v, u FROM edges),
            cc AS (
              SELECT doc_id, doc_id AS lbl FROM d
              UNION
              SELECT s.v AS doc_id, cc.lbl
              FROM cc JOIN sym s ON s.u = cc.doc_id
              WHERE cc.lbl < s.v),
            lab AS (SELECT doc_id, min(lbl) AS canon FROM cc GROUP BY doc_id),
            cl AS (
              SELECT l.canon, count(*) AS sz,
                     string_agg(d.doc_id || ',', '' ORDER BY d.doc_id) AS ids
              FROM lab l JOIN d USING (doc_id) GROUP BY l.canon),
            res AS (
              SELECT canon, sz,
                     'gen_' || lpad(CAST(('0x' || substr(md5('Merge: ' || ids), 1, 8))::UBIGINT
                                         % 100000 AS VARCHAR), 5, '0') AS ct
              FROM cl)
            SELECT d.doc_id, l.canon AS _canonical,
                   CASE WHEN r.sz > 1 THEN r.ct ELSE '' END AS canonical_text,
                   '{}' AS _kv_pairs_preresolve_resolve
            FROM d JOIN lab l USING (doc_id) JOIN res r ON r.canon = l.canon
        """,
        # LLM resolve with eval'd blocking_conditions: identical edge
        # derivation, but a pair is only compared (and can only match)
        # when the texts share a 4-char prefix — the predicate appears as
        # an extra join condition in edges.  Blocks where NO pair shares
        # a prefix fall back to comparing ALL pairs (reference
        # resolve.py:411-412), expressed as the anti-join on `adm`.
        "llm_resolve_blocked_documents": r"""
            WITH RECURSIVE d AS (
              SELECT doc_id, text, doc_id & 63 AS blk FROM documents),
            adm AS (
              SELECT count(*) AS n
              FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
                   AND substr(a.text, 1, 4) = substr(b.text, 1, 4)),
            edges AS (
              -- fallback-to-all-pairs is GLOBAL (reference
              -- resolve.py:411-412): only when no pair is admitted
              -- anywhere does every block compare all pairs
              SELECT a.doc_id AS u, b.doc_id AS v
              FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
              WHERE (substr(a.text, 1, 4) = substr(b.text, 1, 4)
                     OR (SELECT n FROM adm) = 0)
                AND ('0x' || substr(md5('Same?' || chr(10) || 'A: ' || a.text
                                        || chr(10) || 'B: ' || b.text), 1, 8))::UBIGINT
                    % 2 = 1),
            sym AS (SELECT u, v FROM edges UNION ALL SELECT v, u FROM edges),
            cc AS (
              SELECT doc_id, doc_id AS lbl FROM d
              UNION
              SELECT s.v AS doc_id, cc.lbl
              FROM cc JOIN sym s ON s.u = cc.doc_id
              WHERE cc.lbl < s.v),
            lab AS (SELECT doc_id, min(lbl) AS canon FROM cc GROUP BY doc_id)
            SELECT doc_id, canon AS _canonical FROM lab
        """,
        # condition-blocked LLM equijoin: candidates = eval'd pair
        # predicate (6-char text prefix match) over documents x the 50
        # lowest-id documents; is_match = md5(rendered compare prompt)
        # parity with the FakeDeterministicClient.
        "condition_blocked_join_documents": r"""
            WITH r AS (
              SELECT doc_id AS r_id, text AS r_text FROM documents
              ORDER BY doc_id LIMIT 50)
            SELECT d.doc_id, d.text, r.r_id, r.r_text
            FROM documents d, r
            WHERE substr(d.text, 1, 6) = substr(r.r_text, 1, 6)
              AND ('0x' || substr(md5('Join?' || chr(10) || 'L: ' || d.text
                                      || chr(10) || 'R: ' || r.r_text), 1, 8))::UBIGINT
                  % 2 = 1
        """,
        # LLM rank, likert + one refinement window: rating = f(md5('Rate
        # 1-7 for: <criteria>\n' + content)), normalized into 1..7; order
        # by rating desc / doc_id; the single window call's md5 over the
        # rendered top-20 listing yields picks [s%7, (s>>8)%7], applied
        # as two swap-to-front transpositions ((0 p0) then (1 c1)).
        "rank_likert_documents": r"""
            WITH rated AS (
              SELECT doc_id, text,
                     ('0x' || substr(md5('Rate 1-7 for: most informative' || chr(10)
                                         || 'text: ' || text), 1, 8))::UBIGINT % 100 AS v
              FROM documents),
            norm AS (
              SELECT doc_id, text,
                     CASE WHEN v BETWEEN 1 AND 7 THEN v ELSE v % 7 + 1 END AS rating
              FROM rated),
            top AS (
              SELECT doc_id, text, rating,
                     row_number() OVER (ORDER BY rating DESC, doc_id) - 1 AS op
              FROM norm QUALIFY op < 20),
            win AS (
              SELECT md5('Pick the top 3 documents for: most informative' || chr(10) ||
                         string_agg('[' || op || '] text: ' || text,
                                    chr(10) || '---' || chr(10) ORDER BY op)) AS h
              FROM top),
            picks AS (
              SELECT CAST(('0x' || substr(h, 1, 8))::UBIGINT % 7 AS INT) AS p0,
                     CAST((('0x' || substr(h, 1, 8))::UBIGINT // 256) % 7 AS INT) AS p1raw
              FROM win),
            pk AS (
              SELECT p0,
                     CASE WHEN p1raw = p0 THEN NULL ELSE p1raw END AS p1,
                     CASE WHEN p1raw = p0 THEN NULL
                          WHEN p1raw = 0 THEN p0
                          ELSE p1raw END AS c1
              FROM picks)
            SELECT t.doc_id,
                   CAST((CASE
                      WHEN pk.p1 IS NULL THEN pos1
                      WHEN pos1 = 1 THEN pk.c1
                      WHEN pos1 = pk.c1 THEN 1
                      ELSE pos1 END) + 1 AS BIGINT) AS _rank
            FROM (
              SELECT doc_id,
                     CASE WHEN op = 0 THEN pk.p0
                          WHEN op = pk.p0 THEN 0
                          ELSE op END AS pos1
              FROM top, pk) t, pk
        """,
        # llm_reduce over lang: one call per group; the prompt renders the
        # group's doc_ids sorted, so string_agg(... ORDER BY doc_id)
        # rebuilds the identical rendered string.  Schema keys sorted:
        # confidence = seed0 % 10000 / 100, summary = 'gen_%05d' % (seed1
        # % 100000); _counts_prereduce counts the FULL group.
        "llm_reduce_lang_documents": """
            WITH g AS (SELECT lang,
                              string_agg(doc_id || ';', '' ORDER BY doc_id) AS ids,
                              count(*) AS n
                       FROM documents GROUP BY lang),
                 h AS (SELECT lang, n,
                              md5('Summarize ' || lang || ': ' || ids) AS h
                       FROM g)
            SELECT lang,
                   'gen_' || lpad(CAST(('0x' || substr(h, 9, 8))::UBIGINT % 100000
                                       AS VARCHAR), 5, '0') AS summary,
                   (('0x' || substr(h, 1, 8))::UBIGINT % 10000) / 100.0 AS confidence,
                   n AS _counts_prereduce
            FROM h
        """,
        # MOAR first layer (sample=first 200 docs by doc_id): per
        # catalog model, cost = sum over DISTINCT rendered prompts of
        # whitespace-token count × in-rate + 2 json-out tokens ×
        # out-rate (integer micro-dollars, cache bills each distinct
        # prompt once); accuracy = mean of md5(model|qp|doc_id) draws
        # under the model's quality permille; frontier = strictly more
        # accurate than every cheaper model
        "moar_first_layer_documents": r"""
            WITH doc AS (
                SELECT doc_id, 'Summarize:' || chr(10) || text AS rendered
                FROM documents ORDER BY doc_id LIMIT 200
            ),
            m(model, in_micro, out_micro, qp) AS (
                VALUES ('det-large', 10000, 30000, 930),
                       ('det-medium', 3000, 15000, 860),
                       ('det-small', 250, 1250, 740),
                       ('det-mini', 50, 400, 620)
            ),
            tok AS (
                SELECT len(regexp_extract_all(rendered, '\S+')) AS in_tok
                FROM (SELECT DISTINCT rendered FROM doc)
            ),
            cost AS (
                SELECT m.model,
                       CAST(SUM(t.in_tok) * m.in_micro
                            + COUNT(*) * 2 * m.out_micro AS BIGINT)
                         AS cost_micro
                FROM tok t CROSS JOIN m
                GROUP BY m.model, m.in_micro, m.out_micro
            ),
            acc AS (
                SELECT m.model, COUNT(*) AS n_rows,
                       CAST(SUM(CASE WHEN
                           ('0x' || substr(md5(m.model || '|' || m.qp || '|'
                               || CAST(d.doc_id AS VARCHAR)), 1, 8))::UBIGINT
                           % 1000 < m.qp THEN 1 ELSE 0 END) AS DOUBLE)
                         / COUNT(*) AS accuracy
                FROM doc d CROSS JOIN m GROUP BY m.model, m.qp
            )
            SELECT c.model, a.n_rows, c.cost_micro, a.accuracy,
                   a.accuracy > COALESCE(
                       MAX(a.accuracy) OVER (
                           ORDER BY c.cost_micro
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       '-inf'::DOUBLE) AS on_frontier
            FROM cost c JOIN acc a USING (model)
            ORDER BY model
        """,
        # the build optimizer's chunking decision (token_limit=40 ->
        # budget=30, sample=first 100 docs by doc_id): whitespace token
        # counts, p90 pick, the reference-shaped two-ladder candidate
        # set (floors mirror python int() truncation on positives), and
        # the largest rung that fits the budget
        "optimizer_chunking_decision": r"""
            WITH sample AS (
                SELECT coalesce(text, '') AS text
                FROM documents ORDER BY doc_id LIMIT 100
            ),
            counts AS (
                SELECT length(list_filter(
                    regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n
                FROM sample
            ),
            stats AS (
                SELECT count(*) AS n_docs, avg(n) AS avg_doc FROM counts
            ),
            ordered AS (
                SELECT n, row_number() OVER (ORDER BY n) - 1 AS rk
                FROM counts
            ),
            p90 AS (
                SELECT o.n AS p90
                FROM ordered o, stats s
                WHERE o.rk = CAST(floor(0.9 * (s.n_docs - 1)) AS BIGINT)
            ),
            params AS (
                SELECT 30 AS budget,
                       LEAST(30, CAST(floor(s.avg_doc) AS BIGINT))
                           AS word_limit,
                       s.avg_doc AS avg_doc
                FROM stats s
            ),
            l1 AS (
                SELECT CAST(floor(
                    GREATEST(20, floor(0.15 * p.word_limit))
                    + g.i * (p.word_limit
                             - GREATEST(20, floor(0.15 * p.word_limit)))
                      / 3.0) AS BIGINT) AS rung
                FROM params p, generate_series(0, 3) AS g(i)
            ),
            l2 AS (
                SELECT LEAST(CAST(floor(
                    GREATEST(20, floor(0.15 * p.avg_doc))
                    + g.i * (p.avg_doc
                             - GREATEST(20, floor(0.15 * p.avg_doc)))
                      / 3.0) AS BIGINT), p.word_limit) AS rung
                FROM params p, generate_series(0, 3) AS g(i)
            ),
            ladder AS (
                SELECT DISTINCT rung FROM (
                    SELECT rung FROM l1 UNION ALL SELECT rung FROM l2)
            )
            SELECT
                CASE WHEN p90.p90 > p.budget
                     THEN 'chunked' ELSE 'unchanged' END AS decision,
                p90.p90 AS p90_doc_tokens,
                CAST(p.budget AS BIGINT) AS token_budget,
                CASE WHEN p90.p90 > p.budget THEN coalesce(
                    (SELECT max(rung) FROM ladder WHERE rung <= p.budget),
                    (SELECT min(rung) FROM ladder)) END AS chunk_tokens,
                CAST(CASE WHEN p90.p90 > p.budget THEN 4 ELSE 1 END
                     AS BIGINT) AS n_ops
            FROM p90, params p
        """,
    }
