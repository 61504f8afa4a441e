"""Bucketed grouped-map: per-key grouped execution without per-key task
overhead.

``ds.groupby(keys).map_groups(fn)`` invokes ``fn`` once per DISTINCT KEY
— measured ~1-4 ms of pandas/task overhead per group, which dominates
wall time when keys are high-cardinality (one group per document, per
user, per LSH bucket...).  ``grouped_map`` instead:

  1. adds ``_gbucket = hash(key) % num_partitions`` (vectorized via
     ``util_ray.bucket_codes`` — no per-row Python),
  2. shuffles ONCE on the bucket through the shared keyed exchange
     (``util_ray.exchange_map_groups``, whose reduce tasks each take a
     contiguous run of buckets sized by bytes, at least one per CPU,
     and return one output block with the run's results in order),
  3. for each bucket, iterates the key-groups with pandas' C-level
     ``groupby`` and calls ``fn`` per key-group locally.

Same semantics as per-key ``map_groups`` (every key's rows are processed
together by ``fn``), one bounded shuffle, at most ~``num_partitions``
reduce tasks.
This is the fix that took MinHash dedup from 40 s to 6 s; reused by
gather / session windows / stratified ops.
"""

from __future__ import annotations

from collections.abc import Callable

import pandas as pd
import pyarrow as pa

from .util_ray import bucket_codes


def _group_frame(group: pa.Table) -> pd.DataFrame:
    # the exchange passes the bucket column through; fn never sees it
    return group.drop_columns(["_gbucket"]).to_pandas()


def _arrow_out(out: pd.DataFrame | None, like: pa.Schema) -> pa.Table:
    """Wrap a pandas result for the exchange.  A ``None`` / no-column
    empty frame becomes a no-column table: collect()/union skip it, and
    ``fn``'s output schema is unknown when a partition yielded nothing.
    A column pandas typed null (object, no values) takes ``like``'s type."""
    if out is None or not len(out.columns):
        return pa.table({})
    t = pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)
    for i, f in enumerate(t.schema):
        if pa.types.is_null(f.type) and f.name in like.names:
            t = t.set_column(i, f.name, t.column(i).cast(like.field(f.name).type))
    return t


def _bucketed_exchange(ds, keys: list[str], num_partitions: int, arrow_fn):
    """ONE take()-based task exchange on a vectorized hash-bucket column
    — shared by ``grouped_map`` and ``partitioned_map`` so their
    bucketing / empty-output plumbing cannot drift.  The exchange
    replaces ``ds.groupby``: Ray's sort shuffle slices map blocks, and
    sliced Arrow tables pickle their FULL parent buffers — payload rows
    (texts) would ship ~num_partitions times, plus the sort pays seconds
    of fixed cost per invocation.  ``keys``: the key columns, or a
    function of a batch returning ``(batch, key columns)`` when the keys
    are decided per batch (it runs inside the split tasks too)."""
    from .util_ray import exchange_map_groups

    def add_bucket(batch: pa.Table) -> pa.Table:
        cols = keys
        if callable(keys):
            batch, cols = keys(batch)
        b = bucket_codes(batch, cols, num_partitions)
        return batch.append_column("_gbucket", pa.array(b, pa.int32()))

    return exchange_map_groups(
        ds, "_gbucket", num_partitions, arrow_fn, map_fn=add_bucket
    )


def grouped_map(
    ds,
    keys,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    num_partitions: int = 32,
):
    """Apply ``fn`` to each key-group; returns the concatenated result."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_bucket(bucket_df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in bucket_df.groupby(keys, sort=True, dropna=False):
            out = fn(g)
            if out is not None and len(out):
                outs.append(out)
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    def per_bucket_arrow(group: pa.Table) -> pa.Table:
        return _arrow_out(per_bucket(_group_frame(group)), group.schema)

    per_bucket_arrow.__name__ = getattr(fn, "__name__", "grouped_map")
    return _bucketed_exchange(ds, keys, num_partitions, per_bucket_arrow)


def partitioned_map(
    ds,
    keys,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    num_partitions: int = 32,
):
    """Apply pandas ``fn`` to each hash partition of ``keys`` as a WHOLE
    — not per key-group.  For fns already vectorized ACROSS key-groups
    (LSH-bucket pair generation via index arithmetic, drop_duplicates
    over keys) this is the right altitude: same-key rows are co-located
    by the single take()-based exchange and ``fn`` runs once per
    partition with zero per-key call overhead.  Replaces the
    ``repartition(P).groupby(part % P).map_groups(fn)`` pattern, which
    paid Ray's sort-shuffle fixed cost (seconds) per invocation and
    shipped sliced blocks' full parent buffers."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def whole_partition(group: pa.Table) -> pa.Table:
        return _arrow_out(fn(_group_frame(group)), group.schema)

    whole_partition.__name__ = getattr(fn, "__name__", "partitioned_map")
    return _bucketed_exchange(ds, keys, num_partitions, whole_partition)
