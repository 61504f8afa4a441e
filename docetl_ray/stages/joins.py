"""Join stages: docetl ``equijoin`` / ``link_resolve`` parity
(SURVEY.md §2.4), relational semantics, scale-first.

Two physical strategies, chosen by the caller (the reference's blocking
phase, ``/root/reference/docetl/operations/equijoin.py:253-406``, is the
analogous candidate-restriction step):

- ``broadcast_join``: the small side is ``ray.put`` ONCE and read
  zero-copy inside every task (never re-shipped per batch); the probe is
  a per-batch Arrow/pandas hash join.  No shuffle.  This is the path for
  dimension tables, id dictionaries (link_resolve), and semi/anti
  filters.
- ``hash_join``: both sides large — co-partition on ``hash(key) % B``
  buckets by tagging each side and bucketing through ONE keyed exchange
  (``util_ray.exchange_map_groups``), then join each bucket's two sides
  inside its reduce task.
  Key-collision suffixing mirrors ``equijoin.py:480-483``.

SQL semantics pinned explicitly (they differ from pandas defaults):

- NULL join keys never match (pandas ``merge`` matches NaN==NaN): the
  build/right side drops null-key rows before the merge, so null-key
  probe rows fall out of inner/semi, survive anti, and emit null-padded
  in left joins — exactly SQL.
- Output schema is computed ONCE from the input schemas and every batch
  (including empty ones) is cast to it, so a 0-row result still carries
  the correct column types end-to-end.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .util_ray import bucket_codes

def _broadcast_cache_get(ref):
    """Per-worker-process cache for ray.put broadcast objects (shared
    bounded LRU — an unbounded dict pins every ref's plasma object for
    the worker's lifetime; see util_ray.broadcast_cached)."""
    from .util_ray import broadcast_cached

    return broadcast_cached(ref)


def _as_arrow(obj) -> pa.Table:
    if isinstance(obj, pa.Table):
        return obj
    if isinstance(obj, pd.DataFrame):
        return pa.Table.from_pandas(obj, preserve_index=False)
    import ray

    from .util_ray import arrow_refs

    return pa.concat_tables(ray.get(arrow_refs(obj)), promote_options="permissive")


def _convert_ray_schema(s) -> pa.Schema:
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for n, t in zip(s.names, s.types):
        if not isinstance(t, pa.DataType):
            # pandas-backed blocks report numpy dtypes; object -> string
            import numpy as np

            try:
                t = pa.from_numpy_dtype(np.dtype(t))
            except (pa.ArrowNotImplementedError, TypeError):
                t = pa.string()
        fields.append(pa.field(n, t))
    return pa.schema(fields)


def _ds_arrow_schema(ds) -> pa.schema:
    s = ds.schema()
    if s is None:
        # Ray reports no schema at all for some fully-empty pipelines
        return pa.schema([])
    return _convert_ray_schema(s)


def _ds_arrow_schema_lazy(ds) -> pa.Schema | None:
    """Schema WITHOUT executing the pipeline: metadata-only inference
    (``fetch_if_missing=False``).  Returns None when Ray cannot know the
    schema lazily (e.g. downstream of an opaque ``map_batches``)."""
    try:
        s = ds.schema(fetch_if_missing=False)
    except TypeError:  # older Dataset API without the kwarg
        return None
    if s is None:
        return None
    return _convert_ray_schema(s)


def _drop_null_keys(df: pd.DataFrame, keys) -> pd.DataFrame:
    """SQL: NULL = NULL is not true — null-key build rows never match."""
    if not len(df):
        return df
    return df.dropna(subset=list(keys))


def _join_out_schema(l_schema: pa.Schema, r_schema: pa.Schema, on, right_on, how):
    """Output schema + right-side rename map (collision suffixing)."""
    if how in ("semi", "anti"):
        return l_schema, {}
    left_cols = set(l_schema.names)
    rename = {
        c: f"{c}_right"
        for c in r_schema.names
        if c in left_cols and not (c in on and c in right_on)
    }
    fields = list(l_schema)
    for n, t in zip(r_schema.names, r_schema.types):
        out_name = rename.get(n, n)
        if out_name not in left_cols:
            fields.append(pa.field(out_name, t))
    return pa.schema(fields), rename


def broadcast_join(
    ds,
    small,
    *,
    on,
    right_on=None,
    how: str = "inner",
):
    """Join a big Dataset against a small in-memory side (broadcast).

    ``how`` ∈ inner/left/semi/anti.  ``small`` may be a pyarrow Table,
    pandas DataFrame, or a small Dataset (materialized here, once).
    """
    import ray

    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    small_tbl = _as_arrow(small)
    out_schema, rename = _join_out_schema(
        _ds_arrow_schema(ds), small_tbl.schema, on, right_on, how
    )
    small_df = _drop_null_keys(small_tbl.to_pandas(), right_on)
    if rename:
        small_df = small_df.rename(columns=rename)
    right_on_u = [rename.get(c, c) for c in right_on]
    ref = ray.put(small_df)

    # stateless tasks + per-worker-process cache: ray.get of a ray.put
    # object is zero-copy from the local object store and cached below,
    # so the small side is deserialized once per worker, never per batch,
    # and no actor-pool startup is paid.
    def probe(batch: pa.Table) -> pa.Table:
        small_side = _broadcast_cache_get(ref)
        left = batch.to_pandas()
        if how in ("semi", "anti"):
            keyset = small_side[right_on_u].drop_duplicates()
            keyset.columns = on
            m = left.merge(keyset, on=on, how="left", indicator=True)
            keep = m["_merge"] == ("both" if how == "semi" else "left_only")
            out = m.loc[keep, list(left.columns)]
        else:
            out = left.merge(
                small_side, left_on=on, right_on=right_on_u, how=how, sort=False
            )
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    probe.__name__ = "broadcast_probe"
    return ds.map_batches(probe, batch_format="pyarrow")


def hash_join(
    left,
    right,
    *,
    on,
    right_on=None,
    how: str = "inner",
    num_buckets: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Partitioned hash join of two large Datasets.

    Adds ``__bucket = hash(key) % B`` (vectorized, no per-row Python) to
    both sides, tags them, unions, and joins each bucket inside one
    all-to-all exchange.  Skewed keys: raise ``num_buckets`` (splits
    partitions); a single hot *key* must still colocate, so extreme
    heads should be broadcast instead.

    The bucket exchange is the compact take()-based task exchange
    (``util_ray.exchange_map_groups``) — Ray's sort shuffle slices map
    blocks, and sliced Arrow tables pickle their FULL parent buffers, so
    payload-bearing joins (text / binary columns) would ship
    ~num_buckets× through a sort.

    ``left_schema`` / ``right_schema``: the input wire schemas.  The join
    needs them up front to pin the output schema; when absent they are
    inferred lazily (metadata-only) when Ray can, and ONLY as a last
    resort by materializing the input — a full pipeline barrier that pins
    the dataset in the object store, which at 100-TB inputs forces
    spilling where streaming would fit.  Callers that know their schemas
    (all internal stages do) should pass them.
    """
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )

    l_arrow = left_schema or _ds_arrow_schema_lazy(left)
    r_arrow = right_schema or _ds_arrow_schema_lazy(right)
    if l_arrow is None:
        left = left.materialize()
        l_arrow = _ds_arrow_schema(left)
    if r_arrow is None:
        right = right.materialize()
        r_arrow = _ds_arrow_schema(right)
    if not len(l_arrow) or not len(r_arrow):
        # a side that ``Dataset.filter`` emptied reaches us as one
        # zero-column block, so its schema is unknown — but it has no rows
        side = "left" if not len(l_arrow) else "right"
        if how == "anti" or (how == "semi" and side == "left"):
            return left
        if how == "semi":
            import ray.data as rd

            return rd.from_arrow(l_arrow.empty_table())
        raise ValueError(
            f"hash_join: the {side} side has no columns (an input emptied by "
            f"Dataset.filter has no schema); pass {side}_schema="
        )
    left_cols = list(l_arrow.names)
    out_schema, rename = _join_out_schema(l_arrow, r_arrow, on, right_on, how)
    right_cols = [rename.get(c, c) for c in r_arrow.names]
    right_on_u = [rename.get(c, c) for c in right_on]
    # wire schema for the unioned exchange: left fields + right-only fields
    r_fields = {rename.get(n, n): t for n, t in zip(r_arrow.names, r_arrow.types)}
    unified = list(l_arrow) + [
        pa.field(n, t) for n, t in r_fields.items() if n not in left_cols
    ]
    unified_schema = pa.schema(unified)

    def bucketize(key_cols, side):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if side == "r":
                # null build keys can never match any probe row
                mask = pc.is_valid(batch[key_cols[0]])
                for c in key_cols[1:]:
                    mask = pc.and_(mask, pc.is_valid(batch[c]))
                batch = batch.filter(mask)
            b = bucket_codes(batch, key_cols, num_buckets)
            if side == "r":
                batch = batch.rename_columns(
                    [rename.get(c, c) for c in batch.column_names]
                )
            arrays, names = [], []
            for f in unified_schema:
                names.append(f.name)
                if f.name in batch.column_names:
                    arrays.append(pc.cast(batch[f.name], f.type))
                else:
                    arrays.append(pa.nulls(batch.num_rows, f.type))
            out = pa.table(dict(zip(names, arrays)))
            out = out.append_column("__bucket", pa.array(b, pa.int32()))
            return out.append_column(
                "__side", pa.array([side] * batch.num_rows, pa.string())
            )

        return fn

    lb = left.map_batches(bucketize(on, "l"), batch_format="pyarrow")
    rb = right.map_batches(bucketize(right_on, "r"), batch_format="pyarrow")

    arrow_jt = {
        "inner": "inner",
        "left": "left outer",
        "semi": "left semi",
        "anti": "left anti",
    }[how]
    # Arrow's join coalesces ALL keys or none: equal-named keys must
    # coalesce (else duplicate output names), differently-named right
    # keys must survive (out_schema carries them).  Rename equal-named
    # right keys to temps, join with coalesce_keys=False, drop temps.
    rk_tmp = {
        r_name: f"__rk{i}"
        for i, (l_name, r_name) in enumerate(zip(on, right_on_u))
        if l_name == r_name
    }
    right_keys_join = [rk_tmp.get(c, c) for c in right_on_u]
    # acero rejects nested (list/struct) and null-typed payload columns —
    # those buckets take the pandas-merge path instead
    arrow_joinable = not any(
        pa.types.is_nested(f.type) or pa.types.is_null(f.type)
        for f in unified_schema
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(group["__side"], "l")
        if arrow_joinable:
            # Arrow-native hash join: no pandas round-trip, null padding
            # stays typed (int64 keys never coerce to float64), and SQL
            # null-key semantics (null = null is not true) come for
            # free.  use_threads=False: each bucket runs inside a 1-CPU
            # Ray task; Arrow's pool would oversubscribe the node.
            l = group.filter(lmask).select(left_cols).combine_chunks()
            r = group.filter(pc.invert(lmask)).select(right_cols).combine_chunks()
            if rk_tmp:
                r = r.rename_columns([rk_tmp.get(c, c) for c in r.column_names])
            out = l.join(
                r, keys=on, right_keys=right_keys_join, join_type=arrow_jt,
                coalesce_keys=how in ("semi", "anti"), use_threads=False,
            )
            return out.select(out_schema.names).cast(out_schema)
        # split BEFORE pandas conversion so null padding never coerces
        # a side's int64 keys to float64
        l = group.filter(lmask).select(left_cols).to_pandas()
        r = group.filter(pc.invert(lmask)).select(right_cols).to_pandas()
        if how in ("semi", "anti"):
            keyset = r[right_on_u].drop_duplicates()
            keyset.columns = on
            m = l.merge(keyset, on=on, how="left", indicator=True)
            keep = m["_merge"] == ("both" if how == "semi" else "left_only")
            out = m.loc[keep, list(l.columns)]
        else:
            out = l.merge(r, left_on=on, right_on=right_on_u, how=how, sort=False)
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    from .util_ray import exchange_map_groups

    wire_schema = pa.schema(
        list(unified_schema)
        + [pa.field("__bucket", pa.int32()), pa.field("__side", pa.string())]
    )
    return exchange_map_groups(
        lb.union(rb), "__bucket", num_buckets, join_bucket, schema=wire_schema
    )
