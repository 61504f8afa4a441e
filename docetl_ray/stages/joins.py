"""Join stages: docetl ``equijoin`` / ``link_resolve`` parity
(SURVEY.md §2.4), relational semantics, scale-first.

Two physical strategies, chosen by the caller (the reference's blocking
phase, ``/root/reference/docetl/operations/equijoin.py:253-406``, is the
analogous candidate-restriction step):

- ``broadcast_join``: the small side is ``ray.put`` ONCE, null keys
  dropped, and read zero-copy inside every task (never re-shipped per
  batch); each probe batch renames its collisions and calls the join
  kernel.
  No shuffle.  This is the path for dimension tables, id dictionaries
  (link_resolve), and semi/anti filters.
- ``hash_join``: both sides large — co-partition on ``hash(key) % B``
  through ONE two-input keyed exchange (``util_ray.exchange_map_groups``):
  each side's split tasks bucket that side, and each bucket's reduce
  task receives the two sides as separate tables and calls the kernel.

Both call one kernel, ``_join_tables``: Arrow's hash join, with a pandas
merge only where Acero rejects a column type.  Key-collision suffixing
mirrors ``equijoin.py:480-483``.

SQL semantics pinned explicitly (they differ from pandas defaults):

- NULL join keys never match (pandas ``merge`` matches NaN==NaN): the
  build/right side drops null-key rows before the merge, so null-key
  probe rows fall out of inner/semi, survive anti, and emit null-padded
  in left joins — exactly SQL.
- Output schema is computed ONCE from the input schemas and every batch
  (including empty ones) is cast to it, so a 0-row result still carries
  the correct column types end-to-end.  The one exception is a
  ``broadcast_join`` whose left schema Ray cannot know without running
  the left side: each batch's own schema sets its output schema there.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from .util_ray import broadcast_cached, bucket_codes


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


_ARROW_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "semi": "left semi",
    "anti": "left anti",
}


def _conform(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """``batch`` as ``schema``: its columns selected in order and cast,
    a declared column the batch lacks filled with typed nulls."""
    import pyarrow.compute as pc

    return pa.table({
        f.name: pc.cast(batch[f.name], f.type) if f.name in batch.column_names
        else pa.nulls(batch.num_rows, f.type)
        for f in schema
    })


def _build_side(r: pa.Table, right_on, how, rename) -> pa.Table:
    """The right (build) side as the join kernel takes it: null-key rows
    dropped (SQL: NULL = NULL is not true, so they never match),
    collisions renamed, and only the keys for semi/anti."""
    import pyarrow.compute as pc

    mask = pc.is_valid(r[right_on[0]])
    for c in right_on[1:]:
        mask = pc.and_(mask, pc.is_valid(r[c]))
    r = r.filter(mask).rename_columns([rename.get(c, c) for c in r.column_names])
    return r.select([rename.get(c, c) for c in right_on]) if how in ("semi", "anti") else r


def _join_tables(l: pa.Table, r: pa.Table, *, on, right_on, how,
                 out_schema: pa.Schema) -> pa.Table:
    """The join kernel of both strategies: ``l`` joined with a build side
    ``r`` that ``_build_side`` prepared (no null keys, collisions already
    renamed, ``right_on`` naming its keys), cast to ``out_schema``.

    Arrow's hash join, single-threaded (each call runs inside a 1-CPU
    Ray task; Arrow's pool would oversubscribe the node): no pandas
    round trip, and null padding stays typed (int64 keys never coerce to
    float64).  Acero rejects nested (list/struct) and null-typed columns
    and key pairs of different types; those take a pandas merge."""
    arrow_ok = not any(
        pa.types.is_nested(f.type) or pa.types.is_null(f.type)
        for f in list(l.schema) + list(r.schema)
    ) and all(l.schema.field(a).type == r.schema.field(b).type
              for a, b in zip(on, right_on))
    if arrow_ok:
        # Arrow's join coalesces ALL keys or none: equal-named keys must
        # coalesce (else duplicate output names), differently-named right
        # keys must survive (out_schema carries them).  Rename
        # equal-named right keys to temps, join with coalesce_keys=False;
        # the select drops the temps.
        rk_tmp = {
            r_name: f"__rk{i}"
            for i, (l_name, r_name) in enumerate(zip(on, right_on))
            if l_name == r_name
        }
        if rk_tmp:
            r = r.rename_columns([rk_tmp.get(c, c) for c in r.column_names])
        out = l.combine_chunks().join(
            r.combine_chunks(), keys=on, right_keys=[rk_tmp.get(c, c) for c in right_on],
            join_type=_ARROW_JOIN_TYPE[how], coalesce_keys=how in ("semi", "anti"),
            use_threads=False,
        )
        return out.select(out_schema.names).cast(out_schema)
    ldf, rdf = l.to_pandas(), r.to_pandas()
    if how in ("semi", "anti"):
        keyset = rdf[right_on].drop_duplicates()
        keyset.columns = on
        m = ldf.merge(keyset, on=on, how="left", indicator=True)
        keep = m["_merge"] == ("both" if how == "semi" else "left_only")
        out = m.loc[keep, list(ldf.columns)]
    else:
        out = ldf.merge(rdf, left_on=on, right_on=right_on, how=how, sort=False)
    return pa.Table.from_pandas(
        out[out_schema.names], schema=out_schema, preserve_index=False
    ).replace_schema_metadata(None)


def _key_lists(on, right_on):
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    return on, right_on


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

    on, right_on = _key_lists(on, right_on)
    small_tbl = _as_arrow(small)
    r_schema = small_tbl.schema
    # collisions are renamed per batch (a zero-copy column rename), so
    # the broadcast build side does not depend on the left schema
    ref = ray.put(_build_side(small_tbl, right_on, how, {}))

    def plan(l_schema: pa.Schema):
        out_schema, rename = _join_out_schema(l_schema, r_schema, on, right_on, how)
        return out_schema, rename, [rename.get(c, c) for c in right_on]

    # the output schema is pinned from the left schema when Ray knows it
    # without running ``ds``; otherwise each batch's own schema sets it
    # (``ds.schema()`` would run part of the upstream a second time)
    l_arrow = _ds_arrow_schema_lazy(ds)
    fixed = plan(l_arrow) if l_arrow is not None else None

    # stateless tasks + per-worker-process cache: ray.get of a ray.put
    # object is zero-copy from the local object store and cached below,
    # so the small side is deserialized once per worker, never per batch,
    # and no actor-pool startup is paid.
    def probe(batch: pa.Table) -> pa.Table:
        out_schema, rename, right_on_u = fixed or plan(batch.schema)
        r = broadcast_cached(ref)
        if rename:
            r = r.rename_columns([rename.get(c, c) for c in r.column_names])
        return _join_tables(
            batch, r, on=on, right_on=right_on_u, how=how, out_schema=out_schema,
        )

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

    Both sides go through ONE two-input keyed exchange
    (``util_ray.exchange_map_groups``) on ``hash(key) % B``: each side's
    split tasks conform its batches to the side's schema and add the
    bucket (vectorized, no per-row Python), and each bucket's reduce
    task joins its two groups with the shared kernel.  Skewed keys:
    raise ``num_buckets`` (splits partitions); a single hot *key* must
    still colocate, so extreme heads should be broadcast instead.

    The exchange is the compact take()-based task exchange — Ray's sort
    shuffle slices map blocks, and sliced Arrow tables pickle their FULL
    parent buffers, so payload-bearing joins (text / binary columns)
    would ship ~num_buckets× through a sort.

    ``left_schema`` / ``right_schema``: the input wire schemas.  The join
    needs them up front to pin the output schema; when absent they are
    inferred lazily (metadata-only) when Ray can, and ONLY as a last
    resort by materializing the input — a full pipeline barrier that pins
    the dataset in the object store, which at 100-TB inputs forces
    spilling where streaming would fit.  Callers that know their schemas
    (all internal stages do) should pass them.
    """
    on, right_on = _key_lists(on, right_on)

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
    out_schema, rename = _join_out_schema(l_arrow, r_arrow, on, right_on, how)
    right_on_u = [rename.get(c, c) for c in right_on]
    # the right side conforms with its equal-named keys in the left's types
    r_conf = pa.schema([
        l_arrow.field(f.name) if f.name in on and f.name in right_on else f
        for f in r_arrow
    ])
    r_build = _build_side(r_conf.empty_table(), right_on, how, rename).schema
    bucket = pa.field("__bucket", pa.int32())

    def left_side(batch: pa.Table) -> pa.Table:
        t = _conform(batch, l_arrow)
        return t.append_column(bucket, pa.array(bucket_codes(t, on, num_buckets)))

    def right_side(batch: pa.Table) -> pa.Table:
        t = _build_side(_conform(batch, r_conf), right_on, how, rename)
        return t.append_column(bucket, pa.array(bucket_codes(t, right_on_u, num_buckets)))

    def join_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        return _join_tables(
            l.drop_columns(["__bucket"]), r.drop_columns(["__bucket"]),
            on=on, right_on=right_on_u, how=how, out_schema=out_schema,
        )

    from .util_ray import exchange_map_groups

    return exchange_map_groups(
        (left, right), "__bucket", num_buckets, join_bucket,
        schema=(l_arrow.append(bucket), r_build.append(bucket)),
        map_fn=(left_side, right_side),
    )
