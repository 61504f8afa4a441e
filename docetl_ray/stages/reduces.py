"""Grouped / global aggregation stages: docetl ``reduce`` / ``code_reduce``
parity (SURVEY.md §2.1, §2.5), built scale-first.

``grouped_aggregate`` is the workhorse: it pre-aggregates *inside each
batch* with Arrow's hash kernels (``Table.group_by``) and only shuffles the
tiny per-batch partials — the combiner/partial-final decomposition the
reference expresses as fold (partial) + merge (final) prompts with
``associative: true`` (``/root/reference/docetl/operations/reduce.py:324-338,
466-629``).  A hot key contributes one partial row per batch, so Zipf skew
never concentrates raw rows on one reducer.

``code_reduce`` mirrors the reference's arbitrary-group UDF path
(``code_operations.py:76-163``): full groups via ``grouped_map`` (one
keyed exchange of the raw rows — use only when the aggregate isn't
decomposable), with
``pass_through`` extras taken from the first group row
(``reduce.py:349-357``) and the ``_counts_prereduce`` metadata column
(``reduce.py:343``).
"""

from __future__ import annotations

from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc

#: agg spec: (in_col, fn, out_name); fn ∈ sum,count,min,max,mean
_PARTIAL_FNS = {"sum", "count", "min", "max", "mean"}


def _partial_exprs(aggs):
    """Arrow group_by agg list for the partial pass (mean -> sum+count)."""
    cols = []
    for in_col, fn, out in aggs:
        if fn == "mean":
            cols.append((in_col, "sum", f"__{out}_sum"))
            cols.append((in_col, "count", f"__{out}_cnt"))
        elif fn == "count":
            cols.append((in_col, "count", f"__{out}_cnt"))
        else:
            cols.append((in_col, fn, f"__{out}_{fn}"))
    return cols


def _final_exprs(aggs):
    """``(partial_col, fn)`` pairs that merge the partials (counts sum);
    Arrow names each merged column ``f"{partial_col}_{fn}"``."""
    cols = []
    for _, fn, out in aggs:
        if fn == "mean":
            cols += [(f"__{out}_sum", "sum"), (f"__{out}_cnt", "sum")]
        elif fn in ("sum", "count"):
            cols.append((f"__{out}_{'sum' if fn == 'sum' else 'cnt'}", "sum"))
        else:
            cols.append((f"__{out}_{fn}", fn))
    return cols


def _finish(merged: pa.Table, keys: list[str], aggs) -> pa.Table:
    """``keys + outputs`` from merged partials; the means finish here."""
    cols = {k: merged[k] for k in keys}
    for _, fn, out in aggs:
        if fn == "mean":
            cols[out] = pc.divide(
                pc.cast(merged[f"__{out}_sum_sum"], pa.float64()),
                pc.cast(merged[f"__{out}_cnt_sum"], pa.float64()),
            )
        elif fn in ("sum", "count"):
            cols[out] = merged[f"__{out}_{'sum' if fn == 'sum' else 'cnt'}_sum"]
        else:
            cols[out] = merged[f"__{out}_{fn}_{fn}"]
    return pa.table(cols)


def grouped_aggregate(ds, keys: list[str], aggs: list[tuple[str, str, str]]):
    """Hash-grouped aggregate with per-batch partial combine.

    ``aggs``: list of ``(input_col, fn, output_name)`` with
    fn ∈ {sum,count,min,max,mean}.  Returns a Dataset with columns
    ``keys + [output_name...]``, in that order.

    The partials merge through the shared keyed exchange
    (``util_ray.exchange_map_groups``): each split task runs the partial
    on its blocks (and any ``map_batches`` chain in front of the exchange
    it can peel) and buckets the partial rows on ``hash(keys) % 16``
    before partitioning, and the reduce side merges each bucket with one
    Arrow ``group_by``, one output block per reduce task.  The exchange
    packs its buckets into as few reduce tasks as their bytes need, so a
    few-group aggregate costs a few tasks and a high-cardinality one
    stays distributed.  An input without a row gives an empty Dataset,
    typed ``keys + outputs`` when Ray knows the input's schema without
    executing it (a parquet read); otherwise it may report no schema
    (the partial never runs on an empty block).
    """
    from .joins import _ds_arrow_schema_lazy
    from .util_ray import bucket_codes, exchange_map_groups

    for _, fn, _ in aggs:
        if fn not in _PARTIAL_FNS:
            raise ValueError(f"non-decomposable agg {fn}; use code_reduce")

    partials = _partial_exprs(aggs)
    uniq = sorted({(c, f) for c, f, _ in partials})
    finals = _final_exprs(aggs)

    def partial_bucket(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(keys, use_threads=False).aggregate(uniq)
        # arrow names results "{col}_{fn}"; fan out to our partial names
        # (the same (col, fn) may feed several outputs, e.g. sum and mean)
        cols = {k: agg[k] for k in keys}
        for c, f, name in partials:
            cols[name] = agg[f"{c}_{f}"]
        cols["_abucket"] = pa.array(bucket_codes(agg, keys, 16), pa.int32())
        return pa.table(cols)

    def merge(group: pa.Table) -> pa.Table:
        merged = group.group_by(keys, use_threads=False).aggregate(finals)
        return _finish(merged, keys, aggs)

    merge.__name__ = "grouped_aggregate"
    # the partials' wire schema types the splits that see no row
    schema = _ds_arrow_schema_lazy(ds)
    wire = partial_bucket(schema.empty_table()).schema if schema is not None else None
    return exchange_map_groups(ds, "_abucket", 16, merge, schema=wire, map_fn=partial_bucket)


def global_aggregate(ds, aggs: list[tuple[str, str, str]]) -> dict:
    """Global (``reduce_key: "_all"``) aggregate -> one dict on the driver.

    Decomposes the same way (per-batch partials, tiny final merge)."""
    def partial(batch: pa.Table) -> pa.Table:
        row = {}
        for in_col, fn, out in aggs:
            if fn == "mean":
                row[f"__{out}_sum"] = [pc.sum(batch[in_col]).as_py() or 0]
                row[f"__{out}_cnt"] = [batch[in_col].length() - batch[in_col].null_count]
            elif fn == "count":
                row[f"__{out}_cnt"] = [batch[in_col].length() - batch[in_col].null_count]
            elif fn == "sum":
                row[f"__{out}_sum"] = [pc.sum(batch[in_col]).as_py() or 0]
            else:
                row[f"__{out}_{fn}"] = [getattr(pc, fn)(batch[in_col]).as_py()]
        return pa.table(row)

    parts = pa.concat_tables(
        [b for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )],
        promote_options="permissive",
    )
    out = {}
    for in_col, fn, name in aggs:
        if fn == "sum":
            out[name] = pc.sum(parts[f"__{name}_sum"]).as_py()
        elif fn == "count":
            out[name] = pc.sum(parts[f"__{name}_cnt"]).as_py()
        elif fn == "mean":
            s = pc.sum(parts[f"__{name}_sum"]).as_py()
            c = pc.sum(parts[f"__{name}_cnt"]).as_py()
            out[name] = (s / c) if c else None
        elif fn == "min":
            out[name] = pc.min(parts[f"__{name}_min"]).as_py()
        elif fn == "max":
            out[name] = pc.max(parts[f"__{name}_max"]).as_py()
    return out


def code_reduce(
    ds,
    keys: list[str],
    group_fn: Callable[[pa.Table], dict],
    *,
    pass_through: bool = False,
    counts_column: str | None = None,
    lineage_keys: list[str] | None = None,
    lineage_column: str | None = None,
):
    """Arbitrary per-group UDF reduce (full shuffle — non-decomposable path).

    ``group_fn(group_table) -> dict`` of output values; the group keys are
    echoed into the output row.  ``pass_through`` copies non-key extras
    from the first group row; ``counts_column`` emits the group size;
    ``lineage_keys`` emits ``lineage_column`` as the list of key-subdicts
    of every group member (reference ``{op}_lineage``, reduce.py:359-368).
    """

    import pandas as pd

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        row = {k: g[k].iloc[0] for k in keys}
        if pass_through:
            for c in g.columns:
                if c not in keys:
                    row.setdefault(c, g[c].iloc[0])
        if counts_column:
            row[counts_column] = len(g)
        if lineage_keys:
            row[lineage_column or "reduce_lineage"] = [
                dict(zip(lineage_keys, vals))
                for vals in g[lineage_keys].itertuples(index=False)
            ]
        row.update(group_fn(pa.Table.from_pandas(g, preserve_index=False)))
        return pd.DataFrame([row])

    from .grouped import grouped_map

    # bucketed grouped execution: high-cardinality reduce keys would pay
    # per-key task overhead under plain groupby().map_groups
    return grouped_map(ds, keys, fn)
