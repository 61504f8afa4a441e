"""As-of (temporal) join: match each left row to the LATEST right row
with the same key and ``right.on <= left.on``.

Ray Data has no temporal join; this is the classic CDC/stream enrichment
primitive ("state as of the event's timestamp").  Both sides are
co-partitioned by the ``by`` key through ONE two-input keyed exchange
(each side's split tasks bucket it with that side's function; no side
column, no union), then each bucket runs pandas' C-level ``merge_asof``
on its two groups — no per-row Python, no per-key task overhead.
Semantics match DuckDB's ``l ASOF LEFT JOIN r ON l.by = r.by AND l.on >=
r.on`` (inclusive), which is what the oracle checks.

Determinism: multiple right rows sharing one ``(by, on)`` are collapsed
to a single deterministic winner (max over the remaining columns, i.e.
last after a full-column sort) BEFORE matching — DuckDB's ASOF picks an
unspecified row in that case, so oracle-checked pipelines should pre-
dedup the right side the same way.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .util_ray import bucket_codes, exchange_map_groups


def asof_join(
    left,
    right,
    *,
    on: str,
    by: str,
    how: str = "left",
    num_buckets: int = 32,
    salt: int = 1,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """As-of join two Datasets.  ``on``/``by`` must carry the same column
    names on both sides (rename upstream); every other right column must
    not collide with a left column (rename upstream — explicit beats
    implicit suffixing in a lake pipeline).  ``how``: "left" keeps
    unmatched left rows (right columns null), "inner" drops them.

    ``salt`` > 1 is the hot-key mitigation: without it every row of one
    ``by`` key lands in a single task (one host = millions of events in a
    web corpus).  Salting splits the LEFT side of every bucket into
    ``salt`` sub-tasks by a hash of ``on`` and REPLICATES the bucket's
    right side to each — every left row still sees ALL right rows of its
    key, so the backward match is unchanged; only the merge work fans
    out.  Cost: right side shuffled ``salt``x (cheap when the right side
    is bounded state, the CDC-enrichment norm).  Pick salt ~ hot-key
    share x num CPUs; stays exact for any value.
    """
    from .joins import _conform, _ds_arrow_schema, _ds_arrow_schema_lazy

    if how not in ("left", "inner"):
        raise ValueError(f"asof_join how={how!r} (want left|inner)")
    l_arrow = left_schema or _ds_arrow_schema_lazy(left)
    r_arrow = right_schema or _ds_arrow_schema_lazy(right)
    if l_arrow is None:
        left = left.materialize()
        l_arrow = _ds_arrow_schema(left)
    if r_arrow is None:
        right = right.materialize()
        r_arrow = _ds_arrow_schema(right)
    rvals = [n for n in r_arrow.names if n not in (on, by)]
    clash = [n for n in rvals if n in l_arrow.names]
    if clash:
        raise ValueError(f"right value columns collide with left: {clash}")
    out_schema = pa.schema(
        list(l_arrow) + [r_arrow.field(n) for n in rvals]
    )
    # the right side carries its by/on keys in the left's types
    r_wire = pa.schema(
        [l_arrow.field(by), l_arrow.field(on)] + [r_arrow.field(n) for n in rvals]
    )
    left_names = list(l_arrow.names)
    salt = max(1, int(salt))
    bucket = pa.field("__bucket", pa.int32())

    def left_side(batch: pa.Table) -> pa.Table:
        t = _conform(batch, l_arrow)
        b = bucket_codes(t, [by], num_buckets).astype(np.int64) * salt
        if salt > 1:
            # left rows split across salt sub-buckets by an on-hash
            b += bucket_codes(t, [on], salt)
        return t.append_column(bucket, pa.array(b.astype(np.int32)))

    def right_side(batch: pa.Table) -> pa.Table:
        t = _conform(batch, r_wire)
        b = bucket_codes(t, [by], num_buckets).astype(np.int64) * salt
        # right rows replicate into every sub-bucket of their key
        return pa.concat_tables([
            t.append_column(bucket, pa.array((b + s).astype(np.int32)))
            for s in range(salt)
        ])

    def join_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        l = l.select(left_names).to_pandas()
        r = r.select(r_wire.names).to_pandas()
        if len(r):
            # deterministic winner per (by, on): last after full sort
            r = r.sort_values([by, on] + rvals, kind="mergesort")
            r = r.drop_duplicates([by, on], keep="last")
        if len(l) == 0:
            return out_schema.empty_table()
        # SQL comparison semantics: null on-keys never match (a null
        # left key keeps the row unmatched under "left"); merge_asof
        # would instead raise on them
        lnull = l[l[on].isna()]
        l = l[l[on].notna()].sort_values(on, kind="mergesort")
        r = r[r[on].notna()].sort_values(on, kind="mergesort")
        r["__m"] = 1
        out = pd.merge_asof(l, r, on=on, by=by, direction="backward")
        if len(lnull):
            out = pd.concat([out, lnull], ignore_index=True)
        if how == "inner":
            out = out[out["__m"].notna()]
        out = out[out_schema.names]
        return pa.Table.from_pandas(
            out, schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    join_bucket.__name__ = "asof_join_bucket"
    return exchange_map_groups(
        (left, right), "__bucket", num_buckets * salt, join_bucket,
        schema=(l_arrow.append(bucket), r_wire.append(bucket)),
        map_fn=(left_side, right_side),
    )
