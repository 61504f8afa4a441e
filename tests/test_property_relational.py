"""Property-based relational semantics: joins and dedup over randomized
small tables (null keys, duplicate keys, empty sides) must match DuckDB /
pandas reference answers for every strategy and join type.

Hypothesis settings are conservative (few examples, no deadline) because
each example runs a Ray pipeline; the value is the INPUT DIVERSITY —
null-key joins and empty-side joins are exactly where pandas semantics
silently diverge from SQL.
"""

import duckdb
import hypothesis.strategies as st
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings


def _collect(ds):
    from docetl_ray.util import collect

    return collect(ds)


def _collect_typed(ds):
    """Materialize keeping column types even for 0-row results (Ray emits
    zero-column blocks for fully-empty outputs; the Dataset-level schema
    is still correct — same normalization as __ray_entry__._typed_table)."""
    from docetl_ray.stages.joins import _ds_arrow_schema
    from docetl_ray.stages.util_ray import collect_small

    schema = _ds_arrow_schema(ds)
    t = collect_small(ds)
    if t.num_columns == 0:
        return schema.empty_table()
    return t.select(schema.names).cast(schema)


keys = st.lists(st.one_of(st.integers(0, 5), st.none()), min_size=0, max_size=8)


def _mk(ids, prefix):
    return pa.table(
        {
            "k": pa.array(ids, pa.int64()),
            f"{prefix}v": pa.array([f"{prefix}{i}" for i in range(len(ids))]),
        }
    )


def _sql_join(lt, rt, how):
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    if how == "semi":
        q = "SELECT * FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)"
    elif how == "anti":
        q = "SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)"
    elif how == "left":
        q = "SELECT l.k, l.lv, r.rv FROM l LEFT JOIN r ON l.k = r.k"
    else:
        q = "SELECT l.k, l.lv, r.rv FROM l JOIN r ON l.k = r.k"
    return con.execute(q).arrow()


def _norm(t: pa.Table):
    cols = sorted(t.column_names)
    rows = sorted(
        (tuple(r.get(c) for c in cols) for r in t.select(cols).to_pylist()),
        key=lambda tup: tuple((v is None, v) for v in tup),  # None-safe sort
    )
    return cols, rows


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lk=keys, rk=keys,
       how=st.sampled_from(["inner", "left", "semi", "anti"]),
       strategy=st.sampled_from(["broadcast", "hash_tasks"]))
def test_join_matches_duckdb(lk, rk, how, strategy):
    import ray.data as rd
    from docetl_ray.stages.joins import broadcast_join, hash_join

    lt, rt = _mk(lk, "l"), _mk(rk, "r")
    want = _norm(_sql_join(lt, rt, how))

    lds = rd.from_arrow(lt)
    if strategy == "broadcast":
        out = broadcast_join(lds, rt, on="k", how=how)
    else:
        out = hash_join(lds, rd.from_arrow(rt), on="k", how=how, num_buckets=4)
    got_t = _collect_typed(out)
    if got_t.num_columns == 0 and got_t.num_rows == 0:
        # Ray dropped the schema entirely for a fully-empty pipeline —
        # only the (empty) row set is checkable
        assert want[1] == [], (lk, rk, how, strategy)
        return
    got = _norm(got_t)
    assert got == want, (lk, rk, how, strategy)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(vals=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)),
                     min_size=1, max_size=20))
def test_dedup_exact_matches_sql(vals):
    import ray.data as rd
    from docetl_ray.stages.resolve import dedup_exact

    t = pa.table(
        {
            "k": pa.array([v[0] for v in vals], pa.int64()),
            "tb": pa.array([v[1] for v in vals], pa.int64()),
            "i": pa.array(list(range(len(vals))), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT k, min(tb) AS tb FROM t GROUP BY k"
    ).arrow()
    out = _collect(dedup_exact(rd.from_arrow(t), "k", tiebreak_col="tb"))
    got = sorted(zip(out["k"].to_pylist(), out["tb"].to_pylist()))
    assert got == sorted(zip(want["k"].to_pylist(), want["tb"].to_pylist()))
