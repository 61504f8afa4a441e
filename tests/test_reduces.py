"""Grouped aggregates (``stages/reduces.py``).

``grouped_aggregate`` has one path: per-batch partials merged through
the shared keyed exchange, checked against DuckDB."""

import duckdb
import pyarrow as pa
import pytest
import ray.data as rd

from docetl_ray.stages.reduces import grouped_aggregate
from docetl_ray.util import collect

AGGS = [("v", "sum", "s"), ("v", "mean", "m"), ("v", "count", "c"),
        ("v", "min", "lo"), ("v", "max", "hi")]
SQL_AGGS = "sum(v) AS s, avg(v) AS m, count(v) AS c, min(v) AS lo, max(v) AS hi"


def _duck(t: pa.Table, keys: list[str]) -> pa.Table:
    con = duckdb.connect()
    con.register("t", t)
    k = ", ".join(keys)
    return con.execute(f"SELECT {k}, {SQL_AGGS} FROM t GROUP BY {k}").fetch_arrow_table()


def _rows(t: pa.Table, keys: list[str]) -> list[tuple]:
    order = [(k, "ascending") for k in keys]
    t = t.sort_by(order)
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def _assert_matches_duckdb(ds, t: pa.Table, keys: list[str]):
    got = collect(grouped_aggregate(ds, keys, AGGS))
    want = _duck(t, keys)
    assert got.column_names == keys + ["s", "m", "c", "lo", "hi"]
    g, w = _rows(got, keys), _rows(want.select(got.column_names), keys)
    assert len(g) == len(w)
    for grow, wrow in zip(g, w):
        for a, b in zip(grow, wrow):
            if isinstance(b, float):
                assert a == pytest.approx(b)
            else:
                assert a == b
    return got


def _blocks(t: pa.Table, n: int):
    step = max(1, -(-t.num_rows // n))
    return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


@pytest.mark.parametrize("ngroups,nblocks", [
    pytest.param(3, 7, id="3"),
    pytest.param(2000, 7, id="2000"),
    pytest.param(2, 100, id="2-groups-100-blocks"),
])
def test_exchange_path_matches_duckdb(ngroups, nblocks):
    """Fewer groups than the 16 buckets (most buckets empty) and many
    more; nulls in the aggregated column; partials (sum and mean among
    them) from 100 blocks."""
    n = 6000
    t = pa.table({
        "k": pa.array([f"g{i % ngroups}" for i in range(n)]),
        "v": pa.array([None if i % 11 == 0 else float(i % 97) for i in range(n)],
                      pa.float64()),
    })
    ds = _blocks(t, nblocks)
    assert ds.num_blocks() == nblocks
    out = _assert_matches_duckdb(ds, t, ["k"])
    assert out.num_rows == ngroups


def test_exchange_path_null_key_is_one_group():
    t = pa.table({
        "k": pa.array(["a", None, "b", None, "a", None]),
        "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    out = _assert_matches_duckdb(_blocks(t, 3), t, ["k"])
    assert out.num_rows == 3


def test_exchange_path_two_keys_of_mixed_type():
    n = 900
    t = pa.table({
        "a": pa.array([None if i % 29 == 0 else f"x{i % 5}" for i in range(n)]),
        "b": pa.array([None if i % 31 == 0 else i % 4 for i in range(n)], pa.int64()),
        "v": pa.array([float(i) for i in range(n)], pa.float64()),
    })
    _assert_matches_duckdb(_blocks(t, 4), t, ["a", "b"])


def test_exchange_path_mean_over_all_null_column():
    t = pa.table({
        "k": pa.array(["a", "b", "a", "c"]),
        "v": pa.array([None] * 4, pa.float64()),
    })
    out = _assert_matches_duckdb(_blocks(t, 2), t, ["k"])
    assert out["m"].to_pylist() == [None] * 3
    assert out["c"].to_pylist() == [0] * 3


def test_exchange_path_empty_and_fully_filtered_input():
    """One empty block and a fully-filtered input: no rows, and no
    partial or bucket column in whatever schema the result reports (the
    mean is never finished on a missing column)."""
    t = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.float64())})
    assert _duck(t, ["k"]).num_rows == 0
    full = pa.table({"k": ["a", "b"], "v": [1.0, 2.0]})
    for ds in (rd.from_arrow(t), rd.from_arrow(full).filter(lambda r: False)):
        out = grouped_aggregate(ds, ["k"], AGGS)
        assert out.count() == 0
        schema = out.schema()
        assert schema is None or schema.names == ["k", "s", "m", "c", "lo", "hi"]
        assert collect(out).num_rows == 0


def test_grouped_aggregate_tree_all_empty():
    """Three empty blocks with a mean (the case the removed tree combine
    once failed on with a KeyError): no rows, and no partial column in
    whatever schema the result reports."""
    empty = pa.table({"g": pa.array([], pa.string()),
                      "x": pa.array([], pa.float64())})
    out = grouped_aggregate(rd.from_arrow([empty, empty, empty]), ["g"],
                            [("x", "mean", "m")])
    assert out.count() == 0
    schema = out.schema()
    assert schema is None or schema.names == ["g", "m"]
    assert collect(out).num_rows == 0

def test_exchange_path_output_columns():
    """keys then outputs, in the order given; the bucket column and the
    partial columns never reach the output."""
    t = pa.table({"k": ["a", "b", "a"], "j": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    out = grouped_aggregate(rd.from_arrow(t), ["j", "k"],
                            [("v", "max", "z"), ("v", "mean", "a"), ("v", "count", "n")])
    names = ["j", "k", "z", "a", "n"]
    assert out.schema().names == names
    assert collect(out).column_names == names


def test_empty_parquet_read_gives_typed_keys_and_outputs(tmp_path):
    """An empty parquet read: Ray knows its schema without executing it,
    so the result is typed ``keys + outputs`` with the types a non-empty
    input gives (sum and mean of a double are doubles, a count int64)."""
    import pyarrow.parquet as pq

    t = pa.table({"g": pa.array([], pa.string()), "x": pa.array([], pa.float64()),
                  "n": pa.array([], pa.int64())})
    pq.write_table(t, tmp_path / "e.parquet")
    aggs = [("x", "sum", "s"), ("x", "mean", "m"), ("n", "count", "c"), ("n", "max", "hi")]
    want = pa.schema([("g", pa.string()), ("s", pa.float64()), ("m", pa.float64()),
                      ("c", pa.int64()), ("hi", pa.int64())])
    got = collect(grouped_aggregate(rd.read_parquet(str(tmp_path / "e.parquet")), ["g"], aggs))
    assert got.num_rows == 0 and got.schema == want
    full = pa.table({"g": ["a", "b", "a"], "x": [1.0, 2.0, 3.0], "n": [1, 2, 3]})
    assert collect(grouped_aggregate(rd.from_arrow(full), ["g"], aggs)).schema == want
