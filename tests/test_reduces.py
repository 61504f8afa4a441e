"""Grouped aggregates (``stages/reduces.py``).

Organised by path: the default ``combine="shuffle"`` path, which merges
per-batch partials through the shared keyed exchange, checked against
DuckDB; then the shuffle-free ``combine="tree"`` path."""

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


# --- combine="shuffle": partials through the keyed exchange --------------


@pytest.mark.parametrize("ngroups", [3, 2000])
def test_exchange_path_matches_duckdb(ngroups):
    """Fewer groups than the 16 buckets (most buckets empty) and many
    more; nulls in the aggregated column."""
    n = 6000
    t = pa.table({
        "k": pa.array([f"g{i % ngroups}" for i in range(n)]),
        "v": pa.array([None if i % 11 == 0 else float(i % 97) for i in range(n)],
                      pa.float64()),
    })
    out = _assert_matches_duckdb(_blocks(t, 7), t, ["k"])
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
    t = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.float64())})
    assert _duck(t, ["k"]).num_rows == 0
    assert grouped_aggregate(rd.from_arrow(t), ["k"], AGGS).count() == 0
    full = pa.table({"k": ["a", "b"], "v": [1.0, 2.0]})
    filtered = rd.from_arrow(full).filter(lambda r: False)
    assert grouped_aggregate(filtered, ["k"], AGGS).count() == 0


def test_exchange_path_output_columns():
    """keys then outputs, in the order given; the bucket column and the
    partial columns never reach the output."""
    t = pa.table({"k": ["a", "b", "a"], "j": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    out = grouped_aggregate(rd.from_arrow(t), ["j", "k"],
                            [("v", "max", "z"), ("v", "mean", "a"), ("v", "count", "n")])
    names = ["j", "k", "z", "a", "n"]
    assert out.schema().names == names
    assert collect(out).column_names == names


# --- combine="tree": shuffle-free task tree ------------------------------


def test_grouped_aggregate_tree_matches_shuffle():
    n = 5000
    t = pa.table({
        "k": pa.array([f"g{i % 7}" for i in range(n)]),
        "v": pa.array([float(i % 113) for i in range(n)], pa.float64()),
    })
    ds = rd.from_arrow(t).repartition(9)
    a = collect(grouped_aggregate(ds, ["k"], AGGS, combine="tree")
                ).sort_by([("k", "ascending")])
    b = collect(grouped_aggregate(ds, ["k"], AGGS, combine="shuffle")
                ).sort_by([("k", "ascending")])
    assert a.num_rows == 7
    for col in ("k", "s", "m", "c", "lo", "hi"):
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_grouped_aggregate_tree_mean_beyond_fanin():
    """The production combine="tree" path (partial names __out_sum etc.)
    across >fanin blocks, including a mean agg."""
    blocks = [pa.table({"g": ["p", "q"], "x": [float(i), float(i) * 2]})
              for i in range(100)]
    ds = rd.from_arrow(blocks)
    out = grouped_aggregate(ds, ["g"], [("x", "mean", "m"), ("x", "sum", "s")],
                            combine="tree")
    tab = out.to_pandas().set_index("g")
    exp = sum(range(100))
    assert tab.loc["p", "s"] == pytest.approx(exp)
    assert tab.loc["q", "s"] == pytest.approx(exp * 2)
    assert tab.loc["p", "m"] == pytest.approx(exp / 100)
    assert tab.loc["q", "m"] == pytest.approx(exp * 2 / 100)


def test_grouped_aggregate_tree_all_empty():
    """All-empty partials must yield a stable empty schema, not a KeyError
    in the mean-finishing code (_combine_partials empty case)."""
    empty = pa.table({"g": pa.array([], pa.string()),
                      "x": pa.array([], pa.float64())})
    ds = rd.from_arrow([empty, empty, empty])
    out = grouped_aggregate(ds, ["g"], [("x", "mean", "m")], combine="tree")
    assert out.count() == 0
    # NB: ray's to_pandas() drops columns on empty datasets; the Dataset
    # schema is the authoritative check
    assert set(out.schema().names) >= {"g", "m"}
