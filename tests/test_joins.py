"""Join stages (``stages/joins.py``): ``hash_join`` when one input side
is a Dataset that ``filter`` emptied (Ray gives such a side one
zero-column block, so its schema cannot be inferred), ``broadcast_join``
against DuckDB, and both two-sided operators running without a union."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from docetl_ray.stages.joins import hash_join
from docetl_ray.util import collect

LEFT = pa.table({"id": pa.array([1, 2, None], pa.int64()), "a": ["x", "y", "z"]})
RIGHT = pa.table({"rid": pa.array([1, 2], pa.int64()), "b": pa.array([10, 20], pa.int64())})


def _sides(emptied: str):
    left, right = rd.from_arrow(LEFT), rd.from_arrow(RIGHT)
    if emptied == "left":
        left = left.filter(lambda r: False)
    else:
        right = right.filter(lambda r: False)
    return left, right


def _join(left, right, how, **kw):
    return hash_join(left, right, on="id", right_on="rid", how=how, num_buckets=4, **kw)


@pytest.mark.parametrize("emptied", ["left", "right"])
@pytest.mark.parametrize("how", ["semi", "anti"])
def test_semi_anti_on_an_emptied_side(how, emptied):
    """No exchange is needed: semi keeps no row, anti keeps every left row
    (null keys included, as in SQL)."""
    out = collect(_join(*_sides(emptied), how))
    if how == "anti" and emptied == "right":
        assert out.column_names == ["id", "a"]
        assert out.to_pylist() == LEFT.to_pylist()
    else:
        assert out.num_rows == 0
    if emptied == "right":
        assert _join(*_sides(emptied), how).schema().names == ["id", "a"]


@pytest.mark.parametrize("emptied", ["left", "right"])
@pytest.mark.parametrize("how", ["inner", "left"])
def test_inner_left_on_an_emptied_side_asks_for_its_schema(how, emptied):
    with pytest.raises(ValueError, match=f"{emptied} side.*{emptied}_schema="):
        _join(*_sides(emptied), how)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_emptied_side_with_its_schema_joins(how):
    out = collect(_join(*_sides("right"), how, right_schema=RIGHT.schema))
    if how == "inner":
        assert out.num_rows == 0
    else:
        rows = sorted(out.to_pylist(), key=lambda r: r["a"])
        assert rows == [{**r, "rid": None, "b": None} for r in LEFT.to_pylist()]


# --- broadcast_join against DuckDB ----------------------------------------

BL = pa.table({
    "id": pa.array([1, 2, 2, None, 4, 5], pa.int64()),
    "a": ["x", "y", "y2", "z", "w", None],
    "tags": pa.array([[1], [2, 3], [], None, [4], [5]], pa.list_(pa.int64())),
})
BS = pa.table({
    "id": pa.array([1, 2, 2, None, 6], pa.int64()),
    "a": ["p", "q", "q2", "r", "s"],
    "w": pa.array([10, 20, 21, 30, 60], pa.int64()),
})


def _duckdb(lt: pa.Table, rt: pa.Table, how: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    cols = ", ".join(f"l.{c}" for c in lt.column_names)
    q = {
        "inner": f"SELECT {cols}, r.a AS a_right, r.w FROM l JOIN r ON l.id = r.id",
        "left": f"SELECT {cols}, r.a AS a_right, r.w FROM l LEFT JOIN r ON l.id = r.id",
        "semi": "SELECT * FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.id = l.id)",
        "anti": "SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.id = l.id)",
    }[how]
    return con.execute(q).arrow()


def _rows(t: pa.Table) -> list:
    def hashable(v):
        return tuple(v) if isinstance(v, list) else v

    return sorted(
        (tuple(hashable(v) for v in r.values()) for r in t.to_pylist()),
        key=lambda row: tuple((v is None, repr(v)) for v in row),
    )


@pytest.mark.parametrize("payload", ["plain", "list"])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_broadcast_join_matches_duckdb(how, payload):
    """Null keys on both sides never match, the equal-named non-key
    column ``a`` takes the ``_right`` suffix, and a ``list<int64>``
    payload (which Arrow's join rejects) takes the pandas merge."""
    from docetl_ray.stages.joins import broadcast_join

    lt = BL if payload == "list" else BL.drop_columns(["tags"])
    out = broadcast_join(rd.from_arrow([lt.slice(0, 3), lt.slice(3)]), BS, on="id", how=how)
    got, want = collect(out), _duckdb(lt, BS, how)
    assert got.column_names == want.column_names
    assert got.schema.types == want.schema.types
    assert _rows(got) == _rows(want)


@pytest.mark.parametrize("payload", ["plain", "list"])
@pytest.mark.parametrize("how", ["inner", "semi"])
def test_broadcast_join_empty_result_is_typed(how, payload):
    import ray

    from docetl_ray.stages.joins import broadcast_join

    lt = BL if payload == "list" else BL.drop_columns(["tags"])
    small = BS.filter(pc.greater(BS["w"], 1000))
    out = broadcast_join(rd.from_arrow(lt), small, on="id", how=how)
    want = _duckdb(lt, small, how)
    assert want.num_rows == 0
    blocks = ray.get(out.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 0
    assert all(b.schema.names == want.column_names for b in blocks)
    assert all(b.schema.types == want.schema.types for b in blocks)


def test_joins_need_no_union(monkeypatch):
    """Both two-sided operators co-partition through the exchange's two
    inputs: neither unions its sides."""
    from docetl_ray.stages.asof import asof_join

    def boom(*args, **kwargs):
        raise AssertionError("Dataset.union called")

    monkeypatch.setattr(rd.Dataset, "union", boom)
    out = collect(_join(rd.from_arrow(LEFT), rd.from_arrow(RIGHT), "left"))
    assert sorted(out.to_pylist(), key=lambda r: r["a"]) == [
        {"id": 1, "a": "x", "rid": 1, "b": 10},
        {"id": 2, "a": "y", "rid": 2, "b": 20},
        {"id": None, "a": "z", "rid": None, "b": None},
    ]
    events = pa.table({"id": pa.array([1, 1, 2], pa.int64()),
                       "t": pa.array([5, 15, 5], pa.int64())})
    state = pa.table({"id": pa.array([1, 1], pa.int64()),
                      "t": pa.array([0, 10], pa.int64()), "s": ["a", "b"]})
    out = collect(asof_join(rd.from_arrow(events), rd.from_arrow(state), on="t", by="id"))
    assert sorted(out.to_pylist(), key=lambda r: (r["id"], r["t"])) == [
        {"id": 1, "t": 5, "s": "a"}, {"id": 1, "t": 15, "s": "b"},
        {"id": 2, "t": 5, "s": None},
    ]


def _counting_map(marker: str):
    """Identity map appending one line per call to ``marker``.  (Built in
    a factory: Ray pickles module-level test functions by reference.)"""

    def bump(t: pa.Table) -> pa.Table:
        with open(marker, "a") as f:
            f.write("x\n")
        return t

    return bump


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_broadcast_join_runs_its_upstream_once(tmp_path, how):
    """Behind a map Ray cannot know the left schema without running it;
    the join then takes its output schema from each batch instead of
    probing ``ds.schema()``, which ran part of the upstream twice.  Over
    4 blocks the map runs 4 times, and the rows still match DuckDB."""
    from docetl_ray.stages.joins import broadcast_join

    marker = str(tmp_path / "calls")
    lt = BL.drop_columns(["tags"])
    ds = rd.from_arrow([lt.slice(0, 2), lt.slice(2, 2), lt.slice(4, 1), lt.slice(5)])
    ds = ds.map_batches(_counting_map(marker), batch_format="pyarrow", batch_size=None)
    got, want = collect(broadcast_join(ds, BS, on="id", how=how)), _duckdb(lt, BS, how)
    with open(marker) as f:
        assert len(f.readlines()) == 4
    assert got.column_names == want.column_names
    assert _rows(got) == _rows(want)
