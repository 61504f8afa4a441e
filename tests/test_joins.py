"""Join stages (``stages/joins.py``): ``hash_join`` when one input side
is a Dataset that ``filter`` emptied.  Ray gives such a side one
zero-column block, so its schema cannot be inferred."""

import pyarrow as pa
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
