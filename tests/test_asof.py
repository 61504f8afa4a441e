"""As-of (temporal) join tests — stages/asof.py."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from docetl_ray.util import collect


def _collect(ds) -> pa.Table:
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tabs, promote_options="permissive") if tabs \
        else pa.table({})


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def _mk(ids, ts, keys, vals, names=("id", "ts", "k", "v")):
    return pa.table(
        {
            names[0]: pa.array(ids, pa.int64()),
            names[1]: pa.array(ts, pa.int64()),
            names[2]: pa.array(keys, pa.int64()),
            names[3]: pa.array(vals, pa.float64()),
        }
    )


def test_asof_left_basic():
    from docetl_ray.stages.asof import asof_join

    left = _ds(_mk([1, 2, 3, 4], [10, 20, 5, 30], [1, 1, 2, 2], [0.0] * 4))
    right = _ds(
        pa.table(
            {
                "k": pa.array([1, 1, 2], pa.int64()),
                "ts": pa.array([8, 15, 30], pa.int64()),
                "rv": pa.array([100.0, 200.0, 300.0], pa.float64()),
            }
        )
    )
    out = collect(
        asof_join(left, right, on="ts", by="k", how="left")
    ).sort_by([("id", "ascending")])
    # id1 ts10 k1 -> rv 100 (ts8); id2 ts20 k1 -> rv 200 (ts15);
    # id3 ts5 k2 -> none; id4 ts30 k2 -> rv 300 (inclusive match)
    assert out["rv"].to_pylist() == [100.0, 200.0, None, 300.0]


def test_asof_inner_and_dup_right():
    from docetl_ray.stages.asof import asof_join

    left = _ds(_mk([1, 2], [10, 3], [1, 1], [0.0, 0.0]))
    right = _ds(
        pa.table(
            {
                "k": pa.array([1, 1], pa.int64()),
                "ts": pa.array([5, 5], pa.int64()),   # duplicate (k, ts)
                "rv": pa.array([7.0, 9.0], pa.float64()),
            }
        )
    )
    out = collect(
        asof_join(left, right, on="ts", by="k", how="inner")
    ).sort_by([("id", "ascending")])
    # unmatched id2 (ts3 < 5) dropped; dup right collapses to max rv
    assert out["id"].to_pylist() == [1]
    assert out["rv"].to_pylist() == [9.0]


def test_asof_matches_bruteforce():
    from docetl_ray.stages.asof import asof_join

    rng = np.random.default_rng(7)
    n_l, n_r = 400, 300
    lk = rng.integers(0, 12, n_l)
    lt = rng.integers(0, 1000, n_l)
    rk = rng.integers(0, 12, n_r)
    rt = rng.integers(0, 1000, n_r)
    rv = rng.normal(size=n_r).round(6)
    left = _ds(
        pa.table({"id": pa.array(range(n_l), pa.int64()),
                  "ts": pa.array(lt, pa.int64()), "k": pa.array(lk, pa.int64())})
    )
    right = _ds(
        pa.table({"k": pa.array(rk, pa.int64()), "ts": pa.array(rt, pa.int64()),
                  "rv": pa.array(rv, pa.float64())})
    )
    out = collect(asof_join(left, right, on="ts", by="k", how="left")).sort_by(
        [("id", "ascending")]
    )
    # brute force with the same dup-winner rule (max rv per (k, ts))
    import pandas as pd

    rdf = pd.DataFrame({"k": rk, "ts": rt, "rv": rv}).sort_values(
        ["k", "ts", "rv"]).drop_duplicates(["k", "ts"], keep="last")
    expect = []
    for i in range(n_l):
        c = rdf[(rdf.k == lk[i]) & (rdf.ts <= lt[i])]
        expect.append(float(c.sort_values("ts").iloc[-1].rv) if len(c) else None)
    assert out["rv"].to_pylist() == expect


def test_asof_collision_raises():
    from docetl_ray.stages.asof import asof_join
    import pytest

    left = _ds(_mk([1], [1], [1], [1.0]))
    right = _ds(_mk([2], [1], [1], [2.0]))  # shares column "v" and "id"
    with pytest.raises(ValueError):
        asof_join(left, right, on="ts", by="k")


def test_asof_join_salted_hot_key(ray_session):
    """salt>1 splits a hot by-key's left rows across sub-tasks while
    replicating the key's right side — results identical to unsalted."""
    from docetl_ray.stages.asof import asof_join

    # one hot key carrying 2000 left rows, two cold keys; right side is
    # bounded per-key state
    left_rows = (
        [{"k": "hot", "t": i, "lv": i} for i in range(2000)]
        + [{"k": "a", "t": i, "lv": 100 + i} for i in range(5)]
        + [{"k": "b", "t": i, "lv": 200 + i} for i in range(5)]
    )
    right_rows = [
        {"k": k, "t": t, "rv": f"{k}@{t}"}
        for k in ("hot", "a", "b")
        for t in (0, 500, 1500)
    ]
    left = rd.from_items(left_rows)
    right = rd.from_items(right_rows)

    base = _collect(asof_join(left, right, on="t", by="k", num_buckets=4))
    salted = _collect(
        asof_join(left, right, on="t", by="k", num_buckets=4, salt=4)
    )
    key = ["k", "t"]
    b = base.to_pandas().sort_values(key).reset_index(drop=True)
    s = salted.to_pandas().sort_values(key).reset_index(drop=True)
    assert len(b) == len(s) == 2010
    assert (b["rv"].fillna("") == s["rv"].fillna("")).all()
    # spot-check the asof semantics on the hot key
    hot = s[s["k"] == "hot"].set_index("t")["rv"]
    assert hot.loc[499] == "hot@0"
    assert hot.loc[500] == "hot@500"
    assert hot.loc[1999] == "hot@1500"
