"""Exact distributed order statistics — stages/quantiles.py."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def _ds(vals, dtype=pa.float64()):
    return rd.from_arrow(pa.table({"x": pa.array(vals, dtype)}))


def test_kth_smallest_forces_refinement():
    from docetl_ray.stages.quantiles import kth_smallest

    rng = np.random.default_rng(3)
    vals = rng.normal(size=20_000).round(8)
    ds = _ds(vals.tolist())
    s = np.sort(vals)
    # threshold 100 -> multiple histogram passes before the final collect
    for k in (1, 7, 9_999, 20_000):
        assert kth_smallest(ds, "x", k, collect_threshold=100) == s[k - 1]


def test_kth_smallest_massive_duplicates():
    # 50k copies of one value + a few outliers: refinement stalls inside
    # an ulp-scale bin and the value-count fallback must resolve exactly
    from docetl_ray.stages.quantiles import kth_smallest

    vals = [3.25] * 50_000 + [1.0, 2.0, 99.0]
    ds = _ds(vals)
    assert kth_smallest(ds, "x", 1, collect_threshold=10) == 1.0
    assert kth_smallest(ds, "x", 3, collect_threshold=10) == 3.25
    assert kth_smallest(ds, "x", 50_002, collect_threshold=10) == 3.25
    assert kth_smallest(ds, "x", 50_003, collect_threshold=10) == 99.0


def test_quantiles_match_duckdb():
    import duckdb

    from docetl_ray.stages.quantiles import quantiles

    rng = np.random.default_rng(11)
    vals = np.concatenate(
        [rng.normal(size=5_000), rng.integers(0, 5, 2_000).astype(float)]
    ).round(6)
    ds = _ds(vals.tolist())
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    got = quantiles(ds, "x", qs, collect_threshold=50)
    con = duckdb.connect()
    con.register("t", pa.table({"x": pa.array(vals, pa.float64())}))
    exp = [
        con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        for q in qs
    ]
    assert got["value"].to_pylist() == exp


def test_quantiles_nulls_and_ints():
    from docetl_ray.stages.quantiles import kth_smallest, quantiles

    ds = _ds([5, None, 1, 3, None, 9], pa.int64())
    assert kth_smallest(ds, "x", 2) == 3.0
    t = quantiles(ds, "x", [0.5])
    assert t["value"].to_pylist() == [3.0]


def test_quantiles_of_no_values_are_none():
    """An empty input, an all-null column and a fully-filtered input
    each give None for every q (the minmax pass counts no value)."""
    from docetl_ray.stages.quantiles import quantiles

    qs = [0.0, 0.5, 1.0]
    for ds in (_ds([]), _ds([None] * 6),
               _ds([1.0, 2.0, 3.0]).filter(lambda r: False)):
        out = quantiles(ds, "x", qs)
        assert out["q"].to_pylist() == qs
        assert out["value"].to_pylist() == [None] * 3


# --- the pin: one execution of a transformed input; pin="auto" sizing ----


def test_quantiles_unpinned_reread(tmp_path, ray_session):
    """pin auto falls back to re-reading a pruned source above the size
    threshold; results match the pinned path exactly."""
    from docetl_ray.stages.quantiles import quantiles

    vals = [float(i) for i in range(10_000)]
    pq.write_table(pa.table({"x": vals, "y": vals}), tmp_path / "t.parquet")
    src = lambda: rd.read_parquet(str(tmp_path / "t.parquet"), columns=["x"])  # noqa: E731
    pinned = quantiles(src(), "x", [0.1, 0.5, 0.9], pin=True)
    # threshold of 1 byte forces the unpinned re-read path on the bare read
    unpinned = quantiles(src(), "x", [0.1, 0.5, 0.9], pin="auto",
                         pin_threshold_bytes=1)
    assert pinned["value"].to_pylist() == unpinned["value"].to_pylist()


def test_quantiles_lazy_upstream_single_execution(tmp_path, ray_session):
    """A TRANSFORMED (non-bare-read) upstream keeps the pin in auto mode
    — its batches execute once, not once per refinement pass."""
    from docetl_ray.stages.quantiles import quantiles

    pq.write_table(
        pa.table({"x": [float(i) for i in range(200_000)]}),
        tmp_path / "t.parquet",
    )
    marker = str(tmp_path / "exec_count")

    def bump(t: pa.Table) -> pa.Table:
        with open(marker, "a") as f:
            f.write(f"{t.num_rows}\n")
            f.flush()
            os.fsync(f.fileno())
        return t

    def rows_seen() -> int:
        with open(marker) as f:
            return sum(int(line) for line in f)

    ds = rd.read_parquet(str(tmp_path / "t.parquet")).map_batches(
        bump, batch_format="pyarrow"
    )
    out = quantiles(ds, "x", [0.5], collect_threshold=256)
    # quantile_disc: 1-indexed rank ceil(0.5*200000)=100000 -> value 99999.0
    assert out["value"].to_pylist() == [99999.0]
    # with the pin (auto on a transformed upstream) every row passes
    # ``bump`` once; count rows, not calls: the pinned execution and the
    # exchange's split tasks cut the file into different batches
    assert rows_seen() == 200_000
    # rerun the SAME lazy upstream via the unpinned path: each pass
    # re-executes it
    with open(marker, "w"):
        pass
    quantiles(ds, "x", [0.5], collect_threshold=256, pin=False)
    # the refinement makes >=3 passes; unpinned re-executes each pass
    assert rows_seen() >= 3 * 200_000


def test_auto_pin_estimate_scales_by_column_share(ray_session, tmp_path):
    """pin="auto" must compare the single projected column's share of the
    metadata size estimate, not the full-table estimate — a wide table
    with one small numeric column should still pin (ADVICE r4:
    quantiles.py:128)."""
    from docetl_ray.stages.quantiles import _auto_pin_size_estimate

    n = 5000
    wide = pa.table({
        "v": pa.array(np.arange(n, dtype=np.float64)),
        **{f"pad{i}": pa.array(["x" * 200] * n) for i in range(7)},
    })
    path = str(tmp_path / "wide.parquet")
    pq.write_table(wide, path)
    ds = rd.read_parquet(path)
    est = _auto_pin_size_estimate(ds)
    full = ds.size_bytes()
    assert est is not None and full is not None
    assert est <= full // 8 + 1  # 8 columns -> at most a 1/8 share


def test_quantiles_pin_auto_wide_table_still_exact(ray_session, tmp_path):
    """End-to-end: pin="auto" over a wide table (threshold between the
    column share and the full size, i.e. the pre-fix code would skip the
    pin) stays exact."""
    from docetl_ray.stages.quantiles import quantiles

    n = 4000
    rng = np.random.default_rng(5)
    vals = rng.normal(size=n).round(6)
    wide = pa.table({
        "v": pa.array(vals),
        **{f"pad{i}": pa.array(["y" * 100] * n) for i in range(7)},
    })
    path = str(tmp_path / "wideq.parquet")
    pq.write_table(wide, path)
    ds = rd.read_parquet(path)
    full = ds.size_bytes()
    out = quantiles(ds, "v", [0.25, 0.5, 0.75], collect_threshold=256,
                    pin="auto", pin_threshold_bytes=full // 2)
    s = np.sort(vals)
    exp = [s[max(1, math.ceil(q * n)) - 1] for q in (0.25, 0.5, 0.75)]
    assert out["value"].to_pylist() == exp


def test_auto_pin_estimate_uses_parquet_column_share(ray_session, tmp_path):
    """A table DOMINATED by the quantile column must not be divided by
    the column count (that would undershoot by ncols x and wrongly pin
    past the threshold); the share comes from the parquet footer."""
    from docetl_ray.stages.quantiles import _auto_pin_size_estimate

    n = 4000
    vals = (np.arange(n * 64, dtype=np.float64) * 1.7).reshape(n, 64)
    dom = pa.table({
        "v": pa.array(list(vals), pa.list_(pa.float64())),
        **{f"k{i}": pa.array(np.arange(n, dtype=np.int64)) for i in range(7)},
    })
    path = str(tmp_path / "dom.parquet")
    pq.write_table(dom, path)
    ds = rd.read_parquet(path)
    est = _auto_pin_size_estimate(ds, "v")
    full = ds.size_bytes()
    assert est is not None and full is not None
    # "v" holds the overwhelming majority of the bytes; the equal-share
    # fallback would report full/8
    assert est > full // 2
    # and the narrow-column case still reports a small share
    est_k = _auto_pin_size_estimate(ds, "k0")
    assert est_k < full // 8
