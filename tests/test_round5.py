"""Round-5 regression tests for the ADVICE.md findings."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd


def _collect(ds) -> pa.Table:
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tabs, promote_options="permissive") if tabs \
        else pa.table({})


def test_llm_resolve_fallback_is_global_not_per_block(ray_session):
    """The fall-back-to-all-pairs fires only when NO blocking condition
    admits any pair GLOBALLY (reference resolve.py:411-412 — a
    misconfiguration guard).  A sparse block with zero admitted pairs,
    while another block admits some, compares nothing."""
    from docetl_ray.stages.resolve import llm_resolve

    class AlwaysMatch:
        model = "always"

        def complete(self, prompt, schema):
            return {"is_match": True}

    rows = [
        # block x: no pair shares a 4-char prefix -> zero admitted
        {"eid": 1, "blk": "x", "text": "aaaa one"},
        {"eid": 2, "blk": "x", "text": "bbbb two"},
        {"eid": 3, "blk": "x", "text": "cccc three"},
        # block y: one admitted pair (4,5)
        {"eid": 4, "blk": "y", "text": "dddd one"},
        {"eid": 5, "blk": "y", "text": "dddd two"},
        {"eid": 6, "blk": "y", "text": "eeee three"},
    ]
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({k: t[k] for k in ("eid", "blk", "text")}),
        batch_format="pyarrow",
    )

    # some pair admitted globally: block x must NOT fall back
    out = _collect(llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1.text }} vs {{ input2.text }}",
        client_factory=AlwaysMatch,
        blocking_conditions=['input1["text"][:4] == input2["text"][:4]'],
    ))
    canon = dict(zip(out["eid"].to_pylist(), out["_canonical"].to_pylist()))
    assert canon == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 6}

    # zero pairs admitted anywhere: the guard fires, every block
    # compares all of its pairs
    out2 = _collect(llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1.text }} vs {{ input2.text }}",
        client_factory=AlwaysMatch,
        blocking_conditions=['input1["text"][:9] == input2["text"][:9]'],
    ))
    canon2 = dict(zip(out2["eid"].to_pylist(), out2["_canonical"].to_pylist()))
    assert canon2 == {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4}


def test_combine_partials_all_empty_count_is_int64():
    """A count output in the all-empty branch must be int64 even when the
    source column is a string — a later tree level mixes it with real
    int64 counts (ADVICE r4: util_ray.py:306)."""
    from docetl_ray.stages.util_ray import _combine_partials

    empty = pa.table({"k": pa.array([], pa.large_string()),
                      "v": pa.array([], pa.large_string())})
    out = _combine_partials(["k"], [("v", "count", "c")], empty, empty)
    assert out.num_rows == 0
    assert out.schema.field("c").type == pa.int64()
    # and the empty result must concat cleanly with a real count partial
    real = pa.table({"k": pa.array(["a"], pa.large_string()),
                     "c": pa.array([3], pa.int64())})
    merged = _combine_partials(["k"], [("c", "sum", "c")], out, real)
    assert merged["c"].to_pylist() == [3]


def test_metadata_free_schema_heterogeneous_dir_falls_back(tmp_path):
    """A directory whose files carry metadata but different schemas must
    return None (Ray unifies), not force file 0's schema on every file
    (ADVICE r4: sources.py:43)."""
    from docetl_ray.sources import _metadata_free_schema

    d = tmp_path / "mixed"
    d.mkdir()
    # pandas writes pandas-metadata-bearing schemas
    pd.DataFrame({"a": [1, 2], "b": [None, None]}).to_parquet(d / "0.parquet")
    pd.DataFrame({"a": [3, 4], "b": ["x", "y"]}).to_parquet(d / "1.parquet")
    assert _metadata_free_schema(str(d), None) is None

    # homogeneous directory still returns the stripped schema
    h = tmp_path / "same"
    h.mkdir()
    pd.DataFrame({"a": [1], "b": ["x"]}).to_parquet(h / "0.parquet")
    pd.DataFrame({"a": [2], "b": ["y"]}).to_parquet(h / "1.parquet")
    schema = _metadata_free_schema(str(h), None)
    assert schema is not None and schema.metadata is None
    assert schema.names == ["a", "b"]


def test_auto_pin_estimate_scales_by_column_share(ray_session, tmp_path):
    """pin="auto" must compare the single projected column's share of the
    metadata size estimate, not the full-table estimate — a wide table
    with one small numeric column should still pin (ADVICE r4:
    quantiles.py:128)."""
    import numpy as np

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
    import math

    import numpy as np

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


def test_cluster_dendrogram_coarse_above_cap(ray_session):
    # 3000 rows in 3 well-separated 8-dim blobs, cap forced down to 500:
    # cluster_dendrogram must degrade to the coarse path (not raise) and
    # return a valid single hierarchy over every row.
    import numpy as np

    from docetl_ray.stages.cluster import cluster_dendrogram
    from docetl_ray.util import collect

    n = 3000
    i = np.arange(n)
    blob = (i % 3).astype(np.float64)
    base = np.zeros((n, 8))
    base[:, 0] = blob * 100.0
    jitter = ((i * 2654435761) % 997).astype(np.float64)[:, None] / 997.0
    emb = base + jitter
    ds = rd.from_arrow(pa.table({
        "vid": pa.array(i, pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float64())),
    }))
    out = collect(cluster_dendrogram(ds, "embedding", "vid",
                                     max_driver_rows=500))
    assert out.num_rows == n
    assert sorted(out["vid"].to_pylist()) == list(range(n))
    paths = dict(zip(out["vid"].to_pylist(), out["clusters"].to_pylist()))
    roots = {tuple(p[-1:]) for p in paths.values()}
    # nearest-first paths all end at the SAME top-tree root -> one tree
    assert len(roots) == 1 and next(iter(roots))[0].startswith("cluster_n")
    # ancestor-chain closure: every path suffix is itself a path some
    # internal node produced (tree validity, no dangling ancestors)
    suffixes = {tuple(p[k:]) for p in paths.values() for k in range(len(p))}
    assert all(tuple(p) in suffixes for p in paths.values())
    # blob separation survives the coarse hierarchy: two rows of the same
    # blob share a deeper common suffix than rows of different blobs
    p0, p1 = paths[0], paths[3]      # same blob (0 and 3 both blob 0)
    q = paths[1]                     # different blob
    def common_suffix(a, b):
        k = 0
        while k < min(len(a), len(b)) and a[-1 - k] == b[-1 - k]:
            k += 1
        return k
    assert common_suffix(p0, p1) >= common_suffix(p0, q)


def test_cluster_coarse_auto_clamps_num_cells(ray_session):
    """coarse='auto' past n > max_driver_rows^2/2 must clamp the auto
    cell count to the driver cap (cells grow, per-cell positional split
    bounds the in-task work) instead of raising the hard error the
    coarse path exists to avoid."""
    import numpy as np

    from docetl_ray.stages.cluster import cluster_dendrogram
    from docetl_ray.util import collect

    # cap=6 -> auto num_cells would be ceil(2*60/6)=20 > cap without
    # the clamp
    n = 60
    i = np.arange(n)
    emb = np.stack([(i % 4) * 50.0, (i * 7 % 13).astype(np.float64)], 1)
    ds = rd.from_arrow(pa.table({
        "vid": pa.array(i, pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float64())),
    }))
    out = collect(cluster_dendrogram(ds, "embedding", "vid",
                                     max_driver_rows=6))
    assert out.num_rows == n
    assert sorted(out["vid"].to_pylist()) == list(range(n))


def test_cluster_coarse_deterministic_across_block_layout(ray_session):
    """Coarse per-cell dendrograms sort by id before building, so the
    output paths must not depend on upstream block count / row order."""
    import numpy as np

    from docetl_ray.stages.cluster import cluster_dendrogram
    from docetl_ray.util import collect

    n = 1200
    i = np.arange(n)
    emb = np.stack([(i % 3) * 100.0 + (i * 31 % 17) / 17.0,
                    (i * 13 % 29).astype(np.float64)], 1)
    tbl = pa.table({
        "vid": pa.array(i, pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float64())),
    })
    perm = np.argsort((i * 2654435761) % (1 << 32))  # deterministic shuffle
    outs = []
    for t, nblocks in ((tbl, 4), (tbl.take(pa.array(perm)), 11)):
        ds = rd.from_arrow(t).repartition(nblocks)
        out = collect(cluster_dendrogram(ds, "embedding", "vid",
                                         max_driver_rows=300))
        outs.append(dict(zip(out["vid"].to_pylist(),
                             [tuple(p) for p in out["clusters"].to_pylist()])))
    assert outs[0] == outs[1]


def test_auto_pin_estimate_uses_parquet_column_share(ray_session, tmp_path):
    """A table DOMINATED by the quantile column must not be divided by
    the column count (that would undershoot by ncols x and wrongly pin
    past the threshold); the share comes from the parquet footer."""
    import numpy as np

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


def test_metadata_free_schema_bounded_footer_scan(tmp_path):
    """Past 32 files the per-file footer check verifies a head+tail
    SAMPLE instead of O(files) — large pandas-written dirs (the 4x
    schema-dedup wall this helper fixes) still get the strip, and a
    schema divergence at either end still disables the force."""
    from docetl_ray.sources import _metadata_free_schema

    d = tmp_path / "many"
    d.mkdir()
    t = pa.Table.from_pandas(pd.DataFrame({"a": [1, 2]}))
    for i in range(40):
        pq.write_table(t, str(d / f"f{i:03d}.parquet"))
    s = _metadata_free_schema(str(d), None)
    assert s is not None and s.metadata is None   # large dir still strips
    # a divergent TAIL file (schema evolution) is caught by the sample
    t2 = pa.Table.from_pandas(pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}))
    pq.write_table(t2, str(d / "f999.parquet"))
    assert _metadata_free_schema(str(d), None) is None
    # under 32 files the pandas-metadata strip applies with a full check
    few = tmp_path / "few"
    few.mkdir()
    for i in range(2):
        pq.write_table(t, str(few / f"f{i}.parquet"))
    s = _metadata_free_schema(str(few), None)
    assert s is not None and s.metadata is None


def test_cli_compact_after_parses_auto_none_int():
    """The CLI mirrors the library's compact_after="auto" default — an
    int-typed None default silently disabled auto-compaction for every
    CLI delta ingest; "none" restores manual compact().  Guards the
    PARSED namespace (not just the type fn), so reverting the default
    back to None fails here."""
    from docetl_ray.cli import _compact_after, build_parser

    assert _compact_after("auto") == "auto"
    assert _compact_after("none") is None
    assert _compact_after("3") == 3

    base = ["apply", "--wal", "w", "--table", "t", "--epoch", "0"]
    parse = build_parser().parse_args
    assert parse(base).compact_after == "auto"
    assert parse(base + ["--compact-after", "none"]).compact_after is None
    assert parse(base + ["--compact-after", "7"]).compact_after == 7


def test_correctness_window_rotation_policy():
    """Every queries() entry must have a green driver row within the
    last two rounds: entries green in neither of the two newest
    CORRECTNESS artifacts must sit inside the 50-entry window the driver
    checks."""
    import json
    import os

    import __ray_entry__ as entry

    names = list(entry.queries().keys())
    assert len(names) == len(set(names)), "duplicate query names"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    arts = sorted(f for f in os.listdir(root) if f.startswith("CORRECTNESS_r"))
    if not arts:
        pytest.skip("no driver correctness artifacts present")
    green = set()
    for art in arts[-2:]:
        with open(os.path.join(root, art)) as f:
            green |= {k for k, v in json.load(f).items()
                      if isinstance(v, dict) and v.get("hash_match")}
    uncovered = [n for n in names if n not in green and n not in names[:50]]
    assert uncovered == [], (
        f"queries outside the 50-row driver window with no green row in "
        f"{arts[-2:]}: {uncovered} — rotate them to the front of queries()")


def test_cluster_ops_tolerate_empty_input(ray_session):
    """An upstream filter that drops every row is routine — the cluster
    entry points must return the empty input, not crash in Arrow sort
    or dendrogram internals."""
    import ray.data as rd

    from docetl_ray.stages.cluster import (cluster_dendrogram,
                                           cluster_embeddings,
                                           cluster_threshold)

    empty = rd.from_items([{"id": 1, "emb": [0.0, 1.0]}]).filter(
        lambda r: False)
    assert cluster_dendrogram(empty, "emb", "id").count() == 0
    assert cluster_embeddings(empty, "emb", "id", num_clusters=2).count() == 0
    assert cluster_threshold(empty, "emb", "id",
                             distance_threshold=0.5).count() == 0


def test_kmeans_cells_tolerates_nan_embeddings(ray_session):
    """A NaN embedding cell must not corrupt the fixed-point centroid
    accumulators (NaN bypasses np.clip and casts to INT64_MIN)."""
    import numpy as np
    import ray.data as rd

    from docetl_ray.stages.cluster import kmeans_cells

    rows = [{"id": i, "emb": [float(i % 2) * 10, 1.0]} for i in range(40)]
    rows[7]["emb"] = [float("nan"), 1.0]
    cents, assigned = kmeans_cells(rd.from_items(rows), "emb", "id",
                                   num_cells=2, iters=4)
    assert np.isfinite(cents).all(), cents
    # NaN quantizes to 0 (not INT64_MIN, which put centroids at ~1e18/n
    # or wrapped the accumulator): the two blobs still separate cleanly
    xs = sorted(c[0] for c in cents)
    assert xs[0] < 2.0 and xs[-1] > 8.0, cents
    assert assigned.count() == 40
    # an inf cell saturates at the documented clip (bounded skew, no
    # wrap): centroids stay finite and physically bounded
    rows[23]["emb"] = [float("nan"), float("inf")]
    cents2, assigned2 = kmeans_cells(rd.from_items(rows), "emb", "id",
                                     num_cells=2, iters=4)
    assert np.isfinite(cents2).all(), cents2
    assert np.abs(cents2).max() < 1e7, cents2
    assert assigned2.count() == 40
