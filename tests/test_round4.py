"""Round-4 regression tests for the ADVICE.md findings."""

import pyarrow as pa
import ray.data as rd


def test_hierarchy_headers_empty_header_clears_lower():
    """Reference gather.py:305-315 clears lower levels for EVERY header
    entry — an entry with empty header text but a valid level still clears
    (ADVICE: unnest_split_gather._hierarchy_headers)."""
    from docetl_ray.stages.unnest_split_gather import _hierarchy_headers

    prefix = [
        {"h": [{"header": "Intro", "level": 1},
               {"header": "Sub", "level": 2}]},
        # empty header text, valid level 1: must clear level 2
        {"h": [{"header": "", "level": 1}]},
    ]
    current = {"h": [{"header": "Deep", "level": 3}]}
    got = _hierarchy_headers(current, prefix, "h")
    # level-2 "Sub" was cleared by the empty level-1 entry; only "Intro"
    # (set earlier, not overwritten by the falsy header) survives
    assert "Sub" not in got
    assert "# Intro" in got


def test_hierarchy_headers_missing_key_aborts():
    from docetl_ray.stages.unnest_split_gather import _hierarchy_headers

    prefix = [{"h": [{"header": "A"}]}]  # no "level" key -> reference: ""
    current = {"h": [{"header": "Deep", "level": 3}]}
    assert _hierarchy_headers(current, prefix, "h") == ""


def _collect(ds) -> pa.Table:
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tabs, promote_options="permissive") if tabs \
        else pa.table({})


def test_llm_resolve_blocking_conditions(ray_session):
    """Pairs failing every blocking condition are never compared
    (reference resolve.py:290-294): with an always-match client, clusters
    form only within predicate-passing pairs."""
    from docetl_ray.stages.resolve import llm_resolve

    rows = [
        {"eid": 1, "blk": "x", "text": "aaaa one"},
        {"eid": 2, "blk": "x", "text": "aaaa two"},
        {"eid": 3, "blk": "x", "text": "bbbb one"},
        {"eid": 4, "blk": "x", "text": "bbbb two"},
    ]
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({k: t[k] for k in ("eid", "blk", "text")}),
        batch_format="pyarrow",
    )

    class AlwaysMatch:
        model = "always"

        def complete(self, prompt, schema):
            return {"is_match": True}

    out = _collect(llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1.text }} vs {{ input2.text }}",
        client_factory=AlwaysMatch,
        blocking_conditions=['input1["text"][:4] == input2["text"][:4]'],
    ))
    canon = dict(zip(out["eid"].to_pylist(), out["_canonical"].to_pylist()))
    assert canon == {1: 1, 2: 1, 3: 3, 4: 3}

    # without conditions the always-match client merges the whole block
    out2 = _collect(llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1.text }} vs {{ input2.text }}",
        client_factory=AlwaysMatch,
    ))
    canon2 = dict(zip(out2["eid"].to_pylist(), out2["_canonical"].to_pylist()))
    assert canon2 == {1: 1, 2: 1, 3: 1, 4: 1}


def test_llm_resolve_blocked_pairs_do_not_consume_budget(ray_session):
    """Skipped (condition-failing) pairs must not count toward
    limit_comparisons — the reference filters blocked pairs BEFORE
    capping."""
    from docetl_ray.stages.resolve import llm_resolve

    # sorted-id pair order: (1,2) fails, (1,3) passes, (1,4) fails,
    # (2,3) fails, (2,4) passes ... with limit=2 the two PASSING pairs
    # must both be compared even though earlier pairs were skipped
    rows = [
        {"eid": 1, "blk": "x", "g": "a"},
        {"eid": 2, "blk": "x", "g": "b"},
        {"eid": 3, "blk": "x", "g": "a"},
        {"eid": 4, "blk": "x", "g": "b"},
    ]
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({k: t[k] for k in ("eid", "blk", "g")}),
        batch_format="pyarrow",
    )

    class AlwaysMatch:
        model = "always"

        def complete(self, prompt, schema):
            return {"is_match": True}

    out = _collect(llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1.eid }} vs {{ input2.eid }}",
        client_factory=AlwaysMatch,
        blocking_conditions=['input1["g"] == input2["g"]'],
        limit_comparisons=2,
    ))
    canon = dict(zip(out["eid"].to_pylist(), out["_canonical"].to_pylist()))
    assert canon == {1: 1, 3: 1, 2: 2, 4: 2}


def test_runner_equijoin_blocking_conditions(tmp_path, ray_session):
    """YAML equijoin with blocking_conditions + comparison_prompt routes
    through condition_blocked_pairs -> llm_equijoin."""
    import pyarrow.parquet as pq

    from docetl_ray.runner import PipelineRunner
    from docetl_ray.stages.llm import FakeDeterministicClient

    pq.write_table(
        pa.table({"lid": [1, 2, 3], "name": ["acme", "acme", "zeta"]}),
        tmp_path / "l.parquet",
    )
    pq.write_table(
        pa.table({"rid": [7, 8], "rname": ["acme", "beta"]}),
        tmp_path / "r.parquet",
    )
    cfg = {
        "datasets": {
            "left": {"type": "file", "path": str(tmp_path / "l.parquet")},
            "right": {"type": "file", "path": str(tmp_path / "r.parquet")},
        },
        "operations": [
            {"name": "j", "type": "equijoin", "right": "right",
             "left_id": "lid", "right_id": "rid",
             "blocking_conditions": ['left["name"] == right["rname"]'],
             "comparison_prompt": "M?\nA: {{ input1.name }}\nB: {{ input2.rname }}"},
        ],
        "pipeline": {"steps": [{"name": "s1", "input": "left",
                                "operations": ["j"]}]},
    }
    out = _collect(PipelineRunner(cfg).run())
    # blocked candidates are exactly (1,7) and (2,7); the fake client's
    # md5 verdict is shared by both (identical rendered prompt)
    expect = bool(FakeDeterministicClient().complete(
        "M?\nA: acme\nB: acme", {"is_match": "bool"}).get("is_match"))
    if expect:
        assert sorted(out["lid"].to_pylist()) == [1, 2]
        assert set(out["rid"].to_pylist()) == {7}
    else:
        assert out.num_rows == 0


def test_value_sample_sem_sim():
    """sem_sim: cosine vs caller-supplied query embedding, top-k in the
    reference's ascending-similarity order (reduce.py:462-464)."""
    from docetl_ray.stages.llm import _value_sample

    rows = [
        {"i": 0, "emb": [1.0, 0.0]},
        {"i": 1, "emb": [0.0, 1.0]},
        {"i": 2, "emb": [0.9, 0.1]},
        {"i": 3, "emb": [-1.0, 0.0]},
        {"i": 4, "emb": [0.7, 0.7]},
    ]
    cfg = {"enabled": True, "method": "sem_sim", "sample_size": 3,
           "embedding_col": "emb", "query_embedding": [1.0, 0.0]}
    out = _value_sample(rows, cfg)
    # ascending similarity: 4 (0.707) < 2 (~0.994) < 0 (1.0)
    assert [r["i"] for r in out] == [4, 2, 0]


def test_value_sample_cluster_covers_clusters():
    """cluster: deterministic k-means + round-robin pick — one member
    from each of two well-separated clusters."""
    from docetl_ray.stages.llm import _value_sample

    rows = (
        [{"i": i, "emb": [10.0 + 0.01 * i, 10.0]} for i in range(3)]
        + [{"i": 10 + i, "emb": [-10.0 - 0.01 * i, -10.0]} for i in range(3)]
    )
    cfg = {"enabled": True, "method": "cluster", "sample_size": 2,
           "embedding_col": "emb"}
    out = _value_sample(rows, cfg)
    assert len(out) == 2
    groups = {r["i"] // 10 for r in out}
    assert groups == {0, 1}  # one from each cluster
    # deterministic across calls
    assert [r["i"] for r in _value_sample(rows, cfg)] == [r["i"] for r in out]


def test_value_sample_needs_embedding_col():
    import pytest as _pytest

    from docetl_ray.stages.llm import _value_sample

    with _pytest.raises(NotImplementedError, match="embedding_col"):
        _value_sample([{"i": 0}] * 5, {"enabled": True, "method": "cluster",
                                       "sample_size": 2})


def test_llm_reduce_value_sampling_cluster(ray_session):
    """llm_reduce end-to-end: value_sampling bounds the rows rendered into
    the prompt while _counts_prereduce still counts the FULL group."""
    from docetl_ray.stages.llm import llm_reduce

    rows = []
    for g in ("a", "b"):
        for i in range(4):
            sign = 1.0 if i < 2 else -1.0
            rows.append({"g": g, "i": i, "emb": [sign * 5.0 + 0.1 * i, sign]})
    ds = rd.from_items(rows)

    class CountingClient:
        model = "counting"

        def complete(self, prompt, schema):
            # the prompt renders one "row:" line per sampled input
            return {"n_in_prompt": prompt.count("row:")}

    out = _collect(llm_reduce(
        ds, "g",
        "{% for r in inputs %}row: {{ r.i }}\n{% endfor %}",
        {"n_in_prompt": "int"},
        client_factory=CountingClient,
        value_sampling={"enabled": True, "method": "cluster",
                        "sample_size": 2, "embedding_col": "emb"},
    ))
    got = dict(zip(out["g"].to_pylist(), out["n_in_prompt"].to_pylist()))
    assert got == {"a": 2, "b": 2}
    counts = dict(zip(out["g"].to_pylist(),
                      out["_counts_prereduce"].to_pylist()))
    assert counts == {"a": 4, "b": 4}


def test_llm_reduce_value_sampling_sem_sim(ray_session):
    from docetl_ray.stages.llm import llm_reduce

    rows = [{"g": "a", "i": i, "emb": [float(i), 1.0]} for i in range(5)]
    ds = rd.from_items(rows)

    class EchoClient:
        model = "echo"

        def complete(self, prompt, schema):
            ids = [int(x) for x in prompt.replace("row:", " ").split()]
            return {"picked": ",".join(map(str, ids))}

    out = _collect(llm_reduce(
        ds, "g",
        "{% for r in inputs %}row: {{ r.i }} {% endfor %}",
        {"picked": "str"},
        client_factory=EchoClient,
        value_sampling={"enabled": True, "method": "sem_sim",
                        "sample_size": 2, "embedding_col": "emb",
                        "query_embedding": [1.0, 0.0]},
    ))
    # highest cosine with [1,0]: i=4 then i=3; ascending-sim order -> 3,4
    assert out["picked"].to_pylist() == ["3,4"]


def test_synth_docs_vectors_deterministic():
    """Scale-bench generators are pure functions of the absolute index —
    identical regardless of chunk boundaries."""
    import numpy as np

    from docetl_ray import synth

    whole = synth.docs_for_indices(np.arange(0, 40))
    parts = pa.concat_tables([
        synth.docs_for_indices(np.arange(0, 7)),
        synth.docs_for_indices(np.arange(7, 25)),
        synth.docs_for_indices(np.arange(25, 40)),
    ])
    assert whole.equals(parts)

    vw = synth.vectors_for_indices(np.arange(0, 20), dim=16)
    vp = pa.concat_tables([
        synth.vectors_for_indices(np.arange(0, 3), dim=16),
        synth.vectors_for_indices(np.arange(3, 20), dim=16),
    ])
    assert vw.equals(vp)

    # near-dup structure: i%10==1 is a suffix mutation of i-1
    t10 = whole["text"][10].as_py()
    t11 = whole["text"][11].as_py()
    assert t11.startswith(t10) and t11 != t10
    # non-dup neighbors are unrelated
    assert not whole["text"][3].as_py().startswith(whole["text"][2].as_py()[:20])


def test_read_dataset_strips_pandas_metadata(tmp_path, ray_session):
    """Pandas-written parquet (schema metadata) reads through the library
    with a metadata-free schema — the 4x shuffle slow-path guard."""
    import pandas as pd

    from docetl_ray.sources import _metadata_free_schema, read_dataset

    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    df.to_parquet(tmp_path / "p.parquet")
    sch = _metadata_free_schema(str(tmp_path / "p.parquet"), None)
    assert sch is not None and not sch.metadata
    ds = read_dataset(str(tmp_path / "p.parquet"), columns=["a"])
    tab = _collect(ds)
    assert tab.column_names == ["a"]
    assert not tab.schema.metadata
    assert sorted(tab["a"].to_pylist()) == [1, 2, 3]

    # metadata-free parquet keeps Ray's own inference (schema=None)
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"c": [1]}), tmp_path / "clean.parquet")
    assert _metadata_free_schema(str(tmp_path / "clean.parquet"), None) is None


def test_runner_gather_null_peripheral_chunks(ray_session):
    """YAML `peripheral_chunks:` with explicit null must not AttributeError
    (ADVICE: runner.py pc_cfg)."""
    from docetl_ray.runner import _apply_op

    ds = rd.from_items([
        {"doc": 1, "ord": 0, "txt": "a"},
        {"doc": 1, "ord": 1, "txt": "b"},
    ])
    op = {"type": "gather", "name": "g", "content_key": "txt",
          "doc_id_key": "doc", "order_key": "ord",
          "peripheral_chunks": None}
    out = _apply_op(ds, op)
    assert out.count() == 2


def test_bench_steal_helpers():
    """_steal_pct is a safe ratio of /proc/stat deltas."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "bench_mod", os.path.join(os.path.dirname(__file__), "..", "bench.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    s0, t0 = bench._cpu_sample()
    assert t0 >= s0 >= 0
    assert bench._steal_pct((0, 0), (0, 0)) == 0.0
    assert bench._steal_pct((10, 100), (30, 300)) == 10.0


def test_agglomerative_nn_cache_matches_full_argmin():
    """The nearest-neighbor row cache must reproduce the exact merge
    sequence (ids, order, distances) of a full-matrix-argmin
    Lance-Williams loop, including first-occurrence tie-breaks."""
    import numpy as np

    from docetl_ray.stages.cluster import agglomerative_merges

    def plain_lw(matrix):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        n = len(matrix)
        if n <= 1:
            return []
        sq = (matrix * matrix).sum(axis=1)
        dist = np.sqrt(np.maximum(
            sq[:, None] + sq[None, :] - 2.0 * (matrix @ matrix.T), 0.0))
        np.fill_diagonal(dist, np.inf)
        size = np.ones(n)
        merges = []
        for _ in range(n - 1):
            flat = int(np.argmin(dist))
            ci, cj = divmod(flat, n)
            if ci > cj:
                ci, cj = cj, ci
            merges.append((ci, cj, float(dist[ci, cj])))
            si, sj = size[ci], size[cj]
            new = (si * dist[ci] + sj * dist[cj]) / (si + sj)
            dist[ci, :] = new
            dist[:, ci] = new
            dist[ci, ci] = np.inf
            dist[cj, :] = np.inf
            dist[:, cj] = np.inf
            size[ci] = si + sj
        return merges

    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 50))
        m = rng.normal(size=(n, int(rng.integers(1, 8))))
        assert plain_lw(m) == agglomerative_merges(m)
    # exact ties: duplicates, grids, equally-spaced lines
    for m in (
        np.zeros((7, 2)),
        np.array([[float(i % 3), float(i // 3)] for i in range(9)]),
        np.array([[float(i)] for i in range(6)]),
    ):
        assert plain_lw(m) == agglomerative_merges(m)
