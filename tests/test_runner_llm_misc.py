"""Tests: extract / cluster / link_resolve / llm plumbing / YAML runner /
pandas accessor / checkpointing."""

import os
import textwrap

import numpy as np
import pyarrow as pa
import pytest


def _collect(ds):
    from docetl_ray.util import collect

    return collect(ds)


def test_extract_regex_dedup_and_join():
    import ray.data as rd
    from docetl_ray.stages.extract import extract_regex

    t = pa.table(
        {
            "id": [1, 2],
            "doc": ["call 555-1234 or 555-9999 or 555-1234", "no phones here"],
        }
    )
    out = _collect(
        extract_regex(rd.from_arrow(t), "doc", [r"\d{3}-\d{4}"])
    ).sort_by([("id", "ascending")])
    assert out["doc_extracted"].to_pylist() == ["555-1234\n555-9999", ""]
    out2 = _collect(
        extract_regex(rd.from_arrow(t), "doc", [r"\d{3}-\d{4}"], format_extraction=False)
    ).sort_by([("id", "ascending")])
    assert out2["doc_extracted"].to_pylist() == [["555-1234", "555-9999"], []]


def test_cluster_embeddings_groups_nearby_vectors():
    import ray.data as rd
    from docetl_ray.stages.cluster import cluster_embeddings

    rng = np.random.RandomState(5)
    a = rng.randn(8) * 0.05 + np.array([10.0] * 8)
    cluster_a = [a + rng.randn(8) * 0.01 for _ in range(5)]
    b = rng.randn(8) * 0.05 - np.array([10.0] * 8)
    cluster_b = [b + rng.randn(8) * 0.01 for _ in range(5)]
    vecs = cluster_a + cluster_b
    t = pa.table(
        {
            "vid": list(range(10)),
            "emb": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
        }
    )
    out = _collect(
        cluster_embeddings(rd.from_arrow(t), "emb", "vid", num_clusters=2)
    ).sort_by([("vid", "ascending")])
    labels = out["cluster_id"].to_pylist()
    assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
    assert labels[0] != labels[5]
    assert all("medoid" in s for s in out["cluster_id_label"].to_pylist())


def test_link_resolve_repairs_dangling_links():
    import ray.data as rd
    from docetl_ray.stages.link_resolve import link_resolve

    t = pa.table(
        {
            "id": ["apache ray", "apache arrow", "duckdb engine"],
            "link": ["apache ray", "apache arow project", "unrelated thing zzz"],
        }
    )
    out = _collect(
        link_resolve(rd.from_arrow(t), id_col="id", link_col="link", threshold=0.4)
    ).sort_by([("id", "ascending")])
    links = dict(zip(out["id"].to_pylist(), out["link"].to_pylist()))
    assert links["apache ray"] == "apache ray"  # already valid, untouched
    assert links["apache arrow"] == "apache arrow"  # repaired
    assert links["duckdb engine"] == "unrelated thing zzz"  # below threshold


def test_llm_map_filter_reduce_deterministic():
    import ray.data as rd
    from docetl_ray.stages.llm import llm_filter, llm_map, llm_reduce

    t = pa.table({"text": ["good day", "bad day", "ok day"], "cat": ["a", "a", "b"]})
    ds = rd.from_arrow(t)
    out = _collect(
        llm_map(ds, "Classify: {{ input.text }}",
                {"sentiment": "enum[pos, neg]", "score": "int"})
    ).sort_by([("text", "ascending")])
    assert set(out.column_names) >= {"text", "cat", "sentiment", "score"}
    assert all(s in ("pos", "neg") for s in out["sentiment"].to_pylist())
    # deterministic across runs
    out2 = _collect(
        llm_map(rd.from_arrow(t), "Classify: {{ input.text }}",
                {"sentiment": "enum[pos, neg]", "score": "int"})
    ).sort_by([("text", "ascending")])
    assert out["sentiment"].to_pylist() == out2["sentiment"].to_pylist()

    kept = _collect(llm_filter(ds, "Keep? {{ input.text }}"))
    assert "keep" not in kept.column_names  # bool column dropped

    red = _collect(
        llm_reduce(ds, "cat", "Summarize {{ reduce_key.cat }}: {{ inputs | length }}",
                   {"summary": "str"})
    ).sort_by([("cat", "ascending")])
    assert red.num_rows == 2
    assert red["_counts_prereduce"].to_pylist() == [2, 1]


def test_yaml_runner_end_to_end(tmp_path):
    import yaml
    from docetl_ray.runner import PipelineRunner

    config = {
        "datasets": {
            "docs": {"type": "file", "path": "/root/testdata/sf0.001/documents.parquet"}
        },
        "operations": [
            {
                "name": "add_len",
                "type": "code_map",
                "code": "def transform(doc):\n    return {'text_len': len(doc['text'])}\n",
            },
            {
                "name": "keep_long",
                "type": "code_filter",
                "code": "def transform(doc):\n    return doc['text_len'] > 200\n",
            },
            {
                "name": "by_lang",
                "type": "code_reduce",
                "reduce_key": "lang",
                "code": (
                    "def transform(rows):\n"
                    "    return {'n_docs': len(rows), 'total_len': sum(r['text_len'] for r in rows)}\n"
                ),
            },
        ],
        "pipeline": {
            "steps": [{"name": "s1", "input": "docs",
                       "operations": ["add_len", "keep_long", "by_lang"]}],
            "output": {"type": "file", "path": str(tmp_path / "out"), "format": "parquet"},
        },
    }
    ypath = tmp_path / "pipe.yaml"
    ypath.write_text(yaml.safe_dump(config))
    runner = PipelineRunner.from_yaml(str(ypath))
    out = runner.run()
    res = _collect(out).sort_by([("lang", "ascending")])
    assert res.num_rows == 5  # 5 langs
    assert set(res.column_names) >= {"lang", "n_docs", "total_len", "_counts_prereduce_by_lang"}

    import duckdb

    want = duckdb.connect().execute(
        """SELECT lang, count(*) n FROM read_parquet('/root/testdata/sf0.001/documents.parquet')
           WHERE length(text) > 200 GROUP BY 1 ORDER BY 1"""
    ).fetchall()
    assert res["n_docs"].to_pylist() == [n for _, n in want]
    assert os.path.isdir(tmp_path / "out")


def test_yaml_runner_checkpoint_reuse(tmp_path):
    from docetl_ray.runner import PipelineRunner

    config = {
        "datasets": {
            "docs": {"type": "file", "path": "/root/testdata/sf0.001/documents.parquet"}
        },
        "operations": [
            {"name": "add_len", "type": "code_map",
             "code": "def transform(doc):\n    return {'text_len': len(doc['text'])}\n"},
        ],
        "pipeline": {"steps": [{"name": "s1", "input": "docs", "operations": ["add_len"]}]},
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    r1 = PipelineRunner(config)
    out1 = _collect(r1.run())
    ckpts = list((tmp_path / "ckpt" / "s1").iterdir())
    assert len(ckpts) == 1 and (ckpts[0] / "_SUCCESS").exists()
    r2 = PipelineRunner(config)  # second run reads the checkpoint
    out2 = _collect(r2.run())
    assert out1.sort_by([("doc_id", "ascending")]).equals(
        out2.sort_by([("doc_id", "ascending")])
    )


def test_pandas_accessor():
    import pandas as pd

    import docetl_ray.pandas_api  # noqa: F401  registers accessor

    df = pd.DataFrame({"x": [1, 2, 3, 4], "k": ["a", "a", "b", "b"]})
    out = df.semantic.map(code="def transform(doc):\n    return {'y': doc['x'] * 2}\n")
    assert sorted(out["y"].tolist()) == [2, 4, 6, 8]
    agg = df.semantic.agg(
        reduce_key="k",
        code="def transform(rows):\n    return {'sx': sum(r['x'] for r in rows)}\n",
    ).sort_values("k")
    assert agg["sx"].tolist() == [3, 7]
    right = pd.DataFrame({"k": ["a", "b"], "label": ["first", "second"]})
    merged = df.semantic.merge(right, on="k")
    assert len(merged) == 4 and "label" in merged.columns


def test_llm_map_validation_retry():
    import ray.data as rd

    from docetl_ray.stages.llm import llm_map, FakeDeterministicClient

    calls = {"n": 0}

    class CountingClient(FakeDeterministicClient):
        def complete(self, prompt, schema):
            calls["n"] += 1
            return super().complete(prompt, schema)

    t = pa.table({"text": ["alpha", "beta"]})
    # impossible validation -> retries exhausted, output still produced
    out = llm_map(rd.from_arrow(t), "P: {{ input.text }}", {"score": "int"},
                  client_factory=CountingClient, concurrency=1,
                  validate=["output['score'] > 1000"],  # scores are 0..99
                  num_retries_on_validate_failure=2)
    from docetl_ray.util import collect

    res = collect(out)
    assert res.num_rows == 2 and "score" in res.column_names


def test_register_custom_operation_plugin():
    """Custom op types dispatch through register_operation without
    editing _apply_op (entry-point parity, operations/__init__.py:43-62)."""
    import ray.data as rd
    from docetl_ray.runner import _OP_PLUGINS, _apply_op, register_operation

    def double_op(ds, op):
        col = op["column"]

        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.append_column(
                f"{col}_x2", pc.multiply(batch[col], 2)
            )

        return ds.map_batches(fn, batch_format="pyarrow")

    register_operation("double", double_op)
    try:
        ds = rd.from_arrow(pa.table({"v": [1, 2, 3]}))
        out = _collect(_apply_op(ds, {"type": "double", "column": "v"}))
        assert out["v_x2"].to_pylist() == [2, 4, 6]
    finally:
        _OP_PLUGINS.pop("double", None)


def test_runner_dispatch_new_surfaces():
    """_apply_op routes gleaning/fold/line_number/embedding configs to the
    new implementations (smoke: structure, not model quality)."""
    import ray.data as rd
    from docetl_ray.runner import _apply_op

    docs = rd.from_arrow(pa.table({"k": ["a"] * 6, "text": ["one two three"] * 6}))
    # fold-plan reduce through the YAML surface
    out = _collect(
        _apply_op(
            docs,
            {
                "type": "reduce",
                "reduce_key": "k",
                "prompt": "summarize {{ inputs | length }}",
                "output": {"schema": {"summary": "str"}},
                "fold_prompt": "fold {{ inputs | length }} into {{ output.summary }}",
                "fold_batch_size": 2,
            },
        )
    )
    assert out.num_rows == 1 and out["_counts_prereduce"].to_pylist() == [6]
    # line_number extract through the YAML surface
    out2 = _collect(
        _apply_op(
            docs,
            {
                "type": "extract",
                "extraction_method": "line_number",
                "document_keys": ["text"],
                "prompt": "find stuff",
            },
        )
    )
    assert "text_extracted" in out2.column_names


def test_typed_python_api_pipeline(tmp_path):
    """docetl.api parity: typed models -> config dict -> runner
    (reference api.py:84-259)."""
    import pyarrow.parquet as pq
    from docetl_ray.api import (
        Dataset,
        MapOp,
        Pipeline,
        PipelineOutput,
        PipelineStep,
        ReduceOp,
    )

    src = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table({"doc_id": [1, 2, 3], "lang": ["en", "en", "de"],
                  "text": ["aaaa", "bb", "cccccc"]}),
        src,
    )
    out_dir = tmp_path / "out"
    p = Pipeline(
        datasets={"docs": Dataset(type="file", path=str(src))},
        operations=[
            MapOp(name="score", type="code_map",
                  code="def transform(doc):\n    return {'n': len(doc['text'])}"),
            ReduceOp(name="stats", type="code_reduce", reduce_key="lang",
                     code="def transform(rows):\n    return {'total': sum(r['n'] for r in rows)}"),
        ],
        steps=[PipelineStep(name="s1", input="docs", operations=["score", "stats"])],
        output=PipelineOutput(type="file", path=str(out_dir), format="parquet"),
    )
    cfg = p.to_config()
    assert cfg["operations"][0]["type"] == "code_map"
    result = p.run()
    got = {r["lang"]: r["total"] for r in _collect(result).to_pylist()}
    assert got == {"en": 6, "de": 6}
    assert pq.read_table(str(out_dir)).num_rows == 2
    # round-trip
    p2 = Pipeline.from_dict(cfg)
    assert p2.to_config()["pipeline"] == cfg["pipeline"]


def test_runner_equijoin_op(tmp_path):
    """Two-input equijoin op in the YAML/typed pipeline surface."""
    import pyarrow.parquet as pq
    from docetl_ray.runner import PipelineRunner

    pq.write_table(pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}), tmp_path / "l.parquet")
    pq.write_table(pa.table({"k": [2, 3, 4], "w": [20, 30, 40]}), tmp_path / "r.parquet")
    cfg = {
        "datasets": {
            "left": {"type": "file", "path": str(tmp_path / "l.parquet")},
            "right": {"type": "file", "path": str(tmp_path / "r.parquet")},
        },
        "operations": [
            {"name": "j", "type": "equijoin", "right": "right", "on": "k",
             "strategy": "broadcast", "how": "inner"},
        ],
        "pipeline": {"steps": [{"name": "s1", "input": "left", "operations": ["j"]}]},
    }
    out = _collect(PipelineRunner(cfg).run()).sort_by([("k", "ascending")])
    assert out["k"].to_pylist() == [2, 3]
    assert out["w"].to_pylist() == [20, 30]

    cfg["operations"][0]["strategy"] = "hash"
    out2 = _collect(PipelineRunner(cfg).run()).sort_by([("k", "ascending")])
    assert out2["k"].to_pylist() == [2, 3] and out2["w"].to_pylist() == [20, 30]


def test_runner_partitioned_output(tmp_path):
    """output.partition_by writes hive-partitioned parquet (resumable
    layout: one directory per key value)."""
    import os

    import pyarrow.parquet as pq
    from docetl_ray.runner import PipelineRunner

    pq.write_table(
        pa.table({"k": [1, 2, 3, 4], "lang": ["en", "de", "en", "de"]}),
        tmp_path / "in.parquet",
    )
    out_dir = tmp_path / "out"
    cfg = {
        "datasets": {"d": {"type": "file", "path": str(tmp_path / "in.parquet")}},
        "operations": [
            {"name": "noop", "type": "code_map", "code": "def transform(doc):\n    return {}"},
        ],
        "pipeline": {
            "steps": [{"name": "s", "input": "d", "operations": ["noop"]}],
            "output": {"type": "file", "path": str(out_dir), "format": "parquet",
                       "partition_by": ["lang"]},
        },
    }
    PipelineRunner(cfg).run()
    subdirs = sorted(p for p in os.listdir(out_dir))
    assert any("lang=en" in p for p in subdirs) and any("lang=de" in p for p in subdirs)
    back = pq.read_table(str(out_dir))
    assert back.num_rows == 4


def test_runner_pii_scrub_and_quantiles(tmp_path):
    import pyarrow.parquet as pq
    from docetl_ray.runner import PipelineRunner

    pq.write_table(
        pa.table({"text": ["mail a@b.co now", "plain"], "x": [1.0, 9.0]}),
        tmp_path / "d.parquet",
    )
    cfg = {
        "datasets": {"d": {"type": "file", "path": str(tmp_path / "d.parquet")}},
        "operations": [{"name": "scrub", "type": "pii_scrub", "text_key": "text"}],
        "pipeline": {"steps": [{"name": "s", "input": "d", "operations": ["scrub"]}]},
    }
    out = _collect(PipelineRunner(cfg).run()).sort_by([("x", "ascending")])
    assert out["text"].to_pylist() == ["mail <EMAIL> now", "plain"]
    assert out["n_email"].to_pylist() == [1, 0]

    cfg["operations"] = [{"name": "q", "type": "quantiles", "key": "x",
                          "qs": [0.5, 1.0]}]
    cfg["pipeline"]["steps"][0]["operations"] = ["q"]
    out2 = _collect(PipelineRunner(cfg).run()).sort_by([("q", "ascending")])
    assert out2["value"].to_pylist() == [1.0, 9.0]


def test_runner_window_and_asof_ops(tmp_path):
    """window (tumbling/session) and two-input asof_join YAML surfaces."""
    import datetime as dt

    import pyarrow.parquet as pq
    from docetl_ray.runner import PipelineRunner

    def ts(m):
        return dt.datetime(2026, 1, 1, 0, m)

    pq.write_table(pa.table({
        "uid": pa.array([1, 1, 1, 2], pa.int64()),
        "ts": pa.array([ts(0), ts(1), ts(40), ts(2)], pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()),
    }), tmp_path / "ev.parquet")
    pq.write_table(pa.table({
        "uid": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([ts(0), ts(30), ts(0)], pa.timestamp("us")),
        "state": pa.array(["a", "b", "c"]),
    }), tmp_path / "st.parquet")

    cfg = {
        "datasets": {
            "ev": {"type": "file", "path": str(tmp_path / "ev.parquet")},
            "st": {"type": "file", "path": str(tmp_path / "st.parquet")},
        },
        "operations": [
            {"name": "w", "type": "window", "method": "tumbling",
             "ts_key": "ts", "keys": ["uid"], "window_seconds": 600,
             "aggs": [["v", "sum", "total"]]},
            {"name": "sess", "type": "window", "method": "session",
             "ts_key": "ts", "key": "uid", "gap_seconds": 600},
            {"name": "aj", "type": "asof_join", "right": "st",
             "on": "ts", "by": "uid", "how": "left"},
        ],
        "pipeline": {"steps": [
            {"name": "tumble", "input": "ev", "operations": ["w"]},
            {"name": "sessions", "input": "ev", "operations": ["sess"]},
            {"name": "enriched", "input": "ev", "operations": ["aj"]},
        ]},
    }
    r = PipelineRunner(cfg)
    r.run()
    tumble = _collect(r.datasets["tumble"]).sort_by(
        [("uid", "ascending"), ("window_start", "ascending")])
    assert tumble["total"].to_pylist() == [3.0, 3.0, 4.0]
    sess = _collect(r.datasets["sessions"])
    # user 1 splits into two sessions (39-min gap); user 2 has one
    assert sess.num_rows == 3
    assert sorted(sess["n_events"].to_pylist()) == [1, 1, 2]
    aj = _collect(r.datasets["enriched"]).sort_by(
        [("uid", "ascending"), ("ts", "ascending")])
    assert aj["state"].to_pylist() == ["a", "a", "b", "c"]


def test_checkpoint_invalidated_by_upstream_edit(tmp_path, ray_session):
    """Checkpoint keys are LINEAGE hashes: editing an op in an earlier
    step (or the source dataset) must invalidate downstream checkpoints,
    not just the step whose own chain changed."""
    from docetl_ray.runner import PipelineRunner

    def cfg(bump: int):
        return {
            "datasets": {"docs": {"type": "memory",
                                  "data": [{"doc_id": i} for i in range(4)]}},
            "operations": [
                {"name": "a", "type": "code_map",
                 "code": f"def transform(doc):\n    return {{'x': doc['doc_id'] + {bump}}}\n"},
                {"name": "b", "type": "code_map",
                 "code": "def transform(doc):\n    return {'y': doc['x'] * 10}\n"},
            ],
            "pipeline": {"steps": [
                {"name": "s1", "input": "docs", "operations": ["a"]},
                {"name": "s2", "operations": ["b"]},
            ]},
            "checkpoint_dir": str(tmp_path / "ckpt"),
        }

    out1 = sorted(PipelineRunner(cfg(0)).run().take_all(),
                  key=lambda r: r["doc_id"])
    assert [r["y"] for r in out1] == [0, 10, 20, 30]
    # edit ONLY step 1's op: step 2's checkpoint must not be reused
    out2 = sorted(PipelineRunner(cfg(100)).run().take_all(),
                  key=lambda r: r["doc_id"])
    assert [r["y"] for r in out2] == [1000, 1010, 1020, 1030]
    # unchanged re-run still reuses both checkpoints (same lineage)
    dirs_before = sorted(p.name for p in (tmp_path / "ckpt" / "s2").iterdir())
    out3 = sorted(PipelineRunner(cfg(100)).run().take_all(),
                  key=lambda r: r["doc_id"])
    assert out3 == out2
    assert sorted(p.name for p in (tmp_path / "ckpt" / "s2").iterdir()) == dirs_before


def test_code_map_skip_all_batch_keeps_schema(ray_session):
    """An all-skipped (or empty) code_map batch must keep the input
    schema on its block instead of emitting a zero-column table."""
    import ray.data as rd

    from docetl_ray.runner import _apply_op

    ds = rd.from_items([{"doc_id": i, "v": i} for i in range(6)])
    out = _apply_op(ds, {
        "name": "boom", "type": "code_map", "on_error": "skip",
        "code": "def transform(doc):\n    raise ValueError('nope')\n",
    })
    # downstream op over the empty stream still sees the input columns
    out2 = _apply_op(out, {
        "name": "sel", "type": "code_map",
        "code": "def transform(doc):\n    return {'w': doc['v']}\n",
    })
    tbl = out2.take_all()
    assert tbl == []
    import pyarrow as pa

    sch = out.schema()
    assert set(sch.names) >= {"doc_id", "v"}
