"""Round-3 additions: dendrogram collapse/path parity, float hash_codes
hardening."""

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------------------
# dendrogram collapse + leaf path parity (reference cluster.py:176-282)
# ---------------------------------------------------------------------------

def _toy_matrix():
    # two tight pairs + one far singleton -> unambiguous merge order
    return np.array(
        [[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0], [20.0, 0.0]]
    )


def test_build_dendrogram_structure():
    from docetl_ray.stages.cluster import agglomerative_merges, build_dendrogram

    m = _toy_matrix()
    merges = agglomerative_merges(m)
    assert len(merges) == 4
    # first two merges are the tight pairs, at distance 0.1 each
    assert {(merges[0][0], merges[0][1]), (merges[1][0], merges[1][1])} == {
        (0, 1), (2, 3)
    }
    tree = build_dendrogram(m)
    assert "children" in tree and "distance" in tree

    def leaves(t):
        if "children" in t:
            return [x for c in t["children"] for x in leaves(c)]
        return [t["index"]]

    assert sorted(leaves(tree)) == [0, 1, 2, 3, 4]


def test_collapse_tree_quantile():
    from docetl_ray.stages.cluster import build_dendrogram, collapse_tree

    tree = build_dendrogram(_toy_matrix())
    # collapse=0.99 -> threshold near the max gap: shallow nodes dissolve
    collapsed = collapse_tree(tree, 0.99)

    def max_children(t):
        if "children" not in t:
            return 0
        return max([len(t["children"])] + [max_children(c) for c in t["children"]])

    assert max_children(collapsed) > 2  # multi-way node proves a collapse happened
    # collapse=None is the identity
    assert collapse_tree(tree, None) == tree


def test_cluster_dendrogram_paths(ray_session):
    import ray.data as rd

    from docetl_ray.stages.cluster import cluster_dendrogram

    m = _toy_matrix()
    ds = rd.from_arrow(
        pa.table({"vid": pa.array(range(5), pa.int64()),
                  "emb": pa.array([list(r) for r in m], pa.list_(pa.float64()))})
    )
    out = cluster_dendrogram(ds, "emb", "vid", output_key="clusters")
    rows = {r["vid"]: r["clusters"] for r in out.take_all()}
    assert set(rows) == set(range(5))
    # every leaf path ends at the root label (path is nearest-first)
    root_labels = {p[-1] for p in rows.values()}
    assert len(root_labels) == 1 and root_labels.pop().startswith("cluster_n5_")
    # the tight pair shares its nearest ancestor; the far singleton's
    # nearest ancestor is the root
    assert rows[0][0] == rows[1][0] and rows[0][0].startswith("cluster_n2_")
    assert rows[4][0].startswith("cluster_n5_")


def test_cluster_threshold_matches_bruteforce(ray_session):
    import ray.data as rd

    from docetl_ray.stages.cluster import cluster_threshold

    m = _toy_matrix()
    ds = rd.from_arrow(
        pa.table({"vid": pa.array(range(5), pa.int64()),
                  "emb": pa.array([list(r) for r in m], pa.list_(pa.float64()))})
    )
    out = cluster_threshold(ds, "emb", "vid", distance_threshold=0.5)
    got = {r["vid"]: r["cluster_id"] for r in out.take_all()}
    assert got == {0: 0, 1: 0, 2: 2, 3: 2, 4: 4}


# ---------------------------------------------------------------------------
# hash_codes floating-point hardening (ADVICE)
# ---------------------------------------------------------------------------

def test_hash_codes_float32_and_signed_zero():
    from docetl_ray.stages.util_ray import hash_codes

    t32 = pa.table({"k": pa.array([1.5, -0.0, 0.0, None], pa.float32())})
    t64 = pa.table({"k": pa.array([1.5, -0.0, 0.0, None], pa.float64())})
    h32 = hash_codes(t32, "k")  # float32 used to raise on .view(uint64)
    h64 = hash_codes(t64, "k")
    assert (h32 == h64).all()
    assert h32[1] == h32[2]  # -0.0 and 0.0 hash identically
    assert h32[3] != h32[2]  # null is distinct from zero


# ---------------------------------------------------------------------------
# llm_resolve + rank comparison-QuRK (pluggable-client parity)
# ---------------------------------------------------------------------------

def test_llm_resolve_pairwise_and_resolution(ray_session):
    import json

    import ray.data as rd

    from docetl_ray.stages.resolve import llm_resolve
    from docetl_ray.stages.util_ray import collect_small

    rows = [
        {"eid": 1, "blk": "a", "name": "Acme Corp"},
        {"eid": 2, "blk": "a", "name": "ACME corp."},
        {"eid": 3, "blk": "a", "name": "Globex"},
        {"eid": 4, "blk": "b", "name": "Initech"},
    ]
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({k: t[k] for k in ("eid", "blk", "name")}),
        batch_format="pyarrow",
    )

    class Scripted:
        """Matches iff both names start with 'acme' (case-insensitive);
        resolution emits a canonical name."""

        model = "scripted"

        def complete(self, prompt, schema):
            if "is_match" in schema:
                import re

                names = re.findall(r"'name': '([^']+)'", prompt)
                ok = len(names) == 2 and all(
                    n.lower().startswith("acme") for n in names
                )
                return {"is_match": ok}
            return {"name": "Acme Corporation"}

    out = llm_resolve(
        ds,
        blocking_col="blk",
        id_col="eid",
        comparison_prompt="match? {{ input1 }} vs {{ input2 }}",
        resolution_prompt="canonical of {{ inputs }}",
        output_schema={"name": "str"},
        client_factory=Scripted,
        observability=True,
        op_name="res1",
    )
    t = collect_small(out)
    by_id = {r["eid"]: r for r in t.to_pylist()}
    assert by_id[1]["_canonical"] == 1 and by_id[2]["_canonical"] == 1
    assert by_id[3]["_canonical"] == 3 and by_id[4]["_canonical"] == 4
    # cluster rows got the resolved name; pre-resolve values preserved
    assert by_id[1]["name"] == "Acme Corporation"
    assert by_id[2]["name"] == "Acme Corporation"
    assert json.loads(by_id[2]["_kv_pairs_preresolve_res1"]) == {"name": "ACME corp."}
    assert "resolution_prompt" in json.loads(by_id[1]["_observability_res1"])
    # singletons untouched
    assert by_id[3]["name"] == "Globex"
    assert json.loads(by_id[3]["_kv_pairs_preresolve_res1"]) == {}


def test_llm_resolve_limit_comparisons(ray_session):
    import ray.data as rd

    from docetl_ray.stages.resolve import llm_resolve
    from docetl_ray.stages.util_ray import collect_small

    rows = [{"eid": i, "blk": "x", "name": f"n{i}"} for i in range(6)]
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({k: t[k] for k in ("eid", "blk", "name")}),
        batch_format="pyarrow",
    )
    calls = {"n": 0}

    class Counting:
        model = "counting"

        def complete(self, prompt, schema):
            if "is_match" in schema:
                calls["n"] += 1
            return {"is_match": False}

    out = llm_resolve(
        ds, blocking_col="blk", id_col="eid",
        comparison_prompt="{{ input1 }} {{ input2 }}",
        client_factory=Counting, limit_comparisons=4,
    )
    t = collect_small(out)
    assert t.num_rows == 6
    # per-task client counts: the cap bounds comparisons per block
    # (the client is constructed inside the Ray task, so assert via the
    # output instead: all singletons -> canonical == own id)
    assert all(r["_canonical"] == r["eid"] for r in t.to_pylist())


def test_llm_reduce_observability(ray_session):
    import json

    import ray.data as rd

    from docetl_ray.stages.llm import llm_reduce
    from docetl_ray.stages.util_ray import collect_small

    ds = rd.from_items(
        [{"g": "a", "v": 1}, {"g": "a", "v": 2}, {"g": "b", "v": 3}]
    ).map_batches(
        lambda t: pa.table({"g": t["g"], "v": t["v"]}), batch_format="pyarrow"
    )
    out = llm_reduce(
        ds, "g", "summarize {{ inputs }}", {"summary": "str"},
        observability=True, op_name="red1",
    )
    t = collect_small(out)
    for r in t.to_pylist():
        obs = json.loads(r["_observability_red1"])
        assert "summarize" in obs["prompt"]
        assert obs["model"] == "fake-deterministic"


def test_safe_eval_no_builtins():
    import pytest as _pytest

    from docetl_ray.stages.llm import _safe_eval

    assert _safe_eval("len(output['x']) > 1", {"output": {"x": "ab"}})
    with _pytest.raises(Exception):
        _safe_eval("__import__('os').getpid()", {"output": {}})


def test_runner_dispatch_round3_surfaces(ray_session):
    """_apply_op routes cluster threshold/dendrogram, llm resolve, and
    comparison-QuRK rank configs to the new implementations."""
    import ray.data as rd

    from docetl_ray.runner import _apply_op
    from docetl_ray.stages.util_ray import collect_small

    emb = rd.from_arrow(pa.table({
        "vid": pa.array(range(4), pa.int64()),
        "e": pa.array([[0.0, 0.0], [0.05, 0.0], [9.0, 0.0], [9.05, 0.0]],
                      pa.list_(pa.float64())),
    }))
    out = collect_small(_apply_op(emb, {
        "type": "cluster", "method": "threshold", "embedding_key": "e",
        "id_key": "vid", "distance_threshold": 0.5,
    }))
    got = {r["vid"]: r["cluster_id"] for r in out.to_pylist()}
    assert got == {0: 0, 1: 0, 2: 2, 3: 2}

    out2 = collect_small(_apply_op(emb, {
        "type": "cluster", "embedding_key": "e", "id_key": "vid",
        "collapse": 0.99, "output_key": "paths",
    }))
    assert all(isinstance(r["paths"], list) and r["paths"]
               for r in out2.to_pylist())

    docs = rd.from_arrow(pa.table({
        "eid": pa.array([1, 2, 3], pa.int64()),
        "blk": pa.array(["a", "a", "a"]),
        "name": pa.array(["x", "y", "z"]),
    }))
    out3 = collect_small(_apply_op(docs, {
        "type": "resolve", "blocking_key": "blk", "id_key": "eid",
        "comparison_prompt": "{{ input1 }} vs {{ input2 }}",
    }))
    assert "_canonical" in out3.column_names and out3.num_rows == 3

    out4 = collect_small(_apply_op(docs, {
        "type": "rank", "rank_method": "comparison_qurk",
        "prompt": "best", "input_keys": ["name"], "batch_size": 3,
    }))
    assert sorted(out4["_rank"].to_pylist()) == [1, 2, 3]


def test_llm_equijoin_compare_merge_limits(ray_session):
    import ray.data as rd

    from docetl_ray.stages.fuzzy_join import llm_equijoin
    from docetl_ray.stages.util_ray import collect_small

    left = rd.from_arrow(pa.table({
        "lid": pa.array([1, 2], pa.int64()),
        "name": pa.array(["acme inc", "globex"]),
    }))
    right = rd.from_arrow(pa.table({
        "rid": pa.array([10, 11, 12], pa.int64()),
        "name": pa.array(["acme incorporated", "acme", "initech"]),
    }))
    pairs = rd.from_arrow(pa.table({
        "lid": pa.array([1, 1, 2], pa.int64()),
        "rid": pa.array([10, 11, 12], pa.int64()),
    }))

    class Scripted:
        model = "scripted"

        def complete(self, prompt, schema):
            import re

            names = re.findall(r"'name': '([^']+)'", prompt)
            return {"is_match": len(names) == 2
                    and all(n.startswith("acme") for n in names)}

    out = collect_small(llm_equijoin(
        left, right, pairs, left_id="lid", right_id="rid",
        comparison_prompt="{{ input1 }} vs {{ input2 }}",
        client_factory=Scripted,
    ))
    # both acme pairs match; shared key "name" gets _left/_right suffixes
    assert out.num_rows == 2
    assert {"lid", "rid", "name_left", "name_right"} <= set(out.column_names)
    assert set(out["rid"].to_pylist()) == {10, 11}

    capped = collect_small(llm_equijoin(
        left, right, pairs, left_id="lid", right_id="rid",
        comparison_prompt="{{ input1 }} vs {{ input2 }}",
        client_factory=Scripted, limits=(1, None),
    ))
    # left limit 1: lid=1 keeps only its first match in (lid, rid) order
    assert capped.num_rows == 1 and capped["rid"].to_pylist() == [10]


# ---------------------------------------------------------------------------
# gather reference-parity rendering (gather.py:113-327)
# ---------------------------------------------------------------------------

def test_gather_reference_sections_and_skips(ray_session):
    import ray.data as rd
    from docetl_ray.stages.unnest_split_gather import gather_reference
    from docetl_ray.stages.util_ray import collect_small

    cont = [f"content-{i}" for i in range(1, 6)]
    t = pa.table({
        "doc": ["d"] * 5,
        "num": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": cont,
        "summ": [f"sum-{i}" for i in range(1, 6)],
    })
    out = collect_small(gather_reference(
        rd.from_arrow(t), "text", "doc", "num",
        peripheral_chunks={
            "previous": {"head": {"count": 1}, "tail": {"count": 1}},
            "next": {"head": {"count": 1}},
        },
    )).sort_by([("num", "ascending")])
    rendered = out["text_rendered"].to_pylist()
    # main chunk 3: previous = chunks 1,2 (head 1 + tail 1, no skip);
    # next = chunk 4 shown, chunk 5 skipped
    expected3 = "\n".join([
        "--- Previous Context ---",
        "[Chunk 1]", "content-1",
        "[Chunk 2]", "content-2",
        "--- End Previous Context ---\n",
        "--- Begin Main Chunk ---", "content-3", "--- End Main Chunk ---",
        "\n--- Next Context ---",
        "[Chunk 4]", "content-4",
        f"[... {len('content-5')} characters skipped ...]",
        "--- End Next Context ---",
    ])
    assert rendered[2] == expected3
    # main chunk 5: previous = 1 (head), skip 2..3, 4 (tail)
    skipped = len("content-2") + len("content-3")
    assert f"[... {skipped} characters skipped ...]" in rendered[4]
    assert "[Chunk 1]" in rendered[4] and "[Chunk 4]" in rendered[4]
    assert "content-2" not in rendered[4].split("--- Begin Main")[0].replace(
        f"[... {skipped} characters skipped ...]", "")


def test_gather_reference_middle_summary_and_bare(ray_session):
    import ray.data as rd
    from docetl_ray.stages.unnest_split_gather import gather_reference
    from docetl_ray.stages.util_ray import collect_small

    t = pa.table({
        "doc": ["d"] * 4,
        "num": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [f"c{i}" for i in range(1, 5)],
        "summ": [f"s{i}" for i in range(1, 5)],
    })
    out = collect_small(gather_reference(
        rd.from_arrow(t), "text", "doc", "num",
        peripheral_chunks={
            "previous": {"head": {"count": 1},
                         "middle": {"content_key": "summ"}},
        },
    )).sort_by([("num", "ascending")])
    r4 = out["text_rendered"].to_pylist()[3]
    # chunks 2,3 fall in the middle section -> summary key + suffix
    assert "[Chunk 2 (Summary)]" in r4 and "s2" in r4
    assert "[Chunk 3 (Summary)]" in r4 and "s3" in r4
    assert "characters skipped" not in r4

    # no peripheral config at all -> bare content (gather.py:141-143)
    bare = collect_small(gather_reference(
        rd.from_arrow(t), "text", "doc", "num")).sort_by([("num", "ascending")])
    assert bare["text_rendered"].to_pylist() == ["c1", "c2", "c3", "c4"]


def test_gather_reference_hierarchy_headers(ray_session):
    import ray.data as rd
    from docetl_ray.stages.unnest_split_gather import gather_reference
    from docetl_ray.stages.util_ray import collect_small

    hdr_t = pa.list_(pa.struct([("header", pa.string()), ("level", pa.int64())]))
    t = pa.table({
        "doc": ["d"] * 3,
        "num": pa.array([1, 2, 3], pa.int64()),
        "text": ["intro", "body", "deep"],
        "headers": pa.array(
            [[{"header": "Title", "level": 1}],
             [{"header": "Section A", "level": 2}],
             [{"header": "Sub B", "level": 3}]],
            hdr_t),
    })
    out = collect_small(gather_reference(
        rd.from_arrow(t), "text", "doc", "num",
        peripheral_chunks={"previous": {"head": {"count": 2}}},
        doc_header_key="headers",
    )).sort_by([("num", "ascending")])
    rendered = out["text_rendered"].to_pylist()
    # chunk 3 owns a level-3 header -> ancestors (levels 1,2) render
    assert "_Current Section:_ # Title > ## Section A" in rendered[2]
    # chunk 1 owns the top-level header -> nothing above it to show
    assert "_Current Section:_" not in rendered[0]


def test_runner_gather_reference_dispatch(ray_session):
    import ray.data as rd
    from docetl_ray.runner import _apply_op
    from docetl_ray.stages.util_ray import collect_small

    t = pa.table({
        "doc": ["d"] * 3,
        "num": pa.array([1, 2, 3], pa.int64()),
        "text": ["a", "b", "c"],
    })
    out = collect_small(_apply_op(rd.from_arrow(t), {
        "type": "gather", "content_key": "text", "doc_id_key": "doc",
        "order_key": "num",
        "peripheral_chunks": {"previous": {"head": {"count": 1}}},
        "main_chunk_start": "<<<", "main_chunk_end": ">>>",
    })).sort_by([("num", "ascending")])
    r2 = out["text_rendered"].to_pylist()[1]
    assert "<<<" in r2 and ">>>" in r2 and "[Chunk 1]" in r2
