"""Round-3 additions: manifest-versioned partition hash, degenerate
LSH-bucket guards, distributed simhash components, dendrogram
collapse/path parity, float hash_codes hardening."""

import numpy as np
import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# partition hash v2 + cross-version resume
# ---------------------------------------------------------------------------

def test_partition_hash_cross_version_resume(tmp_path):
    import ray

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
    from docetl_ray.cdc.apply import resplit

    root = str(tmp_path / "lake")
    t = LakeTable(root, num_partitions=8)
    # simulate a table created before manifests recorded a routing hash:
    # strip the key -> reader must default to crc32
    m = t.manifest()
    m.pop("partition_hash")
    t._write_manifest(m)
    assert t.partition_hash == "crc32"

    apply_events(t, synth.events_dataset(3000, parallelism=4), epoch=0)
    assert t.partition_hash == "crc32"  # commit preserves the old hash
    apply_events(
        t, synth.events_dataset(3000, parallelism=4), epoch=1
    )  # resume on the old hash

    # resplit rewrites every partition -> upgrades the manifest to v2
    resplit(t, 16, tag="upgrade")
    assert t.partition_hash == "v2"
    assert t.num_partitions == 16

    apply_events(t, synth.events_dataset(5000, parallelism=4), epoch=2)
    eng = pa.concat_tables(
        ray.get(read_state(t).to_arrow_refs()), promote_options="permissive"
    ).sort_by([("url", "ascending")])
    oracle = replay_oracle(synth.events_table(0, 5000))
    assert eng["url"].to_pylist() == oracle["url"].to_pylist()
    assert eng["text"].to_pylist() == oracle["text"].to_pylist()


def test_url_partition_v2_vectorized_matches_itself():
    from docetl_ray.cdc.apply import url_partition

    urls = np.array([f"https://x.example/{i % 37}/{i}" for i in range(1000)], dtype=object)
    a = url_partition(urls, 16)
    b = url_partition(urls, 16, version="v2")
    assert (a == b).all()
    assert a.dtype == np.int32 and (a >= 0).all() and (a < 16).all()
    # crc32 path still available for pre-v2 tables
    c = url_partition(urls, 16, version="crc32")
    assert c.dtype == np.int32 and (c >= 0).all() and (c < 16).all()


def test_new_table_manifest_records_v2(tmp_path):
    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events

    t = LakeTable(str(tmp_path / "lake2"), num_partitions=4)
    apply_events(t, synth.events_dataset(500, parallelism=2), epoch=0)
    assert t.manifest(refresh=True)["partition_hash"] == "v2"


# ---------------------------------------------------------------------------
# degenerate LSH buckets stay bounded (and correct for identical docs)
# ---------------------------------------------------------------------------

def _identical_docs(n):
    import ray.data as rd

    text = "the same boilerplate paragraph repeated verbatim across the corpus " * 5
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array([text] * n)})
    )


def test_minhash_degenerate_bucket_bounded():
    from docetl_ray.stages.dedup import minhash_dedup

    n = 4000  # uncapped this is n^2 x bands ~ 256M transient pairs; capped ~n*w*bands
    deduped, cmap = minhash_dedup(_identical_docs(n), "text", "doc_id", threshold=0.8)
    ids = sorted(r["doc_id"] for r in deduped.take_all())
    assert ids == [0]  # one survivor, the min id — chain pairs keep connectivity
    assert all(v == 0 for v in cmap.values())


def test_simhash_degenerate_bucket_bounded():
    from docetl_ray.stages.dedup import simhash_near_dedup

    n = 4000
    out, cmap = simhash_near_dedup(_identical_docs(n), "text", "doc_id", max_hamming=3)
    t = pa.concat_tables(
        [pa.Table.from_pylist(out.take_all())], promote_options="permissive"
    )
    assert set(t["canonical_id"].to_pylist()) == {0}


def test_bucket_pair_indices_small_unchanged():
    from docetl_ray.stages.dedup import _bucket_pair_indices

    starts = np.array([0, 3])
    counts = np.array([3, 2])
    xi, yi, capped = _bucket_pair_indices(starts, counts)
    assert capped == 0
    # full cross products: 9 + 4 index pairs
    assert len(xi) == 13 and len(yi) == 13


def test_bucket_pair_indices_capped_chain():
    from docetl_ray.stages.dedup import _bucket_pair_indices

    starts = np.array([0])
    counts = np.array([2000])
    xi, yi, capped = _bucket_pair_indices(starts, counts, cap=512, window=4)
    assert capped == 1
    # n*w - w(w+1)/2 pairs, all strictly increasing positions
    assert len(xi) == 2000 * 4 - 10
    assert (xi < yi).all()


# ---------------------------------------------------------------------------
# simhash distributed components == driver components
# ---------------------------------------------------------------------------

def test_simhash_near_dedup_distributed_matches_driver():
    import ray.data as rd

    from docetl_ray.stages.dedup import simhash_near_dedup
    from docetl_ray.stages.util_ray import collect_small

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    rows = []
    for i in range(60):
        fam = i % 6
        words = (base + f"family{fam} " * 3).split()
        if i % 2:
            words[5] = f"tweak{fam}"
        rows.append({"doc_id": i, "text": " ".join(words)})
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "text": t["text"]}),
        batch_format="pyarrow",
    )
    out_b, _ = simhash_near_dedup(ds, "text", "doc_id", max_hamming=3)
    out_d, _ = simhash_near_dedup(ds, "text", "doc_id", max_hamming=3, distributed=True)
    tb = collect_small(out_b).select(["doc_id", "canonical_id"]).sort_by(
        [("doc_id", "ascending")]
    )
    td = collect_small(out_d).select(["doc_id", "canonical_id"]).sort_by(
        [("doc_id", "ascending")]
    )
    assert tb.cast(td.schema).equals(td)


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


def test_rank_comparison_qurk(ray_session):
    import ray.data as rd

    from docetl_ray.stages.rank import rank_comparison_qurk

    # single Arrow block: QuRK/calibrated ranking is order-sensitive by
    # contract (the reference materializes the given list order), so the
    # test pins the input order explicitly
    ds = rd.from_arrow(pa.table({
        "rid": pa.array(range(8), pa.int64()),
        "quality": pa.array(range(8), pa.int64()),
    }))

    class Oracle:
        """Ranks each batch by the quality field descending."""

        model = "oracle"

        def complete(self, prompt, schema):
            import re

            # lines like "[j] rid: X\nquality: Y"
            entries = re.findall(r"\[(\d+)\] rid: (\d+)\nquality: (\d+)", prompt)
            order = sorted(entries, key=lambda e: -int(e[2]))
            return {"ranking": [int(e[0]) for e in order]}

    out = rank_comparison_qurk(
        ds, criteria="best quality", input_keys=["rid", "quality"],
        batch_size=4, num_batches=20, client_factory=Oracle,
    )
    ranked = sorted(out.to_pylist(), key=lambda r: r["_rank"])
    # enough deterministic batches -> overall order recovers quality desc
    assert [r["rid"] for r in ranked][:3] == [7, 6, 5]
    assert ranked[0]["_rank"] == 1


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


def test_embedding_blocked_join_limit_comparisons(ray_session):
    import ray.data as rd

    from docetl_ray.stages.fuzzy_join import embedding_blocked_join
    from docetl_ray.stages.util_ray import collect_small

    # two tight cross-side clusters + noise; cap to 2 pairs
    rng = np.random.RandomState(3)
    base1 = rng.randn(64)
    base2 = rng.randn(64)
    lrows, rrows = [], []
    for i in range(4):
        lrows.append({"lid": i, "emb": (base1 + rng.randn(64) * 0.01).tolist()})
        rrows.append({"rid": 100 + i, "remb": (base1 + rng.randn(64) * 0.01).tolist()})
    lrows.append({"lid": 50, "emb": (base2 + rng.randn(64) * 0.01).tolist()})
    rrows.append({"rid": 150, "remb": (base2 + rng.randn(64) * 0.01).tolist()})
    left = rd.from_items(lrows).map_batches(
        lambda t: pa.table({"lid": t["lid"],
                            "emb": pa.array(t["emb"].to_pylist(),
                                            pa.list_(pa.float64()))}),
        batch_format="pyarrow")
    right = rd.from_items(rrows).map_batches(
        lambda t: pa.table({"rid": t["rid"],
                            "remb": pa.array(t["remb"].to_pylist(),
                                             pa.list_(pa.float64()))}),
        batch_format="pyarrow")
    full = collect_small(embedding_blocked_join(
        left, right, left_emb="emb", right_emb="remb",
        left_id="lid", right_id="rid", blocking_threshold=0.9))
    assert full.num_rows >= 17  # 4x4 cluster + 1 pair (minus any probe misses)
    capped = collect_small(embedding_blocked_join(
        left, right, left_emb="emb", right_emb="remb",
        left_id="lid", right_id="rid", blocking_threshold=0.9,
        limit_comparisons=3))
    assert capped.num_rows == 3
    # stratified round-robin: no stratum gets a 2nd pair before every
    # stratum got its 1st — the 3 capped pairs span 3 distinct lids
    assert len(set(capped["lid"].to_pylist())) == 3


def test_rank_embedding_initial_ordering(ray_session):
    import ray.data as rd

    from docetl_ray.stages.rank import rank

    rng = np.random.RandomState(5)
    q = rng.randn(16)
    rows = []
    for i in range(12):
        # doc i points increasingly away from the query direction
        v = q + rng.randn(16) * (0.1 + i * 0.5)
        rows.append({"rid": i, "emb": v.tolist()})
    ds = rd.from_items(rows).map_batches(
        lambda t: pa.table({"rid": t["rid"],
                            "emb": pa.array(t["emb"].to_pylist(),
                                            pa.list_(pa.float64()))}),
        batch_format="pyarrow")

    class NoRefine:
        model = "none"

        def complete(self, prompt, schema):
            return {"top_indices": []}  # refinement keeps the initial order

    out = rank(
        ds, criteria="closest to query", input_keys=["rid"], k=5,
        initial_ordering_method="embedding", emb_col="emb",
        criteria_embedding=q.tolist(), id_col="rid", client_factory=NoRefine,
    )
    got = [r["rid"] for r in out.take_all()]
    assert len(got) == 5
    assert got[0] == 0  # the tightest doc ranks first


def test_rank_calibrated_embedding(ray_session):
    import ray.data as rd

    from docetl_ray.stages.rank import rank_calibrated_embedding

    rng = np.random.RandomState(9)
    good = rng.randn(16)
    bad = -good
    embs = []
    for i in range(10):
        base = good if i < 5 else bad
        embs.append((base + rng.randn(16) * 0.05).tolist())
    # single Arrow block: input order pinned (see test_rank_comparison_qurk)
    ds = rd.from_arrow(pa.table({
        "rid": pa.array(range(10), pa.int64()),
        "quality": pa.array([10 - i for i in range(10)], pa.int64()),
        "emb": pa.array(embs, pa.list_(pa.float64())),
    }))

    class Oracle:
        model = "oracle"

        def complete(self, prompt, schema):
            import re

            entries = re.findall(r"\[(\d+)\] rid: (\d+)\nquality: (\d+)", prompt)
            order = sorted(entries, key=lambda e: -int(e[2]))
            return {"ranking": [int(e[0]) for e in order]}

    out = rank_calibrated_embedding(
        ds, criteria="best quality", input_keys=["rid", "quality"],
        emb_col="emb", sample_size=10, batch_size=4, qurk_num_batches=40,
        client_factory=Oracle,
    )
    ranked = sorted(out.to_pylist(), key=lambda r: r["_rank"])
    # the good-cluster docs dominate the top: win-count ranking can swap
    # adjacent docs (appearance counts differ across the fixed batches —
    # inherent QuRK estimator noise, same as the reference with its
    # seeded random batches), so assert dominance not exact order
    top5 = {r["rid"] for r in ranked[:5]}
    assert len(top5 & {0, 1, 2, 3, 4}) >= 4
    assert ranked[0]["rid"] in {0, 1, 2, 3, 4} and ranked[0]["_rank"] == 1


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


# ---------------------------------------------------------------------------
# zip_with_index + full-dataset rank (two-pass block-offset scan)
# ---------------------------------------------------------------------------

def test_zip_with_index_dataset_order(ray_session):
    import ray.data as rd
    from docetl_ray.stages.util_ray import collect_small, zip_with_index

    vals = list(range(1000))
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    # sort descending, then index: _idx must equal the sorted position
    out = collect_small(
        zip_with_index(ds.sort("v", descending=True), "_idx", start=1)
    ).sort_by([("_idx", "ascending")])
    assert out["_idx"].to_pylist() == list(range(1, 1001))
    assert out["v"].to_pylist() == sorted(vals, reverse=True)


def test_rank_return_all_full_dataset(ray_session):
    import ray.data as rd
    from docetl_ray.stages.rank import rank
    from docetl_ray.stages.util_ray import collect_small

    n = 200
    t = pa.table({
        "id": pa.array(list(range(n)), pa.int64()),
        "text": [f"doc {i % 13}" for i in range(n)],
    })

    def score(row):
        return float(row["id"] % 41)

    kw = dict(criteria="score order", input_keys=["text"], direction="desc",
              k=10, initial_ordering_method="score", score_fn=score,
              id_col="id", rerank_call_budget=4)
    full = collect_small(rank(rd.from_arrow(t), return_all=True, **kw))
    assert full.num_rows == n
    ranks = sorted(full["_rank"].to_pylist())
    assert ranks == list(range(1, n + 1))
    assert "_rating" not in full.column_names

    # prefix agrees with the driver-only path; tail keeps sorted order
    topk = collect_small(rank(rd.from_arrow(t), **kw)).sort_by(
        [("_rank", "ascending")])
    full_sorted = full.sort_by([("_rank", "ascending")])
    assert full_sorted["id"].to_pylist()[:10] == topk["id"].to_pylist()
    tail_ids = full_sorted["id"].to_pylist()[10:]
    tail_scores = [i % 41 for i in tail_ids]
    # descending by score with ascending id tiebreak
    assert tail_scores == sorted(tail_scores, reverse=True) or all(
        (tail_scores[j] > tail_scores[j + 1])
        or (tail_scores[j] == tail_scores[j + 1]
            and tail_ids[j] < tail_ids[j + 1])
        for j in range(len(tail_ids) - 1)
    )
