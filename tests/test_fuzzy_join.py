import numpy as np
import pyarrow as pa
import pytest


def _collect(ds):
    from docetl_ray.util import collect

    return collect(ds)


def _sides():
    import ray.data as rd

    left = pa.table(
        {
            "lid": [1, 2, 3],
            "name": [
                "international business machines corporation",
                "apache software foundation ray project",
                "acme widgets limited",
            ],
        }
    )
    right = pa.table(
        {
            "rid": [10, 11, 12, 13],
            "title": [
                "international business machines corp",
                "the apache software foundation ray projects",
                "zzz totally unrelated entity qqq",
                "international business machines corporation",
            ],
        }
    )
    return rd.from_arrow(left), rd.from_arrow(right)


def test_fuzzy_join_finds_near_matches():
    from docetl_ray.stages.fuzzy_join import fuzzy_join

    l, r = _sides()
    out = _collect(
        fuzzy_join(l, r, left_text="name", right_text="title",
                   left_id="lid", right_id="rid", threshold=0.5)
    )
    pairs = {(a, b) for a, b in zip(out["lid"].to_pylist(), out["rid"].to_pylist())}
    assert (1, 10) in pairs and (1, 13) in pairs
    assert (2, 11) in pairs
    assert not any(b == 12 for _, b in pairs)  # unrelated never matches


def test_fuzzy_join_limits_cap_matches():
    from docetl_ray.stages.fuzzy_join import fuzzy_join

    l, r = _sides()
    out = _collect(
        fuzzy_join(l, r, left_text="name", right_text="title",
                   left_id="lid", right_id="rid", threshold=0.5,
                   limits=(1, None))
    )
    lids = out["lid"].to_pylist()
    assert lids.count(1) == 1  # capped to best match
    # the kept match is the higher-jaccard one (exact duplicate rid=13)
    kept = {a: b for a, b in zip(lids, out["rid"].to_pylist())}
    assert kept[1] == 13


def _near_dup_sides():
    """100 left docs; right row j is a light mutation of left row j for
    j % 3 == 0 (34 true pairs at threshold 0.8), otherwise unrelated."""
    import ray.data as rd

    from docetl_ray import synth

    ltexts = [synth._distinct_text(i) for i in range(100)]
    rtexts = [
        ltexts[j] + " tail" if j % 3 == 0 else synth._distinct_text(1000 + j)
        for j in range(100)
    ]
    left = rd.from_arrow(pa.table(
        {"lid": pa.array(range(100), pa.int64()), "ltext": ltexts}))
    right = rd.from_arrow(pa.table(
        {"rid": pa.array(range(100, 200), pa.int64()), "rtext": rtexts}))
    return left, right


def _verified_pairs(left, right, threshold=0.8, **kw):
    from docetl_ray.stages.fuzzy_join import fuzzy_join

    out = _collect(fuzzy_join(
        left, right, left_text="ltext", right_text="rtext",
        left_id="lid", right_id="rid", threshold=threshold, **kw,
    ))
    assert out.schema.field("lid").type == pa.int64()
    assert out.schema.field("rid").type == pa.int64()
    return sorted(zip(out["lid"].to_pylist(), out["rid"].to_pylist(),
                      [round(j, 12) for j in out["jaccard"].to_pylist()]))


def test_fuzzy_join_paths_equivalent(monkeypatch):
    """The driver text verify and the dense keyed-shuffle-join verify
    return the same pairs, with and without per-side limits."""
    import ray.data as rd

    from docetl_ray import synth
    import docetl_ray.stages.dedup as dedup

    left, right = _near_dup_sides()
    far = rd.from_arrow(pa.table(
        {"rid": pa.array([500], pa.int64()),
         "rtext": [synth._distinct_text(5000)]}))
    limits = [(None, None), (1, None), (None, 2)]
    sparse = [_verified_pairs(left, right, limits=lim) for lim in limits]
    assert len(sparse[0]) == 34  # j in {0,3,...,99}
    monkeypatch.setattr(dedup, "_SPARSE_TEXT_PAIRS", 0)
    assert [_verified_pairs(left, right, limits=lim) for lim in limits] == sparse
    # zero-match case: an empty, correctly-typed pair set on both paths
    assert _verified_pairs(left, far) == []
    monkeypatch.undo()
    assert _verified_pairs(left, far) == []


def test_fuzzy_join_distributed_pair_dedup_matches_driver(monkeypatch):
    """Above ``_DRIVER_PAIRS`` raw candidates the pairs are deduplicated
    by a keyed exchange instead of on the driver; the verified pairs are
    the same, including when candidates exist but none verifies."""
    import docetl_ray.stages.dedup as dedup

    left, right = _near_dup_sides()
    driver = _verified_pairs(left, right)
    driver_none = _verified_pairs(left, right, threshold=0.999)
    assert len(driver) == 34 and driver_none == []
    monkeypatch.setattr(dedup, "_DRIVER_PAIRS", 0)
    assert _verified_pairs(left, right) == driver
    assert _verified_pairs(left, right, threshold=0.999) == []
    monkeypatch.setattr(dedup, "_SPARSE_TEXT_PAIRS", 0)
    assert _verified_pairs(left, right) == driver


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


def _emb_rows(ids, centers):
    """One row per id: its center plus small seeded noise, as float64 lists."""
    rng = np.random.RandomState(7)
    embs = [(c + rng.randn(len(c)) * 0.01).tolist() for c in centers]
    return pa.table({"id": pa.array(ids, pa.string()),
                     "emb": pa.array(embs, pa.list_(pa.float64()))})


def _two_clusters():
    rng = np.random.RandomState(3)
    return rng.randn(16), rng.randn(16)


def _candidate_phase_cases():
    """Per two-input candidate phase: (run(left table, right table) ->
    output table, left table, right table, the expected id pairs, the
    expected output schema), with string ids on both sides."""
    from docetl_ray.stages.fuzzy_join import embedding_blocked_join, fuzzy_join

    l_text = pa.table({"lid": ["L1", "L2", "L3"], "name": [
        "international business machines corporation",
        "apache software foundation ray project",
        "acme widgets limited"]})
    r_text = pa.table({"rid": ["R10", "R11", "R12", "R13"], "title": [
        "international business machines corp",
        "the apache software foundation ray projects",
        "zzz totally unrelated entity qqq",
        "international business machines corporation"]})

    def run_fuzzy(lt, rt):
        import ray.data as rd

        return _collect(fuzzy_join(
            rd.from_arrow(lt), rd.from_arrow(rt), left_text="name",
            right_text="title", left_id="lid", right_id="rid", threshold=0.5))

    a, b = _two_clusters()
    l_emb = _emb_rows(["L1", "L2", "L3"], [a, a, b]).rename_columns(["lid", "emb"])
    r_emb = _emb_rows(["R1", "R2"], [a, b]).rename_columns(["rid", "remb"])

    def run_emb(lt, rt):
        import ray.data as rd

        return _collect(embedding_blocked_join(
            rd.from_arrow(lt), rd.from_arrow(rt), left_emb="emb",
            right_emb="remb", left_id="lid", right_id="rid",
            blocking_threshold=0.9))

    return [
        (run_fuzzy, l_text, r_text, {("L1", "R10"), ("L1", "R13"), ("L2", "R11")},
         pa.schema([("lid", pa.string()), ("rid", pa.string()),
                    ("jaccard", pa.float64())])),
        (run_emb, l_emb, r_emb, {("L1", "R1"), ("L2", "R1"), ("L3", "R2")},
         pa.schema([("lid", pa.string()), ("rid", pa.string())])),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["fuzzy_join", "embedding_blocked_join"])
def test_two_input_candidate_phase_string_ids_and_empty_sides(case):
    """Each candidate phase co-partitions its two inputs through the
    exchange's two-input form: string ids pair up, and an empty left or
    right side gives an empty output typed like a non-empty one."""
    run, lt, rt, want, schema = _candidate_phase_cases()[case]
    out = run(lt, rt)
    assert out.schema == schema
    assert set(zip(out["lid"].to_pylist(), out["rid"].to_pylist())) == want
    for empty_l, empty_r in ((lt.slice(0, 0), rt), (lt, rt.slice(0, 0))):
        out = run(empty_l, empty_r)
        assert out.num_rows == 0 and out.schema == schema


def test_cross_pairs_caps_a_degenerate_bucket(monkeypatch):
    """fuzzy_join's reduce drops duplicate (bucket, id) rows per side,
    pairs only the buckets both sides hold, and clamps a bucket whose
    cross product exceeds ``_BUCKET_CAP``^2 to the first ``_BUCKET_CAP``
    ids of each side in id order."""
    import docetl_ray.stages.fuzzy_join as fj

    def side(buckets, ids):
        return pa.table({"bucket": pa.array(buckets, pa.int64()),
                         "rid": pa.array(ids, pa.string()),
                         "_part": pa.array([0] * len(ids), pa.int32())})

    l = side([7, 7, 7, 7, 9], ["a3", "a1", "a2", "a1", "a9"])
    r = side([7, 7, 7, 9, 11], ["b2", "b1", "b3", "b9", "b0"])
    monkeypatch.setattr(fj, "_BUCKET_CAP", 2)  # bucket 7: 3 x 3 > 2^2
    out = fj._cross_pairs(l, r)
    assert out.schema == pa.schema([("id_a", pa.string()), ("id_b", pa.string())])
    assert sorted(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist())) == [
        ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"), ("a9", "b9")]
    monkeypatch.setattr(fj, "_BUCKET_CAP", 3)  # 3 x 3 is not over 3^2
    assert fj._cross_pairs(l, r).num_rows == 10
    # a side with no rows: typed and empty; one without columns (no
    # block upstream had any): no columns
    assert fj._cross_pairs(l.slice(0, 0), r).schema == out.schema
    assert fj._cross_pairs(l, r.slice(0, 0)).num_rows == 0
    assert fj._cross_pairs(pa.table({}), r).num_columns == 0


def test_embedding_self_join_with_equal_id_names():
    """A self-join whose two id columns share one name keeps both: the
    right ids come back as ``{id}_right`` (fuzzy_join's rule), and
    llm_equijoin reads them by the same rule, so it compares the blocked
    pairs and not each row with itself."""
    import ray.data as rd

    from docetl_ray.stages.fuzzy_join import embedding_blocked_join, llm_equijoin

    a, b = _two_clusters()
    t = _emb_rows(["x", "y", "z"], [a, a, b])
    t = t.append_column("name", pa.array(["ex", "why", "zed"]))
    ds = rd.from_arrow(t)
    pairs = _collect(embedding_blocked_join(
        ds, ds, left_emb="emb", right_emb="emb", left_id="id", right_id="id",
        blocking_threshold=0.9))
    assert pairs.column_names == ["id", "id_right"]
    got = set(zip(pairs["id"].to_pylist(), pairs["id_right"].to_pylist()))
    assert got == {("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"), ("z", "z")}

    class DistinctIds:
        model = "scripted"

        def complete(self, prompt, schema):
            import re

            ids = re.findall(r"'id': '(\w)'", prompt)
            return {"is_match": len(ids) == 2 and ids[0] != ids[1]}

    out = _collect(llm_equijoin(
        ds, ds, rd.from_arrow(pairs), left_id="id", right_id="id",
        comparison_prompt="{{ input1 }} vs {{ input2 }}",
        client_factory=DistinctIds,
    ))
    assert sorted(zip(out["id_left"].to_pylist(), out["id_right"].to_pylist(),
                      out["name_right"].to_pylist())) == [
        ("x", "y", "why"), ("y", "x", "ex")]


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


def test_condition_blocked_pairs(ray_session):
    import ray.data as rd

    from docetl_ray.stages.fuzzy_join import condition_blocked_pairs

    left = rd.from_items([{"lid": i, "k": i % 3} for i in range(6)])
    right = rd.from_items([{"rid": 10 + j, "rk": j} for j in range(3)])
    pairs = _collect(condition_blocked_pairs(
        left, right, ['left["k"] == right["rk"]'],
        left_id="lid", right_id="rid",
    ))
    got = sorted(zip(pairs["lid"].to_pylist(), pairs["rid"].to_pylist()))
    assert got == [(0, 10), (1, 11), (2, 12), (3, 10), (4, 11), (5, 12)]


def test_condition_blocked_pairs_same_id_name_raises(ray_session):
    import ray.data as rd

    from docetl_ray.stages.fuzzy_join import condition_blocked_pairs

    left = rd.from_items([{"id": 1}])
    with pytest.raises(ValueError, match="distinct"):
        condition_blocked_pairs(left, left, ["True"], left_id="id",
                                right_id="id")
