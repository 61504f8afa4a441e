import pyarrow as pa


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
