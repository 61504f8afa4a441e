"""LSM/delta-mode CDC: delta epochs + merge-on-read + compaction must be
state-equivalent to merge mode and to the replay oracle."""

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from docetl_ray import synth
from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
from docetl_ray.cdc.apply import compact


def _state(table, include_tombstones=False) -> pa.Table:
    from docetl_ray.util import collect

    return collect(read_state(table, include_tombstones=include_tombstones)).sort_by(
        [("url", "ascending")]
    )


def _check_vs_oracle(table, events):
    oracle = replay_oracle(events)
    engine = _state(table)
    assert engine.num_rows == oracle.num_rows
    for c in ("url", "lsn", "text"):
        assert engine[c].to_pylist() == oracle[c].to_pylist(), c


def test_delta_mode_matches_oracle(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    segs = [synth.events_table(i * 1500, 1500) for i in range(3)]
    for i, seg in enumerate(segs):
        apply_events(table, rd.from_arrow(seg), epoch=i, mode="delta")
    # levels actually stacked
    assert any(len(p) > 1 for p in table.partition_map().values())
    _check_vs_oracle(table, pa.concat_tables(segs))


def test_delta_then_compact_preserves_state(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    segs = [synth.events_table(i * 1000, 1000) for i in range(3)]
    for i, seg in enumerate(segs):
        apply_events(table, rd.from_arrow(seg), epoch=i, mode="delta")
    before = _state(table, include_tombstones=True)
    compact(table, tag="t1")
    assert all(len(p) == 1 for p in table.partition_map().values())
    after = _state(table, include_tombstones=True)
    assert before.equals(after)
    # tombstones retained through compaction
    assert any(after["_deleted"].to_pylist())
    # compaction idempotent per tag
    m1 = compact(table, tag="t1")
    assert m1["compactions"] == ["t1"]
    _check_vs_oracle(table, pa.concat_tables(segs))


def test_delta_auto_compaction(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    for i in range(4):
        apply_events(table, rd.from_arrow(synth.events_table(i * 500, 500)),
                     epoch=i, mode="delta", compact_after=2)
    assert all(len(p) <= 3 for p in table.partition_map().values())
    _check_vs_oracle(table, synth.events_table(0, 2000))


def test_mixed_merge_and_delta_epochs(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    apply_events(table, rd.from_arrow(synth.events_table(0, 1000)), epoch=0, mode="merge")
    apply_events(table, rd.from_arrow(synth.events_table(1000, 1000)), epoch=1, mode="delta")
    apply_events(table, rd.from_arrow(synth.events_table(2000, 1000)), epoch=2, mode="merge")
    _check_vs_oracle(table, synth.events_table(0, 3000))


def test_delta_tombstone_suppresses_in_read_merge(tmp_path):
    """Delete in a later level must beat a live row in an earlier level."""
    import ray.data as rd

    ts = synth.BASE_TS_US
    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    ins = pa.table(
        {
            "lsn": pa.array([1], pa.int64()), "op": ["insert"],
            "url": ["https://x.example/"],
            "warc_ts": pa.array([ts], pa.timestamp("us")),
            "html": pa.array([b"<p>v1</p>"], pa.binary()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    dele = pa.table(
        {
            "lsn": pa.array([2], pa.int64()), "op": ["delete"],
            "url": ["https://x.example/"],
            "warc_ts": pa.array([ts + 10], pa.timestamp("us")),
            "html": pa.array([None], pa.binary()),
            "lang": pa.array([None], pa.string()),
        }
    )
    apply_events(table, rd.from_arrow(ins), epoch=0, mode="delta")
    apply_events(table, rd.from_arrow(dele), epoch=1, mode="delta")
    assert _state(table).num_rows == 0
    dead = _state(table, include_tombstones=True)
    assert dead.num_rows == 1 and dead["_deleted"].to_pylist() == [True]


def test_delta_manifest_live_rows_upper_bounds_state(tmp_path):
    """Append (delta) commits must ACCUMULATE live_rows across levels:
    the delta's own live count alone under-reports a partition whose
    base still holds live rows, breaking the documented upper-bound
    lineage contract."""
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    segs = [synth.events_table(i * 1500, 1500) for i in range(3)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0)  # merge base
    for i in (1, 2):
        apply_events(table, rd.from_arrow(segs[i]), epoch=i, mode="delta")
    manifest_live = sum(
        p["live_rows"] for p in table.manifest()["partitions"].values()
    )
    state_live = _state(table).num_rows
    assert manifest_live >= state_live, (manifest_live, state_live)
    # per-partition physical sanity: rows >= live_rows >= 0
    for rec in table.manifest()["partitions"].values():
        assert rec["rows"] >= rec["live_rows"] >= 0


def test_delta_auto_compaction_default_bounds_levels(tmp_path, ray_session):
    """apply_events defaults to compact_after="auto": level count stays
    <= AUTO_COMPACT_LEVELS + 1 across many delta epochs without any
    manual compact() call, and state still matches the replay oracle
    (r4 verdict item 6 — read-side level-merge cost stays bounded)."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, replay_oracle, read_state
    from docetl_ray.cdc.apply import AUTO_COMPACT_LEVELS
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    segs = [synth.events_table(i * 400, 400) for i in range(10)]
    for i, seg in enumerate(segs):
        apply_events(table, rd.from_arrow(seg), epoch=i, mode="delta")
        assert all(
            len(p) <= AUTO_COMPACT_LEVELS + 1
            for p in table.partition_map().values()
        ), f"epoch {i} exceeded the auto-compaction level bound"

    oracle = replay_oracle(pa.concat_tables(segs))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine.num_rows == oracle.num_rows
    for c in ("url", "lsn", "text"):
        assert engine[c].to_pylist() == oracle[c].to_pylist(), c


def test_tiered_compaction_keeps_base_and_bounds_write_cost(
        tmp_path, ray_session):
    """policy="tiered" (the auto-trigger default) folds only the delta
    levels, leaving the partition's largest run untouched — a trigger
    must not rewrite O(state) — while the state stays oracle-exact;
    once the folded middle run rivals the base, the fold goes full."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
    from docetl_ray.cdc.apply import compact
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    # big bootstrap epoch = the base run, then small deltas
    segs = [synth.events_table(0, 3000)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0, mode="delta",
                 compact_after=None)
    base_paths = {pid: p[0] for pid, p in table.partition_map().items()}
    for e in range(1, 4):
        segs.append(synth.events_table(3000 + (e - 1) * 50, 50))
        apply_events(table, rd.from_arrow(segs[-1]), epoch=e, mode="delta",
                     compact_after=None)
    assert all(len(p) == 4 for p in table.partition_map().values())

    compact(table, tag="tier1", policy="tiered")
    pmap = table.partition_map()
    for pid, paths in pmap.items():
        assert len(paths) == 2, "tiered fold must leave [base, middle]"
        assert paths[0] == base_paths[pid], \
            "tiered fold rewrote the base run"
    oracle = replay_oracle(pa.concat_tables(segs))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()

    # deltas that rival the base force the full fold
    segs.append(synth.events_table(4000, 3000))
    apply_events(table, rd.from_arrow(segs[-1]), epoch=9, mode="delta",
                 compact_after=None)
    compact(table, tag="tier2", policy="tiered")
    pmap2 = table.partition_map()
    assert all(len(p) == 1 for p in pmap2.values()), \
        "rivaling middle+deltas must fold fully"
    oracle2 = replay_oracle(pa.concat_tables(segs))
    engine2 = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine2["text"].to_pylist() == oracle2["text"].to_pylist()


def test_tombstone_gc_watermark_forces_full_fold(tmp_path, ray_session):
    """drop_tombstones_below_lsn with policy="tiered" must fold every
    level: GC'ing a tombstone in a partial fold would resurrect an
    older live row in an untouched level."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events
    from docetl_ray.cdc.apply import compact

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    apply_events(table, rd.from_arrow(synth.events_table(0, 2000)),
                 epoch=0, mode="delta", compact_after=None)
    apply_events(table, rd.from_arrow(synth.events_table(2000, 100)),
                 epoch=1, mode="delta", compact_after=None)
    compact(table, tag="gc", policy="tiered",
            drop_tombstones_below_lsn=10**12)
    assert all(len(p) == 1 for p in table.partition_map().values())


def test_tiered_fold_across_schema_evolution(tmp_path, ray_session):
    """A tiered fold after column-add (v2) deltas leaves the v1 base run
    untouched on disk: the folded middle run carries the evolved schema
    while the kept base still has the old one, and merge-on-read must
    unify the two layouts back to the oracle state (rows last written by
    a v1 event read as null in the added columns)."""
    import os

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
    from docetl_ray.cdc.apply import compact
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    segs = [synth.events_table(0, 3000, v2=False)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0, mode="delta",
                 compact_after=None)
    base_paths = {pid: p[0] for pid, p in table.partition_map().items()}
    for e in range(1, 4):
        segs.append(synth.events_table(3000 + (e - 1) * 80, 80, v2=True))
        apply_events(table, rd.from_arrow(segs[-1]), epoch=e, mode="delta",
                     compact_after=None)

    compact(table, tag="tier-evo", policy="tiered")
    pmap = table.partition_map()
    for pid, paths in pmap.items():
        assert len(paths) == 2 and paths[0] == base_paths[pid]
        base_schema = pq.read_schema(paths[0])
        mid_schema = pq.read_schema(paths[1])
        assert "fetch_status" not in base_schema.names, \
            "tiered fold must not rewrite the v1 base run"
        assert "fetch_status" in mid_schema.names

    oracle = replay_oracle(
        pa.concat_tables(segs, promote_options="permissive"))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()
    assert "fetch_status" in engine.column_names
    eng_rows = engine.sort_by([("url", "ascending")]).to_pylist()
    v1_last = [r for r in eng_rows if r["lsn"] < 3000]
    assert v1_last and all(r["fetch_status"] is None for r in v1_last)
    v2_vals = {r["fetch_status"] for r in eng_rows if r["lsn"] >= 3000}
    assert v2_vals == {200}

    # one more v2 delta on top of [v1-base, v2-middle] still reads exact
    segs.append(synth.events_table(3240, 80, v2=True))
    apply_events(table, rd.from_arrow(segs[-1]), epoch=9, mode="delta",
                 compact_after=None)
    oracle2 = replay_oracle(
        pa.concat_tables(segs, promote_options="permissive"))
    engine2 = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine2["text"].to_pylist() == oracle2["text"].to_pylist()


def test_tiered_auto_fold_soak_and_full_transition(tmp_path, ray_session):
    """Soak the auto trigger against a big base + many small deltas: the
    trigger must fold tiered (base untouched, [base, middle] layout)
    while the folded middle is small, switch to a FULL fold once the
    middle+deltas rival half the base, keep levels bounded throughout,
    and stay oracle-exact at every step."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
    from docetl_ray.cdc.apply import AUTO_COMPACT_LEVELS
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    segs = [synth.events_table(0, 4000)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0, mode="delta")
    saw_tiered = saw_full = False
    for e in range(1, 17):
        segs.append(synth.events_table(4000 + (e - 1) * 150, 150))
        apply_events(table, rd.from_arrow(segs[-1]), epoch=e, mode="delta")
        level_counts = {len(p) for p in table.partition_map().values()}
        assert max(level_counts) <= AUTO_COMPACT_LEVELS + 1, \
            f"epoch {e}: levels {level_counts} exceed the bound"
        if level_counts == {2}:
            saw_tiered = True
        if level_counts == {1} and e > 1:
            saw_full = True
    assert saw_tiered, "soak never exercised a tiered (partial) fold"
    assert saw_full, \
        "middle+deltas rivaling the base never escalated to a full fold"

    oracle = replay_oracle(pa.concat_tables(segs))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()


def test_resplit_over_tiered_mixed_schema_layout(tmp_path, ray_session):
    """resplit must read through a tiered [v1-base, v2-middle, deltas]
    layout: the rewritten partitions carry the unified schema, collapse
    to one level each, and the state stays oracle-exact."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import (
        LakeTable, apply_events, read_state, replay_oracle, resplit,
    )
    from docetl_ray.cdc.apply import compact
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    segs = [synth.events_table(0, 3000, v2=False)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0, mode="delta",
                 compact_after=None)
    for e in range(1, 3):
        segs.append(synth.events_table(3000 + (e - 1) * 80, 80, v2=True))
        apply_events(table, rd.from_arrow(segs[-1]), epoch=e, mode="delta",
                     compact_after=None)
    compact(table, tag="pre-resplit", policy="tiered")
    segs.append(synth.events_table(3160, 80, v2=True))
    apply_events(table, rd.from_arrow(segs[-1]), epoch=3, mode="delta",
                 compact_after=None)
    assert all(len(p) == 3 for p in table.partition_map().values())

    m = resplit(table, 4, tag="grow-4")
    assert table.num_partitions == 4
    assert all(len(p) == 1 for p in table.partition_map().values())
    oracle = replay_oracle(
        pa.concat_tables(segs, promote_options="permissive"))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()
    assert "fetch_status" in engine.column_names


def test_tiered_fold_never_keeps_a_newer_level(tmp_path, ray_session):
    """A bulk delta that OUTGROWS the base must escalate to a full fold
    — keeping the (larger, newer) delta would break the manifest's
    oldest->newest path order and the newest-level checksum contract
    (table.py module docstring); the partial fold fires only while the
    oldest level dominates."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
    from docetl_ray.cdc.apply import compact
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    # tiny bootstrap base, then a bulk delta far larger than it
    segs = [synth.events_table(0, 100)]
    apply_events(table, rd.from_arrow(segs[0]), epoch=0, mode="delta",
                 compact_after=None)
    segs.append(synth.events_table(100, 5000))
    apply_events(table, rd.from_arrow(segs[-1]), epoch=1, mode="delta",
                 compact_after=None)
    compact(table, tag="bulk", policy="tiered")
    assert all(len(p) == 1 for p in table.partition_map().values()), \
        "a delta outgrowing the base must trigger a FULL fold"
    oracle = replay_oracle(pa.concat_tables(segs))
    engine = collect(read_state(table)).sort_by([("url", "ascending")])
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()
