"""LSM/delta-mode CDC: delta epochs + merge-on-read + compaction must be
state-equivalent to merge mode and to the replay oracle."""

import pyarrow as pa

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
