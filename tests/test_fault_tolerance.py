"""Fault tolerance + determinism: task retries during the apply must not
break exactly-once; independent runs produce identical state checksums;
tombstone GC respects the retention watermark."""

import os

import pyarrow as pa
import pytest

from docetl_ray import synth
from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
from docetl_ray.cdc import apply as apply_mod
from docetl_ray.cdc.apply import _ApplyPartition, compact


def _state(table, include_tombstones=False):
    from docetl_ray.util import collect

    return collect(read_state(table, include_tombstones=include_tombstones)).sort_by(
        [("url", "ascending")]
    )


@pytest.mark.parametrize("num_partitions", [4, 16])
def test_apply_survives_injected_task_failures(tmp_path, monkeypatch, num_partitions):
    """Every partition's first attempt fails.  At 16 partitions on the
    session's 4 CPUs the exchange packs 4 partitions per reduce task,
    and a packed task retries as a unit, so it needs one retry per
    partition it holds."""
    import ray.data as rd

    from docetl_ray.testing import PoisonedApplier

    poison = tmp_path / "poison"
    poison.mkdir()

    def patched(ref, root, epoch, mode="merge"):
        return PoisonedApplier(ref, root, epoch, mode, poison_dir=str(poison))

    monkeypatch.setattr(apply_mod, "_ApplyPartition", patched)
    table = LakeTable(str(tmp_path / "lake"), num_partitions=num_partitions)
    ev = synth.events_table(0, 2000)
    apply_events(table, rd.from_arrow(ev), epoch=0)

    # every partition failed once and was retried
    assert len(list(poison.iterdir())) == num_partitions
    oracle = replay_oracle(ev)
    engine = _state(table)
    assert engine["lsn"].to_pylist() == oracle["lsn"].to_pylist()
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()


def test_independent_runs_have_identical_checksums(tmp_path):
    """Two lakes built separately from the same WAL commit identical
    per-partition logical checksums (cross-run byte-determinism)."""
    import ray.data as rd

    ev = synth.events_table(0, 3000)
    sums = []
    for name in ("a", "b"):
        t = LakeTable(str(tmp_path / name), num_partitions=4)
        m = apply_events(t, rd.from_arrow(ev), epoch=0)
        sums.append({pid: r["checksum"] for pid, r in m["partitions"].items()})
    assert sums[0] == sums[1]


def test_compact_tombstone_gc_watermark(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    for i in range(2):
        apply_events(table, rd.from_arrow(synth.events_table(i * 1500, 1500)),
                     epoch=i, mode="delta")
    with_t = _state(table, include_tombstones=True)
    dead_lsns = [r["lsn"] for r in with_t.to_pylist() if r["_deleted"]]
    assert dead_lsns
    watermark = sorted(dead_lsns)[len(dead_lsns) // 2]  # GC about half

    compact(table, tag="gc", drop_tombstones_below_lsn=watermark)
    after = _state(table, include_tombstones=True)
    remaining_dead = [r["lsn"] for r in after.to_pylist() if r["_deleted"]]
    assert all(l >= watermark for l in remaining_dead)
    assert len(remaining_dead) < len(dead_lsns)
    # live state unaffected by GC
    live_before = [r for r in with_t.to_pylist() if not r["_deleted"]]
    live_after = [r for r in after.to_pylist() if not r["_deleted"]]
    assert [r["url"] for r in live_before] == [r["url"] for r in live_after]


def test_crash_mid_compaction_leaves_state_intact(tmp_path, ray_session):
    """A compaction that died after writing part files but BEFORE the
    manifest swap must be invisible to readers; re-running the same tag
    over the garbage commits cleanly (atomic per-file writes overwrite),
    and a second run of a committed tag is a no-op."""
    import json

    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    for i in range(3):
        apply_events(table, rd.from_arrow(synth.events_table(i * 2000, 2000)),
                     epoch=i, mode="delta")
    assert any(len(p) > 1 for p in table.partition_map().values())
    before = _state(table)
    manifest_before = json.dumps(table.manifest(), sort_keys=True)

    # simulate the crash: orphan garbage part files under the tag dir
    cdir = os.path.join(table.root, "compactions", "t1")
    os.makedirs(cdir)
    for pid in range(4):
        with open(os.path.join(cdir, f"part-{pid:05d}.parquet"), "wb") as f:
            f.write(b"not parquet at all")

    assert _state(table).equals(before)          # readers route by manifest
    assert json.dumps(table.manifest(refresh=True),
                      sort_keys=True) == manifest_before

    # retry with the SAME tag: must overwrite the garbage and commit
    compact(table, tag="t1", policy="tiered")
    assert "t1" in table.manifest()["compactions"]
    assert _state(table).equals(before)
    assert all(len(p) <= 2 for p in table.partition_map().values())

    # committed tag re-run: pure no-op (no file or manifest churn)
    mtimes = {p: os.path.getmtime(os.path.join(table.root, p))
              for paths in table.partition_map().values() for p in paths}
    compact(table, tag="t1", policy="tiered")
    assert {p: os.path.getmtime(os.path.join(table.root, p))
            for paths in table.partition_map().values()
            for p in paths} == mtimes

    # the table still ingests + folds correctly after the recovery
    apply_events(table, rd.from_arrow(synth.events_table(6000, 2000)),
                 epoch=3, mode="delta")
    oracle = replay_oracle(synth.events_table(0, 8000))
    assert _state(table)["text"].to_pylist() == oracle["text"].to_pylist()

    # the DANGEROUS replay: re-running a committed tag after new deltas
    # stacked must not touch the live compactions/t1/ files (without the
    # early guard it would overwrite them with a fresh merge while the
    # manifest still records the old checksum)
    mtimes = {p: os.path.getmtime(os.path.join(table.root, p))
              for paths in table.partition_map().values() for p in paths}
    compact(table, tag="t1", policy="tiered")
    assert {p: os.path.getmtime(os.path.join(table.root, p))
            for paths in table.partition_map().values()
            for p in paths} == mtimes
    assert _state(table)["text"].to_pylist() == oracle["text"].to_pylist()
    # a NEW tag still folds the stacked delta
    compact(table, tag="t2", policy="tiered")
    assert _state(table)["text"].to_pylist() == oracle["text"].to_pylist()


def test_gc_watermark_rewrites_single_level_partitions(tmp_path,
                                                       ray_session):
    """A tombstone-GC watermark must fold partitions that are ALREADY at
    one level — their below-watermark tombstones would otherwise be
    retained forever with no signal."""
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    apply_events(table, rd.from_arrow(synth.events_table(0, 3000)),
                 epoch=0, mode="merge")  # merge mode -> 1 level/partition
    assert all(len(p) == 1 for p in table.partition_map().values())
    with_t = _state(table, include_tombstones=True)
    dead = [r["lsn"] for r in with_t.to_pylist() if r["_deleted"]]
    assert dead
    watermark = max(dead) + 1            # GC every tombstone

    compact(table, tag="gc1", drop_tombstones_below_lsn=watermark)
    after = _state(table, include_tombstones=True)
    assert not any(r["_deleted"] for r in after.to_pylist())
    live_before = [r["url"] for r in with_t.to_pylist() if not r["_deleted"]]
    live_after = [r["url"] for r in after.to_pylist() if not r["_deleted"]]
    assert live_before == live_after
