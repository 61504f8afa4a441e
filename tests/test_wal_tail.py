"""WAL tailer: segment discovery, in-order apply, crash-resume, and
ignoring uncommitted segments."""

import os

import pyarrow as pa

from docetl_ray import synth
from docetl_ray.cdc import (LakeTable, discover_segments, read_state,
                            replay_oracle, tail_once, write_segment)


def _state(table):
    from docetl_ray.util import collect

    return collect(read_state(table)).sort_by([("url", "ascending")])


def test_tail_applies_segments_in_order(tmp_path):
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    segs = [synth.events_table(i * 1000, 1000) for i in range(3)]
    for i, seg in enumerate(segs):
        write_segment(wal, i, seg)
    # an uncommitted (staged) segment must be invisible
    os.makedirs(os.path.join(wal, "segment-0000099"))
    assert [s for s, _ in discover_segments(wal)] == [0, 1, 2]

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    applied = tail_once(table, wal)
    assert applied == [0, 1, 2]
    oracle = replay_oracle(pa.concat_tables(segs))
    eng = _state(table)
    assert eng["lsn"].to_pylist() == oracle["lsn"].to_pylist()
    assert eng["text"].to_pylist() == oracle["text"].to_pylist()


def test_tail_resume_skips_applied(tmp_path):
    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    write_segment(wal, 0, synth.events_table(0, 800))
    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    assert tail_once(table, wal) == [0]
    # "crash": fresh handle; new segment appears
    write_segment(wal, 1, synth.events_table(800, 800))
    t2 = LakeTable(str(tmp_path / "lake"))
    assert tail_once(t2, wal) == [1]  # segment 0 skipped via manifest
    oracle = replay_oracle(synth.events_table(0, 1600))
    assert _state(t2)["lsn"].to_pylist() == oracle["lsn"].to_pylist()


def test_tail_once_empty_root(tmp_path):
    table = LakeTable(str(tmp_path / "lake"))
    assert tail_once(table, str(tmp_path / "missing")) == []


def test_tail_reruns_an_epoch_a_concurrent_compaction_overtook(tmp_path, monkeypatch):
    """A second handle commits a compaction between the tailer's read and
    its epoch commit: the commit is refused, ``tail_once`` re-reads and
    re-runs the epoch once, and the state equals the replay oracle."""
    from docetl_ray.cdc import compact

    wal = str(tmp_path / "wal")
    os.makedirs(wal)
    segs = [synth.events_table(i * 1000, 1000) for i in range(3)]
    for i, seg in enumerate(segs[:2]):
        write_segment(wal, i, seg)
    root = str(tmp_path / "lake")
    table = LakeTable(root, num_partitions=4)
    assert tail_once(table, wal) == [0, 1]
    write_segment(wal, 2, segs[2])
    real, calls = table.commit, []

    def racing(epoch, records, metrics=None):
        calls.append(epoch)
        if len(calls) == 1:
            compact(LakeTable(root), tag="racer", policy="full")
        return real(epoch, records, metrics=metrics)

    monkeypatch.setattr(table, "commit", racing)
    assert tail_once(table, wal) == [2]
    assert calls == [2, 2]
    m = LakeTable(root).manifest()
    assert m["epochs"] == [0, 1, 2] and m["compactions"] == ["racer"]
    oracle = replay_oracle(pa.concat_tables(segs))
    eng = _state(table)
    assert eng["lsn"].to_pylist() == oracle["lsn"].to_pylist()
    assert eng["text"].to_pylist() == oracle["text"].to_pylist()
