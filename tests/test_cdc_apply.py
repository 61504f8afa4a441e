"""CDC apply-layer correctness: engine state vs pure-Python replay oracle,
idempotency (duplicate segment replay), exactly-once commit, resume,
schema evolution, tombstone propagation."""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from docetl_ray import synth
from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle
from docetl_ray.cdc.apply import lww_last_per_url, partial_apply


def _engine_state(table, include_tombstones=False) -> pa.Table:
    import ray

    ds = read_state(table, include_tombstones=include_tombstones)
    tables = [t for t in ray.get(ds.to_arrow_refs())]
    t = pa.concat_tables(tables, promote_options="permissive")
    return t.sort_by([("url", "ascending")])


def _assert_state_matches(engine: pa.Table, oracle: pa.Table):
    assert engine.num_rows == oracle.num_rows
    cols = sorted(set(oracle.column_names) & set(engine.column_names))
    for c in cols:
        assert engine[c].to_pylist() == oracle[c].to_pylist(), f"column {c} differs"


def test_lww_last_per_url_unit():
    t = pa.table(
        {
            "url": ["a", "a", "b", "a"],
            "warc_ts": pa.array([3, 1, 5, 3], pa.timestamp("us")),
            "lsn": [0, 9, 2, 1],
        }
    )
    w = lww_last_per_url(t)
    got = {r["url"]: (r["warc_ts"], r["lsn"]) for r in w.to_pylist()}
    # for url a: ts=3 beats ts=1; lsn 1 beats lsn 0 at equal ts
    assert got["a"][1] == 1 and got["b"][1] == 2


def test_partial_apply_collapses_hot_keys():
    ev = synth.events_table(0, 2000)
    out = partial_apply(ev, num_partitions=8)
    # winners are unique per url within the batch
    urls = out["url"].to_pylist()
    assert len(urls) == len(set(urls))
    assert "html" not in out.column_names and "op" not in out.column_names
    assert set(out.column_names) >= {"url", "warc_ts", "lsn", "text", "lang", "_deleted", "part"}


def test_apply_matches_replay_oracle(tmp_path):
    import ray.data as rd

    ev = synth.events_table(0, 3000)
    table = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    apply_events(table, rd.from_arrow(ev), epoch=0)

    oracle = replay_oracle(ev)
    engine = _engine_state(table)
    _assert_state_matches(engine, oracle)
    # byte-identical extracted text per url
    assert engine["text"].to_pylist() == oracle["text"].to_pylist()


def test_multi_epoch_and_out_of_order(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    seg1, seg2, seg3 = (
        synth.events_table(0, 4000),
        synth.events_table(4000, 4000),
        synth.events_table(8000, 4000),
    )
    for i, seg in enumerate((seg1, seg2, seg3)):
        apply_events(table, rd.from_arrow(seg), epoch=i)

    oracle = replay_oracle(pa.concat_tables([seg1, seg2, seg3]))
    _assert_state_matches(_engine_state(table), oracle)


def test_idempotent_duplicate_segment_replay(tmp_path):
    """Applying the same WAL tail twice (as a new epoch) leaves state unchanged."""
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    seg = synth.events_table(0, 2000)
    apply_events(table, rd.from_arrow(seg), epoch=0)
    before = _engine_state(table, include_tombstones=True)
    # duplicate replay of the tail of the segment, new epoch number
    tail = seg.slice(1500, 500)
    apply_events(table, rd.from_arrow(tail), epoch=1)
    after = _engine_state(table, include_tombstones=True)
    assert before.equals(after)


def test_same_epoch_reapply_is_noop(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    seg = synth.events_table(0, 1000)
    m1 = apply_events(table, rd.from_arrow(seg), epoch=0)
    m2 = apply_events(table, rd.from_arrow(seg), epoch=0)  # no-op
    assert m1 == m2
    assert LakeTable(table.root).committed_epochs() == [0]


def test_tombstones_suppress_late_older_events(tmp_path):
    """A late-arriving event older than an applied delete must not resurrect."""
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    ts = synth.BASE_TS_US
    delete = pa.table(
        {
            "lsn": pa.array([10], pa.int64()),
            "op": ["delete"],
            "url": ["https://x.example/"],
            "warc_ts": pa.array([ts + 100_000_000], pa.timestamp("us")),
            "html": pa.array([None], pa.binary()),
            "lang": pa.array([None], pa.string()),
        }
    )
    late_insert = pa.table(
        {
            "lsn": pa.array([5], pa.int64()),
            "op": ["insert"],
            "url": ["https://x.example/"],
            "warc_ts": pa.array([ts + 50_000_000], pa.timestamp("us")),
            "html": pa.array([b"<p>old</p>"], pa.binary()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    apply_events(table, rd.from_arrow(delete), epoch=0)
    apply_events(table, rd.from_arrow(late_insert), epoch=1)
    live = _engine_state(table)
    assert live.num_rows == 0
    dead = _engine_state(table, include_tombstones=True)
    assert dead.num_rows == 1 and dead["_deleted"].to_pylist() == [True]


def test_schema_evolution_column_add_and_widen(tmp_path):
    """v1 segment then v2 segment (adds fetch_status int32, content_length):
    merged state has unified schema; old rows show nulls."""
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    seg_v1 = synth.events_table(0, 1500, v2=False)
    seg_v2 = synth.events_table(1500, 1500, v2=True)
    apply_events(table, rd.from_arrow(seg_v1), epoch=0)
    apply_events(table, rd.from_arrow(seg_v2), epoch=1)

    engine = _engine_state(table, include_tombstones=True)
    assert "fetch_status" in engine.column_names
    assert "content_length" in engine.column_names

    oracle = replay_oracle(
        pa.concat_tables([seg_v1, seg_v2], promote_options="permissive"),
        include_tombstones=True,
    )
    _assert_state_matches(engine, oracle)
    # rows last-written by a v1 event have null evolved columns
    v1_rows = [r for r in engine.to_pylist() if r["lsn"] < 1500]
    assert v1_rows and all(r["fetch_status"] is None for r in v1_rows)


def test_manifest_lineage_and_atomic_commit(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    apply_events(table, rd.from_arrow(synth.events_table(0, 1000)), epoch=0)
    with open(table.manifest_path) as f:
        m = json.load(f)
    assert m["epochs"] == [0]
    for rec in m["partitions"].values():
        for p in rec["paths"]:
            assert os.path.exists(os.path.join(table.root, p))
        assert rec["rows"] >= rec["live_rows"] >= 0
        assert rec["applied_lsn_ranges"] and rec["checksum"]
    # applied ranges lie within the segment
    los = [r["applied_lsn_ranges"][0][0] for r in m["partitions"].values()]
    his = [r["applied_lsn_ranges"][0][1] for r in m["partitions"].values()]
    assert min(los) >= 0 and max(his) <= 999


def test_resume_from_manifest_fresh_handle(tmp_path):
    """A fresh LakeTable handle over an existing root resumes from the
    committed manifest (checkpoint resume)."""
    import ray.data as rd

    root = str(tmp_path / "lake")
    t1 = LakeTable(root, num_partitions=4)
    apply_events(t1, rd.from_arrow(synth.events_table(0, 1000)), epoch=0)

    t2 = LakeTable(root)  # num_partitions restored from manifest
    assert t2.manifest()["num_partitions"] == 4
    apply_events(t2, rd.from_arrow(synth.events_table(1000, 1000)), epoch=1)
    oracle = replay_oracle(synth.events_table(0, 2000))
    _assert_state_matches(_engine_state(t2), oracle)


def test_epoch_metrics_recorded(tmp_path):
    import ray.data as rd

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    m = apply_events(table, rd.from_arrow(synth.events_table(0, 500)), epoch=0)
    met = m["epoch_metrics"]["0"]
    assert met["mode"] == "merge" and met["partitions_touched"] == 4
    assert met["rows_written"] >= met["live_rows_written"] > 0
    assert met["wall_sec"] > 0


def test_resplit_preserves_state_and_reroutes(tmp_path):
    """Partition splitting: resplit 8 -> 16 keeps the exact state
    (tombstones included), updates the manifest atomically, and later
    epochs route by the new partition count."""
    from docetl_ray.cdc import resplit

    t = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    apply_events(t, synth.events_dataset(8_000, parallelism=4), epoch=0)
    before = _engine_state(t, include_tombstones=True)

    m = resplit(t, 16, tag="grow-16")
    assert m["num_partitions"] == 16 and t.num_partitions == 16
    assert "grow-16" in m["resplits"]
    after = _engine_state(t, include_tombstones=True)
    assert before.num_rows == after.num_rows
    for c in ("url", "lsn", "text", "_deleted"):
        assert before[c].to_pylist() == after[c].to_pylist()
    # every new partition holds only its own urls (resplit routes with
    # the v2 vectorized hash and upgrades the manifest)
    import numpy as np

    from docetl_ray.cdc.apply import url_partition

    assert t.partition_hash == "v2"
    for pid, paths in t.partition_map().items():
        for p in paths:
            import pyarrow.parquet as pq

            urls = pq.read_table(p, columns=["url"])["url"].to_pylist()
            parts = url_partition(np.array(urls, dtype=object), 16, version="v2")
            assert (parts == pid).all()

    # idempotent per tag
    m2 = resplit(t, 16, tag="grow-16")
    assert m2["resplits"].count("grow-16") == 1

    # a later epoch applies against the new layout and still matches the
    # full replay oracle
    import ray.data as rd

    apply_events(t, rd.from_arrow(synth.events_table(8_000, 4_000)), epoch=1)
    oracle = replay_oracle(synth.events_table(0, 12_000))
    final = _engine_state(t)
    _assert_state_matches(final, oracle)


def test_resplit_fresh_handle_sees_new_count(tmp_path):
    from docetl_ray.cdc import resplit

    t = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    apply_events(t, synth.events_dataset(2_000, parallelism=4), epoch=0)
    resplit(t, 8, tag="x")
    # a FRESH handle (constructor default differs) reads the manifest's count
    t2 = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    assert t2.manifest()["num_partitions"] == 8
    assert t2.num_partitions == 8


def test_resplit_crash_before_commit_is_invisible(tmp_path):
    """Files staged under resplits/<tag>/ without the manifest swap must
    not change the visible state (same two-phase contract as epochs)."""
    import os

    from docetl_ray.cdc import resplit

    t = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    apply_events(t, synth.events_dataset(3_000, parallelism=4), epoch=0)
    before = _engine_state(t, include_tombstones=True)

    # simulate a crashed resplit: directory full of partial files, no commit
    crash_dir = os.path.join(t.root, "resplits", "crashed-try")
    os.makedirs(crash_dir)
    with open(os.path.join(crash_dir, "part-00000.parquet"), "wb") as f:
        f.write(b"garbage not parquet")

    t2 = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    assert t2.num_partitions == 4
    assert "crashed-try" not in t2.manifest().get("resplits", [])
    after = _engine_state(t2, include_tombstones=True)
    assert before["url"].to_pylist() == after["url"].to_pylist()
    assert before["lsn"].to_pylist() == after["lsn"].to_pylist()

    # a retried resplit under a fresh tag succeeds regardless
    resplit(t2, 8, tag="retry")
    final = _engine_state(t2, include_tombstones=True)
    assert before["url"].to_pylist() == final["url"].to_pylist()


def _written_runs(root: str) -> list[str]:
    out = []
    for sub in ("epochs", "resplits", "compactions"):
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            out += [os.path.join(dirpath, n) for n in names if n.endswith(".parquet")]
    return sorted(out)


def _assert_url_strictly_ascending(path: str):
    import pyarrow.parquet as pq

    urls = pq.read_table(path, columns=["url"])["url"].combine_chunks()
    assert len(urls) > 0, path
    assert pc.all(pc.less(urls[:-1], urls[1:]), min_count=0).as_py(), path


def test_every_written_run_is_url_sorted(tmp_path):
    """Merge apply, delta apply, resplit and compaction (tiered and full)
    write their LWW output as-is: each file must still be strictly
    url-ascending — one row per url, in order — because reads (and a
    k-way merge of runs) rely on it."""
    import ray.data as rd

    from docetl_ray.cdc import compact, resplit

    merge = LakeTable(str(tmp_path / "merge"), num_partitions=4)
    for i in range(2):
        apply_events(merge, rd.from_arrow(synth.events_table(i * 3000, 3000)), epoch=i)
    resplit(merge, 8, tag="grow")

    delta = LakeTable(str(tmp_path / "delta"), num_partitions=4)
    for i in range(4):
        apply_events(delta, rd.from_arrow(synth.events_table(i * 1500, 1500)),
                     epoch=i, mode="delta", compact_after=None)
    compact(delta, tag="tiered", policy="tiered")
    apply_events(delta, rd.from_arrow(synth.events_table(6000, 1500)),
                 epoch=4, mode="delta", compact_after=None)
    compact(delta, tag="full")

    seen = {"epochs": 0, "resplits": 0, "compactions": 0}
    for root in (merge.root, delta.root):
        for path in _written_runs(root):
            _assert_url_strictly_ascending(path)
            seen[os.path.relpath(path, root).split(os.sep)[0]] += 1
    assert all(seen.values()), seen
    _assert_state_matches(_engine_state(delta),
                          replay_oracle(synth.events_table(0, 7500)))
