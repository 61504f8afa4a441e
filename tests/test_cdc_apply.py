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

    assert t.manifest()["partition_hash"] == "v2"
    for pid, paths in t.partition_map().items():
        for p in paths:
            import pyarrow.parquet as pq

            urls = pq.read_table(p, columns=["url"])["url"].to_pylist()
            parts = url_partition(np.array(urls, dtype=object), 16)
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


def test_tiered_fold_checksum_and_live_rows_contract(tmp_path, ray_session):
    """Tiered folds must record a non-null newest-level checksum (the
    same multi-level contract delta commits use — deterministic per fold
    schedule, so cross-run audits stay sound) and a live_rows upper
    bound, without scanning the kept base run's columns."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state
    from docetl_ray.cdc.apply import compact
    from docetl_ray.util import collect

    def build(root):
        table = LakeTable(root, num_partitions=2)
        apply_events(table, rd.from_arrow(synth.events_table(0, 2000)),
                     epoch=0, mode="delta", compact_after=None)
        for e in range(1, 3):
            apply_events(
                table, rd.from_arrow(synth.events_table(2000 + e * 40, 40)),
                epoch=e, mode="delta", compact_after=None)
        compact(table, tag="tier", policy="tiered")
        return table

    t1 = build(str(tmp_path / "lake1"))
    t2 = build(str(tmp_path / "lake2"))
    m1 = t1.manifest(refresh=True)["partitions"]
    m2 = t2.manifest(refresh=True)["partitions"]
    for pid, rec in m1.items():
        assert len(rec["paths"]) == 2, "expected a tiered [base, middle]"
        assert rec["checksum"], "tiered fold must not void the checksum"
        assert rec["checksum"] == m2[pid]["checksum"], \
            "identical histories+schedules must reproduce the checksum"
        assert rec["rows"] >= rec["live_rows"] >= 0
    live = collect(read_state(t1)).num_rows
    assert sum(r["live_rows"] for r in m1.values()) >= live, \
        "live_rows must upper-bound logical live rows"


def _checksum_oracle(t: pa.Table) -> str:
    """The state checksum as first written: a six-column pandas frame
    hashed by ``hash_pandas_object`` (categorize on), summed mod 2^64."""
    import hashlib

    import numpy as np
    import pandas as pd

    if t.num_rows == 0:
        return "0"
    df = pd.DataFrame(
        {
            "url": t["url"].to_pandas(),
            "lsn": t["lsn"].to_pandas(),
            "ts": t["warc_ts"].cast(pa.int64()).to_pandas(),
            "dead": t["_deleted"].cast(pa.int8()).to_pandas(),
            "tnull": pc.is_null(t["text"]).cast(pa.int8()).to_pandas(),
            "text": t["text"].to_pandas().fillna(""),
        }
    )
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    with np.errstate(over="ignore"):
        total = int(h.sum(dtype=np.uint64))
    return hashlib.md5(f"{t.num_rows}:{total}".encode()).hexdigest()


def _tiny_state(texts: list) -> pa.Table:
    n = len(texts)
    return pa.table(
        {
            "lsn": pa.array(range(7, 7 + n), pa.int64()),
            "url": [f"https://e.x/{i}" for i in range(n)],
            "warc_ts": pa.array([1_700_000_000_000_000 + i for i in range(n)],
                                pa.timestamp("us")),
            "lang": ["en"] * n,
            "text": pa.array(texts, pa.string()),
            "_deleted": [t is None for t in texts],
        }
    )


def test_state_checksum_matches_dataframe_formula(tmp_path):
    """``_state_checksum`` keeps the value of the original DataFrame
    formula on every state shape, so old manifests stay comparable."""
    import numpy as np
    import pyarrow.parquet as pq

    from docetl_ray.cdc.apply import _state_checksum, events_to_state

    rng = np.random.default_rng(12)
    ev = synth.events_table(4000, 6000)
    ev = ev.take(pa.array(rng.permutation(ev.num_rows)))
    state = lww_last_per_url(events_to_state(ev))
    assert pc.sum(state["_deleted"]).as_py() > 0

    # a live row with "" text next to a tombstone (null text)
    mixed = _tiny_state(["", None, "plain", "naïve café — 東京 🚀", ""])
    # the same rows with the null turned into "": only tnull tells them apart
    no_null = mixed.set_column(
        4, "text", pc.fill_null(mixed["text"], "")
    )

    path = str(tmp_path / "run.parquet")
    pq.write_table(state, path, row_group_size=1000)
    chunked = pq.read_table(path)
    assert chunked["text"].num_chunks > 1 and chunked["url"].num_chunks > 1

    cases = {
        "synth": state,
        "mixed": mixed,
        "no_null": no_null,
        "one_row": mixed.slice(3, 1),
        "empty": state.slice(0, 0),
        "chunked": chunked,
    }
    for name, t in cases.items():
        assert _state_checksum(t) == _checksum_oracle(t), name
    assert _state_checksum(cases["empty"]) == "0"
    assert _state_checksum(chunked) == _state_checksum(state)
    assert _state_checksum(mixed) != _state_checksum(no_null)
    # pinned: the DataFrame formula's value for this table, so the
    # kernel and its oracle cannot drift together
    assert _state_checksum(mixed) == "a748208c94c4d05f7df9552b2f06b667"


def _partial_apply_extract_first(batch: pa.Table, num_partitions: int,
                                 extract: bool) -> pa.Table:
    """``partial_apply`` as first written: state form for every event,
    then the per-batch LWW winners."""
    from docetl_ray.cdc.apply import _lww_with_ranges, events_to_state, url_partition

    state = events_to_state(batch, extract=extract)
    if state.num_rows == 0:
        return state.append_column("_lsn_lo", pa.array([], pa.int64())) \
                    .append_column("_lsn_hi", pa.array([], pa.int64())) \
                    .append_column("part", pa.array([], pa.int32()))
    w, lo, hi = _lww_with_ranges(state)
    part = url_partition(w["url"].to_numpy(zero_copy_only=False), num_partitions)
    return w.append_column("_lsn_lo", lo).append_column("_lsn_hi", hi) \
            .append_column("part", pa.array(part, pa.int32()))


@pytest.mark.parametrize("extract", [True, False])
def test_partial_apply_extracts_only_winners(monkeypatch, extract):
    """LWW before extraction gives the same table (schema, column order,
    values) as extraction before LWW, and the html->text kernel sees only
    the batch's winners."""
    import numpy as np

    from docetl_ray.cdc import apply as cdc_apply

    rng = np.random.default_rng(5)
    # lsn > 5000: hot urls, ~5% out-of-order timestamps and ~10% deletes
    ev = synth.events_table(5000, 5000)
    ts = ev["warc_ts"].cast(pa.int64()).to_numpy()
    assert (np.diff(ts) < 0).any()
    assert pc.sum(pc.equal(ev["op"], "delete")).as_py() > 0
    assert len(set(ev["url"].to_pylist())) < ev.num_rows
    ev = ev.take(pa.array(rng.permutation(ev.num_rows)))
    if not extract:
        # pre-extracted text travels as is; deletes still null it
        ev = ev.append_column(
            "text", pa.array([f"t{i}" for i in ev["lsn"].to_pylist()])
        )

    batches = (ev, ev.slice(0, 0))
    wants = [_partial_apply_extract_first(b, 8, extract) for b in batches]
    seen = []
    real = cdc_apply.extract_text_batch
    monkeypatch.setattr(cdc_apply, "extract_text_batch",
                        lambda b: seen.append(b.num_rows) or real(b))
    for batch, want in zip(batches, wants):
        seen.clear()
        got = partial_apply(batch, num_partitions=8, extract=extract)
        assert got.schema.equals(want.schema)
        assert got.column_names == want.column_names
        assert got.equals(want)
        assert seen == ([got.num_rows] if extract else [])
        assert got.num_rows < max(batch.num_rows, 1)


def test_atomic_write_parquet_plain_url_and_text(tmp_path):
    """State runs write url and text without a dictionary (both are unique
    per row); other columns (``lang``) keep it, and the file reads back
    equal."""
    import pyarrow.parquet as pq

    from docetl_ray.cdc.apply import _atomic_write_parquet, events_to_state

    state = lww_last_per_url(events_to_state(synth.events_table(0, 3000)))
    path = str(tmp_path / "part-00000.parquet")
    _atomic_write_parquet(state, path)
    assert os.listdir(tmp_path) == ["part-00000.parquet"]
    assert pq.read_table(path).equals(state)
    rg = pq.ParquetFile(path).metadata.row_group(0)
    enc = {rg.column(i).path_in_schema: rg.column(i).encodings
           for i in range(rg.num_columns)}
    for name, dictionary in (("url", False), ("text", False), ("lang", True)):
        assert any("DICTIONARY" in e for e in enc[name]) == dictionary, enc


def test_url_partition_v2_vectorized_matches_itself():
    """The routing hash is baked into committed manifests, so it is
    deterministic across calls and pinned to fixed values."""
    import numpy as np

    from docetl_ray.cdc.apply import url_partition

    urls = np.array([f"https://x.example/{i % 37}/{i}" for i in range(1000)], dtype=object)
    a = url_partition(urls, 16)
    b = url_partition(np.array(urls.tolist(), dtype=object), 16)
    assert (a == b).all()
    assert a.dtype == np.int32 and (a >= 0).all() and (a < 16).all()
    assert a[:8].tolist() == [2, 13, 15, 7, 2, 6, 11, 1]


def test_new_table_manifest_records_v2(tmp_path):
    t = LakeTable(str(tmp_path / "lake2"), num_partitions=4)
    apply_events(t, synth.events_dataset(500, parallelism=2), epoch=0)
    assert t.manifest(refresh=True)["partition_hash"] == "v2"


@pytest.mark.parametrize("stored", [None, "crc32"])
def test_manifest_without_v2_partition_hash_is_refused(tmp_path, stored):
    """Rows of a table whose manifest does not say "v2" were routed by
    another hash: opening it raises instead of misrouting new events."""
    root = str(tmp_path / "lake")
    apply_events(LakeTable(root, num_partitions=4),
                 synth.events_dataset(500, parallelism=2), epoch=0)
    path = os.path.join(root, "manifest.json")
    with open(path) as f:
        m = json.load(f)
    if stored is None:
        del m["partition_hash"]
    else:
        m["partition_hash"] = stored
    with open(path, "w") as f:
        json.dump(m, f)
    with pytest.raises(ValueError, match="partition_hash"):
        LakeTable(root).manifest()
