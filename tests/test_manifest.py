"""The CDC stores' one commit protocol (``cdc/manifest.py``): crash
points, fsync order, and refusal of a commit that another one overtook
(two handles in one process, two processes, and the races the apply,
compaction and dedup index meet)."""

import multiprocessing
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from docetl_ray import synth
from docetl_ray.cdc import DedupIndex, LakeTable, StaleManifest
from docetl_ray.cdc.apply import _atomic_write_parquet
from docetl_ray.cdc.dedup_index import _seal_segment
from docetl_ray.cdc.manifest import run_dir

STORES = ["table", "index"]


def _open(kind: str, root: str):
    return LakeTable(root, num_partitions=2) if kind == "table" \
        else DedupIndex(root, kind="exact")


def _commit_one(store, epoch: int) -> dict:
    """Stage one data file for ``epoch`` as the store's writers do, then
    commit it."""
    if isinstance(store, LakeTable):
        rel = os.path.join(run_dir(os.path.join("epochs", f"epoch-{epoch:07d}")),
                           "part-00000.parquet")
        os.makedirs(os.path.dirname(os.path.join(store.root, rel)), exist_ok=True)
        _atomic_write_parquet(pa.table({"url": ["u"], "text": ["t"]}),
                              os.path.join(store.root, rel))
        return store.commit(epoch, [{"pid": 0, "path": rel, "rows": 1, "live_rows": 1,
                                     "lsn_min": epoch, "lsn_max": epoch,
                                     "checksum": "c", "append": True}])
    d = store.staging_dir(epoch, "keys")
    pq.write_table(pa.table({"h": ["x"], "doc_id": [epoch]}), os.path.join(d, "part-0.parquet"))
    rows = _seal_segment(d, pa.schema([("h", pa.string()), ("doc_id", pa.int64())]))
    return store.commit_epoch(epoch, {"keys": os.path.relpath(d, store.root)}, rows)


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("kind", STORES)
def test_leftover_tmp_keeps_the_previous_manifest_live(tmp_path, kind):
    """A crash between the manifest tmp write and its rename leaves the
    previous manifest live; the next commit replaces the tmp."""
    root = str(tmp_path / kind)
    store = _open(kind, root)
    _commit_one(store, 0)
    before = _read(store.manifest_path)
    with open(store.manifest_path + ".tmp", "w") as f:
        f.write('{"epochs": [0, 1], "trunc')
    fresh = _open(kind, root)
    assert fresh.committed_epochs() == [0]
    assert _read(store.manifest_path) == before
    _commit_one(fresh, 1)
    assert not os.path.exists(store.manifest_path + ".tmp")
    assert _open(kind, root).committed_epochs() == [0, 1]


@pytest.mark.parametrize("kind", STORES)
def test_commit_fsyncs_data_then_dirs_then_manifest(tmp_path, kind, monkeypatch):
    """The order of every fsync and rename from staging to commit: the
    data file, its rename (the table's atomic write; the index's
    segment files are written in place), the run directory the new
    record points into and each directory above it, the manifest tmp,
    its rename, then the root."""
    root = os.path.realpath(str(tmp_path / kind))
    store = _open(kind, root)
    calls = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", str(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    m = _commit_one(store, 0)
    if kind == "table":
        data = os.path.join(root, m["partitions"]["0"]["paths"][-1])
        d = os.path.dirname(data)
        assert os.path.dirname(d) == os.path.join(root, "epochs", "epoch-0000000")
        staged = [("fsync", f"{data}.tmp-{os.getpid()}"), ("replace", data)]
    else:
        d = os.path.join(root, m["segments"]["0"]["keys"])
        assert os.path.dirname(d) == os.path.join(root, "segments", "epoch-0000000-keys")
        staged = [("fsync", os.path.join(d, "part-0.parquet"))]
    manifest = os.path.join(root, "manifest.json")
    assert calls == staged + [
        ("fsync", d), ("fsync", os.path.dirname(d)),
        ("fsync", os.path.dirname(os.path.dirname(d))),
        ("fsync", manifest + ".tmp"), ("replace", manifest), ("fsync", root),
    ]


def _race(kind, root, epoch, barrier, results):
    store = _open(kind, root)
    store.manifest()
    barrier.wait()  # both read before either commits
    try:
        _commit_one(store, epoch)
        results.put(("won", epoch))
    except StaleManifest:
        results.put(("lost", epoch))


@pytest.mark.parametrize("kind", STORES)
def test_overlapping_commits_from_two_processes_one_wins(tmp_path, kind):
    """Two processes read the same manifest, then both commit: the lock
    and the generation check let exactly one land; the loser writes
    nothing to the manifest."""
    root = str(tmp_path / kind)
    _commit_one(_open(kind, root), 0)
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_race, args=(kind, root, e, barrier, results))
             for e in (1, 2)]
    for p in procs:
        p.start()
    got = dict(results.get(timeout=120) for _ in procs)
    for p in procs:
        p.join(60)
        assert not p.is_alive() and p.exitcode == 0
    assert sorted(got) == ["lost", "won"]
    m = _open(kind, root).manifest()
    assert m["epochs"] == [0, got["won"]] and m["generation"] == 2
    assert not os.path.exists(os.path.join(root, "manifest.json.tmp"))


def _state(table):
    from docetl_ray.cdc import read_state
    from docetl_ray.util import collect

    return collect(read_state(table, include_tombstones=True)).sort_by([("url", "ascending")])


def _assert_replays(table, events: pa.Table):
    from docetl_ray.cdc import replay_oracle

    eng = _state(table)
    oracle = replay_oracle(events, include_tombstones=True)
    for col in ("url", "lsn", "text", "_deleted"):
        assert eng[col].to_pylist() == oracle[col].to_pylist()


def _race_before_commit(monkeypatch, handle, method: str, other):
    """Run ``other()`` once, right before ``handle``'s next ``method``
    commit; returns the manifest bytes ``other`` left."""
    real = getattr(handle, method)
    left = []

    def racing(*a, **kw):
        if not left:
            other()
            left.append(_read(handle.manifest_path))
        return real(*a, **kw)

    monkeypatch.setattr(handle, method, racing)
    return left


def test_stale_epoch_commit_is_refused_then_lands_after_a_fresh_read(tmp_path, monkeypatch):
    """Another handle commits epoch 1 while epoch 2 is in flight: epoch
    2's commit raises and leaves the disk byte-equal; re-applied (a fresh
    read), it lands and the table equals the replay oracle."""
    import ray.data as rd

    from docetl_ray.cdc import apply_events

    root = str(tmp_path / "lake")
    ev = [synth.events_table(i * 1500, 1500) for i in range(3)]
    a = LakeTable(root, num_partitions=4)
    apply_events(a, rd.from_arrow(ev[0]), epoch=0, mode="delta")
    left = _race_before_commit(monkeypatch, a, "commit", lambda: apply_events(
        LakeTable(root), rd.from_arrow(ev[1]), epoch=1, mode="delta"))
    with pytest.raises(StaleManifest):
        apply_events(a, rd.from_arrow(ev[2]), epoch=2, mode="delta")
    assert _read(a.manifest_path) == left[0]
    assert not os.path.exists(a.manifest_path + ".tmp")
    apply_events(a, rd.from_arrow(ev[2]), epoch=2, mode="delta")
    assert a.manifest(refresh=True)["epochs"] == [0, 1, 2]
    _assert_replays(a, pa.concat_tables(ev))


def test_compaction_overtaken_by_an_epoch_is_refused(tmp_path, monkeypatch):
    """A compaction whose handle read before an epoch committed used to
    write back its stale manifest and drop that epoch.  Now it raises
    and leaves the disk byte-equal; re-run, it lands over every epoch."""
    import ray.data as rd

    from docetl_ray.cdc import apply_events, compact

    root = str(tmp_path / "lake")
    ev = [synth.events_table(i * 1500, 1500) for i in range(3)]
    a = LakeTable(root, num_partitions=4)
    for e in (0, 1):
        apply_events(a, rd.from_arrow(ev[e]), epoch=e, mode="delta")
    b = LakeTable(root)
    left = _race_before_commit(monkeypatch, b, "commit_compaction", lambda: apply_events(
        a, rd.from_arrow(ev[2]), epoch=2, mode="delta"))
    with pytest.raises(StaleManifest):
        compact(b, tag="c1", policy="full")
    assert _read(b.manifest_path) == left[0]
    compact(b, tag="c1", policy="full")
    m = LakeTable(root).manifest()
    assert m["epochs"] == [0, 1, 2] and m["compactions"] == ["c1"]
    _assert_replays(b, pa.concat_tables(ev))


def test_stale_dedup_index_commit_is_refused(tmp_path):
    """A second handle commits epoch 0 after the first read: the first
    handle's commit raises and leaves the disk byte-equal; after a fresh
    read its epoch lands, deduped against epoch 0."""
    import ray.data as rd

    from docetl_ray.cdc import incremental_exact_dedup
    from docetl_ray.util import collect

    def docs(ids, texts):
        return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                       "text": pa.array(texts)}))

    root = str(tmp_path / "idx")
    a = DedupIndex(root, kind="exact")
    a.manifest()
    incremental_exact_dedup(DedupIndex(root, kind="exact"), docs([1, 2], ["x", "y"]),
                            "text", "doc_id", 0)
    before = _read(a.manifest_path)
    d = a.staging_dir(1, "keys")
    with pytest.raises(StaleManifest):
        a.commit_epoch(1, {"keys": os.path.relpath(d, root)}, 0)
    assert _read(a.manifest_path) == before
    kept, n = incremental_exact_dedup(a, docs([3, 4], ["y", "z"]), "text", "doc_id", 1)
    assert sorted(collect(kept)["doc_id"].to_pylist()) == [4] and n == 1
    assert DedupIndex(root, kind="exact").committed_epochs() == [0, 1]


def _race_before_reduce(monkeypatch, module, name: str, other):
    """Run ``other()`` once, right before the next call of ``module.name``
    (``other``'s own calls go straight through)."""
    real = getattr(module, name)
    ran = []

    def racing(*a, **kw):
        if not ran:
            ran.append(True)
            other()
        return real(*a, **kw)

    monkeypatch.setattr(module, name, racing)


def test_stale_apply_run_of_a_committed_epoch_writes_beside_it(tmp_path, monkeypatch):
    """Handle A reads the manifest for epoch 2; before its reduce runs,
    handle B applies epochs 1 and 2.  A's run stages in a directory of
    its own, so it cannot overwrite the files B's commit names, and its
    commit is the idempotent no-op: the table equals the replay oracle
    of all three epochs."""
    import ray.data as rd

    import docetl_ray.stages.util_ray as util_ray
    from docetl_ray.cdc import apply_events

    root = str(tmp_path / "lake")
    ev = [synth.events_table(i * 1500, 1500) for i in range(3)]
    a = LakeTable(root, num_partitions=4)
    apply_events(a, rd.from_arrow(ev[0]), epoch=0)

    def other():
        for e in (1, 2):
            apply_events(LakeTable(root), rd.from_arrow(ev[e]), epoch=e)

    _race_before_reduce(monkeypatch, util_ray, "exchange_refs", other)
    apply_events(a, rd.from_arrow(ev[2]), epoch=2)
    m = LakeTable(root).manifest()
    assert m["epochs"] == [0, 1, 2] and m["generation"] == 3
    _assert_replays(LakeTable(root), pa.concat_tables(ev))


def test_stale_index_run_of_a_committed_epoch_keeps_its_survivors(tmp_path, monkeypatch):
    """Handle A reads the index for epoch 2 (only epoch 0 committed);
    before it computes anything, handle B runs epochs 1 and 2, and B's
    epoch 2 drops a near-dup of an epoch-1 doc that A cannot see.  A's
    run stages beside B's committed segments instead of over them: the
    committed survivors stay B's, and A returns them."""
    import ray.data as rd

    import docetl_ray.stages.dedup as dedup
    from docetl_ray.cdc import incremental_minhash_dedup
    from docetl_ray.util import collect

    def docs(ids, texts):
        return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                       "text": pa.array(texts)}))

    a_text = "the quick brown fox jumps over the lazy dog " * 20
    b_text = "completely different content about ray data pipelines " * 20
    c_text = "fresh unseen text with many unique tokens " * 20
    d_text = "a third corpus slice about parquet levels and manifests " * 20
    root = str(tmp_path / "idx")
    epochs = [docs([1], [a_text]), docs([10], [b_text]),
              docs([20, 21], [b_text + " near", c_text])]

    def survivors(index):
        m = index.manifest(refresh=True)
        return sorted(collect(rd.read_parquet(os.path.join(
            root, m["segments"]["2"]["sigs"]), columns=["doc_id"]))["doc_id"].to_pylist())

    a = DedupIndex(root, kind="minhash")
    incremental_minhash_dedup(a, epochs[0], "text", "doc_id", 0)

    def other():
        b = DedupIndex(root, kind="minhash")
        for e in (1, 2):
            incremental_minhash_dedup(b, epochs[e], "text", "doc_id", e)

    _race_before_reduce(monkeypatch, dedup, "_sig_and_bands", other)
    # A's own epoch 2 differs from B's: it holds d_text, and cannot see
    # that doc 20 near-dups the epoch-1 doc 10
    kept, n = incremental_minhash_dedup(a, docs([20, 21, 22], [b_text + " near", c_text,
                                                               d_text]),
                                        "text", "doc_id", 2)
    assert survivors(DedupIndex(root, kind="minhash")) == [21]
    assert sorted(collect(kept)["doc_id"].to_pylist()) == [21] and n == 1
