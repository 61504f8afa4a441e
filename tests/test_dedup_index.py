"""Incremental dedup-index tests: exact + minhash kinds, exactly-once
commit semantics, idempotent replay, crash-before-commit invisibility."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from docetl_ray.util import collect


def _docs(ids, texts):
    import ray.data as rd

    return rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    )


def _ids(ds):
    return sorted(collect(ds)["doc_id"].to_pylist())


def test_exact_incremental_two_epochs(tmp_path):
    from docetl_ray.cdc import DedupIndex, incremental_exact_dedup

    idx = DedupIndex(str(tmp_path / "idx"), kind="exact")
    # epoch 0: one internal dup (ids 1,2 share text) -> keep min id
    e0 = _docs([1, 2, 3], ["aaa", "aaa", "bbb"])
    kept0, n0 = incremental_exact_dedup(idx, e0, "text", "doc_id", 0)
    assert _ids(kept0) == [1, 3] and n0 == 2
    # epoch 1: 'bbb' already indexed; 'ccc' duplicated within the epoch
    e1 = _docs([10, 11, 12, 13], ["bbb", "ccc", "ccc", "ddd"])
    kept1, n1 = incremental_exact_dedup(idx, e1, "text", "doc_id", 1)
    assert _ids(kept1) == [11, 13] and n1 == 2


def test_exact_replay_is_idempotent(tmp_path):
    from docetl_ray.cdc import DedupIndex, incremental_exact_dedup

    idx = DedupIndex(str(tmp_path / "idx"), kind="exact")
    e0 = _docs([1, 2], ["x", "y"])
    incremental_exact_dedup(idx, e0, "text", "doc_id", 0)
    m1 = dict(idx.manifest())
    kept_a, _ = incremental_exact_dedup(idx, e0, "text", "doc_id", 0)
    assert idx.manifest() == m1  # no double-append
    assert _ids(kept_a) == [1, 2]
    # reopening from disk sees the same state
    idx2 = DedupIndex(str(tmp_path / "idx"), kind="exact")
    assert idx2.committed_epochs() == [0]


def test_exact_crash_before_commit_is_invisible(tmp_path):
    from docetl_ray.cdc import DedupIndex, incremental_exact_dedup

    idx = DedupIndex(str(tmp_path / "idx"), kind="exact")
    incremental_exact_dedup(idx, _docs([1], ["x"]), "text", "doc_id", 0)
    # simulate a crashed epoch-1 writer: staging files, no manifest entry
    d = idx.staging_dir(1, "keys")
    pa.parquet.write_table(pa.table({"h": ["garbage"], "doc_id": [99]}),
                           os.path.join(d, "part-junk.parquet"))
    assert idx.committed_epochs() == [0]
    assert idx.segment_files("keys") and "epoch-0000001" not in idx.segment_files("keys")[0]
    # running epoch 1 for real overwrites staging and commits once
    kept, _ = incremental_exact_dedup(idx, _docs([5], ["x"]), "text", "doc_id", 1)
    assert _ids(kept) == []  # 'x' already in the corpus


def test_minhash_incremental_near_dups(tmp_path):
    from docetl_ray.cdc import DedupIndex, incremental_minhash_dedup

    base = "the quick brown fox jumps over the lazy dog " * 20
    near = base + "one extra clause"             # near-dup of base
    other = "completely different content about ray data pipelines " * 20
    idx = DedupIndex(str(tmp_path / "idx"), kind="minhash")
    e0 = _docs([1, 2], [base, other])
    kept0, n0 = incremental_minhash_dedup(idx, e0, "text", "doc_id", 0, threshold=0.7)
    assert _ids(kept0) == [1, 2] and n0 == 2
    # epoch 1: near-dup of indexed doc drops; fresh doc survives; two
    # near-identical new docs collapse to the min id
    fresh = "fresh unseen text with many unique tokens " * 20
    e1 = _docs([10, 11, 12], [near, fresh, fresh + " tail"])
    kept1, n1 = incremental_minhash_dedup(idx, e1, "text", "doc_id", 1, threshold=0.7)
    assert _ids(kept1) == [11] and n1 == 1
    # replay: same answer, no manifest change
    m = dict(idx.manifest())
    kept1b, _ = incremental_minhash_dedup(idx, e1, "text", "doc_id", 1, threshold=0.7)
    assert _ids(kept1b) == [11]
    assert idx.manifest() == m


@pytest.mark.parametrize("kind", ["exact", "minhash"])
def test_third_epoch_reads_every_prior_segment(tmp_path, kind):
    """Epoch 2 is the first to see more than one prior segment: each
    drops a dup from epoch 0 and one from epoch 1, keeps its own first
    doc, and a replay of it returns the committed survivors unchanged."""
    from docetl_ray.cdc import DedupIndex, incremental_exact_dedup, incremental_minhash_dedup

    run = incremental_exact_dedup if kind == "exact" else incremental_minhash_dedup
    a = "the quick brown fox jumps over the lazy dog " * 20
    b = "completely different content about ray data pipelines " * 20
    c = "fresh unseen text with many unique tokens " * 20
    d = "a third corpus slice about parquet levels and manifests " * 20
    e = "yet another document on shuffle exchanges and reducers " * 20
    idx = DedupIndex(str(tmp_path / "idx"), kind=kind)
    epochs = [
        (_docs([1, 2], [a, b]), [1, 2]),
        (_docs([10, 11, 12], [b, c, d]), [11, 12]),
        (_docs([20, 21, 22, 23], [a, d, e, e]), [22]),
    ]
    for epoch, (ds, want) in enumerate(epochs):
        kept, n = run(idx, ds, "text", "doc_id", epoch)
        assert _ids(kept) == want and n == len(want)
    assert len({os.path.dirname(f) for f in idx.segment_files("keys")}) == 3
    m = json.loads(json.dumps(idx.manifest()))
    kept, n = run(idx, epochs[-1][0], "text", "doc_id", 2)
    assert _ids(kept) == [22] and n == 1
    assert idx.manifest() == m


def test_index_param_pinning(tmp_path):
    from docetl_ray.cdc import DedupIndex, incremental_minhash_dedup

    idx = DedupIndex(str(tmp_path / "idx"), kind="minhash")
    incremental_minhash_dedup(idx, _docs([1], ["hello world " * 30]),
                              "text", "doc_id", 0, num_perm=64)
    idx2 = DedupIndex(str(tmp_path / "idx"), kind="minhash")
    with pytest.raises(ValueError):
        incremental_minhash_dedup(idx2, _docs([2], ["more text " * 30]),
                                  "text", "doc_id", 1, num_perm=32)
    with pytest.raises(ValueError):
        DedupIndex(str(tmp_path / "idx"), kind="exact").manifest()
