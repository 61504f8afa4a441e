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
    # running epoch 1 for real stages beside the leftovers and commits once
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


def _three_minhash_epochs():
    """Three epochs with planted near-dups, and each epoch's survivors.

    Within an epoch, every ``i % 10 == 1`` doc of ``synth.docs_for_indices``
    near-dups doc ``i - 1``.  Across epochs, a doc near-dups an indexed
    one.  Epochs 1 and 2 each hold a doc whose id the index already
    holds, with unrelated text: it survives, so the index then holds
    doc 7 twice, and epoch 2's near-dup of either copy drops."""
    from docetl_ray import synth

    def text(i):
        return synth.docs_for_indices(np.array([i]))["text"][0].as_py()

    def epoch(idx, extra):
        t = synth.docs_for_indices(np.asarray(idx))
        ids = t["doc_id"].to_pylist() + [i for i, _ in extra]
        return _docs(ids, t["text"].to_pylist() + [x for _, x in extra])

    unrelated_7, unrelated_100 = text(5000), text(6000)
    return [
        (epoch(range(40), []), sorted(set(range(40)) - {1, 11, 21, 31})),
        (epoch(range(100, 140), [(150, text(5) + " cross"), (151, text(0) + " cross"),
                                 (7, unrelated_7)]),
         sorted(set(range(100, 140)) - {101, 111, 121, 131}) + [7]),
        (epoch(range(200, 220), [(250, text(105) + " cross"), (251, unrelated_7 + " again"),
                                 (252, text(7) + " again"), (100, unrelated_100)]),
         [100] + sorted(set(range(200, 220)) - {201, 211})),
    ]


@pytest.mark.parametrize("bound", [None, "_DRIVER_PAIRS", "_SPARSE_TEXT_PAIRS"])
def test_minhash_three_epochs_same_survivors_on_every_branch(tmp_path, monkeypatch, bound):
    """The planted within- and cross-epoch near-dups drop, and an epoch
    id equal to an index id is compared by its own signature, at default
    bounds and with each bound set to 0 (every exchange branch of the
    estimate, the drops and the components)."""
    import docetl_ray.stages.dedup as dedup
    from docetl_ray.cdc import DedupIndex, incremental_minhash_dedup

    if bound:
        monkeypatch.setattr(dedup, bound, 0)
    idx = DedupIndex(str(tmp_path / "idx"), kind="minhash")
    for epoch, (ds, want) in enumerate(_three_minhash_epochs()):
        kept, n = incremental_minhash_dedup(idx, ds, "text", "doc_id", epoch)
        assert _ids(kept) == sorted(want) and n == len(want)


def test_minhash_epoch_runs_one_signature_pass_and_three_exchanges(tmp_path, monkeypatch):
    """An epoch computes its signatures once; with a prior segment it
    runs three keyed exchanges at default bounds (the bands join against
    the index, the band pairs, the committed-survivor semi join), two
    without one."""
    import docetl_ray.stages.dedup as dedup
    import docetl_ray.stages.util_ray as util_ray
    from docetl_ray.cdc import DedupIndex, incremental_minhash_dedup

    calls = {"_sig_and_bands": 0, "_split_phase": 0}

    def spy(module, name):
        real = getattr(module, name)

        def fn(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)

        monkeypatch.setattr(module, name, fn)

    spy(dedup, "_sig_and_bands")
    spy(util_ray, "_split_phase")
    idx = DedupIndex(str(tmp_path / "idx"), kind="minhash")
    for epoch, (ds, _) in enumerate(_three_minhash_epochs()):
        ds = ds.materialize()
        calls.update(_sig_and_bands=0, _split_phase=0)
        incremental_minhash_dedup(idx, ds, "text", "doc_id", epoch)
        assert calls == {"_sig_and_bands": 1, "_split_phase": 3 if epoch else 2}
