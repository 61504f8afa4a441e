"""Sampling and outlier filters (``stages/sample.py``)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from docetl_ray.stages.sample import sample_outliers_embedding
from docetl_ray.util import collect


def _embeddings(n: int = 60) -> pa.Table:
    rng = np.random.RandomState(13)
    m = rng.randn(n, 4) * np.array([1.0, 2.0, 0.5, 3.0])
    return pa.table({"id": pa.array(range(n), pa.int64()),
                     "emb": pa.array(m.tolist(), pa.list_(pa.float64()))})


@pytest.mark.parametrize("keep", ["inliers", "outliers"])
@pytest.mark.parametrize("samples", [9, 0.25, 1000])
def test_outliers_embedding_samples_cutoff_matches_numpy(samples, keep):
    """``samples=`` cuts at the n-th smallest distance to the centroid
    (an int count, or a float fraction of the rows; past the end, the
    largest): inliers are the rows at or under it, outliers the rest."""
    t = _embeddings()
    ds = rd.from_arrow([t.slice(i, 20) for i in range(0, t.num_rows, 20)])
    m = np.asarray(t["emb"].to_pylist())
    d = np.sqrt(((m - m.mean(axis=0)) ** 2).sum(axis=1))
    n_samples = int(samples * len(m)) if isinstance(samples, float) else samples
    cutoff = np.sort(d)[min(n_samples, len(m) - 1)]
    want = np.flatnonzero(d > cutoff if keep == "outliers" else d <= cutoff)
    out = collect(sample_outliers_embedding(ds, "emb", samples=samples, keep=keep))
    assert sorted(out["id"].to_pylist()) == want.tolist()
    assert out.schema == t.schema


@pytest.mark.parametrize("mode", [{"std_cutoff": 1.0}, {"samples": 3}, {"samples": 0.5}])
def test_outliers_embedding_empty_input(mode):
    """No rows in: no rows out, with the input's schema."""
    t = _embeddings().slice(0, 0)
    out = collect(sample_outliers_embedding(rd.from_arrow(t), "emb", **mode))
    assert out.num_rows == 0 and out.schema == t.schema
