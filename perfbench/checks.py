"""Output checks: an order-independent digest of CDC table state, and an
order-insensitive comparison of query results against DuckDB answers.

Both sides of every comparison go through the same function here, so the
engine is judged by code that does not depend on it."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_MASK = (1 << 64) - 1


class StateDigest:
    """Row count plus a wrapping uint64 sum of per-row hashes over
    (url, lsn, warc_ts, _deleted, text, lang).  The sum makes it
    independent of row order and of how rows are split into batches."""

    def __init__(self):
        self.rows = 0
        self.total = 0

    def add(self, t: pa.Table) -> None:
        if t.num_rows == 0:
            return
        text_null = pc.is_null(t["text"])
        df = pd.DataFrame({
            "url": t["url"].to_pandas(),
            "lsn": t["lsn"].to_pandas(),
            "ts": t["warc_ts"].cast(pa.int64()).to_pandas(),
            "dead": t["_deleted"].cast(pa.int8()).to_pandas(),
            "tnull": text_null.cast(pa.int8()).to_pandas(),
            "text": t["text"].to_pandas().fillna(""),
            "lang": t["lang"].to_pandas().fillna(""),
        })
        h = pd.util.hash_pandas_object(df, index=False).to_numpy()
        with np.errstate(over="ignore"):
            s = int(h.sum(dtype=np.uint64))
        self.rows += t.num_rows
        self.total = (self.total + s) & _MASK

    def value(self) -> str:
        return f"{self.rows}:{self.total:016x}"


def state_digest(t: pa.Table) -> str:
    d = StateDigest()
    d.add(t)
    return d.value()


def _norm(t: pa.Table) -> pd.DataFrame:
    df = t.select(sorted(t.column_names)).to_pandas()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None or math.isnan(a) or math.isnan(b):
            a_nan = a is None or math.isnan(a)
            b_nan = b is None or math.isnan(b)
            return a_nan and b_nan
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if hasattr(a, "tolist"):  # list cells arrive as numpy arrays
        a = a.tolist()
    if hasattr(b, "tolist"):
        b = b.tolist()
    return a == b


def result_mismatch(got: pa.Table, want: pa.Table) -> str | None:
    """None when ``got`` equals ``want`` as a multiset of rows (floats to
    1e-9 relative); otherwise a one-line reason."""
    if sorted(got.column_names) != sorted(want.column_names):
        return f"columns {sorted(got.column_names)} != {sorted(want.column_names)}"
    if got.num_rows != want.num_rows:
        return f"{got.num_rows} rows != {want.num_rows}"
    g, w = _norm(got), _norm(want)
    for c in g.columns:
        for x, y in zip(g[c].tolist(), w[c].tolist()):
            if not _same(x, y):
                return f"column {c}: {x!r} != {y!r}"
    return None
