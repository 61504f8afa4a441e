"""Windowed aggregates over event streams (SURVEY.md §2.9 — the
streaming-shaped gap the CDC recast fills).

Ray Data has no event-time windows; these stages implement them as
deterministic batch transforms: tumbling windows are a vectorized
bucket column + the partial-combine grouped aggregate (one small
shuffle); session windows sort each key's events inside ``map_groups``
(ordering is established explicitly — never relies on arrival order).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def add_tumbling_window(ds, ts_col: str, *, window_seconds: int, out_col: str = "window_start"):
    """Add a ``timestamp[us]`` window-start column: floor(ts / w) * w,
    from the epoch, for a timestamp column of any unit.

    Oracle SQL: ``to_timestamp(floor(epoch(ts) / w) * w)`` (DuckDB) or
    ``time_bucket(INTERVAL w, ts, TIMESTAMP '1970-01-01')``."""

    def fn(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        # floor UTC instants in the column's own unit (floor_temporal
        # floors a zoned type's local time); whole seconds cast exactly
        ts = pc.cast(ts, pa.timestamp(ts.type.unit))
        start = pc.floor_temporal(ts, multiple=window_seconds, unit="second")
        return batch.append_column(out_col, pc.cast(start, pa.timestamp("us")))

    return ds.map_batches(fn, batch_format="pyarrow")


def tumbling_window_aggregate(
    ds, ts_col: str, key_cols, *, window_seconds: int, aggs,
    window_col: str = "window_start",
):
    """Tumbling-window grouped aggregate with per-batch partial combine:
    ``add_tumbling_window`` then ``grouped_aggregate`` on ``key_cols +
    [window_col]``.  ``window_col`` is ``timestamp[us]``: Arrow's
    ``group_by`` keeps the type ``add_tumbling_window`` gives it."""
    from .reduces import grouped_aggregate

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    withw = add_tumbling_window(ds, ts_col, window_seconds=window_seconds, out_col=window_col)
    return grouped_aggregate(withw, key_cols + [window_col], aggs)


def session_windows(
    ds, ts_col: str, key_col: str, *, gap_seconds: int,
):
    """Session windowing: per key, sort by time and split where the gap
    between consecutive events exceeds ``gap_seconds``.  Emits one row
    per session: key, session_start, session_end, n_events.

    One keyed shuffle; in-group work is vectorized pandas.  Late events
    are handled by the sort (event time, not arrival time).
    """

    def per_key(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(ts_col, kind="mergesort")
        ts = g[ts_col].astype("datetime64[us]")
        gaps = ts.diff().dt.total_seconds().fillna(0.0)
        session_id = (gaps > gap_seconds).cumsum()
        out = (
            g.assign(__sid=session_id.values)
            .groupby("__sid", sort=True)
            .agg(
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
                n_events=(ts_col, "size"),
            )
            .reset_index(drop=True)
        )
        out.insert(0, key_col, group[key_col].iloc[0])
        return out

    from .grouped import grouped_map

    sessions = grouped_map(ds, key_col, per_key)

    # the pandas path yields ns-precision timestamps; pin the canonical
    # timestamp[us] schema (matches inputs and SQL oracles)
    def fix(batch: pa.Table) -> pa.Table:
        for c in ("session_start", "session_end"):
            i = batch.column_names.index(c)
            batch = batch.set_column(i, c, pc.cast(batch[c], pa.timestamp("us")))
        return batch

    return sessions.map_batches(fix, batch_format="pyarrow")
