"""WAL tailing: discover and apply new segment directories in order.

A WAL producer writes each segment as a directory of parquet files named
``segment-<seq>`` (zero-padded), containing a ``_COMMITTED`` marker
(writers stage under a dot-name WITH the marker already inside, then
``os.rename`` — the rename is the single atomic visibility barrier).  ``tail_once`` applies every committed segment the
table hasn't seen yet, in sequence order, each as its own epoch
(epoch id = segment sequence number, so replay detection is free);
``tail`` loops with a poll interval until ``stop_after_idle`` polls see
nothing new.  Crash-safety comes from the epoch manifest: a tailer
restarted mid-stream re-discovers and skips committed epochs.
"""

from __future__ import annotations

import os
import re
import time

from .apply import apply_events
from .manifest import StaleManifest
from .table import LakeTable

_SEG_RE = re.compile(r"^segment-(\d+)$")


def discover_segments(wal_root: str) -> list[tuple[int, str]]:
    """Committed segments as sorted (seq, path)."""
    out = []
    if not os.path.isdir(wal_root):
        return out
    for name in os.listdir(wal_root):
        m = _SEG_RE.match(name)
        if not m:
            continue
        path = os.path.join(wal_root, name)
        if os.path.exists(os.path.join(path, "_COMMITTED")):
            out.append((int(m.group(1)), path))
    return sorted(out)


def tail_once(table: LakeTable, wal_root: str, *, mode: str = "delta",
              compact_after: int | None = 8, extract: bool = True) -> list[int]:
    """Apply all committed-but-unapplied segments; returns applied seqs.
    A segment overtaken by a concurrent commit (``StaleManifest``) is
    re-run once, exact under LWW; a second refusal raises."""
    import ray.data as rd

    done = set(table.manifest(refresh=True)["epochs"])
    applied = []
    for seq, path in discover_segments(wal_root):
        if seq in done:
            continue
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
        )
        if not files:
            continue
        events = rd.read_parquet(files)
        kw = dict(epoch=seq, mode=mode, compact_after=compact_after, extract=extract)
        try:
            apply_events(table, events, **kw)
        except StaleManifest:
            apply_events(table, events, **kw)
        applied.append(seq)
    return applied


def tail(table: LakeTable, wal_root: str, *, poll_seconds: float = 1.0,
         stop_after_idle: int = 3, mode: str = "delta",
         compact_after: int | None = 8) -> list[int]:
    """Poll-loop tailer; stops after ``stop_after_idle`` empty polls.

    (A production deployment would run this under ``ray job submit`` with
    stop_after_idle=None semantics — bounded here so tests terminate.)"""
    all_applied: list[int] = []
    idle = 0
    while idle < stop_after_idle:
        applied = tail_once(table, wal_root, mode=mode, compact_after=compact_after)
        if applied:
            all_applied.extend(applied)
            idle = 0
        else:
            idle += 1
            time.sleep(poll_seconds)
    return all_applied


def write_segment(wal_root: str, seq: int, events_table) -> str:
    """Producer-side helper: write one committed segment atomically."""
    import pyarrow.parquet as pq

    staging = os.path.join(wal_root, f".staging-segment-{seq:07d}")
    final = os.path.join(wal_root, f"segment-{seq:07d}")
    if os.path.exists(os.path.join(final, "_COMMITTED")):
        return final  # idempotent producer retry
    import shutil

    shutil.rmtree(staging, ignore_errors=True)  # leftover from a crashed try
    os.makedirs(staging)
    pq.write_table(events_table, os.path.join(staging, "part-00000.parquet"))
    # marker goes INSIDE staging so the rename is the single atomic
    # visibility barrier: a crash before the rename leaves only an
    # invisible staging dir a retry clears; after, the segment is
    # complete AND committed.  (Marker-after-rename would strand a
    # committed-looking dir with no marker on crash between the two.)
    open(os.path.join(staging, "_COMMITTED"), "w").close()
    os.rename(staging, final)
    return final
