"""Tracing for the ``--trace 1`` run, kept entirely outside the program.

``Tracer`` records spans around driver-side public calls by swapping the
module attributes they resolve through, and restores them afterwards.
``replay_apply`` and ``replay_read`` call the apply and read layer
functions in this process, without Ray, on the inputs the traced run
used, to split busy time and row counts by layer.  ``Host`` samples
``/proc/stat`` and runs a fixed CPU burn, so a slow run can be told apart
from a slow machine.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class Tracer:
    """Spans: name, start, end, parent span index and per-call notes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        from docetl_ray.cdc import apply as cdc_apply
        from docetl_ray.cdc import table as cdc_table
        from docetl_ray.stages import util_ray

        cdc_tail = importlib.import_module("docetl_ray.cdc.tail")

        self._wrap(cdc_apply, "apply_events", "apply_events", _note_apply)
        # tail_once calls the name it imported, not the apply module's
        self._wrap(cdc_tail, "apply_events", "apply_events", _note_apply)
        self._wrap(cdc_apply, "compact", "compact", _note_compact)
        self._wrap(cdc_tail, "tail_once", "tail_once", _note_tail)
        self._wrap(cdc_apply, "read_state", "read_state", None)
        self._wrap(cdc_table.LakeTable, "commit", "commit", _note_commit)
        # callers that bound the name at import (stages.asof) are not seen
        self._wrap(util_ray, "exchange_map_groups", "exchange_map_groups", None)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _wrap(self, obj, attr: str, name: str, note) -> None:
        orig = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        traced.__wrapped__ = orig
        self._undo.append((obj, attr, orig))
        setattr(obj, attr, traced)

    def dump(self, path: str) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(out, f, indent=0)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def child_time(self, span: dict, name: str) -> float:
        idx = self.spans.index(span)
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == idx and s["name"] == name)


def _note_apply(args, kwargs, result) -> dict:
    table = args[0]
    epoch = kwargs.get("epoch", args[2] if len(args) > 2 else None)
    wall = (result.get("epoch_metrics") or {}).get(str(epoch), {}).get("wall_sec")
    written = dir_bytes(os.path.join(table.root, "epochs", f"epoch-{epoch:07d}"))
    return {"epoch": epoch, "epoch_wall_s": wall, "bytes": written}


def _note_compact(args, kwargs, result) -> dict:
    table, tag = args[0], kwargs["tag"]
    cdir = os.path.join("compactions", tag)
    full = tiered = 0
    for rec in result.get("partitions", {}).values():
        paths = rec.get("paths") or []
        if paths and paths[-1].startswith(cdir + os.sep):
            if len(paths) == 1:
                full += 1
            else:
                tiered += 1
    return {"full_parts": full, "tiered_parts": tiered,
            "bytes": dir_bytes(os.path.join(table.root, cdir))}


def _note_tail(args, kwargs, result) -> dict:
    return {"applied": len(result)}


def _note_commit(args, kwargs, result) -> dict:
    table = args[0]
    return {"manifest_bytes": os.path.getsize(table.manifest_path)}


def dir_bytes(d: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(d):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total


def replay_apply(epoch_files: list[list[str]], num_partitions: int) -> dict:
    """Per-layer busy time and counts of the apply path, per epoch.

    Each WAL file is one batch, as ``read_parquet`` + ``map_batches``
    deliver it.  The partial outputs are grouped by partition as the
    exchange does, and the final LWW runs over each group."""
    from docetl_ray.cdc.apply import (events_to_state, lww_last_per_url,
                                      partial_apply, url_partition)
    from docetl_ray.html_text import extract_text_batch

    acc = dict.fromkeys(["extract_s", "to_state_s", "partial_s", "route_s",
                         "lww_s", "rows_in", "rows_out", "html_bytes", "batches"], 0.0)
    for files in epoch_files:
        parts: list[pa.Table] = []
        for f in files:
            batch = pq.read_table(f)
            acc["batches"] += 1
            acc["rows_in"] += batch.num_rows
            acc["html_bytes"] += batch["html"].nbytes
            t0 = time.perf_counter()
            extract_text_batch(batch)
            acc["extract_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            events_to_state(batch)
            acc["to_state_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            out = partial_apply(batch, num_partitions=num_partitions)
            acc["partial_s"] += time.perf_counter() - t0
            acc["rows_out"] += out.num_rows
            urls = out["url"].to_numpy(zero_copy_only=False)
            t0 = time.perf_counter()
            url_partition(urls, num_partitions)
            acc["route_s"] += time.perf_counter() - t0
            parts.append(out)
        merged = pa.concat_tables(parts)
        for pid in range(num_partitions):
            group = merged.filter(pc.equal(merged["part"], pid))
            group = group.drop_columns(["part", "_lsn_lo", "_lsn_hi"])
            t0 = time.perf_counter()
            lww_last_per_url(group)
            acc["lww_s"] += time.perf_counter() - t0
    n = max(1, len(epoch_files))
    return {k: v / n for k, v in acc.items()}


def replay_read(partition_map: dict[int, list[str]]) -> dict:
    """Merge-on-read split into parquet read and LWW merge, per scan."""
    from docetl_ray.cdc.apply import lww_last_per_url
    from docetl_ray.schemas import unify_tables

    out = {"parquet_s": 0.0, "merge_s": 0.0, "rows_in": 0, "rows_out": 0,
           "files": 0, "bytes": 0, "levels_max": 0}
    for paths in partition_map.values():
        out["files"] += len(paths)
        out["levels_max"] = max(out["levels_max"], len(paths))
        out["bytes"] += sum(os.path.getsize(p) for p in paths)
        t0 = time.perf_counter()
        tables = [pq.read_table(p) for p in paths]
        out["parquet_s"] += time.perf_counter() - t0
        out["rows_in"] += sum(t.num_rows for t in tables)
        t0 = time.perf_counter()
        merged = lww_last_per_url(unify_tables(tables)) if len(tables) > 1 else tables[0]
        out["merge_s"] += time.perf_counter() - t0
        out["rows_out"] += merged.num_rows
    return out


def map_stage_s(files: list[str], num_partitions: int) -> float:
    """Ray ``read_parquet`` + ``map_batches(partial_apply)`` of one epoch's
    files, materialized on its own."""
    import ray.data as rd

    from docetl_ray.cdc.apply import partial_apply

    t0 = time.perf_counter()
    rd.read_parquet(files).map_batches(
        partial_apply, batch_format="pyarrow",
        fn_kwargs={"num_partitions": num_partitions, "extract": True,
                   "part_version": "v2"},
    ).materialize()
    return time.perf_counter() - t0


class Host:
    """CPU busy seconds and steal share from ``/proc/stat`` between
    ``start`` and ``stop``, plus a fixed pure-Python burn timed once."""

    def __init__(self):
        self._t0 = self._sample()
        self.burn_s = self._burn()
        self.result: dict = {}

    @staticmethod
    def _sample() -> tuple[int, int, int]:
        with open("/proc/stat") as f:
            vals = [int(x) for x in f.readline().split()[1:]]
        idle = vals[3] + (vals[4] if len(vals) > 4 else 0)
        steal = vals[7] if len(vals) > 7 else 0
        return sum(vals) - idle, steal, sum(vals)

    @staticmethod
    def _burn(n: int = 3_000_000) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x += i * i
        return time.perf_counter() - t0

    def start(self) -> None:
        self._t0 = self._sample()

    def stop(self) -> None:
        busy1, steal1, total1 = self._sample()
        busy0, steal0, total0 = self._t0
        dt = total1 - total0
        self.result = {
            "cpu_busy_s": (busy1 - busy0) / os.sysconf("SC_CLK_TCK"),
            "steal_pct": 100.0 * (steal1 - steal0) / dt if dt > 0 else 0.0,
        }


def p(values: list[float], q: float) -> float:
    """Percentile by linear interpolation (q in [0, 100]); 0.0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0
