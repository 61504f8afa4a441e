"""The benchmark's unit of time: a fixed Ray Data job that uses no
``docetl_ray`` code.

On a shared host the speed of a run drifts by up to 2x over tens of
seconds, and a pure-Python CPU burn does not track it: the slowdown hits
work that hands off between processes (driver, raylet, workers), which is
what both this job and the engine do.  The job -- read WAL parquet, shuffle
it into 8 blocks, strip tags from every html payload with a regex, sort --
mixes per-row Python, Arrow kernels and Ray task hand-offs as the engine
does, and is timed between the measured ops; each op's time is divided by
the mean of the two reference times around it.  No change to the program
can move the reference.  Raw seconds stay on stderr and in ``host.ref_s``.
"""

from __future__ import annotations

import re
import time

import pyarrow as pa
import pyarrow.compute as pc

_TAG = re.compile(rb"<[^>]*>")


def _strip_and_sort(batch: pa.Table) -> pa.Table:
    stripped = [len(_TAG.sub(b" ", h)) if h is not None else 0
                for h in batch["html"].to_pylist()]
    t = pa.table({"url": batch["url"], "lsn": batch["lsn"],
                  "text_bytes": pa.array(stripped, pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending"), ("lsn", "ascending")]))


class RefClock:
    """Times the reference job on ``wal_file`` (read three times over)."""

    def __init__(self, wal_file: str):
        self.files = [wal_file] * 3
        self.samples: list[float] = []

    def tick(self) -> float:
        import ray.data as rd

        t0 = time.perf_counter()
        (rd.read_parquet(self.files).repartition(8)
         .map_batches(_strip_and_sort, batch_format="pyarrow").materialize())
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt
