"""The three workloads.  Each has a warm-up op (run three times for the
CDC workloads and once for query_mix; set-up counts the median), a
pre-state built once, and a measured phase that runs for the run's
seconds, times the reference job between its ops and checks every output
it produces.

The engine is driven only through its public functions, looked up on
their modules at call time so that ``trace.Tracer`` can see the calls:
``cdc.apply.apply_events`` / ``read_state``, ``cdc.tail.write_segment`` /
``tail_once``, and ``__ray_entry__.queries()``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from docetl_ray.cdc import apply as cdc_apply
from docetl_ray.cdc.table import LakeTable
from perfbench import trace as tr
from perfbench.checks import StateDigest, result_mismatch
from perfbench.inputs import NUM_PARTITIONS, QUERIES
from perfbench.reference import RefClock

# ``docetl_ray.cdc.tail`` as an attribute is the re-exported function
cdc_tail = importlib.import_module("docetl_ray.cdc.tail")


@dataclass
class ClockedTable(LakeTable):
    """LakeTable that notes when each epoch's commit returned, the moment
    the epoch becomes visible to readers."""

    committed_at: dict = field(default_factory=dict, repr=False)

    def commit(self, epoch, partition_records, metrics=None):
        m = super().commit(epoch, partition_records, metrics)
        self.committed_at[epoch] = time.perf_counter()
        return m


class Ledger:
    """Operations attempted and failed.  A failure is a raised exception
    or an output that differs from its oracle; each check is itself an
    attempted operation, and ``checks == outputs`` shows none was skipped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = 0
        self.checks = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, what: str, mismatch: str | None) -> None:
        self.attempted += 1
        self.checks += 1
        if mismatch:
            self.fail(f"{what}: {mismatch}")

    def check_equal(self, what: str, got, want) -> None:
        self.check(what, None if got == want else f"got {got}, want {want}")


@dataclass
class Phase:
    """What one measured phase saw: items done, per-op latencies and busy
    time in seconds and in reference-job units (``norm``), plus whatever
    the workload's layers need afterwards."""

    items: int = 0
    busy_s: float = 0.0
    norm_busy: float = 0.0
    lat: list = field(default_factory=list)
    norm: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, seconds: float, ref_s: float) -> None:
        self.lat.append(seconds)
        self.busy_s += seconds
        self.norm.append(seconds / ref_s)
        self.norm_busy += seconds / ref_s

    def e2e(self) -> dict:
        return {
            "items_per_s": self.items / self.busy_s,
            "latency_p50_s": tr.p(self.lat, 50),
            "latency_p75_s": tr.p(self.lat, 75),
            "items_per_ref": self.items / self.norm_busy,
            "latency_p50_ref": tr.p(self.norm, 50),
            "latency_p75_ref": tr.p(self.norm, 75),
        }


def _digest_state(table: LakeTable, include_tombstones: bool) -> str:
    d = StateDigest()
    ds = cdc_apply.read_state(table, include_tombstones=include_tombstones)
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        d.add(b)
    return d.value()


def _apply_files(table: LakeTable, files: list[str], epoch: int, **kw) -> dict:
    import ray.data as rd

    return cdc_apply.apply_events(table, rd.read_parquet(files), epoch=epoch, **kw)


class Workload:
    #: warm-up ops run before the pre-state; set-up time counts their median
    warm_repeats = 3

    def __init__(self, spec: dict, run_dir: str, ledger: Ledger):
        self.spec = spec
        self.dir = run_dir
        self.ledger = ledger
        self.layout = spec["layout"]
        self.sizes = spec["sizes"]

    def path(self, rel: str) -> str:
        return os.path.join(self.spec["dir"], rel)

    def warm(self, i: int) -> None:
        """A small merge apply into a fresh table, read back."""
        t = LakeTable(os.path.join(self.dir, f"warm-{i}"), num_partitions=NUM_PARTITIONS)
        _apply_files(t, [self.path(self.layout["warm"])], epoch=0)
        _digest_state(t, include_tombstones=True)
        shutil.rmtree(t.root)

    def prestate(self) -> None:
        pass

    def phase(self, seconds: float, index: int, clock: RefClock) -> Phase:
        """Measure for ``seconds``; ``clock`` times the reference job
        between ops, outside the measured window."""
        raise NotImplementedError

    def layers(self, tracer: tr.Tracer, ph: Phase) -> dict:
        raise NotImplementedError

    def oracle_s(self) -> float:
        return self.spec["oracle"]["replay_s"]

    # -- shared by the two workloads that apply events --------------------

    def apply_layers(self, tracer: tr.Tracer, replay_epochs: list[list[str]],
                     table: LakeTable) -> dict:
        """Per-epoch means of the apply path from spans, the replay and the
        final table's manifest."""
        applies = tracer.named("apply_events")
        commits = [s["end"] - s["start"] for s in tracer.named("commit")]
        compacts = tracer.named("compact")
        wall = tr.mean([s["end"] - s["start"] for s in applies])
        commit_in = tr.mean([tracer.child_time(s, "commit") for s in applies])
        compact_in = tr.mean([tracer.child_time(s, "compact") for s in applies])
        map_s = tr.mean([tr.map_stage_s(files, NUM_PARTITIONS) for files in replay_epochs[:4]])
        rep = tr.replay_apply(replay_epochs, NUM_PARTITIONS)
        rows = sorted(rec.get("rows", 0) for rec in table.manifest()["partitions"].values())
        walls = [s["epoch_wall_s"] for s in applies if s.get("epoch_wall_s") is not None]
        return {
            "html_text.extract_s": rep["extract_s"],
            "html_text.rows": rep["rows_in"],
            "html_text.in_mb": rep["html_bytes"] / 1e6,
            "cdc.apply.to_state_s": rep["to_state_s"],
            "cdc.apply.partial_s": rep["partial_s"],
            "cdc.apply.partial_rows_in": rep["rows_in"],
            "cdc.apply.partial_rows_out": rep["rows_out"],
            "cdc.apply.precombine_ratio": rep["rows_in"] / max(1, rep["rows_out"]),
            "cdc.apply.route_s": rep["route_s"],
            "cdc.apply.lww_s": rep["lww_s"],
            "cdc.apply.map_stage_s": map_s,
            "cdc.apply.wall_s": wall,
            "cdc.apply.exchange_merge_s": wall - map_s - commit_in - compact_in,
            "cdc.apply.epoch_wall_s": tr.mean(walls),
            "cdc.apply.bytes_written": tr.mean([s["bytes"] for s in applies]),
            "cdc.apply.partition_rows_skew": rows[-1] / max(1, tr.median(rows)) if rows else 0.0,
            "cdc.table.commit_s_p50": tr.p(commits, 50),
            "cdc.table.commits": len(commits),
            "cdc.table.manifest_bytes_end": os.path.getsize(table.manifest_path),
            "cdc.compact.runs": len(compacts),
            "cdc.compact.full_folds": sum(s["full_parts"] for s in compacts),
            "cdc.compact.total_s": sum(s["end"] - s["start"] for s in compacts),
            "cdc.compact.max_s": max((s["end"] - s["start"] for s in compacts), default=0.0),
            "cdc.compact.bytes_rewritten": sum(s["bytes"] for s in compacts),
        }


class BackfillMerge(Workload):
    """Two merge-mode epochs into an empty table, repeated on a fresh table
    until the time is up; every resulting table is checked."""

    def phase(self, seconds, index, clock):
        epochs = [[self.path(f) for f in ep] for ep in self.layout["epochs"]]
        wal_bytes = sum(os.path.getsize(f) for ep in epochs for f in ep)
        want = self.spec["oracle"]["checkpoints"][0]["with_tombstones"]
        ph = Phase()
        table = None
        ref_prev = clock.tick()
        deadline = time.perf_counter() + seconds
        while not ph.lat or time.perf_counter() < deadline:
            if table is not None:
                shutil.rmtree(table.root)
            table = LakeTable(os.path.join(self.dir, f"bf-{index}-{len(ph.lat)}"),
                              num_partitions=NUM_PARTITIONS)
            t0 = time.perf_counter()
            for e, files in enumerate(epochs):
                self.ledger.attempted += 1
                _apply_files(table, files, epoch=e, mode="merge")
            dt = time.perf_counter() - t0
            ph.items += self.spec["oracle"]["checkpoints"][0]["events"]
            self.ledger.outputs += 1
            self.ledger.check_equal(f"backfill cycle {len(ph.lat) + 1} state",
                                    _digest_state(table, include_tombstones=True), want)
            ref = clock.tick()
            deadline += ref
            ph.add(dt, (ref_prev + ref) / 2)
            ref_prev = ref
        ph.extra = {"table": table,
                    "write_amp": tr.dir_bytes(os.path.join(table.root, "epochs")) / wal_bytes}
        return ph

    def layers(self, tracer, ph):
        epochs = [[self.path(f) for f in ep] for ep in self.layout["epochs"]]
        out = self.apply_layers(tracer, epochs, ph.extra["table"])
        out["cdc.write_amp"] = ph.extra["write_amp"]
        return out


class TailDelta(Workload):
    """Open-loop CDC tail over a pre-built base: segment i is due at
    t0 + i * interval; one thread writes every due segment with
    ``write_segment`` and then calls ``tail_once`` (delta mode,
    auto-compaction on).  Lag runs from a segment's due time to its
    manifest commit, so a compaction stall shows on the segments behind
    it."""

    def prestate(self):
        self.table = ClockedTable(os.path.join(self.dir, "lake"), num_partitions=NUM_PARTITIONS)
        self.wal = os.path.join(self.dir, "wal")
        os.makedirs(self.wal)
        _apply_files(self.table, [self.path(f) for f in self.layout["base"]], epoch=0,
                     mode="merge")
        self.next_seg = 0

    def phase(self, seconds, index, clock):
        interval = self.sizes["interval_s"]
        n = len(self.layout["segments"]) // len(self.spec["oracle"]["checkpoints"])
        first = self.next_seg
        segs = [pq.read_table(self.path(f)) for f in self.layout["segments"][first:first + n]]
        seqs = list(range(first + 1, first + n + 1))  # epoch 0 is the base
        ph = Phase()
        due = {}
        late, waits, service, backlog = [], [], [], 0
        # the open loop cannot pause between ops, so the reference runs in
        # its idle gaps (when the next segment is due well after the job
        # would end) and each segment is normalized by the reference
        # samples nearest before its due time and after its commit
        refs = [(time.perf_counter(), clock.tick())]
        t0 = time.perf_counter() + 0.05
        starts = []
        written = done = 0
        while written < n:
            now = time.perf_counter()
            next_due = t0 + written * interval
            if now < next_due:
                if next_due - now > 2 * refs[-1][1]:
                    refs.append((now, clock.tick()))
                time.sleep(max(0.0, next_due - time.perf_counter()))
            while written < n and time.perf_counter() >= t0 + written * interval:
                seq = seqs[written]
                due[seq] = t0 + written * interval
                late.append(time.perf_counter() - due[seq])
                cdc_tail.write_segment(self.wal, seq, segs[written])
                written += 1
            start = time.perf_counter()
            overdue = min(n, int((start - t0) / interval) + 1)
            backlog = max(backlog, overdue - done)
            self.ledger.attempted += 1
            applied = cdc_tail.tail_once(self.table, self.wal)
            done += len(applied)
            service.append(time.perf_counter() - start)
            starts.append(start)
            for seq in applied:
                waits.append(start - due[seq])
        refs.append((time.perf_counter(), clock.tick()))

        def ref_around(lo: float, hi: float) -> float:
            before = [r for t, r in refs if t <= lo] or [refs[0][1]]
            after = [r for t, r in refs if t >= hi] or [refs[-1][1]]
            return (before[-1] + after[0]) / 2

        for seq in seqs:
            ph.add(self.table.committed_at[seq] - due[seq],
                   ref_around(due[seq], self.table.committed_at[seq]))
        # throughput counts service time, not the lag
        ph.busy_s = sum(service)
        ph.norm_busy = sum(sv / ref_around(st, st + sv) for st, sv in zip(starts, service))
        ph.items = n * self.sizes["segment_events"]
        self.next_seg = first + n
        want = self.spec["oracle"]["checkpoints"][index]["with_tombstones"]
        self.ledger.outputs += 1
        self.ledger.check_equal(f"tail phase {index} state",
                                _digest_state(self.table, include_tombstones=True), want)
        seg_bytes = sum(os.path.getsize(self.path(f))
                        for f in self.layout["segments"][first:first + n])
        written_bytes = sum(
            tr.dir_bytes(os.path.join(self.table.root, sub))
            for seq in seqs
            for sub in (os.path.join("epochs", f"epoch-{seq:07d}"),
                        os.path.join("compactions", f"auto-epoch-{seq}"))
        )
        ph.extra = {"late": late, "waits": waits, "service": service, "backlog": backlog,
                    "first": first, "n": n, "write_amp": written_bytes / seg_bytes}
        return ph

    def layers(self, tracer, ph):
        files = self.layout["segments"][ph.extra["first"]:ph.extra["first"] + ph.extra["n"]]
        out = self.apply_layers(tracer, [[self.path(f)] for f in files], self.table)
        out.update({
            "cdc.write_amp": ph.extra["write_amp"],
            "cdc.tail.apply_s_p50": tr.p(ph.extra["service"], 50),
            "cdc.tail.queue_wait_s_p75": tr.p(ph.extra["waits"], 75),
            "cdc.tail.generator_late_s_max": max(ph.extra["late"]),
            "cdc.tail.backlog_max": ph.extra["backlog"],
            "cdc.tail.segments": ph.extra["n"],
        })
        # what the stacked levels the tail leaves behind cost a reader
        rep = tr.replay_read(self.table.partition_map())
        out.update({
            "cdc.read.levels_max": rep["levels_max"],
            "cdc.read.files": rep["files"],
            "cdc.read.bytes_read": rep["bytes"],
            "cdc.read.parquet_s": rep["parquet_s"],
            "cdc.read.merge_s": rep["merge_s"],
            "cdc.read.rows_in_per_out": rep["rows_in"] / max(1, rep["rows_out"]),
        })
        return out


def _collect(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    from docetl_ray.util import collect

    return collect(res)


class QueryMix(Workload):
    """Passes over the fixed operator query list; each result is compared
    with DuckDB running the query's ``oracle_sql()`` on the same tables."""

    # one warm-up pass costs about as much as a measured one
    warm_repeats = 1

    def __init__(self, *a):
        super().__init__(*a)
        import __ray_entry__

        self.queries = __ray_entry__.queries()
        self.want = {q: pq.read_table(os.path.join(self.spec["oracle_dir"], f"{q}.parquet"))
                     for q in QUERIES}

    def warm(self, i):
        tables = self.path(self.layout["warm_tables"])
        for q in QUERIES:
            _collect(self.queries[q](tables))

    def phase(self, seconds, index, clock):
        tables = self.path(self.layout["tables"])
        ph = Phase(extra={"per_query": {q: [] for q in QUERIES}, "passes": 0})
        ref_prev = clock.tick()
        deadline = time.perf_counter() + seconds
        while not ph.extra["passes"] or time.perf_counter() < deadline:
            done = []
            for q in QUERIES:
                self.ledger.attempted += 1
                self.ledger.outputs += 1
                t0 = time.perf_counter()
                try:
                    got = _collect(self.queries[q](tables))
                except Exception as e:  # a failing query is counted, the mix goes on
                    self.ledger.fail(f"{q}: {type(e).__name__}: {e}")
                    continue
                dt = time.perf_counter() - t0
                done.append(dt)
                ph.items += 1
                ph.extra["per_query"][q].append(dt)
                self.ledger.check(q, result_mismatch(got, self.want[q]))
            ref = clock.tick()
            deadline += ref
            for dt in done:
                ph.add(dt, (ref_prev + ref) / 2)
            ref_prev = ref
            ph.extra["passes"] += 1
        return ph

    def layers(self, tracer, ph):
        passes = ph.extra["passes"]
        ex = tracer.named("exchange_map_groups")
        out = {f"q.{q}_s": tr.median(v) for q, v in ph.extra["per_query"].items()}
        out["stages.util_ray.exchange_calls"] = len(ex) / passes
        out["stages.util_ray.exchange_s"] = sum(s["end"] - s["start"] for s in ex) / passes
        return out

    def oracle_s(self):
        return self.spec["oracle"]["duckdb_s"]


WORKLOADS = {
    "backfill_merge": BackfillMerge,
    "tail_delta": TailDelta,
    "query_mix": QueryMix,
}
