"""Benchmark of the CDC engine and its operator library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Inputs are generated from ``--seed`` (and
cached) before anything is timed; then one driver process starts Ray with
``num_cpus`` = ``nproc``, sets up the workload, measures it for
``--seconds`` and checks every output against an oracle.  Op times are
divided by a reference job timed around each op (``reference.py``), which
cancels most of a shared host's speed drift; raw seconds go to stderr.
The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` an untraced phase, a traced phase and a layer replay
run, and the per-layer metrics are printed.  Everything else goes to
stderr.  ``--smoke`` runs tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD_NAMES = ["backfill_merge", "tail_delta", "query_mix"]

#: (name, unit, better) of every end-to-end metric, printed with --trace 0.
#: Throughput and latency are in units of ``ref``, the duration of the
#: reference job timed around the measured phase (see reference.py).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_ref", "1/ref", "higher"),
    ("latency_p50_ref", "ref", "lower"),
    ("latency_p75_ref", "ref", "lower"),
    ("driver_peak_rss_mb", "MB", "lower"),
]

_QUERY_LAYERS = [
    ("q.join_hash_lineitem_orders_s", "s", "lower"),
    ("q.join_semi_customers_with_orders_s", "s", "lower"),
    ("q.join_anti_customers_without_orders_s", "s", "lower"),
    ("q.reduce_groupby_pricing_s", "s", "lower"),
    ("q.cdc_lww_latest_events_s", "s", "lower"),
    ("q.asof_join_events_s", "s", "lower"),
    ("q.minhash_dedup_documents_s", "s", "lower"),
    ("q.resolve_fuzzy_documents_s", "s", "lower"),
    ("q.dedup_exact_documents_s", "s", "lower"),
    ("q.quantiles_lineitem_s", "s", "lower"),
    ("q.fuzzy_join_documents_s", "s", "lower"),
]

#: (name, unit, better) of every per-layer metric, printed with --trace 1.
#: A layer the workload does not exercise reads 0.
PER_LAYER = [
    ("html_text.extract_s", "s", "lower"),
    ("html_text.rows", "count", "lower"),
    ("html_text.in_mb", "MB", "lower"),
    ("cdc.apply.to_state_s", "s", "lower"),
    ("cdc.apply.partial_s", "s", "lower"),
    ("cdc.apply.partial_rows_in", "count", "lower"),
    ("cdc.apply.partial_rows_out", "count", "lower"),
    ("cdc.apply.precombine_ratio", "ratio", "higher"),
    ("cdc.apply.route_s", "s", "lower"),
    ("cdc.apply.lww_s", "s", "lower"),
    ("cdc.apply.map_stage_s", "s", "lower"),
    ("cdc.apply.wall_s", "s", "lower"),
    ("cdc.apply.exchange_merge_s", "s", "lower"),
    ("cdc.apply.epoch_wall_s", "s", "lower"),
    ("cdc.apply.bytes_written", "bytes", "lower"),
    ("cdc.apply.partition_rows_skew", "ratio", "lower"),
    ("cdc.table.commit_s_p50", "s", "lower"),
    ("cdc.table.commits", "count", "higher"),
    ("cdc.table.manifest_bytes_end", "bytes", "lower"),
    ("cdc.compact.runs", "count", "lower"),
    ("cdc.compact.full_folds", "count", "lower"),
    ("cdc.compact.total_s", "s", "lower"),
    ("cdc.compact.max_s", "s", "lower"),
    ("cdc.compact.bytes_rewritten", "bytes", "lower"),
    ("cdc.write_amp", "ratio", "lower"),
    ("cdc.tail.apply_s_p50", "s", "lower"),
    ("cdc.tail.queue_wait_s_p75", "s", "lower"),
    ("cdc.tail.generator_late_s_max", "s", "lower"),
    ("cdc.tail.backlog_max", "count", "lower"),
    ("cdc.tail.segments", "count", "higher"),
    ("cdc.read.levels_max", "count", "lower"),
    ("cdc.read.files", "count", "lower"),
    ("cdc.read.bytes_read", "bytes", "lower"),
    ("cdc.read.parquet_s", "s", "lower"),
    ("cdc.read.merge_s", "s", "lower"),
    ("cdc.read.rows_in_per_out", "ratio", "lower"),
    *_QUERY_LAYERS,
    ("stages.util_ray.exchange_calls", "count", "lower"),
    ("stages.util_ray.exchange_s", "s", "lower"),
    ("host.cpu_busy_s", "s", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("host.burn_s", "s", "lower"),
    ("host.num_cpus", "count", "higher"),
    ("host.ref_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("oracle.single_thread_s", "s", "lower"),
]


def nproc() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS and the affinity
    mask, which is the CPU count this benchmark is meant to use."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True, timeout=10)
        return max(1, int(out.stdout.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


def prepare(args, phases: int) -> dict:
    """Generate or reuse the seeded inputs and oracles in a child process."""
    cfg = {"root": ROOT, "workload": args.workload, "seed": args.seed,
           "smoke": args.smoke, "seconds": args.seconds, "phases": phases}
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", json.dumps(cfg)],
        cwd=ROOT, env=os.environ.copy(), stdout=subprocess.PIPE, text=True,
        check=True, timeout=170,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def start_ray(ncpu: int) -> str | None:
    """Start a private local Ray session; returns its temp dir if it is
    inside the checkout (Ray's socket paths must stay short, so a long
    checkout path falls back to Ray's default)."""
    import ray
    from ray.data import DataContext

    tmp = os.path.join(ROOT, ".perfbench_ray")
    kw = {}
    if len(tmp) <= 40:
        kw["_temp_dir"] = tmp
    else:
        tmp = None
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return tmp


def measure(args, spec: dict, ledger, ncpu: int, start_s: float) -> dict:
    """Set up, run the measured phase(s); return the metrics to print.
    ``start_s`` is the time imports and Ray start took."""
    from perfbench import reference
    from perfbench import trace as tr
    from perfbench.workloads import WORKLOADS

    run_dir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        wl = WORKLOADS[args.workload](spec, run_dir, ledger)
        host = tr.Host()
        warm = []
        for i in range(wl.warm_repeats):
            t0 = time.perf_counter()
            wl.warm(i)
            warm.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.prestate()
        prestate_s = time.perf_counter() - t0

        clock = reference.RefClock(wl.path(wl.layout["warm"]))
        clock.tick()  # its own cold start is not a sample
        clock.samples.clear()
        host.start()
        plain = wl.phase(args.seconds, 0, clock)
        host.stop()
        raw = plain.e2e()
        e2e = {
            "setup_s": start_s + tr.median(warm) + prestate_s,
            "items_per_ref": raw["items_per_ref"],
            "latency_p50_ref": raw["latency_p50_ref"],
            "latency_p75_ref": raw["latency_p75_ref"],
            "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        ref_s = tr.median(clock.samples)
        print(f"perfbench: start {start_s:.2f}s, warm-ups "
              f"{', '.join(f'{w:.2f}' for w in warm)}s, pre-state {prestate_s:.2f}s, "
              f"reference {', '.join(f'{r:.3f}' for r in clock.samples)}s, "
              f"{len(plain.lat)} ops measured: {json.dumps(raw)}", file=sys.stderr)
        print(f"perfbench: op latencies {[round(x, 3) for x in plain.lat]}", file=sys.stderr)
        if not args.trace:
            return e2e

        tracer = tr.Tracer()
        tracer.install()
        try:
            host.start()
            traced = wl.phase(args.seconds, 1, clock)
            host.stop()
        finally:
            tracer.uninstall()
        spans = os.path.join(ROOT, ".perfbench_cache", "traces",
                             f"{args.workload}-{args.seed}.json")
        tracer.dump(spans)
        print(f"perfbench: spans written to {spans}", file=sys.stderr)
        layers = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
        layers.update(wl.layers(tracer, traced))
        layers.update({
            "host.cpu_busy_s": host.result["cpu_busy_s"],
            "host.steal_pct": host.result["steal_pct"],
            "host.burn_s": host.burn_s,
            "host.num_cpus": ncpu,
            "host.ref_s": ref_s,
            "trace.overhead_pct":
                100.0 * (traced.e2e()["latency_p50_ref"] / e2e["latency_p50_ref"] - 1.0),
            "oracle.single_thread_s": wl.oracle_s(),
        })
        return layers
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "docetl_ray", "cdc", "apply.py")):
        print(f"perfbench: no docetl_ray package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    # only the result line goes to the real stdout; libraries print to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, ROOT)
    # Ray workers must import docetl_ray and __ray_entry__ from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    t0 = time.perf_counter()
    spec = prepare(args, phases=2 if args.trace else 1)
    print(f"perfbench: inputs sha256 {spec['layout']['sha256']} "
          f"({'generated' if spec['generated'] else 'cached'}, "
          f"{time.perf_counter() - t0:.2f}s)", file=sys.stderr)

    from perfbench.workloads import Ledger

    ledger = Ledger()
    ncpu = nproc()
    t0 = time.perf_counter()
    import ray

    import __ray_entry__  # noqa: F401  (imports count toward set-up)
    import docetl_ray.cdc  # noqa: F401
    import docetl_ray.stages  # noqa: F401

    ray_tmp = start_ray(ncpu)
    start_s = time.perf_counter() - t0
    print(f"perfbench: num_cpus={ncpu}", file=sys.stderr)
    status = 0
    try:
        metrics = measure(args, spec, ledger, ncpu, start_s)
    except Exception:
        traceback.print_exc()
        ledger.fail("run aborted")
        metrics, status = {}, 1
    finally:
        ray.shutdown()
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench: {ledger.attempted} ops attempted, {ledger.failed} failed, "
          f"{ledger.checks} of {ledger.outputs} outputs checked", file=sys.stderr)
    names = [n for n, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    result = {
        "correct": (ledger.failed == 0 and status == 0
                    and ledger.checks == ledger.outputs > 0),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
