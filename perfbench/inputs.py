"""Seeded benchmark inputs, their content digests, and the cached oracles.

Every input is a pure function of ``--seed`` (numpy ``default_rng``), so
two commits given the same seed read identical bytes; the run prints the
sha256 of those bytes to prove it.  Generation happens here, before any
timing, in a separate process (``python3 -m perfbench.inputs``) so that
the oracle's memory never counts against the measured driver.

Inputs are cached per (workload, seed, sizes, this file's source).  The
expensive oracles -- the pure-Python ``replay_oracle`` for CDC state and
DuckDB over ``oracle_sql()`` for queries -- are cached by the digest of
the generated bytes, never by the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
NUM_PARTITIONS = 16

#: Query list of the ``query_mix`` workload (names in ``queries()``).
QUERIES = [
    "join_hash_lineitem_orders",
    "join_semi_customers_with_orders",
    "join_anti_customers_without_orders",
    "reduce_groupby_pricing",
    "cdc_lww_latest_events",
    "asof_join_events",
    "minhash_dedup_documents",
    "resolve_fuzzy_documents",
    "dedup_exact_documents",
    "quantiles_lineitem",
    "fuzzy_join_documents",
]
QUERY_TABLES = ["customer", "orders", "lineitem", "events", "documents"]

#: Input sizes per workload; ``smoke`` is the tiny variant the tests run.
SIZES = {
    "full": {
        "backfill_merge": {"epoch_files": [8, 2], "file_events": 1500},
        # interval: about three times the mean closed-loop service time of
        # one segment, compaction included, at num_cpus=1 (~35% load), so a
        # host running at half speed does not push the open loop into
        # saturation.  A 20k-event base makes auto-compaction alternate
        # tiered and full folds.
        "tail_delta": {"base_events": 20000, "segment_events": 1000,
                       "interval_s": 1.0},
        "query_mix": {"scale": 0.5},
    },
    "smoke": {
        "backfill_merge": {"epoch_files": [2, 1], "file_events": 500},
        "tail_delta": {"base_events": 1000, "segment_events": 200,
                       "interval_s": 0.6},
        "query_mix": {"scale": 0.2},
    },
}
WARM_EVENTS = 1000
WARM_QUERY_SCALE = 0.1
CACHE_ENTRIES = 16  # per cache directory, most recently used first

_SYL = ["ka", "lo", "mi", "nu", "pe", "ra", "si", "to"]
VOCAB = np.array([a + b + c for a in _SYL for b in _SYL for c in _SYL[:1]]
                 + [a + b for a in _SYL for b in _SYL[:4]], dtype=object)
LANGS = ["en", "de", "fr", "es", "zh"]


def tail_segments(sizes: dict, seconds: int, phases: int) -> int:
    """Segments the open loop schedules: one per interval for ``seconds``,
    per measured phase."""
    return phases * max(1, int(seconds / sizes["interval_s"]))


# -- WAL events ---------------------------------------------------------------

def wal_events(seed: int, n: int, *, stream: int = 0) -> pa.Table:
    """``n`` WAL events with lsn 1..n: 60% inserts of new pages, 30%
    updates and 10% deletes of earlier pages (cubic skew toward the oldest,
    every 500th page on one hot url), 5% out-of-order timestamps, html of
    40-200 words with occasional ``<script>`` blocks and entities."""
    rng = np.random.default_rng([seed, stream])
    lsn = np.arange(1, n + 1, dtype=np.int64)
    r = rng.random(n)
    op = np.where(r < 0.6, 0, np.where(r < 0.9, 1, 2))
    op[0] = 0
    is_ins = op == 0
    before = np.cumsum(is_ins) - is_ins
    old = (before * rng.random(n) ** 3).astype(np.int64)
    page = np.where(is_ins, before, old)
    ts = BASE_TS_US + lsn * 1_000_000
    late = rng.random(n) < 0.05
    ts = np.where(late, ts - rng.integers(1, 3600, n) * 1_000_000, ts)

    nwords = rng.integers(40, 200, n)
    words = VOCAB[rng.integers(0, len(VOCAB), int(nwords.sum()))]
    extra = rng.random(n)
    html: list[bytes | None] = []
    urls, langs = [], []
    off = 0
    for i in range(n):
        p = int(page[i])
        urls.append("https://hot.example/" if p % 500 == 0
                    else f"https://site{p % 97}.example/p/{p}")
        k = int(nwords[i])
        body = " ".join(words[off:off + k])
        off += k
        if op[i] == 2:
            html.append(None)
            langs.append(None)
            continue
        if extra[i] < 0.1:
            body = "<script>var x = 1;</script>" + body
        elif extra[i] < 0.2:
            body = body + " &amp; more &lt;here&gt;"
        html.append(
            f"<html><head><title>P{p}</title></head><body><p>{body}</p>"
            f"<p>v{lsn[i]}</p></body></html>".encode()
        )
        langs.append(LANGS[p % 5])
    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(np.array(["insert", "update", "delete"])[op], pa.string()),
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "lang": pa.array(langs, pa.string()),
    })


# -- query tables ---------------------------------------------------------------

def _doc_text(rng, n_words: int) -> str:
    return " ".join(VOCAB[rng.integers(0, len(VOCAB), n_words)])


def query_tables(seed: int, scale: float) -> dict[str, pa.Table]:
    """TPC-H-style customer/orders/lineitem plus events and documents with
    the columns the query list reads.  10% of customers place no order (so
    the anti join is non-empty), 2% of lineitems reference no order, and
    documents carry exact duplicates and one-word-edit near duplicates
    across the doc_id 250 split that ``fuzzy_join_documents`` uses."""
    rng = np.random.default_rng([seed, 7])
    n_c, n_o, n_l = int(1500 * scale), int(15000 * scale), int(60000 * scale)
    n_e, n_d = int(10000 * scale), max(260, int(500 * scale))
    day = 86_400_000_000
    seg = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    prio = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
    out = {
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_c), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_c)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_c), pa.int32()),
            "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_c), 2)),
            "c_mktsegment": pa.array(seg[rng.integers(0, 5, n_c)]),
        }),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(n_o), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, int(n_c * 0.9), n_o), pa.int64()),
            "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_o)]),
            "o_totalprice": pa.array(np.round(rng.uniform(1000, 500000, n_o), 2)),
            "o_orderdate": pa.array(
                694_224_000_000_000 + rng.integers(0, 2500, n_o) * day,
                pa.timestamp("us")),
            "o_orderpriority": pa.array(prio[rng.integers(0, 5, n_o)]),
        }),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(0, int(n_o * 1.02), n_l), pa.int64()),
            "l_partkey": pa.array(rng.integers(0, 2000, n_l), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, 100, n_l), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_l), pa.int32()),
            "l_quantity": pa.array(rng.integers(1, 51, n_l).astype(np.float64)),
            "l_extendedprice": pa.array(np.round(rng.uniform(900, 100000, n_l), 2)),
            "l_discount": pa.array(np.round(rng.integers(0, 11, n_l) / 100, 2)),
            "l_tax": pa.array(np.round(rng.integers(0, 9, n_l) / 100, 2)),
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_l)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_l)]),
            "l_shipdate": pa.array(
                694_224_000_000_000 + rng.integers(0, 2600, n_l) * day,
                pa.timestamp("us")),
        }),
        "events": pa.table({
            "event_id": pa.array(np.arange(n_e), pa.int64()),
            "ts": pa.array(BASE_TS_US + rng.integers(0, 30 * day, n_e),
                           pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 150, n_e), pa.int64()),
            "event_type": pa.array(np.array(
                ["click", "error", "purchase", "signup", "view"])[rng.integers(0, 5, n_e)]),
            "value": pa.array(np.round(rng.uniform(0, 100, n_e), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_e)]),
        }),
    }
    texts: list[str] = []
    kind = rng.random(n_d)
    for i in range(n_d):
        if i > 20 and kind[i] < 0.03:
            texts.append(texts[int(rng.integers(0, i))])  # exact duplicate
        elif i > 20 and kind[i] < 0.10:
            words = texts[int(rng.integers(0, i))].split(" ")
            words[int(rng.integers(0, len(words)))] = str(VOCAB[int(rng.integers(0, len(VOCAB)))])
            texts.append(" ".join(words))  # one-word edit
        else:
            texts.append(_doc_text(rng, int(rng.integers(10, 60))))
    out["documents"] = pa.table({
        "doc_id": pa.array(np.arange(n_d), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(np.array(LANGS)[rng.integers(0, 5, n_d)]),
        "source": pa.array([f"src{i % 20}" for i in range(n_d)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    return out


# -- cache, digests, oracles ------------------------------------------------

def _files_digest(root: str, rels: list[str]) -> str:
    h = hashlib.sha256()
    for rel in sorted(rels):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _write(root: str, rel: str, t: pa.Table) -> str:
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)
    return rel


def _split(t: pa.Table, counts: list[int]) -> list[pa.Table]:
    out, lo = [], 0
    for c in counts:
        out.append(t.slice(lo, c))
        lo += c
    return out


def _generate(workload: str, seed: int, sizes: dict, seconds: int, phases: int,
              d: str) -> dict:
    """Write the workload's inputs under ``d``; return their layout."""
    layout: dict = {"warm": _write(d, "warm.parquet",
                                   wal_events(seed, WARM_EVENTS, stream=1))}
    if workload == "query_mix":
        for sub, scale in (("tables", sizes["scale"]), ("warm_tables", WARM_QUERY_SCALE)):
            for name, t in query_tables(seed, scale).items():
                _write(d, f"{sub}/{name}.parquet", t)
        layout.update(tables="tables", warm_tables="warm_tables")
        return layout
    if workload == "backfill_merge":
        files = sizes["epoch_files"]
        ev = wal_events(seed, sum(files) * sizes["file_events"])
        parts = _split(ev, [sizes["file_events"]] * sum(files))
        epochs, k = [], 0
        for e, nf in enumerate(files):
            epochs.append([_write(d, f"e{e}/part-{j:03d}.parquet", parts[k + j])
                           for j in range(nf)])
            k += nf
        layout["epochs"] = epochs
        layout["checkpoints"] = [ev.num_rows]
    elif workload == "tail_delta":
        nseg = tail_segments(sizes, seconds, phases)
        per_phase = nseg // phases
        base = sizes["base_events"]
        ev = wal_events(seed, base + nseg * sizes["segment_events"])
        parts = _split(ev, [base] + [sizes["segment_events"]] * nseg)
        layout["base"] = [_write(d, "base/part-000.parquet", parts[0])]
        layout["segments"] = [_write(d, f"seg/seg-{i:04d}.parquet", p)
                              for i, p in enumerate(parts[1:])]
        layout["checkpoints"] = [base + (p + 1) * per_phase * sizes["segment_events"]
                                 for p in range(phases)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return layout


def _all_files(d: str) -> list[str]:
    out = []
    for dirpath, _, names in os.walk(d):
        for n in names:
            if n.endswith(".parquet"):
                out.append(os.path.relpath(os.path.join(dirpath, n), d))
    return out


def _cdc_oracle(d: str, layout: dict) -> dict:
    """Replay-oracle digests of the state after each checkpoint's prefix of
    the WAL (with and without tombstones), and the oracle's own time."""
    from docetl_ray.cdc import replay_oracle

    from perfbench.checks import state_digest

    files = [f for key in ("base", "segments") for f in layout.get(key, [])]
    files += [f for ep in layout.get("epochs", []) for f in ep]
    ev = pa.concat_tables([pq.read_table(os.path.join(d, f)) for f in files])
    out = {"checkpoints": [], "replay_s": 0.0, "replay_events": 0}
    for n in layout["checkpoints"]:
        t0 = time.perf_counter()
        full = replay_oracle(ev.slice(0, n), include_tombstones=True)
        out["replay_s"] += time.perf_counter() - t0
        out["replay_events"] += n
        live = full.filter(pc.invert(full["_deleted"]))
        out["checkpoints"].append({"events": n, "with_tombstones": state_digest(full),
                                   "live": state_digest(live)})
    return out


def _query_oracle(d: str, layout: dict, odir: str) -> dict:
    import duckdb

    from __ray_entry__ import oracle_sql

    sql = oracle_sql()
    con = duckdb.connect()
    for t in QUERY_TABLES:
        path = os.path.join(d, layout["tables"], f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    t0 = time.perf_counter()
    rows = {}
    for q in QUERIES:
        want = con.execute(sql[q]).fetch_arrow_table()
        pq.write_table(want, os.path.join(odir, f"{q}.parquet"))
        rows[q] = want.num_rows
    con.close()
    return {"duckdb_s": time.perf_counter() - t0, "rows": rows}


def _publish(tmp: str, final: str) -> None:
    try:
        os.rename(tmp, final)
    except OSError:  # another run published the same content first
        shutil.rmtree(tmp, ignore_errors=True)


def _prune(d: str, keep: int = CACHE_ENTRIES) -> None:
    """Keep the ``keep`` most recently used entries under ``d``."""
    entries = sorted((os.path.join(d, e) for e in os.listdir(d) if ".tmp-" not in e),
                     key=os.path.getmtime, reverse=True)
    for e in entries[keep:]:
        shutil.rmtree(e, ignore_errors=True)


def prepare(root: str, workload: str, seed: int, *, smoke: bool, seconds: int,
            phases: int) -> dict:
    """Generate (or reuse) the inputs and their oracle; return a spec the
    run reads: absolute input paths, the inputs' sha256 and the oracle."""
    sizes = SIZES["smoke" if smoke else "full"][workload]
    with open(__file__, "rb") as f:
        src = hashlib.sha256(f.read()).hexdigest()
    key_src = json.dumps([workload, seed, sizes, seconds, phases, src], sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:20]
    cache = os.path.join(root, ".perfbench_cache")
    d = os.path.join(cache, "inputs", f"{workload}-{seed}-{key}")
    generated = False
    if not os.path.exists(os.path.join(d, "layout.json")):
        tmp = f"{d}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        layout = _generate(workload, seed, sizes, seconds, phases, tmp)
        layout["sha256"] = _files_digest(tmp, _all_files(tmp))
        with open(os.path.join(tmp, "layout.json"), "w") as f:
            json.dump(layout, f)
        _publish(tmp, d)
        generated = True
    with open(os.path.join(d, "layout.json")) as f:
        layout = json.load(f)

    odir = os.path.join(cache, "oracle", f"{workload}-{layout['sha256'][:32]}")
    if not os.path.exists(os.path.join(odir, "oracle.json")):
        tmp = f"{odir}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        if workload == "query_mix":
            oracle = _query_oracle(d, layout, tmp)
        else:
            oracle = _cdc_oracle(d, layout)
        with open(os.path.join(tmp, "oracle.json"), "w") as f:
            json.dump(oracle, f)
        _publish(tmp, odir)
    with open(os.path.join(odir, "oracle.json")) as f:
        oracle = json.load(f)
    for used in (d, odir):
        os.utime(used)
        _prune(os.path.dirname(used))
    return {"dir": d, "oracle_dir": odir, "layout": layout, "oracle": oracle,
            "sizes": sizes, "generated": generated}


if __name__ == "__main__":
    args = json.loads(sys.argv[1])
    spec = prepare(**args)
    print(json.dumps(spec))
