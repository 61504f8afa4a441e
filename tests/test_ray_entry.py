"""Pre-flight of the driver contract: every queries() entry runs at
sf0.01; SQL-expressible ones match their DuckDB oracle (row count +
columns + order-insensitive values)."""

import math

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.01"

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _duck(sql):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(sql).fetch_arrow_table()


def _as_table(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    from docetl_ray.util import collect

    return collect(res)


def _norm(t: pa.Table) -> pd.DataFrame:
    df = t.select(sorted(t.column_names)).to_pandas()
    for c in df.columns:
        if df[c].dtype == object and df[c].map(lambda x: isinstance(x, bytes)).any():
            df[c] = df[c].map(lambda b: b.hex() if isinstance(b, bytes) else b)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _values_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None or (isinstance(a, float) and math.isnan(a)):
            return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b

QUERIES = sorted(entrymod.queries())
ORACLES = entrymod.oracle_sql()


@pytest.mark.parametrize("name", QUERIES)
def test_query_runs_and_matches_oracle(name):
    fn = entrymod.queries()[name]
    res = _as_table(fn(SF))
    assert res.num_rows >= 0
    sql = ORACLES.get(name)
    if sql is None:
        assert res.num_rows > 0, f"rows-only query {name} returned empty"
        return
    want = _duck(sql)
    assert sorted(res.column_names) == sorted(want.column_names), (
        f"{name}: columns {sorted(res.column_names)} != {sorted(want.column_names)}"
    )
    got_df, want_df = _norm(res), _norm(want)
    assert len(got_df) == len(want_df), f"{name}: {len(got_df)} != {len(want_df)} rows"
    for c in got_df.columns:
        ga, wa = got_df[c].tolist(), want_df[c].tolist()
        bad = [
            (x, y) for x, y in zip(ga, wa) if not _values_equal(x, y)
        ][:3]
        assert not bad, f"{name}: column {c} differs, e.g. {bad}"


def test_entry_smoke():
    res = entrymod.entry()
    t = _as_table(res)
    assert t.num_rows > 0
    assert {"url", "warc_ts", "lsn", "text", "lang"} <= set(t.column_names)


def _launches(monkeypatch) -> list:
    """The names of the remote functions the driver launches, in order
    (Ray Data's map and read tasks included)."""
    from ray.remote_function import RemoteFunction

    names, real = [], RemoteFunction._remote

    def counted(self, *args, **kwargs):
        names.append(self._function.__name__)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    return names


@pytest.mark.parametrize("name", ["dedup_exact_documents", "resolve_fuzzy_documents"])
def test_op_chained_on_an_exchange_pays_per_reduce_task(monkeypatch, name):
    """The ``select_columns`` after dedup_exact's and resolve_fuzzy's
    32-partition exchange runs one map task per block of the exchange's
    Dataset, and that Dataset has one block per packed reduce task: no
    more ``_map_task``s launch after the exchange than it has reduce
    tasks (32 before the blocks were fused)."""
    names = _launches(monkeypatch)
    entrymod.queries()[name](SF).materialize()
    reduces = names.count("_reduce_range")
    assert 0 < reduces < 32
    assert names[names.index("_reduce_range"):].count("_map_task") <= reduces


def test_cdc_apply_and_auto_compaction_run_no_ray_data_operator(tmp_path, monkeypatch):
    """An epoch applied from a bare ``read_parquet`` of its WAL files
    launches only the exchange's split and reduce tasks (the split tasks
    read the files; no Ray Data read operator runs), and a delta-mode
    auto-compaction launches only its fold tasks."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events
    from docetl_ray.cdc.apply import AUTO_COMPACT_LEVELS

    def wal(epoch: int, nfiles: int) -> list:
        paths = []
        for i in range(nfiles):
            paths.append(str(tmp_path / f"wal-{epoch}-{i}.parquet"))
            pq.write_table(synth.events_table((epoch * nfiles + i) * 300, 300), paths[-1])
        return paths

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    names = _launches(monkeypatch)
    # building the read samples its files (``_sample_fragment`` tasks)
    events = rd.read_parquet(wal(0, 3))
    names.clear()
    apply_events(table, events, epoch=0, mode="merge")
    assert set(names) == {"_split_by_part", "_reduce_range"}

    for epoch in range(1, AUTO_COMPACT_LEVELS + 1):
        events = rd.read_parquet(wal(epoch, 1))
        names.clear()
        apply_events(table, events, epoch=epoch, mode="delta")
    assert table.manifest()["compactions"] == [f"auto-epoch-{AUTO_COMPACT_LEVELS}"]
    assert set(names) == {"_split_by_part", "_reduce_range", "_fold_partitions"}


def test_read_state_and_resplit_run_only_plain_read_tasks(tmp_path, monkeypatch):
    """On a multi-level table ``read_state``, with and without
    tombstones, launches only its packed read tasks, and ``resplit``
    only those plus the exchange's split and reduce tasks: no Ray Data
    read, ``from_items`` or ``map_batches`` task."""
    import ray.data as rd

    from docetl_ray import synth
    from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle, resplit
    from docetl_ray.util import collect

    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    for epoch in range(3):
        apply_events(table, rd.from_arrow(synth.events_table(epoch * 600, 600)),
                     epoch=epoch, mode="delta", compact_after=None)
    assert {len(p) for p in table.partition_map().values()} == {3}
    oracle = replay_oracle(synth.events_table(0, 1800))
    names = _launches(monkeypatch)
    for tombstones in (False, True):
        names.clear()
        state = collect(read_state(table, include_tombstones=tombstones))
        assert set(names) == {"_read_partitions"}
        if not tombstones:
            got = state.sort_by([("url", "ascending")])
            assert got["text"].to_pylist() == oracle["text"].to_pylist()
    names.clear()
    resplit(table, 8, tag="grow-8")
    assert set(names) == {"_read_partitions", "_split_by_part", "_reduce_range"}
