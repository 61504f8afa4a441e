"""The keyed exchange, ``util_ray.exchange_refs``: the one shuffle behind
the CDC apply, ``resplit`` and (as its Dataset form
``exchange_map_groups``) every keyed operator.

Organised by component: the exchange called directly, the peel (an
input's ``map_batches`` chain run inside the split tasks), its reduce
side (partitions packed into tasks by bytes), its map side (``map_fn``,
run inside the split tasks), the bucketed operators built on it
(``grouped_map``), the CDC apply / resplit, and the other ``util_ray``
helpers (``hash_codes``, ``arrow_refs``)."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from docetl_ray import synth
from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle, resplit
from docetl_ray.cdc.apply import url_partition
from docetl_ray.stages.util_ray import (
    _TARGET_BYTES, _pack, _peel, _read_blocks, _run_chain, exchange_map_groups,
    exchange_refs,
)
from docetl_ray.util import collect


def _with_part(nparts: int, col: str = "k"):
    """Upstream stage adding ``part = col % nparts``."""

    def add(batch: pa.Table) -> pa.Table:
        part = batch[col].to_numpy() % nparts
        return batch.append_column("part", pa.array(part, pa.int32()))

    return add


def _counter(marker: str):
    """Upstream stage that appends one line per call to ``marker`` —
    counts how many times the pipeline executed."""

    def bump(t: pa.Table) -> pa.Table:
        with open(marker, "a") as f:
            f.write("x\n")
            f.flush()
            os.fsync(f.fileno())
        return t

    return bump


def _lines(path: str) -> int:
    with open(path) as f:
        return len(f.readlines())


_FILE_ROWS = [150, 100, 0, 250, 100, 200]  # k = 0..799 in order; one file has no rows


def _bare_read(tmp_path, **kw):
    """A bare ``read_parquet`` over six files written from pandas (so
    they carry pandas metadata), with ``columns=`` and ``schema=``
    passed as ``__ray_entry__._rp`` passes them: the metadata-free file
    schema pruned to the read columns.  The exchange reads such an input
    inside its split tasks."""
    import pandas as pd
    import pyarrow.parquet as pq

    t = pa.Table.from_pandas(pd.DataFrame({
        "k": range(800), "v": [f"v{i}" for i in range(800)], "pad": 1.0,
    }), preserve_index=False)
    paths, lo = [], 0
    for i, n in enumerate(_FILE_ROWS):
        paths.append(str(tmp_path / f"wal-{i}.parquet"))
        if not os.path.exists(paths[-1]):
            pq.write_table(t.slice(lo, n), paths[-1])
        lo += n
    cols = ["k", "v"]
    schema = pq.read_schema(paths[0]).remove_metadata()
    return rd.read_parquet(paths, schema=pa.schema([schema.field(c) for c in cols]),
                           columns=cols, **kw)


def _executed(ds):
    """``ds`` executed in upstream order: the exchange then takes its
    block refs, the path every input other than a bare read takes."""
    ds.context.execution_options.preserve_order = True
    return ds.materialize()


# --- the exchange, called directly ---------------------------------------


def _summary():
    """Reduce fn reporting each group's size and columns.  (Functions
    shipped to tasks are built inside a factory: Ray pickles module-level
    test functions by reference, and workers cannot import this file.)"""

    def summary(group: pa.Table) -> pa.Table:
        return pa.table({
            "rows": pa.array([group.num_rows], pa.int64()),
            "has_part": pa.array(["part" in group.column_names]),
            "ncols": pa.array([group.num_columns], pa.int64()),
        })

    return summary


def test_exchange_single_partition():
    t = pa.table({"k": list(range(100)), "v": [str(i) for i in range(100)]})
    ds = rd.from_arrow(t).map_batches(_with_part(1), batch_format="pyarrow")
    out = collect(exchange_map_groups(ds, "part", 1, _summary()))
    assert out.to_pylist() == [{"rows": 100, "has_part": True, "ncols": 3}]


def test_exchange_more_partitions_than_keys_calls_fn_on_empty_groups():
    """Every partition's fn runs once; empty groups still carry the full
    wire schema, part column included."""
    t = pa.table({"k": [1, 1, 2, 5], "v": ["a", "b", "c", "d"]})
    ds = rd.from_arrow(t).map_batches(_with_part(8), batch_format="pyarrow")
    out = collect(exchange_map_groups(ds, "part", 8, _summary())).to_pylist()
    assert len(out) == 8
    assert sorted(r["rows"] for r in out) == [0, 0, 0, 0, 0, 1, 1, 2]
    assert all(r["has_part"] and r["ncols"] == 3 for r in out)


def test_exchange_fully_filtered_input_returns_empty_without_fn():
    def boom(group: pa.Table) -> pa.Table:
        raise AssertionError("fn must not run on a column-less input")

    t = pa.table({"k": [1, 2, 3], "part": pa.array([0, 1, 2], pa.int32())})
    out = exchange_map_groups(rd.from_arrow(t).filter(lambda r: False), "part", 4, boom)
    assert out.count() == 0


def test_exchange_text_payload_roundtrip():
    """Text and binary payloads (unicode, nulls, empty strings, large
    values) come back byte-exact; the part column passes through."""
    n = 300
    texts = [None if i % 17 == 0 else ("" if i % 13 == 0 else f"ünï {i} " * (i % 50 + 1))
             for i in range(n)]
    t = pa.table({
        "k": list(range(n)),
        "text": pa.array(texts, pa.string()),
        "blob": pa.array([bytes([i % 256]) * (i * 7 % 4000) for i in range(n)], pa.binary()),
    })
    blocks = [t.slice(i, 50) for i in range(0, n, 50)]
    ds = rd.from_arrow(blocks).map_batches(_with_part(5), batch_format="pyarrow")
    out = collect(exchange_map_groups(ds, "part", 5, lambda g: g))
    assert out.num_rows == n
    out = out.sort_by([("k", "ascending")])
    assert out["text"].to_pylist() == texts
    assert out["blob"].equals(t["blob"])
    assert out["part"].to_pylist() == [k % 5 for k in range(n)]


@pytest.mark.parametrize("ninputs", [1, 2])
def test_exchange_executes_upstream_once(tmp_path, ninputs):
    """Each input's upstream runs once, also when two inputs share the
    exchange."""
    markers = [str(tmp_path / f"execs{i}") for i in range(ninputs)]
    inputs = tuple(
        rd.range(1000, override_num_blocks=4)
        .map_batches(_counter(m), batch_format="pyarrow", batch_size=None)
        .map_batches(_with_part(3, "id"), batch_format="pyarrow")
        for m in markers
    )
    summary = _summary()
    if ninputs == 1:
        out = collect(exchange_map_groups(inputs[0], "part", 3, summary))
    else:
        out = collect(exchange_map_groups(
            inputs, "part", 3, lambda l, r: summary(pa.concat_tables([l, r]))))
    assert sum(out["rows"].to_pylist()) == 1000 * ninputs
    assert [_lines(m) for m in markers] == [4] * ninputs  # one bump per block


def test_exchange_dataset_needs_no_from_arrow_refs(monkeypatch):
    """The Dataset form is built from the reduce tasks' own block
    metadata, with no ``from_arrow_refs`` (and its one metadata task per
    block).  It rests on Ray Data internals, so this is the test to run
    first after a Ray upgrade: the result must still have one block per
    packed reduce task with its partitions in order, the right schema and
    count, and chain downstream."""
    t = pa.table({"k": list(range(500)), "v": [f"v{i}" for i in range(500)]})
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 500, 100)])
    filtered = rd.from_arrow(t).filter(lambda r: False)

    def boom(*args, **kwargs):
        raise AssertionError("from_arrow_refs called")

    monkeypatch.setattr(rd, "from_arrow_refs", boom)
    monkeypatch.setattr(rd.read_api, "from_arrow_refs", boom)
    out = exchange_map_groups(ds, "part", 6, lambda g: g, map_fn=_with_part(6))
    assert out.num_blocks() == len(_pack([1] * 6, _ncpus()))
    parts = [b["part"].to_pylist() for b in ray.get(out.to_arrow_refs())]
    assert sum(parts, []) == sorted(sum(parts, []))  # partition order, block to block
    assert out.count() == 500
    assert out.schema().names == ["k", "v", "part"]
    assert out.schema().types == [pa.int64(), pa.string(), pa.int32()]

    doubled = out.map_batches(
        lambda b: b.set_column(0, "k", pc.multiply(b["k"], 2)), batch_format="pyarrow"
    )
    both = doubled.union(out).materialize()
    assert both.count() == 1000
    ks = [k for b in both.iter_batches(batch_format="pyarrow") for k in b["k"].to_pylist()]
    assert sorted(ks) == sorted(list(range(500)) + [2 * k for k in range(500)])

    assert exchange_map_groups(filtered, "part", 4, lambda g: g).count() == 0


def test_bare_parquet_read_goes_to_split_tasks_as_read_tasks(tmp_path):
    """``_peel``, ``_read_blocks`` and ``_run_chain`` rest on Ray Data
    internals, so this is the test to run first after a Ray upgrade.  It
    guards each one the peel reads: the ``Read`` operator over
    ``ParquetDatasource`` (``_parallelism``, ``_pq_paths``,
    ``get_read_tasks``, each task's ``metadata.size_bytes``,
    ``infer_schema``); the ``MapBatches`` fields (``_fn``, ``_fn_args``,
    ``_fn_kwargs``, ``_batch_size``, ``_batch_format``, the
    ``_fn_constructor_*`` pair, ``_ray_remote_args`` and
    ``_ray_remote_args_fn``) and ``input_dependencies``; ``output_data()``
    of ``InputData`` (``.materialize()``) and ``FromArrow``
    (``from_arrow``, the exchange's own Dataset);
    ``ExecutionPlan.has_computed_output``; and the batch conversions
    ``_run_chain`` uses (``BlockAccessor.to_batch_format`` /
    ``batch_to_block``, ``_validate_batch_output``).  A read with a reproducible
    ``map_batches`` on top peels to the read and that chain; a plan
    holding its executed output is streamed from that output."""
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.logical.operators.map_operator import MapBatches
    from ray.data._internal.logical.operators.read_operator import Read

    ds = _bare_read(tmp_path)
    read, chain = _peel(ds)
    assert isinstance(read, Read) and isinstance(read._datasource, ParquetDatasource)
    assert chain == []
    assert read._parallelism == -1
    assert len(read._datasource._pq_paths) == len(_FILE_ROWS)
    tasks = read._datasource.get_read_tasks(len(_FILE_ROWS))
    assert len(tasks) == len(_FILE_ROWS)
    assert all(isinstance(t.metadata.size_bytes, int) for t in tasks)
    blocks = list(_read_blocks(tasks))
    assert [b.num_rows for b in blocks] == [n for n in _FILE_ROWS if n]
    assert pa.concat_tables(blocks)["k"].to_pylist() == list(range(800))
    assert read.infer_schema().names == ["k", "v"]

    two, _ = _peel(_bare_read(tmp_path, override_num_blocks=2))
    assert two._parallelism == 2 and len(two._datasource.get_read_tasks(2)) == 2

    # the MapBatches fields a split task reproduces
    def fn(batch, n, col="k"):
        return batch

    mapped = ds.map_batches(fn, batch_format="pandas", fn_args=(3,), fn_kwargs={"col": "v"})
    op = mapped._logical_plan.dag
    assert isinstance(op, MapBatches) and op.input_dependencies == [ds._logical_plan.dag]
    assert op._fn is fn and tuple(op._fn_args) == (3,) and op._fn_kwargs == {"col": "v"}
    assert op._batch_size is None and op._batch_format == "pandas"
    assert op._fn_constructor_args is None and op._fn_constructor_kwargs is None
    assert not op._ray_remote_args and op._ray_remote_args_fn is None
    base, chain = _peel(mapped.map_batches(fn, fn_args=(4,)))
    assert isinstance(base, Read)
    # the default batch format resolves to "numpy" when the op is built
    assert chain == [(fn, (3,), {"col": "v"}, "pandas"), (fn, (4,), {}, "numpy")]
    sized = ds.map_batches(fn, batch_size=7, fn_args=(1,))._logical_plan.dag
    assert sized._batch_size == 7
    assert ds.map_batches(fn, num_cpus=1, fn_args=(1,))._logical_plan.dag._ray_remote_args == {
        "num_cpus": 1}

    class Udf:
        def __init__(self, n):
            self.n = n

        def __call__(self, batch):
            return batch

    udf = ds.map_batches(Udf, fn_constructor_args=(1,), concurrency=1)._logical_plan.dag
    assert udf._fn is Udf and tuple(udf._fn_constructor_args) == (1,)

    # the batch conversions a split task runs a chain through: pandas in
    # and out, then a numpy dict back to an Arrow block; an empty block
    # reaches no fn
    chain = [(fn, (1,), {}, "pandas"), (lambda b: {"k": b["k"] + 1}, (), {}, "numpy")]
    out = list(_run_chain(chain, [blocks[0], blocks[0].slice(0, 0)]))
    assert len(out) == 1 and isinstance(out[0], pa.Table) and out[0].column_names == ["k"]
    assert out[0]["k"].to_pylist() == [k + 1 for k in blocks[0]["k"].to_pylist()]

    # sources that hold their output: bundles of (block ref, metadata)
    t = pa.table({"k": list(range(10))})
    for held, kind in [(rd.from_arrow([t, t]), FromArrow), (ds.materialize(), InputData),
                       (exchange_map_groups(rd.from_arrow(t), "part", 2, lambda g: g,
                                            map_fn=_with_part(2)), FromArrow)]:
        op = held._logical_plan.dag
        assert isinstance(op, kind) and isinstance(op, SourceOperator)
        bundles = op.output_data()
        assert bundles and all(isinstance(meta.size_bytes, int)
                               for b in bundles for _, meta in b.blocks)
        assert sum(ray.get(ref).num_rows for b in bundles for ref, _ in b.blocks) \
            == held.count()
        assert all(b.schema is not None for b in bundles)
        assert _peel(held.map_batches(fn, fn_args=(1,)))[0] is op

    # a plan that holds its executed output is streamed from that output
    assert not ds._plan.has_computed_output()
    assert _peel(ds) is not None
    ds._plan.execute()
    assert ds._plan.has_computed_output()
    assert _peel(ds) is None


# --- the peel: an input's map_batches chain runs in the split tasks ----


def _peel_inputs(tmp_path):
    """Factories of exchange inputs whose trailing ``map_batches`` chain
    the split tasks run (``_peel``), each with its chain length.  Every
    input adds ``part = k % 4``.  (Built inside a function: Ray pickles
    module-level test functions by reference.)"""
    import numpy as np

    add = _with_part(4)
    t = pa.table({"k": list(range(800)), "v": [f"v{i}" for i in range(800)]})

    def blocks():
        return rd.from_arrow([t.slice(i, 100) for i in range(0, 800, 100)])

    def exchanged():
        return exchange_map_groups(blocks(), "part", 3, lambda g: g.drop_columns(["part"]),
                                   map_fn=_with_part(3))

    def add_mod(batch, n, col="k"):
        return batch.append_column("part", pa.array(batch[col].to_numpy() % n, pa.int32()))

    def rename(b):
        return b.rename_columns(["key", "w"])

    def shifted(df):
        return df.assign(key=df["key"] + 800)

    def keep_first_file(b):
        return b.filter(pc.less(b["k"], 150))

    def add_rows(b):
        assert b.num_rows > 0  # Ray Data calls no fn on an empty block
        return add(b)

    def pandas_out(b):
        return add(b).to_pandas()

    def numpy_dict(batch):
        return {**batch, "part": (batch["k"] % 4).astype(np.int32)}

    def pandas_in(df):
        return df.assign(part=(df["k"] % 4).astype("int32"))

    def pa_map(ds, fn, **kw):
        return ds.map_batches(fn, batch_format="pyarrow", **kw)

    return {
        "read+map": (lambda: pa_map(_bare_read(tmp_path), add), 1),
        "materialize+map": (lambda: pa_map(blocks().materialize(), add), 1),
        "exchange+map": (lambda: pa_map(exchanged(), add), 1),
        "three maps": (lambda: pa_map(pa_map(_bare_read(tmp_path), rename).map_batches(
            shifted, batch_format="pandas"), lambda b: add(b.rename_columns(["k", "w"]))), 3),
        "filter empties blocks": (lambda: pa_map(pa_map(_bare_read(tmp_path),
                                                        keep_first_file), add_rows), 2),
        "last map empties blocks": (lambda: pa_map(pa_map(_bare_read(tmp_path), add),
                                                   keep_first_file), 2),
        "pandas out": (lambda: pa_map(blocks(), pandas_out), 1),
        "dict out": (lambda: _bare_read(tmp_path).map_batches(numpy_dict, batch_format="numpy"),
                     1),
        "pandas in": (lambda: blocks().map_batches(pandas_in, batch_format="pandas"), 1),
        "fn_args": (lambda: pa_map(blocks(), add_mod, fn_args=(4,), fn_kwargs={"col": "k"}), 1),
    }


def _exchanged_rows(ds) -> pa.Table:
    """Every row that reaches the reduce side, in ``k`` order."""
    out = collect(exchange_map_groups(ds, "part", 4, lambda g: g))
    return out.sort_by([("k", "ascending")])


@pytest.mark.parametrize("case", [
    "read+map", "materialize+map", "exchange+map", "three maps", "filter empties blocks",
    "last map empties blocks", "pandas out", "dict out", "pandas in", "fn_args",
])
def test_peeled_input_equals_executed_input(tmp_path, case):
    """The chain a split task runs gives the rows Ray Data's execution of
    the same input gives (``_executed``: its block refs stream in)."""
    make, length = _peel_inputs(tmp_path)[case]
    ds = make()
    assert len(_peel(ds)[1]) == length
    executed = _executed(make())
    assert _peel(executed) is None
    got, want = _exchanged_rows(ds), _exchanged_rows(executed)
    assert got.num_rows > 0 and got.equals(want)
    assert got["part"].to_pylist() == [k % 4 for k in got["k"].to_pylist()]


@pytest.mark.parametrize("filter_last", [False, True])
@pytest.mark.parametrize("base", ["read", "materialize"])
def test_peeled_chain_that_empties_every_block_types_as_executed(tmp_path, base, filter_last):
    """A chain that empties every block gives the executed input's empty
    result: typed by the last op's empty outputs when it is the filter,
    and untyped when an emptied block stops the chain before the map
    adding ``part``.  The base's schema (a read's inferred one, a
    materialized Dataset's bundles') never types a chain's output."""
    add = _with_part(4)

    def nothing(b):
        return b.filter(pc.less(b["k"], 0))

    def make():
        fns = (add, nothing) if filter_last else (nothing, add)
        ds = _bare_read(tmp_path)
        if base == "materialize":
            ds = ds.materialize()
        for fn in fns:
            ds = ds.map_batches(fn, batch_format="pyarrow")
        return ds

    assert len(_peel(make())[1]) == 2
    got = exchange_map_groups(make(), "part", 4, lambda g: g)
    want = exchange_map_groups(_executed(make()), "part", 4, lambda g: g)
    assert got.count() == want.count() == 0
    assert collect(got).schema == collect(want).schema
    assert collect(got).column_names == (["k", "v", "part"] if filter_last else [])


def test_peeled_chains_on_both_inputs_of_a_two_input_exchange(tmp_path):
    """Each input of the two-input form runs its own peeled chain, then
    its own ``map_fn``; the groups equal those of the executed inputs."""
    cases = _peel_inputs(tmp_path)

    def inputs(run):
        left = cases["three maps"][0]()
        right = cases["materialize+map"][0]().map_batches(
            lambda b: b.filter(pc.equal(pc.bit_wise_and(b["k"], 1), 1)), batch_format="pyarrow")
        return run(left), run(right)

    def counts(l, r):
        return pa.table({
            "part": pa.array([(l["part"].to_pylist() + r["part"].to_pylist() + [-1])[0]]),
            "nl": [l.num_rows], "nr": [r.num_rows],
            "sl": [pc.sum(l["k"]).as_py()], "sr": [pc.sum(r["k"]).as_py()],
            "has_tag": ["tag" in r.column_names],
        })

    def tag(b):
        return b.append_column("tag", pa.array([1] * b.num_rows))

    def run(pair):
        out = collect(exchange_map_groups(pair, "part", 4, counts, map_fn=(None, tag)))
        return out.sort_by([("part", "ascending")])

    peeled = inputs(lambda ds: ds)
    assert [len(_peel(ds)[1]) for ds in peeled] == [3, 2]
    got, want = run(peeled), run(inputs(_executed))
    assert got.equals(want)
    assert got["part"].to_pylist() == [0, 1, 2, 3]
    assert sum(got["nl"].to_pylist()) == 800 and sum(got["nr"].to_pylist()) == 400
    assert all(got["has_tag"].to_pylist())


def test_unpeelable_inputs_execute_with_equal_results(tmp_path):
    """A class UDF, a generator fn, ``batch_size=k``, ``num_cpus=`` and a
    ``union`` are not peeled: Ray Data executes them as before, and the
    rows match a peeled input's."""
    add = _with_part(4)
    t = pa.table({"k": list(range(800)), "v": [f"v{i}" for i in range(800)]})

    def blocks():
        return rd.from_arrow([t.slice(i, 100) for i in range(0, 800, 100)])

    class AddPart:
        def __call__(self, b):
            return add(b)

    def gen(b):
        yield add(b)

    unpeelable = {
        "class": blocks().map_batches(AddPart, batch_format="pyarrow", concurrency=1),
        "generator": blocks().map_batches(gen, batch_format="pyarrow"),
        "batch_size": blocks().map_batches(add, batch_format="pyarrow", batch_size=64),
        "num_cpus": blocks().map_batches(add, batch_format="pyarrow", num_cpus=1),
        "union": rd.from_arrow(t.slice(0, 400)).map_batches(add, batch_format="pyarrow").union(
            rd.from_arrow(t.slice(400)).map_batches(add, batch_format="pyarrow")),
    }
    want = _exchanged_rows(blocks().map_batches(add, batch_format="pyarrow"))
    assert want.num_rows == 800
    for name, ds in unpeelable.items():
        assert _peel(ds) is None, name
        assert _exchanged_rows(ds).equals(want), name


# --- the reduce side: partitions packed into tasks by bytes --------------

MiB = 1 << 20


def _pack_count(nbytes, ncpus):
    return min(len(nbytes), max(ncpus, -(-sum(nbytes) // _TARGET_BYTES)))


def _assert_cover(ranges, nparts):
    assert ranges[0][0] == 0 and ranges[-1][1] == nparts
    assert all(lo < hi for lo, hi in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("nbytes, ncpus", [
    ([MiB] * 16, 1),
    ([MiB] * 16, 4),
    ([40 * MiB] * 16, 4),
    ([200 * MiB] + [0] * 15, 1),
    ([1, 2, 3], 8),
    ([7 * MiB], 4),
])
def test_pack_ranges_are_contiguous_and_sized_by_bytes(nbytes, ncpus):
    ranges = _pack(nbytes, ncpus)
    _assert_cover(ranges, len(nbytes))
    assert len(ranges) == _pack_count(nbytes, ncpus)


def test_pack_holds_its_rule_on_seeded_inputs():
    """Random byte counts (empty, tiny and over-target partitions):
    contiguous cover, the task count, and a partition holding more than
    2/k of the bytes alone in its range."""
    import random

    rng = random.Random(11)
    for _ in range(3000):
        n, ncpus = rng.randint(1, 40), rng.randint(1, 8)
        nbytes = [rng.choice([0, 1, rng.randint(0, MiB), rng.randint(0, 100 * MiB)])
                  for _ in range(n)]
        ranges = _pack(nbytes, ncpus)
        k, total = _pack_count(nbytes, ncpus), sum(nbytes)
        _assert_cover(ranges, n)
        assert len(ranges) == k
        assert all((p, p + 1) in ranges for p, b in enumerate(nbytes) if b * k > 2 * total)


def test_pack_puts_a_partition_bigger_than_the_target_alone():
    assert _pack([10 * MiB, 40 * MiB, 10 * MiB, 10 * MiB], 1) == [(0, 1), (1, 2), (2, 4)]
    assert (7, 8) in _pack([MiB] * 7 + [100 * MiB] + [MiB] * 8, 1)


def test_pack_zero_bytes():
    assert _pack([0] * 16, 1) == [(0, 16)]
    assert _pack([0] * 16, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]
    assert _pack([0] * 3, 4) == [(0, 1), (1, 2), (2, 3)]


def _ncpus() -> int:
    return int(ray.cluster_resources()["CPU"])


def _logging_reduce(log: str):
    """Reduce fn appending ``<task id> <rows>`` to ``log`` per call and
    returning ``part`` (-1 for an empty group) and the row count."""

    def reduce(group: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{ray.get_runtime_context().get_task_id()} {group.num_rows}\n")
            f.flush()
            os.fsync(f.fileno())
        part = group["part"][0].as_py() if group.num_rows else -1
        return pa.table({"part": [part], "rows": [group.num_rows]})

    return reduce


@pytest.mark.parametrize("form", ["refs", "dataset"])
def test_packed_reduce_keeps_one_output_per_partition(tmp_path, form):
    """16 partitions on the session's 4 CPUs: ``fn`` runs once per
    partition (the 4 empty ones included) in fewer than 16 reduce tasks.
    ``exchange_refs`` returns one ref per partition, ref ``i`` holding
    partition ``i``'s output; the Dataset has one block per reduce task,
    each holding its range's outputs in partition order."""
    log = str(tmp_path / "calls")
    keys = [k for k in range(400) if k % 16 < 12]  # partitions 12-15 get no rows
    t = pa.table({"k": keys, "v": [f"v{k}" for k in keys]})
    ds = rd.from_arrow([t.slice(i, 60) for i in range(0, len(keys), 60)])
    ntasks = len(_pack([1] * 16, _ncpus()))
    if form == "refs":
        refs = exchange_refs(ds, "part", 16, _logging_reduce(log), map_fn=_with_part(16))
    else:
        out = exchange_map_groups(ds, "part", 16, _logging_reduce(log), map_fn=_with_part(16))
        assert out.num_blocks() == ntasks
        refs = out.to_arrow_refs()
    outs = [o.to_pylist() for o in ray.get(refs)]
    assert len(outs) == (16 if form == "refs" else ntasks)
    rows = [sum(1 for k in keys if k % 16 == pid) for pid in range(16)]
    assert sum(outs, []) == [{"part": pid if n else -1, "rows": n} for pid, n in enumerate(rows)]
    with open(log) as f:
        calls = [line.split() for line in f]
    assert sorted(int(n) for _, n in calls) == sorted(rows)
    assert 1 < len({task for task, _ in calls}) < 16


# --- the map side: map_fn inside the split tasks ------------------------


def _logging_map(log: str, nparts: int, col: str = "k", keep=None):
    """map_fn that appends ``<task id> <rows> <type>`` to ``log`` per
    call, then adds ``part = col % nparts`` (and keeps only the rows
    ``keep`` selects, when given)."""
    add_part = _with_part(nparts, col)

    def map_fn(batch):
        with open(log, "a") as f:
            f.write(f"{ray.get_runtime_context().get_task_id()} {batch.num_rows} "
                    f"{type(batch).__name__}\n")
            f.flush()
            os.fsync(f.fileno())
        batch = add_part(batch)
        return batch.filter(keep(batch)) if keep is not None else batch

    return map_fn


def _calls(log: str) -> list[tuple[str, int, str]]:
    with open(log) as f:
        return [(t, int(n), k) for t, n, k in (line.split() for line in f)]


def test_map_fn_runs_once_per_upstream_block(tmp_path):
    log = str(tmp_path / "calls")
    t = pa.table({"k": list(range(600)), "v": [f"v{i}" for i in range(600)]})
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 600, 100)])
    out = ray.get(exchange_refs(ds, "part", 3, _summary(), map_fn=_logging_map(log, 3)))
    assert sorted(n for _, n, _ in _calls(log)) == [100] * 6
    assert sum(o["rows"][0].as_py() for o in out) == 600
    assert all(o["has_part"][0].as_py() and o["ncols"][0].as_py() == 3 for o in out)

    # a bare parquet read: once per read task that reads rows (one per
    # file here), and the same groups as the read executed first
    log = str(tmp_path / "read_calls")
    got = ray.get(exchange_refs(_bare_read(tmp_path), "part", 3, lambda g: g,
                                map_fn=_logging_map(log, 3)))
    assert sorted(n for _, n, _ in _calls(log)) == sorted(n for n in _FILE_ROWS if n)
    assert got == ray.get(exchange_refs(_executed(_bare_read(tmp_path)), "part", 3,
                                        lambda g: g, map_fn=_with_part(3)))


def test_map_fn_sees_arrow_for_pandas_and_skips_empty_blocks(tmp_path):
    """Pandas blocks reach map_fn as Arrow tables; zero-row and
    zero-column blocks (a fully-filtered branch) never reach it, as with
    ``map_batches``."""
    import pandas as pd

    log = str(tmp_path / "calls")
    pdf = rd.from_pandas([pd.DataFrame({"k": range(i, i + 50)}) for i in (0, 50)])
    t = pa.table({"k": list(range(100, 130))})
    ds = pdf.union(
        rd.from_arrow([t, t.slice(0, 0)]),
        rd.from_arrow(t).filter(lambda r: False),
    )
    out = collect(rd.from_arrow_refs(
        exchange_refs(ds, "part", 4, lambda g: g, map_fn=_logging_map(log, 4))
    ))
    calls = _calls(log)
    assert sorted(n for _, n, _ in calls) == [30, 50, 50]
    assert {k for _, _, k in calls} == {"Table"}
    assert sorted(out["k"].to_pylist()) == list(range(130))
    assert out["part"].to_pylist() == [k % 4 for k in out["k"].to_pylist()]


def test_map_fn_filtering_every_row_gives_empty_groups_and_no_cdc_files(tmp_path):
    from docetl_ray.cdc.apply import _ApplyPartition, partial_apply

    t = pa.table({"k": list(range(200))})
    ds = rd.from_arrow([t.slice(0, 100), t.slice(100, 100)])
    drop_all = _logging_map(str(tmp_path / "calls"), 4, keep=lambda b: pc.less(b["k"], -1))
    out = [o.to_pylist()[0] for o in ray.get(
        exchange_refs(ds, "part", 4, _summary(), map_fn=drop_all))]
    assert out == [{"rows": 0, "has_part": True, "ncols": 2}] * 4

    # the CDC reduce on a fully-filtered epoch: every partition's fn runs
    # on an empty group, returns no lineage and writes nothing
    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    ev = synth.events_table(0, 500)

    def none_survive(batch):
        return partial_apply(batch.slice(0, 0), num_partitions=4)

    applier = _ApplyPartition({}, table.root, 0)
    lineage = ray.get(exchange_refs(
        rd.from_arrow([ev.slice(0, 250), ev.slice(250)]), "part", 4, applier,
        map_fn=none_survive,
    ))
    assert lineage == [[]] * 4
    assert not os.path.exists(os.path.join(table.root, "epochs"))


def test_small_input_spreads_map_fn_over_cpus(tmp_path):
    """The blocks left at the end are cut into one split task per CPU:
    an 8-block input far under the 32 MB chunk target still runs map_fn
    in as many split tasks as the session has CPUs (4)."""
    log = str(tmp_path / "calls")
    t = pa.table({"k": list(range(800))})
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 800, 100)])
    out = ray.get(exchange_refs(ds, "part", 2, _summary(), map_fn=_logging_map(log, 2)))
    assert sum(o["rows"][0].as_py() for o in out) == 800
    calls = _calls(log)
    assert len(calls) == 8
    assert len({task for task, _, _ in calls}) >= 4


def test_each_cpu_accumulator_launches_at_its_share_of_the_target(tmp_path):
    """A run of consecutive blocks launches at 1/4 of the 32 MiB chunk
    target on the 4 CPUs, so no more than the target waits unlaunched:
    32 blocks of 2 MiB run in 8 split tasks of 4 blocks, not in 4 tasks
    flushed at the end."""
    log = str(tmp_path / "calls")
    blob = b"x" * (2 << 20)
    ds = rd.from_arrow([pa.table({"k": [i], "b": [blob]}) for i in range(32)])
    out = ray.get(exchange_refs(ds, "part", 2, _summary(), map_fn=_logging_map(log, 2)))
    assert sum(o["rows"][0].as_py() for o in out) == 32
    tasks = [task for task, _, _ in _calls(log)]
    assert len(tasks) == 32
    assert sorted(tasks.count(t) for t in set(tasks)) == [4] * 8


def _tagged():
    """Reduce fn for several inputs: their groups' ``k`` columns, one
    after the other, with the index of the input each row came from."""

    def tagged(*groups) -> pa.Table:
        return pa.table({
            "input": [i for i, g in enumerate(groups) for _ in range(g.num_rows)],
            "k": [k for g in groups for k in g["k"].to_pylist()],
            "ncols": [g.num_columns for g in groups for _ in range(g.num_rows)],
        })

    return tagged


@pytest.mark.parametrize("ninputs", [1, 2])
def test_rows_reach_fn_in_upstream_order(tmp_path, ninputs):
    """Each split task holds a contiguous run of blocks and the split
    keeps row order, so a partition reaches fn in upstream order on the
    4 CPUs too (a round-robin deal interleaved the blocks) — per input
    when two inputs share the exchange.  A bare parquet read, whose
    files the split tasks read themselves, gives the groups of the same
    read executed first."""
    t = pa.table({"k": list(range(800))})
    if ninputs == 1:
        def groups(ds):
            return ray.get(exchange_refs(ds, "part", 3, lambda g: g, map_fn=_with_part(3)))

        got = groups(_bare_read(tmp_path))
        for out in groups(rd.from_arrow([t.slice(i, 50) for i in range(0, 800, 50)])) + got:
            ks = out["k"].to_pylist()
            assert ks == sorted(ks) and len(ks) > 200
        assert got == groups(_executed(_bare_read(tmp_path)))
        return
    inputs = tuple(
        rd.from_arrow([t.slice(i, step) for i in range(0, 800, step)]) for step in (50, 100)
    )
    out = exchange_map_groups(inputs, "part", 3, _tagged(), map_fn=(_with_part(3),) * 2)
    for block in ray.get(out.to_arrow_refs()):
        for i in range(2):
            ks = block.filter(pc.equal(block["input"], i))["k"].to_pylist()
            assert ks == sorted(ks) and len(ks) > 200

    def tagged(*inputs):
        return collect(exchange_map_groups(inputs, "part", 3, _tagged(),
                                           map_fn=(_with_part(3),) * 2))

    # two bare reads (one per file, and two read tasks in all) next to each
    # other, and a bare read next to an executed input
    got = tagged(_bare_read(tmp_path), _bare_read(tmp_path, override_num_blocks=2))
    for i in range(2):
        ks = got.filter(pc.equal(got["input"], i))["k"].to_pylist()
        assert sorted(ks) == list(range(800))
        for p in range(3):
            assert [k for k in ks if k % 3 == p] == list(range(p, 800, 3))
    assert got.equals(tagged(_executed(_bare_read(tmp_path)),
                             _executed(_bare_read(tmp_path, override_num_blocks=2))))
    assert got.equals(tagged(_bare_read(tmp_path),
                             _executed(_bare_read(tmp_path, override_num_blocks=2))))


def test_map_fn_exception_is_not_retried(tmp_path):
    """A split task retries only system failures: a map_fn that raises
    runs once and its error reaches the caller."""
    log = str(tmp_path / "calls")
    logged = _logging_map(log, 2)

    def broken(batch):
        logged(batch)
        raise ValueError("broken map_fn")

    ds = rd.from_arrow(pa.table({"k": list(range(10))}))
    with pytest.raises(Exception, match="broken map_fn"):
        ray.get(exchange_refs(ds, "part", 2, _summary(), map_fn=broken))
    assert len(_calls(log)) == 1


# --- several inputs: one exchange, one group per input -------------------


def test_inputs_with_different_schemas_reach_fn_as_separate_groups():
    a = pa.table({"k": list(range(20)), "s": [f"a{i}" for i in range(20)]})
    b = pa.table({"k": list(range(0, 40, 2)), "x": [float(i) for i in range(20)],
                  "y": [True] * 20})
    def fn(ga: pa.Table, gb: pa.Table) -> pa.Table:
        return pa.table({
            "a_names": [",".join(ga.column_names)], "b_names": [",".join(gb.column_names)],
            "a_rows": [ga.num_rows], "b_rows": [gb.num_rows],
            "b_keys": [sorted(gb["k"].to_pylist())],
        })

    out = collect(exchange_map_groups(
        (rd.from_arrow(a), rd.from_arrow(b)), "part", 4, fn,
        map_fn=(_with_part(4), _with_part(4)),
    )).to_pylist()
    seen = sorted(out, key=lambda r: r["b_keys"])
    assert len(seen) == 4
    assert {r["a_names"] for r in seen} == {"k,s,part"}
    assert {r["b_names"] for r in seen} == {"k,x,y,part"}
    assert sum(r["a_rows"] for r in seen) == 20 and sum(r["b_rows"] for r in seen) == 20
    assert all(k % 4 == r["b_keys"][0] % 4 for r in seen for k in r["b_keys"])


def test_inputs_without_rows_arrive_as_empty_groups_of_their_schema():
    """An input with no blocks and one that ``Dataset.filter`` emptied
    both reach fn as empty tables typed by their wire schemas, next to
    the input that has rows."""
    full = rd.from_arrow(pa.table({"k": list(range(12))}))
    no_blocks = rd.from_items([])
    filtered = rd.from_arrow(pa.table({"k": [1, 2], "v": ["a", "b"]})).filter(lambda r: False)
    s_full = pa.schema([("k", pa.int64()), ("part", pa.int32())])
    s_none = pa.schema([("k", pa.int64()), ("w", pa.float64()), ("part", pa.int32())])
    s_filt = pa.schema([("k", pa.int64()), ("v", pa.string()), ("part", pa.int32())])

    def fn(*groups) -> pa.Table:
        return pa.table({
            "rows": [[g.num_rows for g in groups]],
            "schemas": [[g.schema.to_string() for g in groups]],
        })

    out = collect(exchange_map_groups(
        (full, no_blocks, filtered), "part", 3, fn,
        schema=(s_full, s_none, s_filt), map_fn=(_with_part(3), None, None),
    )).to_pylist()
    assert len(out) == 3
    assert sorted(r["rows"][0] for r in out) == [4, 4, 4]
    assert all(r["rows"][1:] == [0, 0] for r in out)
    want = [s.to_string() for s in (s_full, s_none, s_filt)]
    assert all(r["schemas"] == want for r in out)


def test_two_inputs_single_partition():
    a = rd.from_arrow(pa.table({"k": list(range(30))}))
    b = rd.from_arrow(pa.table({"k": list(range(100, 110))}))
    out = collect(exchange_map_groups((a, b), "part", 1, _tagged(),
                                      map_fn=(_with_part(1),) * 2))
    assert out["input"].to_pylist() == [0] * 30 + [1] * 10
    assert out["k"].to_pylist() == list(range(30)) + list(range(100, 110))
    assert set(out["ncols"].to_pylist()) == {2}


def test_each_input_spreads_its_map_fn_over_cpus(tmp_path):
    """Every input's blocks go through split tasks running that input's
    map_fn, cut per input over the session's 4 CPUs."""
    logs = [str(tmp_path / f"calls{i}") for i in range(2)]
    t = pa.table({"k": list(range(800))})
    inputs = tuple(rd.from_arrow([t.slice(i, 100) for i in range(0, 800, 100)])
                   for _ in logs)
    out = collect(exchange_map_groups(
        inputs, "part", 2, _tagged(), map_fn=tuple(_logging_map(log, 2) for log in logs)))
    assert sorted(out["input"].to_pylist()) == [0] * 800 + [1] * 800
    tasks = [{task for task, _, _ in _calls(log)} for log in logs]
    assert [len(_calls(log)) for log in logs] == [8, 8]
    assert all(len(ts) >= 4 for ts in tasks)
    assert not tasks[0] & tasks[1]


# --- bucketed operators built on it -------------------------------------


def test_grouped_map_fully_filtered_input():
    from docetl_ray.stages.grouped import grouped_map

    t = pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]})
    out = grouped_map(rd.from_arrow(t).filter(lambda r: False), ["k"],
                      lambda g: g, num_partitions=4)
    assert out.count() == 0


def test_grouped_map_all_empty_groups_keeps_schema():
    """Every group yielding zero rows must still produce a result whose
    schema is derivable (the task exchange feeds all-empty bundles the
    input's wire schema)."""
    from docetl_ray.stages.grouped import grouped_map

    ds = rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]}))
    out = grouped_map(ds, ["k"], lambda g: g.iloc[0:0], num_partitions=4)
    total = sum(t.num_rows for t in ray.get(out.to_arrow_refs()))
    assert total == 0


def test_partitioned_map_all_empty_keeps_fn_schema():
    """Every partition's output empty: ``Dataset.schema()`` and
    ``collect`` still give fn's columns, with the input's types (pandas
    types an emptied string column as null).  ``to_pandas`` is not
    pinned: Ray 2.49 returns a frame without columns for any 0-row
    Dataset, ``rd.from_arrow`` of a typed empty table included."""
    from docetl_ray.stages.grouped import partitioned_map

    t = pa.table({"k": list(range(50)), "v": [f"v{i}" for i in range(50)]})
    out = partitioned_map(rd.from_arrow(t), "k", lambda df: df[df.k > 100],
                          num_partitions=8).materialize()
    assert out.count() == 0
    assert out.schema().names == ["k", "v"]
    assert out.schema().types == [pa.int64(), pa.string()]
    got = collect(out)
    assert got.num_rows == 0 and got.column_names == ["k", "v"]


def test_grouped_map_payload_roundtrip():
    """Exchange-routed grouped_map returns exactly the per-group fn
    output, across more partitions than groups and with a payload col."""
    from docetl_ray.stages.grouped import grouped_map

    ds = rd.from_arrow(
        pa.table({"k": ["a", "a", "b", "b", "b", "c"],
                  "txt": [f"t{i}" * 50 for i in range(6)],
                  "v": [5, 3, 9, 1, 7, 2]})
    )

    def pick_max(g):
        return g.sort_values("v", ascending=False).head(1)

    out = grouped_map(ds, ["k"], pick_max, num_partitions=16)
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert df["v"].tolist() == [5, 9, 2]
    assert df["txt"].tolist() == ["t0" * 50, "t2" * 50, "t5" * 50]
    assert "_gbucket" not in df.columns


def test_operators_run_without_ray_sort_shuffle(monkeypatch):
    """grouped_aggregate, llm_reduce, topk, rank's top k, fuzzy_join and
    embedding_blocked_join go through the keyed exchange or per-block
    work: none of them calls Dataset.groupby or Dataset.sort, and the two
    joins co-partition their inputs with no Dataset.union."""
    from docetl_ray.stages.fuzzy_join import embedding_blocked_join, fuzzy_join
    from docetl_ray.stages.llm import llm_reduce
    from docetl_ray.stages.rank import rank
    from docetl_ray.stages.reduces import grouped_aggregate
    from docetl_ray.stages.sample import topk

    t = pa.table({"k": [i % 3 for i in range(60)], "v": [float(i) for i in range(60)]})
    ds = rd.from_arrow([t.slice(i, 20) for i in range(0, 60, 20)])
    texts = [f"document number {i} about topic {i % 4}" for i in range(20)]
    docs = rd.from_arrow(pa.table({"id": list(range(20)), "text": texts,
                                   "emb": [[1.0, float(i % 4)] for i in range(20)]}))

    def boom(*args, **kwargs):
        raise AssertionError("Ray sort shuffle or union called")

    monkeypatch.setattr(rd.Dataset, "groupby", boom)
    monkeypatch.setattr(rd.Dataset, "sort", boom)
    monkeypatch.setattr(rd.Dataset, "union", boom)

    agg = collect(grouped_aggregate(ds, ["k"], [("v", "sum", "s")]))
    assert sorted(agg.to_pylist(), key=lambda r: r["k"]) == [
        {"k": k, "s": float(sum(i for i in range(60) if i % 3 == k))} for k in range(3)
    ]
    red = collect(llm_reduce(ds, "k", "{{ inputs | length }}", {"n": "str"}))
    assert sorted(red["_counts_prereduce"].to_pylist()) == [20, 20, 20]
    assert collect(topk(ds, "v", 4))["v"].to_pylist() == [59.0, 58.0, 57.0, 56.0]
    ranked = collect(rank(ds, criteria="v", input_keys=["v"], k=3,
                          initial_ordering_method="score", score_fn=lambda r: r["v"],
                          id_col="k", rerank_call_budget=1))
    assert sorted(ranked["v"].to_pylist()) == [57.0, 58.0, 59.0]
    fj = collect(fuzzy_join(docs, docs, left_text="text", right_text="text",
                            left_id="id", right_id="id", threshold=1.0))
    assert sorted(zip(fj["id"].to_pylist(), fj["id_right"].to_pylist())) == [
        (i, i) for i in range(20)]
    eb = collect(embedding_blocked_join(docs, docs, left_emb="emb", right_emb="emb",
                                        left_id="id", right_id="id",
                                        blocking_threshold=0.9999))
    assert sorted(zip(eb["id"].to_pylist(), eb["id_right"].to_pylist())) == sorted(
        (i, j) for i in range(20) for j in range(20) if i % 4 == j % 4)


# --- the CDC apply and resplit ------------------------------------------


def _state(table) -> pa.Table:
    return collect(read_state(table)).sort_by([("url", "ascending")])


def _assert_matches_oracle(table, ev: pa.Table):
    oracle = replay_oracle(ev)
    engine = _state(table)
    assert engine.num_rows == oracle.num_rows
    for c in ("url", "lsn", "text", "lang"):
        assert engine[c].to_pylist() == oracle[c].to_pylist(), c


def test_apply_single_partition(tmp_path):
    ev = synth.events_table(0, 1500)
    table = LakeTable(str(tmp_path / "lake"), num_partitions=1)
    m = apply_events(table, rd.from_arrow(ev), epoch=0)
    assert list(m["partitions"]) == ["0"]
    _assert_matches_oracle(table, ev)


def test_apply_empty_partitions_write_no_file(tmp_path):
    """More partitions than urls: only the partitions that received rows
    write a parquet file and get a manifest entry — for the apply and
    for a resplit to even more partitions."""
    ev = synth.events_table(0, 2000)
    urls = pc.unique(ev["url"]).to_pylist()[:3]
    ev = ev.filter(pc.is_in(ev["url"], pa.array(urls)))
    table = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    m = apply_events(table, rd.from_arrow(ev), epoch=0)
    hit = {int(p) for p in url_partition(urls, 8)}
    assert len(hit) < 8
    assert {int(p) for p in m["partitions"]} == hit
    run, = os.listdir(os.path.join(table.root, "epochs", "epoch-0000000"))
    files = os.listdir(os.path.join(table.root, "epochs", "epoch-0000000", run))
    assert sorted(files) == sorted(f"part-{p:05d}.parquet" for p in hit)
    _assert_matches_oracle(table, ev)

    m = resplit(table, 32, tag="wide")
    hit = {int(p) for p in url_partition(urls, 32)}
    assert {int(p) for p in m["partitions"]} == hit
    run, = os.listdir(os.path.join(table.root, "resplits", "wide"))
    files = os.listdir(os.path.join(table.root, "resplits", "wide", run))
    assert sorted(files) == sorted(f"part-{p:05d}.parquet" for p in hit)
    _assert_matches_oracle(table, ev)


def test_apply_executes_upstream_once(tmp_path):
    marker = str(tmp_path / "execs")
    ev = synth.events_table(0, 2000)
    blocks = [ev.slice(i, 500) for i in range(0, 2000, 500)]
    events = rd.from_arrow(blocks).map_batches(
        _counter(marker), batch_format="pyarrow", batch_size=None
    )
    table = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    apply_events(table, events, epoch=0)
    assert _lines(marker) == 4
    _assert_matches_oracle(table, ev)


# --- the other util_ray helpers: hash_codes, arrow_refs ---------------------


def test_hash_codes_float32_and_signed_zero():
    from docetl_ray.stages.util_ray import hash_codes

    t32 = pa.table({"k": pa.array([1.5, -0.0, 0.0, None], pa.float32())})
    t64 = pa.table({"k": pa.array([1.5, -0.0, 0.0, None], pa.float64())})
    h32 = hash_codes(t32, "k")  # float32 used to raise on .view(uint64)
    h64 = hash_codes(t64, "k")
    assert (h32 == h64).all()
    assert h32[1] == h32[2]  # -0.0 and 0.0 hash identically
    assert h32[3] != h32[2]  # null is distinct from zero


def test_arrow_refs_single_execution(tmp_path, ray_session):
    """util_ray.arrow_refs must execute the pipeline exactly once —
    Ray's bare to_arrow_refs re-executes it behind a limit(1) schema
    probe (the bug this helper exists to avoid)."""
    import os as _os

    from docetl_ray.stages.util_ray import arrow_refs

    marker = str(tmp_path / "execs")

    def bump(t: pa.Table) -> pa.Table:
        with open(marker, "a") as f:
            f.write("x\n")
            f.flush()
            _os.fsync(f.fileno())
        return t

    ds = rd.range(1000, override_num_blocks=4).map_batches(
        bump, batch_format="pyarrow"
    )
    refs = arrow_refs(ds)
    assert sum(t.num_rows for t in __import__("ray").get(refs)) == 1000
    with open(marker) as f:
        n = len(f.readlines())
    assert n == 4  # one bump per block, exactly one pipeline execution
