"""The keyed exchange, ``util_ray.exchange_refs``: the one shuffle behind
the CDC apply, ``resplit`` and (as its Dataset form
``exchange_map_groups``) every keyed operator.

Organised by component: the exchange called directly, its reduce side
(partitions packed into tasks by bytes), its map side (``map_fn``, run
inside the split tasks), the bucketed operators built on it
(``grouped_map``), and the CDC apply / resplit."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from docetl_ray import synth
from docetl_ray.cdc import LakeTable, apply_events, read_state, replay_oracle, resplit
from docetl_ray.cdc.apply import url_partition
from docetl_ray.stages.util_ray import _TARGET_BYTES, _pack, exchange_map_groups, exchange_refs
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
def test_rows_reach_fn_in_upstream_order(ninputs):
    """Each split task holds a contiguous run of blocks and the split
    keeps row order, so a partition reaches fn in upstream order on the
    4 CPUs too (a round-robin deal interleaved the blocks) — per input
    when two inputs share the exchange."""
    t = pa.table({"k": list(range(800))})
    if ninputs == 1:
        ds = rd.from_arrow([t.slice(i, 50) for i in range(0, 800, 50)])
        for out in ray.get(exchange_refs(ds, "part", 3, lambda g: g, map_fn=_with_part(3))):
            ks = out["k"].to_pylist()
            assert ks == sorted(ks) and len(ks) > 200
        return
    inputs = tuple(
        rd.from_arrow([t.slice(i, step) for i in range(0, 800, step)]) for step in (50, 100)
    )
    out = exchange_map_groups(inputs, "part", 3, _tagged(), map_fn=(_with_part(3),) * 2)
    for block in ray.get(out.to_arrow_refs()):
        for i in range(2):
            ks = block.filter(pc.equal(block["input"], i))["k"].to_pylist()
            assert ks == sorted(ks) and len(ks) > 200


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
    """grouped_aggregate, llm_reduce and topk go through the keyed
    exchange or per-block work: none of them calls Dataset.groupby or
    Dataset.sort."""
    from docetl_ray.stages.llm import llm_reduce
    from docetl_ray.stages.reduces import grouped_aggregate
    from docetl_ray.stages.sample import topk

    t = pa.table({"k": [i % 3 for i in range(60)], "v": [float(i) for i in range(60)]})
    ds = rd.from_arrow([t.slice(i, 20) for i in range(0, 60, 20)])

    def boom(*args, **kwargs):
        raise AssertionError("Ray sort shuffle called")

    monkeypatch.setattr(rd.Dataset, "groupby", boom)
    monkeypatch.setattr(rd.Dataset, "sort", boom)

    agg = collect(grouped_aggregate(ds, ["k"], [("v", "sum", "s")]))
    assert sorted(agg.to_pylist(), key=lambda r: r["k"]) == [
        {"k": k, "s": float(sum(i for i in range(60) if i % 3 == k))} for k in range(3)
    ]
    red = collect(llm_reduce(ds, "k", "{{ inputs | length }}", {"n": "str"}))
    assert sorted(red["_counts_prereduce"].to_pylist()) == [20, 20, 20]
    assert collect(topk(ds, "v", 4))["v"].to_pylist() == [59.0, 58.0, 57.0, 56.0]


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
    hit = {int(p) for p in url_partition(urls, 8, version=table.partition_hash)}
    assert len(hit) < 8
    assert {int(p) for p in m["partitions"]} == hit
    files = os.listdir(os.path.join(table.root, "epochs", "epoch-0000000"))
    assert sorted(files) == sorted(f"part-{p:05d}.parquet" for p in hit)
    _assert_matches_oracle(table, ev)

    m = resplit(table, 32, tag="wide")
    hit = {int(p) for p in url_partition(urls, 32)}
    assert {int(p) for p in m["partitions"]} == hit
    files = os.listdir(os.path.join(table.root, "resplits", "wide"))
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
