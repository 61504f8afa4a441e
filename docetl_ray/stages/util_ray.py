"""Ray-side helpers shared by stages."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant


from collections import OrderedDict
from functools import lru_cache

_BROADCAST_CACHE: "OrderedDict[str, object]" = OrderedDict()
# A zero-copy ``ray.get`` of a numpy-bearing object keeps its plasma
# object PINNED for as long as the Python view lives, so an UNBOUNDED
# per-worker cache turns repeated pipeline invocations into monotonic
# object-store pressure: every repeat's ``ray.put`` stays pinned in every
# worker that touched it, the store fills, and ALL later queries in the
# session degrade through spilling (measured: back-to-back minhash runs
# grew 6.6s -> 38s and slowed the following ANN query 3x).  A small LRU
# covers every concurrent broadcast one pipeline legitimately uses while
# unpinning finished pipelines' objects on eviction.
_BROADCAST_CACHE_MAX = 8


def broadcast_cached(ref):
    """Per-worker-process bounded LRU for ``ray.put`` broadcast objects:
    the first task on a worker pays one zero-copy ``ray.get``; later
    batches hit the dict.  Use from STATELESS ``map_batches`` functions
    instead of an actor pool when the only state is a broadcast object
    (actor pools pay seconds of process startup per invocation)."""
    import ray

    key = ref.hex()
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE.move_to_end(key)
        return _BROADCAST_CACHE[key]
    val = ray.get(ref)
    _BROADCAST_CACHE[key] = val
    while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.popitem(last=False)
    return val


def arrow_refs(ds) -> list:
    """``ds.to_arrow_refs()`` without the hidden DOUBLE execution: on a
    non-materialized dataset Ray 2.49's ``to_arrow_refs`` runs the full
    plan and then re-executes it behind a ``limit(1)`` schema probe
    (observed on both arrow- and pandas-block pipelines).  Materializing
    first makes both reads hit the cached bundle — one execution, and
    the blocks were going to live in the object store either way."""
    return list(ds.materialize().to_arrow_refs())


_CLOSURE_BCAST_THRESHOLD = 4 * 1024 * 1024

# the exchange's bytes per task: where the split phase's chunk target
# starts, and what the reduce side packs partitions up to (``_pack``)
_TARGET_BYTES = 32 << 20


def closure_broadcast(obj, *, threshold: int = _CLOSURE_BCAST_THRESHOLD):
    """Broadcast ``obj`` to stateless map tasks: returns a zero-arg getter
    to call inside the UDF.

    Small objects ride the serialized closure directly (cheapest — one
    copy in the task spec).  Large objects go through ONE ``ray.put``
    with a per-worker-process cache keyed by the ref (zero-copy local
    reads, no per-batch reshipping).  Either way, no actor pool — actor
    startup costs seconds per pipeline invocation, and capturing bare
    ObjectRefs in task closures measured ~10x worse than both paths."""
    import pickle

    try:
        size = len(pickle.dumps(obj, protocol=5))
    except Exception:
        size = threshold + 1
    if size <= threshold:
        return lambda: obj
    import ray

    ref = ray.put(obj)

    def get():
        return broadcast_cached(ref)

    return get


@lru_cache(maxsize=64)
def md5_int_planes(num_planes: int, dim: int, *, tag: str, mod: int = 2001) -> np.ndarray:
    """SQL-replicable pseudo-random integer hyperplanes for sign-LSH.

    ``w[d, j] = (uint64(md5(f"{tag}:{j}:{d}")[:8]) % mod) - mod // 2`` —
    exactly ``(('0x' || substr(md5(tag || ':' || j || ':' || d), 1, 16))
    ::UBIGINT % mod) - mod // 2`` in DuckDB, so an oracle can recompute
    the planes (and therefore every bucket code) bit-for-bit.  Cached
    per process (num_planes x dim md5 calls), so a map function can
    derive them from its batch's embedding width; read-only."""
    import hashlib

    w = np.empty((dim, num_planes), dtype=np.int64)
    half = mod // 2
    for j in range(num_planes):
        for d in range(dim):
            h = int.from_bytes(
                hashlib.md5(f"{tag}:{j}:{d}".encode("utf-8")).digest()[:8], "big"
            )
            w[d, j] = (h % mod) - half
    w.setflags(write=False)
    return w


def quantized_lsh_codes(
    embs: np.ndarray, planes_int: np.ndarray, *, scale: int = 4096
) -> np.ndarray:
    """Sign-LSH bucket codes via EXACT integer arithmetic.

    Embeddings are quantized ``q = floor(v * scale + 0.5)`` (scale a
    power of two -> the float multiply is exact for float32-origin
    values; floor is exact), then ``code = bits(q @ planes_int > 0)``.
    All-integer dot products make the codes independent of summation
    order — a float dot product could flip a sign between numpy's
    pairwise/BLAS sum and a SQL engine's sequential sum.  Returns int64
    codes in [0, 2^num_planes)."""
    q = np.floor(embs * float(scale) + 0.5).astype(np.int64)
    dots = q @ planes_int  # exact: |q| <= scale * O(1), |w| <= mod/2, dims small
    bits = (dots > 0).astype(np.uint64)
    code = np.zeros(len(embs), dtype=np.uint64)
    for i in range(planes_int.shape[1]):
        code |= bits[:, i] << np.uint64(i)
    return code.astype(np.int64)


def hash_codes(batch: pa.Table, key_cols, *, seed: int = 0) -> "np.ndarray":
    """Vectorized deterministic per-row uint64 hash of ``key_cols``.

    No Python per-row loop: integer/float/bool columns hash via numpy
    mixing on the raw values; everything else via pandas'
    ``hash_pandas_object`` (C siphash, fixed key — stable across
    processes and runs).  Used for shuffle bucketing, so it only needs
    determinism + spread, not cryptographic strength.
    """
    import pandas as pd
    import pyarrow.compute as pc

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    with np.errstate(over="ignore"):
        h = np.full(batch.num_rows, np.uint64(seed) * _MIX + _MIX, dtype=np.uint64)
        for c in key_cols:
            col = batch[c]
            t = col.type
            if pa.types.is_integer(t) or pa.types.is_boolean(t):
                v = pc.cast(col, pa.int64()).combine_chunks()
                nulls = pc.is_null(v).to_numpy(zero_copy_only=False)
                arr = v.fill_null(0).to_numpy(zero_copy_only=False).astype(np.uint64)
                arr[nulls] = np.uint64(0xFFFFFFFFFFFFFFFF)
            elif pa.types.is_floating(t):
                # Cast to float64 first (float16/32 .view(uint64) raises) and
                # canonicalize -0.0 -> 0.0 (+0.0 == -0.0 but their bit
                # patterns differ, which would route equal keys to different
                # buckets while pandas merge matches them).
                raw = pc.cast(col, pa.float64()).combine_chunks()
                nulls = pc.is_null(raw).to_numpy(zero_copy_only=False)
                f = raw.fill_null(0.0).to_numpy(zero_copy_only=False) + 0.0
                arr = f.view(np.uint64).copy()
                arr[nulls] = np.uint64(0xFFFFFFFFFFFFFFFF)
            else:
                s = col.to_pandas()
                arr = pd.util.hash_pandas_object(s, index=False).to_numpy()
            # xorshift-multiply mix per column, then combine
            arr = arr ^ (arr >> np.uint64(33))
            arr = arr * _MIX
            h = (h ^ arr) * np.uint64(0xC2B2AE3D27D4EB4F)
        h ^= h >> np.uint64(29)
    return h


def bucket_codes(batch: pa.Table, key_cols, num_buckets: int) -> "np.ndarray":
    """int32 bucket ids ``hash(key) % num_buckets`` (vectorized)."""
    return (hash_codes(batch, key_cols) % np.uint64(num_buckets)).astype(np.int32)


def _read_blocks(read_tasks):
    """The blocks of a bare parquet read, read where they are used:
    each ``ReadTask``'s tables concatenated into one block (none for a
    task that reads no rows), the rows Ray Data's read operator would
    emit for that task, in the same order."""
    for task in read_tasks:
        tables = list(task())
        if tables:
            yield pa.concat_tables(tables, promote_options="permissive") if len(tables) > 1 \
                else tables[0]


def _run_chain(chain, blocks):
    """A peeled ``map_batches`` chain (``_peel``) run on each block,
    oldest op first, as Ray Data's map tasks run it with
    ``batch_size=None``: the block in the op's batch format, ``fn(batch,
    *fn_args, **fn_kwargs)``, the batch back into a block.  Ray calls no
    fn on an empty block, so a block that empties stops there: the chain
    drops it when a later op is left, and yields it (it carries the
    chain's output schema) when it is the last op's output."""
    from ray.data._internal.planner.plan_udf_map_op import _validate_batch_output
    from ray.data.block import BlockAccessor

    for b in blocks:
        for fn, args, kwargs, batch_format in chain:
            acc = BlockAccessor.for_block(b)
            if acc.num_rows() == 0:
                b = None
                break
            out = fn(acc.to_batch_format(batch_format), *args, **kwargs)
            _validate_batch_output(out)
            b = BlockAccessor.batch_to_block(out)
        if b is not None:
            yield b


def _split_by_part(nparts: int, part_col: str, schema, map_fn, peeled, *blocks):
    """Map side of the exchange: run the input's map work on each block,
    then split the outputs into nparts COMPACT per-partition tables.

    ``blocks`` are upstream blocks (the task's resolved block refs).
    ``peeled`` is None for an input Ray Data executed; for a peeled one
    (``_peel``) it is ``(ctx, reads, chain)``: the Dataset's
    ``DataContext``, set first as Ray Data's task wrapper does (the
    parquet reader takes its I/O retry settings from it), whether
    ``blocks`` are the ``ReadTask``s of a bare parquet read, which this
    task runs itself (``_read_blocks``), and the ``map_batches`` chain
    peeled off the input, run here per block (``_run_chain``).  Either
    way the rows reach this task without passing through the object
    store between a read or map and the split.

    The map work per block is the peeled chain, then ``map_fn`` (when
    given), which sees each non-empty block at a time as an Arrow table,
    exactly as ``map_batches(map_fn, batch_format="pyarrow")`` with its
    default ``batch_size=None`` would: a combiner placed here runs
    inside the split task, right before partitioning, with no Ray Data
    operator of its own.  Only its (pre-combined) outputs are
    concatenated; the raw blocks stay the zero-copy object-store reads
    they arrived as.

    Compactness matters: a sliced Arrow table pickles its FULL parent
    buffers (measured: a 100-row slice of a 10 MB block serializes as
    10 MB), which makes slice-based shuffles ship each block ~nparts
    times.  ``take`` materializes fresh buffers, so each row is copied
    exactly once.

    Ray emits ZERO-COLUMN blocks for fully-filtered upstreams; they are
    skipped, and ``schema`` (the wire schema, when known) types the empty
    outputs of a split that saw nothing else.

    Returns ``nparts + 1`` objects: the shards, then a list of their
    ``nbytes``, which the driver packs the reduce side by."""
    import pandas as pd

    def arrow(b):
        if isinstance(b, pd.DataFrame):
            return pa.Table.from_pandas(b, preserve_index=False)
        return b

    if peeled is not None:
        from ray.data.context import DataContext

        ctx, reads, chain = peeled
        DataContext._set_current(ctx)
        blocks = _run_chain(chain, _read_blocks(blocks) if reads else blocks)
    tabs = []
    for b in blocks:
        b = arrow(b)
        if map_fn is not None:
            if b.num_rows == 0:
                continue  # map_batches never calls its fn on an empty block
            b = arrow(map_fn(b))
        if b.num_columns > 0:
            tabs.append(b)
    if not tabs:
        empty = schema.empty_table() if schema is not None else pa.table({})
        return [empty] * nparts + [[0] * nparts]
    block = pa.concat_tables(tabs, promote_options="permissive") if len(tabs) > 1 else tabs[0]
    empty = block.slice(0, 0).combine_chunks()
    if block.num_rows == 0:
        return [empty] * nparts + [[0] * nparts]
    import pyarrow.compute as pc

    idx = pc.sort_indices(block, sort_keys=[(part_col, "ascending")])
    s = block.take(idx)
    parts = s[part_col].to_numpy(zero_copy_only=False)
    out = []
    lo = 0
    for pid in range(nparts):
        hi = int(np.searchsorted(parts, pid, side="right"))
        out.append(s.take(pa.array(np.arange(lo, hi))) if hi > lo else empty)
        lo = hi
    return out + [[t.nbytes for t in out]]


def _concat(tables, empty):
    """``tables`` concatenated in order with permissive promotion,
    zero-column ones dropped; when no typed table has a row, the first
    typed one, and ``empty`` when none is typed."""
    typed = [t for t in tables if t.num_columns > 0]
    tabs = [t for t in typed if t.num_rows > 0]
    if len(tabs) > 1:
        return pa.concat_tables(tabs, promote_options="permissive")
    return tabs[0] if tabs else typed[0] if typed else empty


def _reduce_group(fn, sizes, schemas, *shards):
    """Reduce side: concat one partition's shards per input and run
    ``fn(*groups)``, empty groups included.  ``sizes`` counts each
    input's shards; an input without shards here (no blocks upstream)
    gets an empty table of its wire schema.  Shards with no columns come
    only from an input where no block had a column and no wire schema
    was known; ``fn`` is not called when that holds for every input."""
    groups, lo = [], 0
    for n, schema in zip(sizes, schemas):
        groups.append(_concat(
            shards[lo:lo + n], schema.empty_table() if schema is not None else pa.table({})
        ))
        lo += n
    if all(g.num_columns == 0 for g in groups):
        return pa.table({})
    return fn(*groups)


def _reduce_range(fn, sizes, schemas, with_meta: bool, *shards):
    """One packed reduce task: ``_reduce_group`` for each partition of a
    contiguous range, in partition order.  ``shards`` holds the range's
    partitions one after another, ``sum(sizes)`` shards each.  Returns
    one object per partition, as the task's ``num_returns`` separate
    values; ``with_meta`` (the Dataset form), ONE block instead: the
    outputs concatenated in partition order (``_concat``), and its Ray
    Data block metadata, computed where the table already is — what
    ``from_arrow_refs`` would launch a remote task to learn."""
    if with_meta:
        from ray.data.block import BlockExecStats, BlockMetadataWithSchema

        stats = BlockExecStats.builder()
    n = sum(sizes)
    outs = [_reduce_group(fn, sizes, schemas, *shards[lo:lo + n])
            for lo in range(0, len(shards), n)]
    if not with_meta:
        return outs if len(outs) > 1 else outs[0]
    block = _concat(outs, pa.table({}))
    return block, BlockMetadataWithSchema.from_block(block, stats=stats.build())


def cluster_cpus() -> int:
    """The session's CPU count, what the exchange and ``cdc.compact``
    size their task counts by."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 8)))


def _pack(nbytes, ncpus: int) -> list:
    """The reduce side's tasks: contiguous ``(lo, hi)`` partition ranges
    sized by the bytes each partition received — the "coalesce
    post-shuffle partitions" rule of Spark's adaptive execution.

    ``k = min(nparts, max(ncpus, ceil(total / _TARGET_BYTES)))`` ranges:
    at least one per CPU while partitions last, so packing never idles
    a CPU, and more once the data outgrows one byte target per task.
    The cuts sit at even cumulative-byte points (``j * total / k``): a
    partition joins the range its byte midpoint falls in, and a cut
    that would leave a range empty moves over so every range holds at
    least one partition.  A partition holding more than ``2 / k`` of the
    bytes sits in a range of its own: its midpoint lies over ``total /
    k`` from either neighbour's."""
    from bisect import bisect_left

    n, total = len(nbytes), sum(nbytes)
    k = min(n, max(ncpus, -(-total // _TARGET_BYTES)))
    if not total:  # nothing but empty groups: spread their fn calls evenly
        nbytes, total = [1] * n, n
    range_of, acc = [], 0  # the range each partition's midpoint falls in
    for b in nbytes:
        range_of.append(min(k - 1, k * (2 * acc + b) // (2 * total)))
        acc += b
    cuts = [0]
    for j in range(1, k):
        cuts.append(min(max(bisect_left(range_of, j), cuts[-1] + 1), n - k + j))
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def _reduce_phase(fn, split_rows, schemas, packing, with_meta: bool):
    """Launch one ``_reduce_range`` task per packed range; returns the
    per-partition output refs in partition order (``with_meta``: one
    block ref per range, in range order, and their metadata refs).

    A packed task retries as a unit, re-running the partitions it had
    finished: reduce ``fn``s are deterministic (the CDC reduce writes
    each partition's file atomically), so retrying application
    exceptions is safe.  The budget is 3 retries per partition, what a
    task per partition had."""
    import ray

    reduce = ray.remote(retry_exceptions=True)(_reduce_range)
    sizes = [len(rows) for rows in split_rows]
    tables, metas = [], []
    for lo, hi in packing:
        n = hi - lo
        shards = [row[pid] for pid in range(lo, hi) for rows in split_rows for row in rows]
        out = reduce.options(
            num_returns=2 if with_meta else n, max_retries=3 * n,
        ).remote(fn, sizes, schemas, with_meta, *shards)
        if with_meta:
            tables.append(out[0])
            metas.append(out[1])
        else:
            tables += out if n > 1 else [out]
    return tables, metas


def _reproducible(op) -> bool:
    """Whether a split task can run logical op ``op`` exactly as Ray
    Data's map task would: a ``MapBatches`` of a plain callable (not a
    class, not a generator or async function) with one batch per block
    (``batch_size=None``), no constructor arguments and no remote args
    to honour."""
    import inspect

    from ray.data._internal.logical.operators.map_operator import MapBatches

    if not isinstance(op, MapBatches) or op._batch_size is not None:
        return False
    fn = op._fn
    calls = (fn, getattr(fn, "__call__", None))
    return (not isinstance(fn, type)
            and not any(inspect.isgeneratorfunction(c) or inspect.iscoroutinefunction(c)
                        or inspect.isasyncgenfunction(c) for c in calls)
            and op._fn_constructor_args is None and op._fn_constructor_kwargs is None
            and not op._ray_remote_args and op._ray_remote_args_fn is None)


def _peel(ds):
    """``(base, chain)`` when the split tasks can produce ``ds``'s
    blocks without Ray Data executing anything, else None (and ``ds``
    executes).  ``chain``: the trailing ``map_batches`` ops a split task
    reproduces (``_reproducible``) as ``(fn, fn_args, fn_kwargs,
    batch_format)``, oldest first.  ``base``: the operator under them,
    which must be a ``Read`` over Ray's ``ParquetDatasource`` (its
    ``ReadTask``s go to the split tasks) or a source operator that
    holds its output (``InputData`` of ``.materialize()``, ``FromArrow``
    of ``from_arrow`` and of ``_materialized_dataset``).  A plan already
    executed is streamed from its output.  Built on Ray Data internals;
    ``tests/test_exchange.py`` guards them."""
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data._internal.logical.interfaces import SourceOperator
    from ray.data._internal.logical.operators.read_operator import Read

    if ds._plan.has_computed_output():
        return None
    op, chain = ds._logical_plan.dag, []
    while _reproducible(op):
        chain.append((op._fn, tuple(op._fn_args or ()), dict(op._fn_kwargs or {}),
                      op._batch_format))
        op = op.input_dependencies[0]
    if isinstance(op, Read):
        return (op, chain[::-1]) if isinstance(op._datasource, ParquetDatasource) else None
    if isinstance(op, SourceOperator) and op.output_data() is not None:
        return op, chain[::-1]
    return None


def _units(ds, want_schema: bool):
    """One input of the split phase: a stream of ``(schema, [(unit,
    bytes), ...])`` steps, and the ``peeled`` argument of its split
    tasks (``_split_by_part``).

    A peeled input (``_peel``) executes nothing here.  A bare parquet
    read yields its ``ReadTask``s: the read's ``override_num_blocks``
    tasks when it was given, else one per file, each sized by its
    metadata's ``size_bytes``; with ``want_schema`` its steps carry the
    schema the read infers.  A source holding its output yields its
    bundles' block refs and schemas.  A peeled chain's steps carry no
    schema: the base's is not the wire's.  Any other Dataset executes
    and yields its bundles' block refs and schemas."""
    from ray.data._internal.logical.operators.read_operator import Read

    peeled = _peel(ds)
    if peeled is None:
        return ((b.schema, [(ref, meta.size_bytes) for ref, meta in b.blocks])
                for b in ds.iter_internal_ref_bundles()), None
    base, chain = peeled
    reads = isinstance(base, Read)
    if reads:
        source = base._datasource
        tasks = source.get_read_tasks(
            base._parallelism if base._parallelism > 0 else len(source._pq_paths)
        )
        schema = base.infer_schema() if want_schema and not chain else None
        steps = ((schema, [(t, t.metadata.size_bytes or 0)]) for t in tasks)
    else:
        steps = ((None if chain else b.schema,
                  [(ref, meta.size_bytes) for ref, meta in b.blocks])
                 for b in base.output_data())
    return steps, (ds.context, reads, chain)


def _split_phase(inputs, part_col: str, nparts: int, schemas, map_fns):
    """Map side of ``exchange_refs`` / ``exchange_map_groups``: stream
    each input's blocks into split tasks running that input's map work
    (its peeled chain, then its ``map_fn``) and wait for them.  Returns,
    per input, one row of ``nparts`` shard refs per split task (none for
    an input with no blocks), the inputs' wire schemas (None where
    unknown), and the reduce side's packing (``_pack`` over the bytes
    each partition received from all inputs).

    An input the split tasks can produce themselves (``_peel``) runs no
    Ray Data execution at all: the trailing ``map_batches`` chain over a
    bare parquet read (every WAL segment the CDC apply reads, with an
    empty chain), over a materialized Dataset or over another exchange's
    output runs inside the split tasks (``_run_chain``), and a read's
    ``ReadTask``s go to the split tasks, which read the files themselves
    (``_read_blocks``).  The calling process holds only read tasks and
    block refs, and no row passes through the object store between the
    read or map and the split.  Without a chain or ``map_fn`` the wire schema
    is the one the upstream reports (for a read, the one it infers);
    with either, the outputs type it.  Every other input is executed
    and its block refs stream in.

    Several inputs are pulled in turn, one bundle (or read task) each,
    so their executions overlap: draining one input before starting the
    next left the second upstream idle for the whole first split phase.

    Chunking, per input: consecutive blocks (read tasks) accumulate
    until they hold 1/ncpus of the byte target, then launch as one split
    task, so the first split starts early and the bytes not yet launched
    stay under the target.  The remainder at the end is cut into up to
    ncpus split tasks, so a small input still spreads its map work over
    the CPUs.  Every split task holds a contiguous run of blocks and the
    rows keep their order through the split, so each partition reaches
    ``fn`` in upstream order (the LLM reduce renders a group's rows in
    that order)."""
    import ray

    from .joins import _convert_ray_schema

    ncpus = cluster_cpus()
    # split tasks retry system failures only: an exception from
    # ``map_fn`` or the split is deterministic and surfaces at once
    split = ray.remote(num_returns=nparts + 1, max_retries=3)(_split_by_part)
    # STREAM the map stage: launch a split task per accumulated chunk of
    # upstream output as blocks arrive, so split overlaps upstream
    # execution instead of waiting behind a full materialization
    # (measured: map 34s + split 37s sequential at 10M events).  The
    # chunk target starts small (parallelism for small inputs), a chunk
    # launches at 1/ncpus of it, and it doubles every 2*ncpus launches
    # so driver-side ref count stays
    # ~O(nparts * ncpus * log(input_bytes)) — 33k flat refs at 256
    # blocks x 128 parts was a fixed ~seconds of coordination.
    schemas = list(schemas)
    split_rows: list = [[] for _ in inputs]
    size_refs: list = []  # each split task's per-partition byte counts
    acc: list = [[] for _ in inputs]  # consecutive units not yet launched
    acc_bytes = [0] * len(inputs)
    target = [_TARGET_BYTES] * len(inputs)
    streams, peeled = {}, []
    for i, ds in enumerate(inputs):
        streams[i], p = _units(ds, schemas[i] is None and map_fns[i] is None)
        # one copy of the context and chain for all of the input's split tasks
        peeled.append(None if p is None else ray.put(p))

    def launch(i, units):
        *shards, nbytes = split.remote(nparts, part_col, schemas[i], map_fns[i], peeled[i],
                                       *units)
        split_rows[i].append(shards)
        size_refs.append(nbytes)
        if len(split_rows[i]) % (ncpus * 2) == 0:
            target[i] *= 2

    # accumulate PER BLOCK, not per bundle: a materialized upstream can
    # deliver the whole dataset as one ref bundle, and packing it into a
    # single split task overflows Arrow's int32 string offsets (>2 GiB
    # concat) besides serializing the split phase
    while streams:
        for i, stream in list(streams.items()):
            step = next(stream, None)
            if step is None:
                del streams[i]
                n = min(ncpus, len(acc[i]))
                for j in range(n):
                    launch(i, acc[i][j * len(acc[i]) // n:(j + 1) * len(acc[i]) // n])
                continue
            schema, units = step
            if schemas[i] is None and map_fns[i] is None and schema is not None:
                s = _convert_ray_schema(schema)
                schemas[i] = s if len(s) else None
            for unit, nbytes in units:
                acc[i].append(unit)
                acc_bytes[i] += nbytes
                if acc_bytes[i] * ncpus >= target[i]:
                    launch(i, acc[i])
                    acc[i], acc_bytes[i] = [], 0
    # getting the (tiny) byte counts waits for the whole split phase
    # before the caller launches its reduce tasks, so the map inputs can
    # be dropped first (bounds peak object-store footprint to ~2x the
    # exchanged rows)
    nbytes = [sum(col) for col in zip(*ray.get(size_refs))] or [0] * nparts
    return split_rows, schemas, _pack(nbytes, ncpus)


def exchange_refs(ds, part_col: str, nparts: int, fn, *, schema=None,
                  map_fn=None) -> list:
    """Payload-safe keyed exchange: ``groupby(part).map_groups(fn)``
    expressed as a streaming two-phase task exchange.  The CDC apply and
    ``resplit`` call it; every keyed operator goes through its Dataset
    form, ``exchange_map_groups``, which shares the split phase.
    Returns one ObjectRef per partition, each holding ``fn``'s output —
    none when the upstream has no blocks.

    Why not ``ds.groupby(...)``: Ray Data's sort-based shuffle slices
    map blocks per partition, and a sliced Arrow table serializes its
    FULL parent buffers — payload-heavy rows (text/binary columns) ship
    ~nparts times.  Here split tasks cut the upstream's blocks into
    compact per-partition tables as the blocks arrive (one copy) and
    report each partition's bytes; the driver packs contiguous
    partitions into as few reduce tasks as the byte target allows (at
    least one per CPU, ``_pack``), and each reduce task concats + runs
    ``fn`` per partition of its range, in order.  The results stay in the
    object store.  The upstream executes exactly once, and most inputs
    do not execute as a Dataset at all (``_peel``): the trailing
    ``map_batches`` ops of an unexecuted input over a bare
    ``read_parquet`` (a WAL segment), a materialized Dataset or another
    exchange's output run inside the split tasks, which also run a
    read's read tasks and read the files themselves (``_split_phase``).

    ``map_fn``: the map side.  Each split task runs, per block, the
    peeled chain and then ``map_fn`` on each non-empty block the chain
    yields, before it partitions (``map_batches`` semantics with one
    batch per block, minus a Ray Data operator and its scheduling).  Put
    a per-batch combiner here and it pre-aggregates right before
    partitioning; it (or, without it, the chain) must add ``part_col``.
    A split task that loses its worker runs again, so ``map_fn`` and the
    peeled fns must be deterministic and free of side effects; their
    exceptions are not retried.

    ``part_col`` must be an int column in [0, nparts); it reaches ``fn``
    unchanged.  ``fn`` is called once per partition, on an empty group
    too, and must emit a consistent schema; a reduce task that fails
    re-runs ``fn`` on every partition of its range, so ``fn`` must be
    deterministic and its writes idempotent.  ``schema``: the wire
    schema for splits that see only empty blocks; defaults to the first
    schema the upstream reports, or with a peeled chain or a ``map_fn``
    to the schema of their outputs (the upstream's is not the wire's
    then).
    """
    split_rows, schemas, packing = _split_phase([ds], part_col, nparts, [schema], [map_fn])
    del ds
    if not split_rows[0]:
        return []
    return _reduce_phase(fn, split_rows, schemas, packing, with_meta=False)[0]


def _materialized_dataset(refs: list, metadata: list):
    """A ``MaterializedDataset`` over Arrow table refs whose block
    metadata is already known — Ray 2.49's ``from_arrow_refs`` minus its
    one ``get_table_block_metadata_schema`` task per block.  Its plan is
    executed here (Ray's fast path for a source operator that holds its
    output: no task, no executor), so consuming the Dataset starts no
    streaming executor: an executor's reference cycles kept the blocks
    alive after the iteration until Python's cyclic GC ran, and a driver
    iterating such Datasets in a loop grew ~7 MB a cycle (the CDC
    ``read_state`` of a 16-partition table).  Built from Ray Data
    internals; ``tests/test_exchange.py`` guards them."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metadata}, parent=None),
        DataContext.get_current().copy(),
    )
    ds = MaterializedDataset(
        plan, LogicalPlan(FromArrow(refs, metadata), plan._context)
    )
    plan.execute()
    return ds


def exchange_map_groups(ds, part_col: str, nparts: int, fn, *, schema=None,
                        map_fn=None):
    """``exchange_refs`` with ``fn``'s per-partition output tables as a
    Dataset (data never leaves the object store) — the form the
    operators chain on.  The Dataset has one block per packed reduce
    task (``_pack``), its range's outputs in partition order: an op
    chained on it pays a task per reduce task, not per partition.  Each
    task also returns its block's metadata, so the Dataset costs no task
    beyond the reduce side.

    ``ds`` may be a tuple of Datasets, with ``schema`` and ``map_fn``
    tuples of the same length (None entries allowed): every input goes
    through split tasks running its own peeled chain and ``map_fn``, and
    each input's map work must add
    ``part_col``, and ``fn(*groups)`` is called per partition with one
    group per input — the repartition join's co-partitioning, with no
    side column and no union.  ``hash_join``, ``asof_join``,
    ``fuzzy_join`` and ``embedding_blocked_join`` co-partition their two
    inputs this way.  An input with no rows in a partition
    arrives as an empty table of its wire schema.  When no input has a
    block, the result is an empty Dataset of the first input's schema."""
    import ray

    inputs, schemas, map_fns = [ds], [schema], [map_fn]
    if isinstance(ds, tuple):
        inputs = list(ds)
        schemas = list(schema or [None] * len(inputs))
        map_fns = list(map_fn or [None] * len(inputs))
    split_rows, schemas, packing = _split_phase(inputs, part_col, nparts, schemas, map_fns)
    del ds, inputs
    if not any(split_rows):
        from ray.data.block import BlockMetadataWithSchema

        empty = schemas[0].empty_table() if schemas[0] is not None else pa.table({})
        return _materialized_dataset(
            [ray.put(empty)], [BlockMetadataWithSchema.from_block(empty)]
        )
    tables, metas = _reduce_phase(fn, split_rows, schemas, packing, with_meta=True)
    return _materialized_dataset(tables, ray.get(metas))


def _block_nrows(t) -> int:
    return len(t) if not isinstance(t, pa.Table) else t.num_rows


def _block_with_index(t, col: str, offset: int):
    import pandas as pd

    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False)
    idx = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64))
    return t.append_column(col, idx)


def zip_with_index(ds, col: str = "_idx", *, start: int = 0):
    """Assign each row its global position in dataset order as ``col`` —
    the two-pass block-offset scan: pass 1 reads per-block row counts in
    worker tasks (blocks never leave the object store), the driver holds
    only the O(num_blocks) prefix sums, pass 2 appends the index column
    per block.  The distributed alternative to pulling a sorted dataset
    to the driver to enumerate it."""
    import ray
    import ray.data as rd

    refs = arrow_refs(ds)
    if not refs:
        return ds
    nrows = ray.remote(_block_nrows)
    counts = ray.get([nrows.remote(r) for r in refs])
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])) + start
    withidx = ray.remote(_block_with_index)
    return rd.from_arrow_refs(
        [withidx.remote(r, col, int(o)) for r, o in zip(refs, offsets)]
    )


def collect_small(ds) -> pa.Table:
    """Materialize a (small, result-sized) Dataset to one Arrow table
    (``docetl_ray.util.collect`` is this function).

    Zero-column empty blocks (Ray emits them for emptied inputs) are
    skipped; the rest are concatenated with permissive schema promotion.
    Only for results that fit on the driver — never the main input."""
    import pandas as pd
    import ray

    blocks = ray.get(arrow_refs(ds))
    tables = []
    for t in blocks:
        if isinstance(t, pd.DataFrame):  # pandas-format blocks pass through
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_columns > 0:
            tables.append(t)
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")
