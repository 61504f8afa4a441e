"""Exact distributed order statistics WITHOUT a global sort.

``ds.sort(col)`` is an all-to-all shuffle of every block — at 100 TB
that's the single most expensive primitive in the engine.  A k-th
smallest / quantile query doesn't need it: iterative histogram
refinement finds the exact rank-k element in O(log_B(range)) streaming
passes (B = 4096 bins -> 2-3 passes in practice), each pass a
map_batches ``bincount`` partial + one tiny grouped sum.  Only final
sub-bins (<= ``collect_threshold`` values each) are ever aggregated,
and ALL requested ranks refine in LOCKSTEP — a 5-quantile query costs
one minmax pass + ~2 shared histogram passes + one value-count pass,
not 5 independent refinements.

Membership across passes is defined by the BIN-INDEX CHAIN, not by
floating-point range comparisons: every worker recomputes the identical
``floor((v - lo) / width * B)`` arithmetic for each refinement level, so
float boundary rounding can never leak or drop a value between passes.
A rank whose interval stalls at ulp scale (mass concentrated on one
value) is resolved exactly by the final value-count pass.

Matches DuckDB ``quantile_disc`` (discrete quantile: the element at
1-indexed rank ``max(1, ceil(q * n))`` of the sorted multiset —
verified empirically against DuckDB), which is what the oracle checks.
Nulls/NaNs are excluded, like SQL aggregates.  Values are selected in
float64 space (exact for doubles and integers up to 2^53 — the fixture
and lake columns; wider int64 keys should use the sort path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

_NBINS = 4096


def _level_index(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Bin index of each value at one refinement level — THE membership
    arithmetic; identical everywhere (IEEE float64, same expression)."""
    width = (hi - lo) or 1.0
    return np.minimum(
        ((v - lo) / width * _NBINS).astype(np.int64), _NBINS - 1
    )


def _chain_mask(v: np.ndarray, chain) -> np.ndarray:
    m = np.ones(len(v), dtype=bool)
    for lo, hi, b in chain:
        m &= _level_index(v, lo, hi) == b
    return m


def _values(batch: pa.Table, col: str) -> np.ndarray:
    v = batch[col].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
    return v[~np.isnan(v)]


@dataclass
class _Sel:
    k_rem: int
    lo: float
    hi: float
    in_bin: int
    chain: list = field(default_factory=list)
    refining: bool = True  # False -> resolved by the final value-count


def _plan_op_names(ds) -> list[str] | None:
    """Logical-plan operator class names (root first), or None if the
    internal plan API is unavailable."""
    try:
        out = []
        stack = [ds._logical_plan.dag]
        while stack:
            op = stack.pop()
            out.append(type(op).__name__)
            stack.extend(op.input_dependencies)
        return out
    except Exception:
        return None


def _pin_threshold_default() -> int:
    """Default pin ceiling: half the cluster object store (pinning more
    than that for 3-5 passes trades spill churn for every concurrent
    stage), falling back to 8 GiB when the resource is unreported."""
    try:
        import ray

        osm = ray.cluster_resources().get("object_store_memory")
        if osm:
            return int(osm) // 2
    except Exception:
        pass
    return 8 << 30


def _auto_pin_size_estimate(ds, col: str | None = None):
    """Estimated in-memory bytes of the SINGLE column a pin would hold.
    ``size_bytes()`` on a bare read is metadata-only but estimates the
    FULL read schema; only the projected column gets pinned, so the
    estimate is scaled by the column's share — a wide table with one
    small numeric column should take the (cheap) pin instead of 3-5
    redundant re-reads.  The share comes from ONE parquet footer's
    per-column-chunk uncompressed sizes (a table dominated by the
    quantile column — e.g. a list<float> among narrow scalars — must
    NOT be divided by the column count, or the pin undershoots by up
    to ncols x and wrongly materializes past the threshold); equal
    share is the fallback when no footer is reachable."""
    try:
        est = ds.size_bytes()  # metadata-only for a bare read
    except Exception:
        return None
    if est is None:
        return None
    if col is not None:
        try:
            files = ds.input_files()
            if files:
                import pyarrow.parquet as pq

                md = pq.ParquetFile(files[0]).metadata
                tot = col_b = 0
                for rg in range(md.num_row_groups):
                    g = md.row_group(rg)
                    for ci in range(g.num_columns):
                        c = g.column(ci)
                        sz = c.total_uncompressed_size or 0
                        tot += sz
                        # nested/list columns report leaf paths like
                        # "embedding.list.element" — match the root
                        if c.path_in_schema.split(".")[0] == col:
                            col_b += sz
                if tot > 0 and col_b > 0:
                    return int(est * (col_b / tot))
        except Exception:
            pass
    try:
        sch = ds.schema(fetch_if_missing=False)
        ncols = len(sch.names) if sch is not None else 1
    except Exception:
        ncols = 1
    return est // ncols if ncols > 1 else est


def _multi_select(ds, col: str, ks: list[int] | None = None, *,
                  qs=None, collect_threshold: int,
                  pin: bool | str = "auto",
                  pin_threshold_bytes: int | None = None):
    """Exact values at 1-indexed ranks ``ks`` (sorted multiset of the
    non-null values of ``col``), all ranks refined in lockstep.  Pass
    ``qs`` instead to derive the ranks from the count the minmax pass
    itself produces (no extra pass): ``k = max(1, ceil(q * n))``."""
    from .reduces import grouped_aggregate
    from .util_ray import collect_small

    # The refinement makes 3-5 streaming passes; a lazy `ds` would
    # RE-EXECUTE its whole upstream (read + transforms) per pass, so by
    # default the one needed column is projected and pinned in the object
    # store once.  BUT pinning is itself a trade: at 10^10 rows a float64
    # column is ~80 GB across the cluster — spillable, yet the spill
    # churn taxes every concurrent stage for the whole refinement.
    # ``pin="auto"``: when the upstream is a bare (pruned) read whose
    # parquet metadata advertises a size above the threshold, SKIP the
    # materialize and let each pass re-read the pruned source — at that
    # scale 4 column-pruned reads beat pinning half the store.  Metadata
    # estimation never triggers execution (``size_bytes()`` on any
    # transformed dataset would execute it, i.e. pin exactly what auto
    # mode tries to avoid), so transformed upstreams keep the pin.
    if pin == "auto":
        pin = True
        if _plan_op_names(ds) == ["Read"]:
            est = _auto_pin_size_estimate(ds, col)
            if est is not None and est > (
                pin_threshold_bytes
                if pin_threshold_bytes is not None
                else _pin_threshold_default()
            ):
                pin = False
    try:
        names = ds.schema(fetch_if_missing=False)
        names = list(names.names) if names is not None else None
    except TypeError:
        names = None
    if names is not None and names != [col]:
        ds = ds.select_columns([col])
    if pin:
        ds = ds.materialize()

    def minmax(batch: pa.Table) -> pa.Table:
        v = _values(batch, col)
        if len(v) == 0:
            return pa.table(
                {"_g": pa.array([], pa.int8()), "lo": pa.array([], pa.float64()),
                 "hi": pa.array([], pa.float64()), "n": pa.array([], pa.int64())}
            )
        return pa.table(
            {"_g": pa.array([0], pa.int8()),
             "lo": pa.array([float(v.min())], pa.float64()),
             "hi": pa.array([float(v.max())], pa.float64()),
             "n": pa.array([len(v)], pa.int64())}
        )

    minmax.__name__ = "quantile_minmax"
    mm = collect_small(grouped_aggregate(
        ds.map_batches(minmax, batch_format="pyarrow"),
        ["_g"], [("lo", "min", "lo"), ("hi", "max", "hi"), ("n", "sum", "n")],
    ))
    if mm.num_rows == 0:
        return {k: None for k in (ks or [])}, 0
    lo0, hi0, n = mm["lo"][0].as_py(), mm["hi"][0].as_py(), mm["n"][0].as_py()
    if ks is None:
        ks = sorted({max(1, int(math.ceil(q * n))) for q in qs})
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"rank {k} outside [1, {n}]")

    sels = {k: _Sel(k_rem=k, lo=lo0, hi=hi0, in_bin=n) for k in ks}

    while True:
        active = {
            k: s for k, s in sels.items()
            if s.refining and s.in_bin > collect_threshold and s.lo < s.hi
        }
        if not active:
            break
        # one shared pass: per-batch histogram for EVERY active rank
        plan = [(qi, list(s.chain), s.lo, s.hi) for qi, s in enumerate(active.values())]

        def hist(batch: pa.Table, _plan=plan) -> pa.Table:
            v = _values(batch, col)
            qis, bins_, cnts_ = [], [], []
            for qi, chain, lo, hi in _plan:
                u = v[_chain_mask(v, chain)]
                if len(u) == 0:
                    continue
                c = np.bincount(_level_index(u, lo, hi), minlength=_NBINS)
                nz = np.nonzero(c)[0]
                qis.append(np.full(len(nz), qi, np.int64))
                bins_.append(nz.astype(np.int64))
                cnts_.append(c[nz].astype(np.int64))
            if not qis:
                return pa.table(
                    {"qi": pa.array([], pa.int64()), "bin": pa.array([], pa.int64()),
                     "cnt": pa.array([], pa.int64())}
                )
            return pa.table(
                {"qi": pa.array(np.concatenate(qis)),
                 "bin": pa.array(np.concatenate(bins_)),
                 "cnt": pa.array(np.concatenate(cnts_))}
            )

        hist.__name__ = "quantile_hist"
        t = collect_small(grouped_aggregate(
            ds.map_batches(hist, batch_format="pyarrow"),
            ["qi", "bin"], [("cnt", "sum", "cnt")],
        )).sort_by([("qi", "ascending"), ("bin", "ascending")])
        tq = t["qi"].to_numpy(zero_copy_only=False)
        tb = t["bin"].to_numpy(zero_copy_only=False)
        tc = t["cnt"].to_numpy(zero_copy_only=False)
        for qi, s in enumerate(active.values()):
            m = tq == qi
            bins, cnts = tb[m], tc[m]
            cum = np.cumsum(cnts)
            i = int(np.searchsorted(cum, s.k_rem))
            b = int(bins[i])
            s.k_rem -= int(cum[i - 1]) if i else 0
            s.in_bin = int(cnts[i])
            s.chain.append((s.lo, s.hi, b))
            width = (s.hi - s.lo) or 1.0
            nlo = s.lo + b * width / _NBINS
            nhi = s.lo + (b + 1) * width / _NBINS if b < _NBINS - 1 else s.hi
            if not (nlo > s.lo or nhi < s.hi):
                s.refining = False  # ulp-scale stall -> value-count pass
            else:
                s.lo, s.hi = nlo, nhi

    # final shared pass: per-batch DISTINCT value counts per rank —
    # bounded by collect_threshold for refined ranks and by the handful
    # of distinct values in an ulp-scale bin for stalled ones
    plan = [(qi, list(s.chain)) for qi, s in enumerate(sels.values())]

    def vcount(batch: pa.Table, _plan=plan) -> pa.Table:
        v = _values(batch, col)
        qis, vals_, cnts_ = [], [], []
        for qi, chain in _plan:
            u = v[_chain_mask(v, chain)]
            if len(u) == 0:
                continue
            uu, cc = np.unique(u, return_counts=True)
            qis.append(np.full(len(uu), qi, np.int64))
            vals_.append(uu)
            cnts_.append(cc.astype(np.int64))
        if not qis:
            return pa.table(
                {"qi": pa.array([], pa.int64()), "val": pa.array([], pa.float64()),
                 "cnt": pa.array([], pa.int64())}
            )
        return pa.table(
            {"qi": pa.array(np.concatenate(qis)),
             "val": pa.array(np.concatenate(vals_), pa.float64()),
             "cnt": pa.array(np.concatenate(cnts_))}
        )

    vcount.__name__ = "quantile_value_count"
    vc = collect_small(grouped_aggregate(
        ds.map_batches(vcount, batch_format="pyarrow"),
        ["qi", "val"], [("cnt", "sum", "cnt")],
    )).sort_by([("qi", "ascending"), ("val", "ascending")])
    vq = vc["qi"].to_numpy(zero_copy_only=False)
    vv = vc["val"].to_numpy(zero_copy_only=False)
    vn = vc["cnt"].to_numpy(zero_copy_only=False)
    out = {}
    for qi, (k, s) in enumerate(sels.items()):
        m = vq == qi
        cum = np.cumsum(vn[m])
        j = int(np.searchsorted(cum, s.k_rem))
        out[k] = float(vv[m][j])
    return out, n


def kth_smallest(ds, col: str, k: int, *, collect_threshold: int = 65536,
                 pin: bool | str = "auto",
                 pin_threshold_bytes: int | None = None):
    """Exact k-th smallest (1-indexed) non-null value of ``col``."""
    if k < 1:
        raise ValueError("k is 1-indexed")
    out, _n = _multi_select(ds, col, [k], collect_threshold=collect_threshold,
                            pin=pin, pin_threshold_bytes=pin_threshold_bytes)
    return out[k]


def quantiles(ds, col: str, qs, *, collect_threshold: int = 65536,
              pin: bool | str = "auto",
              pin_threshold_bytes: int | None = None):
    """Discrete quantiles (DuckDB ``quantile_disc`` semantics) as a
    pyarrow Table ``(q, value)``.  All quantiles share every scan."""
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    vals, n = _multi_select(ds, col, qs=qs, collect_threshold=collect_threshold,
                            pin=pin, pin_threshold_bytes=pin_threshold_bytes)
    if n == 0:
        return pa.table(
            {"q": pa.array([float(q) for q in qs], pa.float64()),
             "value": pa.array([None] * len(qs), pa.float64())}
        )
    return pa.table(
        {"q": pa.array([float(q) for q in qs], pa.float64()),
         "value": pa.array(
             [vals[max(1, int(math.ceil(q * n)))] for q in qs], pa.float64()
         )}
    )
