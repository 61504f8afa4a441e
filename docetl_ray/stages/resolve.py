"""Entity resolution / dedup stages: docetl ``resolve`` parity
(SURVEY.md §2.1; reference ``/root/reference/docetl/operations/resolve.py``).

- ``dedup_exact`` — the reference's exact-blocking-key short-circuit
  (``resolve.py:193-200``): hash-partition on the key(s) and keep one
  deterministic representative per group.  Scale-first: a per-batch
  pre-dedup runs before the shuffle, so duplicate-heavy data (or a hot
  key) ships at most one row per batch into the exchange.
- ``resolve_fuzzy`` — blocking + pairwise similarity + union-find
  clustering (``resolve.py:441-477``) recast deterministically: block on
  a caller-provided key, compute token-Jaccard pairwise within each
  block, union-find the matches, and rewrite every row's ``canonical``
  fields from its cluster representative (smallest tiebreak value —
  deterministic, mirrors the reference's majority-vote/LLM resolution
  step ``resolve.py:597-756``).

The union-find state lives inside the per-block ``map_groups`` task —
the Ray-native recast of the reference's in-process cluster map.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa


def dedup_exact(ds, key_cols, *, tiebreak_col: str, keep: str = "min"):
    """One row per distinct key; representative = min/max ``tiebreak_col``.

    SQL oracle: ``SELECT ... QUALIFY row_number() OVER (PARTITION BY keys
    ORDER BY tiebreak) = 1`` or group-by + arg-min join.
    """
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    asc = keep == "min"

    def local(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(tiebreak_col, ascending=asc, kind="mergesort")
        return df.drop_duplicates(subset=key_cols, keep="first")

    # combiner: per-batch dedup before the exchange (skew + volume
    # control), then `local` runs once per hash partition of the keys —
    # it is vectorized across keys (sort + drop_duplicates), so the
    # whole-partition form avoids both per-key fn calls and the sort
    # shuffle's fixed cost
    from .grouped import partitioned_map

    pre = ds.map_batches(local, batch_format="pandas")
    return partitioned_map(pre, key_cols, local)


def auto_compare_batch_size(n_items: int, n_pairs: int, *, cap: int = 500) -> int:
    """The reference's adaptive comparison batch size, mirrored VERBATIM
    from ``resolve.py:491-516`` (``auto_batch``): solve
    ``k(k-1)/2 + (n-k)(k-1) = m`` for k, take ``max`` of the two roots
    (the reference's own choice — the LARGER root, ~2n, not the
    prefix-filling smaller one), cap at 500.  Exposed for parity with
    the reference's LLM comparison batching; the Ray resolve stages
    batch by pair count directly and do not call it."""
    discriminant = (1 - 2 * n_items) ** 2 - 8 * n_pairs
    if discriminant < 0:
        return cap
    sqrt_d = discriminant ** 0.5
    k = max(-0.5 * sqrt_d + n_items + 0.5, 0.5 * (sqrt_d + 2 * n_items + 1))
    return cap if k < 0 else min(int(k), cap)


class _UnionFind:
    """Deterministic union-find keyed by local row position."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


_WORD_RE = re.compile(r"\w+", re.UNICODE)


def token_jaccard(a: str, b: str) -> float:
    sa, sb = set(_WORD_RE.findall(a.lower())), set(_WORD_RE.findall(b.lower()))
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def char_ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Char n-gram Jaccard — finer-grained than word tokens; the right
    metric for near-string matching (typos, morphology)."""
    a, b = a.lower(), b.lower()
    sa = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
    sb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def resolve_fuzzy(
    ds,
    *,
    blocking_col: str,
    text_col: str,
    threshold: float = 0.5,
    id_col: str,
    output_col: str = "canonical_id",
    limit_comparisons: int | None = None,
    overwrite_cols: list[str] | None = None,
    kv_pairs_column: str | None = None,
):
    """Fuzzy entity resolution within blocks.

    Rows sharing ``blocking_col`` are compared pairwise (token Jaccard on
    ``text_col``); pairs >= ``threshold`` are unioned; each row gets
    ``output_col`` = the cluster representative's ``id_col`` (the
    minimum id — deterministic).  ``limit_comparisons`` caps pair count
    per block (reference ``limit_comparisons``, resolve.py:553-568).

    The blocking column choice is the scalability contract: blocks must
    be small enough for O(b^2) comparison (the reference has the same
    property — blocking bounds its LLM pair budget).

    ``overwrite_cols``: columns replaced by the cluster representative's
    values (the reference's per-cluster resolution, resolve.py:597-756);
    the originals are preserved as a list-of-dicts column
    ``kv_pairs_column`` (reference ``_kv_pairs_preresolve_{op}``,
    resolve.py:662-669).
    """

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        n = len(df)
        uf = _UnionFind(n)
        # null text never matches anything but must not crash the block
        texts = ["" if t is None or t is pd.NA or (isinstance(t, float) and pd.isna(t))
                 else str(t) for t in df[text_col]]
        # tokenize ONCE per row (token_jaccard per pair would re-run the
        # regex O(block²) times — the dominant cost on big blocks)
        tsets = [set(_WORD_RE.findall(t.lower())) for t in texts]
        budget = limit_comparisons if limit_comparisons is not None else n * n
        done = 0
        for i in range(n):
            si = tsets[i]
            for j in range(i + 1, n):
                if done >= budget:
                    break
                done += 1
                sj = tsets[j]
                if not si and not sj:
                    jac = 1.0
                else:
                    inter = len(si & sj)
                    jac = inter / (len(si) + len(sj) - inter)
                if jac >= threshold:
                    uf.union(i, j)
            if done >= budget:
                break
        ids = df[id_col].tolist()
        roots = [uf.find(i) for i in range(n)]
        df[output_col] = [ids[r] for r in roots]
        if overwrite_cols:
            if kv_pairs_column:
                df[kv_pairs_column] = [
                    {c: df[c].iloc[i] for c in overwrite_cols} for i in range(n)
                ]
            for c in overwrite_cols:
                vals = df[c].tolist()
                df[c] = [vals[r] for r in roots]
        return df

    from .grouped import grouped_map

    return grouped_map(ds, blocking_col, per_block)


def resolve_embedding_blocked(
    ds,
    *,
    emb_col: str,
    id_col: str,
    blocking_threshold: float,
    match_threshold: float | None = None,
    text_col: str | None = None,
    jaccard_threshold: float | None = None,
    output_col: str = "canonical_id",
):
    """Entity resolution with EMBEDDING-COSINE BLOCKING — the reference's
    ``blocking_threshold`` path (``resolve.py:296-340``): candidate pairs
    are rows whose embedding cosine >= ``blocking_threshold``; each
    candidate is then confirmed (the reference's LLM compare) by either

    - ``match_threshold``: cosine >= match_threshold (pure-embedding
      confirm), or
    - ``text_col`` + ``jaccard_threshold``: token-Jaccard on the texts,
      routed to the pairs by a keyed-shuffle hash join (never a
      whole-corpus broadcast of text).

    Confirmed pairs -> connected components -> ``output_col`` = the
    min-id representative for EVERY input row (self for singletons).
    Components and the attach are ``dedup._components`` /
    ``dedup._attach_labels``: a driver union-find attached by a
    broadcast binary search, or above ``dedup._DRIVER_PAIRS`` confirmed
    pairs min-label propagation attached by a keyed-shuffle join.

    Blocking here is brute-force cosine per batch against the broadcast
    normalized matrix (exact recall — the oracle-grade path, same shape
    as ``ann_topk_bruteforce``); swap in ``embedding_dedup``'s LSH
    bucketing when the corpus outgrows a broadcastable matrix.
    """
    import numpy as np
    import ray
    import pyarrow.compute as pc

    from .dedup import _attach_labels, _components
    from .util_ray import collect_small

    base = collect_small(ds.select_columns([id_col, emb_col]))
    ids = np.asarray(base[id_col].to_pylist())
    m = np.asarray(base[emb_col].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mat_ref = ray.put((ids, m / norms[:, None]))

    def pairs(batch: pa.Table) -> pa.Table:
        all_ids, mn = ray.get(mat_ref)
        b = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
        bn = np.linalg.norm(b, axis=1)
        bn[bn == 0] = 1.0
        sim = (b / bn[:, None]) @ mn.T
        my_ids = np.asarray(batch[id_col].to_pylist())
        xs, ys = np.where(sim >= blocking_threshold)
        keep = my_ids[xs] < all_ids[ys]  # dedupe: emit each pair once
        xs, ys = xs[keep], ys[keep]
        return pa.table(
            {
                "id_a": pa.array(my_ids[xs]),
                "id_b": pa.array(all_ids[ys]),
                "cosine": pa.array(sim[xs, ys], pa.float64()),
            }
        )

    cand = ds.map_batches(pairs, batch_format="pyarrow")

    if match_threshold is not None:
        edges_ds = cand.map_batches(
            lambda t: t.filter(pc.greater_equal(t["cosine"], match_threshold)),
            batch_format="pyarrow",
        )
    elif text_col is not None and jaccard_threshold is not None:
        from .joins import hash_join

        def proj(suffix):
            def fn(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {f"_rid{suffix}": batch[id_col], f"_rt{suffix}": batch[text_col]}
                )

            fn.__name__ = f"texts{suffix}"
            return fn

        t_ds = ds.select_columns([id_col, text_col])
        with_a = hash_join(cand, t_ds.map_batches(proj("a"), batch_format="pyarrow"),
                           on="id_a", right_on="_rida")
        with_ab = hash_join(with_a, t_ds.map_batches(proj("b"), batch_format="pyarrow"),
                            on="id_b", right_on="_ridb")

        def confirm(batch: pa.Table) -> pa.Table:
            ja = [
                token_jaccard(str(a or ""), str(b or ""))
                for a, b in zip(batch["_rta"].to_pylist(), batch["_rtb"].to_pylist())
            ]
            out = batch.select(["id_a", "id_b"]).append_column(
                "jaccard", pa.array(ja, pa.float64())
            )
            return out.filter(pc.greater_equal(out["jaccard"], jaccard_threshold))

        edges_ds = with_ab.map_batches(confirm, batch_format="pyarrow")
    else:
        raise ValueError("need match_threshold or (text_col + jaccard_threshold)")

    return _attach_labels(ds, id_col, _components(edges_ds), output_col)


def llm_resolve(
    ds,
    *,
    blocking_col,
    id_col: str,
    comparison_prompt: str,
    resolution_prompt: str | None = None,
    output_schema: dict | None = None,
    client_factory=None,
    limit_comparisons: int | None = None,
    blocking_conditions: list[str] | None = None,
    observability: bool = False,
    op_name: str = "resolve",
):
    """LLM entity resolution against the pluggable client — the resolve
    op-family's prompt surface (reference
    ``/root/reference/docetl/operations/resolve.py:553-756``):

    1. pairwise compare within each blocking group: ``comparison_prompt``
       rendered with ``input1``/``input2``, client returns
       ``{"is_match": bool}``; matches feed a per-block union-find
       (``resolve.py:441-477``).  ``limit_comparisons`` caps the pair
       count per block deterministically (first pairs in sorted-id
       order — the reference caps globally, ``resolve.py:484-516``).
       ``blocking_conditions``: eval'd pair predicates over
       ``input1``/``input2`` (reference ``resolve.py:290-294``) — a pair
       is only LLM-compared if ANY condition holds; evaluated through
       ``_safe_eval`` (no builtins), and skipped pairs do not consume
       the comparison budget (matching the reference, which filters
       blocked pairs before capping).  When no condition admits ANY
       pair GLOBALLY, all pairs within every block are compared
       (reference ``resolve.py:411-412`` — a misconfiguration guard;
       a sparse block with zero admitted pairs while other blocks
       admit some legitimately compares nothing).
    2. per multi-row cluster: ``resolution_prompt`` rendered with the
       cluster ``inputs``; the output-schema keys are merged over EVERY
       cluster row, and overwritten keys' prior values are preserved
       under ``_kv_pairs_preresolve_{op}`` (``resolve.py:662-669``).
       Without a ``resolution_prompt`` rows keep their own values (the
       canonical id still marks the cluster).

    Physical shape: two bucketed grouped exchanges (blocking key, then
    canonical id) — per-block state lives inside the task, the offline
    client makes the whole surface deterministic and testable.
    Observability (``enable_observability``): each row carries its
    cluster's rendered resolution prompt under ``_observability_{op}``
    (``resolve.py:640-650``).
    """
    import json as _json

    from .grouped import grouped_map
    from .llm import FakeDeterministicClient, _safe_eval, render_prompt

    blocking_cols = (
        [blocking_col] if isinstance(blocking_col, str) else list(blocking_col)
    )

    def _make_compare_block(use_conditions: bool):
        def compare_block(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
            n = len(g)
            rows = g.to_dict("records")
            client = (client_factory or FakeDeterministicClient)()
            uf = _UnionFind(n)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            n_adm = -1
            if use_conditions:
                pairs = [
                    (i, j)
                    for (i, j) in pairs
                    if any(
                        _safe_eval(c, {"input1": rows[i], "input2": rows[j]})
                        for c in blocking_conditions
                    )
                ]
                n_adm = len(pairs)
            if limit_comparisons is not None:
                pairs = pairs[:limit_comparisons]
            for i, j in pairs:
                rendered = render_prompt(
                    comparison_prompt, {"input1": rows[i], "input2": rows[j]}
                )
                if client.complete(rendered, {"is_match": "bool"}).get(
                    "is_match"
                ):
                    uf.union(i, j)
            ids = g[id_col].to_numpy()
            out = pd.DataFrame(
                {id_col: ids, "_canonical": ids[[uf.find(i) for i in range(n)]]}
            )
            if use_conditions:
                out["_n_adm"] = n_adm
            return out

        compare_block.__name__ = "llm_resolve_compare"
        return compare_block

    if blocking_conditions:
        # reference resolve.py:411-412: the fall-back-to-all-pairs is a
        # GLOBAL misconfiguration guard — it fires only when no blocker
        # admits any pair anywhere, never per block (a sparse block with
        # zero admitted pairs legitimately compares nothing).  The
        # filtered pass records each block's admitted-pair count; only
        # if the global total is zero does a second all-pairs pass run.
        labels = grouped_map(
            ds, blocking_cols, _make_compare_block(True)
        ).materialize()
        if not labels.sum("_n_adm"):
            labels = grouped_map(ds, blocking_cols, _make_compare_block(False))
        else:
            labels = labels.drop_columns(["_n_adm"])
    else:
        labels = grouped_map(ds, blocking_cols, _make_compare_block(False))

    # route the canonical label back onto the rows (keyed-shuffle join),
    # then run the per-cluster resolution in a second grouped exchange
    from .joins import hash_join

    def ren_labels(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["_lid" if c == id_col else c for c in t.column_names]
        )

    with_label = hash_join(
        ds,
        labels.map_batches(ren_labels, batch_format="pyarrow"),
        on=id_col,
        right_on="_lid",
        how="inner",
    )

    out_keys = list((output_schema or {}).keys())

    def resolve_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        g = g.drop(columns=[c for c in ("_lid",) if c in g.columns])
        rows = g.to_dict("records")
        if resolution_prompt and output_schema and len(rows) > 1:
            client = (client_factory or FakeDeterministicClient)()
            cluster_items = [
                {k: r[k] for k in r if k not in ("_canonical",)} for r in rows
            ]
            rendered = render_prompt(resolution_prompt, {"inputs": cluster_items})
            out = client.complete(rendered, output_schema)
            for r in rows:
                overwritten = {k: r[k] for k in out_keys if k in r}
                r[f"_kv_pairs_preresolve_{op_name}"] = _json.dumps(
                    overwritten, default=str
                )
                r.update({k: out[k] for k in out_keys})
                if observability:
                    r[f"_observability_{op_name}"] = _json.dumps(
                        {"resolution_prompt": rendered, "model": client.model}
                    )
        else:
            for r in rows:
                r[f"_kv_pairs_preresolve_{op_name}"] = _json.dumps({})
                if observability:
                    r[f"_observability_{op_name}"] = _json.dumps(
                        {"resolution_prompt": None, "model": None}
                    )
        return pd.DataFrame(rows)

    resolve_cluster.__name__ = "llm_resolve_cluster"
    return grouped_map(with_label, "_canonical", resolve_cluster)
