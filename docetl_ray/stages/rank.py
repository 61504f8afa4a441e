"""Rank / order operator: docetl ``rank`` parity (SURVEY.md §2.1;
reference ``/root/reference/docetl/operations/rank.py``).

Two phases, mirroring the reference ``execute`` (rank.py:671-885):

1. **Initial ordering** — distributed.  ``likert``: every row is rated
   1-7 against the criteria by the pluggable client inside an actor-pool
   ``map_batches`` (reference ``_execute_likert_rating_qurk``); the
   rated rows are then ordered (stable id tiebreak): the top k per block
   first, or all of them by Ray's sort for ``return_all``.  ``score``: a
   caller-supplied deterministic ``score_fn(row) -> float`` replaces the
   embedding-similarity initial ordering (no embedding service here).
2. **Picky-window refinement** — driver-side over the TOP-K PREFIX only
   (the reference's windows never touch indices >= k): exactly
   ``rerank_call_budget`` sliding windows walk from position k-1 toward
   0 (step/window sizes per rank.py:755-768); the client picks
   ``num_top_items_per_window`` docs per window and the picks are
   swapped to the window's front (rank.py:820-852).  k is small by
   contract, so the refinement state is O(k) on the driver while the
   scoring pass stays distributed.

Output: the top-k rows with a 1-based ``_rank`` column (rank.py:874-885).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sample import _topk_table


def _window_plan(k: int, budget: int, num_top_items: int, overlap_fraction: float):
    """Step/window sizes exactly as rank.py:755-768."""
    step_size = max(1, int(k / (budget - 1 or 1)))
    window_size = min(
        k,
        (
            max(num_top_items, int(step_size / (1 - overlap_fraction)))
            if overlap_fraction < 1
            else step_size * 2
        ),
    )
    return step_size, window_size


def _doc_content(row: dict, input_keys: list[str]) -> str:
    """rank.py:34-50 content extraction."""
    keys = input_keys or list(row.keys())
    return "\n".join(f"{k}: {row[k]}" for k in keys if k in row)


def refine_topk_window(
    items: list[dict],
    *,
    criteria: str,
    input_keys: list[str],
    k: int,
    client,
    rerank_call_budget: int = 10,
    num_top_items_per_window: int = 3,
    overlap_fraction: float = 0.5,
) -> list[dict]:
    """Sliding picky-window refinement over an initially-ordered list
    (rank.py:770-872).  Mutates order only within the first-k prefix;
    returns the reordered list."""
    k = min(k, len(items))
    if k <= 1 or len(items) <= 1:
        return items
    step_size, window_size = _window_plan(
        k, rerank_call_budget, num_top_items_per_window, overlap_fraction
    )
    current = list(items)
    pos = {id(doc): i for i, doc in enumerate(current)}

    for i in range(k - 1, 0, -step_size):
        end_idx = i
        start_idx = max(0, end_idx - window_size)
        if start_idx == 0:
            end_idx = window_size
        window_indices = list(range(start_idx, end_idx))
        if len(window_indices) < num_top_items_per_window:
            continue
        window_docs = [current[idx] for idx in window_indices]
        rendered = (
            f"Pick the top {num_top_items_per_window} documents for: {criteria}\n"
            + "\n---\n".join(
                f"[{j}] {_doc_content(d, input_keys)}" for j, d in enumerate(window_docs)
            )
        )
        out = client.complete(rendered, {"top_indices": "list[int]"})
        picks = [
            int(x) for x in out.get("top_indices", [])
            if isinstance(x, (int, float, str)) and str(x).lstrip("-").isdigit()
        ]
        picks = [x for x in picks if 0 <= x < len(window_docs)]
        picks = list(dict.fromkeys(picks))[:num_top_items_per_window]
        # swap picks to the front of the window (rank.py:820-852)
        for target_idx, wi in enumerate(picks):
            doc = window_docs[wi]
            cur = pos[id(doc)]
            tgt = window_indices[target_idx]
            if cur == tgt:
                continue
            other = current[tgt]
            current[cur], current[tgt] = other, doc
            pos[id(doc)], pos[id(other)] = tgt, cur
        # no early exit at start_idx == 0: the reference keeps issuing
        # the remaining budgeted windows (rank.py:778-793 re-runs the
        # 0-anchored window), and with a non-idempotent client those
        # extra calls are behaviorally significant
    return current


def rank(
    ds,
    *,
    criteria: str,
    input_keys: list[str],
    direction: str = "desc",
    k: int | None = None,
    initial_ordering_method: str = "likert",
    score_fn=None,
    emb_col: str | None = None,
    criteria_embedding=None,
    id_col: str | None = None,
    rerank_call_budget: int = 10,
    num_top_items_per_window: int = 3,
    overlap_fraction: float = 0.5,
    client_factory=None,
    concurrency=(1, 8),
    batch_size: int = 256,
    rank_col: str = "_rank",
    return_all: bool = False,
):
    """Full rank operator: distributed initial ordering + budgeted
    picky-window refinement; returns the top-k rows with ``rank_col``
    (``return_all=True`` -> the reference's full-dataset contract: every
    row ranked, the un-refined tail indexed distributed via a two-pass
    block-offset scan, never pulled to the driver).

    ``initial_ordering_method="likert"`` rates each row 1-7 via the
    client (actor pool); ``"score"`` uses the deterministic ``score_fn``
    (the stand-in for the reference's embedding-similarity ordering).
    ``id_col`` breaks rating ties deterministically.
    """
    from .llm import FakeDeterministicClient

    if initial_ordering_method == "likert":

        class Rater:
            __name__ = "likert_rate"

            def __init__(self):
                self.client = (client_factory or FakeDeterministicClient)()

            def __call__(self, batch: pa.Table) -> pa.Table:
                rows = batch.to_pylist()
                ratings = []
                for r in rows:
                    rendered = (
                        f"Rate 1-7 for: {criteria}\n{_doc_content(r, input_keys)}"
                    )
                    out = self.client.complete(rendered, {"rating": "int"})
                    val = out.get("rating", 4)
                    ratings.append(int(val) % 7 + 1 if val > 7 or val < 1 else int(val))
                return batch.append_column("_rating", pa.array(ratings, pa.int64()))

        scored = ds.map_batches(
            Rater, batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency,
        )
        sort_col = "_rating"
    elif initial_ordering_method == "score":
        if score_fn is None:
            raise ValueError("score method needs score_fn")

        def add_score(batch: pa.Table) -> pa.Table:
            vals = [float(score_fn(r)) for r in batch.to_pylist()]
            return batch.append_column("_rating", pa.array(vals, pa.float64()))

        scored = ds.map_batches(add_score, batch_format="pyarrow")
        sort_col = "_rating"
    elif initial_ordering_method == "embedding":
        # embedding-similarity initial ordering (rank.py:284-360): the
        # reference embeds criteria + docs via an embedding service; here
        # the caller supplies the criteria vector and an embedding column
        # and the cosine scoring runs vectorized per batch (distributed)
        if emb_col is None or criteria_embedding is None:
            raise ValueError("embedding method needs emb_col + criteria_embedding")
        q = np.asarray(criteria_embedding, dtype=np.float64)
        qn = q / (np.linalg.norm(q) or 1.0)

        def add_cos(batch: pa.Table) -> pa.Table:
            m = np.asarray(batch[emb_col].to_pylist(), dtype=np.float64)
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            vals = (m / norms[:, None]) @ qn
            return batch.append_column("_rating", pa.array(vals, pa.float64()))

        add_cos.__name__ = "embedding_rate"
        scored = ds.map_batches(add_cos, batch_format="pyarrow")
        sort_col = "_rating"
    else:
        raise ValueError(f"unknown initial_ordering_method {initial_ordering_method!r}")

    descending = direction == "desc"
    sort_keys = [sort_col] + ([id_col] if id_col else [])
    desc_flags = [descending] + ([False] if id_col else [])
    n = ds.count() if k is None else None
    k_eff = n if k is None else k

    if return_all:
        # reference semantics (rank.py:874-885): EVERY row comes back
        # with _rank — refinement permutes only the first-k prefix, so
        # the tail keeps its sorted position.  Assign tail ranks with the
        # two-pass block-offset scan (zip_with_index): the tail never
        # visits the driver; only the budget-bounded k-prefix does.
        from .util_ray import zip_with_index

        sorted_ds = scored.sort(sort_keys, descending=desc_flags)
        indexed = zip_with_index(sorted_ds, rank_col, start=1)
        top = indexed.limit(k_eff)
        tail = None
        if n is None:
            n = indexed.count()
        if n > k_eff:
            import pyarrow.compute as _pc

            def keep_tail(batch: pa.Table) -> pa.Table:
                return batch.filter(_pc.greater(batch[rank_col], k_eff))

            tail = indexed.map_batches(
                keep_tail, batch_format="pyarrow"
            ).drop_columns(["_rating"])
    else:
        # top-k prefix to the driver (small by contract: the budget
        # bounds how much of the ordering the windows can touch), each
        # block's own top k first: no global sort
        top = _topk_table(scored, sort_keys, k_eff, desc_flags)
        tail = None

    items = [dict(r) for r in top.to_pandas().to_dict("records")]
    client = (client_factory or FakeDeterministicClient)()
    refined = refine_topk_window(
        items,
        criteria=criteria,
        input_keys=input_keys,
        k=k_eff,
        client=client,
        rerank_call_budget=rerank_call_budget,
        num_top_items_per_window=num_top_items_per_window,
        overlap_fraction=overlap_fraction,
    )
    import ray.data as rd

    for i, doc in enumerate(refined):
        doc[rank_col] = i + 1
        doc.pop("_rating", None)
    head = rd.from_items(refined)
    if tail is None:
        return head
    # pin head's column order AND types to the tail's so the union is
    # clean (from_items re-infers types from Python values)
    from .joins import _ds_arrow_schema

    tail_schema = _ds_arrow_schema(tail)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(tail_schema.names).cast(tail_schema)

    return head.map_batches(project, batch_format="pyarrow").union(tail)


def topk_llm_compare(
    ds,
    *,
    query: str,
    keys: list[str],
    k: int,
    client_factory=None,
    score_fn=None,
    **rank_kwargs,
):
    """topk ``method="llm_compare"`` (reference topk.py:182-235):
    delegates to rank with direction=desc and budget 100, then keeps k.
    Jinja in ``query`` is rejected exactly like topk.py:115-119."""
    if "{{" in query or "}}" in query:
        raise ValueError("'query' cannot contain Jinja templates when method='llm_compare'")
    out = rank(
        ds,
        criteria=query,
        input_keys=keys,
        direction="desc",
        k=k,
        initial_ordering_method="score" if score_fn is not None else "likert",
        score_fn=score_fn,
        rerank_call_budget=rank_kwargs.pop("rerank_call_budget", 100),
        client_factory=client_factory,
        **rank_kwargs,
    )
    return out.limit(k)


def rank_comparison_qurk(
    ds,
    *,
    criteria: str,
    input_keys: list[str],
    batch_size: int = 10,
    num_batches: int | None = None,
    client_factory=None,
    max_driver_rows: int = 100_000,
):
    """Head-to-head comparison ranking — the reference's comparison-QuRK
    mode (``/root/reference/docetl/operations/rank.py:170-283``, the
    human-powered-sorts batched-comparison estimator):

    - ``num_batches`` (default ``N(N-1) / (S(S-1))`` like rank.py:197-201)
      batches of ``batch_size`` documents are drawn; the reference uses
      ``random.seed(42)`` + ``random.sample`` — recast deterministically
      as an md5-keyed index order per batch (stable across runs and
      machines, no RNG state).
    - the client ranks each batch (``{"ranking": "list[int]"}``); every
      doc earns one win per doc ranked below it in its batch
      (rank.py:233-238).  Malformed rankings skip the batch, like the
      reference's ``ranking is not None`` guard.
    - final order: win count desc, ties -> original position (Python's
      stable sort on the reference side); 1-based ``_rank`` attached.

    Ranking is a global op over the input (the reference materializes the
    list); bounded by ``max_driver_rows`` — sample upstream for more.
    """
    import hashlib

    import pandas as pd

    from .llm import FakeDeterministicClient, render_prompt  # noqa: F401
    from .util_ray import collect_small

    t = collect_small(ds)
    if t.num_rows > max_driver_rows:
        raise ValueError(
            f"rank_comparison_qurk: {t.num_rows} rows > max_driver_rows="
            f"{max_driver_rows}; sample/filter upstream first"
        )
    rows = t.to_pylist()
    n = len(rows)
    if n <= 1:
        out = pd.DataFrame(rows)
        out["_rank"] = range(1, n + 1)
        return pa.Table.from_pandas(out, preserve_index=False)

    client = (client_factory or FakeDeterministicClient)()
    final = _qurk_order(rows, criteria, input_keys, batch_size, num_batches, client)
    out_rows = []
    for pos, idx in enumerate(final):
        r = dict(rows[idx])
        r["_rank"] = pos + 1
        out_rows.append(r)
    return pa.Table.from_pandas(pd.DataFrame(out_rows), preserve_index=False)


def _qurk_order(rows, criteria, input_keys, batch_size, num_batches, client):
    """Core of comparison-QuRK: returns row indices best-first."""
    import hashlib

    n = len(rows)
    s = min(batch_size, n)
    if num_batches is None:
        num_batches = max(1, (n * (n - 1)) // (s * (s - 1) or 1))
    wins = [0] * n
    for bn in range(num_batches):
        # deterministic "random" batch: order all indices by
        # md5(f"qurk|{bn}|{i}") and take the first s
        order = sorted(
            range(n),
            key=lambda i: hashlib.md5(f"qurk|{bn}|{i}".encode()).hexdigest(),
        )
        batch_indices = order[:s]
        batch_docs = [rows[i] for i in batch_indices]
        rendered = (
            f"Rank these documents for: {criteria}\n"
            + "\n---\n".join(
                f"[{j}] {_doc_content(d, input_keys)}"
                for j, d in enumerate(batch_docs)
            )
        )
        out = client.complete(rendered, {"ranking": "list[int]"})
        ranking = out.get("ranking")
        if not isinstance(ranking, list):
            continue
        ranking = [
            int(x) for x in ranking
            if isinstance(x, (int, float)) and 0 <= int(x) < len(batch_docs)
        ]
        ranking = list(dict.fromkeys(ranking))
        # rank.py:233-238: doc at ranked position i beats every later one
        for i in range(len(ranking)):
            wins[batch_indices[ranking[i]]] += len(ranking) - 1 - i
    return sorted(range(n), key=lambda i: (-wins[i], i))


def rank_calibrated_embedding(
    ds,
    *,
    criteria: str,
    input_keys: list[str],
    emb_col: str,
    sample_size: int = 20,
    batch_size: int = 10,
    qurk_num_batches: int | None = None,
    client_factory=None,
    max_driver_rows: int = 100_000,
):
    """Calibrated-embedding sort — reference
    ``/root/reference/docetl/operations/rank.py:988-1084``:

    1. a sample of ``sample_size`` docs (the reference uses
       ``random.seed(42)``; here the deterministic md5-keyed order) is
       ranked with comparison-QuRK via the pluggable client,
    2. every document is assigned to its most-cosine-similar sample doc
       (the reference embeds contents via an embedding service; here the
       caller's ``emb_col`` carries the vectors),
    3. final order = (assigned sample's rank asc, similarity desc), with
       a 1-based ``_rank`` (rank.py:1058-1079).

    Global op over the input, bounded by ``max_driver_rows`` like the
    reference's full materialization.
    """
    import hashlib

    import pandas as pd

    from .llm import FakeDeterministicClient
    from .util_ray import collect_small

    t = collect_small(ds)
    if t.num_rows > max_driver_rows:
        raise ValueError(
            f"rank_calibrated_embedding: {t.num_rows} rows > max_driver_rows="
            f"{max_driver_rows}; sample/filter upstream first"
        )
    rows = t.to_pylist()
    n = len(rows)
    if n <= 1:
        out = pd.DataFrame(rows)
        out["_rank"] = range(1, n + 1)
        return pa.Table.from_pandas(out, preserve_index=False)

    k = min(sample_size, n)
    sample_idx = sorted(
        range(n), key=lambda i: hashlib.md5(f"calib|{i}".encode()).hexdigest()
    )[:k]
    sample_rows = [rows[i] for i in sample_idx]
    client = (client_factory or FakeDeterministicClient)()
    sample_order = _qurk_order(
        sample_rows, criteria, input_keys, batch_size, qurk_num_batches, client
    )
    ordered_sample_idx = [sample_idx[i] for i in sample_order]

    m = np.asarray([np.asarray(r[emb_col], dtype=np.float64) for r in rows])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    sample_m = mn[ordered_sample_idx]  # rows ordered best-first
    sim = mn @ sample_m.T  # (n, k)
    best_sample = np.argmax(sim, axis=1)
    best_sim = sim[np.arange(n), best_sample]
    # (sample rank asc, similarity desc), stable — rank.py:1068-1069
    final = sorted(range(n), key=lambda i: (best_sample[i], -best_sim[i]))
    out_rows = []
    for pos, idx in enumerate(final):
        r = dict(rows[idx])
        r["_rank"] = pos + 1
        out_rows.append(r)
    return pa.Table.from_pandas(pd.DataFrame(out_rows), preserve_index=False)
