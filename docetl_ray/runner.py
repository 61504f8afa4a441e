"""Declarative pipeline runner: the reference's YAML DSL surface
(``docetl run pipeline.yaml``; ``/root/reference/docetl/runner.py:105-262``,
``cli.py:202-226``) executed as a lazy Ray Data chain.

Config shape (same vocabulary as the reference):

```yaml
datasets:
  docs: {type: file, path: /x/documents.parquet}   # parquet/json/csv
operations:
  - {name: score, type: code_map, ...}
  - {name: keep, type: code_filter, ...}
pipeline:
  steps:
    - {name: s1, input: docs, operations: [score, keep]}
  output: {type: file, path: /tmp/out, format: parquet}   # or json/csv
checkpoint_dir: /tmp/ckpt        # optional per-op parquet checkpoints
```

Differences from the reference, by design:
- execution is a streaming Ray Dataset chain, not a pull-based DAG of
  materialized ``list[dict]`` (``containers.py:424-569``);
- per-op checkpoints are partitioned Parquet keyed by the op-chain hash
  (same validity rule as ``runner.py:546-601``), written atomically;
- LLM ops run against the pluggable model client (offline-deterministic
  by default; see ``stages/llm.py``).

``code`` strings for code_map/code_filter/code_reduce are exec'd like the
reference's code operations (``code_operations.py:12-163``): they must
define ``transform(doc) -> dict`` / ``transform(doc) -> bool`` /
``transform(group_rows) -> dict``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import pyarrow as pa


def _load_dataset(cfg: dict):
    import ray.data as rd

    typ = cfg.get("type", "file")
    if typ == "memory":
        return rd.from_items(cfg["data"])
    path = cfg["path"]
    if path.endswith(".json"):
        return rd.read_json(path)
    if path.endswith(".csv"):
        return rd.read_csv(path)
    return rd.read_parquet(path)


def _exec_code(code: str):
    ns: dict[str, Any] = {}
    exec(code, ns)  # same contract as the reference's code ops
    if "transform" not in ns:
        raise ValueError("code must define transform(...)")
    return ns["transform"]


#: user-registered operation types: type -> fn(ds, op_config) -> ds
_OP_PLUGINS: dict[str, Any] = {}


def register_operation(type_name: str, fn):
    """Register a custom operation type for ``_apply_op`` dispatch —
    the in-process analogue of the reference's ``docetl.operation``
    entry-point group (``operations/__init__.py:43-62``).  ``fn`` takes
    ``(ds, op_config)`` and returns a Dataset."""
    _OP_PLUGINS[type_name] = fn


def get_operation(type_name: str):
    """Resolve an operation implementation: explicit registrations first,
    then ``importlib.metadata`` entry points in the
    ``docetl_ray.operation`` group (installed plugin packages), mirroring
    the reference's lookup order (``operations/__init__.py:43-53``)."""
    if type_name in _OP_PLUGINS:
        return _OP_PLUGINS[type_name]
    import importlib.metadata

    try:
        eps = importlib.metadata.entry_points(group="docetl_ray.operation")
        for ep in eps:
            if ep.name == type_name:
                fn = ep.load()
                _OP_PLUGINS[type_name] = fn  # cache
                return fn
    except Exception:
        pass
    return None


def _model_client_factory(op: dict):
    """Per-op ``model:`` -> a catalog-seeded client factory (None keeps
    the default deterministic client).  This is how MOAR-chosen plans
    (docetl_ray/moar.py) execute with their selected model tier — the
    reference threads the model name into litellm per op
    (operations/utils/api.py)."""
    m = op.get("model")
    if not m:
        return None
    from .moar import ModelSeededClient

    return lambda: ModelSeededClient(m)


def _apply_op(ds, op: dict):
    t = op["type"]
    name = op.get("name", t)

    plugin = get_operation(t)
    if plugin is not None:
        return plugin(ds, op)

    if t in ("map", "llm_map"):
        if "code" in op:
            fn = _exec_code(op["code"])

            def code_fn(batch: pa.Table) -> pa.Table:
                rows = batch.to_pylist()
                for r in rows:
                    r.update(fn(r) or {})
                if not rows:
                    # from_pylist([]) is a ZERO-COLUMN table that strips
                    # the batch schema from the stream; keep at least the
                    # input columns on empty blocks
                    return batch.slice(0, 0)
                return pa.Table.from_pylist(rows)

            out = ds.map_batches(code_fn, batch_format="pyarrow")
            if op.get("drop_keys"):
                out = out.drop_columns(op["drop_keys"])
            return out
        from .stages.llm import llm_map

        return llm_map(ds, op["prompt"], op["output"]["schema"],
                       drop_keys=op.get("drop_keys"),
                       client_factory=_model_client_factory(op),
                       validate=op.get("validate"),
                       num_retries_on_validate_failure=op.get(
                           "num_retries_on_validate_failure", 2),
                       drop_on_validation_failure=op.get(
                           "drop_on_validation_failure", False),
                       gleaning=op.get("gleaning"),
                       batch_prompt=op.get("batch_prompt"),
                       calibrate=op.get("calibrate", False),
                       num_calibration_docs=op.get("num_calibration_docs", 10))
    if t in ("code_map",):
        fn = _exec_code(op["code"])
        skip = op.get("on_error") == "skip"  # reference skip_on_error, map.py:490-511

        def code_fn(batch: pa.Table) -> pa.Table:
            rows = batch.to_pylist()
            out_rows = []
            for r in rows:
                try:
                    r.update(fn(r) or {})
                    out_rows.append(r)
                except Exception:
                    if not skip:
                        raise
            if not out_rows:
                # an all-skipped (or empty) batch must not become a
                # zero-column table — keep the input schema on the block
                return batch.slice(0, 0)
            return pa.Table.from_pylist(out_rows)

        out = ds.map_batches(code_fn, batch_format="pyarrow")
        if op.get("drop_keys"):
            out = out.drop_columns(op["drop_keys"])
        return out
    if t in ("filter", "code_filter", "llm_filter"):
        if "code" in op:
            fn = _exec_code(op["code"])

            def filt(batch: pa.Table) -> pa.Table:
                rows = batch.to_pylist()
                mask = pa.array([bool(fn(r)) for r in rows])
                return batch.filter(mask)

            return ds.map_batches(filt, batch_format="pyarrow")
        from .stages.llm import llm_filter

        return llm_filter(ds, op["prompt"],
                          filter_key=op.get("filter_key", "keep"),
                          client_factory=_model_client_factory(op))
    if t in ("reduce", "code_reduce", "llm_reduce"):
        key = op.get("reduce_key", "_all")
        keys = [key] if isinstance(key, str) else list(key)
        if "code" in op:
            fn = _exec_code(op["code"])
            if keys == ["_all"]:
                from .util import collect

                rows = collect(ds).to_pylist()
                out = {"_counts_prereduce": len(rows)}
                out.update(fn(rows) or {})
                import ray.data as rd

                return rd.from_items([out])
            from .stages.reduces import code_reduce

            return code_reduce(
                ds, keys, lambda g: fn(g.to_pylist()) or {},
                pass_through=op.get("pass_through", False),
                counts_column=f"_counts_prereduce_{name}",
            )
        from .stages.llm import llm_reduce

        return llm_reduce(ds, keys, op["prompt"], op["output"]["schema"],
                          client_factory=_model_client_factory(op),
                          pass_through=op.get("pass_through", False),
                          fold_prompt=op.get("fold_prompt"),
                          fold_batch_size=op.get("fold_batch_size"),
                          merge_prompt=op.get("merge_prompt"),
                          merge_batch_size=op.get("merge_batch_size"),
                          scratchpad=bool(op.get("scratchpad")),
                          value_sampling=op.get("value_sampling"),
                          associative=op.get("associative", True),
                          gleaning=op.get("gleaning"),
                          observability=op.get("enable_observability", False),
                          op_name=name)
    if t == "resolve":
        if op.get("comparison_prompt"):
            # LLM surface: pairwise compare + cluster resolution against
            # the pluggable client (resolve.py:553-756 parity)
            from .stages.resolve import llm_resolve

            return llm_resolve(
                ds,
                blocking_col=op["blocking_key"],
                id_col=op["id_key"],
                comparison_prompt=op["comparison_prompt"],
                resolution_prompt=op.get("resolution_prompt"),
                output_schema=(op.get("output") or {}).get("schema"),
                client_factory=_model_client_factory(op),
                limit_comparisons=op.get("limit_comparisons"),
                blocking_conditions=op.get("blocking_conditions"),
                observability=op.get("enable_observability", False),
                op_name=name,
            )
        if op.get("blocking_threshold") is not None:
            from .stages.resolve import resolve_embedding_blocked

            return resolve_embedding_blocked(
                ds,
                emb_col=op["embedding_key"],
                id_col=op["id_key"],
                blocking_threshold=op["blocking_threshold"],
                match_threshold=op.get("match_threshold"),
                text_col=op.get("comparison_key"),
                jaccard_threshold=op.get("threshold"),
                output_col=op.get("output_key", "canonical_id"),
            )
        from .stages.resolve import resolve_fuzzy

        return resolve_fuzzy(
            ds,
            blocking_col=op["blocking_key"],
            text_col=op["comparison_key"],
            threshold=op.get("threshold", 0.5),
            id_col=op["id_key"],
            output_col=op.get("output_key", "canonical_id"),
            limit_comparisons=op.get("limit_comparisons"),
        )
    if t == "split":
        from .stages.unnest_split_gather import split

        kw = op.get("method_kwargs", {})
        return split(
            ds, op["split_key"], name=name, method=op.get("method", "token_count"),
            token_count=kw.get("num_tokens", kw.get("token_count", 100)),
            delimiter=kw.get("delimiter", "\n\n"),
            num_splits_to_group=kw.get("num_splits_to_group", 1),
        )
    if t == "gather":
        pc_cfg = op.get("peripheral_chunks") or {}
        # reference-style config (gather.py:30-42) -> full-parity
        # renderer; plain ints -> simplified previous/next-count surface
        from .stages.unnest_split_gather import is_reference_gather

        if is_reference_gather(op):
            from .stages.unnest_split_gather import gather_reference

            return gather_reference(
                ds, op["content_key"], op["doc_id_key"], op["order_key"],
                peripheral_chunks=pc_cfg,
                doc_header_key=op.get("doc_header_key"),
                main_chunk_start=op.get(
                    "main_chunk_start", "--- Begin Main Chunk ---"),
                main_chunk_end=op.get(
                    "main_chunk_end", "--- End Main Chunk ---"),
            )
        from .stages.unnest_split_gather import gather

        return gather(
            ds, op["content_key"], op["doc_id_key"], op["order_key"],
            previous_count=pc_cfg.get("previous", 1),
            next_count=pc_cfg.get("next", 1),
            doc_header_key=op.get("doc_header_key"),
        )
    if t == "unnest":
        from .stages.unnest_split_gather import unnest

        return unnest(ds, op["unnest_key"], keep_empty=op.get("keep_empty", False))
    if t == "sample":
        method = op.get("method", "first")
        from .stages import sample as S

        if method == "first":
            return S.sample_first(ds, op["samples"])
        if method == "uniform":
            return S.sample_uniform_hash(ds, op["key"], op["fraction"])
        if method == "custom":
            return S.sample_custom(ds, op["key"], op["values"])
        if method == "stratified":
            return S.sample_stratified(ds, op["stratify_key"],
                                       op["samples_per_group"], op["order_by"])
        if method == "outliers":
            kw = op.get("method_kwargs", {})
            if op.get("embedding_key"):
                # the reference's outliers method IS embedding-distance
                # based (sample.py:390-432); `key` keeps the scalar variant
                return S.sample_outliers_embedding(
                    ds, op["embedding_key"],
                    std_cutoff=kw.get("std"),
                    samples=kw.get("samples"),
                    keep="outliers" if kw.get("keep_outliers") or kw.get("keep") else "inliers",
                    center=kw.get("center"),
                )
            return S.sample_outliers(ds, op["key"],
                                     std_cutoff=kw.get("std", 2.0),
                                     keep="outliers" if kw.get("keep_outliers") else "inliers")
        raise ValueError(f"unknown sample method {method}")
    if t in ("topk", "order", "rank"):
        if op.get("method") == "llm_compare":
            from .stages.rank import topk_llm_compare

            return topk_llm_compare(ds, query=op["query"], keys=op["keys"],
                                    k=op["k"], id_col=op.get("id_key"))
        if op.get("rank_method") == "comparison_qurk":
            from .stages.rank import rank_comparison_qurk

            import ray.data as _rd

            return _rd.from_arrow(rank_comparison_qurk(
                ds, criteria=op["prompt"], input_keys=op.get("input_keys", []),
                batch_size=op.get("batch_size", 10),
                num_batches=op.get("num_batches"),
            ))
        if op.get("rank_method") == "calibrated_embedding":
            from .stages.rank import rank_calibrated_embedding

            import ray.data as _rd

            return _rd.from_arrow(rank_calibrated_embedding(
                ds, criteria=op["prompt"], input_keys=op.get("input_keys", []),
                emb_col=op["embedding_key"],
                sample_size=op.get("sample_size", 20),
                batch_size=op.get("batch_size", 10),
            ))
        if op.get("rerank_call_budget") or op.get("initial_ordering_method"):
            from .stages.rank import rank as rank_refine

            return rank_refine(
                ds,
                criteria=op["prompt"],
                input_keys=op.get("input_keys", []),
                direction=op.get("direction", "desc"),
                k=op.get("k"),
                id_col=op.get("id_key"),
                initial_ordering_method=op.get("initial_ordering_method", "likert"),
                emb_col=op.get("embedding_key"),
                criteria_embedding=op.get("criteria_embedding"),
                rerank_call_budget=op.get("rerank_call_budget", 10),
                num_top_items_per_window=op.get("num_top_items_per_window", 3),
                overlap_fraction=op.get("overlap_fraction", 0.5),
                return_all=bool(op.get("return_all")),
            )
        from .stages.sample import rank_topk, topk, topk_stratified

        if op.get("stratify_key"):
            return topk_stratified(ds, op["stratify_key"], op["sort_key"], op["k"],
                                   descending=op.get("direction", "desc") == "desc")
        if op.get("emit_rank") or t in ("order", "rank"):
            return rank_topk(ds, op["sort_key"], op["k"],
                             descending=op.get("direction", "desc") == "desc")
        return topk(ds, op["sort_key"], op["k"],
                    descending=op.get("direction", "desc") == "desc")
    if t == "extract":
        if op.get("extraction_method", "regex" if "patterns" in op else "line_number") \
                == "line_number":
            from .stages.extract import extract_line_number

            return extract_line_number(
                ds, op["document_keys"], op["prompt"],
                suffix=op.get("extraction_key_suffix", "_extracted"),
                format_extraction=op.get("format_extraction", True),
                skip_on_error=op.get("skip_on_error", True),
            )
        from .stages.extract import extract_regex

        return extract_regex(ds, op["document_keys"], op["patterns"],
                             suffix=op.get("extraction_key_suffix", "_extracted"),
                             format_extraction=op.get("format_extraction", True))
    if t == "add_uuid":
        from .stages.maps import add_hash_id

        return add_hash_id(ds, op["key_cols"], id_key=op.get("id_key", f"{name}_id"))
    if t == "cluster":
        if op.get("method") == "threshold":
            from .stages.cluster import cluster_threshold

            return cluster_threshold(
                ds, op["embedding_key"], op["id_key"],
                distance_threshold=op["distance_threshold"],
                output_col=op.get("output_key", "cluster_id"),
            )
        if "collapse" in op or op.get("annotate_paths"):
            # full dendrogram parity: collapse + root-to-leaf path list
            # under output_key (reference cluster.py:176-282)
            from .stages.cluster import cluster_dendrogram

            return cluster_dendrogram(
                ds, op["embedding_key"], op["id_key"],
                collapse=op.get("collapse"),
                output_key=op.get("output_key", "clusters"),
            )
        from .stages.cluster import cluster_embeddings

        return cluster_embeddings(ds, op["embedding_key"], op["id_key"],
                                  num_clusters=op["num_clusters"],
                                  output_col=op.get("output_key", "cluster_id"))
    if t == "link_resolve":
        from .stages.link_resolve import link_resolve

        return link_resolve(ds, id_col=op["id_key"], link_col=op["link_key"],
                            threshold=op.get("threshold", 0.5))
    if t == "dedup":
        method = op.get("method", "exact")
        if method == "exact":
            from .stages.resolve import dedup_exact

            return dedup_exact(ds, op["keys"], tiebreak_col=op["tiebreak_key"])
        if method == "minhash":
            from .stages.dedup import minhash_dedup

            out, _ = minhash_dedup(ds, op["text_key"], op["id_key"],
                                   threshold=op.get("threshold", 0.7))
            return out
        if method == "simhash":
            from .stages.dedup import simhash_dedup

            return simhash_dedup(ds, op["text_key"], op["id_key"])
        if method == "embedding":
            from .stages.dedup import embedding_dedup

            out, _ = embedding_dedup(ds, op["embedding_key"], op["id_key"],
                                     threshold=op.get("threshold", 0.95))
            return out
        raise ValueError(f"unknown dedup method {method}")
    if t == "pii_scrub":
        from .stages.textops import pii_scrub

        return pii_scrub(ds, op.get("text_key", "text"),
                         out_col=op.get("output_key"))
    if t == "quantiles":
        import ray.data as rd

        from .stages.quantiles import quantiles

        return rd.from_arrow(
            quantiles(ds, op["key"], op.get("qs", [0.25, 0.5, 0.75]))
        )
    if t == "window":
        method = op.get("method", "tumbling")
        if method == "tumbling":
            from .stages.window import tumbling_window_aggregate

            return tumbling_window_aggregate(
                ds, op["ts_key"], op.get("keys", []),
                window_seconds=op["window_seconds"],
                aggs=[tuple(a) for a in op["aggs"]],
            )
        if method == "session":
            from .stages.window import session_windows

            return session_windows(ds, op["ts_key"], op["key"],
                                   gap_seconds=op["gap_seconds"])
        raise ValueError(f"unknown window method {method}")
    raise ValueError(f"unknown operation type {t!r}")


def _op_chain_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]


def _lineage_hash(prev: str, op: dict, extra: str = "") -> str:
    """Checkpoint lineage token: folds the upstream token, this op's
    config, and any side-input lineage (equijoin right) into one hash —
    a checkpoint keyed on it invalidates when ANYTHING upstream changes
    (source dataset config, a prior step's ops), not just when this
    step's own chain does."""
    return hashlib.sha256(
        (prev + "|" + json.dumps(op, sort_keys=True) + "|" + extra).encode()
    ).hexdigest()[:16]


class RunCancelled(Exception):
    """Raised when a cooperative cancel is requested (the reference
    cancels runs through handlers registered with
    ``server/app/run_manager.py:11-27``)."""


class RayCancelEvent:
    """A cancel flag readable from Ray workers: a tiny named actor holds
    one bool.  ``set()``/``is_set()`` mirror ``threading.Event`` so it
    drops into ``PipelineRunner(cancel_event=...)``; unlike a
    ``threading.Event`` it is picklable, so the runner can inject a
    mid-stream probe (see ``_CancelProbe``) and cancellation reaches a
    pipeline that is already EXECUTING, not just one still being built."""

    def __init__(self):
        import ray

        @ray.remote(num_cpus=0)
        class _Flag:
            def __init__(self):
                self._set = False

            def set(self):
                self._set = True

            def is_set(self):
                return self._set

        self._actor = _Flag.remote()

    def set(self):
        import ray

        ray.get(self._actor.set.remote())

    def is_set(self) -> bool:
        import ray

        return ray.get(self._actor.is_set.remote())


class _CancelProbe:
    """Pass-through ``map_batches`` stage that polls a RayCancelEvent at
    most every ``interval`` seconds per worker process and raises
    :class:`RunCancelled` mid-stream when it fires.  One probe ahead of
    the sink covers the whole lazy chain — upstream batches flow through
    it as they are produced, so an executing pipeline stops within one
    batch + poll interval."""

    def __init__(self, event: "RayCancelEvent", interval: float = 0.5):
        self.event = event
        self.interval = interval
        # per-INSTANCE throttle state (re-zeroed on each task's
        # deserialization, so every task polls at least once): class-level
        # state would be shared by CONCURRENT runs' probes in a reused
        # worker process, letting one run's batches starve another run's
        # cancel polls
        self._last_check = 0.0

    def __call__(self, batch):
        import time

        now = time.monotonic()
        if now - self._last_check >= self.interval:
            self._last_check = now
            if self.event.is_set():
                raise RunCancelled("run cancelled")
        return batch


def is_cancelled_error(e: BaseException) -> bool:
    """True when ``e`` is (or wraps, via Ray task error causes) a
    :class:`RunCancelled` — callers recording run state use this to
    distinguish a cancel from a failure."""
    seen = 0
    cur: BaseException | None = e
    while cur is not None and seen < 16:
        if isinstance(cur, RunCancelled):
            return True
        # worker-side RunCancelled arrives wrapped (e.g.
        # RayTaskError(UserCodeException)) with the original traceback
        # serialized into the message
        if (type(cur).__module__.startswith("ray.")
                and "RunCancelled" in str(cur)):
            return True
        cur = cur.__cause__ or cur.__context__
        seen += 1
    return False


class PipelineRunner:
    """Execute a declarative pipeline config over Ray Data.

    ``cancel_event`` (a ``threading.Event``-like object with ``is_set()``)
    is checked before each operation; once set, ``run()`` raises
    :class:`RunCancelled`.  This is the cooperative analogue of the
    reference's per-run cancel handlers."""

    def __init__(self, config: dict, cancel_event: Any = None):
        self.config = config
        self.ops = {o["name"]: o for o in config.get("operations", [])}
        self.datasets: dict[str, Any] = {}
        self.cancel_event = cancel_event

    def _check_cancel(self):
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise RunCancelled("run cancelled")

    @classmethod
    def from_yaml(cls, path: str) -> "PipelineRunner":
        import yaml

        with open(path) as f:
            return cls(yaml.safe_load(f))

    def run(self):
        # per-dataset lineage tokens seed checkpoint keys: a changed
        # source config (path, inline data) invalidates every downstream
        # checkpoint, not just the step whose own ops changed
        lineage: dict[str, str] = {}
        for name, cfg in self.config.get("datasets", {}).items():
            self.datasets[name] = _load_dataset(cfg)
            lineage[name] = _op_chain_hash([cfg])

        ckpt_dir = self.config.get("checkpoint_dir")
        last = None
        last_lin = ""
        for step in self.config["pipeline"]["steps"]:
            if "input" in step and step["input"] not in self.datasets:
                raise ValueError(
                    f"step {step['name']!r}: unknown input dataset {step['input']!r} "
                    f"(datasets: {sorted(self.datasets)})"
                )
            ds = self.datasets[step["input"]] if "input" in step else last
            lin = lineage.get(step["input"], last_lin) if "input" in step \
                else last_lin
            for op_name in step.get("operations", []):
                self._check_cancel()
                if op_name not in self.ops:
                    raise ValueError(
                        f"step {step['name']!r}: unknown operation {op_name!r} "
                        f"(operations: {sorted(self.ops)})"
                    )
                op = self.ops[op_name]
                lin = _lineage_hash(
                    lin, op,
                    extra=lineage.get(op.get("right", ""), "")
                    if op["type"] in ("equijoin", "asof_join") else "",
                )
                if op["type"] == "equijoin":
                    # two-input op: the right side is another dataset/step
                    # result by name (reference equijoin configs name both
                    # sides, operations/equijoin.py)
                    right_name = op["right"]
                    if right_name not in self.datasets:
                        raise ValueError(
                            f"equijoin {op_name!r}: unknown right dataset "
                            f"{right_name!r} (datasets: {sorted(self.datasets)})"
                        )
                    if op.get("comparison_prompt"):
                        # LLM-verified equijoin: embedding or eval'd
                        # pair-predicate blocking + pluggable-client
                        # compare + per-side limits (equijoin.py:38-43,
                        # 300-509 parity)
                        from .stages.fuzzy_join import (
                            condition_blocked_pairs,
                            embedding_blocked_join,
                            llm_equijoin,
                        )

                        rds = self.datasets[right_name]
                        if op.get("blocking_conditions"):
                            pairs = condition_blocked_pairs(
                                ds, rds, op["blocking_conditions"],
                                left_id=op["left_id"],
                                right_id=op["right_id"],
                            )
                        else:
                            pairs = embedding_blocked_join(
                                ds, rds,
                                left_emb=op["left_embedding_key"],
                                right_emb=op["right_embedding_key"],
                                left_id=op["left_id"], right_id=op["right_id"],
                                blocking_threshold=op.get("blocking_threshold", 0.5),
                                limit_comparisons=op.get("limit_comparisons"),
                            )
                        ds = llm_equijoin(
                            ds, rds, pairs,
                            left_id=op["left_id"], right_id=op["right_id"],
                            comparison_prompt=op["comparison_prompt"],
                            limits=tuple(op.get("limits", (None, None))),
                        )
                    else:
                        from .stages.joins import broadcast_join, hash_join

                        join = (
                            broadcast_join
                            if op.get("strategy", "broadcast") == "broadcast"
                            else hash_join
                        )
                        ds = join(
                            ds,
                            self.datasets[right_name],
                            on=op["on"],
                            right_on=op.get("right_on"),
                            how=op.get("how", "inner"),
                        )
                elif op["type"] == "asof_join":
                    # two-input temporal join: latest right row per key
                    # at-or-before each left timestamp
                    right_name = op["right"]
                    if right_name not in self.datasets:
                        raise ValueError(
                            f"asof_join {op_name!r}: unknown right dataset "
                            f"{right_name!r} (datasets: {sorted(self.datasets)})"
                        )
                    from .stages.asof import asof_join

                    ds = asof_join(
                        ds, self.datasets[right_name],
                        on=op["on"], by=op["by"],
                        how=op.get("how", "left"),
                        num_buckets=op.get("num_buckets", 32),
                        salt=op.get("salt", 1),
                    )
                else:
                    ds = _apply_op(ds, op)
                if ckpt_dir:
                    ds = self._checkpoint(ds, step["name"], op_name, lin)
            self.datasets[step["name"]] = ds
            lineage[step["name"]] = lin
            last = ds
            last_lin = lin

        out_cfg = self.config["pipeline"].get("output")
        self._check_cancel()
        if isinstance(self.cancel_event, RayCancelEvent) and last is not None:
            # graph construction above is lazy and fast; the compute burns
            # inside the sink's streaming execution — probe the flag
            # mid-stream so cancel works while the pipeline is EXECUTING
            last = last.map_batches(
                _CancelProbe(self.cancel_event), batch_format="pyarrow")
        if out_cfg and last is not None:
            fmt = out_cfg.get("format", "parquet")
            path = out_cfg["path"]
            if fmt == "parquet":
                # partition_by: hive-partitioned directories (one per key
                # value) so a re-run can skip finished partitions — the
                # resumable-output layout for large sinks
                last.write_parquet(
                    path, partition_cols=out_cfg.get("partition_by")
                )
            elif fmt == "json":
                last.write_json(path)
            elif fmt == "csv":
                last.write_csv(path)
            else:
                raise ValueError(f"unknown output format {fmt}")
        return last

    def _checkpoint(self, ds, step: str, op_name: str, lineage: str):
        """Parquet checkpoint keyed by the LINEAGE hash — source dataset
        config + every upstream op across steps (+ join right sides) —
        so editing anything upstream invalidates it, not just this
        step's own chain (reference runner.py:546-601)."""
        import ray.data as rd

        import shutil

        d = os.path.join(self.config["checkpoint_dir"], step,
                         f"{op_name}-{lineage}")
        marker = os.path.join(d, "_SUCCESS")
        if os.path.exists(marker):
            return rd.read_parquet(d)
        # stage + rename so a crashed prior attempt's partial files can
        # never mix with (and duplicate) this attempt's output
        staging = d + ".staging"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(d, ignore_errors=True)
        if isinstance(self.cancel_event, RayCancelEvent):
            # each checkpoint write eagerly executes the chain so far —
            # without a probe here, a cancel could not land until the
            # heaviest op's full checkpoint completed
            ds = ds.map_batches(_CancelProbe(self.cancel_event),
                                batch_format="pyarrow")
        ds.write_parquet(staging)
        open(os.path.join(staging, "_SUCCESS"), "w").close()
        os.rename(staging, d)
        return rd.read_parquet(d)
