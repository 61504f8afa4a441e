"""Prompt-operator plumbing: docetl's LLM ``map`` / ``filter`` /
``reduce`` surface (SURVEY.md §2.1) with a pluggable model client.

This sandbox has no network, so the default client is a deterministic
fake; the *plumbing* is the parity target and is real:

- Jinja prompt rendering per item/group (reference
  ``/root/reference/docetl/operations/map.py:308-422``,
  ``reduce.py:915-980``),
- declared output schemas via the string DSL -> validated/coerced
  outputs (``operations/utils/validation.py:110-144,223-249``),
- the model client is per-actor state: one client + one response cache
  per actor pool worker, never per batch (reference caches on disk keyed
  by the call hash, ``operations/utils/cache.py:86-105``),
- outputs merge over the input row (``map.py:414``); filter ops emit one
  bool key and drop it after masking (``filter.py:80-98``).

Swap ``FakeDeterministicClient`` for a real API client class with the
same ``complete(prompt, schema) -> dict`` signature to run live.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import pyarrow as pa

from ..schemas import dsl_schema, enum_values

try:
    import jinja2

    _JINJA = jinja2.Environment(undefined=jinja2.StrictUndefined)
except ImportError:  # pragma: no cover
    _JINJA = None


def render_prompt(template: str, context: dict) -> str:
    if _JINJA is not None:
        return _JINJA.from_string(template).render(**context)
    return template.format(**context)


def _safe_eval(expr: str, names: dict):
    """Evaluate a config-supplied validate/gleaning condition WITHOUT
    builtins (bare ``eval`` auto-injects full ``__builtins__``, handing a
    pipeline config unrestricted execution).  Mirrors the reference's
    ``safe_eval`` intent (``operations/utils/validation.py:98-107``) —
    expressions get the bound names plus a minimal whitelist of pure
    helpers, nothing else."""
    allowed = {
        "len": len, "str": str, "int": int, "float": float, "bool": bool,
        "abs": abs, "min": min, "max": max, "sum": sum, "all": all,
        "any": any, "sorted": sorted, "set": set, "isinstance": isinstance,
    }
    return eval(expr, {"__builtins__": {}}, {**allowed, **names})


class FakeDeterministicClient:
    """Offline stand-in for an LLM: schema-typed outputs derived from the
    prompt hash — deterministic, so pipelines are testable end-to-end."""

    def __init__(self, model: str = "fake-deterministic"):
        self.model = model
        self.calls = 0

    def _digest(self, prompt: str) -> bytes:
        """Seed bytes for one completion.  Subclasses may fold extra
        state (e.g. the model name — ``moar.ModelSeededClient``) into the
        hash; the base client hashes the prompt alone so every existing
        oracle that recomputes ``md5(prompt)`` in SQL stays valid."""
        return hashlib.md5(prompt.encode("utf-8")).digest()

    def complete(self, prompt: str, output_schema: dict) -> dict:
        self.calls += 1
        h = self._digest(prompt)
        out = {}
        for i, (key, typ) in enumerate(sorted(output_schema.items())):
            seed = int.from_bytes(h[(i * 4) % 12 : (i * 4) % 12 + 4], "big")
            t = str(typ).strip().lower()
            if t.startswith("enum["):
                vals = enum_values(str(typ))
                out[key] = vals[seed % len(vals)]
            elif t in ("int", "integer"):
                out[key] = seed % 100
            elif t in ("float", "decimal", "number"):
                out[key] = (seed % 10_000) / 100.0
            elif t in ("bool", "boolean"):
                out[key] = bool(seed % 2)
            elif t.startswith("list["):
                inner = t[5:-1].strip()
                if inner in ("int", "integer"):
                    out[key] = [seed % 7, (seed >> 8) % 7]
                elif inner in ("float", "number"):
                    out[key] = [(seed % 100) / 10.0, ((seed >> 8) % 100) / 10.0]
                else:
                    out[key] = [f"item{seed % 7}", f"item{(seed >> 8) % 7}"]
            else:
                out[key] = f"gen_{seed % 100000:05d}"
        return out


_GLEAN_SCHEMA = {"should_refine": "bool", "improvements": "str"}


def glean_loop(client, rendered: str, out: dict, schema: dict,
               cfg: dict) -> dict:
    """Validator-driven refinement (gleaning), mirroring
    ``api.py:307-462``: up to ``num_rounds`` rounds of (condition
    check -> validator call -> should_refine? -> improvement call).
    Shared by map (``LLMMapStage``) and reduce (``llm_reduce``) — the
    reference's reduce_gleaning directive attaches the same loop to
    reduce generations."""
    rounds = cfg.get("num_rounds", 2)
    cond = cfg.get("if")
    for rnd in range(rounds):
        if cond:
            try:
                if not _safe_eval(cond, {"output": out}):
                    break  # should_glean gate, api.py:334-336
            except Exception:
                break
        vprompt = render_prompt(cfg["validation_prompt"], {"output": out})
        suggestion = client.complete(
            f"{rendered}\n[assistant] {json.dumps(out, sort_keys=True, default=str)}"
            f"\n[validator] {vprompt}",
            _GLEAN_SCHEMA,
        )
        if not suggestion.get("should_refine"):
            break  # api.py:416-417
        out = client.complete(
            f"{rendered}\n[improve round {rnd + 1}] "
            f"{suggestion.get('improvements', '')}",
            schema,
        )
    return out


class LLMMapStage:
    """Actor-pool stage for prompt ops.  ``__init__`` builds the client
    and cache once per actor; ``__call__`` renders + completes per row
    within the batch (a real client would batch these calls).

    ``validate``: list of Python expressions evaluated against ``output``
    (reference ``operations/utils/validation.py:98-107``); on failure the
    call is retried up to ``num_retries_on_validate_failure`` times with a
    retry suffix appended to the prompt (mirrors the validation retry
    loop, ``operations/utils/api.py:465-510``), then the last output is
    kept with ``_validation_failed`` semantics (row dropped only if
    ``drop_on_validation_failure``)."""

    __name__ = "llm_map"

    def __init__(self, prompt: str, output_schema: dict, client_factory=None,
                 validate: list[str] | None = None,
                 num_retries_on_validate_failure: int = 2,
                 drop_on_validation_failure: bool = False,
                 observability: bool = False, op_name: str = "map",
                 gleaning: dict | None = None,
                 batch_prompt: str | None = None):
        self.prompt = prompt
        self.schema = output_schema
        self.client = (client_factory or FakeDeterministicClient)()
        self.cache: dict[str, tuple[dict, bool]] = {}  # per-actor cache
        self.validate = validate or []
        self.retries = num_retries_on_validate_failure
        self.drop_failed = drop_on_validation_failure
        self.observability = observability  # _observability_{op} column
        self.op_name = op_name              # (reference map.py:415-419)
        # gleaning: {"validation_prompt": str, "num_rounds": int,
        #            "if": optional python expr on `output`} — the
        # validator-driven refinement loop, api.py:307-462
        self.gleaning = gleaning
        # batch_prompt: one call for the whole batch (rendered with
        # `inputs`); items missing from its `results` fall back to the
        # per-item prompt — map.py:425-470
        self.batch_prompt = batch_prompt

    def _valid(self, output: dict) -> bool:
        try:
            return all(
                _safe_eval(expr, {"output": output}) for expr in self.validate
            )
        except Exception:
            return False

    def _glean(self, rendered: str, out: dict) -> dict:
        return glean_loop(self.client, rendered, out, self.schema,
                          self.gleaning)

    def _complete_cached(self, rendered: str) -> tuple[dict, bool]:
        """-> (output, passed_validation) — the bool drives the
        ``drop_on_validation_failure`` row-drop path."""
        key = hashlib.md5(
            f"{self.client.model}|{rendered}|{json.dumps(self.schema, sort_keys=True)}".encode()
        ).hexdigest()
        if key not in self.cache:
            out = self.client.complete(rendered, self.schema)
            ok = True
            if self.gleaning:
                out = self._glean(rendered, out)
            elif self.validate:
                attempt = 0
                while not self._valid(out) and attempt < self.retries:
                    attempt += 1
                    out = self.client.complete(
                        f"{rendered}\n[validation retry {attempt}]", self.schema
                    )
                ok = self._valid(out)
            self.cache[key] = (out, ok)
        return self.cache[key]

    def _batch_outputs(self, rows: list[dict]) -> list[dict | None]:
        """Batch-prompt path (map.py:425-470): one call rendered with the
        whole batch; per-item fallback for items the batch response
        missed or that fail the schema-key check."""
        if not self.batch_prompt or len(rows) <= 1:
            return [None] * len(rows)
        rendered = render_prompt(self.batch_prompt, {"inputs": rows})
        out = self.client.complete(rendered, {"results": "list[dict]"})
        parsed = out.get("results", []) or []
        res: list[dict | None] = []
        for idx in range(len(rows)):
            item = parsed[idx] if idx < len(parsed) else None
            if isinstance(item, dict) and all(k in item for k in self.schema):
                res.append(item)
            else:
                res.append(None)  # fall back to the per-item prompt
        return res

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        outputs = []
        keep: list[bool] = []
        batched = self._batch_outputs(rows)
        for r, pre in zip(rows, batched):
            rendered = render_prompt(self.prompt, {"input": r})
            # batch-prompt outputs go through the SAME validate/gleaning
            # gates as per-item outputs (the reference still validates
            # parsed batch outputs); a validation failure falls back to
            # the per-item prompt, whose path retries internally
            out = None
            ok = True
            if pre is not None:
                if self.gleaning:
                    out = self._glean(rendered, pre)
                elif self.validate and not self._valid(pre):
                    out = None
                else:
                    out = pre
            if out is None:
                out, ok = self._complete_cached(rendered)
            if self.observability:
                out = dict(out)
                out[f"_observability_{self.op_name}"] = json.dumps(
                    {"prompt": rendered, "model": self.client.model}
                )
            outputs.append(out)
            keep.append(ok)
        if self.drop_failed and not all(keep):
            # drop_on_validation_failure: rows still failing every
            # validate expression after the retries are removed
            batch = batch.filter(pa.array(keep))
            outputs = [o for o, k in zip(outputs, keep) if k]
        schema_cols = dict(self.schema)
        if self.observability:
            schema_cols[f"_observability_{self.op_name}"] = "str"
        arrow_schema = dsl_schema(schema_cols)
        for field in arrow_schema:
            vals = [o.get(field.name) for o in outputs]
            col = pa.array(vals).cast(field.type) if not pa.types.is_dictionary(field.type) \
                else pa.array([str(v) for v in vals], pa.string()).dictionary_encode()
            if field.name in batch.column_names:
                batch = batch.set_column(batch.column_names.index(field.name), field.name, col)
            else:
                batch = batch.append_column(field.name, col)
        return batch


_CALIBRATION_HEADER = (
    "\nThe following prompt was applied to sample documents to generate "
    "these input-output pairs:\n"
)


def calibration_context(sample_rows: list[dict], sample_outputs: list[dict],
                        prompt: str, client) -> str:
    """Build the calibration prompt from sample input/output pairs and ask
    the client for reference anchors (map.py:155-253).  Deterministic
    recast: the sample is the FIRST ``num_calibration_docs`` rows rather
    than ``random.sample``."""
    parts = [_CALIBRATION_HEADER, f'"{prompt}"', "\nSample inputs and their outputs:\n"]
    for i, (inp, out) in enumerate(zip(sample_rows, sample_outputs)):
        parts.append(f"\n--- Example {i + 1} ---\nInput: {inp}\nOutput: {out}\n")
    parts.append("\nReference anchors:")
    res = client.complete("".join(parts), {"calibration_context": "str"})
    return str(res.get("calibration_context", ""))


def llm_map(ds, prompt: str, output_schema: dict, *, drop_keys=None,
            client_factory=None, concurrency=(1, 8), batch_size: int = 256,
            validate: list[str] | None = None,
            num_retries_on_validate_failure: int = 2,
            drop_on_validation_failure: bool = False,
            observability: bool = False, op_name: str = "map",
            gleaning: dict | None = None,
            batch_prompt: str | None = None,
            calibrate: bool = False, num_calibration_docs: int = 10):
    if calibrate:
        # two-pass calibration (map.py:155-253,288-295): run the map on a
        # deterministic head sample, derive reference anchors from the
        # client, and append them to the prompt for the full pass
        sample = ds.limit(num_calibration_docs)
        sample_out = llm_map(
            sample, prompt, output_schema, client_factory=client_factory,
            concurrency=1, batch_size=batch_size, op_name=op_name,
        )
        from .util_ray import collect_small

        in_rows = collect_small(sample).to_pylist()
        out_rows = collect_small(sample_out).to_pylist()
        client = (client_factory or FakeDeterministicClient)()
        ctx = calibration_context(in_rows, out_rows, prompt, client)
        if ctx:
            prompt = f"{prompt}\n\n{ctx}"

    out = ds.map_batches(
        LLMMapStage,
        fn_constructor_kwargs=dict(
            prompt=prompt, output_schema=output_schema,
            client_factory=client_factory, validate=validate,
            num_retries_on_validate_failure=num_retries_on_validate_failure,
            drop_on_validation_failure=drop_on_validation_failure,
            observability=observability, op_name=op_name,
            gleaning=gleaning, batch_prompt=batch_prompt,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    if drop_keys:
        out = out.drop_columns(list(drop_keys))
    return out


def llm_filter(ds, prompt: str, *, filter_key: str = "keep", client_factory=None,
               concurrency=(1, 8)):
    """Filter op: bool output schema, row kept where true, bool column
    dropped from the output (filter.py:96-98)."""
    import pyarrow.compute as pc

    scored = llm_map(ds, prompt, {filter_key: "bool"}, client_factory=client_factory,
                     concurrency=concurrency)
    return scored.map_batches(
        lambda t: t.filter(pc.fill_null(t[filter_key], False)).drop_columns([filter_key]),
        batch_format="pyarrow",
    )


def _kmeans_labels(embs, k: int, iters: int = 20):
    """Deterministic k-means: centroids seeded from the first k rows
    (input order), euclidean assignment with lowest-centroid tie-break
    (``np.argmin``), fixed iteration count, empty clusters keep their
    centroid.  The offline stand-in for the reference's sklearn KMeans
    inside cluster_documents (``utils.py``)."""
    import numpy as np

    embs = np.asarray(embs, dtype=np.float64)
    cents = embs[:k].copy()
    labels = np.zeros(len(embs), dtype=np.int64)
    for _ in range(iters):
        d = ((embs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d, axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            m = labels == c
            if m.any():
                cents[c] = embs[m].mean(axis=0)
    return labels


def _value_sample(rows: list[dict], cfg: dict) -> list[dict]:
    """Deterministic recast of reduce value_sampling (reduce.py:298-322):
    bound the rows fed to the prompt.  ``first_n`` is verbatim;
    ``random`` replaces RNG with an md5-of-position keep-rule (stable
    across runs/parallelism), keeping original order like the reference's
    post-sample re-sort.

    ``cluster`` / ``sem_sim`` (reference reduce.py:403-464) are recast
    with a CALLER-SUPPLIED embedding column (``cfg["embedding_col"]``,
    the same pattern as rank's embedding ordering) instead of an
    embedding-service call:

    - ``cluster``: deterministic k-means into ``sample_size`` clusters
      (seeded from the first k rows), then the reference's round-robin
      cluster visit with its ``random.randint`` member pick replaced by
      an md5-of-(visit, cluster-size) pick — stable across runs.
    - ``sem_sim``: cosine against ``cfg["query_embedding"]`` (the
      caller-computed embedding of the reference's rendered
      ``query_text``), top ``sample_size`` via ``np.argsort`` keeping
      the reference's ascending-similarity output order
      (reduce.py:462-464).
    """
    if not cfg or not cfg.get("enabled"):
        return rows
    n = min(cfg["sample_size"], len(rows))
    method = cfg.get("method", "first_n")
    if method == "first_n" or len(rows) <= n:
        return rows[:n]
    if method == "random":
        keyed = sorted(
            range(len(rows)),
            key=lambda i: hashlib.md5(f"vs|{i}|{len(rows)}".encode()).hexdigest(),
        )[:n]
        return [rows[i] for i in sorted(keyed)]  # original order, reduce.py:305-306
    if method in ("cluster", "sem_sim"):
        import numpy as np

        emb_col = cfg.get("embedding_col")
        if not emb_col:
            raise NotImplementedError(
                f"value_sampling method {method!r} needs embeddings: supply "
                "a precomputed embedding column via "
                "value_sampling['embedding_col'] (the offline recast of the "
                "reference's embedding-service call, reduce.py:309-321)"
            )
        embs = np.asarray([r[emb_col] for r in rows], dtype=np.float64)
        if method == "sem_sim":
            q = np.asarray(cfg["query_embedding"], dtype=np.float64)
            qn = q / max(float(np.linalg.norm(q)), 1e-300)
            en = embs / np.maximum(
                np.linalg.norm(embs, axis=1, keepdims=True), 1e-300
            )
            sims = en @ qn
            top = np.argsort(sims, kind="stable")[-n:]
            return [rows[i] for i in top]
        labels = _kmeans_labels(embs, n)
        clusters = [np.flatnonzero(labels == c).tolist() for c in range(n)]
        sampled: list[dict] = []
        added: set[int] = set()
        for i in range(n):
            members = [m for m in clusters[i % n] if m not in added]
            if not members:
                continue
            seed = int(
                hashlib.md5(f"vsc|{i}|{len(members)}".encode()).hexdigest()[:8],
                16,
            )
            pick = members[seed % len(members)]
            added.add(pick)
            sampled.append(rows[pick])
        return sampled
    raise NotImplementedError(
        f"unknown value_sampling method {method!r} "
        "(reference reduce.py:298-322)"
    )


def make_reduce_group(complete, prompt: str, output_schema: dict,
                      *, fold_prompt: str | None = None,
                      fold_batch_size: int | None = None,
                      merge_prompt: str | None = None,
                      merge_batch_size: int | None = None,
                      scratchpad: bool = False,
                      value_sampling: dict | None = None,
                      associative: bool = True):
    """Per-group reduce plan (plain / fold / fold+merge-tree /
    scratchpad / value_sampling — reduce.py:324-699) shared byte-exact
    by the Ray stage (``llm_reduce``) and the MOAR plan simulator
    (``moar._sim_llm_reduce``): both execute THIS function, so the
    simulator's call count and token totals equal the engine's by
    construction.  ``complete(rendered, schema) -> dict`` supplies the
    client (and any gleaning loop); the returned callable maps
    ``(rows, key_ctx) -> dict`` and may include ``updated_scratchpad``,
    which callers strip from the final output."""

    def _batch_reduce(rows, key_ctx, pad=None):
        schema = dict(output_schema)
        ctx = {"inputs": rows, "reduce_key": key_ctx}
        if pad is not None:
            schema["updated_scratchpad"] = "str"
            ctx["scratchpad"] = pad
        return complete(render_prompt(prompt, ctx), schema)

    def _fold(rows, current, key_ctx, pad=None):
        if current is None:
            return _batch_reduce(rows, key_ctx, pad)
        schema = dict(output_schema)
        ctx = {"inputs": rows, "output": current, "reduce_key": key_ctx}
        if pad is not None:
            schema["updated_scratchpad"] = "str"
            ctx["scratchpad"] = pad
        return complete(render_prompt(fold_prompt, ctx), schema)

    def _merge(outputs, key_ctx):
        ctx = {"outputs": outputs, "reduce_key": key_ctx}
        return complete(render_prompt(merge_prompt, ctx), output_schema)

    def _reduce_group(rows, key_ctx) -> dict:
        sampled = _value_sample(rows, value_sampling)
        if fold_batch_size and fold_batch_size >= len(sampled):
            return _batch_reduce(sampled, key_ctx)  # reduce.py:328-334
        if merge_prompt and associative and fold_batch_size:
            # fold each batch independently, then merge-tree the outputs
            folds = [
                _batch_reduce(sampled[i : i + fold_batch_size], key_ctx)
                for i in range(0, len(sampled), fold_batch_size)
            ]
            # mb=1 would re-merge singletons without shrinking the list
            # (infinite loop + unbounded API spend on a real client)
            mb = max(2, merge_batch_size or 2)
            while len(folds) > 1:
                folds = [
                    _merge(folds[i : i + mb], key_ctx)
                    for i in range(0, len(folds), mb)
                ]
            return folds[0]
        if fold_prompt and fold_batch_size:
            current, pad = None, ("" if scratchpad else None)
            for i in range(0, len(sampled), fold_batch_size):
                out = _fold(sampled[i : i + fold_batch_size], current, key_ctx, pad)
                if scratchpad and "updated_scratchpad" in out:
                    pad = out.pop("updated_scratchpad")  # reduce.py:686-693
                current = out
            return current if current is not None else {}
        return _batch_reduce(sampled, key_ctx)

    return _reduce_group


def llm_reduce(ds, reduce_key, prompt: str, output_schema: dict, *,
               client_factory=None, pass_through: bool = False,
               fold_prompt: str | None = None, fold_batch_size: int | None = None,
               merge_prompt: str | None = None, merge_batch_size: int | None = None,
               scratchpad: bool = False, value_sampling: dict | None = None,
               associative: bool = True, gleaning: dict | None = None,
               observability: bool = False, op_name: str = "reduce"):
    """Grouped prompt reduce with the reference's plan surface
    (reduce.py:324-699):

    - plain: render ``prompt`` with the whole group (``inputs``) — one
      call per group (``_batch_reduce``, reduce.py:915-980).  Unbounded
      group => unbounded prompt; use a fold plan for big groups.
    - incremental fold (``fold_prompt`` + ``fold_batch_size``): fold
      batches sequentially into the accumulated ``output``; optional
      ``scratchpad`` threads ``updated_scratchpad`` between folds and
      strips it from the final output (reduce.py:631-699).
    - fold+merge (``merge_prompt`` too, ``associative=True``): fold each
      batch independently, then reduce the fold outputs with a merge
      tree in rounds of ``merge_batch_size`` (reduce.py:466-629; the
      reference's runtime-adaptive parallel-fold count is recast as a
      deterministic merge tree — same prompts, reproducible shape).
    - ``value_sampling``: bound the rows fed to prompts (reduce.py:298-322).
    - ``gleaning``: validator-driven refinement of every reduce
      generation (the reference's reduce_gleaning directive surface,
      ``reasoning_optimizer/directives/reduce_gleaning.py``) — same
      config dict and loop as the map surface (``glean_loop``).

    One output row per group; ``_counts_prereduce`` always counts the
    FULL group (pre-sampling), matching reduce.py:343.
    """
    keys = [reduce_key] if isinstance(reduce_key, str) else list(reduce_key)
    # "_all": whole-dataset reduce (reference reduce_key "_all" form) —
    # group on an appended constant so ONE group sees every row; the
    # helper column never reaches prompts or the output row
    global_all = keys == ["_all"]
    if global_all:
        def _add_all(b: pa.Table) -> pa.Table:
            return b.append_column(
                "_all", pa.array(np.zeros(b.num_rows, dtype=np.int64)))

        ds = ds.map_batches(_add_all, batch_format="pyarrow")

    stage = {"client": None, "last_prompt": ""}

    def _client():
        if stage["client"] is None:
            stage["client"] = (client_factory or FakeDeterministicClient)()
        return stage["client"]

    def _complete(rendered: str, schema: dict) -> dict:
        stage["last_prompt"] = rendered  # _observability_{op}, reduce.py:345-347
        out = _client().complete(rendered, schema)
        if gleaning:
            # reduce_gleaning: every reduce generation (batch, fold,
            # merge) goes through the validator loop — the reference
            # validates "after each LLM generation during the reduce
            # process" (reduce_gleaning.py:20-21)
            out = glean_loop(_client(), rendered, out, schema, gleaning)
        return out

    _reduce_group = make_reduce_group(
        _complete, prompt, output_schema,
        fold_prompt=fold_prompt, fold_batch_size=fold_batch_size,
        merge_prompt=merge_prompt, merge_batch_size=merge_batch_size,
        scratchpad=scratchpad, value_sampling=value_sampling,
        associative=associative,
    )

    def fn(group: pa.Table) -> pa.Table:
        rows = group.to_pylist()
        if global_all:
            rows = [{k: v for k, v in r.items() if k != "_all"} for r in rows]
            key_ctx: dict = {}
        else:
            key_ctx = {k: rows[0][k] for k in keys}
        out = _reduce_group(rows, key_ctx)
        row = {} if global_all else {k: rows[0][k] for k in keys}
        if pass_through and rows:
            for c, v in rows[0].items():
                row.setdefault(c, v)
        row.update({k: v for k, v in out.items() if k != "updated_scratchpad"})
        row["_counts_prereduce"] = group.num_rows
        if observability:
            # reference emits _observability_{op} for reduce too
            # (reduce.py:345-347); record the final rendered prompt
            row[f"_observability_{op_name}"] = json.dumps(
                {"prompt": stage["last_prompt"], "model": _client().model}
            )
        return pa.Table.from_pylist([row])

    fn.__name__ = "llm_reduce"
    if global_all:
        # the reference reduces [("_all", input_data)] unconditionally
        # (reduce.py:259), so empty input still yields one row; a groupby
        # has no group to call fn on, so short-circuit that case
        ds = ds.materialize()
        if ds.count() == 0:
            import ray.data as rd

            return rd.from_arrow(fn(pa.table({})))
    return _groupby_normalized(ds, keys, fn)


def _key_runs(t: pa.Table, cols: list[str]) -> list[pa.Table]:
    """One slice of ``t`` per distinct ``cols`` value, in key order; null
    keys form their own group and rows keep their order within a group
    (the sort is stable)."""
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return []
    t = t.take(pc.sort_indices(
        t, sort_keys=[(c, "ascending") for c in cols], null_placement="at_end"
    ))
    starts = np.zeros(t.num_rows, dtype=bool)
    starts[0] = True
    for c in cols:
        col = t[c].combine_chunks()
        nxt, prev = col.slice(1), col.slice(0, t.num_rows - 1)
        differs = pc.or_(
            pc.fill_null(pc.not_equal(nxt, prev), False),
            pc.not_equal(pc.is_null(nxt), pc.is_null(prev)),
        )
        starts[1:] |= differs.to_numpy(zero_copy_only=False)
    bounds = np.append(np.flatnonzero(starts), t.num_rows)
    return [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _groupby_normalized(ds, keys: list[str], fn):
    """Per-key-group ``fn`` over Arrow groups, through the shared keyed
    exchange (``grouped._bucketed_exchange``): each bucket task splits
    its rows into key runs and calls ``fn`` per run.  Arrow end to end —
    a pandas round trip would turn nullable ints into floats in the
    rendered prompts.  Tolerates LIST-valued key columns: the reference
    normalizes list keys to sorted tuples (``reduce.py:266-270``); here
    a list-typed key column groups on a companion ``__norm_<k>`` json
    string of the sorted elements (dropped before ``fn`` sees the group,
    so the original list value is echoed into the output from the first
    group row as usual).  List keys are detected per batch inside the
    split tasks, so the upstream runs once: no schema probe."""
    import pyarrow.types as pat

    from .grouped import _bucketed_exchange

    norm_cols = {k: f"__norm_{k}" for k in keys}

    def group_cols(t: pa.Table) -> list[str]:
        return [norm_cols[k] if norm_cols[k] in t.column_names else k for k in keys]

    def add_norm(batch: pa.Table):
        for k in keys:
            if pat.is_list(batch[k].type) or pat.is_large_list(batch[k].type):
                vals = [
                    json.dumps(sorted(v, key=repr), default=str)
                    if v is not None else None
                    for v in batch[k].to_pylist()
                ]
                batch = batch.append_column(norm_cols[k], pa.array(vals, pa.string()))
        return batch, group_cols(batch)

    def per_bucket(bucket: pa.Table) -> pa.Table:
        bucket = bucket.drop_columns(["_gbucket"])
        norms = [c for c in norm_cols.values() if c in bucket.column_names]
        outs = [
            fn(g.drop_columns(norms)) for g in _key_runs(bucket, group_cols(bucket))
        ]
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs, promote_options="permissive")

    per_bucket.__name__ = getattr(fn, "__name__", "llm_reduce")
    return _bucketed_exchange(ds, add_norm, 32, per_bucket)
