"""MOAR — docetl's MCTS pipeline-plan search (reference
``/root/reference/docetl/moar/MOARSearch.py`` + ``Node.py`` +
``ParetoFrontier.py`` + ``reasoning_optimizer/directives/``), recast
deterministic and offline.

The reference explores a tree of pipeline rewrites: each node is a full
pipeline config, each edge applies a *rewrite directive* to one
operator, each node is scored by executing the plan on a sample dataset
(real $ cost from litellm) and evaluating its output (a per-dataset
accuracy harness); a cost/accuracy Pareto frontier turns (cost, acc)
into scalar rewards that drive UCB selection.  Four reference surfaces
cannot run in this sandbox and are recast, same decision structure,
deterministic substance:

=====================  =================================================
reference surface       recast
=====================  =================================================
LLM agent picks the     reward-greedy deterministic chooser over the
(directive, operator)   SAME action space the reference builds
pair and instantiates   (used-actions ledger, directive-group bans
the rewrite             after a failed sibling, compression exclusions
(``MOARSearch.expand``, for code/extract ops); directives instantiate
``directives/*.py``)    by rule from sampled-data statistics
plan execution via      driver-side interpreter over the sample rows
``DSLRunner`` on a      that calls the SAME code the Ray stages
sample file             execute: ``LLMMapStage.__call__`` for prompt
(``Node.execute_plan``) map/filter, ``split_batch`` /
                        ``gather_render_group``, the runner's code-op
                        semantics, ``llm_reduce``'s batch/fold shapes
$ cost from litellm     integer micro-dollar ledger: per-model
response headers        per-token rates × whitespace-token counts of
                        every prompt/response actually issued
dataset accuracy        deterministic synthetic oracle (documented
harness                 quality model: per-model base quality ±
(``evaluate_func``)     per-directive deltas, per-row md5-seeded
                        correctness draws over the EXECUTED output);
                        ``evaluate_func`` stays pluggable for real use
=====================  =================================================

Everything else — UCB with sqrt-visit expansion caps
(``search_utils.is_fully_explored``), dual acc+cost expansion of
first-layer nodes (``MOARSearch.search_iteration:421-447``), the
50th-percentile accuracy rule choosing the optimize goal
(``get_optimize_goal:657-695``), step-function frontier projection
rewards (``ParetoFrontier.project_to_frontier:157-181``,
``update_pareto_frontier_HV:222-320``), multi-instance directives
simulating 2 candidates and keeping the best
(``_simulate_children:484-560``), early stop after 10 frontier-stale
iterations (``should_continue:1117-1130``) — is mirrored 1:1.

Directive coverage vs ``reasoning_optimizer/directives/``: every
rule-instantiable directive is recast (gleaning, reduce_gleaning,
chaining, reduce_chaining, doc_chunking, doc_chunking_topk,
chunk_header_summary, take_head_tail, doc_summarization,
doc_compression → deterministic_doc_compression, isolating_subtasks,
clarify_instructions, hierarchical_reduce, cascade_filtering,
operator_fusion, map_reduce_fusion, swap_with_code).
``change_model_acc``/``change_model_cost`` are covered by the
per-model ``ChangeModelDirective`` pool (the reference builds one
directive per catalog model the same way,
``change_model_cost.create_model_specific_directives``).
``arbitrary_rewrite`` — the agent free-editing the pipeline JSON — is
recast with the agent's AUTHORING step replaced by caller-supplied
search/replace edits (``ArbitraryRewriteDirective(edits=...)``, passed
via ``MoarSearch(directives=...)``); the apply mechanics mirror the
reference 1:1.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import re
from typing import Any, Callable

import pyarrow as pa

from .optimizer import (_RAW_RE, _chunk_ladder, _ntokens, _prompt_fields,
                        _sub_field_refs, _tok_str, build_chunk_plan)
from .stages.llm import FakeDeterministicClient, LLMMapStage, render_prompt

# ---------------------------------------------------------------------------
# model catalog + cost ledger
# ---------------------------------------------------------------------------

#: Synthetic model tiers (stand-ins for the reference's Azure model list,
#: ``MOARSearch.__init__ available_models``).  Rates are integer
#: micro-dollars PER WHITESPACE TOKEN so simulated costs are exact
#: integers (no float-summation drift between the engine and the DuckDB
#: oracle); ``quality_permille`` drives the synthetic accuracy oracle.
MODEL_CATALOG: dict[str, dict[str, int]] = {
    "det-large": {"in_micro": 10_000, "out_micro": 30_000, "quality_permille": 930},
    "det-medium": {"in_micro": 3_000, "out_micro": 15_000, "quality_permille": 860},
    "det-small": {"in_micro": 250, "out_micro": 1_250, "quality_permille": 740},
    "det-mini": {"in_micro": 50, "out_micro": 400, "quality_permille": 620},
}

DEFAULT_MODELS = list(MODEL_CATALOG)


class ModelSeededClient(FakeDeterministicClient):
    """`FakeDeterministicClient` whose outputs depend on the model name
    (different models give different answers, like real ones) and which
    meters every call into an integer micro-dollar ledger — the recast of
    litellm's ``response_cost`` accounting (``MOARSearch.expand:855-862``).
    """

    def __init__(self, model: str):
        super().__init__(model=model)
        if model not in MODEL_CATALOG:
            raise ValueError(f"unknown model {model!r} (catalog: {sorted(MODEL_CATALOG)})")
        self.rates = MODEL_CATALOG[model]
        self.in_tokens = 0
        self.out_tokens = 0

    def _digest(self, prompt: str) -> bytes:
        return hashlib.md5(f"{self.model}|{prompt}".encode("utf-8")).digest()

    def complete(self, prompt: str, output_schema: dict) -> dict:
        self.in_tokens += _ntokens(prompt)
        out = super().complete(prompt, output_schema)
        self.out_tokens += _ntokens(json.dumps(out, sort_keys=True, default=str))
        return out

    @property
    def cost_micro(self) -> int:
        return (self.in_tokens * self.rates["in_micro"]
                + self.out_tokens * self.rates["out_micro"])


# ---------------------------------------------------------------------------
# driver-side plan simulation
# ---------------------------------------------------------------------------

_PROMPT_OPS = ("map", "llm_map", "filter", "llm_filter", "reduce", "llm_reduce")


def _is_prompt_op(op: dict) -> bool:
    return op.get("type") in _PROMPT_OPS and "prompt" in op and "code" not in op


class SimResult:
    __slots__ = ("rows", "cost_micro", "calls", "in_tokens", "out_tokens")

    def __init__(self, rows, cost_micro, calls, in_tokens, out_tokens):
        self.rows = rows
        self.cost_micro = cost_micro
        self.calls = calls
        self.in_tokens = in_tokens
        self.out_tokens = out_tokens


def simulate_plan(ops: list[dict], rows: list[dict], *,
                  default_model: str = "det-large") -> SimResult:
    """Execute a pipeline's op chain over sample rows driver-side — the
    recast of ``Node.execute_plan`` (Node.py:123-188), which runs the
    candidate YAML through DSLRunner on the sample dataset.  The search
    is a planning phase over ≤ a few hundred rows; the WINNING plan runs
    on Ray at full scale through ``PipelineRunner``.  Prompt map/filter
    ops call ``LLMMapStage.__call__`` on an Arrow batch — the byte-exact
    code the Ray actor pool executes — and split/gather reuse the
    stages' module-level batch/group functions, so simulated token
    counts equal executed ones."""
    from .runner import _exec_code
    from .stages.unnest_split_gather import (
        gather_reference_render_group,
        gather_render_group,
        is_reference_gather,
        split_batch,
    )

    clients: dict[str, ModelSeededClient] = {}

    def client_for(op: dict) -> ModelSeededClient:
        m = op.get("model", default_model)
        if m not in clients:
            clients[m] = ModelSeededClient(m)
        return clients[m]

    for op in ops:
        t = op["type"]
        if not rows:
            # engine parity on empty input: every op yields empty EXCEPT
            # an ``_all`` reduce, code or prompt, which always runs and
            # emits exactly one row (runner.py's code ``_all`` branch;
            # llm_reduce's empty ``_all`` short-circuit) — a prefilter
            # that drops the whole sample must not silence it
            emits_on_empty = (
                t in ("reduce", "llm_reduce", "code_reduce")
                and op.get("reduce_key", "_all") in ("_all", ["_all"])
            )
            if not emits_on_empty:
                continue
        if t in ("map", "llm_map", "code_map") and "code" in op:
            fn = _exec_code(op["code"])
            rows = [dict(r, **(fn(dict(r)) or {})) for r in rows]
            if op.get("drop_keys"):
                rows = [{k: v for k, v in r.items()
                         if k not in op["drop_keys"]} for r in rows]
        elif t in ("map", "llm_map"):
            client = client_for(op)
            stage = LLMMapStage(
                op["prompt"], op["output"]["schema"],
                client_factory=lambda c=client: c,
                validate=op.get("validate"),
                num_retries_on_validate_failure=op.get(
                    "num_retries_on_validate_failure", 2),
                drop_on_validation_failure=op.get(
                    "drop_on_validation_failure", False),
                gleaning=op.get("gleaning"),
                batch_prompt=op.get("batch_prompt"),
                op_name=op.get("name", "map"),
            )
            rows = stage(pa.Table.from_pylist(rows)).to_pylist()
            if op.get("drop_keys"):
                rows = [{k: v for k, v in r.items()
                         if k not in op["drop_keys"]} for r in rows]
        elif t in ("filter", "llm_filter", "code_filter") and "code" in op:
            fn = _exec_code(op["code"])
            rows = [r for r in rows if bool(fn(dict(r)))]
        elif t in ("filter", "llm_filter"):
            # llm_filter: bool schema, keep truthy, drop the bool
            # (llm.py:318-331)
            client = client_for(op)
            key = op.get("filter_key", "keep")
            stage = LLMMapStage(op["prompt"], {key: "bool"},
                                client_factory=lambda c=client: c,
                                op_name=op.get("name", "filter"))
            out = stage(pa.Table.from_pylist(rows)).to_pylist()
            rows = [{k: v for k, v in r.items() if k != key}
                    for r in out if r.get(key)]
        elif t in ("reduce", "llm_reduce", "code_reduce") and "code" in op:
            fn = _exec_code(op["code"])
            rows = _sim_groups(rows, op, lambda g, ctx: fn(g) or {})
        elif t in ("reduce", "llm_reduce"):
            client = client_for(op)
            rows = _sim_llm_reduce(rows, op, client)
        elif t == "split":
            kw = op.get("method_kwargs", {})
            rows = split_batch(
                pa.Table.from_pylist(rows), op["split_key"],
                name=op.get("name", "split"),
                method=op.get("method", "token_count"),
                token_count=kw.get("num_tokens", kw.get("token_count", 100)),
                delimiter=kw.get("delimiter", "\n\n"),
                num_splits_to_group=kw.get("num_splits_to_group", 1),
            ).to_pylist()
        elif t == "gather":
            import pandas as pd

            pc_cfg = op.get("peripheral_chunks") or {}
            reference_form = is_reference_gather(op)
            df = pa.Table.from_pylist(rows).to_pandas()
            out = []
            for _, g in df.groupby(op["doc_id_key"], sort=True):
                if reference_form:  # same dispatch as runner.py gather
                    out.append(gather_reference_render_group(
                        g, op["content_key"], op["order_key"],
                        peripheral_chunks=pc_cfg,
                        doc_header_key=op.get("doc_header_key"),
                        main_chunk_start=op.get(
                            "main_chunk_start", "--- Begin Main Chunk ---"),
                        main_chunk_end=op.get(
                            "main_chunk_end", "--- End Main Chunk ---"),
                    ))
                else:
                    out.append(gather_render_group(
                        g, op["content_key"], op["order_key"],
                        previous_count=pc_cfg.get("previous", 1),
                        next_count=pc_cfg.get("next", 1),
                        doc_header_key=op.get("doc_header_key"),
                    ))
            rows = pd.concat(out).to_dict("records") if out else []
        else:
            raise ValueError(
                f"moar simulator does not support op type {t!r}")

    cost = sum(c.cost_micro for c in clients.values())
    return SimResult(
        rows, cost,
        sum(c.calls for c in clients.values()),
        sum(c.in_tokens for c in clients.values()),
        sum(c.out_tokens for c in clients.values()),
    )


def _sim_groups(rows, op, reduce_fn):
    key = op.get("reduce_key", "_all")
    keys = [key] if isinstance(key, str) else list(key)
    # counts-column naming must match what PipelineRunner emits for the
    # same op, or simulated plans diverge from executed ones: keyed CODE
    # reduces get the reference-style suffixed column
    # (runner.py code_reduce counts_column=_counts_prereduce_{name});
    # LLM reduces and the _all code path use the plain name
    # (llm.py llm_reduce / runner.py _all branch).
    grouped = keys != ["_all"]
    counts_col = (f"_counts_prereduce_{op.get('name', 'reduce')}"
                  if "code" in op and grouped else "_counts_prereduce")
    if not grouped:
        groups = {(): rows}
        keys = []
    else:
        groups: dict[tuple, list[dict]] = {}
        for r in rows:
            groups.setdefault(tuple(r.get(k) for k in keys), []).append(r)
    out = []
    for gk in sorted(groups, key=repr):
        g = groups[gk]
        row = {k: v for k, v in zip(keys, gk)}
        ctx = dict(row)
        res = reduce_fn(g, ctx)
        if op.get("pass_through") and g:
            for c, v in g[0].items():
                row.setdefault(c, v)
        row.update(res)
        row[counts_col] = len(g)
        out.append(row)
    return out


def _sim_llm_reduce(rows, op, client):
    """Prompt-reduce simulation: executes the SAME per-group plan the
    Ray stage runs — ``llm.make_reduce_group`` covers plain, incremental
    fold, fold+merge-tree, ``scratchpad`` threading, and
    ``value_sampling`` — so simulated call counts and token totals equal
    the engine's by construction.  ``gleaning`` wraps every generation
    in the same validator loop (``glean_loop``)."""
    from .stages.llm import glean_loop, make_reduce_group

    gleaning = op.get("gleaning")

    def _complete(rendered, sch):
        out = client.complete(rendered, sch)
        if gleaning:
            out = glean_loop(client, rendered, out, sch, gleaning)
        return out

    reduce_group = make_reduce_group(
        _complete, op["prompt"], op["output"]["schema"],
        fold_prompt=op.get("fold_prompt"),
        fold_batch_size=op.get("fold_batch_size"),
        merge_prompt=op.get("merge_prompt"),
        merge_batch_size=op.get("merge_batch_size"),
        scratchpad=op.get("scratchpad", False),
        value_sampling=op.get("value_sampling"),
        associative=op.get("associative", True),
    )

    def reduce_fn(g, key_ctx):
        out = reduce_group(g, key_ctx)
        return {k: v for k, v in out.items() if k != "updated_scratchpad"}

    return _sim_groups(rows, op, reduce_fn)


# ---------------------------------------------------------------------------
# synthetic accuracy oracle
# ---------------------------------------------------------------------------

def plan_quality_permille(ops: list[dict], default_model: str) -> tuple[int, str]:
    """The synthetic quality model: base = the WEAKEST prompt-op model's
    catalog quality (a pipeline is as accurate as its weakest call),
    adjusted by each directive's documented ``acc_delta_permille`` note.
    Returns ``(clamped permille, model name that set the base)``."""
    base, base_model = None, default_model
    for op in ops:
        if _is_prompt_op(op):
            m = op.get("model", default_model)
            q = MODEL_CATALOG[m]["quality_permille"]
            if base is None or q < base:
                base, base_model = q, m
    if base is None:
        base = MODEL_CATALOG[default_model]["quality_permille"]
    delta = 0
    for op in ops:
        note = op.get("_moar") or {}
        delta += int(note.get("acc_delta_permille", 0))
        delta += sum(int(p.get("acc_delta_permille", 0))
                     for p in note.get("stacked", []))
    return max(0, min(999, base + delta)), base_model


def _row_sig(row: dict, id_field: str | None) -> str:
    if id_field is not None and id_field in row:
        return str(row[id_field])
    return json.dumps(row, sort_keys=True, default=str)


def default_accuracy(result_rows: list[dict], qp: int, model: str,
                     id_field: str | None = None) -> float:
    """Deterministic stand-in for the reference's dataset evaluation
    harness (``MOARSearch.evaluate_node:283-343``): each EXECUTED output
    row is judged correct iff an md5-seeded draw lands under the plan's
    quality — mean correctness ≈ quality with per-row noise, so the
    frontier is non-trivial but exactly reproducible (the draw is
    replayable in SQL: first 8 md5 hex chars as uint % 1000 < qp)."""
    if not result_rows:
        return 0.0
    correct = 0
    for row in result_rows:
        key = f"{model}|{qp}|{_row_sig(row, id_field)}"
        seed = int(hashlib.md5(key.encode("utf-8")).hexdigest()[:8], 16)
        if seed % 1000 < qp:
            correct += 1
    return correct / len(result_rows)


# ---------------------------------------------------------------------------
# rewrite directives (deterministic instantiation)
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z]{5,}")


def _prompt_keywords(prompt: str, n: int = 5) -> list[str]:
    """Static prompt words (≥5 letters, jinja refs stripped) — the
    deterministic stand-in for the reference's LLM-extracted relevance
    terms (``deterministic_doc_compression.py`` asks the agent for
    extraction regexes)."""
    static = re.sub(r"\{\{.*?\}\}|\{%.*?%\}", " ", prompt)
    seen: list[str] = []
    for w in _WORD_RE.findall(static.lower()):
        if w not in seen:
            seen.append(w)
    return seen[:n]


def _doc_field(op: dict, sample_rows: list[dict]) -> str | None:
    """The prompt-referenced field carrying the most sampled tokens —
    same choice rule as ``Optimizer._optimize_map``."""
    fields = [f for f in _prompt_fields(op.get("prompt", ""))
              if sample_rows and f in sample_rows[0]
              and isinstance(sample_rows[0].get(f), str)]
    if not fields:
        return None
    return max(fields, key=lambda f: sum(
        _ntokens(_tok_str(r.get(f))) for r in sample_rows))




def _reduce_doc_field(op: dict, ctx: "SearchContext") -> str | None:
    """The token-heaviest sampled string field the reduce prompt
    references (as ``.{field}`` inside its per-input loop) — the
    deterministic stand-in for the agent picking which document column
    to distill (``reduce_chaining.py`` / ``swap_with_code.py``).
    References inside ``{% raw %}`` blocks are quoted text, not live
    template refs, and do not count."""
    prompt = _RAW_RE.sub(" ", op.get("prompt", ""))
    if not ctx.sample_rows:
        return None
    fields = [f for f in sorted(ctx.sample_rows[0])
              if isinstance(ctx.sample_rows[0].get(f), str)
              and re.search(r"\.\s*%s\b" % re.escape(f), prompt)]
    if not fields:
        return None
    return max(fields, key=lambda f: sum(
        _ntokens(_tok_str(r.get(f))) for r in ctx.sample_rows))


class MoarDirective:
    """One rewrite directive (reference ``directives/base.py``).
    ``instantiate`` returns ≥1 candidate op-lists (full pipelines);
    multi-instance directives return 2 (``MULTI_INSTANCE_DIRECTIVES``,
    ``directives/__init__.py:83-90``) and the search keeps the more
    accurate one."""

    name: str = ""
    group: str | None = None
    multi_instance: bool = False

    def applicable(self, op: dict, ops: list[dict]) -> bool:
        raise NotImplementedError

    def instantiate(self, ops: list[dict], target: str, *, goal: str,
                    ctx: "SearchContext") -> list[list[dict]]:
        raise NotImplementedError

    def _replace(self, ops: list[dict], target: str,
                 new_ops: list[dict]) -> list[dict]:
        out: list[dict] = []
        for op in ops:
            if op.get("name") == target:
                out.extend(new_ops)
            else:
                out.append(copy.deepcopy(op))
        return out

    def __repr__(self):  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class SearchContext:
    """Per-search state handed to directive instantiation: the sample
    rows (for data-driven parameter choices) and the token budget."""

    def __init__(self, sample_rows: list[dict], token_limit: int,
                 default_model: str):
        self.sample_rows = sample_rows
        self.token_limit = token_limit
        self.default_model = default_model


def _note(op: dict, directive: str, acc_delta: int, **extra) -> dict:
    """Stamp the op with a decision note.  A prior directive's note is
    STACKED, not overwritten — its acc delta keeps counting in
    ``plan_quality_permille`` and its name stays in the plan ledger
    (``_plan_directives``), since the prior rewrite's behavior (e.g. a
    gleaning config) still executes on the derived op."""
    op = dict(op)
    prior = op.get("_moar")
    note = {"directive": directive, "acc_delta_permille": acc_delta, **extra}
    if prior:
        note["stacked"] = (list(prior.get("stacked", []))
                           + [{k: v for k, v in prior.items()
                               if k != "stacked"}])
    op["_moar"] = note
    return op


def _plan_directives(ops: list[dict]) -> set[str]:
    """Every directive recorded anywhere in the plan, including notes
    stacked under later rewrites of the same op."""
    out: set[str] = set()
    for op in ops:
        note = op.get("_moar") or {}
        if note.get("directive"):
            out.add(note["directive"])
        for prior in note.get("stacked", []):
            if prior.get("directive"):
                out.add(prior["directive"])
    return out


class ChangeModelDirective(MoarDirective):
    """``change to <model>`` (reference
    ``change_model_cost.create_model_specific_directives``): repoint one
    prompt op's model.  Accuracy impact flows through the catalog
    quality, not a note."""

    def __init__(self, target_model: str):
        self.target_model = target_model
        self.name = f"change to {target_model}"

    def applicable(self, op, ops):
        return _is_prompt_op(op) and op.get("model") != self.target_model

    def instantiate(self, ops, target, *, goal, ctx):
        new = [dict(copy.deepcopy(op), model=self.target_model)
               if op.get("name") == target else copy.deepcopy(op)
               for op in ops]
        return [new]


class GleaningDirective(MoarDirective):
    """Add a validator-driven refinement round (reference
    ``gleaning.py``; executed by ``LLMMapStage._glean``).  More calls
    (cost ↑), quality note +25‰."""

    name = "gleaning"

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and not op.get("gleaning"))

    def instantiate(self, ops, target, *, goal, ctx):
        def rewrite(op):
            g = {"validation_prompt":
                 "Check the output for missing or incorrect fields.",
                 "num_rounds": 1}
            return _note(dict(op, gleaning=g), self.name, +25)
        return [self._replace(ops, target,
                              [rewrite(o) for o in ops
                               if o.get("name") == target])]


class ChainingDirective(MoarDirective):
    """Split a multi-key map into two sequential maps (reference
    ``chaining.py``): isolating subtasks helps each call focus
    (note +15‰) at ~2× call cost."""

    name = "chaining"

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and len(op.get("output", {}).get("schema", {})) >= 2)

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        schema = op["output"]["schema"]
        keys = sorted(schema)
        half = len(keys) // 2 or 1
        first, second = keys[:half], keys[half:]
        name = op.get("name", "map")
        op1 = _note(dict(op, name=f"{name}_part1",
                         output={"schema": {k: schema[k] for k in first}}),
                    self.name, +15)
        prompt2 = (op["prompt"]
                   + "\n\nEarlier extracted fields:\n"
                   + "".join("{{ input.%s }}\n" % k for k in first)
                   + "Now produce only the remaining fields.")
        op2 = dict(op, name=f"{name}_part2", prompt=prompt2,
                   output={"schema": {k: schema[k] for k in second}})
        op2.pop("_moar", None)
        return [self._replace(ops, target, [op1, op2])]


class DocChunkingDirective(MoarDirective):
    """Rewrite a long-doc map into split→gather→submap→combine
    (reference ``doc_chunking.py``; plan shape from
    ``map_optimizer/operation_creators.py`` via ``build_chunk_plan``).
    Two candidate chunk rungs from the data-driven ladder
    (``config_generators.py:412-455``); accuracy note +40‰ when sampled
    p90 doc tokens overflow the budget (chunking rescues truncation),
    −15‰ otherwise (needless fragmentation)."""

    name = "doc_chunking"
    group = "chunking"
    multi_instance = True

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and not any(o.get("type") == "split" for o in ops))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        split_key = _doc_field(op, ctx.sample_rows)
        if split_key is None:
            return []
        rungs, p90, overflows = _chunk_rungs(split_key, ctx)
        delta = +40 if overflows else -15
        out = []
        for rung in rungs:
            plan = build_chunk_plan(copy.deepcopy(op), split_key, rung)
            plan[0] = _note(plan[0], self.name, delta,
                            chunk_tokens=rung, p90_doc_tokens=p90)
            out.append(self._replace(ops, target, plan))
        return out


def _chunk_rungs(split_key: str,
                 ctx: "SearchContext") -> tuple[list[int], int, bool]:
    """Data-driven chunk-size candidates shared by both chunking
    directives (``doc_chunking`` / ``doc_chunking_topk`` must always
    pick from the same ladder): the largest budget-fitting rung plus a
    mid-ladder alternative, the sampled p90 doc tokens, and whether p90
    overflows the 0.75×token-limit budget (the accuracy-delta signal)."""
    counts = sorted(_ntokens(_tok_str(r.get(split_key)))
                    for r in ctx.sample_rows) or [0]
    p90 = counts[min(len(counts) - 1, int(0.9 * (len(counts) - 1)))]
    budget = int(ctx.token_limit * 0.75)
    ladder = _chunk_ladder(counts, ctx.token_limit)
    fitting = [c for c in ladder if c <= budget] or ladder[:1]
    rungs = [fitting[-1]]
    if len(fitting) > 1:
        rungs.append(fitting[len(fitting) // 2])
    return list(dict.fromkeys(rungs)), p90, p90 > budget


def _truncate_code(field: str, head: int, tail: int) -> str:
    """code_map body keeping the first ``head`` + last ``tail``
    whitespace tokens of ``field`` (reference ``take_head_tail.py``)."""
    return (
        "def transform(doc):\n"
        f"    toks = str(doc.get({field!r}) or '').split()\n"
        f"    if len(toks) <= {head + tail}:\n"
        "        return {}\n"
        f"    kept = toks[:{head}] + ['...'] + (toks[-{tail}:] if {tail} else [])\n"
        f"    return {{{field!r}: ' '.join(kept)}}\n"
    )


class TakeHeadTailDirective(MoarDirective):
    """Truncate the doc to head+tail before the prompt op (reference
    ``take_head_tail.py``).  Cost ↓ sharply, note −30‰ (dropped middle
    may carry the answer).  Two instantiations: head-heavy and
    balanced."""

    name = "take_head_tail"
    multi_instance = True

    def applicable(self, op, ops):
        return _is_prompt_op(op) and op["type"] in ("map", "llm_map")

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _doc_field(op, ctx.sample_rows)
        if field is None:
            return []
        budget = int(ctx.token_limit * 0.75)
        name = op.get("name", "map")
        out = []
        for tag, head, tail in (
            ("head_heavy", int(budget * 0.6), int(budget * 0.2)),
            ("balanced", int(budget * 0.4), int(budget * 0.4)),
        ):
            trunc = _note(
                {"name": f"{name}_{tag}", "type": "code_map",
                 "code": _truncate_code(field, head, tail)},
                self.name, -30, variant=tag, head=head, tail=tail)
            out.append(self._replace(
                ops, target, [trunc, copy.deepcopy(op)]))
        return out


class DocSummarizationDirective(MoarDirective):
    """Compress the doc to each paragraph's lead sentence before the
    prompt op — the deterministic recast of the reference's LLM
    summarization pre-step (``doc_summarization.py``).  Cost ↓,
    note −20‰."""

    name = "doc_summarization"
    group = "compression"

    def applicable(self, op, ops):
        return _is_prompt_op(op) and op["type"] in ("map", "llm_map")

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _doc_field(op, ctx.sample_rows)
        if field is None:
            return []
        code = (
            "def transform(doc):\n"
            f"    text = str(doc.get({field!r}) or '')\n"
            "    leads = []\n"
            "    for para in text.split('\\n\\n'):\n"
            "        sent = para.split('. ', 1)[0].strip()\n"
            "        if sent:\n"
            "            leads.append(sent)\n"
            f"    return {{{field!r}: '. '.join(leads)}}\n"
        )
        pre = _note({"name": f"{op.get('name', 'map')}_summarize",
                     "type": "code_map", "code": code}, self.name, -20)
        return [self._replace(ops, target, [pre, copy.deepcopy(op)])]


class DeterministicDocCompressionDirective(MoarDirective):
    """Keep only sentences containing prompt keywords (reference
    ``deterministic_doc_compression.py`` — the agent writes extraction
    regexes; the recast derives keyword patterns from the prompt's
    static words).  Two instantiations: strict (matching sentences
    only) and loose (± one neighbor sentence).  Note −10‰."""

    name = "deterministic_doc_compression"
    group = "compression"
    multi_instance = True

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and bool(_prompt_keywords(op.get("prompt", ""))))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _doc_field(op, ctx.sample_rows)
        if field is None:
            return []
        kws = _prompt_keywords(op["prompt"])
        name = op.get("name", "map")
        out = []
        for tag, spread in (("strict", 0), ("loose", 1)):
            code = (
                "def transform(doc):\n"
                f"    text = str(doc.get({field!r}) or '')\n"
                "    sents = text.replace('\\n', ' ').split('. ')\n"
                f"    kws = {kws!r}\n"
                "    keep = set()\n"
                "    for i, s in enumerate(sents):\n"
                "        low = s.lower()\n"
                "        if any(k in low for k in kws):\n"
                f"            for j in range(i - {spread}, i + {spread} + 1):\n"
                "                if 0 <= j < len(sents):\n"
                "                    keep.add(j)\n"
                "    kept = [sents[i] for i in sorted(keep)] or sents[:1]\n"
                f"    return {{{field!r}: '. '.join(kept)}}\n"
            )
            pre = _note({"name": f"{name}_compress_{tag}",
                         "type": "code_map", "code": code},
                        self.name, -10, variant=tag, keywords=kws)
            out.append(self._replace(ops, target, [pre, copy.deepcopy(op)]))
        return out


class IsolatingSubtasksDirective(MoarDirective):
    """One focused map per output field (reference
    ``isolating_subtasks.py``): each call produces a single schema key
    with an isolation suffix, so no field competes for attention.
    K× calls (cost ↑), note +20‰."""

    name = "isolating_subtasks"

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and len(op.get("output", {}).get("schema", {})) >= 2)

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        schema = op["output"]["schema"]
        name = op.get("name", "map")
        subs = []
        for i, k in enumerate(sorted(schema)):
            sub = dict(copy.deepcopy(op), name=f"{name}_only_{k}",
                       prompt=(op["prompt"]
                               + f"\n\nProduce ONLY the field '{k}'; "
                                 "ignore every other field."),
                       output={"schema": {k: schema[k]}})
            if i == 0:
                sub = _note(sub, self.name, +20)  # stacks any prior note
            else:
                sub.pop("_moar", None)  # count the prior note once
            subs.append(sub)
        return [self._replace(ops, target, subs)]


class ClarifyInstructionsDirective(MoarDirective):
    """Sharpen the prompt (reference ``clarify_instructions.py`` — the
    agent rewrites ambiguous instructions).  Two deterministic
    variants: an explicit field specification derived from the output
    schema, and a step-by-step framing.  Cost ~unchanged, note +10‰."""

    name = "clarify_instructions"
    multi_instance = True

    def applicable(self, op, ops):
        return _is_prompt_op(op) and op["type"] in ("map", "llm_map",
                                                    "filter", "llm_filter")

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        schema = op.get("output", {}).get("schema", {})
        spec = "".join(f"- {k} ({schema[k]})\n" for k in sorted(schema))
        variants = [
            ("field_spec",
             op["prompt"] + "\n\nReturn EXACTLY these fields:\n" + spec
             if spec else
             op["prompt"] + "\n\nAnswer strictly true or false."),
            ("step_by_step",
             op["prompt"] + "\n\nWork step by step: read the whole "
             "input first, then produce each field in order."),
        ]
        out = []
        for tag, prompt in variants:
            new = _note(dict(copy.deepcopy(op), prompt=prompt),
                        self.name, +10, variant=tag)
            out.append(self._replace(ops, target, [new]))
        return out


class MapReduceFusionDirective(MoarDirective):
    """Fold an adjacent map's instruction into the downstream reduce
    prompt (reference ``map_reduce_fusion.py``): one call per GROUP
    replaces per-row map calls + the reduce call.  Cost ↓ sharply,
    note −10‰ (the group call does two jobs)."""

    name = "map_reduce_fusion"

    def _next_reduce(self, op, ops):
        names = [o.get("name") for o in ops]
        i = names.index(op.get("name"))
        if i + 1 < len(ops):
            nxt = ops[i + 1]
            if (_is_prompt_op(nxt)
                    and nxt["type"] in ("reduce", "llm_reduce")):
                key = nxt.get("reduce_key", "_all")
                keys = [key] if isinstance(key, str) else list(key)
                if not (set(op.get("output", {}).get("schema", {}))
                        & set(keys)):
                    return nxt
        return None

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and self._next_reduce(op, ops) is not None)

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        red = self._next_reduce(op, ops)
        if red is None:
            return []
        # The map prompt references ``{{ input.* }}``; a reduce context
        # binds ``inputs`` (the group), so re-bind it per member with a
        # Jinja loop — each group row is rendered under the map's own
        # instruction before the reduce instruction runs over them.
        fused = _note(dict(
            copy.deepcopy(red),
            name=f"{op['name']}_{red['name']}_fused",
            prompt=("For each input, first apply:\n"
                    "{% for input in inputs %}\n" + op["prompt"]
                    + "\n{% endfor %}\n"
                    "\nThen, over the per-input results:\n"
                    + red["prompt"]),
        ), self.name, -10)
        out: list[dict] = []
        for o in ops:
            if o.get("name") == target:
                out.append(fused)
            elif o.get("name") == red.get("name"):
                continue
            else:
                out.append(copy.deepcopy(o))
        return [out]


class ArbitraryRewriteDirective(MoarDirective):
    """Search/replace edits over the pipeline JSON (reference
    ``arbitrary_rewrite.py``).  The reference's agent AUTHORS the edits;
    that part has no deterministic substance, so this recast takes the
    edits from the CALLER (``edits=[{"search": ..., "replace": ...,
    "acc_delta_permille": ...}]``) and mirrors the reference's apply
    mechanics 1:1 (``arbitrary_rewrite.py:288-322``): dump ops as
    4-indent JSON, apply each edit to the FIRST occurrence in sequence
    (missing search strings skip with the other edits still applied),
    re-parse, drop empty ops.  Not in ``BASE_DIRECTIVES`` — pass it via
    ``MoarSearch(directives=...)`` like the reference passes the
    directive to the agent loop."""

    name = "arbitrary_rewrite"

    def __init__(self, edits: list[dict], acc_delta_permille: int = 0):
        self.edits = list(edits)
        self.acc_delta = acc_delta_permille

    def _apply(self, ops: list[dict]) -> list[dict] | None:
        text = json.dumps(ops, indent=4)
        hit = False
        for e in self.edits:
            if e["search"] in text:
                text = text.replace(e["search"], e["replace"], 1)
                hit = True
        if not hit:
            return None
        try:
            new_ops = json.loads(text)
        except json.JSONDecodeError:
            return None  # reference raises; the search treats it as dead
        if not isinstance(new_ops, list):
            return None
        return [op for op in new_ops if op]

    def applicable(self, op, ops):
        # pipeline-level: anchor on the first op so the action space
        # carries exactly one (op, directive) option per plan
        if not ops or op is not ops[0]:
            return False
        stripped = [{k: v for k, v in o.items() if k != "_moar"}
                    for o in ops]
        return self._apply(stripped) is not None

    def instantiate(self, ops, target, *, goal, ctx):
        notes = {o.get("name"): o.get("_moar") for o in ops}
        stripped = [{k: v for k, v in o.items() if k != "_moar"}
                    for o in ops]
        new_ops = self._apply(stripped)
        if new_ops is None:
            return []
        out = []
        for i, o in enumerate(new_ops):
            prior = notes.get(o.get("name"))
            if prior:
                o = dict(o, _moar=prior)  # surviving ops keep their notes
            if i == 0:
                o = _note(o, self.name, self.acc_delta)
            out.append(o)
        return [out]


class ReduceGleaningDirective(MoarDirective):
    """Add a validator-driven refinement loop to a reduce op (reference
    ``reduce_gleaning.py``: after each reduce generation a judge LLM
    validates; failures refine up to ``num_rounds``).  Executed by
    ``llm_reduce(gleaning=...)`` via the shared ``glean_loop``.  More
    calls (cost ↑), note +25‰ — same weight as map gleaning."""

    name = "reduce_gleaning"

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("reduce", "llm_reduce")
                and not op.get("gleaning"))

    def instantiate(self, ops, target, *, goal, ctx):
        def rewrite(op):
            g = {"validation_prompt":
                 "Check the output covers every input and that no field "
                 "is missing or incorrect.",
                 "num_rounds": 1}
            return _note(dict(op, gleaning=g), self.name, +25)
        return [self._replace(ops, target,
                              [rewrite(o) for o in ops
                               if o.get("name") == target])]


class ReduceChainingDirective(MoarDirective):
    """Reduce => Map -> Reduce (reference ``reduce_chaining.py``): a
    per-document extraction map distills the long field the reduce
    prompt iterates over, and the reduce reads the distilled column
    instead.  Deterministic instantiation: the doc field is the
    token-heaviest sampled string field referenced by the reduce prompt
    (same choice rule as ``_doc_field``); the map's focus text is the
    reduce prompt embedded under ``{% raw %}``.  Note +10‰ (focused
    per-doc extraction); cost is measured, not asserted."""

    name = "reduce_chaining"

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("reduce", "llm_reduce")
                and not op.get("fold_prompt")
                and self.name not in _plan_directives(ops))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _reduce_doc_field(op, ctx)
        if field is None:
            return []
        notes = f"{field}_notes"
        name = op.get("name", "reduce")
        # quote the task as jinja-STRIPPED static text: a {% raw %} wrap
        # would nest fatally when the reduce prompt itself contains one
        task_text = re.sub(r"\{\{.*?\}\}|\{%.*?%\}", " ", op["prompt"])
        extract = _note({
            "name": f"{name}_extract", "type": "map",
            "prompt": ("Extract only the information this task needs "
                       "from the document below.\nTask:\n\""
                       + task_text + "\"\n\nDocument:\n"
                       "{{ input." + field + " }}"),
            "output": {"schema": {notes: "str"}},
        }, self.name, +10)
        # the reduce keeps its own prior note (a gleaning config copied
        # by deepcopy still executes and must keep its acc credit)
        new_red = dict(copy.deepcopy(op),
                       prompt=_sub_field_refs(op["prompt"], field, notes))
        return [self._replace(ops, target, [extract, new_red])]


class ChunkHeaderSummaryDirective(MoarDirective):
    """Split -> Gather => Split -> Map -> Gather (reference
    ``chunk_header_summary.py``): a per-chunk stage between split and
    gather extracts headers and a summary; gather then renders middle
    peripheral chunks from the SUMMARY column and threads the header
    hierarchy.  Recast deterministic: headers come from a code_map
    markdown-header scan (real ``{header, level}`` structs — the
    agent-written extractor recast as a rule), the summary from an LLM
    map; the gather upgrades to the reference dict-form config with
    ``middle: {content_key: <summary>}``.  Note +15‰ on the gather."""

    name = "chunk_header_summary"

    def _downstream_gather(self, op, ops):
        if op.get("type") != "split":
            return None
        content = f"{op['split_key']}_chunk"
        for o in ops:
            if (o.get("type") == "gather" and o.get("content_key") == content
                    and not any(isinstance(v, dict) for v in
                                (o.get("peripheral_chunks") or {}).values())):
                return o
        return None

    def applicable(self, op, ops):
        return self._downstream_gather(op, ops) is not None

    def instantiate(self, ops, target, *, goal, ctx):
        split = next(o for o in ops if o.get("name") == target)
        gather = self._downstream_gather(split, ops)
        if gather is None:
            return []
        content = f"{split['split_key']}_chunk"
        headers, summary = f"{content}_headers", f"{content}_summary"
        header_map = {
            "name": f"{target}_headers", "type": "code_map",
            "code": (
                "def transform(doc):\n"
                "    import re\n"
                "    out = []\n"
                f"    for line in str(doc.get({content!r}) or '').splitlines():\n"
                "        m = re.match(r'^(#{1,6})\\s+(.*)', line)\n"
                "        if m:\n"
                "            out.append({'header': m.group(2).strip(),\n"
                "                        'level': len(m.group(1))})\n"
                f"    return {{{headers!r}: out}}\n"),
        }
        summary_map = {
            "name": f"{target}_summary", "type": "map",
            "prompt": ("Summarize this chunk in one sentence:\n"
                       "{{ input." + content + " }}"),
            "output": {"schema": {summary: "str"}},
        }
        new_gather = _note(dict(
            copy.deepcopy(gather),
            doc_header_key=headers,
            peripheral_chunks={
                "previous": {"head": {"count": 1},
                             "middle": {"content_key": summary}},
                "next": {"head": {"count": 1}},
            },
        ), self.name, +15)
        out: list[dict] = []
        for o in ops:
            if o.get("name") == target:
                out.extend([copy.deepcopy(o), header_map, summary_map])
            elif o.get("name") == gather.get("name"):
                out.append(new_gather)
            else:
                out.append(copy.deepcopy(o))
        return [out]


class SwapWithCodeDirective(MoarDirective):
    """Reduce => Code Reduce (reference ``swap_with_code.py``): replace
    an LLM reduce whose schema is codeable (int / str / list[str] keys
    only) with a deterministic code_reduce — int keys count the group,
    list[str] keys collect sorted distinct values of the prompt's doc
    field, str keys join the first 10 of those.  The agent-written code
    recast as a schema-driven rule.  LLM cost → 0; note −40‰ (code
    approximates the semantic task)."""

    name = "swap_with_code"

    _CODEABLE = ("int", "integer", "str", "string", "text",
                 "list[str]", "list[string]")

    def applicable(self, op, ops):
        if not (_is_prompt_op(op) and op["type"] in ("reduce", "llm_reduce")):
            return False
        schema = op.get("output", {}).get("schema", {})
        return bool(schema) and all(
            str(t).lower() in self._CODEABLE for t in schema.values())

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _reduce_doc_field(op, ctx)
        if field is None:
            return []
        schema = op["output"]["schema"]
        lines = ["def transform(rows):",
                 # drop rows missing/empty on the field: '' elements in
                 # list outputs and a leading '; ' in joins otherwise
                 f"    vals = sorted({{str(r.get({field!r}) or '') for r in rows}} - {{''}})",
                 "    out = {}"]
        for k in sorted(schema):
            t = str(schema[k]).lower()
            if t in ("int", "integer"):
                lines.append(f"    out[{k!r}] = len(rows)")
            elif t.startswith("list"):
                lines.append(f"    out[{k!r}] = vals")
            else:
                lines.append(f"    out[{k!r}] = '; '.join(vals[:10])")
        lines.append("    return out")
        code_red = _note({
            "name": f"{target}_code", "type": "code_reduce",
            "reduce_key": op.get("reduce_key", "_all"),
            "code": "\n".join(lines) + "\n",
        }, self.name, -40)
        if op.get("pass_through"):
            code_red["pass_through"] = True
        return [self._replace(ops, target, [code_red])]


class DocChunkingTopKDirective(MoarDirective):
    """Chunk the doc and submit only RELEVANT chunks to the model
    (reference ``doc_chunking_topk.py`` — chunk, embed, keep the top-k
    chunks by query relevance).  Recast: after the split, a code_filter
    keeps chunks containing a prompt keyword (chunk 1 always survives so
    no document disappears); the submap bills only surviving chunks.
    Cost ↓ vs plain chunking; note +20‰ when docs overflow the budget
    (less than full chunking's +40 — dropped chunks may matter), −25‰
    otherwise."""

    name = "doc_chunking_topk"
    group = "chunking"
    multi_instance = True

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and not any(o.get("type") == "split" for o in ops)
                and bool(_prompt_keywords(op.get("prompt", ""))))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        split_key = _doc_field(op, ctx.sample_rows)
        if split_key is None:
            return []
        rungs, _p90, overflows = _chunk_rungs(split_key, ctx)
        delta = +20 if overflows else -25
        kws = _prompt_keywords(op["prompt"])
        name = op.get("name", "map")
        chunk_col = f"{split_key}_chunk"
        num_col = f"{name}_split_chunk_num"
        out = []
        for rung in rungs:
            plan = build_chunk_plan(copy.deepcopy(op), split_key, rung)
            plan[0] = _note(plan[0], self.name, delta,
                            chunk_tokens=rung, keywords=kws)
            keep_code = (
                "def transform(doc):\n"
                f"    if doc.get({num_col!r}) == 1:\n"
                "        return True\n"
                f"    low = str(doc.get({chunk_col!r}) or '').lower()\n"
                f"    return any(k in low for k in {kws!r})\n"
            )
            keep = {"name": f"{name}_relevant_chunks",
                    "type": "code_filter", "code": keep_code}
            out.append(self._replace(
                ops, target, [plan[0], keep] + plan[1:]))
        return out


class HierarchicalReduceDirective(MoarDirective):
    """Two-level reduce (reference ``hierarchical_reduce.py``): reduce
    on a finer composite key first, then reduce the sub-results to the
    original key — each call sees a bounded group.  The sub-key is the
    lowest-cardinality other column with >1 distinct sampled values
    (deterministic stand-in for the agent's choice).  Note +10‰ (bounded
    prompts truncate less)."""

    name = "hierarchical_reduce"

    def _sub_key(self, op, rows) -> str | None:
        key = op.get("reduce_key")
        keys = [key] if isinstance(key, str) else list(key or [])
        if not rows or not keys or keys == ["_all"]:
            return None
        best, best_card = None, None
        for col in sorted(rows[0]):
            if col in keys or col.startswith("_"):
                continue
            vals = {r.get(col) for r in rows}
            if not all(isinstance(v, (str, int, bool)) or v is None
                       for v in vals):
                continue
            if 1 < len(vals) <= max(2, len(rows) // 2):
                if best_card is None or len(vals) < best_card:
                    best, best_card = col, len(vals)
        return best

    def applicable(self, op, ops):
        return (_is_prompt_op(op)
                and op["type"] in ("reduce", "llm_reduce")
                and not op.get("fold_prompt"))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        sub = self._sub_key(op, ctx.sample_rows)
        if sub is None:
            return []
        key = op["reduce_key"]
        keys = [key] if isinstance(key, str) else list(key)
        name = op.get("name", "reduce")
        fine = _note(dict(copy.deepcopy(op), name=f"{name}_fine",
                          reduce_key=keys + [sub]),
                     self.name, +10, sub_key=sub)
        coarse = dict(copy.deepcopy(op), name=f"{name}_coarse")
        coarse.pop("_moar", None)
        return [self._replace(ops, target, [fine, coarse])]


class CascadeFilteringDirective(MoarDirective):
    """Cheap deterministic prefilter ahead of an LLM filter (reference
    ``cascade_filtering.py``: a cheap model screens, the strong model
    confirms).  Recast: a code_filter keeping rows whose doc field
    length clears a sampled percentile — two instantiations (median /
    p25 cutoffs).  Note −10‰ (the prefilter may drop true
    positives)."""

    name = "cascade_filtering"
    multi_instance = True

    def applicable(self, op, ops):
        return (_is_prompt_op(op)
                and op["type"] in ("filter", "llm_filter"))

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        field = _doc_field(op, ctx.sample_rows)
        if field is None:
            return []
        lens = sorted(len(str(r.get(field, ""))) for r in ctx.sample_rows)
        if not lens:
            return []
        out = []
        for tag, frac in (("median", 0.5), ("p25", 0.25)):
            cutoff = lens[min(len(lens) - 1, int(frac * (len(lens) - 1)))]
            code = (
                "def transform(doc):\n"
                f"    return len(str(doc.get({field!r}) or '')) >= {cutoff}\n"
            )
            pre = _note({"name": f"{op.get('name', 'filter')}_pre_{tag}",
                         "type": "code_filter", "code": code},
                        self.name, -10, variant=tag, cutoff=cutoff)
            out.append(self._replace(ops, target, [pre, copy.deepcopy(op)]))
        return out


class OperatorFusionDirective(MoarDirective):
    """Fuse two ADJACENT prompt maps into one call with the merged
    schema (reference ``operator_fusion.py``).  One call instead of two
    (cost ↓); note −5‰ (one prompt now does two jobs)."""

    name = "operator_fusion"

    def _next_map(self, op, ops):
        names = [o.get("name") for o in ops]
        i = names.index(op.get("name"))
        if i + 1 < len(ops):
            nxt = ops[i + 1]
            if (_is_prompt_op(nxt) and nxt["type"] in ("map", "llm_map")
                    and not nxt.get("gleaning") and not op.get("gleaning")):
                return nxt
        return None

    def applicable(self, op, ops):
        return (_is_prompt_op(op) and op["type"] in ("map", "llm_map")
                and self._next_map(op, ops) is not None)

    def instantiate(self, ops, target, *, goal, ctx):
        op = next(o for o in ops if o.get("name") == target)
        nxt = self._next_map(op, ops)
        if nxt is None:
            return []
        merged_schema = {**op["output"]["schema"], **nxt["output"]["schema"]}
        fused = _note(dict(
            op, name=f"{op['name']}_{nxt['name']}_fused",
            prompt=op["prompt"] + "\n\nAdditionally:\n" + nxt["prompt"],
            output={"schema": merged_schema},
        ), self.name, -5)
        out: list[dict] = []
        for o in ops:
            if o.get("name") == target:
                out.append(fused)
            elif o.get("name") == nxt.get("name"):
                continue
            else:
                out.append(copy.deepcopy(o))
        return [out]


#: same group semantics as the reference: after a directive from a group
#: fails on an op, its whole group is banned for the next expansion of
#: that op (``MOARSearch.expand:712-722``); compression directives never
#: apply to code_map / extract ops
#: (``search_utils.get_excluded_directives_for_operation``)
DIRECTIVE_GROUPS = {"compression": ("doc_summarization",
                                    "deterministic_doc_compression"),
                    "chunking": ("doc_chunking", "doc_chunking_topk")}

#: registration order doubles as the deterministic tie-break priority of
#: the reward-greedy chooser (the recast of the agent's pick)
BASE_DIRECTIVES: tuple[Callable[[], MoarDirective], ...] = (
    GleaningDirective, ReduceGleaningDirective, DocChunkingDirective,
    ChainingDirective, ReduceChainingDirective,
    IsolatingSubtasksDirective, ClarifyInstructionsDirective,
    DeterministicDocCompressionDirective, DocSummarizationDirective,
    TakeHeadTailDirective, DocChunkingTopKDirective,
    ChunkHeaderSummaryDirective, HierarchicalReduceDirective,
    CascadeFilteringDirective, MapReduceFusionDirective,
    OperatorFusionDirective, SwapWithCodeDirective,
)


# ---------------------------------------------------------------------------
# search tree
# ---------------------------------------------------------------------------

class PlanNode:
    """Reference ``Node`` (Node.py:17-121): a pipeline config plus MCTS
    bookkeeping.  Configs live in memory (dicts), not YAML files."""

    def __init__(self, ops: list[dict], default_model: str,
                 parent: "PlanNode | None" = None, node_id: int = 0,
                 is_multi_instance: bool = False):
        self.ops = ops
        self.default_model = default_model
        self.parent = parent
        self.children: list[PlanNode] = []
        self.id = node_id
        self.visits = 0
        self.value = 0.0
        self.cost = -1          # micro-dollars; -1 = failed (Node.py:99)
        self.accuracy = float("-inf")
        self.result_rows: list[dict] = []
        self.memo: list[tuple[str, str]] = []   # (directive, target op)
        self.latest_action: MoarDirective | None = None
        self.is_multi_instance = is_multi_instance
        self.used_actions: dict[str, set[str]] = {
            op["name"]: set() for op in ops if "name" in op}

    def add_child(self, child: "PlanNode"):
        self.children.append(child)
        child.parent = self

    def update_value(self, value: float):
        # skip NaN / -inf like the reference (Node.py:284-308)
        if value is None or value != value or value == float("-inf"):
            return
        self.value += value

    def best_child(self, rng: random.Random) -> "PlanNode":
        """UCB child pick; ties broken by the search's seeded RNG (the
        reference uses ``random.choice``, Node.py:207-241)."""
        def ucb(child: PlanNode) -> float:
            if child.cost == -1 or child.visits == 0:
                return float("-inf")
            return (child.value / child.visits
                    + math.sqrt(2) * math.sqrt(
                        math.log(self.visits) / child.visits))

        scored = [(ucb(c), c) for c in self.children]
        top = max(s for s, _ in scored)
        tied = [c for s, c in scored if s == top]
        return rng.choice(tied)

    def mark_action_used(self, op_name: str, action_name: str):
        self.used_actions.setdefault(op_name, set()).add(action_name)

    def path(self) -> str:
        if not self.memo:
            return "ROOT"
        return " -> ".join(["ROOT"] + [f"{d}({o})" for d, o in self.memo])


def is_fully_explored(node: PlanNode) -> bool:
    """sqrt-visit expansion cap (``search_utils.is_fully_explored``):
    a node may hold at most ``max(2, 1 + floor(sqrt(visits)))``
    children, and every child must have been simulated."""
    if node.parent is None:
        # the root's children ARE the fixed first layer — selection
        # always descends (search_utils.is_fully_explored root case)
        return bool(node.children)
    allowed = max(2, 1 + math.floor(math.sqrt(float(node.visits))))
    if len(node.children) < allowed:
        return False
    return all(c.visits > 0 for c in node.children)


class ParetoFrontier:
    """Reference ``ParetoFrontier`` (ParetoFrontier.py:17-320) minus the
    pairwise-LLM accuracy estimator (accuracies arrive pre-evaluated,
    the ``add_plan_f1`` path) and matplotlib plotting."""

    def __init__(self):
        self.plans: list[PlanNode] = []
        self.plans_accuracy: dict[PlanNode, float] = {}
        self.plans_cost: dict[PlanNode, int] = {}
        self.frontier_plans: list[PlanNode] = []
        self.frontier_data: list[list[float]] = []   # [acc, cost]
        self.node_distances: dict[PlanNode, float] = {}
        self.action_rewards: dict[str, float] = {}
        self.action_cost_changes: dict[str, float] = {}
        self.action_accuracy_changes: dict[str, float] = {}

    @staticmethod
    def project_to_frontier(node_acc: float, node_cost: float,
                            frontier_data: list[list[float]]) -> float:
        """Vertical distance to the frontier step function
        (ParetoFrontier.py:157-181)."""
        if not frontier_data:
            return node_acc
        step_acc = 0.0
        for fp_acc, fp_cost in sorted(frontier_data, key=lambda x: x[1]):
            if node_cost >= fp_cost:
                step_acc = fp_acc
            else:
                break
        return abs(node_acc - step_acc)

    def _update_action_rewards(self, node: PlanNode, reward: float):
        a = node.latest_action
        if a is None:
            return
        self.action_rewards[a.name] = self.action_rewards.get(a.name, 0.0) + reward
        p = node.parent
        if p in self.plans_cost and node in self.plans_cost:
            self.action_cost_changes[a.name] = (
                self.action_cost_changes.get(a.name, 0.0)
                + self.plans_cost[node] - self.plans_cost[p])
        if p in self.plans_accuracy and node in self.plans_accuracy:
            self.action_accuracy_changes[a.name] = (
                self.action_accuracy_changes.get(a.name, 0.0)
                + self.plans_accuracy[node] - self.plans_accuracy[p])

    def add_plan(self, node: PlanNode,
                 accuracy: float) -> tuple[dict[PlanNode, float], bool]:
        """``add_plan_f1`` + ``update_pareto_frontier_HV``
        (ParetoFrontier.py:844-875, 222-320): returns the
        {node: reward} map for backpropagation and whether the frontier
        changed."""
        if node.cost == -1:
            self.plans_accuracy[node] = float("-inf")
            return {}, False
        self.plans.append(node)
        self.plans_cost[node] = node.cost
        self.plans_accuracy[node] = accuracy

        valid = sorted((n for n in self.plans if n.cost != -1),
                       key=lambda n: self.plans_cost[n])
        old_frontier = set(self.frontier_plans)
        archive = [[self.plans_accuracy[n], self.plans_cost[n]]
                   for n in self.frontier_plans if n in valid]

        frontier, best = [], float("-inf")
        for n in valid:
            acc = self.plans_accuracy.get(n, 0.0)
            if acc > best:
                frontier.append(n)
                best = acc
        new_data = [[self.plans_accuracy[n], self.plans_cost[n]]
                    for n in frontier]
        new_set = set(frontier)
        updated = new_set != old_frontier

        affected: dict[PlanNode, float] = {}
        for n in valid:
            acc, cost = self.plans_accuracy[n], self.plans_cost[n]
            if n in new_set and n not in old_frontier:
                d = self.project_to_frontier(acc, cost, archive)
                affected[n] = d
                self.node_distances[n] = d
                self._update_action_rewards(n, d)
            elif (n not in new_set and n in old_frontier) or n is node:
                d = self.project_to_frontier(acc, cost, new_data)
                affected[n] = -d
                self.node_distances[n] = -d
                if n is node:
                    self._update_action_rewards(n, -d)
            elif n not in new_set:
                d = self.project_to_frontier(acc, cost, new_data)
                affected[n] = -d - self.node_distances.get(n, 0.0)
                self.node_distances[n] = -d
        self.frontier_plans = frontier
        self.frontier_data = new_data
        return affected, updated

    def delete_plan(self, node: PlanNode):
        if node in self.plans:
            self.plans.remove(node)
        self.plans_accuracy.pop(node, None)
        self.plans_cost.pop(node, None)
        if node in self.frontier_plans:
            self.frontier_plans.remove(node)
        self.node_distances.pop(node, None)


class MoarSearch:
    """The MCTS loop (``MOARSearch``), single-threaded and seeded.

    The reference's three concurrent LLM agents
    (``search:345-399``) exist to hide API latency; the recast's
    simulations are microseconds, so iterations run sequentially —
    same tree policy, reproducible order."""

    def __init__(self, ops: list[dict], sample_rows: list[dict], *,
                 models: list[str] | None = None,
                 directives: list[MoarDirective] | None = None,
                 evaluate_func: Callable[[list[dict], int, str], float] | None = None,
                 id_field: str | None = None,
                 max_iterations: int = 20,
                 token_limit: int = 8192,
                 seed: int = 0):
        self.models = list(models or DEFAULT_MODELS)
        self.sample_rows = sample_rows
        self.ctx = SearchContext(sample_rows, token_limit, self.models[0])
        self.max_iterations = max_iterations
        self.iteration_count = 0
        self.iterations_without_improvement = 0
        self.total_search_cost = 0   # micro-dollars across all simulations
        self.rng = random.Random(seed)
        self.id_field = id_field
        self.evaluate_func = evaluate_func
        self._next_id = 0

        self.directives: dict[str, MoarDirective] = {}
        if directives is None:
            for factory in BASE_DIRECTIVES:
                d = factory()
                self.directives[d.name] = d
        else:
            for d in directives:
                self.directives[d.name] = d
        # model-specific change directives join the pool as their models
        # prove frontier-worthy (MOARSearch.__init__:243-252)
        self.frontier_models: list[str] = []
        self.action_counts: dict[str, int] = {n: 0 for n in self.directives}

        self.frontier = ParetoFrontier()
        self.root = PlanNode([copy.deepcopy(o) for o in ops],
                             self.models[0], node_id=self._take_id())
        self._build_first_layer()

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- simulation --------------------------------------------------------

    def simulate(self, node: PlanNode) -> tuple[int, float]:
        """(MOARSearch.simulate:1027-1077): execute then evaluate; a
        failed execution leaves cost −1 / accuracy −inf and never joins
        the frontier."""
        try:
            res = simulate_plan(node.ops, self.sample_rows,
                                default_model=node.default_model)
        except Exception:
            node.cost = -1
            return -1, float("-inf")
        node.cost = res.cost_micro
        node.result_rows = res.rows
        try:
            # inside the failure guard: a non-catalog model on an op (or
            # as the plan default) raises KeyError here when no prompt op
            # ever instantiated a client during simulation — that fails
            # THIS plan, not the whole search
            qp, qmodel = plan_quality_permille(node.ops, node.default_model)
            if self.evaluate_func is not None:
                node.accuracy = float(self.evaluate_func(res.rows, qp, qmodel))
            else:
                node.accuracy = default_accuracy(res.rows, qp, qmodel,
                                                 id_field=self.id_field)
        except Exception:
            # a raising evaluation harness fails THIS plan, not the whole
            # search (reference MOARSearch.evaluate_node catches and
            # returns -inf, MOARSearch.py:1060-1074)
            node.cost = -1
            node.accuracy = float("-inf")
            return -1, float("-inf")
        self.total_search_cost += max(res.cost_micro, 0)
        return node.cost, node.accuracy

    # -- first layer -------------------------------------------------------

    def _build_first_layer(self):
        """One child per available model with that model as the default
        (MOARSearch.__init__:180-276): simulate all, keep only frontier
        members, register their model-change directives, mark
        change-model used on every op of each survivor."""
        for m in self.models:
            child = PlanNode([copy.deepcopy(o) for o in self.root.ops], m,
                             node_id=self._take_id())
            for op in child.ops:
                if _is_prompt_op(op):
                    op["model"] = m
            cost, acc = self.simulate(child)
            if cost == -1:
                continue
            self.root.add_child(child)
            self.frontier.add_plan(child, acc)

        for child in list(self.root.children):
            if child not in self.frontier.frontier_plans:
                self.frontier.delete_plan(child)
                self.root.children.remove(child)
        for child in self.root.children:
            child.visits, child.value = 1, 0.0
            m = child.default_model
            self.frontier_models.append(m)
            d = ChangeModelDirective(m)
            self.directives[d.name] = d
            self.action_counts.setdefault(d.name, 0)
            child.latest_action = d
            if child.used_actions:
                first_op = next(iter(child.used_actions))
                child.memo.append((d.name, first_op))
            for op_name in child.used_actions:
                for name, dd in self.directives.items():
                    if isinstance(dd, ChangeModelDirective):
                        child.mark_action_used(op_name, name)
        self.root.visits = len(self.root.children)

    # -- selection ---------------------------------------------------------

    def select(self) -> PlanNode:
        cur = self.root
        while is_fully_explored(cur) and cur.children:
            cur = cur.best_child(self.rng)
        return cur

    def get_optimize_goal(self, node: PlanNode) -> str:
        """Top-half accuracy plans chase cost, bottom half chase
        accuracy (MOARSearch.get_optimize_goal:657-695)."""
        accs = sorted(a for a in self.frontier.plans_accuracy.values()
                      if a != float("-inf"))
        if not accs:
            return "acc"
        threshold = accs[len(accs) // 2]
        node_acc = self.frontier.plans_accuracy.get(node, float("-inf"))
        return "cost" if node_acc > threshold else "acc"

    # -- expansion ---------------------------------------------------------

    def _action_options(self, node: PlanNode,
                        goal: str) -> list[tuple[str, str]]:
        """The reference's action-space construction
        (MOARSearch.expand:706-816): per op, drop used actions, drop the
        failed sibling's directive group, drop compression for
        code/extract ops; cost goal only admits change-model directives
        pointing at CHEAPER frontier models, acc goal admits none."""
        banned: set[str] = set()
        last_op = None
        if node.memo and node.value < 0:
            last_directive, last_op = node.memo[-1]
            for group, names in DIRECTIVE_GROUPS.items():
                if last_directive in names:
                    banned = set(names)
        # a directive already present in the plan lineage (its _moar note
        # survives in some op) never re-applies — the recast's stand-in
        # for the agent reading the memo and not repeating itself
        in_plan = _plan_directives(node.ops)
        options: list[tuple[str, str]] = []
        for op in node.ops:
            op_name = op.get("name")
            if op_name is None:
                continue
            used = node.used_actions.get(op_name, set())
            excluded: set[str] = set()
            if op.get("type") in ("code_map", "extract"):
                excluded = set(DIRECTIVE_GROUPS["compression"])
            op_banned = banned if (last_op is None or last_op == op_name) else set()
            for name, d in self.directives.items():
                if name in used or name in excluded or name in op_banned:
                    continue
                if name in in_plan:
                    continue
                if isinstance(d, ChangeModelDirective):
                    if goal != "cost":
                        continue
                    cur_model = op.get("model", node.default_model)
                    if d.target_model not in self.frontier_models:
                        continue
                    if not self._is_cheaper(d.target_model, cur_model):
                        continue
                if not d.applicable(op, node.ops):
                    continue
                options.append((op_name, name))
        return options

    def _is_cheaper(self, target: str, current: str) -> bool:
        return (MODEL_CATALOG[target]["in_micro"]
                < MODEL_CATALOG[current]["in_micro"])

    def _choose_action(self, options: list[tuple[str, str]]
                       ) -> tuple[str, str]:
        """The deterministic stand-in for the expansion agent: prefer
        untried directives (in registration order), else the best
        average observed reward; ties break on (directive registration
        order, op order in the plan)."""
        order = {name: i for i, name in enumerate(self.directives)}

        def score(opt):
            op_name, name = opt
            n = self.action_counts.get(name, 0)
            if n == 0:
                avg = float("inf")
            else:
                avg = self.frontier.action_rewards.get(name, 0.0) / n
            return (-avg, order.get(name, 1 << 30))

        # min() is first-of-equals stable and _action_options appends in
        # plan-op order, so remaining ties break on op ORDER IN THE PLAN
        # (the documented rule) — not on the op-name string
        return min(options, key=score)

    def expand(self, node: PlanNode, goal: str) -> list[PlanNode]:
        options = self._action_options(node, goal)
        if not options:
            raise RuntimeError("action space exhausted")
        op_name, directive_name = self._choose_action(options)
        directive = self.directives[directive_name]
        node.mark_action_used(op_name, directive_name)
        self.action_counts[directive_name] = (
            self.action_counts.get(directive_name, 0) + 1)
        candidates = directive.instantiate(
            node.ops, op_name, goal=goal, ctx=self.ctx)
        if directive.multi_instance:
            candidates = candidates[:2]
        else:
            candidates = candidates[:1]
        children = []
        for cand in candidates:
            child = PlanNode(cand, node.default_model, parent=None,
                             node_id=self._take_id(),
                             is_multi_instance=directive.multi_instance)
            # children start with a FRESH used-actions ledger, like the
            # reference (Node.__init__ resets it per node); degenerate
            # re-stacking of the same directive is blocked by the _moar
            # plan-note guard in _action_options instead
            child.memo = node.memo + [(directive_name, op_name)]
            child.latest_action = directive
            node.add_child(child)
            children.append(child)
        if not children:
            raise RuntimeError(
                f"directive {directive_name!r} produced no candidates")
        return children

    # -- backprop ----------------------------------------------------------

    def _increment_visits(self, node: PlanNode):
        cur = node
        while cur is not None:
            cur.visits += 1
            cur = cur.parent

    def _backpropagate(self, affected: dict[PlanNode, float],
                       visit_node: PlanNode):
        for n, val in affected.items():
            cur = n
            while cur is not None:
                cur.update_value(val)
                cur = cur.parent
        visit_node.visits += 1

    def _simulate_children(self, children: list[PlanNode]) -> bool:
        """(MOARSearch._simulate_children:484-576): multi-instance
        groups keep only the best-accuracy candidate."""
        updated = False
        if len(children) > 1:
            results = []
            for cand in children:
                cost, acc = self.simulate(cand)
                if cost != -1 and acc != float("-inf"):
                    results.append((cand, acc))
            if not results:
                for cand in children:
                    cand.parent.children.remove(cand)
                return False
            best = max(results, key=lambda x: x[1])[0]
            for cand in children:
                if cand is not best:
                    cand.parent.children.remove(cand)
                    cand.parent = None
            affected, updated = self.frontier.add_plan(best, best.accuracy)
            self._backpropagate(affected, best)
        else:
            for child in children:
                cost, acc = self.simulate(child)
                affected, upd = self.frontier.add_plan(child, acc)
                updated = updated or upd
                self._backpropagate(affected, child)
        return updated

    # -- main loop ---------------------------------------------------------

    def should_continue(self) -> bool:
        if self.iteration_count >= self.max_iterations:
            return False
        if self.iterations_without_improvement >= 10:
            return False
        return True

    def search_iteration(self) -> bool:
        leaf = self.select()
        dual = leaf.parent is self.root and leaf.visits == 1
        if dual:
            self._increment_visits(leaf)
        self._increment_visits(leaf)

        updated = False
        goals = ("acc", "cost") if dual else (self.get_optimize_goal(leaf),)
        expanded = False
        for goal in goals:
            try:
                children = self.expand(leaf, goal)
            except RuntimeError:
                continue
            expanded = True
            if self._simulate_children(children):
                updated = True
        if updated:
            self.iterations_without_improvement = 0
        else:
            self.iterations_without_improvement += 1
        return expanded

    def search(self) -> list[PlanNode]:
        """Run to budget / early stop; returns the frontier plans sorted
        by cost ascending."""
        while self.should_continue():
            self.search_iteration()
            self.iteration_count += 1
        return sorted(self.frontier.frontier_plans,
                      key=lambda n: self.frontier.plans_cost[n])

    def summary(self) -> list[dict]:
        return [{
            "id": n.id,
            "path": n.path(),
            "model": n.default_model,
            "cost_micro": self.frontier.plans_cost.get(n, -1),
            "accuracy": self.frontier.plans_accuracy.get(n, float("-inf")),
            "on_frontier": n in self.frontier.frontier_plans,
        } for n in self.frontier.plans]


# ---------------------------------------------------------------------------
# oracle-checkable surface
# ---------------------------------------------------------------------------

def moar_first_layer(rows: list[dict], *, prompt: str, output_schema: dict,
                     id_field: str,
                     models: list[str] | None = None) -> pa.Table:
    """The first-layer initialization of the search
    (MOARSearch.__init__:180-240) as a standalone, SQL-replayable
    computation: run a one-map plan once per catalog model over the
    sample rows, meter exact integer micro-dollar costs and the synthetic
    accuracy draw, and mark cost/accuracy frontier membership (a model
    is on the frontier iff every cheaper model is less accurate).
    Registered as the ``moar_first_layer_documents`` query with an exact
    DuckDB oracle."""
    models = list(models or DEFAULT_MODELS)
    out = []
    for m in models:
        ops = [{"name": "moar_map", "type": "map", "prompt": prompt,
                "output": {"schema": output_schema}, "model": m}]
        res = simulate_plan(ops, rows, default_model=m)
        qp = MODEL_CATALOG[m]["quality_permille"]
        acc = default_accuracy(res.rows, qp, m, id_field=id_field)
        out.append({"model": m, "n_rows": len(res.rows),
                    "cost_micro": res.cost_micro, "accuracy": acc})
    out.sort(key=lambda r: r["cost_micro"])
    best = float("-inf")
    for r in out:
        r["on_frontier"] = r["accuracy"] > best
        best = max(best, r["accuracy"])
    return pa.Table.from_pylist(sorted(out, key=lambda r: r["model"]))
