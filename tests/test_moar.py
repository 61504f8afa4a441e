"""MOAR MCTS plan search (docetl_ray/moar.py — the reference
``docetl/moar/`` recast): simulation fidelity, cost ledger, frontier
math, directive instantiation, search determinism.  All driver-side —
no Ray session needed."""

import copy
import hashlib
import json
import math
import random

import pyarrow as pa
import pytest

from docetl_ray import moar
from docetl_ray.moar import (
    MODEL_CATALOG,
    ChangeModelDirective,
    MoarSearch,
    ModelSeededClient,
    ParetoFrontier,
    PlanNode,
    default_accuracy,
    is_fully_explored,
    moar_first_layer,
    plan_quality_permille,
    simulate_plan,
)
from docetl_ray.optimizer import _ntokens


def _rows(n=24, long_every=3, long_tokens=400, short_tokens=40):
    rng = random.Random(11)
    words = ["quantum", "ledger", "harbor", "signal",
             "matrix", "copper", "meadow", "python"]
    out = []
    for i in range(n):
        k = long_tokens if i % long_every else short_tokens
        out.append({"doc_id": i,
                    "text": " ".join(rng.choice(words) for _ in range(k))})
    return out


MAP_OP = {"name": "classify", "type": "map",
          "prompt": "Classify the topic and extract a title:\n{{ input.text }}",
          "output": {"schema": {"topic": "str", "title": "str"}}}


# ---------------------------------------------------------------------------
# client + cost ledger
# ---------------------------------------------------------------------------

def test_model_seeded_client_differs_by_model_and_meters_cost():
    a = ModelSeededClient("det-large")
    b = ModelSeededClient("det-mini")
    oa = a.complete("Classify:\nhello world", {"topic": "str"})
    ob = b.complete("Classify:\nhello world", {"topic": "str"})
    assert oa != ob  # model folded into the digest
    # exact integer ledger: 3 prompt tokens in, ntokens(json out) out
    assert a.in_tokens == 3
    assert a.out_tokens == _ntokens(json.dumps(oa, sort_keys=True))
    assert a.cost_micro == (a.in_tokens * MODEL_CATALOG["det-large"]["in_micro"]
                            + a.out_tokens * MODEL_CATALOG["det-large"]["out_micro"])


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        ModelSeededClient("gpt-nonexistent")


# ---------------------------------------------------------------------------
# simulation fidelity
# ---------------------------------------------------------------------------

def test_simulate_map_matches_llm_stage_outputs():
    """The simulator's prompt map IS LLMMapStage — outputs must equal a
    direct stage call with the same client."""
    from docetl_ray.stages.llm import LLMMapStage

    rows = _rows(6)
    res = simulate_plan([MAP_OP], rows, default_model="det-small")
    client = ModelSeededClient("det-small")
    stage = LLMMapStage(MAP_OP["prompt"], MAP_OP["output"]["schema"],
                        client_factory=lambda: client)
    direct = stage(pa.Table.from_pylist(rows)).to_pylist()
    assert res.rows == direct
    assert res.calls == len(rows)


def test_simulate_chunked_plan_runs_and_costs_more_calls():
    from docetl_ray.optimizer import build_chunk_plan

    rows = _rows(6, long_tokens=300, short_tokens=300)
    plain = simulate_plan([MAP_OP], rows)
    chunked_ops = build_chunk_plan(copy.deepcopy(MAP_OP), "text", 60)
    chunked = simulate_plan(chunked_ops, rows)
    assert chunked.calls > plain.calls          # submap per chunk + combine
    # one combined row per DISTINCT doc text (split ids are content hashes)
    assert len(chunked.rows) == len({r["text"] for r in rows})
    for r in chunked.rows:
        assert "topic" in r and "title" in r


def test_simulate_filter_and_code_ops():
    ops = [
        {"name": "pre", "type": "code_map",
         "code": "def transform(doc):\n    return {'n': len(doc['text'].split())}\n"},
        {"name": "keep_long", "type": "code_filter",
         "code": "def transform(doc):\n    return doc['n'] > 100\n"},
        {"name": "judge", "type": "filter",
         "prompt": "Keep?\n{{ input.text }}"},
    ]
    rows = _rows(12)
    res = simulate_plan(ops, rows)
    assert all(r["n"] > 100 for r in res.rows)
    assert all("keep" not in r for r in res.rows)  # bool key dropped
    assert res.calls == sum(1 for r in rows if len(r["text"].split()) > 100)


def test_simulate_reduce_plain_and_fold():
    rows = [{"g": i % 2, "v": i} for i in range(10)]
    plain_op = {"name": "r", "type": "reduce", "reduce_key": "g",
                "prompt": "Summarize {{ inputs | length }} items",
                "output": {"schema": {"summary": "str"}}}
    plain = simulate_plan([plain_op], rows)
    assert plain.calls == 2 and len(plain.rows) == 2
    assert all(r["_counts_prereduce"] == 5 for r in plain.rows)
    fold_op = dict(plain_op, fold_batch_size=2,
                   fold_prompt="Fold {{ inputs | length }} into {{ output }}")
    fold = simulate_plan([fold_op], rows)
    assert fold.calls == 6  # per group: 1 batch + 2 folds
    assert len(fold.rows) == 2


def test_simulate_reduce_merge_tree_and_scratchpad_match_engine(ray_session):
    """Reduce features beyond the sequential fold — merge_prompt's
    fold+merge tree, scratchpad threading, value_sampling — must
    simulate with the ENGINE's per-group plan (shared make_reduce_group),
    not a silently-simplified one: same rows and same call count as the
    real llm_reduce run through PipelineRunner."""
    from docetl_ray.moar import ModelSeededClient

    rows = [{"g": i % 2, "v": i, "text": f"doc {i} " + "w " * i}
            for i in range(12)]
    op = {"name": "r", "type": "reduce", "reduce_key": "g",
          "prompt": "Summarize {{ inputs | length }} items",
          "fold_batch_size": 2, "merge_batch_size": 2,
          "merge_prompt": "Merge {{ outputs | length }} outputs",
          "value_sampling": {"enabled": True, "method": "random",
                             "sample_size": 4},
          "output": {"schema": {"summary": "str"}}}
    sim = simulate_plan([op], rows)
    # 2 groups x (ceil(4/2)=2 batch folds + 1 merge) = 6 calls; the old
    # simulator would bill the full 6-row group (3 folds, no merge)
    assert sim.calls == 6

    # engine side: the real llm_reduce with a call-counting seeded client
    import ray
    import ray.data as rd

    from docetl_ray.stages.llm import llm_reduce

    @ray.remote
    class CallCounter:
        def __init__(self):
            self.n = 0

        def add(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = CallCounter.remote()

    class CountingClient(ModelSeededClient):
        def __init__(self):
            super().__init__("det-large")

        def complete(self, prompt, schema):
            ray.get(counter.add.remote(1))
            return super().complete(prompt, schema)

    # single block: value_sampling("random") keys on row POSITION within
    # the group, so per-row equality with the simulator needs the engine
    # to see the same within-group order; one block pins arrival order
    # (call COUNTS are order-independent either way)
    out = llm_reduce(
        rd.from_items(rows).repartition(1), "g",
        op["prompt"], op["output"]["schema"],
        client_factory=CountingClient,
        fold_batch_size=2, merge_batch_size=2,
        merge_prompt=op["merge_prompt"],
        value_sampling=op["value_sampling"],
    )
    got = sorted(out.take_all(), key=lambda r: r["g"])
    want = sorted(sim.rows, key=lambda r: r["g"])
    for g, w in zip(got, want):
        assert {k: g[k] for k in w} == w
    assert ray.get(counter.get.remote()) == sim.calls

    # scratchpad changes the fold schema (extra updated_scratchpad
    # tokens) — simulated token totals must track it
    pad_op = dict(op, scratchpad=True,
                  fold_prompt="Fold {{ inputs | length }} "
                              "(pad: {{ scratchpad }}) into {{ output }}")
    pad_op.pop("merge_prompt")
    sim_pad = simulate_plan([pad_op], rows)
    assert sim_pad.calls == 4  # 2 groups x 2 sequential folds of the 4 sampled
    assert all("updated_scratchpad" not in r for r in sim_pad.rows)


def test_simulate_unsupported_op_raises():
    with pytest.raises(ValueError):
        simulate_plan([{"name": "x", "type": "rank"}], _rows(3))


# ---------------------------------------------------------------------------
# synthetic accuracy oracle
# ---------------------------------------------------------------------------

def test_quality_permille_weakest_link_and_notes():
    ops = [dict(MAP_OP, model="det-large"),
           dict(MAP_OP, name="m2", model="det-mini")]
    qp, m = plan_quality_permille(ops, "det-large")
    assert qp == MODEL_CATALOG["det-mini"]["quality_permille"]
    assert m == "det-mini"
    noted = [dict(op, _moar={"directive": "gleaning",
                             "acc_delta_permille": 25}) for op in ops]
    qp2, _ = plan_quality_permille(noted, "det-large")
    assert qp2 == qp + 50


def test_default_accuracy_replayable_and_tracks_quality():
    rows = [{"doc_id": i} for i in range(400)]
    hi = default_accuracy(rows, 930, "det-large", id_field="doc_id")
    lo = default_accuracy(rows, 620, "det-mini", id_field="doc_id")
    assert hi > lo
    assert abs(hi - 0.93) < 0.06 and abs(lo - 0.62) < 0.08
    # replay one row's draw by hand (the SQL oracle recomputes this)
    key = "det-large|930|7"
    seed = int(hashlib.md5(key.encode()).hexdigest()[:8], 16)
    expected = 1.0 if seed % 1000 < 930 else 0.0
    assert default_accuracy([{"doc_id": 7}], 930, "det-large",
                            id_field="doc_id") == expected


# ---------------------------------------------------------------------------
# frontier math
# ---------------------------------------------------------------------------

def test_project_to_frontier_step_function():
    frontier = [[0.5, 100], [0.8, 1000]]
    p = ParetoFrontier.project_to_frontier
    assert p(0.6, 50, frontier) == pytest.approx(0.6)    # cheaper than all
    assert p(0.6, 100, frontier) == pytest.approx(0.1)   # on first step
    assert p(0.9, 5000, frontier) == pytest.approx(0.1)  # above top step
    assert p(0.4, 500, frontier) == pytest.approx(0.1)   # below first step


def test_frontier_update_rewards_and_displacement():
    f = ParetoFrontier()
    a = PlanNode([], "det-mini", node_id=1); a.cost = 100
    b = PlanNode([], "det-large", node_id=2); b.cost = 1000
    aff, upd = f.add_plan(a, 0.5)
    assert upd and a in f.frontier_plans
    aff, upd = f.add_plan(b, 0.9)
    assert upd and set(f.frontier_plans) == {a, b}
    assert aff[b] == pytest.approx(0.4)  # vertical lift over old step
    # strictly dominated newcomer: negative reward, frontier unchanged
    c = PlanNode([], "det-large", node_id=3); c.cost = 2000
    aff, upd = f.add_plan(c, 0.7)
    assert not upd and c not in f.frontier_plans
    assert aff[c] == pytest.approx(-0.2)  # 0.9 step minus 0.7
    # cheaper AND better displaces: displaced node gets negative reward
    d = PlanNode([], "det-small", node_id=4); d.cost = 50
    aff, upd = f.add_plan(d, 0.95)
    assert upd and f.frontier_plans == [d]
    assert a not in f.frontier_plans and aff[a] < 0


def test_failed_plan_never_joins_frontier():
    f = ParetoFrontier()
    n = PlanNode([], "det-mini", node_id=1)  # cost stays -1
    aff, upd = f.add_plan(n, 0.9)
    assert aff == {} and not upd and not f.plans


# ---------------------------------------------------------------------------
# directives
# ---------------------------------------------------------------------------

def _ctx(rows=None, token_limit=256):
    return moar.SearchContext(rows or _rows(), token_limit, "det-large")


def test_change_model_directive():
    d = ChangeModelDirective("det-mini")
    ops = [dict(MAP_OP, model="det-large")]
    assert d.applicable(ops[0], ops)
    (new,) = d.instantiate(ops, "classify", goal="cost", ctx=_ctx())
    assert new[0]["model"] == "det-mini"
    assert not d.applicable(new[0], new)  # already there


def test_doc_chunking_two_rungs_and_overflow_delta():
    d = moar.DocChunkingDirective()
    rows = _rows(12, long_tokens=900, short_tokens=900)
    cands = d.instantiate([MAP_OP], "classify", goal="acc",
                          ctx=_ctx(rows, token_limit=256))
    assert 1 <= len(cands) <= 2
    for cand in cands:
        assert [o["type"] for o in cand] == ["split", "gather", "map", "reduce"]
        note = cand[0]["_moar"]
        assert note["acc_delta_permille"] == 40  # p90 overflows budget
        # every candidate plan must simulate end-to-end
        res = simulate_plan(cand, rows[:4])
        assert res.rows and res.calls > 0
    if len(cands) == 2:
        assert (cands[0][0]["_moar"]["chunk_tokens"]
                != cands[1][0]["_moar"]["chunk_tokens"])
    # short docs: chunking is a penalty
    short = d.instantiate([MAP_OP], "classify", goal="acc",
                          ctx=_ctx(_rows(12, long_tokens=50), token_limit=2048))
    assert short[0][0]["_moar"]["acc_delta_permille"] == -15


def test_take_head_tail_variants_cut_cost():
    d = moar.TakeHeadTailDirective()
    rows = _rows(8, long_tokens=600, short_tokens=600)
    cands = d.instantiate([MAP_OP], "classify", goal="cost",
                          ctx=_ctx(rows, token_limit=256))
    assert len(cands) == 2
    base = simulate_plan([MAP_OP], rows)
    for cand in cands:
        res = simulate_plan(cand, rows)
        assert res.cost_micro < base.cost_micro
        assert len(res.rows) == len(rows)


def test_chaining_splits_schema():
    d = moar.ChainingDirective()
    (cand,) = d.instantiate([MAP_OP], "classify", goal="acc", ctx=_ctx())
    maps = [o for o in cand if o["type"] == "map"]
    assert len(maps) == 2
    merged = {**maps[0]["output"]["schema"], **maps[1]["output"]["schema"]}
    assert merged == MAP_OP["output"]["schema"]
    res = simulate_plan(cand, _rows(4))
    assert all("topic" in r and "title" in r for r in res.rows)


def test_operator_fusion_merges_adjacent_maps():
    d = moar.OperatorFusionDirective()
    ops = [dict(MAP_OP),
           {"name": "extract", "type": "map",
            "prompt": "Extract entities:\n{{ input.text }}",
            "output": {"schema": {"entities": "str"}}}]
    assert d.applicable(ops[0], ops)
    (cand,) = d.instantiate(ops, "classify", goal="cost", ctx=_ctx())
    assert len([o for o in cand if o["type"] == "map"]) == 1
    assert set(cand[0]["output"]["schema"]) == {"topic", "title", "entities"}
    rows = _rows(4)
    assert simulate_plan(cand, rows).calls == len(rows)  # one call, not two


def test_cascade_filtering_prepends_code_filter():
    d = moar.CascadeFilteringDirective()
    ops = [{"name": "judge", "type": "filter",
            "prompt": "Keep?\n{{ input.text }}"}]
    rows = _rows(12)
    cands = d.instantiate(ops, "judge", goal="cost", ctx=_ctx(rows))
    assert len(cands) == 2
    base = simulate_plan(ops, rows)
    strict = simulate_plan(cands[0], rows)
    assert strict.calls <= base.calls  # prefilter cut LLM calls


def test_compression_keeps_keyword_sentences():
    d = moar.DeterministicDocCompressionDirective()
    op = dict(MAP_OP, prompt="Find every mention of quantum computing "
                             "hardware:\n{{ input.text }}")
    rows = [{"doc_id": 0,
             "text": "Alpha beta. The quantum device hums. Gamma delta. "
                     "More hardware specs here. Unrelated tail."}]
    cands = d.instantiate([op], "classify", goal="cost", ctx=_ctx(rows))
    assert len(cands) == 2
    strict = simulate_plan(cands[0][:1], rows)  # run just the code_map
    assert "quantum" in strict.rows[0]["text"]
    assert "Alpha beta" not in strict.rows[0]["text"]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_is_fully_explored_sqrt_cap():
    root = PlanNode([], "det-large", node_id=0)
    assert not is_fully_explored(root)       # no first layer yet
    child = PlanNode([], "det-large", parent=root, node_id=1)
    root.children.append(child)
    assert is_fully_explored(root)           # root always descends
    child.visits = 9
    assert not is_fully_explored(child)      # 0 < max(2, 1+3)
    for i in range(4):
        gc = PlanNode([], "det-large", parent=child, node_id=2 + i)
        gc.visits = 1
        child.children.append(gc)
    assert is_fully_explored(child)
    child.children[0].visits = 0
    assert not is_fully_explored(child)      # unsimulated child blocks


def _search(max_iterations=10, seed=1, **kw):
    s = MoarSearch([copy.deepcopy(MAP_OP)], _rows(),
                   max_iterations=max_iterations, token_limit=256,
                   seed=seed, **kw)
    s.search()
    return s


def test_search_deterministic():
    assert _search().summary() == _search().summary()


def test_first_layer_one_child_per_surviving_model():
    s = MoarSearch([copy.deepcopy(MAP_OP)], _rows(), max_iterations=0,
                   token_limit=256, seed=1)
    models = {c.default_model for c in s.root.children}
    assert models <= set(MODEL_CATALOG)
    assert len(s.root.children) >= 2
    # every survivor is on the frontier and change-model marked used
    for c in s.root.children:
        assert c in s.frontier.frontier_plans
        assert c.visits == 1
        assert any(a.startswith("change to ")
                   for a in c.used_actions["classify"])


def test_frontier_is_pareto_consistent():
    s = _search(max_iterations=14)
    f = s.frontier
    plans = [(f.plans_cost[n], f.plans_accuracy[n], n) for n in f.plans]
    for n in f.frontier_plans:
        c0, a0 = f.plans_cost[n], f.plans_accuracy[n]
        # nothing strictly cheaper is at-least-as-accurate
        assert not any(c < c0 and a >= a0 for c, a, m in plans if m is not n)
    # frontier accuracies strictly increase with cost
    accs = [f.plans_accuracy[n]
            for n in sorted(f.frontier_plans, key=lambda n: f.plans_cost[n])]
    assert accs == sorted(accs) and len(set(accs)) == len(accs)


def test_multi_instance_keeps_single_best():
    s = _search(max_iterations=14)
    # at most one child per (parent, multi-instance directive) survives
    def walk(n):
        names = [c.latest_action.name for c in n.children
                 if c.latest_action and c.is_multi_instance]
        assert len(names) == len(set(names))
        for c in n.children:
            walk(c)
    walk(s.root)


def test_directive_never_stacks_in_lineage():
    s = _search(max_iterations=16)
    for n in s.frontier.plans:
        non_model = [d for d, _ in n.memo if not d.startswith("change to ")]
        assert len(non_model) == len(set(non_model)), n.path()


def test_early_stop_counts_stale_iterations():
    s = MoarSearch([copy.deepcopy(MAP_OP)], _rows(), max_iterations=200,
                   token_limit=256, seed=1)
    s.search()
    assert (s.iterations_without_improvement >= 10
            or s.iteration_count == 200
            or not s.should_continue())
    assert s.iteration_count < 200  # early stop engaged on this tiny space


def test_search_cost_ledger_accumulates():
    s = _search(max_iterations=6)
    assert s.total_search_cost >= sum(
        c for c in s.frontier.plans_cost.values() if c > 0)


def test_evaluate_func_pluggable():
    calls = []

    def ev(rows, qp, model):
        calls.append((len(rows), qp, model))
        return 0.5

    s = MoarSearch([copy.deepcopy(MAP_OP)], _rows(), max_iterations=2,
                   token_limit=256, seed=1, evaluate_func=ev)
    s.search()
    assert calls and all(acc in (0.5, float("-inf"))
                         for acc in s.frontier.plans_accuracy.values())


# ---------------------------------------------------------------------------
# first-layer table (the oracle-checked query surface)
# ---------------------------------------------------------------------------

def test_moar_first_layer_table():
    rows = _rows(20)
    t = moar_first_layer(rows, prompt="Summarize:\n{{ input.text }}",
                         output_schema={"summary": "str"},
                         id_field="doc_id")
    assert t.num_rows == len(MODEL_CATALOG)
    df = t.to_pandas().set_index("model")
    assert (df["n_rows"] == len(rows)).all()
    # exact integer cost: tokens × catalog rates (out = 1 json token
    # per call for a single str field... recompute directly)
    for m, cat in MODEL_CATALOG.items():
        in_tok = sum(_ntokens("Summarize:\n" + r["text"]) for r in rows)
        out_tok = sum(
            _ntokens(json.dumps(ModelSeededClient(m).complete(
                "Summarize:\n" + r["text"], {"summary": "str"}),
                sort_keys=True))
            for r in rows)
        assert df.at[m, "cost_micro"] == (in_tok * cat["in_micro"]
                                          + out_tok * cat["out_micro"])
    # frontier rule: more expensive must be strictly more accurate
    sor = df.sort_values("cost_micro")
    best = float("-inf")
    for _, r in sor.iterrows():
        assert bool(r["on_frontier"]) == (r["accuracy"] > best)
        best = max(best, r["accuracy"])


# ---------------------------------------------------------------------------
# executability: frontier plans run on Ray and match the simulator
# ---------------------------------------------------------------------------

def test_frontier_plan_executes_on_ray_and_matches_simulation():
    """A MOAR plan (model override + gleaning + code_map truncation) run
    through the REAL PipelineRunner must produce exactly the rows the
    driver-side simulator predicted — same stage code, same seeded
    client."""
    from docetl_ray.runner import PipelineRunner

    rows = _rows(10)
    s = MoarSearch([copy.deepcopy(MAP_OP)], rows, max_iterations=6,
                   token_limit=256, seed=1)
    frontier = s.search()
    # pick the deepest frontier plan (most rewrites applied)
    node = max(frontier, key=lambda n: len(n.memo))
    assert len(node.memo) >= 2
    ops = [dict(o) for o in node.ops]
    for o in ops:
        o.pop("_moar", None)
    cfg = {
        "datasets": {"docs": {"type": "memory", "data": rows}},
        "operations": ops,
        "pipeline": {"steps": [
            {"name": "s1", "input": "docs",
             "operations": [o["name"] for o in ops]},
        ]},
    }
    out = PipelineRunner(cfg).run()
    got = sorted(out.take_all(), key=lambda r: r["doc_id"])
    want = sorted(simulate_plan(node.ops, rows,
                                default_model=node.default_model).rows,
                  key=lambda r: r["doc_id"])
    assert got == want


def test_doc_chunking_topk_bills_fewer_chunks():
    d = moar.DocChunkingTopKDirective()
    op = dict(MAP_OP, prompt="Find every mention of quantum "
                             "hardware:\n{{ input.text }}")
    rng = random.Random(5)
    # long docs where only some chunks contain the keyword
    rows = [{"doc_id": i,
             "text": " ".join(
                 ("quantum" if (j // 40) % 3 == 0 else rng.choice(
                     ["alpha", "beta", "gamma"])) + str(j)
                 for j in range(600))}
            for i in range(6)]
    ctx = moar.SearchContext(rows, 256, "det-large")
    cands = d.instantiate([op], "classify", goal="cost", ctx=ctx)
    assert cands and cands[0][1]["type"] == "code_filter"
    d_full = moar.DocChunkingDirective().instantiate(
        [op], "classify", goal="cost", ctx=ctx)
    topk = simulate_plan(cands[0], rows)
    plain = simulate_plan(d_full[0], rows)
    assert topk.calls < plain.calls       # dropped chunks not billed
    assert len(topk.rows) == len({r["text"] for r in rows})  # no doc lost
    assert cands[0][0]["_moar"]["acc_delta_permille"] == 20


def test_hierarchical_reduce_two_levels():
    d = moar.HierarchicalReduceDirective()
    op = {"name": "digest", "type": "reduce", "reduce_key": "lang",
          "prompt": "Digest {{ inputs | length }} docs for {{ reduce_key.lang }}",
          "output": {"schema": {"digest": "str"}}}
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2],
             "site": ["a.com", "b.com", "c.com"][i % 3],
             "text": f"doc {i}"} for i in range(18)]
    ctx = moar.SearchContext(rows, 256, "det-large")
    assert d.applicable(op, [op])
    (cand,) = d.instantiate([op], "digest", goal="acc", ctx=ctx)
    assert [o["name"] for o in cand] == ["digest_fine", "digest_coarse"]
    assert cand[0]["reduce_key"] == ["lang", cand[0]["_moar"]["sub_key"]]
    res = simulate_plan(cand, rows)
    assert sorted(r["lang"] for r in res.rows) == ["en", "fr"]
    # fine level: one call per (lang, sub) group; coarse: one per lang
    subs = {(r["lang"], r[cand[0]["_moar"]["sub_key"]]) for r in rows}
    assert res.calls == len(subs) + 2


def test_search_over_map_plus_reduce_pipeline():
    """A two-op base plan (map then grouped reduce) searches cleanly:
    every explored plan simulates, reduce-targeting directives appear,
    and every frontier plan still produces one row per group."""
    rng = random.Random(7)
    rows = [{"doc_id": i, "lang": ["en", "fr", "de"][i % 3],
             "site": ["a", "b"][i % 2],
             "text": " ".join(rng.choice(["alpha", "beta", "gamma"])
                              for _ in range(120))}
            for i in range(18)]
    ops = [
        {"name": "classify", "type": "map",
         "prompt": "Classify:\n{{ input.text }}",
         "output": {"schema": {"topic": "str"}}},
        {"name": "digest", "type": "reduce", "reduce_key": "lang",
         "prompt": "Digest {{ inputs | length }} docs",
         "output": {"schema": {"digest": "str"}}},
    ]
    s = MoarSearch(ops, rows, max_iterations=12, token_limit=256, seed=2)
    frontier = s.search()
    assert frontier
    applied = {d for n in s.frontier.plans for d, _ in n.memo}
    assert any(not d.startswith("change to ") for d in applied)
    for n in frontier:
        res = simulate_plan(n.ops, rows, default_model=n.default_model)
        langs = sorted(r["lang"] for r in res.rows)
        assert langs == ["de", "en", "fr"], n.path()
    # determinism holds for multi-op plans too
    s2 = MoarSearch(ops, rows, max_iterations=12, token_limit=256, seed=2)
    s2.search()
    assert s.summary() == s2.summary()


def test_isolating_subtasks_one_map_per_field():
    d = moar.IsolatingSubtasksDirective()
    assert d.applicable(MAP_OP, [MAP_OP])
    (cand,) = d.instantiate([MAP_OP], "classify", goal="acc", ctx=_ctx())
    maps = [o for o in cand if o["type"] == "map"]
    assert [m["name"] for m in maps] == ["classify_only_title",
                                         "classify_only_topic"]
    assert [list(m["output"]["schema"]) for m in maps] == [["title"],
                                                           ["topic"]]
    rows = _rows(4)
    res = simulate_plan(cand, rows)
    assert res.calls == 2 * len(rows)  # one call per field per row
    assert all("topic" in r and "title" in r for r in res.rows)
    # single-field map is NOT applicable (nothing to isolate)
    single = dict(MAP_OP, output={"schema": {"topic": "str"}})
    assert not d.applicable(single, [single])


def test_clarify_instructions_two_variants():
    d = moar.ClarifyInstructionsDirective()
    assert d.multi_instance
    cands = d.instantiate([MAP_OP], "classify", goal="acc", ctx=_ctx())
    assert len(cands) == 2
    prompts = [c[0]["prompt"] for c in cands]
    assert any("Return EXACTLY these fields" in p for p in prompts)
    assert any("step by step" in p for p in prompts)
    for cand in cands:
        assert cand[0]["_moar"]["acc_delta_permille"] == 10
        res = simulate_plan(cand, _rows(4))
        assert all("topic" in r for r in res.rows)
    # filter with no schema gets the strict-boolean variant
    filt = [{"name": "judge", "type": "filter",
             "prompt": "Keep?\n{{ input.text }}"}]
    c0 = d.instantiate(filt, "judge", goal="cost", ctx=_ctx())[0]
    assert "strictly true or false" in c0[0]["prompt"]


def test_map_reduce_fusion_one_call_per_group():
    d = moar.MapReduceFusionDirective()
    red = {"name": "digest", "type": "reduce", "reduce_key": "lang",
           "prompt": "Digest {{ inputs | length }} docs",
           "output": {"schema": {"digest": "str"}}}
    ops = [dict(MAP_OP), red]
    assert d.applicable(ops[0], ops)
    (cand,) = d.instantiate(ops, "classify", goal="cost", ctx=_ctx())
    assert [o["name"] for o in cand] == ["classify_digest_fused"]
    assert cand[0]["_moar"]["acc_delta_permille"] == -10
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2], "text": f"doc {i}"}
            for i in range(8)]
    base = simulate_plan(ops, rows)
    fused = simulate_plan(cand, rows)
    assert fused.calls == 2            # one per lang group
    assert fused.calls < base.calls    # vs per-row map + per-group reduce
    assert fused.cost_micro < base.cost_micro
    # not applicable when the map feeds the reduce key (fusion would
    # erase the column the group-by needs)
    feeding = [dict(MAP_OP, output={"schema": {"lang": "str"}}), dict(red)]
    assert not d.applicable(feeding[0], feeding)
    # ...or when the next op is not a reduce
    assert not d.applicable(MAP_OP, [dict(MAP_OP),
                                     {"name": "m2", "type": "map",
                                      "prompt": "x {{ input.text }}",
                                      "output": {"schema": {"x": "str"}}}])


def test_reduce_gleaning_adds_validator_calls():
    d = moar.ReduceGleaningDirective()
    red = {"name": "digest", "type": "reduce", "reduce_key": "lang",
           "prompt": "Digest {{ inputs | length }} docs",
           "output": {"schema": {"digest": "str"}}}
    assert d.applicable(red, [red])
    (cand,) = d.instantiate([red], "digest", goal="acc", ctx=_ctx())
    assert cand[0]["gleaning"]["num_rounds"] == 1
    assert cand[0]["_moar"]["acc_delta_permille"] == 25
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2], "text": f"d{i}"}
            for i in range(6)]
    base = simulate_plan([red], rows)
    gleaned = simulate_plan(cand, rows)
    # per group: +1 validator call, maybe +1 refinement
    assert gleaned.calls > base.calls
    assert len(gleaned.rows) == len(base.rows) == 2
    assert not d.applicable(cand[0], cand)  # already gleaned


def test_reduce_chaining_inserts_extract_map():
    d = moar.ReduceChainingDirective()
    red = {"name": "digest", "type": "reduce", "reduce_key": "lang",
           "prompt": ("Digest these docs:\n{% for i in inputs %}"
                      "{{ i.text }}\n{% endfor %}"),
           "output": {"schema": {"digest": "str"}}}
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2],
             "text": " ".join(f"tok{i}_{j}" for j in range(60))}
            for i in range(6)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    assert d.applicable(red, [red])
    (cand,) = d.instantiate([red], "digest", goal="cost", ctx=ctx)
    assert [o["type"] for o in cand] == ["map", "reduce"]
    assert list(cand[0]["output"]["schema"]) == ["text_notes"]
    assert "i.text_notes" in cand[1]["prompt"]      # refs rewritten
    assert "i.text }}" not in cand[1]["prompt"]
    res = simulate_plan(cand, rows)
    assert res.calls == len(rows) + 2               # per-doc map + 2 groups
    assert sorted(r["lang"] for r in res.rows) == ["en", "fr"]
    # prompt that references no sampled field -> no candidates
    blind = dict(red, prompt="Digest {{ inputs | length }} docs")
    assert d.instantiate([blind], "digest", goal="cost", ctx=ctx) == []


def test_chunk_header_summary_upgrades_gather():
    d = moar.ChunkHeaderSummaryDirective()
    op = dict(MAP_OP)
    rows = [{"doc_id": i,
             "text": f"# Title {i}\nintro words here\n## Sub\n"
                     + " ".join(f"w{i}_{j}" for j in range(300))}
            for i in range(4)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    chunked = moar.DocChunkingDirective().instantiate(
        [op], "classify", goal="acc", ctx=ctx)[0]
    split = next(o for o in chunked if o["type"] == "split")
    assert d.applicable(split, chunked)
    (cand,) = d.instantiate(chunked, split["name"], goal="acc", ctx=ctx)
    types = [o["type"] for o in cand]
    assert types[:4] == ["split", "code_map", "map", "gather"]
    gat = next(o for o in cand if o["type"] == "gather")
    assert gat["doc_header_key"] == "text_chunk_headers"
    assert gat["peripheral_chunks"]["previous"]["middle"][
        "content_key"] == "text_chunk_summary"
    res = simulate_plan(cand, rows)
    assert res.rows and len(res.rows) == len(rows)  # combine restores docs
    # gather no longer simple-form -> not re-applicable
    assert not d.applicable(cand[0], cand)


def test_swap_with_code_zeroes_llm_cost():
    d = moar.SwapWithCodeDirective()
    red = {"name": "collect", "type": "reduce", "reduce_key": "lang",
           "prompt": ("Collect sites:\n{% for i in inputs %}{{ i.site }}"
                      "{% endfor %}"),
           "output": {"schema": {"n_docs": "int", "sites": "list[str]",
                                 "joined": "str"}}}
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2],
             "site": f"s{i % 3}.com"} for i in range(9)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    assert d.applicable(red, [red])
    (cand,) = d.instantiate([red], "collect", goal="cost", ctx=ctx)
    assert cand[0]["type"] == "code_reduce"
    assert cand[0]["_moar"]["acc_delta_permille"] == -40
    res = simulate_plan(cand, rows)
    assert res.calls == 0 and res.cost_micro == 0
    en = next(r for r in res.rows if r["lang"] == "en")
    assert en["n_docs"] == 5
    assert en["sites"] == sorted({f"s{i % 3}.com" for i in range(0, 9, 2)})
    assert en["joined"] == "; ".join(en["sites"])
    # float schema key -> not codeable
    floaty = dict(red, output={"schema": {"avg": "float"}})
    assert not d.applicable(floaty, [floaty])


def test_llm_reduce_stage_gleaning_matches_simulator(ray_session):
    """The Ray llm_reduce(gleaning=...) path issues the same refinement
    loop the simulator meters — outputs agree group-for-group."""
    import ray
    import ray.data as rd

    from docetl_ray.stages.llm import llm_reduce

    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2], "text": f"doc {i}"}
            for i in range(8)]
    op = {"name": "digest", "type": "reduce", "reduce_key": "lang",
          "prompt": "Digest {{ inputs | length }} docs for {{ reduce_key.lang }}",
          "output": {"schema": {"digest": "str"}},
          "gleaning": {"validation_prompt": "Complete?", "num_rounds": 2}}
    client = ModelSeededClient("det-large")
    sim = {r["lang"]: r["digest"]
           for r in moar._sim_llm_reduce(rows, op, client)}
    ds = llm_reduce(rd.from_items(rows), "lang", op["prompt"],
                    op["output"]["schema"],
                    client_factory=lambda: ModelSeededClient("det-large"),
                    gleaning=op["gleaning"])
    got = {}
    for t in ray.get(ds.to_arrow_refs()):
        for r in t.to_pylist():
            got[r["lang"]] = r["digest"]
    assert got == sim


def test_search_explores_reduce_directives():
    """With a map + long-doc reduce base plan, the live search's action
    space includes the round-5 reduce-family directives, and any
    explored plan containing them still simulates cleanly."""
    rng = random.Random(13)
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2],
             "text": " ".join(rng.choice(["alpha", "beta", "gamma"])
                              for _ in range(150)) + f" uniq{i}"}
            for i in range(12)]
    ops = [
        {"name": "classify", "type": "map",
         "prompt": "Classify:\n{{ input.text }}",
         "output": {"schema": {"topic": "str"}}},
        {"name": "digest", "type": "reduce", "reduce_key": "lang",
         "prompt": ("Digest:\n{% for i in inputs %}{{ i.text }}\n"
                    "{% endfor %}"),
         "output": {"schema": {"digest": "str"}}},
    ]
    s = MoarSearch(ops, rows, max_iterations=20, token_limit=128, seed=4)
    opts = {name for _, name in s._action_options(s.root, "acc")}
    ctx = moar.SearchContext(rows, 128, "det-large")
    for want in ("reduce_gleaning", "reduce_chaining", "swap_with_code"):
        assert want in opts, (want, sorted(opts))
        # every candidate the directive proposes on this plan simulates
        # cleanly (a failed candidate burns a search action forever)
        for cand in s.directives[want].instantiate(
                ops, "digest", goal="acc", ctx=ctx):
            res = simulate_plan(cand, rows)
            assert sorted(r["lang"] for r in res.rows) == ["en", "fr"], want
    frontier = s.search()
    assert frontier
    for n in frontier:
        res = simulate_plan(n.ops, rows, default_model=n.default_model)
        assert sorted(r["lang"] for r in res.rows) == ["en", "fr"], n.path()
    # determinism with the expanded pool
    s2 = MoarSearch(ops, rows, max_iterations=20, token_limit=128, seed=4)
    s2.search()
    assert s.summary() == s2.summary()


def test_note_stacking_preserves_prior_directive_credit():
    """A second directive on the same op stacks the prior note instead
    of erasing it: acc deltas keep counting and the prior directive
    stays in the plan ledger (no degenerate re-stacking)."""
    red = {"name": "digest", "type": "reduce", "reduce_key": "lang",
           "prompt": ("Digest:\n{% for i in inputs %}{{ i.text }}\n"
                      "{% endfor %}"),
           "output": {"schema": {"digest": "str"}}}
    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2],
             "site": ["a.com", "b.com"][i % 2 == 0 and i < 4],
             "text": f"doc {i} " + " ".join(f"w{i}_{j}" for j in range(40))}
            for i in range(8)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    base_q, _ = plan_quality_permille([red], "det-large")

    (gleaned,) = moar.ReduceGleaningDirective().instantiate(
        [red], "digest", goal="acc", ctx=ctx)
    (hier,) = moar.HierarchicalReduceDirective().instantiate(
        gleaned, "digest", goal="acc", ctx=ctx)
    q, _ = plan_quality_permille(hier, "det-large")
    assert q == base_q + 25 + 10          # both deltas survive
    assert moar._plan_directives(hier) == {"reduce_gleaning",
                                           "hierarchical_reduce"}
    # reduce_chaining keeps the gleaning note AND config on the reduce
    (chained,) = moar.ReduceChainingDirective().instantiate(
        gleaned, "digest", goal="acc", ctx=ctx)
    q2, _ = plan_quality_permille(chained, "det-large")
    assert q2 == base_q + 25 + 10
    new_red = next(o for o in chained if o["type"] == "reduce")
    assert new_red.get("gleaning")        # still executes (and bills)


def test_reduce_chaining_ignores_raw_block_refs():
    """Field refs quoted inside {% raw %} (doc_chunking's combine prompt
    embeds the original map prompt there) are NOT live template refs:
    the directive must not target them, and rewrites must leave raw
    text byte-identical."""
    rows = [{"doc_id": i, "text": f"doc {i} "
             + " ".join(f"w{i}_{j}" for j in range(300))} for i in range(4)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    chunked = moar.DocChunkingDirective().instantiate(
        [dict(MAP_OP)], "classify", goal="acc", ctx=ctx)[0]
    combine = next(o for o in chunked if o["type"] == "reduce")
    d = moar.ReduceChainingDirective()
    # the only .text ref sits inside {% raw %} -> no candidates
    assert d.instantiate(chunked, combine["name"], goal="acc", ctx=ctx) == []
    # a prompt with BOTH a live ref and a raw-quoted ref rewrites only
    # the live one, and the extract prompt renders (no nested raw)
    red = {"name": "digest", "type": "reduce", "reduce_key": "doc_id",
           "prompt": ('Task was: "{% raw %}{{ input.text }}{% endraw %}"\n'
                      "{% for i in inputs %}{{ i.text }}{% endfor %}"),
           "output": {"schema": {"digest": "str"}}}
    (cand,) = d.instantiate([red], "digest", goal="acc", ctx=ctx)
    new_red = next(o for o in cand if o["type"] == "reduce")
    assert "{% raw %}{{ input.text }}{% endraw %}" in new_red["prompt"]
    assert "i.text_notes" in new_red["prompt"]
    res = simulate_plan(cand, rows)
    assert len(res.rows) == len(rows)


def test_swap_with_code_skips_empty_field_values():
    d = moar.SwapWithCodeDirective()
    red = {"name": "collect", "type": "reduce", "reduce_key": "lang",
           "prompt": "Sites: {% for i in inputs %}{{ i.site }}{% endfor %}",
           "output": {"schema": {"sites": "list[str]", "joined": "str"}}}
    rows = [{"lang": "en", "site": "a.com"},
            {"lang": "en", "site": None},
            {"lang": "en", "site": ""}]
    ctx = moar.SearchContext(rows, 128, "det-large")
    (cand,) = d.instantiate([red], "collect", goal="cost", ctx=ctx)
    res = simulate_plan(cand, rows)
    assert res.rows[0]["sites"] == ["a.com"]
    assert res.rows[0]["joined"] == "a.com"


def test_chunk_header_summary_plan_runner_matches_simulator(ray_session,
                                                            tmp_path):
    """A chunk_header_summary plan executed for REAL through the YAML
    runner produces the same rows as the driver-side simulation — the
    fidelity contract for the shared gather_reference_render_group and
    is_reference_gather dispatch."""
    import json as _json

    from docetl_ray.runner import PipelineRunner

    rows = [{"doc_id": i,
             "text": f"# Title {i}\nintro {i}\n## Sub\n"
                     + " ".join(f"w{i}_{j}" for j in range(250))}
            for i in range(3)]
    ctx = moar.SearchContext(rows, 128, "det-large")
    chunked = moar.DocChunkingDirective().instantiate(
        [dict(MAP_OP)], "classify", goal="acc", ctx=ctx)[0]
    split = next(o for o in chunked if o["type"] == "split")
    (plan,) = moar.ChunkHeaderSummaryDirective().instantiate(
        chunked, split["name"], goal="acc", ctx=ctx)
    sim = simulate_plan(plan, rows)

    (tmp_path / "docs.json").write_text(_json.dumps(rows))
    ops = []
    for o in plan:
        o = copy.deepcopy(o)
        o.pop("_moar", None)
        if "prompt" in o and "code" not in o:
            o.setdefault("model", "det-large")  # what _build_moar emits
        ops.append(o)
    cfg = {
        "datasets": {"docs": {"type": "json",
                              "path": str(tmp_path / "docs.json")}},
        "operations": ops,
        "pipeline": {
            "steps": [{"name": "s1", "input": "docs",
                       "operations": [o["name"] for o in ops]}],
            "output": {"type": "file", "path": str(tmp_path / "out"),
                       "format": "parquet"},
        },
    }
    PipelineRunner(cfg).run()
    import pyarrow.parquet as _pq

    got = _pq.read_table(str(tmp_path / "out")).to_pylist()
    key = lambda r: r.get("classify_split_id", "")
    sim_rows = sorted(sim.rows, key=key)
    got_rows = sorted(got, key=key)
    assert len(got_rows) == len(sim_rows) == len(rows)
    for a, b in zip(sim_rows, got_rows):
        for col in ("topic", "title", "classify_split_id"):
            assert a.get(col) == b.get(col), col


def test_arbitrary_rewrite_applies_caller_edits():
    """Reference apply mechanics (arbitrary_rewrite.py:288-322): 4-indent
    JSON, first-occurrence sequential replaces, missing searches skipped,
    invalid JSON -> dead candidate."""
    ops = [dict(MAP_OP),
           {"name": "m2", "type": "map",
            "prompt": "Extract dates:\n{{ input.text }}",
            "output": {"schema": {"dates": "str"}}}]
    d = moar.ArbitraryRewriteDirective(
        edits=[{"search": '"name": "m2"', "replace": '"name": "m2_renamed"'},
               {"search": "NOT-IN-PIPELINE", "replace": "x"}],
        acc_delta_permille=5)
    assert d.applicable(ops[0], ops)
    assert not d.applicable(ops[1], ops)        # anchored on the first op
    (cand,) = d.instantiate(ops, "classify", goal="cost",
                            ctx=_ctx(_rows(4)))
    assert [o["name"] for o in cand] == ["classify", "m2_renamed"]
    assert cand[0]["_moar"]["directive"] == "arbitrary_rewrite"
    res = simulate_plan(cand, _rows(4))
    assert res.rows and all("dates" in r for r in res.rows)
    # an edit that breaks the JSON is a dead candidate, not a crash
    broken = moar.ArbitraryRewriteDirective(
        edits=[{"search": '"type": "map"', "replace": '"type": "map"...,'}])
    assert not broken.applicable(ops[0], ops)
    # searchable via the directives= override, like any other directive
    s = MoarSearch(ops, _rows(8), max_iterations=6, token_limit=256,
                   seed=3, directives=[d])
    assert ("classify", "arbitrary_rewrite") in s._action_options(s.root,
                                                                  "acc")
    assert s.search()


def test_raising_evaluate_func_fails_plan_not_search():
    """A pluggable evaluation harness that raises on some plan's rows
    marks THAT plan failed (cost -1 / acc -inf) and the search continues
    (reference MOARSearch.evaluate_node catches, MOARSearch.py:1060-74)."""
    calls = {"n": 0}

    def flaky(rows, qp, model):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise KeyError("missing field the harness reads")
        return default_accuracy(rows, qp, model, id_field="doc_id")

    s = MoarSearch([copy.deepcopy(MAP_OP)], _rows(8), max_iterations=8,
                   token_limit=256, seed=5, evaluate_func=flaky)
    frontier = s.search()            # must not raise
    assert frontier
    assert calls["n"] > 3            # the raising call happened mid-search


def test_sim_groups_counts_column_matches_runner(ray_session):
    """Keyed CODE reduces emit _counts_prereduce_{name} in BOTH the
    simulator and the real runner (runner.py code_reduce counts_column);
    LLM reduces keep the plain column in both."""
    from docetl_ray.runner import PipelineRunner

    rows = [{"doc_id": i, "lang": ["en", "fr"][i % 2], "v": i}
            for i in range(6)]
    code_red = {"name": "agg", "type": "code_reduce", "reduce_key": "lang",
                "code": "def transform(rows):\n"
                        "    return {'total': sum(r['v'] for r in rows)}\n"}
    sim = simulate_plan([code_red], rows)
    assert all("_counts_prereduce_agg" in r for r in sim.rows)
    cfg = {"datasets": {"docs": {"type": "memory", "data": rows}},
           "operations": [code_red],
           "pipeline": {"steps": [{"name": "s1", "input": "docs",
                                   "operations": ["agg"]}]}}
    real = sorted(PipelineRunner(cfg).run().take_all(),
                  key=lambda r: r["lang"])
    assert sorted(sim.rows, key=lambda r: r["lang"]) == real


def test_non_catalog_model_fails_plan_not_search():
    """A plan whose ops carry a model outside MODEL_CATALOG must fail
    THAT plan (cost -1 / accuracy -inf), not crash the whole search —
    reachable when no prompt op instantiates a client during simulation
    (pure code ops, or an emptied sample)."""
    rows = [{"doc_id": 0, "text": "alpha"}]
    ops = [{"name": "t", "type": "code_map",
            "code": "def transform(doc):\n    return {'n': 1}\n"}]
    s = MoarSearch(ops, rows, max_iterations=1, seed=0)
    node = moar.PlanNode(
        [dict(o) for o in ops], "det-large", node_id=999)
    node.ops.append({"name": "p", "type": "map", "model": "gpt-nope",
                     "prompt": "x", "output": {"schema": {"a": "str"}}})
    # prefilter empties the sample BEFORE the unknown-model op runs, so
    # simulate_plan never instantiates its client
    node.ops.insert(1, {"name": "kill", "type": "code_filter",
                        "code": "def transform(doc):\n    return False\n"})
    cost, acc = s.simulate(node)
    assert cost == -1 and acc == float("-inf")


def test_simulate_empty_sample_runs_global_code_reduce():
    """Engine parity: runner's ``_all`` code reduce emits exactly one
    row even on empty input — a prefilter that drops the whole sample
    must not silence it in simulation."""
    rows = [{"doc_id": i, "text": "x"} for i in range(3)]
    ops = [
        {"name": "kill", "type": "code_filter",
         "code": "def transform(doc):\n    return False\n"},
        {"name": "tally", "type": "code_reduce", "reduce_key": "_all",
         "code": "def transform(rows):\n    return {'n': len(rows)}\n"},
    ]
    res = simulate_plan(ops, rows)
    assert len(res.rows) == 1
    assert res.rows[0]["n"] == 0
    assert res.rows[0]["_counts_prereduce"] == 0
    # keyed reduce on empty input stays empty (groupby semantics)
    ops_keyed = [ops[0], dict(ops[1], reduce_key="doc_id")]
    assert simulate_plan(ops_keyed, rows).rows == []


def test_simulate_empty_sample_runs_global_prompt_reduce(ray_session):
    """A prompt ``_all`` reduce also emits one row on empty input, in the
    simulator and in the real runner alike (llm_reduce's empty ``_all``
    short-circuit)."""
    from docetl_ray.runner import PipelineRunner

    rows = [{"doc_id": i, "text": "x"} for i in range(3)]
    ops = [
        {"name": "kill", "type": "code_filter",
         "code": "def transform(doc):\n    return False\n"},
        {"name": "digest", "type": "reduce", "reduce_key": "_all",
         "model": "det-small",
         "prompt": "Digest {{ inputs | length }} docs",
         "output": {"schema": {"digest": "str"}}},
    ]
    sim = simulate_plan(ops, rows).rows
    assert len(sim) == 1 and sim[0]["_counts_prereduce"] == 0
    cfg = {"datasets": {"docs": {"type": "memory", "data": rows}},
           "operations": ops,
           "pipeline": {"steps": [{"name": "s1", "input": "docs",
                                   "operations": ["kill", "digest"]}]}}
    assert PipelineRunner(cfg).run().take_all() == sim
    ops_keyed = [ops[0], dict(ops[1], reduce_key="doc_id")]
    assert simulate_plan(ops_keyed, rows).rows == []
