"""LLM-operator parity surfaces, tested offline against scripted clients:
gleaning rounds, reduce fold/merge plans + value_sampling + scratchpad,
extract line_number strategy, rank picky-window refinement, topk
llm_compare.  Mirrors the *structural* semantics of the reference suites
(tests/ranking/test_rank.py, tests/test_reduce_scale.py): budgets, fold
counts, window math — not model quality.

NOTE: scripted client classes are defined INSIDE each test function so
cloudpickle serializes them by value (module-level classes pickle by
reference, which Ray workers cannot import for test modules).  Call-plan
assertions ride the OUTPUT (counters threaded through the fold/merge
results), because actor-pool client state lives in worker processes.
"""

import json

import pyarrow as pa
import pytest


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pylist(rows))


def _collect(ds):
    from docetl_ray.util import collect

    return collect(ds)


# ---------------------------------------------------------------------------
# gleaning
# ---------------------------------------------------------------------------

def test_gleaning_refines_then_stops():
    from docetl_ray.stages.llm import llm_map

    class GleanScriptClient:
        """Validator asks for exactly one refinement, then accepts."""

        model = "glean-script"

        def __init__(self):
            self.validator_calls = 0

        def complete(self, prompt, schema):
            if "should_refine" in schema:
                self.validator_calls += 1
                return {
                    "should_refine": self.validator_calls == 1,
                    "improvements": "be more specific",
                }
            if "[improve round" in prompt:
                return {"label": "refined"}
            return {"label": "draft"}

    out = _collect(
        llm_map(
            _ds([{"id": 1, "text": "x"}]),
            "label {{ input.text }}",
            {"label": "str"},
            client_factory=GleanScriptClient,
            gleaning={"validation_prompt": "is {{ output.label }} ok?", "num_rounds": 3},
            concurrency=1,
        )
    )
    assert out["label"].to_pylist() == ["refined"]


def test_gleaning_condition_gates_rounds():
    from docetl_ray.stages.llm import llm_map

    class GatedClient:
        model = "gated"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            if "should_refine" in schema:
                raise AssertionError("validator must not be called when gated off")
            return {"label": "draft"}

    out = _collect(
        llm_map(
            _ds([{"id": 1, "text": "x"}]),
            "label {{ input.text }}",
            {"label": "str"},
            client_factory=GatedClient,
            gleaning={
                "validation_prompt": "ok?",
                "num_rounds": 3,
                "if": "output['label'] != 'draft'",  # never true -> no validator call
            },
            concurrency=1,
        )
    )
    assert out["label"].to_pylist() == ["draft"]


# ---------------------------------------------------------------------------
# reduce fold / merge / value_sampling / scratchpad
# ---------------------------------------------------------------------------
# The prompts are jinja templates that serialize the call plan as JSON;
# the scripted client echoes counters (b=batch, f=fold, m=merge calls)
# through the outputs, so the FINAL row proves the plan shape.

BATCH_PROMPT = (
    '{"kind": "batch", "items": [{% for i in inputs %}1{% if not loop.last %},{% endif %}'
    "{% endfor %}]}"
)
FOLD_PROMPT = (
    '{"kind": "fold", "prev": {"n": {{ output.n }}, "b": {{ output.b }}, '
    '"f": {{ output.f }}, "m": {{ output.m }}}, '
    '"items": [{% for i in inputs %}1{% if not loop.last %},{% endif %}{% endfor %}]}'
)
MERGE_PROMPT = (
    '{"kind": "merge", "outputs": [{% for o in outputs %}'
    '{"n": {{ o.n }}, "b": {{ o.b }}, "f": {{ o.f }}, "m": {{ o.m }}}'
    "{% if not loop.last %},{% endif %}{% endfor %}]}"
)

REDUCE_SCHEMA = {"n": "int", "b": "int", "f": "int", "m": "int"}


def _plan_client():
    class PlanClient:
        model = "plan-script"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            p = json.loads(prompt)
            if p["kind"] == "merge":
                outs = p["outputs"]
                out = {
                    "n": sum(o["n"] for o in outs),
                    "b": sum(o["b"] for o in outs),
                    "f": sum(o["f"] for o in outs),
                    "m": sum(o["m"] for o in outs) + 1,
                }
            elif p["kind"] == "fold":
                prev = p["prev"]
                out = {
                    "n": prev["n"] + len(p["items"]),
                    "b": prev["b"],
                    "f": prev["f"] + 1,
                    "m": prev["m"],
                }
            else:
                out = {"n": len(p["items"]), "b": 1, "f": 0, "m": 0}
            if "updated_scratchpad" in schema:
                out["updated_scratchpad"] = f"seen={out['n']}"
            return out

    return PlanClient


def _rows(k, n):
    return [{"k": k, "v": i} for i in range(n)]


def test_reduce_incremental_fold_counts():
    from docetl_ray.stages.llm import llm_reduce

    out = _collect(
        llm_reduce(
            _ds(_rows("a", 10)),
            "k",
            BATCH_PROMPT,
            REDUCE_SCHEMA,
            client_factory=_plan_client(),
            fold_prompt=FOLD_PROMPT,
            fold_batch_size=3,
        )
    )
    # 10 rows / fbs 3 -> 1 initial batch_reduce + 3 folds (reduce.py:655-699)
    row = out.to_pylist()[0]
    assert row["n"] == 10 and row["_counts_prereduce"] == 10
    assert row["b"] == 1 and row["f"] == 3 and row["m"] == 0


def test_reduce_fold_merge_tree():
    from docetl_ray.stages.llm import llm_reduce

    out = _collect(
        llm_reduce(
            _ds(_rows("a", 10)),
            "k",
            BATCH_PROMPT,
            REDUCE_SCHEMA,
            client_factory=_plan_client(),
            fold_prompt=FOLD_PROMPT,
            fold_batch_size=3,
            merge_prompt=MERGE_PROMPT,
            merge_batch_size=2,
        )
    )
    # 4 independent folds (10/3) then merge tree 4 -> 2 -> 1 = 3 merges
    row = out.to_pylist()[0]
    assert row["n"] == 10
    assert row["b"] == 4 and row["f"] == 0 and row["m"] == 3


def test_reduce_single_fold_when_batch_covers_group():
    from docetl_ray.stages.llm import llm_reduce

    out = _collect(
        llm_reduce(
            _ds(_rows("a", 4)),
            "k",
            BATCH_PROMPT,
            REDUCE_SCHEMA,
            client_factory=_plan_client(),
            fold_prompt=FOLD_PROMPT,
            fold_batch_size=10,  # >= group size -> one call (reduce.py:328-334)
        )
    )
    row = out.to_pylist()[0]
    assert row["n"] == 4 and row["b"] == 1 and row["f"] == 0 and row["m"] == 0


def test_reduce_scratchpad_threads_between_folds():
    from docetl_ray.stages.llm import llm_reduce

    # scratchpad content is fed back into the next fold's prompt context;
    # prove it threads by emitting it into the output n via the template
    PAD_FOLD_PROMPT = (
        '{"kind": "fold", "prev": {"n": {{ output.n }}, "b": {{ output.b }}, '
        '"f": {{ output.f }}, "m": {{ output.m }}}, "pad": "{{ scratchpad }}", '
        '"items": [{% for i in inputs %}1{% if not loop.last %},{% endif %}{% endfor %}]}'
    )

    class PadCheckClient:
        model = "pad-check"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            p = json.loads(prompt)
            assert "updated_scratchpad" in schema  # scratchpad adds the field
            if p["kind"] == "fold":
                prev = p["prev"]
                # the pad from the previous fold must arrive here
                assert p["pad"] == f"seen={prev['n']}", p
                out = {"n": prev["n"] + len(p["items"]), "b": prev["b"],
                       "f": prev["f"] + 1, "m": prev["m"]}
            else:
                out = {"n": len(p["items"]), "b": 1, "f": 0, "m": 0}
            out["updated_scratchpad"] = f"seen={out['n']}"
            return out

    out = _collect(
        llm_reduce(
            _ds(_rows("a", 9)),
            "k",
            BATCH_PROMPT,
            REDUCE_SCHEMA,
            client_factory=PadCheckClient,
            fold_prompt=PAD_FOLD_PROMPT,
            fold_batch_size=3,
            scratchpad=True,
        )
    )
    row = out.to_pylist()[0]
    assert "updated_scratchpad" not in out.column_names  # stripped from output
    assert row["n"] == 9 and row["f"] == 2


def test_reduce_value_sampling_first_n_and_random():
    from docetl_ray.stages.llm import _value_sample

    rows = [{"v": i} for i in range(20)]
    assert _value_sample(rows, {"enabled": True, "method": "first_n", "sample_size": 5}) == rows[:5]
    r = _value_sample(rows, {"enabled": True, "method": "random", "sample_size": 5})
    assert len(r) == 5 and r == sorted(r, key=lambda x: x["v"])  # original order kept
    # deterministic across calls
    assert r == _value_sample(rows, {"enabled": True, "method": "random", "sample_size": 5})
    with pytest.raises(NotImplementedError):
        _value_sample(rows, {"enabled": True, "method": "sem_sim", "sample_size": 5})


# ---------------------------------------------------------------------------
# extract line_number
# ---------------------------------------------------------------------------

def test_reformat_text_with_line_numbers_matches_reference_shape():
    from docetl_ray.stages.extract import reformat_text_with_line_numbers

    txt = "alpha beta gamma " * 20 + "super" + "x" * 100
    formatted = reformat_text_with_line_numbers(txt, line_width=40)
    lines = formatted.split("\n")
    assert all(line[:6].endswith(": ") for line in lines)
    assert all(len(line) <= 6 + 40 for line in lines)
    # numbering is 1-based, %4d
    assert lines[0].startswith("   1: ")
    assert reformat_text_with_line_numbers("") == ""


def test_extract_line_number_cuts_ranges():
    from docetl_ray.stages.extract import (
        extract_line_number,
        reformat_text_with_line_numbers,
    )

    text = "one two three four five six seven eight nine ten " * 10
    formatted_lines = reformat_text_with_line_numbers(text).split("\n")
    expect = "".join(line.split(": ", 1)[1] for line in formatted_lines[0:2])

    class RangeClient:
        model = "range-script"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            return {"line_ranges": [
                {"start_line": 1, "end_line": 2},
                {"start_line": 99999, "end_line": 100000},  # invalid -> skipped
            ]}

    out = _collect(
        extract_line_number(
            _ds([{"id": 1, "text": text}]),
            "text",
            "find the numbers",
            client_factory=RangeClient,
            concurrency=1,
        )
    )
    assert out["text_extracted"].to_pylist() == [expect]


def test_extract_line_number_list_mode_and_empty():
    from docetl_ray.stages.extract import extract_line_number

    class OneLineClient:
        model = "one-line"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            return {"line_ranges": [{"start_line": 1, "end_line": 1}]}

    out = _collect(
        extract_line_number(
            _ds([{"id": 1, "text": "short text here"}]),
            "text",
            "anything",
            format_extraction=False,
            client_factory=OneLineClient,
            concurrency=1,
        )
    )
    assert out["text_extracted"].to_pylist() == [["short text here"]]


# ---------------------------------------------------------------------------
# rank refinement + topk llm_compare
# ---------------------------------------------------------------------------

def _oracle_pick_client():
    class OraclePickClient:
        """Knows the true quality (the 'q' field); rates coarsely (so the
        initial ordering is imperfect) but picks perfectly within windows.
        Window picks happen on the DRIVER, so window_calls is observable."""

        model = "oracle-pick"

        def __init__(self):
            self.window_calls = 0

        def complete(self, prompt, schema):
            if "rating" in schema:
                q = int(prompt.split("q: ")[1].split("\n")[0])
                return {"rating": 7 if q >= 50 else 1}
            self.window_calls += 1
            docs = []
            for part in prompt.split("\n---\n"):
                if "] " in part and "q: " in part:
                    idx = int(part.split("[", 1)[1].split("]", 1)[0])
                    q = int(part.split("q: ")[1].split("\n")[0])
                    docs.append((idx, q))
            docs.sort(key=lambda t: -t[1])
            return {"top_indices": [i for i, _ in docs[:3]]}

    return OraclePickClient


def test_rank_refinement_surfaces_best_items_under_budget():
    from docetl_ray.stages.rank import rank, refine_topk_window

    # exactly 8 high-q items; the BEST (99) sits at id 7, so the coarse
    # likert ordering (7 vs 1, id tiebreak) puts it at prefix position 7
    # and only the window refinement can move it to rank 1.  (Like the
    # reference, refinement cannot surface items outside the top-k
    # prefix of the initial ordering — windows cover indices < k only.)
    qs = [72, 63, 88, 51, 77, 95, 58, 99, 12, 5, 33, 41, 8, 25, 17, 3, 47, 30, 22, 36]
    rows = [{"id": i, "q": q} for i, q in enumerate(qs)]
    OraclePickClient = _oracle_pick_client()

    out = _collect(
        rank(
            _ds(rows),
            criteria="highest q",
            input_keys=["q"],
            k=10,
            id_col="id",
            rerank_call_budget=6,
            client_factory=OraclePickClient,
        )
    ).sort_by([("_rank", "ascending")])
    assert out["_rank"].to_pylist() == list(range(1, 11))
    # the true best doc must surface at rank 1 even though likert ties it
    assert out["q"].to_pylist()[0] == 99

    # driver-side: window call count respects the budget
    client = OraclePickClient()
    items = sorted(rows, key=lambda r: (-(r["q"] >= 50), r["id"]))  # coarse order
    refined = refine_topk_window(
        items, criteria="highest q", input_keys=["q"], k=10, client=client,
        rerank_call_budget=6,
    )
    assert 0 < client.window_calls <= 6
    assert refined[0]["q"] == 99


def test_window_plan_matches_reference_formulas():
    from docetl_ray.stages.rank import _window_plan

    # rank.py:755-768
    step, window = _window_plan(k=100, budget=11, num_top_items=3, overlap_fraction=0.5)
    assert step == 10 and window == 20
    step, window = _window_plan(k=10, budget=1, num_top_items=3, overlap_fraction=1.0)
    assert step == 10 and window == 10  # min(k, step*2)


def test_topk_llm_compare_rejects_jinja_and_returns_k():
    from docetl_ray.stages.rank import topk_llm_compare

    rows = [{"id": i, "q": i} for i in range(20)]
    with pytest.raises(ValueError):
        topk_llm_compare(_ds(rows), query="{{ bad }}", keys=["q"], k=3)
    out = _collect(
        topk_llm_compare(
            _ds(rows), query="largest q", keys=["q"], k=3,
            score_fn=lambda r: r["q"], id_col="id",
            client_factory=_oracle_pick_client(),
        )
    )
    assert out.num_rows == 3


def test_reduce_list_valued_group_key():
    """List-valued reduce keys group by their SORTED-tuple normalization
    (reference reduce.py:266-270): [b, a] and [a, b] are one group."""
    from docetl_ray.stages.llm import llm_reduce

    rows = [
        {"tags": ["b", "a"], "v": 1},
        {"tags": ["a", "b"], "v": 2},
        {"tags": ["c"], "v": 3},
    ]
    out = _collect(
        llm_reduce(
            _ds(rows),
            "tags",
            '{"kind": "batch", "items": [{% for i in inputs %}1{% if not loop.last %},{% endif %}{% endfor %}]}',
            REDUCE_SCHEMA,
            client_factory=_plan_client(),
        )
    )
    got = {tuple(sorted(r["tags"])): r["n"] for r in out.to_pylist()}
    assert got == {("a", "b"): 2, ("c",): 1}


def test_reduce_runs_its_upstream_once(tmp_path):
    """List-typed keys are found per batch inside the exchange's split
    tasks: no schema probe runs a non-materialized upstream (behind an
    llm_map, paid LLM calls) a second time."""
    import os

    import ray.data as rd

    from docetl_ray.stages.llm import llm_reduce

    marker = str(tmp_path / "calls")

    def bump(t: pa.Table) -> pa.Table:
        with open(marker, "a") as f:
            f.write("x\n")
            f.flush()
            os.fsync(f.fileno())
        return t

    t = pa.table({"k": [i % 3 for i in range(40)], "v": list(range(40))})
    ds = rd.from_arrow([t.slice(i, 10) for i in range(0, 40, 10)]).map_batches(
        bump, batch_format="pyarrow", batch_size=None
    )
    out = _collect(llm_reduce(ds, "k", "{{ inputs | length }}", {"n": "str"}))
    assert sorted(out["_counts_prereduce"].to_pylist()) == [13, 13, 14]
    with open(marker) as f:
        assert len(f.readlines()) == 4


def test_map_batch_prompt_with_fallback():
    """batch_prompt answers some items in one call; the rest fall back to
    the per-item prompt (map.py:425-470)."""
    from docetl_ray.stages.llm import llm_map

    class BatchClient:
        model = "batch-script"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            if "results" in schema:
                # answer only the first two items; third missing
                return {"results": [{"label": "b0"}, {"label": "b1"}]}
            return {"label": "solo"}

    out = _collect(
        llm_map(
            _ds([{"id": i} for i in range(3)]),
            "item {{ input.id }}",
            {"label": "str"},
            client_factory=BatchClient,
            batch_prompt="batch of {{ inputs | length }}",
            concurrency=1,
        )
    ).sort_by([("id", "ascending")])
    assert out["label"].to_pylist() == ["b0", "b1", "solo"]


def test_map_calibration_appends_context():
    """calibrate=True runs a head sample, derives anchors, and appends
    them to every subsequent prompt (map.py:155-253,288-295)."""
    from docetl_ray.stages.llm import llm_map

    class CalClient:
        model = "cal-script"

        def __init__(self):
            pass

        def complete(self, prompt, schema):
            if "calibration_context" in schema:
                assert "Reference anchors:" in prompt
                return {"calibration_context": "ANCHOR-XYZ"}
            if "ANCHOR-XYZ" in prompt:
                return {"label": "calibrated"}
            return {"label": "raw"}

    out = _collect(
        llm_map(
            _ds([{"id": i} for i in range(6)]),
            "label {{ input.id }}",
            {"label": "str"},
            client_factory=CalClient,
            calibrate=True,
            num_calibration_docs=2,
            concurrency=1,
        )
    )
    # the main pass sees the anchors; the sample pass (raw) is discarded
    assert set(out["label"].to_pylist()) == {"calibrated"}


def test_llm_reduce_all_global(ray_session):
    """reduce_key "_all" = whole-dataset reduce: one output row, no
    helper column, counts over every row (runner.py passes '_all' by
    default for LLM reduce ops without a reduce_key)."""
    import ray.data as rd

    from docetl_ray.stages.llm import llm_reduce

    ds = rd.from_items([{"doc_id": i, "text": f"t{i}"} for i in range(7)])
    out = llm_reduce(ds, "_all", "Digest all:\n{% for i in inputs %}"
                     "{{ i.text }} {% endfor %}",
                     {"digest": "str"}).take_all()
    assert len(out) == 1
    row = out[0]
    assert row["_counts_prereduce"] == 7
    assert "digest" in row and "_all" not in row
    # runner path: an LLM reduce op with no reduce_key
    from docetl_ray.runner import _apply_op

    out2 = _apply_op(ds, {"name": "d", "type": "llm_reduce",
                          "prompt": "Digest:\n{% for i in inputs %}"
                                    "{{ i.text }} {% endfor %}",
                          "output": {"schema": {"digest": "str"}}}).take_all()
    assert len(out2) == 1 and out2[0]["_counts_prereduce"] == 7


def test_llm_reduce_all_empty_emits_one_row(ray_session):
    """An ``_all`` prompt reduce over EMPTY input still emits exactly one
    row, as the reference reduces ``[("_all", input_data)]``
    unconditionally (reduce.py:259) and as the runner's code ``_all``
    branch does; a keyed reduce over empty input stays empty."""
    import ray.data as rd

    from docetl_ray.runner import _apply_op
    from docetl_ray.stages.llm import llm_reduce

    ds = rd.from_items([{"doc_id": i, "text": f"t{i}"} for i in range(5)])
    empty = ds.filter(lambda r: False)  # a prefilter that drops every row
    prompt = "Digest {{ inputs | length }}:{% for i in inputs %}{{ i.text }}{% endfor %}"
    out = llm_reduce(empty, "_all", prompt, {"digest": "str"}).take_all()
    assert len(out) == 1
    assert out[0]["_counts_prereduce"] == 0
    assert "digest" in out[0] and "_all" not in out[0]
    # fold + merge plan: no fold batches, so the plain batch reduce runs
    fm = llm_reduce(empty, "_all", prompt, {"digest": "str"},
                    fold_prompt="Fold {{ inputs | length }}",
                    fold_batch_size=2, merge_batch_size=2,
                    merge_prompt="Merge {{ outputs | length }}").take_all()
    assert fm == out
    # runner path, pass_through has no first row to copy
    op = {"name": "d", "type": "llm_reduce", "prompt": prompt,
          "pass_through": True, "enable_observability": True,
          "output": {"schema": {"digest": "str"}}}
    got = _apply_op(empty, op).take_all()
    assert len(got) == 1 and got[0]["_counts_prereduce"] == 0
    assert set(got[0]) == {"digest", "_counts_prereduce", "_observability_d"}
    # non-empty input is unchanged by the short-circuit
    assert _apply_op(ds, op).take_all()[0]["_counts_prereduce"] == 5
    assert _apply_op(empty, dict(op, reduce_key="doc_id")).take_all() == []


def test_merge_batch_size_one_terminates():
    """merge_batch_size=1 must not loop forever re-merging singletons."""
    from docetl_ray.stages.llm import FakeDeterministicClient, make_reduce_group

    client = FakeDeterministicClient()
    rg = make_reduce_group(
        lambda rendered, schema: client.complete(rendered, schema),
        "Reduce:\n{% for i in inputs %}{{ i.x }} {% endfor %}",
        {"out": "str"},
        fold_prompt="Fold {{ output.out }}:\n{% for i in inputs %}{{ i.x }} {% endfor %}",
        fold_batch_size=2,
        merge_prompt="Merge:\n{% for o in outputs %}{{ o.out }} {% endfor %}",
        merge_batch_size=1,
    )
    out = rg([{"x": i} for i in range(9)], {})
    assert "out" in out  # terminated and produced a merged output


def test_map_drop_on_validation_failure(ray_session):
    """Rows that still fail every validate expression after retries are
    dropped when drop_on_validation_failure is set (reference map
    validation semantics) and kept otherwise."""
    import ray.data as rd

    from docetl_ray.stages.llm import llm_map

    ds = rd.from_items([{"doc_id": i} for i in range(5)])
    common = dict(
        validate=["len(output['val']) > 99"],  # unsatisfiable
        num_retries_on_validate_failure=1,
    )
    kept = llm_map(ds, "V:{{ input.doc_id }}", {"val": "str"},
                   **common).take_all()
    assert len(kept) == 5  # kept by default
    dropped = llm_map(ds, "V:{{ input.doc_id }}", {"val": "str"},
                      drop_on_validation_failure=True, **common).take_all()
    assert dropped == []


def test_llm_filter_custom_filter_key(ray_session):
    """The runner forwards filter_key so a real data column named 'keep'
    is not clobbered, and MOAR's simulation matches the engine."""
    import ray.data as rd

    from docetl_ray.moar import simulate_plan
    from docetl_ray.runner import _apply_op

    rows = [{"doc_id": i, "keep": f"user-data-{i}"} for i in range(6)]
    # model pinned: engine==sim requires the same seeded client (the
    # MOAR-emitted-YAML contract — unpinned ops use different defaults)
    op = {"name": "f", "type": "llm_filter", "filter_key": "relevant",
          "model": "det-mini", "prompt": "Keep?\n{{ input.doc_id }}"}
    got = sorted(_apply_op(rd.from_items(rows), op).take_all(),
                 key=lambda r: r["doc_id"])
    want = sorted(simulate_plan([op], rows).rows, key=lambda r: r["doc_id"])
    assert got == want
    assert all(r["keep"].startswith("user-data-") for r in got)
    assert all("relevant" not in r for r in got)


def test_gather_list_valued_doc_header(ray_session):
    """doc_header_key pointing at a LIST-valued column (the docetl
    headers shape) renders each entry as a markdown header line
    (``'#' * level + ' ' + header``), never as a Python repr, and does
    not crash on an ambiguous-array if."""
    import pandas as pd
    import pyarrow as pa

    from docetl_ray.stages.unnest_split_gather import gather_render_group

    headers = [[{"header": "H1", "level": 1}],
               [],
               [{"header": "Intro", "level": 1},
                {"header": "Setup", "level": 2}]]
    cols = {"doc": ["d"] * 3, "num": [1, 2, 3], "chunk": ["aaa", "bbb", "ccc"]}
    # python lists (the simulator's rows) and Arrow list<struct> cells
    # (numpy object arrays after to_pandas) render the same
    for g in (pd.DataFrame(dict(cols, headers=headers)),
              pa.table(dict(cols, headers=headers)).to_pandas()):
        out = gather_render_group(g, "chunk", "num", doc_header_key="headers",
                                  previous_count=0, next_count=0)
        rendered = out["chunk_rendered"].tolist()
        assert rendered[0] == ("# H1\n--- Begin Main Chunk ---\naaa\n"
                               "--- End Main Chunk ---\n"
                               "[... 6 characters skipped ...]")
        assert rendered[1].startswith("[... 3 characters skipped ...]\n"
                                      "--- Begin Main Chunk ---\nbbb")
        assert rendered[2].startswith("# Intro\n## Setup\n"
                                      "[... 6 characters skipped ...]\n"
                                      "--- Begin Main Chunk ---\nccc")
        assert not any("{'header'" in r for r in rendered)
