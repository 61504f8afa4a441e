"""CLI surface smoke: apply / state / resplit / compact / tail / run via
``python -m docetl_ray.cli`` in SUBPROCESSES (the CLI owns its own Ray
session — ``ray.shutdown()`` inside this pytest process would kill the
session fixture)."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

def _cli(*args, timeout=240):
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    r = subprocess.run(
        [sys.executable, "-m", "docetl_ray.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd="/root/repo",
    )
    assert r.returncode == 0, (args, r.stdout[-500:], r.stderr[-1500:])
    return r.stdout.strip().splitlines()[-1]


def test_cli_apply_state_resplit_compact(tmp_path):
    from docetl_ray import synth
    from docetl_ray.cdc.tail import write_segment

    wal = tmp_path / "wal"
    table = tmp_path / "lake"
    os.makedirs(wal)
    write_segment(str(wal), 0, synth.events_table(0, 2_000))
    write_segment(str(wal), 1, synth.events_table(2_000, 1_000))

    seg0 = wal / "segment-0000000" / "part-00000.parquet"
    out = _cli("apply", "--wal", str(seg0),
               "--table", str(table), "--epoch", "0", "--mode", "delta")
    assert json.loads(out)["epoch"] == 0

    out = _cli("tail", "--wal", str(wal), "--table", str(table),
               "--mode", "delta", "--stop-after-idle", "1")
    assert 1 in json.loads(out)["applied_segments"]

    state1 = json.loads(_cli("state", "--table", str(table)))

    out = _cli("resplit", "--table", str(table), "--num-partitions", "8",
               "--tag", "grow")
    assert json.loads(out)["num_partitions"] == 8

    _cli("compact", "--table", str(table), "--tag", "nightly")

    state2 = json.loads(_cli("state", "--table", str(table)))
    assert state2["rows"] == state1["rows"]
    # compaction folded the delta levels down to one file per partition
    assert all(n == 1 for n in state2["levels"].values())


def test_cli_run_pipeline(tmp_path):
    pq.write_table(
        pa.table({"doc_id": [1, 2, 3], "text": ["aa", "bbbb", "c"]}),
        tmp_path / "docs.parquet",
    )
    yml = tmp_path / "p.yaml"
    yml.write_text(f"""
datasets:
  docs: {{type: file, path: {tmp_path}/docs.parquet}}
operations:
  - name: score
    type: code_map
    code: "def transform(doc):\\n    return {{'n': len(doc['text'])}}"
pipeline:
  steps: [{{name: s1, input: docs, operations: [score]}}]
  output: {{type: file, path: {tmp_path}/out, format: parquet}}
""")
    out = _cli("run", str(yml))
    assert json.loads(out)["output_rows"] == 3
    assert pq.read_table(str(tmp_path / "out")).num_rows == 3


def test_cli_build_moar(tmp_path):
    """`build --moar` writes one executable YAML per frontier plan; the
    cheapest frontier plan runs through `run` and yields all rows."""
    docs = [{"doc_id": i,
             "text": " ".join(f"w{i % 5}t{j}" for j in range(200))}
            for i in range(20)]
    (tmp_path / "docs.json").write_text(json.dumps(docs))
    (tmp_path / "pipe.yaml").write_text(f"""
datasets:
  docs: {{type: json, path: {tmp_path}/docs.json}}
operations:
  - name: classify
    type: map
    prompt: "Classify topic and title:\\n{{{{ input.text }}}}"
    output: {{schema: {{topic: str, title: str}}}}
pipeline:
  steps:
    - name: s1
      input: docs
      operations: [classify]
  output: {{format: json, path: {tmp_path}/out.json}}
""")
    out = json.loads(_cli("build", str(tmp_path / "pipe.yaml"), "--moar",
                          "--token-limit", "128", "--moar-iterations", "6"))
    assert out["frontier"], out
    costs = [p["cost_micro"] for p in out["frontier"]]
    accs = [p["accuracy"] for p in out["frontier"]]
    assert costs == sorted(costs)            # frontier ordered by cost
    assert accs == sorted(accs)              # strictly better with cost
    plan = out["frontier"][0]["file"]
    # every prompt op carries an explicit model so the YAML executes
    # with exactly the client the search simulated (client_for fallback)
    import yaml as _yaml

    emitted = _yaml.safe_load(open(plan))
    for o in emitted["operations"]:
        if "prompt" in o and "code" not in o:
            assert o.get("model"), o["name"]
    ran = json.loads(_cli("run", plan))
    assert ran["output_rows"] == len(docs)


def test_cli_compact_after_parses_auto_none_int():
    """The CLI mirrors the library's compact_after="auto" default — an
    int-typed None default silently disabled auto-compaction for every
    CLI delta ingest; "none" restores manual compact().  Guards the
    PARSED namespace (not just the type fn), so reverting the default
    back to None fails here."""
    from docetl_ray.cli import _compact_after, build_parser

    assert _compact_after("auto") == "auto"
    assert _compact_after("none") is None
    assert _compact_after("3") == 3

    base = ["apply", "--wal", "w", "--table", "t", "--epoch", "0"]
    parse = build_parser().parse_args
    assert parse(base).compact_after == "auto"
    assert parse(base + ["--compact-after", "none"]).compact_after is None
    assert parse(base + ["--compact-after", "7"]).compact_after == 7
