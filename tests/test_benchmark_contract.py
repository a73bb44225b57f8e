"""perfbench runs against this checkout: its imports of the package resolve,
its reference outputs still come out, and its self-test still counts an
injected wrong answer. The layer benchmark, benchmarks/bench_enumerate.py,
still writes every layer it documents. Everything runs in child
interpreters and writes nothing under perfbench/."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Replays the seed-0 reference operations of every workload through the
# validator, then asks it for the input properties of each workload's first
# operation (its only use of `iterated_elimination` and
# `pure_saddle_points`), and prints the outcome as one JSON object.
REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from saddles import cli
from validate import Checker, output_digest
from workloads import WORKLOADS, call_cli

reference = json.loads(open(sys.argv[2]).read())
checker = Checker()
replayed, failures = 0, []
for workload, digests in reference.items():
    for i, digest in enumerate(digests):
        op = WORKLOADS[workload](0, i)
        result = call_cli(cli.main, op)
        reason = checker.check(op, result)
        if reason is None and output_digest(op, result.stdout) != digest:
            reason = "output differs from the reference digest"
        replayed += 1
        if reason is not None:
            failures.append([workload, i, reason])
properties = {w: checker.input_properties(make(0, 0)) for w, make in WORKLOADS.items()}
print(json.dumps({"replayed": replayed, "failures": failures, "properties": properties}))
"""


def _run(args):
    env = {**checkout_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_perfbench_self_test_passes():
    result = _run([str(PERFBENCH / "run.py"), "--self-test"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("injected 1 wrong answer, counted 1") == 3


def test_perfbench_reference_replays_and_input_properties():
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    result = _run(["-c", REPLAY, str(PERFBENCH), str(PERFBENCH / "reference.json")])
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["failures"] == []
    assert outcome["replayed"] == sum(map(len, reference.values())) > 0
    expected = {"multi_saddle", "pure_saddle", "full_product_saddle", "elimination_shrinks"}
    for workload, properties in outcome["properties"].items():
        assert set(properties) == expected, workload
        assert all(isinstance(v, bool) for v in properties.values()), workload
    assert sorted(outcome["properties"]) == ["campaign", "enumerate", "find"]


# Runs one campaign operation under perfbench's tracer and prints the calls
# it recorded per traced name.
TRACE_CAMPAIGN = """
import json, sys
from collections import Counter
sys.path.insert(0, sys.argv[1])
from saddles import cli
from tracer import Tracer
from workloads import WORKLOADS, call_cli

tracer = Tracer()
tracer.install()
try:
    result = call_cli(cli.main, WORKLOADS["campaign"](0, 0))
finally:
    tracer.uninstall()
calls = Counter(tracer.names[rec[0]] for rec in tracer.spans)
print(json.dumps({"code": result.code, "calls": calls}))
"""


def test_tracer_sees_the_campaign_checks():
    # The tracer patches module attributes, so the checks a campaign runs
    # must be called through them to show up in traced runs.
    result = _run(["-c", TRACE_CAMPAIGN, str(PERFBENCH)])
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["code"] == 0
    for check in (
        "check_interchangeability",
        "check_strict_uniqueness",
        "check_subgame_restriction",
        "check_nash_consistency",
    ):
        assert outcome["calls"].get(f"verify.{check}", 0) >= 1, check


# The keys of each row of the layer benchmark's sections, by section.
LAYER_KEYS = {
    "results": {
        "size", "cells", "tables_ms", "nondominator_sets_ms", "gsp_grid_ms",
        "gsp_closure_ms", "minimal_filter_ms", "min_size_walk_ms",
        "cell_extraction_ms", "saddle_grids_ms",
    },
    "lp": {"size", "bound", "games", "packing_lp_ms", "game_value_ms"},
    "trial": {
        "size", "bound", "games", "trial_ms", "tables_per_trial",
        "grids_per_trial", "lps_per_trial",
    },
    "find": {
        "game", "size", "bound", "games", "find_ms", "find_ms_quartiles",
        "nondominator_calls",
    },
    "front_end": {
        "payoffs", "size", "games", "distinct_tokens", "parse_game_ms",
        "ranks_ms", "digest_ms",
    },
}


def test_layer_benchmark_runs(tmp_path):
    # No other test runs the script, so a renamed import or layer would go
    # unnoticed until the next benchmark run.
    out = tmp_path / "layers.json"
    script = ROOT / "benchmarks" / "bench_enumerate.py"
    argv = [sys.executable, str(script), "--sizes", "3", "--repeats", "1", "--out", str(out)]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                         env=checkout_env())
    assert run.returncode == 0, run.stderr
    doc = json.loads(out.read_text())
    for section, keys in LAYER_KEYS.items():
        assert doc[section], section
        for row in doc[section]:
            assert set(row) == keys, (section, row)
    assert [row["size"] for row in doc["lp"]] == ["5x5", "5x5", "8x8"]
    assert all(row["packing_lp_ms"] > 0 and row["game_value_ms"] > 0 for row in doc["lp"])
