"""perfbench runs against this checkout: its imports of the package resolve,
its reference outputs still come out, and its self-test still counts an
injected wrong answer. Everything runs in child interpreters and writes
nothing under perfbench/."""

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

