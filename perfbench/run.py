"""The saddles benchmark: CLI and campaign throughput, with per-layer traced costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Each operation is one in-process `saddles.cli.main(argv)` call on a fresh
game (see workloads.py), made by one client in a closed loop. The timed
phase runs for `--seconds` and at least MIN_OPS operations, so that the p90
latency has ten samples beyond it. Every operation is validated outside the
timed region (validate.py). The last line of stdout is one JSON object; `--trace 0` gives
the end-to-end metrics and `--trace 1` the per-layer ones: a traced run
alternates untraced and traced operations (tracer.py) and writes its spans
to `.bench_out/`. `--self-test` shows that an injected wrong answer
is counted as a failure; `--write-reference` rewrites reference.json.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
TRACE_MIN_OPS = 20  # 10 traced
WALL_CAP_S = 120.0  # stop the timed phase here even below MIN_OPS
SETUP_SPAWNS = 7
REFERENCE_OPS = {"campaign": 10, "enumerate": 5, "find": 0}
POOL_TRIALS = 300


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Median seconds from spawning a fresh interpreter to `saddles.cli` imported."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import saddles.cli; "
        "print(saddles.cli.__file__, flush=True)"
    )
    times = []
    for i in range(SETUP_SPAWNS + 1):  # the first spawn fills __pycache__
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate()
        if proc.returncode != 0 or not Path(line.strip()).is_relative_to(SRC):
            _fail_setup("a fresh interpreter could not import saddles.cli from src/")
        if i:
            times.append(ready)
    return statistics.median(times)


def timed_phase(cli, make_op, checker, run_seconds, min_ops, tracer=None):
    """Run operations until both `run_seconds` of operation time and `min_ops`
    are reached. Each result is validated right after its call, outside the
    timed region, and only its latency and verdict are kept, so memory does
    not grow with the operation count. With a tracer, every odd-numbered
    operation runs traced, so drift in machine speed hits traced and
    untraced operations alike.

    Returns (ops, latencies, failures, first correct (op, result))."""
    ops, latencies, failures = [], [], []
    sample = None
    clock = 0.0
    wall_start = time.perf_counter()
    gc.collect()
    while clock < run_seconds or len(ops) < min_ops:
        if time.perf_counter() - wall_start > WALL_CAP_S:
            print(f"perfbench: wall cap reached after {len(ops)} ops", file=sys.stderr)
            break
        op = make_op(len(ops))
        traced = tracer is not None and op.index % 2 == 1
        if traced:
            tracer.op = op.index
            tracer.install()
        try:
            result = call_cli(cli.main, op)
        finally:
            if traced:
                tracer.uninstall()
        clock += result.seconds
        ops.append(op)
        latencies.append(result.seconds)
        reason = checker.check(op, result)
        if reason is not None:
            failures.append((op.index, reason))
        elif sample is None:
            sample = (op, result)
    return ops, latencies, failures, sample


def replay(main, ops):
    return [call_cli(main, op) for op in ops]


def validate_all(checker, ops, results):
    failures = []
    for op, result in zip(ops, results):
        reason = checker.check(op, result)
        if reason is not None:
            failures.append((op.index, reason))
    return failures


def check_reference(workload, main, checker):
    """Run the default-seed reference operations and compare output digests.

    Returns (attempted, failures)."""
    wanted = json.loads((HERE / "reference.json").read_text())[workload]
    make_op = WORKLOADS[workload]
    failures = []
    for i, digest in enumerate(wanted):
        op = make_op(0, i)
        result = call_cli(main, op)
        reason = checker.check(op, result)
        if reason is None and output_digest(op, result.stdout) != digest:
            reason = "output differs from the reference digest"
        if reason is not None:
            failures.append((f"reference {i}", reason))
    return len(wanted), failures


def self_check(checker, sample) -> bool:
    """True when the checker rejects a corrupted copy of a correct answer."""
    if sample is None:
        return False
    op, result = sample
    return checker.check(op, replace(result, stdout=corrupt(op, result.stdout))) is not None


def latency_metrics(latencies, failed):
    correct = len(latencies) - failed
    return {
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
    }


def pool_step(seed):
    """Serial vs pooled run of one campaign; returns (speedup, reports match)."""
    from saddles import CheckKind, GeneratorConfig, GeneratorKind, TrialConfig, run_trials

    config = TrialConfig(
        trials=POOL_TRIALS,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 3, 0),
        checks=tuple(CheckKind(token) for token in CAMPAIGN_CHECKS),
        seed=seed,
    )
    reports, seconds = [], []
    for jobs in (1, min(2, os.cpu_count() or 1)):
        start = time.perf_counter()
        doc = run_trials(config, jobs=jobs).to_json_dict()
        seconds.append(time.perf_counter() - start)
        doc.pop("duration_seconds")
        reports.append(doc)
    return seconds[0] / seconds[1], reports[0] == reports[1]


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "saddles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def trace_metrics(tracer, ops, latencies, checker, args):
    """Per-layer metrics of a run whose odd-numbered operations were traced."""
    untraced, traced = latencies[0::2], latencies[1::2]
    traced_s = sum(traced)
    metrics = {k: (v, _unit(k)) for k, v in tracer.summarize(len(traced), traced_s).items()}
    metrics["trace.overhead_ratio"] = (
        (len(traced) / traced_s) / (len(untraced) / sum(untraced)), "ratio"
    )
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
    if tracer.absent:
        print(f"perfbench: absent trace targets: {tracer.absent}", file=sys.stderr)
    _report_top(metrics, args.workload)

    # Games whose weak saddles the run already knows, plus the cheap 5x5
    # campaign games; on enumerate that is the weak and check operations.
    shares = [
        checker.input_properties(op)
        for op in ops
        if op.command == "verify" or op.mode == "weak"
    ]
    for prop in shares[0]:
        metrics[f"input.{prop}_share"] = (sum(s[prop] for s in shares) / len(shares), "share")
    return metrics


def run(args):
    from saddles import cli

    checker = Checker()
    setup_s = None if args.trace else measure_setup()
    call_cli(cli.main, WORKLOADS[args.workload](args.seed, WARMUP_INDEX))

    tracer = Tracer() if args.trace else None
    ops, latencies, failures, sample = timed_phase(
        cli,
        functools.partial(WORKLOADS[args.workload], args.seed),
        checker,
        args.seconds,
        TRACE_MIN_OPS if args.trace else MIN_OPS,
        tracer,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(ops)
    if args.trace:
        metrics = trace_metrics(tracer, ops, latencies, checker, args)
        speedup, same = pool_step(args.seed)
        attempted += 1
        if not same:
            failures.append(("pool", "jobs=1 and pooled campaign reports differ"))
        metrics["verify.run_trials.pool_speedup"] = (speedup, "ratio")
    else:
        metrics = latency_metrics(latencies, len(failures))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (setup_s, "s")

    ref_attempted, ref_failures = check_reference(args.workload, cli.main, checker)
    attempted += ref_attempted
    failures += ref_failures
    if args.trace:
        metrics["failed_ratio"] = (len(failures) / attempted, "ratio")
    detects = self_check(checker, sample)
    if not detects:
        print("perfbench: the checker accepted an injected wrong answer", file=sys.stderr)
    for where, reason in failures[:10]:
        print(f"perfbench: op {where} failed: {reason}", file=sys.stderr)
    print(json.dumps({"ops": len(ops), "environment": environment()}))
    return {
        "correct": not failures and detects,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith((".calls", ".cells")):
        return "count"
    return "ratio" if name.endswith("_ratio") else "share"


def _report_top(metrics, workload):
    """Print the largest self times, by function and by layer, to stderr."""
    functions = {
        k[: -len(".self_ms")]: v for k, (v, _) in metrics.items() if k.endswith(".self_ms")
    }
    layers = defaultdict(float)
    for name, value in functions.items():
        layers[name.split(".")[0]] += value
    total = sum(functions.values()) or 1.0
    for label, table in (("functions", functions), ("layers", layers)):
        top = sorted(table.items(), key=lambda item: -item[1])[:5]
        shares = ", ".join(f"{name} {value / total:.0%}" for name, value in top)
        print(f"perfbench: {workload} top {label} by self time: {shares}", file=sys.stderr)


def self_test() -> int:
    """Inject one wrong answer per workload and show that it is counted."""
    from saddles import cli

    status = 0
    for workload, make in WORKLOADS.items():
        ops = [make(0, i) for i in range(3)]
        results = replay(cli.main, ops)
        results[1] = replace(results[1], stdout=corrupt(ops[1], results[1].stdout))
        failures = validate_all(Checker(), ops, results)
        ok = [index for index, _ in failures] == [1]
        status |= not ok
        print(f"{workload}: injected 1 wrong answer, counted {len(failures)}: {failures}")
    return status


def write_reference() -> None:
    from saddles import cli

    checker = Checker()
    doc = {}
    for workload, count in REFERENCE_OPS.items():
        ops = [WORKLOADS[workload](0, i) for i in range(count)]
        results = replay(cli.main, ops)
        failures = validate_all(checker, ops, results)
        if failures:
            _fail_setup(f"reference operations failed: {failures}")
        doc[workload] = [output_digest(op, r.stdout) for op, r in zip(ops, results)]
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.self_test:
        return self_test()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    if not (SRC / "saddles" / "__init__.py").is_file():
        _fail_setup(f"no saddles package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from validate import Checker, corrupt, output_digest
    from workloads import CAMPAIGN_CHECKS, WARMUP_INDEX, WORKLOADS, call_cli

    sys.exit(main())
