"""Layer timings of exhaustive saddle enumeration, written as JSON.

On seeded uniform bound-3 games under weak dominance, times each layer of
`kernels.saddle_grids` separately:

* ``tables_ms``: `dominance_mask_tables`, the exact comparison bitmasks;
* ``gsp_grid_ms``: the GSP grid over all 2^(rows+cols) products, built from
  those tables;
* ``minimal_filter_ms``: the minimality filter applied to that grid;
* ``saddle_grids_ms``: the public call, covering all three.

Every figure is the median of ``--repeats`` timed calls after one warm-up
call. The output records the commit, the Python and numpy versions, the CPU
count and the repeat count.

Usage:
    PYTHONPATH=src python benchmarks/bench_enumerate.py \
        [--sizes 5 8 10 12] [--repeats 7] [--out BENCH_layers.json]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from saddles import GeneratorConfig, GeneratorKind, generate
from saddles.kernels import (
    MODE_WEAK,
    _gsp_grid,
    _minimal_grid,
    dominance_mask_tables,
    saddle_grids,
)

ROOT = Path(__file__).resolve().parent.parent


def median_ms(func, repeats):
    func()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def layer_times(game, repeats):
    n, m = game.rows, game.cols
    tables = [np.array(t, dtype=np.int64) for t in dominance_mask_tables(game)]
    gsp = _gsp_grid(*tables, n, m, MODE_WEAK)
    return {
        "tables_ms": median_ms(lambda: dominance_mask_tables(game), repeats),
        "gsp_grid_ms": median_ms(lambda: _gsp_grid(*tables, n, m, MODE_WEAK), repeats),
        "minimal_filter_ms": median_ms(lambda: _minimal_grid(gsp, n, m), repeats),
        "saddle_grids_ms": median_ms(lambda: saddle_grids(game, MODE_WEAK), repeats),
    }


def environment(repeats):
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saddles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 8, 10, 12])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    doc = environment(args.repeats)
    doc["workload"] = {"generator": "uniform", "bound": 3, "mode": "weak", "seed": args.seed}
    doc["results"] = []
    print(f"{'size':>6} {'cells':>10} {'tables':>10} {'gsp grid':>10} {'filter':>10} {'total':>10}")
    for n in args.sizes:
        game = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, n, 3, args.seed))
        row = {"size": f"{n}x{n}", "cells": 1 << (2 * n), **layer_times(game, args.repeats)}
        doc["results"].append(row)
        print(
            f"{row['size']:>6} {row['cells']:>10,} {row['tables_ms']:>8.2f}ms "
            f"{row['gsp_grid_ms']:>8.2f}ms {row['minimal_filter_ms']:>8.2f}ms "
            f"{row['saddle_grids_ms']:>8.2f}ms"
        )
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
