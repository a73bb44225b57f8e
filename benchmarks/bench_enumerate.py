"""Layer timings of exhaustive saddle enumeration, written as JSON.

On seeded uniform bound-3 games under weak dominance, times each layer of
`kernels.saddle_grids` and of reading its answer:

* ``tables_ms``: `dominance_mask_tables` in int32, as the grid builds them,
  the exact comparison bitmasks, ranking included: the game caches its
  ranks, so this call and ``saddle_grids_ms`` get a fresh copy of the game
  each time;
* ``nondominator_sets_ms``: the non-dominator set of every action for every
  opponent mask, both sides;
* ``gsp_grid_ms``: the packed GSP grid over all 2^(rows+cols) products, from
  the tables: non-dominator sets, marking and the downward closures;
* ``gsp_closure_ms``: ``gsp_grid_ms`` minus ``nondominator_sets_ms``, the
  marking and closures alone (derived, not timed on its own);
* ``minimal_filter_ms``: the minimality closure applied to that grid
  (`kernels.minimal_grid`), which the referees read;
* ``min_size_walk_ms``: the cells of fewest actions read off that grid
  (`kernels.min_size_cells`), which weak and strict enumeration read
  instead of the filter;
* ``cell_extraction_ms``: reading the saddles off the minimal grid as sorted
  `ActionProduct`s (`kernels.grid_cells` and `solver._products`);
* ``saddle_grids_ms``: the public call, covering tables and GSP grid.

It also times the exact LP layer, under ``lp``, on seeded uniform games of
the shapes and bounds in `LP_WORKLOADS`, each figure per game over a batch of
`LP_GAMES` games:

* ``packing_lp_ms``: the simplex (`simplex.solve_packing_lp`) alone, on the
  positive integer matrix and right-hand side that `equilibrium.game_value`
  builds, captured from one untimed call per game;
* ``game_value_ms``: the public call, which builds and solves that LP.

Under ``trial`` it times one campaign trial (`verify._run_trial`) with the
four checks of the benchmark's campaign workload, on `TRIAL_GAMES` seeded
uniform 5x5 games at each of `TRIAL_BOUNDS`:

* ``trial_ms``: per trial, generation and all four checks;
* ``tables_per_trial``, ``grids_per_trial`` and ``lps_per_trial``: the
  calls of `kernels.dominance_mask_tables`, `kernels.saddle_grids` and
  `simplex.solve_packing_lp` (through `equilibrium`) per trial, counted in
  one untimed pass.

Under ``equivalence`` it times `verify.check_interchangeability` on the
cloned Latin squares of `LATIN_SIZES`: the k x k cyclic Latin square
(i + j) mod k stacked over its reversed rows, a 2k x k game with 2^k weak
saddles whose 2^(k-1) (2^k - 1) pairs are all equivalent. The grid is built
once, before the warm-up, so each call is the pair loop: one permutation
search (`solver.permutation_equivalent`) per pair. Each row gives the pair
count and ``check_ms``, the median, with ``check_ms_quartiles``, the lower
and upper quartiles of the ``--repeats`` calls.

Under ``find`` it times `solver.find_saddle` under weak dominance, the scan
of the benchmark's find workload, which builds no grid, on the batches of
`FIND_WORKLOADS`: the uniform bound-3 7x7 games of 20 consecutive seeds
from ``--seed`` (the games perfbench's find workload draws for those
seeds), one uniform bound-3 9x9 game of seed ``--seed``, the planted
16x16 and 70x70 games (`planted_saddle_entry`), whose 1x1 saddle the scan
meets among single rows, and the 40x40 ``block`` game
(`planted_block_entry`), whose 2x2 saddle it meets after the column masks
of 3 actions for every row, in chunks that fill the element cap of
`solver._CHUNK_CELLS`. The last three are past the grid budget, where the
scan is the only path. Each row gives ``find_ms`` per game, the median,
with ``find_ms_quartiles``, the lower and upper quartiles of the
``--repeats`` calls, and ``nondominator_calls``, the calls of
`kernels.non_dominators` per game, counted in one untimed pass.

Under ``front_end`` it times the input path of every game command, on the
batches of `FRONT_END_WORKLOADS`: the canonical text of games of consecutive
seeds from ``--seed``. ``uniform`` games are uniform bound-3 games, whose
few distinct payoffs repeat (10x10 is the shape and text of perfbench's
enumerate workload). ``distinct`` games have no repeated payoff: the
distinct-integer generator at the smallest bound that fills the game, and
``distinct/7`` the same games with every payoff divided by 7, so most
tokens are "p/7" rationals. Each figure is per game:

* ``parse_game_ms``: `gamefile.parse_game` on the text, tokens to game;
* ``ranks_ms``: `ZeroSumGame.values` and `ZeroSumGame.ranks` on a fresh,
  unranked copy of the game;
* ``digest_ms``: `ZeroSumGame.digest`, which every game command prints.

Under ``startup`` it times fresh interpreters that import this checkout's
`src/`, from spawn:

* ``import_cli_ms``: to `import saddles.cli` done (the child reports it on
  stdout, then exits);
* ``bare_python_ms``: to the exit of ``python -c pass``, the floor;
* per command of `STARTUP_COMMANDS`, ``exit_ms``: to the exit of
  ``python -m saddles.cli <command> <game>`` on one seeded uniform bound-3
  5x5 game;

and whether each of them loaded numpy (``numpy``), read from one further,
untimed run under ``python -X importtime``.

Every timed figure is the median of ``--repeats`` calls after one warm-up
call (for a spawn, the warm-up fills ``__pycache__``). The output records
the commit, the Python and numpy versions, the CPU count and the repeat
count.

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
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from saddles import (
    CheckKind,
    DominanceMode,
    GameAnalysis,
    GeneratorConfig,
    GeneratorKind,
    TrialConfig,
    ZeroSumGame,
    check_interchangeability,
    equilibrium,
    find_saddle,
    game_value,
    generate,
    kernels,
    new_game,
    parse_game,
)
from saddles.kernels import (
    _gsp_grid,
    dominance_mask_tables,
    grid_cells,
    min_size_cells,
    minimal_grid,
    non_dominators,
    saddle_grids,
)
from saddles.solver import _products
from saddles.verify import _run_trial

ROOT = Path(__file__).resolve().parent.parent
# (size, bound) of the LP layer workloads: campaign-sized 5x5 games at both
# of its bounds, and a larger 8x8 tableau.
LP_WORKLOADS = ((5, 3), (5, 1), (8, 3))
LP_GAMES = 20
# The checks of one trial of the benchmark's campaign workload.
TRIAL_CHECKS = (
    CheckKind.INTERCHANGEABILITY,
    CheckKind.STRICT_UNIQUE,
    CheckKind.SUBGAME_RESTRICTION,
    CheckKind.NASH_CONSISTENCY,
)
TRIAL_BOUNDS = (3, 1)
TRIAL_GAMES = 20
# k of the cloned Latin squares timed under ``equivalence``.
LATIN_SIZES = (4, 5, 6)
# (game, size, games) of the batches timed under ``find``.
FIND_WORKLOADS = (
    ("uniform", 7, 20),
    ("uniform", 9, 1),
    ("planted", 16, 1),
    ("planted", 70, 1),
    ("block", 40, 1),
)
# (payoffs, size, games) of the batches timed under ``front_end``.
FRONT_END_WORKLOADS = (
    ("uniform", 10, 20),
    ("distinct", 10, 20),
    ("distinct/7", 10, 20),
    ("uniform", 70, 1),
)
# The commands timed from spawn to exit: two that solve an LP and two that
# build dominance tables (`enumerate` also its grids).
STARTUP_COMMANDS = ("value", "nash", "find", "enumerate")
IMPORT_PROBE = "import sys, saddles.cli; print('numpy' in sys.modules, flush=True)"


def samples_ms(func, repeats):
    func()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def median_ms(func, repeats):
    return statistics.median(samples_ms(func, repeats))


def quartiles_ms(func, repeats, per=1):
    # (lower quartile, median, upper quartile) of the calls, each over `per`.
    samples = [t / per for t in samples_ms(func, repeats)]
    return statistics.quantiles(samples, n=4) if repeats > 1 else samples * 3


def layer_times(game, repeats):
    n, m, weak = game.rows, game.cols, DominanceMode.WEAK
    row_ge, row_gt, col_le, col_lt = tables = dominance_mask_tables(game, np.int32)
    col_masks = np.arange(1 << m, dtype=np.int32)
    row_masks = np.arange(1 << n, dtype=np.int32)
    gsp = _gsp_grid(*tables, n, m, weak)
    minimal = minimal_grid(gsp, n + m)

    def nondominator_sets():
        non_dominators(row_ge, row_gt, n, col_masks, weak)
        non_dominators(col_le, col_lt, m, row_masks, weak)

    # One unranked copy of the game per call, warm-up included, made before
    # the clock starts.
    copies = iter([ZeroSumGame(game.entries) for _ in range(2 * (repeats + 1))])

    def fresh_saddle_grids():
        copy = next(copies)
        return saddle_grids(copy, weak, dominance_mask_tables(copy, np.int32))

    times = {
        "tables_ms": median_ms(
            lambda: dominance_mask_tables(next(copies), np.int32), repeats
        ),
        "nondominator_sets_ms": median_ms(nondominator_sets, repeats),
        "gsp_grid_ms": median_ms(lambda: _gsp_grid(*tables, n, m, weak), repeats),
        "minimal_filter_ms": median_ms(lambda: minimal_grid(gsp, n + m), repeats),
        "min_size_walk_ms": median_ms(lambda: min_size_cells(gsp, m), repeats),
        "cell_extraction_ms": median_ms(
            lambda: _products(grid_cells(minimal, m), game), repeats
        ),
        "saddle_grids_ms": median_ms(fresh_saddle_grids, repeats),
    }
    times["gsp_closure_ms"] = times["gsp_grid_ms"] - times["nondominator_sets_ms"]
    return times


def lp_times(n, bound, seed, repeats):
    games = [
        generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, n, bound, seed + k))
        for k in range(LP_GAMES)
    ]
    # The LPs `game_value` hands to the simplex, captured from one call each.
    lps = []
    solve = equilibrium.solve_packing_lp

    def captured(*lp):
        lps.append(lp)
        return solve(*lp)

    equilibrium.solve_packing_lp = captured
    try:
        for game in games:
            game_value(game)
    finally:
        equilibrium.solve_packing_lp = solve

    def solve_all():
        for lp in lps:
            solve(*lp)

    def value_all():
        for game in games:
            game_value(game)

    return {
        "size": f"{n}x{n}",
        "bound": bound,
        "games": LP_GAMES,
        "packing_lp_ms": median_ms(solve_all, repeats) / LP_GAMES,
        "game_value_ms": median_ms(value_all, repeats) / LP_GAMES,
    }


def trial_times(bound, seed, repeats):
    config = TrialConfig(
        trials=TRIAL_GAMES,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, bound, 0),
        checks=TRIAL_CHECKS,
        seed=seed,
    )

    def run_all():
        for trial in range(TRIAL_GAMES):
            _run_trial((config, trial))

    builds = Counter()
    counted_calls = (
        (kernels, "dominance_mask_tables"),
        (kernels, "saddle_grids"),
        (equilibrium, "solve_packing_lp"),
    )
    originals = {(module, name): getattr(module, name) for module, name in counted_calls}
    for (module, name), func in originals.items():
        def counted(*args, _name=name, _func=func):
            builds[_name] += 1
            return _func(*args)

        setattr(module, name, counted)
    try:
        run_all()
    finally:
        for (module, name), func in originals.items():
            setattr(module, name, func)
    return {
        "size": "5x5",
        "bound": bound,
        "games": TRIAL_GAMES,
        "trial_ms": median_ms(run_all, repeats) / TRIAL_GAMES,
        "tables_per_trial": builds["dominance_mask_tables"] / TRIAL_GAMES,
        "grids_per_trial": builds["saddle_grids"] / TRIAL_GAMES,
        "lps_per_trial": builds["solve_packing_lp"] / TRIAL_GAMES,
    }


def equivalence_times(k, repeats):
    rows = [[(i + j) % k for j in range(k)] for i in range(k)]
    game = new_game(2 * k, k, [v for row in rows + rows[::-1] for v in row])
    analysis = GameAnalysis(game)
    verdict = check_interchangeability(analysis)
    quartiles = quartiles_ms(lambda: check_interchangeability(analysis), repeats)
    return {
        "size": f"{2 * k}x{k}",
        "k": k,
        "saddles": len(verdict.saddles),
        "pairs": len(verdict.witnesses),
        "check_ms": quartiles[1],
        "check_ms_quartiles": [quartiles[0], quartiles[2]],
    }


def planted_saddle_entry(r, c):
    # Entry (2, 5) is the least of its row and the greatest of its column,
    # and no other entry is both, so {2} x {5} is the saddle `find` returns
    # on any game of at least 3 rows and 6 columns; the other entries are a
    # fixed pattern in -3..3.
    if (r, c) == (2, 5):
        return 0
    return 3 if r == 2 else -3 if c == 5 else (r * c) % 7 - 3


def planted_block_entry(r, c):
    # Rows {2, 3} x columns {5, 6} hold matching pennies; the block's rows
    # read 3 and its columns -3 everywhere else, and the other entries are a
    # fixed pattern in -2..2, so the block is the only saddle on any game of
    # at least 4 rows and 7 columns.
    if r in (2, 3) and c in (5, 6):
        return 1 if (r == 2) == (c == 5) else -1
    return 3 if r in (2, 3) else -3 if c in (5, 6) else (r * c) % 5 - 2


def find_times(kind, n, count, seed, repeats):
    if kind in ("planted", "block"):
        entry = planted_saddle_entry if kind == "planted" else planted_block_entry
        games = [new_game(n, n, [entry(r, c) for r in range(n) for c in range(n)])]
    else:
        games = [
            generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, n, 3, seed + k))
            for k in range(count)
        ]

    def find_all():
        for game in games:
            find_saddle(game, DominanceMode.WEAK)

    build, calls = kernels.non_dominators, []
    kernels.non_dominators = lambda *args: calls.append(None) or build(*args)
    try:
        find_all()
    finally:
        kernels.non_dominators = build
    low, median, high = quartiles_ms(find_all, repeats, per=count)
    return {
        "game": kind,
        "size": f"{n}x{n}",
        "bound": 3,
        "games": count,
        "find_ms": median,
        "find_ms_quartiles": [low, high],
        "nondominator_calls": len(calls) / count,
    }


def _front_end_game(payoffs, n, seed):
    if payoffs == "uniform":
        return generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, n, 3, seed))
    bound = (n * n) // 2
    game = generate(GeneratorConfig(GeneratorKind.DISTINCT_INT, n, n, bound, seed))
    if payoffs == "distinct/7":
        game = ZeroSumGame(tuple(tuple(v / 7 for v in row) for row in game.entries))
    return game


def front_end_times(payoffs, n, count, seed, repeats):
    texts = [_front_end_game(payoffs, n, seed + k).to_text() for k in range(count)]
    games = [parse_game(text) for text in texts]
    # One unranked copy of each game per call, warm-up included, made before
    # the clock starts.
    copies = iter(
        [[ZeroSumGame(game.entries) for game in games] for _ in range(repeats + 1)]
    )

    def parse_all():
        for text in texts:
            parse_game(text)

    def rank_all():
        for copy in next(copies):
            copy.values
            copy.ranks

    def digest_all():
        for game in games:
            game.digest()

    return {
        "payoffs": payoffs,
        "size": f"{n}x{n}",
        "games": count,
        "distinct_tokens": statistics.mean(len(set(text.split()[2:])) for text in texts),
        "parse_game_ms": median_ms(parse_all, repeats) / count,
        "ranks_ms": median_ms(rank_all, repeats) / count,
        "digest_ms": median_ms(digest_all, repeats) / count,
    }


def _child_env():
    # The children import the saddles of this checkout, whatever PYTHONPATH
    # the script itself was started with.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _median_spawn_ms(argv, repeats, until_line=False):
    # Spawn to exit, or to the child's first line of stdout when until_line.
    env = _child_env()
    samples = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        ) as child:
            if until_line:
                child.stdout.readline()
                elapsed = time.perf_counter() - start
            child.communicate()
            if not until_line:
                elapsed = time.perf_counter() - start
        if child.returncode != 0:
            raise RuntimeError(f"{argv} exited with {child.returncode}")
        samples.append(elapsed)
    return statistics.median(samples[1:]) * 1e3


def _loads_numpy(argv):
    # One untimed run under -X importtime, which lists every module imported.
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in run.stderr.splitlines())


def startup_times(seed, repeats):
    game = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 3, seed))
    probe = ["-c", IMPORT_PROBE]
    doc = {
        "game": {"generator": "uniform", "size": "5x5", "bound": 3, "seed": seed},
        "bare_python_ms": _median_spawn_ms([sys.executable, "-c", "pass"], repeats),
        "import_cli_ms": _median_spawn_ms([sys.executable, *probe], repeats, until_line=True),
        "import_cli_numpy": _loads_numpy(probe),
        "commands": [],
    }
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "game.txt"
        path.write_text(game.to_text())
        for command in STARTUP_COMMANDS:
            argv = ["-m", "saddles.cli", command, str(path)]
            doc["commands"].append(
                {
                    "command": command,
                    "exit_ms": _median_spawn_ms([sys.executable, *argv], repeats),
                    "numpy": _loads_numpy(argv),
                }
            )
    return doc


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
    columns = (
        ("tables_ms", "tables"),
        ("nondominator_sets_ms", "nondom"),
        ("gsp_closure_ms", "closure"),
        ("minimal_filter_ms", "filter"),
        ("min_size_walk_ms", "walk"),
        ("cell_extraction_ms", "extract"),
        ("saddle_grids_ms", "total"),
    )
    print(f"{'size':>6} {'cells':>10}" + "".join(f" {label:>10}" for _, label in columns))
    for n in args.sizes:
        game = generate(GeneratorConfig(GeneratorKind.UNIFORM_INT, n, n, 3, args.seed))
        row = {"size": f"{n}x{n}", "cells": 1 << (2 * n), **layer_times(game, args.repeats)}
        doc["results"].append(row)
        print(
            f"{row['size']:>6} {row['cells']:>10,}"
            + "".join(f" {row[key]:>8.2f}ms" for key, _ in columns)
        )
    doc["lp"] = []
    print(f"\n{'lp':>6} {'bound':>6} {'packing':>10} {'value':>10}")
    for n, bound in LP_WORKLOADS:
        row = lp_times(n, bound, args.seed, args.repeats)
        doc["lp"].append(row)
        print(
            f"{row['size']:>6} {bound:>6} {row['packing_lp_ms']:>8.3f}ms"
            f" {row['game_value_ms']:>8.3f}ms"
        )
    doc["trial"] = []
    print(f"\n{'trial':>6} {'bound':>6} {'time':>10} {'tables':>7} {'grids':>6} {'lps':>6}")
    for bound in TRIAL_BOUNDS:
        row = trial_times(bound, args.seed, args.repeats)
        doc["trial"].append(row)
        print(
            f"{row['size']:>6} {bound:>6} {row['trial_ms']:>8.3f}ms"
            f" {row['tables_per_trial']:>7.2f} {row['grids_per_trial']:>6.2f}"
            f" {row['lps_per_trial']:>6.2f}"
        )
    doc["equivalence"] = []
    print(f"\n{'latin':>6} {'saddles':>8} {'pairs':>6} {'q1':>10} {'median':>10} {'q3':>10}")
    for k in LATIN_SIZES:
        row = equivalence_times(k, args.repeats)
        doc["equivalence"].append(row)
        low, high = row["check_ms_quartiles"]
        print(
            f"{row['size']:>6} {row['saddles']:>8} {row['pairs']:>6}"
            + "".join(f" {v:>8.1f}ms" for v in (low, row["check_ms"], high))
        )
    doc["find"] = []
    print(
        f"\n{'find':>8} {'input':>6} {'games':>6} {'q1':>10} {'median':>10} {'q3':>10}"
        f" {'calls':>7}"
    )
    for kind, n, count in FIND_WORKLOADS:
        row = find_times(kind, n, count, args.seed, args.repeats)
        doc["find"].append(row)
        low, high = row["find_ms_quartiles"]
        print(
            f"{kind:>8} {row['size']:>6} {count:>6}"
            + "".join(f" {v:>8.1f}ms" for v in (low, row["find_ms"], high))
            + f" {row['nondominator_calls']:>7.1f}"
        )
    doc["front_end"] = []
    print(
        f"\n{'payoffs':>10} {'input':>6} {'games':>6} {'tokens':>7}"
        f" {'parse':>10} {'ranks':>10} {'digest':>10}"
    )
    for payoffs, n, count in FRONT_END_WORKLOADS:
        row = front_end_times(payoffs, n, count, args.seed, args.repeats)
        doc["front_end"].append(row)
        print(
            f"{payoffs:>10} {row['size']:>6} {count:>6} {row['distinct_tokens']:>7.1f}"
            + "".join(f" {row[k]:>8.3f}ms" for k in ("parse_game_ms", "ranks_ms", "digest_ms"))
        )
    doc["startup"] = startup = startup_times(args.seed, args.repeats)
    print(f"\n{'startup':>18} {'time':>10} {'numpy':>6}")
    print(f"{'python -c pass':>18} {startup['bare_python_ms']:>8.1f}ms")
    print(
        f"{'import saddles.cli':>18} {startup['import_cli_ms']:>8.1f}ms"
        f" {startup['import_cli_numpy']!s:>6}"
    )
    for row in startup["commands"]:
        print(f"{row['command']:>18} {row['exit_ms']:>8.1f}ms {row['numpy']!s:>6}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
