"""The benchmark's workloads and the in-process CLI call that runs one operation.

Every operation is one `saddles.cli.main(argv)` call with stdin and stdout
captured. Operation `i` of a run with seed `s` uses the game seed
`s * SEED_STRIDE + i`, so the same seed gives the same inputs and no game
repeats within a run. The benchmark generates the enumerate and find games
itself; campaign operations pass the seed to `verify`, which generates its
own game.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1_000_000
# Index of the untimed warm-up operation: past the end of any run's range.
WARMUP_INDEX = SEED_STRIDE - 1

CAMPAIGN_CHECKS = (
    "interchangeability",
    "strict_unique",
    "subgame_restriction",
    "nash_consistency",
)

# (argv prefix, dominance mode of the saddles the output lists)
ENUMERATE_ROTATION = (
    (("enumerate", "-", "--mode", "weak"), "weak"),
    (("enumerate", "-", "--mode", "strict"), "strict"),
    (("enumerate", "-", "--mode", "weak-strict"), "weak-strict"),
    (("strict", "-"), "strict"),
    (("check", "-"), "weak"),
)


@dataclass(frozen=True)
class Operation:
    index: int
    seed: int
    command: str  # first argv token: verify, enumerate, strict, check, find
    mode: str  # dominance mode of the listed saddles; "" for verify
    argv: tuple[str, ...]
    stdin: str = ""
    bound: int = 3  # entry bound of the operation's game


@dataclass
class Result:
    code: int | None  # None when the call raised
    stdout: str
    stderr: str
    seconds: float
    error: str = ""


def uniform_game_text(rows: int, cols: int, bound: int, seed: int) -> str:
    """A game file of integers uniform on [-bound, bound]."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    flat = rng.integers(-bound, bound + 1, size=rows * cols)
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(str(int(v)) for v in flat[r * cols : (r + 1) * cols]))
    return "\n".join(lines) + "\n"


def _campaign(run_seed: int, index: int) -> Operation:
    seed = run_seed * SEED_STRIDE + index
    # Bound 1 makes about 35% of 5x5 games multi-saddle, against 4% at bound 3.
    bound = 3 if index % 2 == 0 else 1
    argv = (
        "verify", "--trials", "1", "--rows", "5", "--cols", "5",
        "--gen", "uniform", "--bound", str(bound),
        "--checks", ",".join(CAMPAIGN_CHECKS), "--seed", str(seed), "--json",
    )
    return Operation(index, seed, "verify", "", argv, bound=bound)


def _enumerate(run_seed: int, index: int) -> Operation:
    seed = run_seed * SEED_STRIDE + index
    prefix, mode = ENUMERATE_ROTATION[index % len(ENUMERATE_ROTATION)]
    return Operation(
        index, seed, prefix[0], mode, prefix + ("--json",),
        uniform_game_text(10, 10, 3, seed),
    )


def _find(run_seed: int, index: int) -> Operation:
    seed = run_seed * SEED_STRIDE + index
    return Operation(
        index, seed, "find", "weak", ("find", "-", "--mode", "weak", "--json"),
        uniform_game_text(7, 7, 3, seed),
    )


WORKLOADS = {"campaign": _campaign, "enumerate": _enumerate, "find": _find}


def call_cli(main, op: Operation) -> Result:
    """Run one operation through `main` with captured stdin, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that raises is a failure, not a crash
        code = None
        error = traceback.format_exc(limit=3)
    finally:
        seconds = time.perf_counter() - start
        sys.stdin = saved_stdin
    return Result(code, out.getvalue(), err.getvalue(), seconds, error)
