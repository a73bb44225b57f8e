"""Command-line interface.

Exit codes: 0 success / all checks passed, 1 a verified property violation
was found (the output carries a replayable witness), 2 input or usage error,
or a breached resource budget (including running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dominance import DominanceMode
from .equilibrium import game_value, nash_equilibrium
from .errors import (
    MAX_GRID_BITS, MAX_LP_BITS, MAX_LP_CELLS, MAX_SADDLE_PAIRS, CapacityError,
    GameInputError, PropertyViolationError)
from .game import ZeroSumGame, format_rational
from .gamefile import parse_game
from .generators import GeneratorConfig, GeneratorKind
from .report import ResultDocument, emit_result
from .solver import enumerate_saddles, find_saddle, strict_saddle
from .verify import (
    DEFAULT_CHECKS,
    CheckKind,
    TrialConfig,
    check_interchangeability,
    run_trials,
)


def _read_game(path: str) -> ZeroSumGame:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        where = "stdin" if path == "-" else path
        raise GameInputError(f"{where}: not UTF-8 at byte offset {exc.start}") from None
    return parse_game(text)


def _saddles(products) -> tuple:
    return tuple((s.row_set, s.col_set) for s in products)


def _enumerate(game, mode):
    return {"saddles": _saddles(enumerate_saddles(game, mode))}, 0


def _find(game, mode):
    return {"saddles": _saddles([find_saddle(game, mode)])}, 0


def _strict(game, mode):
    return {"saddles": _saddles([strict_saddle(game)])}, 0


def _value(game, mode):
    return {"value": format_rational(game_value(game))}, 0


def _nash(game, mode):
    pair = nash_equilibrium(game)
    strategies = {
        "row": [format_rational(p) for p in pair.row_strategy],
        "col": [format_rational(p) for p in pair.col_strategy],
    }
    return {"value": format_rational(pair.value), "strategies": strategies}, 0


def _check(game, mode):
    verdict = check_interchangeability(game, mode)
    verdicts = {
        "interchangeability": verdict.interchange_ok,
        "equivalence": verdict.equivalence_ok,
        "violations": [v.describe() for v in verdict.violations],
        "witnesses": [
            {
                "pair": [
                    [list(s1.row_set), list(s1.col_set)],
                    [list(s2.row_set), list(s2.col_set)],
                ],
                "row_perm": list(w.row_perm),
                "col_perm": list(w.col_perm),
            }
            for s1, s2, w in verdict.witnesses
        ],
    }
    fields = {"saddles": _saddles(verdict.saddles), "verdicts": verdicts}
    return fields, 0 if verdict.ok else 1


def _cmd_game(args) -> int:
    """Every command on one game file: read it, answer, print one document.

    `args.answer` is the command's answer function, (game, mode) -> (the
    fields it adds to the ResultDocument, exit code); `mode` is None for
    `value` and `nash`.
    """
    game = _read_game(args.file)
    fields, code = args.answer(game, DominanceMode(args.mode) if args.mode else None)
    doc = ResultDocument(
        game_digest=game.digest(),
        mode=args.mode,
        row_labels=game.row_labels,
        col_labels=game.col_labels,
        **fields,
    )
    print(emit_result(doc, "json" if args.json else "text"))
    return code


def _cmd_verify(args) -> int:
    kind = GeneratorKind(args.gen)
    generator = GeneratorConfig(
        kind=kind, rows=args.rows, cols=args.cols, bound=args.bound, seed=0
    )
    if args.checks:
        checks = tuple(
            CheckKind.from_token(token.strip())
            for token in args.checks.split(",")
            if token.strip()
        )
    else:
        checks = DEFAULT_CHECKS[kind]
    config = TrialConfig(
        trials=args.trials, generator=generator, checks=checks, seed=args.seed
    )
    report = run_trials(config, jobs=args.jobs)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(
            f"campaign: {args.gen} {args.rows}x{args.cols} bound {args.bound}, "
            f"seed {args.seed}, {args.trials} trials"
        )
        for outcome in report.outcomes:
            print(
                f"  {outcome.check.value}: {outcome.passed} passed, "
                f"{outcome.failed} failed"
            )
            if outcome.first_failure is not None:
                w = outcome.first_failure
                print(f"    first failure: trial {w.trial} (seed {w.seed})")
                print(f"    {w.detail}")
        status = "all checks passed" if report.all_passed else "VIOLATIONS FOUND"
        print(f"{status} ({report.duration_seconds:.2f} s)")
    return 0 if report.all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    `main` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="saddles",
        description="Weak and strict saddles of two-player zero-sum games, "
        "with exact game values and property verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_command(name, answer, help_text, fixed_mode=None):
        # A command with one dominance relation ("strict") or none ("") fixes
        # its document mode in place of taking --mode.
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="game file, or '-' for stdin")
        if fixed_mode is None:
            cmd.add_argument(
                "--mode",
                default="weak",
                choices=[m.value for m in DominanceMode],
                help="dominance relation (default: weak)",
            )
        else:
            cmd.set_defaults(mode=fixed_mode)
        cmd.add_argument("--json", action="store_true", help="machine output")
        cmd.set_defaults(func=_cmd_game, answer=answer)

    # Commands that enumerate build saddle grids, refused over the grid budget.
    actions = f"at most {MAX_GRID_BITS.bit_length() - 1} actions in all"
    budget = f"({actions})"
    add_game_command("enumerate", _enumerate, f"list all saddles {budget}")
    add_game_command(
        "find", _find, "find the smallest saddle (no grid; the scan is exponential in "
        "the smallest saddle's size and has no budget yet)",
    )
    add_game_command(
        "strict", _strict, f"the unique strict saddle {budget}", fixed_mode="strict"
    )
    lp_budget = (
        f"(at most {MAX_LP_CELLS} LP cells, rows x (rows + cols + 1), "
        f"and {MAX_LP_BITS}-bit LP integers)"
    )
    add_game_command("value", _value, f"exact game value {lp_budget}", fixed_mode="")
    add_game_command("nash", _nash, f"one exact Nash equilibrium {lp_budget}", fixed_mode="")
    add_game_command(
        "check", _check, "interchangeability/equivalence verdict for one game "
        f"({actions}, and at most {MAX_SADDLE_PAIRS} saddle pairs)",
    )

    verify = sub.add_parser(
        "verify", help=f"seeded randomized verification campaign {budget}"
    )
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--rows", type=int, required=True)
    verify.add_argument("--cols", type=int, required=True)
    verify.add_argument(
        "--gen",
        required=True,
        choices=sorted(k.value for k in GeneratorKind),
        help="generator kind",
    )
    verify.add_argument("--bound", type=int, default=3, help="entry magnitude cap")
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument(
        "--checks",
        default="",
        help="comma-separated check names (default depends on generator)",
    )
    verify.add_argument(
        "--jobs", type=int, default=1, help="parallel workers (capped at the CPU count)"
    )
    verify.add_argument("--json", action="store_true", help="machine output")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except (GameInputError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
