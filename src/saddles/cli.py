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
from .errors import CapacityError, GameInputError, PropertyViolationError
from .game import ZeroSumGame, format_rational
from .gamefile import parse_game
from .generators import GeneratorConfig, GeneratorKind
from .kernels import MAX_GRID_BITS
from .report import ResultDocument, emit_result
from .solver import enumerate_saddles, find_saddle, strict_saddle
from .verify import CheckKind, TrialConfig, check_interchangeability, run_trials

_GENERATOR_TOKENS = {
    "uniform": GeneratorKind.UNIFORM_INT,
    "distinct": GeneratorKind.DISTINCT_INT,
    "confrontation": GeneratorKind.CONFRONTATION,
    "tournament": GeneratorKind.TOURNAMENT,
}


def _read_game(path: str) -> ZeroSumGame:
    if path == "-":
        return parse_game(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_game(handle.read())


def _base_doc(game: ZeroSumGame, mode: DominanceMode | None = None) -> ResultDocument:
    return ResultDocument(
        game_digest=game.digest(),
        mode=mode.value if mode else "",
        row_labels=game.row_labels,
        col_labels=game.col_labels,
    )


def _emit(doc: ResultDocument, as_json: bool) -> None:
    print(emit_result(doc, "json" if as_json else "text"))


def _cmd_enumerate(args) -> int:
    game = _read_game(args.file)
    mode = DominanceMode.from_token(args.mode)
    found = enumerate_saddles(game, mode)
    doc = _base_doc(game, mode)
    doc.saddles = tuple((s.row_set, s.col_set) for s in found)
    _emit(doc, args.json)
    return 0


def _cmd_find(args) -> int:
    game = _read_game(args.file)
    mode = DominanceMode.from_token(args.mode)
    saddle = find_saddle(game, mode)
    doc = _base_doc(game, mode)
    doc.saddles = ((saddle.row_set, saddle.col_set),)
    _emit(doc, args.json)
    return 0


def _cmd_strict(args) -> int:
    game = _read_game(args.file)
    saddle = strict_saddle(game)
    doc = _base_doc(game, DominanceMode.STRICT)
    doc.saddles = ((saddle.row_set, saddle.col_set),)
    _emit(doc, args.json)
    return 0


def _cmd_value(args) -> int:
    game = _read_game(args.file)
    doc = _base_doc(game)
    doc.value = format_rational(game_value(game))
    _emit(doc, args.json)
    return 0


def _cmd_nash(args) -> int:
    game = _read_game(args.file)
    pair = nash_equilibrium(game)
    doc = _base_doc(game)
    doc.value = format_rational(pair.value)
    doc.strategies = {
        "row": [format_rational(p) for p in pair.row_strategy],
        "col": [format_rational(p) for p in pair.col_strategy],
    }
    _emit(doc, args.json)
    return 0


def _cmd_check(args) -> int:
    game = _read_game(args.file)
    mode = DominanceMode.from_token(args.mode)
    verdict = check_interchangeability(game, mode)
    doc = _base_doc(game, mode)
    doc.saddles = tuple((s.row_set, s.col_set) for s in verdict.saddles)
    doc.verdicts = {
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
    _emit(doc, args.json)
    return 0 if verdict.ok else 1


def _default_checks(kind: GeneratorKind) -> tuple[CheckKind, ...]:
    if kind in (GeneratorKind.CONFRONTATION, GeneratorKind.TOURNAMENT):
        return (CheckKind.CONFRONTATION_UNIQUE,)
    checks = [CheckKind.INTERCHANGEABILITY, CheckKind.STRICT_UNIQUE]
    if kind is GeneratorKind.DISTINCT_INT:
        checks.append(CheckKind.DISTINCT_UNIQUE)
    return tuple(checks)


def _cmd_verify(args) -> int:
    kind = _GENERATOR_TOKENS.get(args.gen)
    if kind is None:
        raise GameInputError(
            f"unknown generator {args.gen!r}; expected one of {sorted(_GENERATOR_TOKENS)}"
        )
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
        checks = _default_checks(kind)
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

    def add_game_command(name, func, help_text, with_mode=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="game file, or '-' for stdin")
        if with_mode:
            cmd.add_argument(
                "--mode",
                default="weak",
                choices=[m.value for m in DominanceMode],
                help="dominance relation (default: weak)",
            )
        cmd.add_argument("--json", action="store_true", help="machine output")
        cmd.set_defaults(func=func)
        return cmd

    # Commands that enumerate build saddle grids, refused over the grid budget.
    budget = f"(at most {MAX_GRID_BITS.bit_length() - 1} actions in all)"
    add_game_command("enumerate", _cmd_enumerate, f"list all saddles {budget}")
    add_game_command(
        "find", _cmd_find, "find the smallest saddle (builds no grid, so no size limit)"
    )
    add_game_command(
        "strict", _cmd_strict, f"the unique strict saddle {budget}", with_mode=False
    )
    add_game_command("value", _cmd_value, "exact game value", with_mode=False)
    add_game_command("nash", _cmd_nash, "one exact Nash equilibrium", with_mode=False)
    add_game_command(
        "check",
        _cmd_check,
        f"interchangeability/equivalence verdict for one game {budget}",
    )

    verify = sub.add_parser(
        "verify", help=f"seeded randomized verification campaign {budget}"
    )
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--rows", type=int, required=True)
    verify.add_argument("--cols", type=int, required=True)
    verify.add_argument(
        "--gen", required=True, choices=sorted(_GENERATOR_TOKENS), help="generator kind"
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
    except (GameInputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
