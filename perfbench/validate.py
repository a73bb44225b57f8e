"""Correctness checks on operation outputs, made outside the timed region.

An operation fails on a non-zero exit, an exception, or an output that
fails these checks. Saddles are checked against the definitional
`solver.is_gsp`, never against the grid that produced them.
"""

from __future__ import annotations

import hashlib
import json

from saddles import (
    ActionProduct,
    DominanceMode,
    GeneratorConfig,
    GeneratorKind,
    enumerate_saddles,
    generate,
    is_gsp,
    iterated_elimination,
    parse_game,
    pure_saddle_points,
    trial_seed,
)
from workloads import CAMPAIGN_CHECKS, Operation, Result


def output_digest(op: Operation, stdout: str) -> str:
    """SHA-256 of the output bytes; a campaign report drops duration_seconds."""
    if op.command == "verify":
        try:
            doc = json.loads(stdout)
            doc.pop("duration_seconds", None)
            stdout = json.dumps(doc) + "\n"
        except (json.JSONDecodeError, AttributeError):
            pass  # not a report: digest the bytes as they are
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def corrupt(op: Operation, stdout: str) -> str:
    """A plausible wrong answer for `op`: the self-test feeds it to `Checker.check`."""
    doc = json.loads(stdout)
    if op.command == "verify":
        doc["checks"][0]["pass"], doc["checks"][0]["fail"] = 0, 1
        return json.dumps(doc) + "\n"
    game = parse_game(op.stdin)
    mode = DominanceMode.from_token(op.mode)
    for r in range(game.rows):
        for c in range(game.cols):
            if not is_gsp(game, ActionProduct((r,), (c,)), mode):
                doc["saddles"][0] = [[r], [c]]
                return json.dumps(doc) + "\n"
    doc["saddles"] = []
    return json.dumps(doc) + "\n"


class Checker:
    """Validates results and caches the weak saddles each game needed."""

    def __init__(self):
        self._weak: dict[str, tuple[ActionProduct, ...]] = {}

    def weak_saddles(self, game_text: str) -> tuple[ActionProduct, ...]:
        if game_text not in self._weak:
            found = enumerate_saddles(parse_game(game_text), DominanceMode.WEAK)
            self._weak[game_text] = found.saddles
        return self._weak[game_text]

    def check(self, op: Operation, result: Result) -> str | None:
        """None when the result is correct, else the reason it is not."""
        if result.error:
            return "raised: " + result.error.strip().splitlines()[-1]
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()[:200]}"
        try:
            doc = json.loads(result.stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if op.command == "verify":
            return _check_campaign(op, doc)
        return self._check_saddles(op, doc)

    def _check_saddles(self, op: Operation, doc: dict) -> str | None:
        if doc.get("game_digest") != hashlib.sha256(op.stdin.encode("ascii")).hexdigest():
            return "game_digest does not match the input"
        if doc.get("mode") != op.mode:
            return f"mode {doc.get('mode')!r}, expected {op.mode!r}"
        game = parse_game(op.stdin)
        mode = DominanceMode.from_token(op.mode)
        try:
            products = [ActionProduct(rows, cols) for rows, cols in doc["saddles"]]
        except (TypeError, ValueError) as exc:
            return f"malformed saddle list: {exc}"
        if not products:
            return "no saddle reported; every game has one"
        for product in products:
            if product.row_set[-1] >= game.rows or product.col_set[-1] >= game.cols:
                return f"saddle {product} lies outside the game"
            if not is_gsp(game, product, mode):
                return f"{product.row_set}x{product.col_set} is not a {op.mode} GSP"
        for a in products:
            if any(a != b and a.contains(b) for b in products):
                return f"{a.row_set}x{a.col_set} is not minimal"
        if op.command == "strict" and len(products) != 1:
            return f"strict reported {len(products)} saddles"
        if op.command == "check":
            verdicts = doc.get("verdicts", {})
            if not (verdicts.get("interchangeability") and verdicts.get("equivalence")):
                return "check verdict is not interchangeable and equivalent"
        if op.mode == "weak" and op.command in ("enumerate", "check"):
            self._weak.setdefault(op.stdin, tuple(sorted(products)))
        if op.command == "find" and products[0] not in self.weak_saddles(op.stdin):
            return "find's product is not among enumerate_saddles"
        return None

    def input_properties(self, op: Operation) -> dict[str, bool]:
        """The game properties whose shares the traced run reports."""
        if op.command == "verify":
            # The single trial's game, as `verify.run_trials` derives it.
            game = generate(
                GeneratorConfig(
                    GeneratorKind.UNIFORM_INT, 5, 5, op.bound, trial_seed(op.seed, 0)
                )
            )
            text = game.to_text()
        else:
            text = op.stdin
            game = parse_game(text)
        weak = self.weak_saddles(text)
        full = game.full_product()
        return {
            "multi_saddle": len(weak) > 1,
            "pure_saddle": bool(pure_saddle_points(game)),
            "full_product_saddle": weak == (full,),
            "elimination_shrinks": iterated_elimination(game, DominanceMode.WEAK) != full,
        }


def _check_campaign(op: Operation, doc: dict) -> str | None:
    if doc.get("seed") != op.seed or doc.get("trials") != 1:
        return "campaign report is for another seed or trial count"
    checks = {c.get("check"): c for c in doc.get("checks", [])}
    if sorted(checks) != sorted(CAMPAIGN_CHECKS):
        return f"campaign ran checks {sorted(checks)}"
    for name, outcome in checks.items():
        if outcome.get("pass") != 1 or outcome.get("fail") != 0:
            return f"check {name} did not pass exactly once"
    if doc.get("all_passed") is not True:
        return "campaign report lacks all_passed"
    return None
