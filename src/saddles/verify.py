"""Machine checks for the structural guarantees of weak and strict saddles.

`check_interchangeability` verifies, for one game, that all weak saddles are
interchangeable (cross products of saddles are saddles) and equivalent
(saddle subgames coincide up to row/column permutation). The remaining
checks cover strict-saddle uniqueness, uniqueness on confrontation games,
the distinct-payoff case, the subgame restriction lemma (inside a weak GSP,
a product is a GSP of the game iff it is one of that subgame), and
value/equilibrium consistency of saddles, and the minimum-size rule that
`enumerate_saddles` relies on. Saddles are read from the minimality filter
(`solver.minimal_saddles`), and only `check_min_size` also reads the fast
path of `enumerate_saddles`, to compare the two; the restriction check
draws its outer product from the weak GSP grid and decides both sides
with `is_gsp`. Every `check_*` answers with a `CheckVerdict`: `.ok`, and
`.violations`, one text per violation found (the interchangeability verdict
also keeps the saddles and the pair witnesses that `check` prints).
`run_trials` drives the checks over seeded random campaigns and reports
replayable witnesses for any failure, a failure's detail being its
verdict's violations joined by "; ": these properties admit no exceptions,
so a single failed trial is a falsification, not noise.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, replace

from .dominance import DominanceMode
from .equilibrium import embed_strategy, is_nash, nash_equilibrium
from .errors import (
    MAX_SADDLE_PAIRS,
    CapacityError,
    GameInputError,
    check_grid_budget,
    enum_from_token,
)
from .game import ActionProduct, ZeroSumGame
from .generators import (
    SEED_MAX,
    GeneratorConfig,
    GeneratorKind,
    generate,
    seeded_rng,
    trial_seed,
)
from .solver import (
    GameAnalysis,
    SaddleSet,
    analyze,
    enumerate_saddles,
    is_gsp,
    masked_product,
    minimal_saddles,
    permutation_equivalent,
)


class CheckKind(enum.Enum):
    INTERCHANGEABILITY = "interchangeability"
    STRICT_UNIQUE = "strict_unique"
    CONFRONTATION_UNIQUE = "confrontation_unique"
    DISTINCT_UNIQUE = "distinct_unique"
    SUBGAME_RESTRICTION = "subgame_restriction"
    NASH_CONSISTENCY = "nash_consistency"
    MIN_SIZE = "min_size"

    @classmethod
    def from_token(cls, token: str) -> "CheckKind":
        return enum_from_token(cls, token, "check")


@dataclass(frozen=True)
class CheckVerdict:
    """What a check found: `ok`, and a text per violation when it is not.

    A verdict has no truth value: `assert check(game)` would pass whatever
    the check found, so it raises TypeError; read `.ok`.
    """

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self):
        raise TypeError("a verdict has no truth value; read its .ok")


@dataclass(frozen=True, kw_only=True)
class InterchangeabilityVerdict(CheckVerdict):
    """A game's saddles under one mode and whether every pair of them is
    interchangeable and equivalent; it names no game, its caller holds it."""

    saddles: SaddleSet
    interchange_ok: bool
    equivalence_ok: bool
    witnesses: tuple[tuple[ActionProduct, ActionProduct, object], ...]


def check_interchangeability(
    subject: ZeroSumGame | GameAnalysis,
    mode: DominanceMode = DominanceMode.WEAK,
) -> InterchangeabilityVerdict:
    """Interchangeability and permutation equivalence over all saddle pairs.

    Under weak (or strict) dominance any violation is a bug witness. The
    weak-require-strict variant is allowed here precisely because it breaks
    these properties; the verdict then documents the counterexample instead
    of asserting. More than MAX_SADDLE_PAIRS pairs raise CapacityError
    before any pair is compared.
    """
    analysis = analyze(subject)
    game = analysis.game
    saddles = minimal_saddles(analysis, mode)
    members = saddles.saddles
    pairs = len(members) * (len(members) - 1) // 2
    if pairs > MAX_SADDLE_PAIRS:
        raise CapacityError(
            f"{len(members)} saddles make {pairs} pairs to compare, "
            f"over the budget of {MAX_SADDLE_PAIRS} saddle pairs"
        )
    # Each saddle with its subgame, built once for all its pairs.
    subgames = [(s, game.subgame(s)) for s in members]
    # The saddles as (rows, cols) keys: each pair's cross products R1 x C2
    # and R2 x C1 are looked up without building them.
    keys = {(s.row_set, s.col_set) for s in members}
    violations = []
    witnesses = []
    interchange_ok = equivalence_ok = True
    for i, (s1, sub1) in enumerate(subgames):
        for s2, sub2 in subgames[i + 1 :]:
            if (s1.row_set, s2.col_set) not in keys or (s2.row_set, s1.col_set) not in keys:
                interchange_ok = False
                violations.append(_pair_violation("interchangeability", s1, s2))
            witness = permutation_equivalent(sub1, sub2)
            if witness is None:
                equivalence_ok = False
                violations.append(_pair_violation("equivalence", s1, s2))
            else:
                witnesses.append((s1, s2, witness))
    return InterchangeabilityVerdict(
        ok=interchange_ok and equivalence_ok,
        violations=tuple(violations),
        saddles=saddles,
        interchange_ok=interchange_ok,
        equivalence_ok=equivalence_ok,
        witnesses=tuple(witnesses),
    )


def _pair_violation(claim: str, s1: ActionProduct, s2: ActionProduct) -> str:
    return f"{claim}: {s1.row_set}x{s1.col_set} vs {s2.row_set}x{s2.col_set}"


def check_strict_uniqueness(subject: ZeroSumGame | GameAnalysis) -> CheckVerdict:
    ok = len(minimal_saddles(subject, DominanceMode.STRICT)) == 1
    return CheckVerdict(ok, () if ok else ("strict saddle not unique",))


def check_confrontation_uniqueness(subject: ZeroSumGame | GameAnalysis) -> CheckVerdict:
    analysis = analyze(subject)
    if not analysis.game.is_confrontation():
        raise GameInputError("uniqueness check requires a confrontation game")
    ok = len(minimal_saddles(analysis, DominanceMode.WEAK)) == 1
    return CheckVerdict(ok, () if ok else ("weak saddle not unique in confrontation game",))


def check_distinct_uniqueness(subject: ZeroSumGame | GameAnalysis) -> CheckVerdict:
    """With pairwise-distinct payoffs the unique weak saddle is the strict one."""
    analysis = analyze(subject)
    game = analysis.game
    if len(game.values) < game.rows * game.cols:
        raise GameInputError("distinct-payoff check requires pairwise-distinct payoffs")
    weak = minimal_saddles(analysis, DominanceMode.WEAK)
    strict = minimal_saddles(analysis, DominanceMode.STRICT)
    ok = len(weak) == 1 and weak.saddles == strict.saddles
    return CheckVerdict(ok, () if ok else ("weak/strict saddles differ on distinct payoffs",))


def check_nash_consistency(subject: ZeroSumGame | GameAnalysis) -> CheckVerdict:
    """Every weak saddle carries an equilibrium of the game, at its value.

    Each saddle's subgame equilibrium, embedded with zeros off the saddle,
    must pass `is_nash` in the full game. That certifies the value too, so
    the game's own LP is not solved: `is_nash` accepts (x, y) only if
    max_r (A y)_r == x^T A y == min_c (x^T A)_c == v, the subgame's value;
    x then guarantees the row player v and y holds it to v, so by the
    minimax theorem v is the game's value.
    """
    analysis = analyze(subject)
    game = analysis.game
    problems = []
    for saddle in minimal_saddles(analysis, DominanceMode.WEAK):
        pair = nash_equilibrium(game.subgame(saddle))
        embedded = embed_strategy(pair, saddle, game.rows, game.cols)
        if not is_nash(game, embedded):
            problems.append(
                f"equilibrium of saddle {saddle.row_set}x{saddle.col_set} "
                f"(subgame value {pair.value}) is not an equilibrium of the game"
            )
    return CheckVerdict(ok=not problems, violations=tuple(problems))


def check_min_size(subject: ZeroSumGame | GameAnalysis) -> CheckVerdict:
    """Under weak and under strict dominance, the saddles from the
    minimality filter are exactly the GSPs of fewest actions |R| + |C|, the
    ones `enumerate_saddles` answers with (see `solver`)."""
    analysis = analyze(subject)
    problems = []
    for mode in (DominanceMode.WEAK, DominanceMode.STRICT):
        filtered = minimal_saddles(analysis, mode).saddles
        smallest = enumerate_saddles(analysis, mode).saddles
        if filtered != smallest:
            problems.append(
                f"{mode.value}: saddles {_listed(filtered)} "
                f"but minimum-size GSPs {_listed(smallest)}"
            )
    return CheckVerdict(ok=not problems, violations=tuple(problems))


def _listed(products) -> str:
    return ", ".join(f"{p.row_set}x{p.col_set}" for p in products)


def _reindex_within(inner: tuple[int, ...], outer: tuple[int, ...]) -> tuple[int, ...]:
    position = {v: i for i, v in enumerate(outer)}
    return tuple(position[v] for v in inner)


def check_subgame_restriction(
    subject: ZeroSumGame | GameAnalysis, outer: ActionProduct, inner: ActionProduct
) -> CheckVerdict:
    """Does GSP-ness of `inner` transfer between the game and the `outer` subgame?

    Requires inner within outer and outer a weak GSP; checks that "inner is
    a weak GSP of the game" and "inner (reindexed) is a weak GSP of the
    subgame induced by outer" agree. Both sides are decided by the
    definitional `is_gsp`, never by the grids that picked the products.
    """
    game = analyze(subject).game
    if not outer.contains(inner):
        raise GameInputError("inner product must lie within the outer product")
    if not is_gsp(game, outer, DominanceMode.WEAK):
        raise GameInputError("outer product must be a weak GSP")
    in_game = is_gsp(game, inner, DominanceMode.WEAK)
    reindexed = ActionProduct(
        _reindex_within(inner.row_set, outer.row_set),
        _reindex_within(inner.col_set, outer.col_set),
    )
    in_subgame = is_gsp(game.subgame(outer), reindexed, DominanceMode.WEAK)
    if in_game == in_subgame:
        return CheckVerdict(ok=True)
    failure = (
        f"restriction biconditional failed for outer "
        f"{outer.row_set}x{outer.col_set}, inner {inner.row_set}x{inner.col_set}"
    )
    return CheckVerdict(ok=False, violations=(failure,))


# The checks a campaign runs when none are named. Confrontation uniqueness
# holds only on confrontation games, and the distinct-payoff check only on
# pairwise-distinct payoffs; TrialConfig refuses each on other generators.
DEFAULT_CHECKS: dict[GeneratorKind, tuple[CheckKind, ...]] = {
    GeneratorKind.UNIFORM_INT: (CheckKind.INTERCHANGEABILITY, CheckKind.STRICT_UNIQUE),
    GeneratorKind.DISTINCT_INT: (
        CheckKind.INTERCHANGEABILITY,
        CheckKind.STRICT_UNIQUE,
        CheckKind.DISTINCT_UNIQUE,
    ),
    GeneratorKind.CONFRONTATION: (CheckKind.CONFRONTATION_UNIQUE,),
    GeneratorKind.TOURNAMENT: (CheckKind.CONFRONTATION_UNIQUE,),
}


@dataclass(frozen=True)
class TrialConfig:
    """A seeded campaign: `trials` generated games, each run through `checks`.

    The generator's own seed field is ignored; trial t plays with
    `trial_seed(seed, t)` so trials can run in any order or in parallel.
    Every check builds saddle grids, so a shape over the grid budget is
    refused here, before any game is generated.
    """

    trials: int
    generator: GeneratorConfig
    checks: tuple[CheckKind, ...]
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise GameInputError("a campaign needs at least one trial")
        if not 0 <= self.seed <= SEED_MAX:
            raise GameInputError("seed must fit in 64 bits")
        check_grid_budget(self.generator.rows, self.generator.cols)
        normalized = tuple(k for k in CheckKind if k in self.checks)
        if not normalized:
            raise GameInputError("a campaign needs at least one check")
        object.__setattr__(self, "checks", normalized)
        confrontational = self.generator.kind in (
            GeneratorKind.CONFRONTATION,
            GeneratorKind.TOURNAMENT,
        )
        if CheckKind.CONFRONTATION_UNIQUE in normalized and not confrontational:
            raise GameInputError(
                "confrontation uniqueness needs a confrontation or tournament generator"
            )
        distinct = self.generator.kind is GeneratorKind.DISTINCT_INT
        if CheckKind.DISTINCT_UNIQUE in normalized and not distinct:
            raise GameInputError("distinct-payoff uniqueness needs the distinct generator")


@dataclass(frozen=True)
class FailureWitness:
    trial: int
    seed: int
    game_text: str
    detail: str


@dataclass(frozen=True)
class CheckOutcome:
    check: CheckKind
    passed: int
    failed: int
    first_failure: FailureWitness | None


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    trials: int
    generator: GeneratorConfig
    outcomes: tuple[CheckOutcome, ...]
    duration_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(o.failed == 0 for o in self.outcomes)

    def to_json_dict(self) -> dict:
        """Fixed-key-order dict; identical configs give identical dicts apart
        from duration_seconds."""
        checks = []
        for o in self.outcomes:
            failure = None
            if o.first_failure is not None:
                failure = {
                    "trial": o.first_failure.trial,
                    "seed": o.first_failure.seed,
                    "game": o.first_failure.game_text,
                    "detail": o.first_failure.detail,
                }
            checks.append(
                {
                    "check": o.check.value,
                    "pass": o.passed,
                    "fail": o.failed,
                    "first_failure": failure,
                }
            )
        return {
            "schema_version": "1",
            "seed": self.seed,
            "trials": self.trials,
            "generator": {
                "kind": self.generator.kind.value,
                "rows": self.generator.rows,
                "cols": self.generator.cols,
                "bound": self.generator.bound,
            },
            "checks": checks,
            "all_passed": self.all_passed,
            "duration_seconds": self.duration_seconds,
        }


def _sample_restriction_products(
    subject: ZeroSumGame | GameAnalysis, campaign_seed: int, trial: int
):
    """Deterministically pick a weak GSP, cell k of the weak GSP grid in mask
    order for k drawn from the cell count, and a product inside it."""
    from . import kernels

    analysis = analyze(subject)
    game = analysis.game
    rng = seeded_rng(campaign_seed, spawn_key=(trial, 1))
    cells = kernels.grid_cells(analysis.gsp_grid(DominanceMode.WEAK), game.cols)
    k = int(rng.integers(len(cells[0])))  # cells: (row masks, column masks)
    outer = masked_product(range(game.rows), range(game.cols), int(cells[0][k]), int(cells[1][k]))
    row_mask = int(rng.integers(1, 1 << len(outer.row_set)))
    col_mask = int(rng.integers(1, 1 << len(outer.col_set)))
    return outer, masked_product(outer.row_set, outer.col_set, row_mask, col_mask)


def _run_one_check(
    check: CheckKind, analysis: GameAnalysis, config: TrialConfig, trial: int
) -> CheckVerdict:
    if check is CheckKind.SUBGAME_RESTRICTION:
        outer, inner = _sample_restriction_products(analysis, config.seed, trial)
        return check_subgame_restriction(analysis, outer, inner)
    # Looked up per call, not at import: a patched or traced `check_*`
    # module attribute is the one that runs.
    run = {
        CheckKind.INTERCHANGEABILITY: check_interchangeability,
        CheckKind.STRICT_UNIQUE: check_strict_uniqueness,
        CheckKind.CONFRONTATION_UNIQUE: check_confrontation_uniqueness,
        CheckKind.DISTINCT_UNIQUE: check_distinct_uniqueness,
        CheckKind.NASH_CONSISTENCY: check_nash_consistency,
        CheckKind.MIN_SIZE: check_min_size,
    }[check]
    return run(analysis)


def _run_trial(args) -> tuple[int, list[tuple[CheckKind, bool, str]], str | None]:
    """(trial, (check, ok, detail) per check, the game's text if a check failed),
    where detail joins the verdict's violations with "; "."""
    # One analysis per trial: its checks share the tables and each mode's
    # grids, which go when the trial ends.
    config, trial = args
    game = generate(replace(config.generator, seed=trial_seed(config.seed, trial)))
    analysis = GameAnalysis(game)
    results = []
    for check in config.checks:
        verdict = _run_one_check(check, analysis, config, trial)
        results.append((check, verdict.ok, "; ".join(verdict.violations)))
    failed = not all(ok for _, ok, _ in results)
    return trial, results, game.to_text() if failed else None


# Trials per task handed to a pool worker. A bounded chunk keeps the results
# in flight, and so memory, independent of the trial count.
_MAX_CHUNK = 64


def _finished_trials(config: TrialConfig, jobs: int):
    """The `_run_trial` result of every trial in trial order, one at a time."""
    work = ((config, t) for t in range(config.trials))
    if jobs > 1 and config.trials > 1:
        # Imported here: a serial run, and every other command, never pays
        # for it.
        import multiprocessing

        chunk = max(1, min(_MAX_CHUNK, config.trials // (4 * jobs)))
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(_run_trial, work, chunksize=chunk)
    else:
        yield from map(_run_trial, work)


def run_trials(config: TrialConfig, jobs: int = 1) -> CampaignReport:
    """Run the campaign; the report does not depend on `jobs`.

    `jobs` below 1 raises GameInputError; above the CPU count it is capped
    there. Trials are tallied as they finish, in trial order, so memory does
    not grow with the trial count and the first failure is the serial one.
    """
    if jobs < 1:
        raise GameInputError(f"--jobs must be at least 1, got {jobs}")
    if jobs > 1:
        jobs = min(jobs, os.cpu_count() or 1)
    # Every trial needs numpy, for the grid engine and the generators' RNG.
    # Load both before the clock starts, so that duration_seconds holds no
    # import, and before a pool forks, so that no worker imports them again.
    from . import kernels  # noqa: F401
    import numpy.random  # noqa: F401

    start = time.perf_counter()
    passed = {check: 0 for check in config.checks}
    failed = {check: 0 for check in config.checks}
    first_failure: dict[CheckKind, FailureWitness] = {}
    for trial, results, game_text in _finished_trials(config, jobs):
        for check, ok, detail in results:
            if ok:
                passed[check] += 1
                continue
            failed[check] += 1
            if check not in first_failure:
                seed = trial_seed(config.seed, trial)
                first_failure[check] = FailureWitness(trial, seed, game_text, detail)

    outcomes = tuple(
        CheckOutcome(
            check=check,
            passed=passed[check],
            failed=failed[check],
            first_failure=first_failure.get(check),
        )
        for check in config.checks
    )
    return CampaignReport(
        seed=config.seed,
        trials=config.trials,
        generator=config.generator,
        outcomes=outcomes,
        duration_seconds=time.perf_counter() - start,
    )
