"""Weak and strict saddles of finite two-player zero-sum games.

Exact-rational analysis of matrix games: dominance relations, generalized
saddle points and their inclusion-minimal saddles, exact LP game values and
Nash equilibria, plus a verification harness that machine-checks the
interchangeability/equivalence guarantees of weak saddles on golden and
seeded random instances.
"""

from .dominance import (
    DominanceMode,
    DominanceWitness,
    col_dominates,
    iterated_elimination,
    row_dominates,
    set_dominates_cols,
    set_dominates_rows,
)
from .equilibrium import (
    MixedStrategyPair,
    PureSaddlePoint,
    embed_strategy,
    game_value,
    is_nash,
    nash_equilibrium,
    pure_saddle_points,
)
from .errors import CapacityError, GameInputError, PropertyViolationError
from .game import (
    ActionProduct,
    ZeroSumGame,
    format_rational,
    new_game,
    parse_rational,
)
from .gamefile import GameParseError, parse_game
from .generators import GeneratorConfig, GeneratorKind, generate, trial_seed
from .report import ResultDocument, emit_result
from .solver import (
    GameAnalysis,
    PermutationWitness,
    SaddleSet,
    enumerate_saddles,
    find_saddle,
    is_gsp,
    minimal_saddles,
    permutation_equivalent,
    strict_saddle,
)
from .verify import (
    CampaignReport,
    CheckKind,
    CheckVerdict,
    InterchangeabilityVerdict,
    TrialConfig,
    check_confrontation_uniqueness,
    check_distinct_uniqueness,
    check_min_size,
    check_subgame_restriction,
    check_nash_consistency,
    check_strict_uniqueness,
    check_interchangeability,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "ActionProduct",
    "CampaignReport",
    "CapacityError",
    "CheckKind",
    "CheckVerdict",
    "DominanceMode",
    "DominanceWitness",
    "GameAnalysis",
    "GameInputError",
    "GameParseError",
    "GeneratorConfig",
    "GeneratorKind",
    "MixedStrategyPair",
    "PermutationWitness",
    "PropertyViolationError",
    "PureSaddlePoint",
    "ResultDocument",
    "SaddleSet",
    "InterchangeabilityVerdict",
    "TrialConfig",
    "ZeroSumGame",
    "check_confrontation_uniqueness",
    "check_distinct_uniqueness",
    "check_min_size",
    "check_subgame_restriction",
    "check_nash_consistency",
    "check_strict_uniqueness",
    "check_interchangeability",
    "col_dominates",
    "embed_strategy",
    "emit_result",
    "enumerate_saddles",
    "find_saddle",
    "format_rational",
    "game_value",
    "generate",
    "is_gsp",
    "is_nash",
    "iterated_elimination",
    "minimal_saddles",
    "nash_equilibrium",
    "new_game",
    "parse_game",
    "parse_rational",
    "permutation_equivalent",
    "pure_saddle_points",
    "row_dominates",
    "run_trials",
    "set_dominates_cols",
    "set_dominates_rows",
    "strict_saddle",
    "trial_seed",
]
