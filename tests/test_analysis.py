"""One analysis per game: the same answers from a `GameAnalysis` as from the
bare game, each table and grid built once per trial, and campaign reports
unchanged."""

import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_gsps
from oracles import brute_is_gsp, brute_saddles
from saddles import (
    ActionProduct,
    CheckKind,
    DominanceMode,
    GameAnalysis,
    GameInputError,
    GeneratorConfig,
    GeneratorKind,
    TrialConfig,
    check_confrontation_uniqueness,
    check_distinct_uniqueness,
    check_interchangeability,
    check_nash_consistency,
    check_strict_uniqueness,
    check_subgame_restriction,
    enumerate_saddles,
    new_game,
    run_trials,
    strict_saddle,
)
from saddles import kernels

ORACLE_NAMES = {
    DominanceMode.WEAK: "weak",
    DominanceMode.STRICT: "strict",
    DominanceMode.WEAK_REQUIRE_STRICT: "weak-strict",
}
# Bound 0 (every entry tied), bound 1 (tie-heavy), and non-integer rationals.
PALETTES = (
    ("0",),
    ("-1", "0", "1"),
    ("1/3", "-2.5", "0", "-1", "1"),
)
CAMPAIGN_CHECKS = (
    CheckKind.INTERCHANGEABILITY,
    CheckKind.STRICT_UNIQUE,
    CheckKind.SUBGAME_RESTRICTION,
    CheckKind.NASH_CONSISTENCY,
)


@st.composite
def palette_games(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    palette = draw(st.sampled_from(PALETTES))
    flat = draw(st.lists(st.sampled_from(palette), min_size=rows * cols, max_size=rows * cols))
    return new_game(rows, cols, flat)


def _pairs(products):
    return [(p.row_set, p.col_set) for p in products]


def _same(call, analysis, game):
    """call(analysis) == call(game), raised errors included; returns the
    analysis's answer."""
    try:
        expected = call(game)
    except GameInputError as exc:
        with pytest.raises(GameInputError, match=re.escape(str(exc))):
            call(analysis)
        return None
    assert call(analysis) == expected
    return expected


@settings(max_examples=120, deadline=None)
@given(palette_games(), st.integers(0, 2**16))
def test_analysis_matches_bare_game_and_oracles(game, pick):
    analysis = GameAnalysis(game)
    entries = game.entries
    for mode, name in ORACLE_NAMES.items():
        saddles = _same(lambda g: enumerate_saddles(g, mode), analysis, game)
        assert _pairs(saddles) == brute_saddles(entries, name)
        assert sorted(_pairs(grid_gsps(analysis, mode))) == sorted(
            (rows, cols)
            for rows in _subsets(game.rows)
            for cols in _subsets(game.cols)
            if brute_is_gsp(entries, rows, cols, name)
        )
        verdict = _same(lambda g: check_interchangeability(g, mode), analysis, game)
        assert verdict.saddles == saddles
    (strict,) = brute_saddles(entries, "strict")
    assert _pairs([_same(strict_saddle, analysis, game)]) == [strict]
    assert _same(check_strict_uniqueness, analysis, game).ok
    _same(check_distinct_uniqueness, analysis, game)
    _same(check_confrontation_uniqueness, analysis, game)
    assert _same(check_nash_consistency, analysis, game).ok
    weak_gsps = grid_gsps(analysis, DominanceMode.WEAK)
    outer = weak_gsps[pick % len(weak_gsps)]
    inner = ActionProduct(outer.row_set[:1], outer.col_set[-1:])
    assert _same(lambda g: check_subgame_restriction(g, outer, inner), analysis, game).ok


def _subsets(n):
    return [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
    ]


def test_confrontation_check_on_an_analysis():
    game = new_game(3, 3, [0, 1, -1, -1, 0, 1, 1, -1, 0])
    assert check_confrontation_uniqueness(GameAnalysis(game)).ok
    assert check_confrontation_uniqueness(game).ok


def test_one_trial_builds_tables_once_and_each_grid_once(monkeypatch):
    calls = Counter()
    tables, saddle_grids = kernels.dominance_mask_tables, kernels.saddle_grids
    minimal_grid, grid_cells = kernels.minimal_grid, kernels.grid_cells
    # Each packed grid built in the trial, by id, kept alive with its name
    # ("gsp" or "minimal", mode), so a grid_cells call is counted by the grid
    # it reads.
    grids = {}

    def counted_tables(game, dtype):
        calls[("dominance_mask_tables", dtype)] += 1
        return tables(game, dtype)

    def counted_saddle_grids(game, mode, *args):
        calls[("saddle_grids", mode)] += 1
        gsp = saddle_grids(game, mode, *args)
        grids[id(gsp)] = (gsp, ("gsp", mode))
        return gsp

    def named_minimal_grid(gsp, bits):
        minimal = minimal_grid(gsp, bits)
        grids[id(minimal)] = (minimal, ("minimal", grids[id(gsp)][1][1]))
        return minimal

    def counted_grid_cells(words, cols):
        calls[("grid_cells",) + grids[id(words)][1]] += 1
        return grid_cells(words, cols)

    monkeypatch.setattr(kernels, "dominance_mask_tables", counted_tables)
    monkeypatch.setattr(kernels, "saddle_grids", counted_saddle_grids)
    monkeypatch.setattr(kernels, "minimal_grid", named_minimal_grid)
    monkeypatch.setattr(kernels, "grid_cells", counted_grid_cells)
    config = TrialConfig(
        trials=1,
        generator=GeneratorConfig(GeneratorKind.UNIFORM_INT, 5, 5, 1, 0),
        checks=CAMPAIGN_CHECKS,
        seed=3,
    )
    assert run_trials(config).all_passed
    assert calls == {
        ("dominance_mask_tables", np.int32): 1,
        ("saddle_grids", DominanceMode.WEAK): 1,
        ("saddle_grids", DominanceMode.STRICT): 1,
        # The weak saddles, read once for interchangeability and the Nash
        # check; the strict ones for uniqueness.
        ("grid_cells", "minimal", DominanceMode.WEAK): 1,
        ("grid_cells", "minimal", DominanceMode.STRICT): 1,
        # The weak GSP grid's cells, for the restriction check's sample.
        ("grid_cells", "gsp", DominanceMode.WEAK): 1,
    }


def test_analysis_memoizes_per_mode(a3):
    analysis = GameAnalysis(a3)
    weak = analysis.gsp_grid(DominanceMode.WEAK)
    assert analysis.gsp_grid(DominanceMode.WEAK) is weak
    assert analysis.gsp_grid(DominanceMode.STRICT) is not weak
    saddles = analysis.minimal_saddles(DominanceMode.WEAK)
    assert analysis.minimal_saddles(DominanceMode.WEAK) is saddles
    assert analysis.minimal_saddles(DominanceMode.STRICT) is not saddles
    assert analysis.gsp_grid(DominanceMode.WEAK) is weak
    assert analysis.tables is analysis.tables


# The six checks the digests below were recorded with; `min_size` came
# later and has a test of its own in test_verify.py.
_ALL_CHECKS = tuple(k for k in CheckKind if k is not CheckKind.MIN_SIZE)
_DISTINCT_CHECKS = tuple(k for k in _ALL_CHECKS if k is not CheckKind.CONFRONTATION_UNIQUE)
_CONFRONTATION_CHECKS = tuple(k for k in _ALL_CHECKS if k is not CheckKind.DISTINCT_UNIQUE)
_UNIFORM_CHECKS = tuple(k for k in _DISTINCT_CHECKS if k in _CONFRONTATION_CHECKS)
# (kind, rows, cols, bound, checks): each generator with every one of those
# checks that its campaigns accept, at bounds 1 and 3. The distinct
# generator needs 2*bound + 1 distinct values, hence its small shapes.
REPORT_CONFIGS = (
    (GeneratorKind.UNIFORM_INT, 4, 4, 1, _UNIFORM_CHECKS),
    (GeneratorKind.UNIFORM_INT, 4, 4, 3, _UNIFORM_CHECKS),
    (GeneratorKind.DISTINCT_INT, 1, 3, 1, _DISTINCT_CHECKS),
    (GeneratorKind.DISTINCT_INT, 2, 3, 3, _DISTINCT_CHECKS),
    (GeneratorKind.CONFRONTATION, 4, 4, 1, _CONFRONTATION_CHECKS),
    (GeneratorKind.CONFRONTATION, 4, 4, 3, _CONFRONTATION_CHECKS),
    (GeneratorKind.TOURNAMENT, 4, 4, 1, _CONFRONTATION_CHECKS),
    (GeneratorKind.TOURNAMENT, 4, 4, 3, _CONFRONTATION_CHECKS),
)
# SHA-256 of each 300-trial report without duration_seconds, recorded before
# the checks shared one analysis per trial, when campaigns still ran
# distinct_unique on tied games and failed it there. The uniform,
# confrontation and tournament digests are those reports with the
# distinct_unique entry removed and all_passed recomputed. Every check
# passes on every trial.
REPORT_DIGESTS = (
    "97e29042ef5a4631db88417fb7fb2e733871cbd71b78a3c11066e7d9af0c75b8",
    "48ccc3261d414cd9a6fde50b03adfcb542ac7f56ba6cbf169dbc4151b3db8ed8",
    "0264d64a56941e5f7a231b673de097dcf9a61affa255020c75b83392b0bc6cc1",
    "9be3c6f3542c77251a0eb1170f57cf7a0ec455c472655aa31d470f32d142f373",
    "64d2c95107d7fb5cbc1ff30e19a7278bf1d852be2910ff7de88feb9d37142839",
    "c10c45ee9e19f825a078650752d05c08ad92b32babe953bf5a2682562ab6a02a",
    "cfbc625df65cb6fbfc86e52d9e0ed9442a7579943c111565ea4ecc31ed6c1f7f",
    "e564ca3110222dbdb556975b9659e2460c01bc378e01da94b113b8a1d253b063",
)


def report_digest(kind, rows, cols, bound, checks, jobs):
    config = TrialConfig(
        trials=300,
        generator=GeneratorConfig(kind, rows, cols, bound, 0),
        checks=checks,
        seed=1000 + bound,
    )
    doc = run_trials(config, jobs=jobs).to_json_dict()
    doc.pop("duration_seconds")
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "config, digest",
    list(zip(REPORT_CONFIGS, REPORT_DIGESTS)),
    ids=[f"{kind.value}-bound{bound}" for kind, _, _, bound, _ in REPORT_CONFIGS],
)
def test_campaign_report_digests(config, digest, jobs):
    assert report_digest(*config, jobs) == digest
