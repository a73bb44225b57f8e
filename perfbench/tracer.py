"""Spans around the public functions of each `saddles` module.

The tracer lives in the benchmark, not in the program: `install` replaces
each target function at every `saddles.*` module attribute bound to the same
function object, so calls through `from ... import` bindings are seen too.
Spans (name, parent, operation, start, end) stay in memory until the run
writes them out. A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Public functions per layer (module). Hot leaf predicates such as
# `kernels.mask_dominates` (about 50 000 calls per find operation) and the
# `ActionProduct` constructor are left out: a span around each call would
# cost more than the call and swamp the trace.
TARGETS = {
    "cli": ("main",),
    "gamefile": ("parse_game",),
    "report": ("emit_result",),
    "generators": ("generate",),
    "game": ("new_game", "parse_rational", "ZeroSumGame.subgame", "ZeroSumGame.digest"),
    "dominance": (
        "row_dominates",
        "col_dominates",
        "set_dominates_rows",
        "set_dominates_cols",
    ),
    "kernels": ("dominance_mask_tables", "saddle_grids"),
    "solver": (
        "enumerate_saddles",
        "all_gsps",
        "strict_saddle",
        "find_saddle",
        "is_gsp",
        "iterated_elimination",
        "permutation_equivalent",
    ),
    "equilibrium": (
        "pure_saddle_points",
        "game_value",
        "nash_equilibrium",
        "is_nash",
        "embed_strategy",
    ),
    "simplex": ("solve_standard_max",),
    "verify": (
        "run_trials",
        "check_interchangeability",
        "check_strict_uniqueness",
        "check_subgame_restriction",
        "check_nash_consistency",
    ),
}


def _grid_probe(args, kwargs):
    game, mode = args[0], args[1] if len(args) > 1 else kwargs.get("mode_code")
    return (game.entries, mode), 1 << (game.rows + game.cols)


def _tables_probe(args, kwargs):
    return (args[0].entries,), 0


def _tableau_probe(args, kwargs):
    c, _, b = args[:3]
    return None, len(b) * (len(c) + len(b) + 1)


# Per-call facts recorded with the span: a key for repeat ratios (calls per
# distinct (game, mode) within an operation) and a cell count.
PROBES = {
    "kernels.saddle_grids": _grid_probe,
    "kernels.dominance_mask_tables": _tables_probe,
    "simplex.solve_standard_max": _tableau_probe,
}

_START, _END = 3, 4


def target_names() -> list[str]:
    return [f"{module}.{qual}" for module, quals in TARGETS.items() for qual in quals]


class Tracer:
    """Spans of the target functions; `install` and `uninstall` swap the
    wrappers in and out, so untraced and traced operations can alternate."""

    def __init__(self):
        self.names = target_names()
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name index, parent span, op, start, end, probe]
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "saddles"]
        for idx, name in enumerate(self.names):
            module_name, qual = name.split(".", 1)
            owner = sys.modules.get(f"saddles.{module_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original, PROBES.get(name))
            if path:  # a method: patch the class attribute
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module in package:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrap(self, idx, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            facts = None
            if probe is not None:
                try:
                    facts = probe(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    facts = None  # a changed signature loses the facts, not the span
            rec = [idx, stack[-1] if stack else -1, self.op, 0.0, 0.0, facts]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "absent": self.absent,
            "fields": ["name", "parent", "op", "start_s", "end_s"],
            "spans": [rec[:5] for rec in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))

    def summarize(self, ops: int, op_seconds: float) -> dict[str, float]:
        """Per-operation self time and calls of every target, plus the
        repeat ratios, cell counts and the share of time no span covers."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child_s[rec[1]] += rec[_END] - rec[_START]
        covered = 0.0
        keys = defaultdict(set)
        cells = defaultdict(int)
        for i, rec in enumerate(self.spans):
            duration = rec[_END] - rec[_START]
            self_s[rec[0]] += duration - child_s[i]
            calls[rec[0]] += 1
            if rec[1] < 0:
                covered += duration
            if rec[5] is not None:
                key, n = rec[5]
                name = self.names[rec[0]]
                cells[name] += n
                if key is not None:
                    keys[name].add((rec[2],) + key)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_ms"] = self_s[i] * 1e3 / ops
            out[f"{name}.calls"] = calls[i] / ops
        for name in ("kernels.saddle_grids", "kernels.dominance_mask_tables"):
            distinct = len(keys[name])
            out[f"{name}.repeat_ratio"] = calls[self.names.index(name)] / distinct if distinct else 0.0
        out["kernels.saddle_grids.cells"] = cells["kernels.saddle_grids"] / ops
        out["simplex.solve_standard_max.cells"] = cells["simplex.solve_standard_max"] / ops
        out["trace.unattributed_share"] = max(0.0, 1.0 - covered / op_seconds)
        return out
