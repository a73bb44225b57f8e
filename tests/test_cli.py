import json
import multiprocessing
import os
import re

import pytest

from conftest import cloned_latin_square, planted_saddle_entry, run_probe
from saddles import PropertyViolationError, equilibrium, kernels, trial_seed, verify
from saddles.cli import build_parser, main
from saddles.report import ResultDocument, emit_result

A1_TEXT = "4 5\n2 1 0 1 2\n0 3 4 4 1\n0 2 2 1 2\n2 1 0 2 1\n"
A2_TEXT = "3 3\n0 0 0\n0 1 -1\n0 -1 1\n"


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.game"
    path.write_text(A1_TEXT)
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.game"
    path.write_text(A2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_text_labels(capsys, a1_file):
    code, out = run(capsys, "enumerate", a1_file)
    assert code == 0
    assert "{r1,r2} x {c1,c2,c3}" in out


def test_enumerate_json(capsys, a1_file):
    code, out = run(capsys, "enumerate", a1_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["saddles"] == [[[0, 1], [0, 1, 2]]]
    assert doc["mode"] == "weak"
    assert doc["schema_version"] == "1"


def test_find_and_strict(capsys, a2_file):
    code, out = run(capsys, "find", a2_file, "--json")
    assert code == 0 and json.loads(out)["saddles"] == [[[0], [0]]]
    code, out = run(capsys, "strict", a2_file, "--json")
    assert code == 0 and json.loads(out)["saddles"] == [[[0, 1, 2], [0, 1, 2]]]


def test_value_json(capsys, a2_file):
    code, out = run(capsys, "value", a2_file, "--json")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_value_fraction(capsys, a1_file):
    code, out = run(capsys, "value", a1_file, "--json")
    assert json.loads(out)["value"] == "4/3"


def test_nash_strategies_are_rational_strings(capsys, a1_file):
    code, out = run(capsys, "nash", a1_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "4/3"
    assert len(doc["strategies"]["row"]) == 4
    assert len(doc["strategies"]["col"]) == 5
    assert all(isinstance(tok, str) for tok in doc["strategies"]["row"])


def test_check_ok(capsys, a2_file):
    code, out = run(capsys, "check", a2_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdicts"]["interchangeability"] is True
    assert doc["verdicts"]["equivalence"] is True


def test_check_weak_strict_counterexample_exits_1(capsys, tmp_path):
    # Restriction of the 3x3 golden game to its first two rows and columns.
    path = tmp_path / "sub.game"
    path.write_text("2 2\n0 0\n0 1\n")
    code, out = run(capsys, "check", str(path), "--mode", "weak-strict", "--json")
    doc = json.loads(out)
    assert code == 1
    assert doc["verdicts"]["equivalence"] is False
    assert doc["verdicts"]["violations"]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(A2_TEXT))
    code, out = run(capsys, "value", "-", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.game"
    path.write_text("2 2\n1 2 3\n")
    code = main(["value", str(path)])
    assert code == 2


def test_missing_file_exit_code(capsys):
    assert main(["value", "/nonexistent/path.game"]) == 2


NOT_UTF8 = b"2 2\n1 2\n3 \xff\n"


@pytest.mark.parametrize("command", ["value", "enumerate"])
def test_non_utf8_file_exit_code(capsys, tmp_path, command):
    path = tmp_path / "latin.game"
    path.write_bytes(NOT_UTF8)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("not UTF-8 at byte offset 10\n")
    assert "Traceback" not in captured.err


def test_non_utf8_stdin_exit_code(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["value", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stdin: not UTF-8")
    assert "Traceback" not in captured.err


def _game_file(tmp_path, rows, cols, entry):
    path = tmp_path / f"{rows}x{cols}.game"
    body = "\n".join(
        " ".join(str(entry(r, c)) for c in range(cols)) for r in range(rows)
    )
    path.write_text(f"{rows} {cols}\n{body}\n")
    return str(path)


def test_capacity_error_exit_code(capsys, tmp_path):
    # The only shape budget is the grid's: 13 rows are fine, 31 actions are not.
    assert main(["enumerate", _game_file(tmp_path, 13, 2, lambda r, c: 1)]) == 0
    assert main(["enumerate", _game_file(tmp_path, 29, 2, lambda r, c: 1)]) == 2
    assert "2^31 bits" in capsys.readouterr().err


def _unreachable(*args):
    raise AssertionError("refused work was started")


@pytest.mark.parametrize(
    "command, rows, cols",
    [
        ("enumerate", 16, 15),
        ("strict", 16, 15),
        ("check", 16, 15),
        ("verify", 16, 15),
        ("enumerate", 13, 13),
    ],
)
def test_grid_budget_exit_code(capsys, monkeypatch, tmp_path, command, rows, cols):
    # Over 2^30 products every enumerating command exits 2 before any grid is
    # built, not with a traceback; 2^26 enumerates without any flag.
    over = rows + cols > 30
    if over:
        monkeypatch.setattr(kernels, "_gsp_grid", _unreachable)
    if command == "verify":
        argv = ["verify", "--trials", "1", "--rows", str(rows), "--cols", str(cols),
                "--gen", "uniform", "--seed", "1"]
    else:
        argv = [command, _game_file(tmp_path, rows, cols, lambda r, c: (r * c) % 7 - 3)]
    code = main(argv)
    captured = capsys.readouterr()
    if over:
        assert code == 2 and f"2^{rows + cols} bits" in captured.err
    else:
        assert code == 0 and "saddles (" in captured.out


@pytest.mark.parametrize("command", ["value", "nash"])
def test_lp_budget_exit_code(capsys, monkeypatch, tmp_path, command):
    # 2 x 2497 fills the LP budget (2 * (2 + 2497 + 1) = 5,000 tableau cells)
    # and is solved; one more column is refused before any tableau is built.
    assert main([command, _game_file(tmp_path, 2, 2497, lambda r, c: (r + c) % 3)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(equilibrium, "solve_packing_lp", _unreachable)
    assert main([command, _game_file(tmp_path, 2, 2498, lambda r, c: (r + c) % 3)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5002 tableau cells" in captured.err and "budget of 5000" in captured.err


@pytest.mark.parametrize("command", ["value", "nash"])
def test_lp_length_budget_exit_code(capsys, monkeypatch, tmp_path, command):
    # Two integer rows spanning 2^1022 (1 + 1023 bits each) fill the 2,048-bit
    # budget and are solved, and so is the longest campaign game: 29 rows at
    # the largest --bound (29 * 64 bits). A span of 2^1023, or a row whose
    # denominators' lcm passes the budget, is refused before any tableau is
    # built, the latter after only the lcms that took it there.
    at = 2**1022 - 1
    assert main([command, _game_file(tmp_path, 2, 2, lambda r, c: at * (r != c))]) == 0
    bound = 2**62 - 1
    assert main([command, _game_file(tmp_path, 29, 1, lambda r, c: bound * (-1) ** r)]) == 0
    capsys.readouterr()
    over = 2**1023 - 1
    monkeypatch.setattr(equilibrium, "solve_packing_lp", _unreachable)
    lcms = []
    lcm = equilibrium.lcm
    monkeypatch.setattr(equilibrium, "lcm", lambda *a: lcms.append(a) or lcm(*a))
    for path in (
        _game_file(tmp_path, 2, 2, lambda r, c: over * (r != c)),
        _game_file(tmp_path, 1, 100, lambda r, c: f"1/{2**200 + 2 * c + 1}"),
    ):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget of 2048 bits" in captured.err
    assert len(lcms) < 20


def test_check_pair_budget_exit_code(capsys, monkeypatch, tmp_path):
    # The cloned Latin square has 2^k saddles. At k = 7 its 8,128 pairs fit
    # the pair budget and every one is compared (here by a stub that finds no
    # witness, so the verdict fails); at k = 8 its 32,640 pairs are refused
    # before any pair is compared.
    compared = []
    monkeypatch.setattr(verify, "permutation_equivalent", lambda a, b: compared.append(a))
    path = tmp_path / "latin7.game"
    path.write_text(cloned_latin_square(7))
    assert main(["check", str(path)]) == 1
    assert len(compared) == 8128
    capsys.readouterr()
    monkeypatch.setattr(verify, "permutation_equivalent", _unreachable)
    path.write_text(cloned_latin_square(8))
    assert main(["check", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "256 saddles make 32640 pairs" in captured.err
    assert "budget of 8192 saddle pairs" in captured.err


def test_find_answers_past_the_grid_budget(capsys, monkeypatch, tmp_path):
    # `find` builds no grid, so a game that `enumerate` refuses still has
    # an answer.
    path = _game_file(tmp_path, 16, 16, planted_saddle_entry)
    monkeypatch.setattr(kernels, "_gsp_grid", _unreachable)
    assert main(["enumerate", path]) == 2
    assert "2^32 bits" in capsys.readouterr().err
    code, out = run(capsys, "find", path, "--json")
    assert code == 0 and json.loads(out)["saddles"] == [[[2], [5]]]


def test_memory_error_exit_code(capsys, monkeypatch, a1_file):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("saddles.cli.enumerate_saddles", exhausted)
    assert main(["enumerate", a1_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_import_does_not_load_multiprocessing():
    # Only `verify --jobs N` with N > 1 needs a process pool.
    probe = "import sys, saddles.cli; print('multiprocessing' in sys.modules)"
    assert run_probe(probe) == "False\n"


def test_import_does_not_load_numpy():
    # Only the grid engine and the generators need numpy, on first use.
    probe = "import sys, saddles, saddles.cli; print('numpy' in sys.modules)"
    assert run_probe(probe) == "False\n"


# Runs `main` on each argv of a JSON list in one fresh process; the last line
# of stdout holds (exit code, whether numpy is loaded) after each call.
MAIN_PROBE = """
import json, sys
from saddles.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    seen.append([code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def _numpy_after_each(*argvs):
    last_line = run_probe(MAIN_PROBE, json.dumps(argvs)).splitlines()[-1]
    return [tuple(row) for row in json.loads(last_line)]


def test_lp_commands_and_input_errors_do_not_load_numpy(tmp_path, a1_file):
    bad = tmp_path / "bad.game"
    bad.write_text("2 2\n1 2 3\n")
    latin = tmp_path / "latin.game"
    latin.write_bytes(NOT_UTF8)
    verify = ["verify", "--trials", "1", "--rows", "3", "--cols", "3", "--gen", "uniform",
              "--seed", "1"]
    # Over the grid budget: the walk's commands and the filter's alike.
    big = _game_file(tmp_path, 29, 2, lambda r, c: 1)
    seen = _numpy_after_each(
        ["value", a1_file],
        ["nash", a1_file, "--json"],
        ["enumerate", a1_file, "--mode", "nonsense"],
        ["enumerate", str(bad)],
        ["enumerate", str(latin)],
        verify + ["--bound", "0"],
        ["enumerate", big],
        ["strict", big],
        ["enumerate", big, "--mode", "weak-strict"],
        ["check", big],
    )
    assert seen == [(0, False), (0, False)] + [(2, False)] * 8


def test_enumerate_loads_numpy(a1_file):
    # The control: the probe does see numpy once the grid engine is used.
    assert _numpy_after_each(["enumerate", a1_file]) == [(0, True)]


def test_verify_loads_numpy_before_its_clock_starts():
    # Timed, the import would count in duration_seconds; loaded after a pool
    # forks, it would be imported again by every worker.
    probe = """
import sys, time, types
from saddles import cli, verify
def clock():
    print("saddles.kernels" in sys.modules and "numpy.random" in sys.modules)
    return time.perf_counter()
verify.time = types.SimpleNamespace(perf_counter=clock)
cli.main(["verify", "--trials", "1", "--rows", "2", "--cols", "2", "--gen", "uniform",
          "--seed", "1", "--json"])
"""
    assert run_probe(probe).splitlines()[0] == "True"


@pytest.mark.parametrize("command", ["value", "nash"])
def test_result_over_integer_string_limit_exit_code(capsys, tmp_path, command):
    # Two legal 4291-digit entries: the value 1/(1/a + 1/d) would have about
    # 8,580 digits, which str() of an int refuses to print, but the LP's
    # integer-length budget refuses the game before it is solved.
    big = "1" + "0" * 4289
    path = tmp_path / "huge.game"
    path.write_text(f"2 2\n{big}1 0\n0 {big}3\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digits" in captured.err and "Traceback" not in captured.err


def _outputs(capsys, argvs, fresh):
    # (exit code, stdout, stderr) of each call, with the campaign duration
    # blanked; usage errors exit through SystemExit, like any argparse program.
    results = []
    for argv in argvs:
        if fresh:
            build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = re.sub(r'"duration_seconds": [-+.e0-9]+', "", captured.out)
        results.append((code, out, captured.err))
    return results


def test_parser_is_built_once_and_reused(capsys, a1_file, a2_file):
    argvs = [
        ("enumerate", a1_file, "--json"),
        ("value", a2_file),
        ("find", a2_file, "--mode", "strict"),
        ("check", a1_file, "--json"),
        ("strict", a2_file),
        ("enumerate", a1_file, "--mode", "nonsense"),
        ("value",),
        ("verify", "--trials", "2", "--rows", "3", "--cols", "3", "--gen", "uniform",
         "--seed", "1", "--json"),
        ("frobnicate", a1_file),
    ]
    fresh = _outputs(capsys, argvs, fresh=True)
    build_parser.cache_clear()
    shared = _outputs(capsys, argvs, fresh=False)
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2, 0, 2]
    assert "usage: saddles" in shared[-1][2]


def test_verify_json_deterministic(capsys):
    argv = [
        "verify", "--trials", "10", "--rows", "4", "--cols", "4",
        "--gen", "uniform", "--bound", "3", "--seed", "5", "--json",
    ]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("duration_seconds")
    doc2.pop("duration_seconds")
    assert doc1 == doc2


def test_verify_rejects_jobs_below_one(capsys):
    code = main(
        ["verify", "--trials", "2", "--rows", "3", "--cols", "3",
         "--gen", "uniform", "--seed", "1", "--jobs", "0"]
    )
    assert code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_verify_jobs_capped_at_cpu_count(capsys, monkeypatch):
    requested = []
    real_pool = multiprocessing.Pool

    def recording_pool(processes=None, *args, **kwargs):
        requested.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    argv = [
        "verify", "--trials", "6", "--rows", "3", "--cols", "3",
        "--gen", "uniform", "--bound", "2", "--seed", "9", "--json",
    ]
    code1, out1 = run(capsys, *argv, "--jobs", "1")
    code64, out64 = run(capsys, *argv, "--jobs", "64")
    assert code1 == code64 == 0
    assert all(n <= (os.cpu_count() or 1) for n in requested)
    doc1, doc64 = json.loads(out1), json.loads(out64)
    doc1.pop("duration_seconds")
    doc64.pop("duration_seconds")
    assert doc1 == doc64


def test_verify_text_output(capsys):
    code, out = run(
        capsys,
        "verify", "--trials", "5", "--rows", "4", "--cols", "4",
        "--gen", "tournament", "--bound", "1", "--seed", "3",
    )
    assert code == 0
    assert "confrontation_unique: 5 passed, 0 failed" in out
    assert "all checks passed" in out


def test_verify_text_report_of_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_strict_uniqueness", lambda analysis: False)
    code, out = run(
        capsys,
        "verify", "--trials", "3", "--rows", "3", "--cols", "3",
        "--gen", "uniform", "--seed", "5", "--checks", "strict_unique",
    )
    assert code == 1
    assert "strict_unique: 0 passed, 3 failed" in out
    assert f"    first failure: trial 0 (seed {trial_seed(5, 0)})\n" in out
    assert "    strict saddle not unique\n" in out
    assert "VIOLATIONS FOUND (" in out


def test_property_violation_exit_code(capsys, monkeypatch, a2_file):
    def two_saddles(game):
        raise PropertyViolationError("two strict saddles")

    monkeypatch.setattr("saddles.cli.strict_saddle", two_saddles)
    assert main(["strict", a2_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "property violation: two strict saddles\n"


def test_verify_bad_check_token(capsys):
    code = main(
        [
            "verify", "--trials", "2", "--rows", "3", "--cols", "3",
            "--gen", "uniform", "--seed", "1", "--checks", "bogus",
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--bound", "100000000000000000000", "entry bound must be in"),
        ("--bound", str(2**62), "entry bound must be in"),
        ("--seed", "-1", "seed must fit in 64 bits"),
        ("--seed", str(2**64), "seed must fit in 64 bits"),
    ],
)
def test_verify_out_of_range_bound_or_seed_exits_2(capsys, flag, value, message):
    # Both used to reach numpy and end in a ValueError traceback.
    argv = {"--trials": "1", "--rows": "3", "--cols": "3", "--gen": "uniform", "--seed": "1"}
    argv[flag] = value
    code = main(["verify", *(token for pair in argv.items() for token in pair)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_verify_largest_bound_runs(capsys):
    code, out = run(
        capsys,
        "verify", "--trials", "3", "--rows", "3", "--cols", "3",
        "--gen", "uniform", "--bound", str(2**62 - 1), "--seed", "1",
    )
    assert code == 0 and "all checks passed" in out


def test_verify_refuses_shape_over_guard_before_generating(capsys, monkeypatch):
    def never(config):
        raise AssertionError("a game was generated")

    monkeypatch.setattr("saddles.verify.generate", never)
    code = main(
        ["verify", "--trials", "1", "--rows", "1000", "--cols", "1000",
         "--gen", "uniform", "--seed", "1", "--checks", "strict_unique"]
    )
    assert code == 2
    assert "2^2000 bits" in capsys.readouterr().err


def test_emit_empty_document_has_empty_arrays():
    doc = json.loads(emit_result(ResultDocument(), "json"))
    assert doc["saddles"] == []
    assert doc["verdicts"] == {}
    assert doc["value"] is None


def test_emit_text_value():
    doc = ResultDocument(game_digest="abc123", value="4/3")
    text = emit_result(doc, "text")
    assert "value: 4/3" in text


def test_json_output_byte_identical(capsys, a1_file):
    _, out1 = run(capsys, "check", a1_file, "--json")
    _, out2 = run(capsys, "check", a1_file, "--json")
    assert out1 == out2
