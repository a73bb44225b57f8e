"""Byte-stability of every game command: one SHA-256 over a fixed transcript.

Each entry is (game, command, mode, --json, exit code, stdout, stderr) for
`enumerate`, `find` and `check` in all three modes plus `strict`, `value`
and `nash`, in text and JSON, on the golden games, a rational-entry game,
the weak-strict counterexample, seeded uniform and confrontation games and
a malformed file. Games are named, never by their file path, so the digest
does not depend on where the files live.
"""

import hashlib
import json

from saddles.cli import main
from saddles.generators import GeneratorConfig, GeneratorKind, generate

from conftest import A1_ENTRIES, A2_ENTRIES, A3_ENTRIES, cloned_latin_square


def _text(rows):
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return f"{len(rows)} {len(rows[0])}\n{body}\n"


def _games():
    games = {
        "A1": _text(A1_ENTRIES),
        "A2": _text(A2_ENTRIES),
        "A3": _text(A3_ENTRIES),
        "rational": "2 3\n1/2 -7/3 2.5\n0 1 -1/4\n",
        "weak-strict": "2 2\n0 0\n0 1\n",
        "malformed": "2 2\n1 2 3\n",
    }
    shapes = [(1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
              (4, 3), (4, 4), (4, 5), (5, 5)]
    for i, (rows, cols) in enumerate(shapes):
        bound = 1 if i % 2 else 3
        config = GeneratorConfig(GeneratorKind.UNIFORM_INT, rows, cols, bound, 100 + i)
        games[f"uniform-{i}"] = generate(config).to_text()
    for n in range(1, 6):
        for bound in (1, 2):
            config = GeneratorConfig(GeneratorKind.CONFRONTATION, n, n, bound, 200 + n)
            games[f"confrontation-{n}-{bound}"] = generate(config).to_text()
    return games


_CALLS = [
    (command, mode)
    for command in ("enumerate", "find", "check")
    for mode in ("weak", "strict", "weak-strict")
] + [("strict", None), ("value", None), ("nash", None)]

TRANSCRIPT_DIGEST = "b25b6a3bcb5bf4c1abf6f546dcfc8799ca7f2f8739ab1aed59f43db6c2b0cb46"


def test_cli_transcript_digest(capsys, tmp_path):
    records = []
    for name, text in _games().items():
        path = tmp_path / f"{name}.game"
        path.write_text(text)
        for command, mode in _CALLS:
            for as_json in (False, True):
                argv = [command, str(path)]
                if mode is not None:
                    argv += ["--mode", mode]
                if as_json:
                    argv.append("--json")
                code = main(argv)
                captured = capsys.readouterr()
                records.append(
                    [name, command, mode, as_json, code, captured.out, captured.err]
                )
    assert len(records) == 28 * 24
    payload = json.dumps(records).encode()
    assert hashlib.sha256(payload).hexdigest() == TRANSCRIPT_DIGEST


# `check --json` on cloned_latin_square(k): 2^k saddles, one witness per pair.
MANY_SADDLES_CHECK_DIGESTS = {
    5: (496, "1853f7f897b0030860fe8aa53a5a728e635477a0a75e6b9048b2152c4961c923"),
    6: (2016, "7ac0af61aea78e456e803cb72611ccc561cca2b470dd129bf1fe2768935a6e13"),
}


def test_check_digest_on_many_saddles(capsys, tmp_path):
    # The transcript above pins the witnesses of small games only; this pins
    # every witness of games whose saddle pairs all tie on many witnesses.
    for k, (pairs, digest) in MANY_SADDLES_CHECK_DIGESTS.items():
        path = tmp_path / f"latin{k}.game"
        path.write_text(cloned_latin_square(k))
        assert main(["check", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["verdicts"]["witnesses"]) == pairs
        assert hashlib.sha256(out.encode()).hexdigest() == digest
