"""Byte-level regression of the exact dominance layer and `find_saddle`.

For each seeded game and each dominance mode, every answer of the public
dominance functions is written into one canonical text and hashed:

* `row_dominates` / `col_dominates` over all action pairs, for two
  restrictions each (all opponent actions and the even-indexed ones);
* the `set_dominates_rows` / `set_dominates_cols` witness mapping (or its
  absence) for every nonempty dominating set against its complement, under
  both restrictions;
* `iterated_elimination` and `find_saddle`.

The digests were recorded from the implementation that wrote the row and
column rules out separately, so any drift in the shared implementation shows.
"""

import hashlib
import itertools

import pytest

from saddles import (
    DominanceMode,
    GeneratorConfig,
    GeneratorKind,
    col_dominates,
    find_saddle,
    generate,
    iterated_elimination,
    new_game,
    row_dominates,
    set_dominates_cols,
    set_dominates_rows,
    trial_seed,
)

MODES = (DominanceMode.WEAK, DominanceMode.STRICT, DominanceMode.WEAK_REQUIRE_STRICT)

RATIONAL_GAME = new_game(
    3, 4, ["1/3", "-2.5", "0", "1/3", "-2.5", "1/3", "1/3", "0", "0", "-2.5", "1/3", "-1/3"]
)


def _game(kind, rows, cols, bound, trial):
    return generate(GeneratorConfig(kind, rows, cols, bound, trial_seed(23, trial)))


def _restrictions(count):
    return (tuple(range(count)), tuple(range(0, count, 2)))


def _witness(found):
    return None if found is None else sorted(found.mapping.items())


def _transcript(game, mode):
    lines = []
    sides = (
        ("row", game.rows, game.cols, row_dominates, set_dominates_rows),
        ("col", game.cols, game.rows, col_dominates, set_dominates_cols),
    )
    for name, own, opp, pair, group in sides:
        for restriction in _restrictions(opp):
            bits = "".join(
                "1" if pair(game, a1, a2, restriction, mode) else "0"
                for a1 in range(own)
                for a2 in range(own)
            )
            lines.append(f"{name} {restriction} {bits}")
            for k in range(1, own + 1):
                for dominating in itertools.combinations(range(own), k):
                    dominated = [a for a in range(own) if a not in dominating]
                    found = group(game, dominating, dominated, restriction, mode)
                    lines.append(f"{name}-set {dominating} {_witness(found)}")
    for label, product in (
        ("elimination", iterated_elimination(game, mode)),
        ("find", find_saddle(game, mode)),
    ):
        lines.append(f"{label} {product.row_set} {product.col_set}")
    return "\n".join(lines).encode()


U, T, C, D = (
    GeneratorKind.UNIFORM_INT,
    GeneratorKind.TOURNAMENT,
    GeneratorKind.CONFRONTATION,
    GeneratorKind.DISTINCT_INT,
)

# (kind, rows, cols, bound, trial), or None for RATIONAL_GAME, with the
# SHA-256 of its weak, strict and weak-strict transcripts.
CASES = [
    ((U, 1, 1, 1, 0), (
        "469ebfa745b134db1cbca0cb575316cad0b650001fa2793ee1e385afad0676fa",
        "d0c6e11ba3cafb14ed3ec4ffb3549595ff44353693c7f3496998f39d0e0958ae",
        "d0c6e11ba3cafb14ed3ec4ffb3549595ff44353693c7f3496998f39d0e0958ae",
    )),
    ((U, 1, 4, 1, 1), (
        "a07f4143d0bf65a6169eee6d42783268a57ce5832e7a3399bd8e1af16dfcab1d",
        "647252d1bcb045ae0a74bc0e71a3c2d29be5432cb9f89f431dde7ba4b6ac2c9e",
        "647252d1bcb045ae0a74bc0e71a3c2d29be5432cb9f89f431dde7ba4b6ac2c9e",
    )),
    ((U, 4, 1, 1, 2), (
        "794c96017663b30158e2ec3333a0a00f5c4051efcc1ec0163d135b2a05d20432",
        "509397d06d4ad3592320187919f7b571bc30e35947116c22047cb107afd5f5ef",
        "509397d06d4ad3592320187919f7b571bc30e35947116c22047cb107afd5f5ef",
    )),
    ((U, 2, 3, 1, 3), (
        "662f7550eb8ddf35d3f78803b4fdbbf9571903a32d5bfc649e948696ec5916e8",
        "2152c4f4c6080703a21810c996ffa6119fdd752dd843ee1e5f099c96a67692b0",
        "2dac2f99e073ae0b0b61297218b7dbf2451dc0a267d0ef5a434cf789cc24a580",
    )),
    ((U, 3, 2, 3, 4), (
        "184b1e7515ebefeac874609f58fcdb024724a61861857e32b3acbc52018362b3",
        "9a4c0c3fbc56f6db6317e9f4f70a4e5677f71698a89bfe85e066f4f2f1cb21a4",
        "a1c2265185e3765047ea604ba1f637fa368acdc8008a16137ae6a69cb5275d6d",
    )),
    ((U, 3, 3, 1, 5), (
        "a6aaf30832c78431c4a8b2f1f931b67efa3366e7c413f4fe39d377ccfd792fb1",
        "c0bb9e3d7153b613080adc2c60fa7b5f1ab45ff38eb21668e4254469dfecf91e",
        "11778a0b38cb05383fe5cd6c61df928edd37a961f93e39edc8fdaae1a56965a0",
    )),
    ((U, 4, 4, 1, 6), (
        "479f46e164c091309b98654474ffc3329739b955f0d3d21f99377ccbeba6916b",
        "fdbddd768c66a8e3539d85538847ae070a5ac0acaa572369a39fac57897ddd77",
        "1281a6b9f870611023f859c1aa836bc051c81537f7040ad2db1e6eee6b1b3c4c",
    )),
    ((U, 4, 5, 3, 7), (
        "35367ae5e3df62cc78d706cbc430dda6c9610da723463a22f783778380d3ce60",
        "ab617f0488efa879d36581dc9f0ec8831a6e29ae0625f4fac1198a19506d5a90",
        "55d95c49d93e497127af29444afec2a0dbb606ab223e52359d8041b696bfc1dd",
    )),
    ((U, 5, 4, 1, 8), (
        "1c8e093d2ca1d5103cb67659a4b00ecfdc7ad80ab9a9a7c20a8d9730346872d9",
        "0d2c16f370f7345588cf81ee040e16e6f4b9bd3d15466cc5164c5c8d1d83ec78",
        "0f3482e1821f799331bf76bc20d72e2c223ab4c0b02ab86fbeaeb471da81ede2",
    )),
    ((U, 5, 5, 1, 9), (
        "e73474fea8f8184c0479783202c5525b361c82a64b222bb810182f83d63d2a61",
        "5faa45e81cae9b9daf9e2177a220335be56990274c86c82fba10b4c3ca9a24c2",
        "e9ab449bd31a07e4deff155259f6a01971b16ec363b1081069d0dd784a1605a1",
    )),
    ((U, 5, 5, 3, 10), (
        "372e2c3b60197a39f5161794331654a8c24b2c8604734223e24913a529de484a",
        "b2354154046ed336c374ec35a0d26fc7d5bfad0870ade3d0de2b2f071003b9df",
        "349219fddefa4ede011582468879fce3364ec76408e9dfa858076ac1f54fbc7c",
    )),
    ((U, 6, 6, 1, 11), (
        "2ab7afd223abdf91e9f174717c4939d282eb57417597d9947065ee877c4bf13b",
        "487c8325c8795cd2b57a581c940321595de5925ec4f69488041ee29126bed3a5",
        "aa0b7b0074bf628f5f13282f2cf965750d17b8c2721b835c8c6cd7121616e399",
    )),
    ((U, 6, 6, 3, 12), (
        "6361c4ec49ddb9756a7410be89a5b9777622d237d6630fae7edd7027890f6a70",
        "b4fd6d7cf26f5137bac13daf6e6fa9a48b26db38e91ea82c40c71b27bf4e1e55",
        "3faa9097dda6f2de8153d0c177e128362751e1d5103fd8b3b0e3a29590213f26",
    )),
    ((U, 6, 5, 2, 13), (
        "9efec481f6b261dba2388de41f8e2950f54360f293ecd1e1e047a76be28f2cfe",
        "8fa9869d1538e03e763f6a98e17c92de5d12f253f28ca6a6f17a47ff68a789c2",
        "ba48abc1a18b6eb57badbcf5522f1d70d7fcdadb92fda91501bac57bcc7d9cf9",
    )),
    ((T, 5, 5, 1, 14), (
        "ce796ea37c4d6019806b4e69d501e7a8698cbacc9f89df2b68137817716ca429",
        "7912f4e917790b7e997d41ab8cc040fd76fedf0fd905b5f45133d0722902e4ca",
        "caee0653370c920d4451f941041f365758851a5af9806d8f95bbb50e496ddb22",
    )),
    ((T, 6, 6, 1, 15), (
        "ed30b585805a4b4375583ff4c8c934edf2b19285a4a686aaa49ce199a8852252",
        "fdc6cab4f1f28d2808301d448fea96b85eaa375d9281248b45bcfe4deea423d4",
        "5ab1d0086d91f5983b41c59fd9f06ccda221ea6880cf7da4cc049db66b3e2efc",
    )),
    ((C, 4, 4, 1, 16), (
        "6711c610e0f4f1be8915941146c6fbe9e1cbcb0e9bda8b9fbcd34f203b84b629",
        "f97847742ff1acfc20ef11cbfcf2f14fe7df536db3559adec58740d380a73421",
        "81a0a38fe3975e83464fd5f6bd755a22b26a563e59fd51afb40bd0fc5c7a9aee",
    )),
    ((C, 6, 6, 2, 17), (
        "36c84b4499e145857fa16c58da536865db7a6cc432935043e220b264d929fa51",
        "aea577e9869943434ddb87d37f06fee7d53055e4b886f5e13203f1caad118add",
        "aea577e9869943434ddb87d37f06fee7d53055e4b886f5e13203f1caad118add",
    )),
    ((D, 4, 5, 20, 18), (
        "2741a75b0c2ad85aa89966a6a43d178897832bded5df24f04fbc8138630d12f7",
        "fecb9a09e54cf0adc716741284d650e0b139de211bd73a19d5e6cbd74820d4fb",
        "fecb9a09e54cf0adc716741284d650e0b139de211bd73a19d5e6cbd74820d4fb",
    )),
    ((D, 6, 6, 40, 19), (
        "57aa86adc2938e2af6d35911c6eebaf44cd0010d23be930d872adf30f13a78a7",
        "96d86cf6bd9a0f41f16a6e1d5cd0a40b571478d6a3c2de70bb46c5c97ab29606",
        "96d86cf6bd9a0f41f16a6e1d5cd0a40b571478d6a3c2de70bb46c5c97ab29606",
    )),
    (None, (
        "70050b99088c7c8b17e653068534e7de3c41c9327b8dbb1d1162d68960c79cf3",
        "ad3507821edd7d431518cf51a395995ee937e230b9e60db62dc80efcf5563174",
        "96c1644730a349ddb6c55d91b008c0c16982e995141e6a336da1577ec018a03c",
    )),
]


@pytest.mark.parametrize("case, digests", CASES)
def test_dominance_transcript_digests(case, digests):
    game = RATIONAL_GAME if case is None else _game(*case)
    for mode, expected in zip(MODES, digests):
        assert hashlib.sha256(_transcript(game, mode)).hexdigest() == expected, mode
