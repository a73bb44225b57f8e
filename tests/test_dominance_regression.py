"""Byte-level regression of the exact dominance layer and `find_saddle`.

For each seeded game and each dominance mode, every answer of the public
dominance functions is written into one canonical text and hashed:

* `row_dominates` / `col_dominates` over all action pairs, for two
  restrictions each (all opponent actions and the even-indexed ones);
* the `set_dominates_rows` / `set_dominates_cols` witness mapping (or its
  absence) for every nonempty dominating set against its complement, under
  both restrictions;
* `undominated_rows`, `undominated_cols`, `iterated_elimination` and
  `find_saddle`.

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
    undominated_cols,
    undominated_rows,
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
    lines.append(f"undominated {undominated_rows(game, mode)} {undominated_cols(game, mode)}")
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
        "b4b34b6b657377d2ac82b62e9480b485590a9595b78bf3f0c334223413045e31",
        "bce9fe6d43bf8d3b9bcf6f504c647ff617c42c0c5ce567b8e2b0ea3b04f49bd5",
        "bce9fe6d43bf8d3b9bcf6f504c647ff617c42c0c5ce567b8e2b0ea3b04f49bd5",
    )),
    ((U, 1, 4, 1, 1), (
        "5a520d684845879f7ef2e75042e2c2861d92a4555132ad91957a07763728ff47",
        "225bc6d8a51620955774155242500bece4d5bd0cae6afd12be447f44b29c020c",
        "225bc6d8a51620955774155242500bece4d5bd0cae6afd12be447f44b29c020c",
    )),
    ((U, 4, 1, 1, 2), (
        "7293c13c08ec2ddf27f9abb9b6ba2a1f122393e9776eeb81234e68a7746465fa",
        "7e3c821740065b98c4e10792f15827ef6183150ae174aff320bf9e35a4528a7e",
        "7e3c821740065b98c4e10792f15827ef6183150ae174aff320bf9e35a4528a7e",
    )),
    ((U, 2, 3, 1, 3), (
        "00d8b483c275b662fa108769726bc54ab9048bee61b9f7013ce9a29c0d487abf",
        "a073db8f77fca7df187ea01662e76acb2abf8fe4ff01368283f965faff534e00",
        "894281e34e26d8f3644735dd9c6ea7608956dc0eedc7b9f833adbdc74f19cd3d",
    )),
    ((U, 3, 2, 3, 4), (
        "77f3c815be2536ca3aee6056ab86e07282a494f3343dda13353203c3ecf9ea91",
        "54960a2fef1d488620ab169d05c025f6468e24343420d5a9c421c5e34be1e3ec",
        "54389f0b3004112c0b3f13dbff0cf9c8c4ef67b99c4ef99862a5704a3ed90a85",
    )),
    ((U, 3, 3, 1, 5), (
        "320d7436e83adb4e6a9bd2d8e3e255cadc536949f77e44f9822b9c5c08c8b2fe",
        "586a5f74e240be62615ffbed4c52c0672978ac17e644d82ec326b2e2784a6b86",
        "c97dbc6668111b93ecac8549339e70a08f98553e2a4169190820787417b3525b",
    )),
    ((U, 4, 4, 1, 6), (
        "aa9f9b72cd46539d6d9ae24bc9685413e0f6fb25dd4e24c857db34d1d047c47e",
        "403cf262c8f04516434c1622ac3a815d41491c87fdbf97900d3b9385d4b1ee0e",
        "2b70e2358e3c5e5c863f24c3ae6588898f92d18090cda3cbaf3ad319d4ba80a1",
    )),
    ((U, 4, 5, 3, 7), (
        "ce050c560109749f8301841c26d2b441d029ddd24404ed4320f7adf501349705",
        "7276c652b834917f41a84620ae6e1db6c2cc31b82f087307aa522fb2a7fa7bcb",
        "2945679605a36df88002afa0088622671fd8097bc82a64166a20f843bd2a8b6f",
    )),
    ((U, 5, 4, 1, 8), (
        "ac4726115ceb1dcd516bce7812d4ede248a64307e750584df8fa0eb492a3394e",
        "a217ed3c94488c66eb9389706e445ecf11589afa45fea55227bdbd430b288701",
        "53c0a2ab08cb78a252b77fecb77c9830b4c7c094cb071d931589b01d0efc81e3",
    )),
    ((U, 5, 5, 1, 9), (
        "89379263e0f18925f7efa98870c763162ae092c4315fce379fb11f9783e8e4ab",
        "5c1912d1a994ea20dde96d7bfd681ef0d07d80c90a1ca86f95f475083fdbbc2a",
        "e2aca5301224e413a9470ab6221c8cc48751bf42419e07329d5f0767fc744c85",
    )),
    ((U, 5, 5, 3, 10), (
        "ab1c1ab33ad5a04705f2eb6b689fd916f275bf83bc99ff1d032ce05958d9415a",
        "b4403beb7000fb7571fb9216f05017eb404313064ab84a4f67db0b8aa0649b93",
        "4d72822f434faf1ef05c5b9049504d789c4b5106b8a5ec245e4aab67753756dc",
    )),
    ((U, 6, 6, 1, 11), (
        "f91ca444dde2bd1681db97599e69d7fa1c81d803381792e28c3812a763c9f6c4",
        "2426ace1a33e443f9485045329d7809450cbbc21c7984353f0f887f4199225c3",
        "74881a43b232babf6789f9545299f724de30988bf2e8a69b0800b6c9e6d59695",
    )),
    ((U, 6, 6, 3, 12), (
        "587bfc8088c1334b9e4d1c43e1a482155dfe351a719f143eebe10fcbf22b6950",
        "f78ba55c9206f3504d8daf7f34a7e71d02bdfc9fac3b906cefd556dc37b85204",
        "0463828eb4eb9733d208008a086a41fe2b84c0478bce2330d7f6127b730d505e",
    )),
    ((U, 6, 5, 2, 13), (
        "76959012df03866742a4dc87faa8ddeabacae27048170b8c9002140dd5816f32",
        "190b784a3bc9d9a4d0c75256272f3a3fa93ce60ac353c64831ce537226fcd159",
        "49235c285ead8f00d4726084c65e59a6e67ade54d5440234cec0633bf378f582",
    )),
    ((T, 5, 5, 1, 14), (
        "04be57efcbf45f1b652e2f979230e88d595d499dba01df8faa7c91e3f646466f",
        "df88e52bb042e7e6badc4130db2fd506a1d062a15f2fd9736d31d593f6314345",
        "50d61c022bb085e6d152c3d15f8cd0c67cd143f0bcbe7ebcc77467cd44a090c0",
    )),
    ((T, 6, 6, 1, 15), (
        "ea12b2f6c4a883d786216867991528182eceb2cc2b3cf7f8f2ce3e4de372d9fe",
        "83318b3b72c49e7d5d77b0b6245020b2641b8e110692c11fb1b44de6ea6a077c",
        "1a50d98ecf071009fd698a65b1ae3ddb2ecd088c729810b947ea9b7c5fd79623",
    )),
    ((C, 4, 4, 1, 16), (
        "802738148b5ea595b0dd9ab03fd59ed422c49439836085b12f3f1e55f0756c5a",
        "ca571e9add50c22dbf19fbf9b2c5d1d24dfdce916822f8ea920ecdb9d5d296c6",
        "9fa397a01f7d7262be1a863eb4c700cc918566e8550187a5d247ed4baa2d191d",
    )),
    ((C, 6, 6, 2, 17), (
        "7767327294ac05adb7b04f78e349f37626bfa7d592ebe311e4ee63ff4642805b",
        "506a7c72605415ee839ba79e0abd05734594779b9727269f8c39d4d1ec5cbb3f",
        "506a7c72605415ee839ba79e0abd05734594779b9727269f8c39d4d1ec5cbb3f",
    )),
    ((D, 4, 5, 20, 18), (
        "d23b71f9c9e1abb016c2af9c9abc4414e307a3bdbd2abb5e632035d3b3a015db",
        "e223697152c2050f2dda8612c2192d41d30f86d84eba9abc0de5f3822935d26b",
        "e223697152c2050f2dda8612c2192d41d30f86d84eba9abc0de5f3822935d26b",
    )),
    ((D, 6, 6, 40, 19), (
        "545bba857a380b0a3329a2c6b81aab875173c24faae01b7af5cb3a67aa1ee437",
        "33df79b93a8d59d34da2d606673c37cdad724e1c65dc201e0a07b321eeb7802e",
        "33df79b93a8d59d34da2d606673c37cdad724e1c65dc201e0a07b321eeb7802e",
    )),
    (None, (
        "1a8ea40865c77d549b0c022f6305e040ead2a02fe7bd516c9c61ffb704dfb640",
        "86c63623343a6ddd72f93bd4322d99ba0ed525e21f9c2c50b10ff32a2b007153",
        "8493bda13b7ad11634d1b2c2f3193878668379ed3078f68c24dafada145194df",
    )),
]


@pytest.mark.parametrize("case, digests", CASES)
def test_dominance_transcript_digests(case, digests):
    game = RATIONAL_GAME if case is None else _game(*case)
    for mode, expected in zip(MODES, digests):
        assert hashlib.sha256(_transcript(game, mode)).hexdigest() == expected, mode
