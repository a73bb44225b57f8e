"""The package's export list names what the package binds, and only that."""

import types

import saddles


def test_all_matches_the_public_names():
    exported = saddles.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(saddles, name)] == []
    # Submodules are bound on the package once imported; they are not exports.
    public = {
        name
        for name, value in vars(saddles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public.difference(exported)) == []
