"""The package's export list matches what the package defines."""

import types

import robustkf


def test_every_export_resolves():
    missing = [name for name in robustkf.__all__ if not hasattr(robustkf, name)]
    assert missing == []


def test_exports_are_the_public_attributes():
    public = {
        name
        for name, value in vars(robustkf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(robustkf.__all__) == sorted(public)
    assert len(set(robustkf.__all__)) == len(robustkf.__all__)
