"""The package's export list matches what the package defines, and importing
it loads only what it uses."""

import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_import_does_not_load_numpy_ma():
    # numpy.ma costs over 10 ms of import time and about 1 MB; nothing here uses it.
    code = "import sys, robustkf, robustkf.cli; print('numpy.ma' in sys.modules)"
    src = str(Path(robustkf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
