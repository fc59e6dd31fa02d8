"""The benchmark's outside-in tracer still finds every traced boundary.

``perfbench/tracing.py`` wraps public functions of the package by name.  A
refactor that renames or removes one of them must fail here, in the unit
suite, and not only in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import robustkf.cli  # noqa: F401  (the tracer wraps only imported modules)
import robustkf.sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists():
    original = robustkf.sim.run_monte_carlo
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert robustkf.sim.run_monte_carlo is original
