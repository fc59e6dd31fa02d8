"""Outside-in tracing of robustkf through its public functions.

`Tracer.install` replaces public functions of the package, as module
attributes, with wrappers; `Tracer.uninstall` puts the originals back.
Nothing under ``src/`` is edited.  Each span wrapper records a span
``[name, start, end, parent]`` in memory; each count wrapper only counts
calls, so the time spent in it stays in its caller's self time.

A function is replaced in every ``robustkf`` module that holds it (the
defining module, the modules that imported it by name, and the package
namespace), so calls are traced whichever way they reach it.  A name that
no longer exists is listed in ``Tracer.missing`` and fails the traced run,
so that a refactor which renames a boundary updates the tables below rather
than letting its metrics read zero.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

#: (module, attribute, span name).  ``Class.method`` names patch the class.
SPANS = (
    ("robustkf.cli", "run_cli", "cli.run_cli"),
    ("robustkf.model", "sample_mixture_sequence", "model.sample"),
    ("robustkf.model", "sample_mixture", "model.sample"),
    ("robustkf.model", "GaussianBelief.__post_init__", "model.belief"),
    ("robustkf.rng", "RandomStream.uniforms", "rng.uniforms"),
    ("robustkf.kf", "kf_predict", "kf.predict"),
    ("robustkf.mckf", "mckf_step", "mckf.step"),
    ("robustkf.mckf", "build_regression", "mckf.whiten"),
    ("robustkf.mckf", "fixed_point_iterate", "mckf.fixed_point"),
    ("robustkf.numerics", "min_eigenvalue_symmetric", "numerics.min_eig"),
    ("robustkf.diagnostics", "phi_sigma", "diagnostics.phi"),
    ("robustkf.diagnostics", "psi_sigma", "diagnostics.psi"),
)

#: (module, attribute, counter name): called too often, or too cheap, for a span.
COUNTS = (
    ("robustkf.sim", "noise_specs", "sim.noise_specs"),
    ("robustkf.rng", "substream_seed", "rng.substream"),
    ("robustkf.numerics", "cholesky_lower", "numerics.cholesky"),
    ("robustkf.numerics", "solve_spd", "numerics.solve_spd"),
)


class Tracer:
    """Span and call-count recorder for one traced phase.

    ``spans`` and ``counts`` hold what was recorded since the last `reset`;
    ``results`` holds the `ExperimentResult` of every engine call made
    through the per-filter split of ``run_monte_carlo``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.results: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.results.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, perf_counter(), 0.0, parent]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def split_engine_wrapper(self, fn):
        """``run_monte_carlo`` run once per filter, each call its own span.

        The engine has no public boundary between filters, so this is how the
        engine time of each filter is separated.  Each call generates the run
        data again; the generation spans are its children and are therefore
        not part of the filter's self time.  The per-filter results are
        merged back into one result, so callers see the usual result.
        """

        @wraps(fn)
        def wrapper(config, *args, **kwargs):
            parts = []
            for spec in config.filters:
                rec = self._open(f"sim.{spec.kind}")
                try:
                    part = fn(dataclasses.replace(config, filters=(spec,)), *args, **kwargs)
                finally:
                    self._close(rec)
                self.results.append(part)
                parts.append(part)
            return _merge_results(config, parts)

        return wrapper

    def install(self) -> None:
        """Replace the traced public functions with wrappers.

        Functions that cannot be found are listed in ``missing``.
        """
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self.span_wrapper(name, fn))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self.count_wrapper(name, fn))
        self._patch("robustkf.sim", "run_monte_carlo", self.split_engine_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{module}.{attr}")
                return
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == "robustkf" or name.startswith("robustkf.")):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def summary(self) -> tuple[dict[str, float], Counter]:
        """Self time (s) and call count per span name, plus the call counters.

        A span's self time is its duration minus the durations of the spans
        it caused (its children).
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s: dict[str, float] = defaultdict(float)
        calls = Counter(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return dict(self_s), calls


def _merge_results(config, parts):
    """One ExperimentResult from per-filter results, stacked along the filter axis."""
    first = parts[0]
    if len(parts) == 1:
        return dataclasses.replace(first, config=config)
    merged = {}
    for field in dataclasses.fields(first):
        values = [getattr(p, field.name) for p in parts]
        if field.name == "config":
            merged[field.name] = config
        elif isinstance(values[0], np.ndarray):
            merged[field.name] = np.concatenate(values, axis=0)
        else:
            merged[field.name] = values[0]
    return type(first)(**merged)
