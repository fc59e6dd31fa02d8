"""Monte Carlo benchmark harness for the two tracking examples.

Two reference systems are provided: a plane rotation with a summed
observation (`make_example1`) and a position/speed/acceleration chain where
only the speed is observed (`make_example2`).  `run_monte_carlo` simulates
many independent runs of a system under a chosen noise case, feeds every
configured filter the identical measurement sequences, and accumulates
squared errors and fixed-point iteration counts.

Reproducibility contract
------------------------
All randomness derives from ``master_seed`` through documented SplitMix64
substreams: run ``i`` owns ``substream(master_seed, i)``, which is further
split by role (0: initial estimate perturbation, 1: process noise sequence,
2: measurement noise sequence).  Identical configs therefore produce
bit-identical results, and every filter within a run sees the same data.
The runs are generated a chunk at a time, each role's streams of a chunk
drawn as one batch of seeds, but a stream's draws are a function of its
seed and draw index only, so a run's data does not depend on how many runs
are generated with it or on where the chunks fall: `generate_run_data`
returns exactly the run's row of the whole experiment.  Neither does a
run's filter output: the batched engine computes every run with per-run
stacked operations, so the run's estimates, iteration counts, cap hits and
covariances are bit-identical whatever the number of runs, and whichever
other runs are still iterating beside it.

One loop in `run_monte_carlo` fills the results; an engine is only the step
it calls, ``(x, P) -> (x, P, report)``, and both give the same numbers.
The ``batched`` step (the default) advances all runs at once through the
filters' stacked step, `robustkf.mckf._filter_step`, which `mckf_step` runs
for a single run, as `kf_update` runs its `_filter_update`; its fixed-point
solve works only on the runs still iterating.  Its KF carries one
covariance for all runs: ``P`` and the gain follow the Riccati recursion,
which reads no measurements, from the same ``p0`` in every run, so the one
``(1, n, n)`` track is bit for bit every run's ``P``.  The independent
``reference`` step advances one run at a time through `kf_predict`, a gain
(the KF's textbook ``P H' (H P H' + R)^-1``, the MCKF's from
`fixed_point_direct` on the model, the prior and the measurement: the
paper's weighted least squares in whitened prior coordinates, by QR) and
the Joseph covariance of that gain, which it writes in its own code as a
Gram product, as the batched step does.  The loop marks a run whose numbers
overflow failed; it does not stop the experiment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigParseError, EmptyInput, RobustKFError
from .kf import kf_predict
from .mckf import FixedPointReport, KernelConfig, _filter_step, fixed_point_direct
from .model import (
    GaussianBelief,
    MixtureNoiseSpec,
    StateSpaceModel,
    mixture_moments,
    sample_mixture_sequence,
)
from .numerics import cholesky_stack, solve_spd
from .rng import RandomStream, substream_seed

NOISE_CASES = ("gaussian", "impulsive-measurement", "impulsive-both", "none")

#: Nominal per-coordinate noise variance shared by both examples.
NOMINAL_VARIANCE = 0.01

#: Heavy-tailed measurement mixture: mostly nominal, occasionally huge.
IMPULSIVE_MEASUREMENT = ((0.9, 0.0, 0.01), (0.1, 0.0, 100.0))
#: Heavy-tailed process mixture for the impulsive-both case.
IMPULSIVE_PROCESS = ((0.9, 0.0, 0.01), (0.1, 0.0, 1.0))

#: Presentational defaults for error-density reporting.
DEFAULT_DENSITY_BINS = 101
EXAMPLE1_ERROR_RANGE = (-3.0, 3.0)
EXAMPLE2_POSITION_ERROR_RANGE = (-25.0, 25.0)


def make_example1(theta: float = math.pi / 18) -> StateSpaceModel:
    """Plane rotation by ``theta`` per step, observing the coordinate sum."""
    c, s = math.cos(theta), math.sin(theta)
    return StateSpaceModel(
        F=[[c, -s], [s, c]],
        H=[[1.0, 1.0]],
        Q=(NOMINAL_VARIANCE * np.eye(2)),
        R=[[NOMINAL_VARIANCE]],
    )


def make_example2(dt: float = 0.1) -> StateSpaceModel:
    """Uniformly accelerated 1-D motion; only the speed is observed."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    return StateSpaceModel(
        F=[[1.0, dt, 0.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]],
        H=[[0.0, 1.0, 0.0]],
        Q=(NOMINAL_VARIANCE * np.eye(3)),
        R=[[NOMINAL_VARIANCE]],
    )


def noise_specs(case: str, n: int, m: int) -> tuple[MixtureNoiseSpec, MixtureNoiseSpec]:
    """Process/measurement noise laws for a named case.

    The degenerate ``"none"`` case (zero-variance point masses) exists for
    exactness checks, not for benchmarking.
    """
    if case == "none":
        return MixtureNoiseSpec.gaussian(n, 0.0), MixtureNoiseSpec.gaussian(m, 0.0)
    if case == "gaussian":
        return (
            MixtureNoiseSpec.gaussian(n, NOMINAL_VARIANCE),
            MixtureNoiseSpec.gaussian(m, NOMINAL_VARIANCE),
        )
    if case == "impulsive-measurement":
        return (
            MixtureNoiseSpec.gaussian(n, NOMINAL_VARIANCE),
            MixtureNoiseSpec.iid(m, IMPULSIVE_MEASUREMENT),
        )
    if case == "impulsive-both":
        return (
            MixtureNoiseSpec.iid(n, IMPULSIVE_PROCESS),
            MixtureNoiseSpec.iid(m, IMPULSIVE_MEASUREMENT),
        )
    raise ConfigParseError(f"unknown noise case {case!r}; expected one of {NOISE_CASES}")


@dataclass(frozen=True)
class FilterSpec:
    """One filter to benchmark: the baseline (``kf``) or the robust one (``mckf``)."""

    kind: str
    kernel: KernelConfig | None = None

    def __post_init__(self):
        if self.kind not in ("kf", "mckf"):
            raise ConfigParseError(f"unknown filter kind {self.kind!r}")
        if self.kind == "mckf" and self.kernel is None:
            raise ConfigParseError("mckf filter requires a KernelConfig")
        if self.kind == "kf" and self.kernel is not None:
            raise ConfigParseError("kf filter takes no KernelConfig")

    @property
    def label(self) -> str:
        if self.kind == "kf":
            return "KF"
        return f"MCKF(sigma={self.kernel.sigma:g},epsilon={self.kernel.epsilon:g})"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a Monte Carlo experiment.

    ``example`` selects the system: "example1" and "example2" are
    `make_example1` and `make_example2` with their default parameters, and
    "custom" needs ``custom_model``, which no other example takes, and
    ``true_x0``.  ``noise_case`` is one of `NOISE_CASES` (see `noise_specs`).
    Initial conditions follow the shared convention: the true state starts at
    ``true_x0`` exactly, the estimate starts at ``true_x0`` plus an
    independent zero-mean Gaussian perturbation of variance
    ``init_perturb_var`` per coordinate, and the initial covariance is
    ``p0_scale * I``.

    The filters assume the total per-coordinate covariances of the active
    noise case (law of total variance), so under the heavy-tailed cases they
    see the inflated diagonal covariance of the full mixture, not just its
    nominal component; ``assumed_q`` / ``assumed_r`` override this, and the
    degenerate ``"none"`` case falls back to the model covariances.  What
    the mixture cannot tell the filters is *which* steps carry outliers;
    rejecting those is the robust update's job.
    """

    example: str = "example1"
    noise_case: str = "gaussian"
    runs: int = 100
    steps: int = 1000
    filters: tuple[FilterSpec, ...] = (FilterSpec("kf"),)
    master_seed: int = 20160301
    custom_model: StateSpaceModel | None = None
    true_x0: tuple[float, ...] | None = None
    init_perturb_var: float = 0.01
    p0_scale: float = 0.01
    assumed_q: tuple[tuple[float, ...], ...] | None = None
    assumed_r: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.example not in ("example1", "example2", "custom"):
            raise ConfigParseError(f"unknown example {self.example!r}")
        for name in ("runs", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigParseError(f"{name} must be an integer >= 1, got {value!r}")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, numbers.Integral):
            raise ConfigParseError(f"master_seed {self.master_seed!r} is not an integer")
        for name in ("init_perturb_var", "p0_scale"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value >= 0):
                raise ConfigParseError(f"{name} must be a finite number >= 0, got {value!r}")
        if not self.filters:
            raise ConfigParseError("at least one filter is required")
        if self.example == "custom" and (self.custom_model is None or self.true_x0 is None):
            raise ConfigParseError("custom example requires custom_model and true_x0")
        if self.example != "custom" and self.custom_model is not None:
            raise ConfigParseError(f"{self.example} takes no custom_model; only custom reads it")
        object.__setattr__(self, "filters", tuple(self.filters))
        for name in ("assumed_q", "assumed_r"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self,
                    name,
                    tuple(tuple(float(v) for v in row) for row in np.atleast_2d(value)),
                )
        # A bad assumed_q/assumed_r fails here, when the config is built.
        n = self.filter_model().n
        if self.true_x0 is not None:
            x0 = tuple(float(v) for v in self.true_x0)
            if len(x0) != n:
                raise ConfigParseError(f"true_x0 has {len(x0)} entries, the model has {n} states")
            if not all(map(math.isfinite, x0)):
                raise ConfigParseError(f"true_x0 {x0} has non-finite entries")
            object.__setattr__(self, "true_x0", x0)

    def resolve_model(self) -> StateSpaceModel:
        if self.example == "example1":
            return make_example1()
        if self.example == "example2":
            return make_example2()
        return self.custom_model

    def resolve_x0(self) -> np.ndarray:
        if self.true_x0 is not None:
            return np.asarray(self.true_x0, dtype=float)
        if self.example == "example1":
            return np.zeros(2)
        return np.array([0.0, 0.0, 1.0])

    def filter_model(self) -> StateSpaceModel:
        """The model the filters assume.

        Defaults to the total per-coordinate covariances of the active noise
        case; explicit ``assumed_q`` / ``assumed_r`` win.  The degenerate
        ``"none"`` case keeps the model covariances (a zero covariance would
        not be invertible).
        """
        model = self.resolve_model()
        q_assumed, r_assumed = model.Q, model.R
        if self.noise_case != "none":
            q_spec, r_spec = noise_specs(self.noise_case, model.n, model.m)
            q_assumed = np.diag(mixture_moments(q_spec)[1])
            r_assumed = np.diag(mixture_moments(r_spec)[1])
        if self.assumed_q is not None:
            q_assumed = self.assumed_q
        if self.assumed_r is not None:
            r_assumed = self.assumed_r
        return StateSpaceModel(F=model.F, H=model.H, Q=q_assumed, R=r_assumed)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["filters"] = [
            {"kind": "kf"} if f.kernel is None else {"kind": "mckf", **asdict(f.kernel)}
            for f in self.filters
        ]
        if self.custom_model is None:
            del out["custom_model"]
        else:
            out["custom_model"] = {k: getattr(self.custom_model, k).tolist() for k in "FHQR"}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        filters = []
        specs = data.pop("filters", [{"kind": "kf"}])
        if not isinstance(specs, list) or not all(isinstance(f, dict) for f in specs):
            raise ConfigParseError(f"filters must be a list of objects, got {specs!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigParseError(f"unknown config keys: {sorted(unknown)}")
        try:
            for f in specs:
                # FilterSpec checks the kind; KernelConfig rejects a key it
                # does not take (TypeError) and a bad value.
                kind, params = f.get("kind"), {k: v for k, v in f.items() if k != "kind"}
                filters.append(FilterSpec(kind, KernelConfig(**params) if params else None))
            custom = data.pop("custom_model", None)
            if custom is not None:
                data["custom_model"] = StateSpaceModel(**custom)
            return cls(filters=tuple(filters), **data)
        except (TypeError, ValueError, RobustKFError) as exc:
            raise ConfigParseError(str(exc)) from None


@dataclass(frozen=True)
class RunData:
    """Truth trajectory, measurements, and initial estimate of one run."""

    x0_hat: np.ndarray
    truths: np.ndarray
    measurements: np.ndarray


#: Bound on the uniforms one noise role draws per chunk of runs in
#: `_generate`: it keeps the generation temporaries small at any run count.
GENERATION_CHUNK_UNIFORMS = 1 << 16


def _generate(config: ExperimentConfig, model: StateSpaceModel, runs):
    """Initial estimates, truths and measurements of ``runs``, stacked by run.

    The noise is drawn a chunk of runs at a time: each role's streams of a
    chunk form one batch of seeds (`RandomStream` over an array), so a chunk
    costs one draw per role, and the chunk is as many runs as keep each
    role's draw within `GENERATION_CHUNK_UNIFORMS` uniforms.  The process
    and measurement noise are written into the truth and measurement arrays
    and turned into them in place.  ``F`` and ``H`` are applied with
    `numpy.einsum`, whose rows do not depend on how many runs are stacked
    (BLAS ``@`` rows do), so a run's data is a function of the seed and the
    run index only.
    """
    q_spec, r_spec = noise_specs(config.noise_case, model.n, model.m)
    x0 = config.resolve_x0()
    runs = np.asarray(runs)
    x0_hats = np.empty((runs.size, model.n))
    truths = np.empty((runs.size, config.steps, model.n))
    ys = np.empty((runs.size, config.steps, model.m))
    chunk = max(1, GENERATION_CHUNK_UNIFORMS // (3 * max(model.n, model.m) * config.steps))
    for start in range(0, runs.size, chunk):
        rows = slice(start, start + chunk)
        run_seeds = substream_seed(config.master_seed, runs[rows])
        init, proc, meas = (RandomStream(substream_seed(run_seeds, role)) for role in range(3))
        x0_hats[rows] = x0 + math.sqrt(config.init_perturb_var) * init.normals(model.n)
        truths[rows] = sample_mixture_sequence(q_spec, config.steps, proc)
        ys[rows] = sample_mixture_sequence(r_spec, config.steps, meas)
    x = np.broadcast_to(x0, x0_hats.shape)
    for k in range(config.steps):
        x = np.einsum("ij,rj->ri", model.F, x) + truths[:, k]
        truths[:, k] = x
    ys += np.einsum("ij,rkj->rki", model.H, truths)
    return x0_hats, truths, ys


def generate_run_data(config: ExperimentConfig, run: int) -> RunData:
    """Deterministic data of one Monte Carlo run (see the module docstring)."""
    x0_hats, truths, ys = _generate(config, config.resolve_model(), [run])
    return RunData(x0_hat=x0_hats[0], truths=truths[0], measurements=ys[0])


@dataclass
class ExperimentResult:
    """Per-filter outcomes of one Monte Carlo experiment.

    ``errors`` holds estimate-minus-truth per (filter, run, step, state);
    failed runs are NaN there and excluded from the aggregates.  ``mse`` is
    the per-state mean of squared errors over all surviving runs and steps.
    ``iterations`` and ``nonconverged`` track the fixed-point solve (zero
    for the baseline filter and for failed runs); ``avg_iterations`` is NaN
    for the baseline.
    """

    config: ExperimentConfig
    mse: np.ndarray
    avg_iterations: np.ndarray
    errors: np.ndarray
    iterations: np.ndarray
    nonconverged: np.ndarray
    failed_runs: np.ndarray
    covariances: np.ndarray | None = None


def _joseph(model, b_p, gain):
    """Joseph-form covariance ``(I - K H) P (I - K H)' + K R K'`` of ``P = B_p B_p'``,
    written as the Gram product ``G G'`` of ``G = [(I - K H) B_p | K B_r]``:
    exactly symmetric and PSD by construction."""
    g = np.hstack([(np.eye(model.n) - gain @ model.H) @ b_p, gain @ model.B_r])
    return g @ g.T


def _reference_step(model, kernel, x, p, y):
    """One step of every run, a run at a time, ``(x, P) -> (x, P, report)``;
    ``kernel is None`` is the KF.

    Each run composes `kf_predict` of ``GaussianBelief(x[run], p[run])``, a
    gain, the estimate ``prior.mean + K (y - H prior.mean)`` and `_joseph` of
    the predicted covariance's `cholesky_stack` factor ``B_p``.  The KF's gain
    is the textbook ``P H' (H P H' + R)^-1``; the MCKF's is the final gain of
    `fixed_point_direct(model, prior, y, kernel)`, which whitens with the
    model's factors and builds no x-space regression.  A run that raises a
    `RobustKFError` (a failed run's NaN estimate does) is NaN after the step,
    so it stays failed.  ``report`` stacks the runs' `FixedPointReport`s as
    `_filter_step`'s (a run that raised before its solve: 0 iterations,
    converged, NaN weights and step); the KF's is ``None``.
    """
    x_new, p_new = np.full_like(x, np.nan), np.full_like(p, np.nan)
    reports = [FixedPointReport(0, True, np.full(model.n + model.m, np.nan), np.nan)] * len(x)
    for run in range(len(x)):
        try:
            prior = kf_predict(model, GaussianBelief(x[run], p[run]))
            if kernel is None:
                hp = model.H @ prior.cov
                gain = solve_spd(hp @ model.H.T + model.R, hp).T
            else:
                _, gain, reports[run] = fixed_point_direct(model, prior, y[run], kernel)
            x_new[run] = prior.mean + gain @ (y[run] - model.H @ prior.mean)
            p_new[run] = _joseph(model, cholesky_stack(prior.cov), gain)
        except RobustKFError:
            x_new[run] = np.nan
    columns = (np.array([getattr(r, f.name) for r in reports]) for f in fields(FixedPointReport))
    return x_new, p_new, None if kernel is None else FixedPointReport(*columns)


def run_monte_carlo(
    config: ExperimentConfig,
    engine: str = "batched",
    collect_covariances: bool = False,
) -> ExperimentResult:
    """Run the full experiment described by ``config``.

    The only loop over time steps: per filter, it calls the engine's step
    ``(x, p) -> (x, p, report)`` on all runs and the step's measurements once
    per step, and is the only writer of the results: estimates, covariances
    and, from the per-run `FixedPointReport` (``None`` for the KF), iteration
    counts and cap hits.  A run fails when its estimate is not finite; its
    errors and covariances are then NaN and its iteration counts zero.
    The batched KF steps one ``(1, n, n)`` covariance, the same for every
    run (see the module docstring), and its gain broadcasts over the runs.

    Parameters
    ----------
    config : ExperimentConfig
        Model, noise case, run/step counts, filter list and master seed.
    engine : {"batched", "reference"}
        The step: `_filter_step` over all runs at once (the fast default)
        or `_reference_step`, run by run.  Both give the same numbers.
    collect_covariances : bool
        Also record the posterior covariance at every step (memory permitting).
    """
    if engine not in ("batched", "reference"):
        raise ConfigParseError(f"unknown engine {engine!r}")
    model = config.resolve_model()
    fmodel = config.filter_model()
    runs, steps, n = config.runs, config.steps, model.n
    nfilters = len(config.filters)
    step = _filter_step if engine == "batched" else _reference_step

    errors = np.empty((nfilters, runs, steps, n))
    iterations = np.zeros((nfilters, runs, steps), dtype=np.int32)
    nonconverged = np.zeros((nfilters, runs), dtype=np.int32)
    failed = np.empty((nfilters, runs), dtype=bool)
    covariances = np.empty((nfilters, runs, steps, n, n)) if collect_covariances else None

    # A diverging run overflows to Inf and NaN; it is marked failed below,
    # so the floating-point warnings on the way there carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        x0_hats, truths, ys = _generate(config, model, range(runs))
        p0s = np.broadcast_to(config.p0_scale * np.eye(n), (runs, n, n)).copy()
        for fi, spec in enumerate(config.filters):
            shared = engine == "batched" and spec.kernel is None
            x, p = x0_hats, p0s[:1] if shared else p0s
            for k in range(steps):
                x, p, report = step(fmodel, spec.kernel, x, p, ys[:, k])
                if report is not None:
                    iterations[fi, :, k] = report.iterations
                    nonconverged[fi] += ~report.converged
                errors[fi, :, k] = x
                if collect_covariances:
                    covariances[fi, :, k] = p
            failed[fi] = bad = ~np.all(np.isfinite(errors[fi]), axis=(1, 2))
            errors[fi, bad] = np.nan
            errors[fi] -= truths
            iterations[fi, bad] = nonconverged[fi, bad] = 0
            if collect_covariances:
                covariances[fi, bad] = np.nan

    mse = np.empty((nfilters, n))
    avg_iterations = np.full(nfilters, np.nan)
    for fi, spec in enumerate(config.filters):
        ok = ~failed[fi]
        if not ok.any():
            mse[fi] = np.nan
            continue
        mse[fi] = np.mean(errors[fi, ok] ** 2, axis=(0, 1))
        if spec.kind == "mckf":
            avg_iterations[fi] = float(np.mean(iterations[fi, ok]))
    return ExperimentResult(
        config=config,
        mse=mse,
        avg_iterations=avg_iterations,
        errors=errors,
        iterations=iterations,
        nonconverged=nonconverged,
        failed_runs=failed,
        covariances=covariances,
    )


@dataclass(frozen=True)
class Histogram:
    """Normalized error-density data.

    ``masses`` are bin counts divided by the total sample count, so they sum
    to the fraction of samples inside the range; ``out_of_range_fraction``
    is defined as the complement of that sum, making the conservation
    identity exact in floating point.
    """

    bin_centers: np.ndarray
    masses: np.ndarray
    out_of_range_fraction: float


def check_density_bins(bins: int) -> None:
    """Reject a histogram with fewer than two bins (`ValueError`)."""
    if bins < 2:
        raise ValueError("bins must be >= 2")


def error_density(
    errors: np.ndarray, bins: int, value_range: tuple[float, float]
) -> Histogram:
    """Histogram an error sample set into normalized masses.

    Parameters
    ----------
    errors : array_like
        Sample set (flattened; NaN entries are dropped).
    bins : int
        Number of equal-width bins, at least 2.
    value_range : (float, float)
        Inclusive range ``(lo, hi)`` with ``lo < hi``.
    """
    errors = np.asarray(errors, dtype=float).ravel()
    errors = errors[np.isfinite(errors)]
    if errors.size == 0:
        raise EmptyInput("error_density: no samples")
    check_density_bins(bins)
    lo, hi = value_range
    if not lo < hi:
        raise ValueError("value_range must satisfy lo < hi")
    counts, edges = np.histogram(errors, bins=bins, range=(lo, hi))
    masses = counts / errors.size
    centers = (edges[:-1] + edges[1:]) / 2.0
    return Histogram(
        bin_centers=centers,
        masses=masses,
        out_of_range_fraction=1.0 - float(np.sum(masses)),
    )
