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
stacked operations, so the run's estimates and iteration counts are
bit-identical whatever the number of runs, and whichever other runs are
still iterating beside it.

Two execution engines produce the same numbers: a readable per-step
``reference`` engine built directly on the public filter operations, and a
``batched`` engine (the default) that advances all runs simultaneously with
stacked linear algebra.  One batched loop serves both filters: the MCKF is
the KF's predict and Joseph update around a reweighted gain.  Its
fixed-point solve carries only the state, in whitened form, and each trip
works only on the runs still iterating, so the kernel is evaluated once per
iteration actually taken, with the stop rule of `fixed_point_iterate`.  The
reweighted gain is formed once per step, from each run's last weights.  A
run whose numbers overflow is marked failed by either engine; it does not
stop the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, EmptyInput, RobustKFError
from .kf import kf_predict, kf_update
from .mckf import WEIGHT_FLOOR, _STEP_NORM_GUARD, KernelConfig, gaussian_kernel, mckf_step
from .model import (
    GaussianBelief,
    MixtureNoiseSpec,
    StateSpaceModel,
    mixture_moments,
    sample_mixture_sequence,
    validate_model,
)
from .numerics import cholesky_stack
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

    ``example`` selects the system ("example1", "example2" or "custom" with
    ``custom_model`` and ``true_x0`` supplied).  Initial conditions follow
    the shared convention: the true state starts at ``true_x0`` exactly, the
    estimate starts at ``true_x0`` plus an independent zero-mean Gaussian
    perturbation of variance ``init_perturb_var`` per coordinate, and the
    initial covariance is ``p0_scale * I``.

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
    theta: float = math.pi / 18
    dt: float = 0.1
    custom_model: StateSpaceModel | None = None
    true_x0: tuple[float, ...] | None = None
    init_perturb_var: float = 0.01
    p0_scale: float = 0.01
    assumed_q: tuple[tuple[float, ...], ...] | None = None
    assumed_r: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.example not in ("example1", "example2", "custom"):
            raise ConfigParseError(f"unknown example {self.example!r}")
        if self.noise_case not in NOISE_CASES:
            raise ConfigParseError(f"unknown noise case {self.noise_case!r}")
        if self.runs < 1 or self.steps < 1:
            raise ConfigParseError("runs and steps must both be >= 1")
        if not self.filters:
            raise ConfigParseError("at least one filter is required")
        if self.example == "custom" and self.custom_model is None:
            raise ConfigParseError("custom example requires custom_model")
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.true_x0 is not None:
            object.__setattr__(self, "true_x0", tuple(float(v) for v in self.true_x0))
        for name in ("assumed_q", "assumed_r"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self,
                    name,
                    tuple(tuple(float(v) for v in row) for row in np.atleast_2d(value)),
                )

    def resolve_model(self) -> StateSpaceModel:
        if self.example == "example1":
            return make_example1(self.theta)
        if self.example == "example2":
            return make_example2(self.dt)
        return self.custom_model

    def resolve_x0(self) -> np.ndarray:
        if self.true_x0 is not None:
            return np.asarray(self.true_x0, dtype=float)
        if self.example == "example1":
            return np.zeros(2)
        if self.example == "example2":
            return np.array([0.0, 0.0, 1.0])
        raise ConfigParseError("custom example requires true_x0")

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
        filters = []
        for f in self.filters:
            if f.kind == "kf":
                filters.append({"kind": "kf"})
            else:
                filters.append(
                    {
                        "kind": "mckf",
                        "sigma": f.kernel.sigma,
                        "epsilon": f.kernel.epsilon,
                        "max_iterations": f.kernel.max_iterations,
                        "step_norm": f.kernel.step_norm,
                    }
                )
        out = {
            "example": self.example,
            "noise_case": self.noise_case,
            "runs": self.runs,
            "steps": self.steps,
            "filters": filters,
            "master_seed": self.master_seed,
            "theta": self.theta,
            "dt": self.dt,
            "true_x0": None if self.true_x0 is None else list(self.true_x0),
            "init_perturb_var": self.init_perturb_var,
            "p0_scale": self.p0_scale,
            "assumed_q": None if self.assumed_q is None else [list(r) for r in self.assumed_q],
            "assumed_r": None if self.assumed_r is None else [list(r) for r in self.assumed_r],
        }
        if self.custom_model is not None:
            out["custom_model"] = {
                "F": self.custom_model.F.tolist(),
                "H": self.custom_model.H.tolist(),
                "Q": self.custom_model.Q.tolist(),
                "R": self.custom_model.R.tolist(),
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        filters = []
        for f in data.pop("filters", [{"kind": "kf"}]):
            kind = f.get("kind")
            if kind == "kf":
                filters.append(FilterSpec("kf"))
            elif kind == "mckf":
                filters.append(
                    FilterSpec(
                        "mckf",
                        KernelConfig(
                            sigma=f["sigma"],
                            epsilon=f["epsilon"],
                            max_iterations=int(f.get("max_iterations", 100)),
                            step_norm=f.get("step_norm", "l2"),
                        ),
                    )
                )
            else:
                raise ConfigParseError(f"unknown filter kind {kind!r}")
        custom = data.pop("custom_model", None)
        if custom is not None:
            data["custom_model"] = StateSpaceModel(**custom)
        known = {
            "example", "noise_case", "runs", "steps", "master_seed", "theta", "dt",
            "true_x0", "init_perturb_var", "p0_scale", "assumed_q", "assumed_r",
            "custom_model",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigParseError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(filters=tuple(filters), **data)
        except TypeError as exc:
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
    for the baseline filter); ``avg_iterations`` is NaN for the baseline.
    """

    config: ExperimentConfig
    mse: np.ndarray
    avg_iterations: np.ndarray
    errors: np.ndarray
    iterations: np.ndarray
    nonconverged: np.ndarray
    failed_runs: np.ndarray
    covariances: np.ndarray | None = None

    def filter_labels(self) -> list[str]:
        return [f.label for f in self.config.filters]


def _reference_filter_run(fmodel, spec, x0_hat, p0, ys, collect_cov):
    steps = ys.shape[0]
    n = fmodel.n
    est = np.full((steps, n), np.nan)
    iters = np.zeros(steps, dtype=np.int32)
    nonconv = 0
    covs = np.full((steps, n, n), np.nan) if collect_cov else None
    belief = GaussianBelief(x0_hat, p0)
    for k in range(steps):
        if spec.kind == "kf":
            belief, _ = kf_update(fmodel, kf_predict(fmodel, belief), ys[k])
        else:
            belief, report = mckf_step(fmodel, belief, ys[k], spec.kernel)
            iters[k] = report.iterations
            nonconv += not report.converged
        est[k] = belief.mean
        if collect_cov:
            covs[k] = belief.cov
    return est, iters, nonconv, covs


def _mT(a):
    """Transpose of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _symmetrize(p):
    return (p + _mT(p)) / 2.0


def _solve(s, b):
    """Solve the stacked systems ``s @ z = b``; a 1 x 1 system is a division."""
    if s.shape[-1] == 1:
        return b / s
    return np.linalg.solve(s, b)


def _batch_gain(H, p, r):
    """Kalman gains ``P H' (H P H' + R)^-1`` of a stack of ``(P, R)`` pairs."""
    pht = p @ H.T
    return _mT(_solve(_symmetrize(H @ pht + r), _mT(pht)))


def _batched_fixed_point(kernel, a, b_p, b_r, b_r_inv, x_pred, innovation, iters):
    """Fixed-point solve of every run's correntropy update at one step.

    Iterates the whitened prior residual ``u = B_p^-1 (x - x_pred)`` with
    ``A = H B_p``: the residuals at ``u`` are ``e = [-u ; B_r^-1 (innovation
    - A u)]``.  With the inverse floored kernel weights ``w_inv = 1 /
    max(G_sigma(e), WEIGHT_FLOOR)``, split into ``(wx, wy)``, the next
    iterate is ``u = wx A' z``, where ``S z = innovation`` and
    ``S = A diag(wx) A' + B_r diag(wy) B_r'``.  This is
    ``x = x_pred + K innovation`` with the reweighted gain ``K`` of
    `fixed_point_iterate`, without forming ``K``.  Each trip works only on
    the runs still iterating: a run leaves once its relative step is at most
    ``epsilon`` or is NaN.

    ``iters`` gains one per iteration of each run.  Returns the final
    iterates ``x``, the ``w_inv`` of each run's last iteration and the
    indices of the runs that hit the iteration cap.
    """
    runs, n = x_pred.shape
    ord_ = 1 if kernel.step_norm == "l1" else 2
    x = x_pred.copy()
    w_inv_last = np.empty((runs, n + b_r.shape[0]))
    active = np.arange(runs)
    u = np.zeros((runs, n))
    x_old = x_pred
    for _ in range(kernel.max_iterations):
        r = innovation - (a @ u[..., None])[..., 0]
        e = np.concatenate([-u, (b_r_inv @ r[..., None])[..., 0]], axis=1)
        w_inv = 1.0 / np.maximum(gaussian_kernel(e, kernel.sigma), WEIGHT_FLOOR)
        s = (a * w_inv[:, None, :n]) @ _mT(a) + (b_r * w_inv[:, None, n:]) @ b_r.T
        z = _solve(s, innovation[..., None])
        u = w_inv[:, :n] * (_mT(a) @ z)[..., 0]
        x_new = x_pred + (b_p @ u[..., None])[..., 0]
        num = np.linalg.norm(x_new - x_old, ord=ord_, axis=1)
        den = np.linalg.norm(x_old, ord=ord_, axis=1)
        tiny = den < _STEP_NORM_GUARD
        rel = np.where(tiny, num, num / np.where(tiny, 1.0, den))
        iters[active] += 1
        x[active] = x_new
        w_inv_last[active] = w_inv
        going = rel > kernel.epsilon
        if not going.all():
            active = active[going]
            if active.size == 0:
                break
            a, b_p, x_pred, innovation, u, x_new = (
                v[going] for v in (a, b_p, x_pred, innovation, u, x_new)
            )
        x_old = x_new
    return x, w_inv_last, active


def _batched_filter(fmodel, kernel, x0_hat, p0, ys, collect_cov):
    """Run one filter over all runs at once; ``kernel is None`` is the KF.

    Both filters share the predict step and the Joseph update.  The KF takes
    the gain of the prior covariances.  The MCKF factors ``B_r = chol(R)``
    and its inverse once per experiment, and ``B_p = chol(P_pred)``,
    ``H B_p`` and the innovation once per step.  Its fixed-point loop
    (`_batched_fixed_point`) then carries only the state and works only on
    the runs still iterating.  After the loop the gain of the reweighted
    covariances ``(P_w, R_w)`` is formed once, from each run's last weights;
    it is the gain `fixed_point_iterate` returns, and the Joseph update uses
    it.  Every product is per run (stacked ``@``, or ``einsum`` where
    ``@`` would be one matrix product over all runs, whose rows BLAS
    computes differently for a single run), so no run's numbers depend on
    the batch.
    """
    runs, steps, _ = ys.shape
    n = fmodel.n
    F, H, Q, R = fmodel.F, fmodel.H, fmodel.Q, fmodel.R
    eye = np.eye(n)
    x = x0_hat.copy()
    p = np.broadcast_to(p0, (runs, n, n)).copy()
    est = np.empty((runs, steps, n))
    iters = np.zeros((runs, steps), dtype=np.int32)
    nonconv = np.zeros(runs, dtype=np.int32)
    covs = np.empty((runs, steps, n, n)) if collect_cov else None
    if kernel is not None:
        b_r = cholesky_stack(_symmetrize(R))
        b_r_inv = np.linalg.solve(b_r, np.eye(fmodel.m))
    for k in range(steps):
        x_pred = np.einsum("ij,rj->ri", F, x)
        p_pred = F @ p @ F.T + Q
        innovation = ys[:, k] - np.einsum("ij,rj->ri", H, x_pred)
        if kernel is None:
            gain = _batch_gain(H, p_pred, R)
            x = x_pred + (gain @ innovation[..., None])[..., 0]
        else:
            b_p = cholesky_stack(_symmetrize(p_pred))
            x, w_inv, capped = _batched_fixed_point(
                kernel, H @ b_p, b_p, b_r, b_r_inv, x_pred, innovation, iters[:, k]
            )
            nonconv[capped] += 1
            p_w = (b_p * w_inv[:, None, :n]) @ _mT(b_p)
            r_w = (b_r * w_inv[:, None, n:]) @ b_r.T
            gain = _batch_gain(H, p_w, r_w)
        ikh = eye - gain @ H
        p = _symmetrize(ikh @ p_pred @ _mT(ikh) + gain @ R @ _mT(gain))
        est[:, k] = x
        if collect_cov:
            covs[:, k] = p
    return est, iters, nonconv, covs


def run_monte_carlo(
    config: ExperimentConfig,
    engine: str = "batched",
    collect_covariances: bool = False,
) -> ExperimentResult:
    """Run the full experiment described by ``config``.

    Parameters
    ----------
    config : ExperimentConfig
        Model, noise case, run/step counts, filter list and master seed.
    engine : {"batched", "reference"}
        Execution strategy.  Both produce the same numbers; the reference
        engine is built step by step on the public filter operations and
        tolerates per-run numerical failures, the batched engine advances
        all runs at once and is the fast default.
    collect_covariances : bool
        Also record the posterior covariance at every step (memory permitting).
    """
    if engine not in ("batched", "reference"):
        raise ConfigParseError(f"unknown engine {engine!r}")
    model = config.resolve_model()
    validate_model(model)
    fmodel = config.filter_model()
    validate_model(fmodel)
    runs, steps, n = config.runs, config.steps, model.n
    nfilters = len(config.filters)
    p0 = config.p0_scale * np.eye(n)

    errors = np.full((nfilters, runs, steps, n), np.nan)
    iterations = np.zeros((nfilters, runs, steps), dtype=np.int32)
    nonconverged = np.zeros((nfilters, runs), dtype=np.int32)
    failed = np.zeros((nfilters, runs), dtype=bool)
    covariances = (
        np.full((nfilters, runs, steps, n, n), np.nan) if collect_covariances else None
    )

    # A diverging run overflows to Inf and NaN; it is marked failed below,
    # so the floating-point warnings on the way there carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        x0_hats, truths, ys = _generate(config, model, range(runs))
        for fi, spec in enumerate(config.filters):
            if engine == "batched":
                est, iters, nonconv, covs = _batched_filter(
                    fmodel, spec.kernel, x0_hats, p0, ys, collect_covariances
                )
                bad = ~np.all(np.isfinite(est), axis=(1, 2))
                failed[fi] = bad
                est[bad] = np.nan
                errors[fi] = est - truths
                iterations[fi] = iters
                nonconverged[fi] = nonconv
                if collect_covariances:
                    covariances[fi] = covs
            else:
                for run in range(runs):
                    try:
                        est, iters, nonconv, covs = _reference_filter_run(
                            fmodel, spec, x0_hats[run], p0, ys[run], collect_covariances
                        )
                    except RobustKFError:
                        failed[fi, run] = True
                        continue
                    errors[fi, run] = est - truths[run]
                    iterations[fi, run] = iters
                    nonconverged[fi, run] = nonconv
                    if collect_covariances:
                        covariances[fi, run] = covs

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
    if bins < 2:
        raise ValueError("bins must be >= 2")
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
