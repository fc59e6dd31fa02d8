import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustkf.mckf
import robustkf.sim
from robustkf import (
    ConfigParseError,
    EmptyInput,
    RandomStream,
    ExperimentConfig,
    FilterSpec,
    GaussianBelief,
    KernelConfig,
    StateSpaceModel,
    error_density,
    fixed_point_iterate,
    generate_run_data,
    kf_predict,
    make_example1,
    make_example2,
    mckf_step,
    noise_specs,
    run_monte_carlo,
    substream_seed,
)
from robustkf.mckf import _filter_step, gaussian_kernel
from robustkf.numerics import PSD_RTOL
from robustkf.sim import _generate, _reference_step

from conftest import random_model, random_spd


_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(seed: int, k: int) -> int:
    """``mix64(seed + (k + 1) * GAMMA)`` on Python ints.

    The documented contract for both the k-th raw draw of a stream and the
    seed of its k-th substream.
    """
    z = (seed + (k + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _oracle_uniforms(seed: int, count: int) -> list[float]:
    return [((_splitmix(seed, k) >> 11) + 0.5) * 2.0**-53 for k in range(count)]


def _oracle_normal(u1: float, u2: float) -> float:
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _oracle_mixture(spec, steps: int, seed: int) -> list[list[float]]:
    u = iter(_oracle_uniforms(seed, 3 * spec.dim * steps))
    out = []
    for _ in range(steps):
        row = []
        for coord in spec.components:
            pick, u1, u2 = next(u), next(u), next(u)
            cum, chosen = 0.0, coord[-1]
            for comp in coord:
                cum += comp[0]
                if pick < cum:
                    chosen = comp
                    break
            _, mu, var = chosen
            row.append(mu + math.sqrt(var) * _oracle_normal(u1, u2))
        out.append(row)
    return out


def _oracle_run_data(config, run: int):
    """One run's data rebuilt from the reproducibility contract in pure Python."""
    model = config.resolve_model()
    F, H = model.F.tolist(), model.H.tolist()
    q_spec, r_spec = noise_specs(config.noise_case, model.n, model.m)
    run_seed = _splitmix(config.master_seed & _MASK64, run)
    init, proc, meas = (_splitmix(run_seed, role) for role in range(3))
    u = _oracle_uniforms(init, 2 * model.n)
    x0 = config.resolve_x0().tolist()
    sd = math.sqrt(config.init_perturb_var)
    x0_hat = [x0[i] + sd * _oracle_normal(u[2 * i], u[2 * i + 1]) for i in range(model.n)]
    qs = _oracle_mixture(q_spec, config.steps, proc)
    rs = _oracle_mixture(r_spec, config.steps, meas)
    x, truths, ys = x0, [], []
    for q, r in zip(qs, rs):
        x = [sum(f * v for f, v in zip(row, x)) + qi for row, qi in zip(F, q)]
        truths.append(x)
        ys.append([sum(h * v for h, v in zip(row, x)) + ri for row, ri in zip(H, r)])
    return run_seed, x0_hat, truths, ys


def small_config(**overrides):
    base = dict(
        example="example1",
        noise_case="impulsive-measurement",
        runs=3,
        steps=40,
        filters=(
            FilterSpec("kf"),
            FilterSpec("mckf", KernelConfig(sigma=2.0, epsilon=1e-6)),
        ),
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExampleModels:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(make_example1(theta=0.0).F, np.eye(2))

    def test_default_rotation_entry(self):
        model = make_example1()
        assert model.F[0, 0] == pytest.approx(math.cos(math.pi / 18))
        assert model.F[0, 0] == pytest.approx(0.984808, abs=1e-6)
        np.testing.assert_allclose(model.H, [[1.0, 1.0]])
        np.testing.assert_allclose(model.Q, 0.01 * np.eye(2))
        np.testing.assert_allclose(model.R, [[0.01]])

    def test_rotation_has_unit_determinant(self):
        for theta in (0.1, 1.0, 2.5):
            assert np.linalg.det(make_example1(theta).F) == pytest.approx(1.0)

    def test_acceleration_chain_structure(self):
        model = make_example2(dt=0.1)
        np.testing.assert_allclose(
            model.F, [[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_allclose(model.H, [[0.0, 1.0, 0.0]])
        assert np.linalg.det(model.F) == pytest.approx(1.0)
        assert np.allclose(model.F, np.triu(model.F))

    def test_speed_is_the_observed_coordinate(self):
        model = make_example2()
        x = np.array([3.0, 5.0, 7.0])
        np.testing.assert_allclose(model.H @ x, [5.0])

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            make_example2(dt=0.0)


class TestNoiseSpecs:
    def test_cases_have_expected_shapes(self):
        for case in ("gaussian", "impulsive-measurement", "impulsive-both", "none"):
            q, r = noise_specs(case, 3, 1)
            assert q.dim == 3 and r.dim == 1

    def test_impulsive_measurement_mixture(self):
        _, r = noise_specs("impulsive-measurement", 2, 1)
        assert r.components[0] == ((0.9, 0.0, 0.01), (0.1, 0.0, 100.0))


class TestRunMonteCarlo:
    def test_deterministic_for_equal_configs(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config())
        np.testing.assert_array_equal(a.mse, b.mse)
        np.testing.assert_array_equal(a.errors, b.errors)
        np.testing.assert_array_equal(a.iterations, b.iterations)

    def test_engines_agree(self):
        config = small_config()
        fast = run_monte_carlo(config, engine="batched")
        slow = run_monte_carlo(config, engine="reference")
        np.testing.assert_allclose(fast.errors, slow.errors, rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(fast.iterations, slow.iterations)
        np.testing.assert_array_equal(fast.nonconverged, slow.nonconverged)
        np.testing.assert_allclose(fast.mse, slow.mse, rtol=1e-9, atol=1e-12)

    def test_zero_noise_exact_tracking(self):
        config = small_config(noise_case="none", init_perturb_var=0.0, runs=2, steps=25)
        result = run_monte_carlo(config)
        np.testing.assert_array_equal(result.errors, np.zeros_like(result.errors))
        np.testing.assert_array_equal(result.mse, np.zeros_like(result.mse))

    def test_filters_share_measurements(self):
        solo = run_monte_carlo(small_config(filters=(FilterSpec("kf"),)))
        both = run_monte_carlo(small_config())
        np.testing.assert_array_equal(solo.errors[0], both.errors[0])

    def test_run_data_matches_batched_generation(self):
        # Exact: a run's data must not depend on how many runs are generated.
        for example in ("example1", "example2"):
            config = small_config(example=example, runs=4)
            model = config.resolve_model()
            x0_hats, truths, ys = _generate(config, model, range(config.runs))
            for run in range(config.runs):
                data = generate_run_data(config, run)
                np.testing.assert_array_equal(data.x0_hat, x0_hats[run])
                np.testing.assert_array_equal(data.truths, truths[run])
                np.testing.assert_array_equal(data.measurements, ys[run])

    @pytest.mark.parametrize("master_seed", [0, -1, 2**64 + 5])
    def test_generation_matches_independent_oracle(self, master_seed):
        # Seeds are taken modulo 2**64, as substream_seed does on Python ints.
        config = small_config(
            example="example2", noise_case="impulsive-both", runs=3, steps=12,
            master_seed=master_seed,
        )
        x0_hats, truths, ys = _generate(config, config.resolve_model(), range(config.runs))
        run_seeds = substream_seed(master_seed, np.arange(config.runs))
        for run in range(config.runs):
            run_seed, x0_hat, o_truths, o_ys = _oracle_run_data(config, run)
            assert substream_seed(master_seed, run) == run_seed == int(run_seeds[run])
            role_seeds = [_splitmix(run_seed, role) for role in range(3)]
            assert [substream_seed(run_seed, role) for role in range(3)] == role_seeds
            for seed in role_seeds:
                assert RandomStream(seed).raw(8).tolist() == [_splitmix(seed, k) for k in range(8)]
            np.testing.assert_allclose(x0_hats[run], x0_hat, rtol=1e-13, atol=0.0)
            # Summation order differs from einsum's, so the comparison of the
            # propagated states allows round-off relative to their scale.
            for got, want in ((truths[run], o_truths), (ys[run], o_ys)):
                want = np.array(want)
                np.testing.assert_allclose(
                    got, want, rtol=1e-13, atol=1e-13 * float(np.max(np.abs(want)))
                )

    def test_generation_across_chunk_boundaries(self):
        config = small_config(noise_case="impulsive-both", steps=2000)
        model = config.resolve_model()
        chunk = robustkf.sim.GENERATION_CHUNK_UNIFORMS // (3 * max(model.n, model.m) * config.steps)
        assert chunk >= 2
        config = replace(config, runs=2 * chunk + 1)
        x0_hats, truths, ys = _generate(config, model, range(config.runs))
        for run in range(config.runs):
            data = generate_run_data(config, run)
            np.testing.assert_array_equal(data.x0_hat, x0_hats[run])
            np.testing.assert_array_equal(data.truths, truths[run])
            np.testing.assert_array_equal(data.measurements, ys[run])

    def test_diverging_runs_fail_alike_on_both_engines(self):
        # |50^k| overflows long before step 400, in the truths and in the
        # filters alike.
        model = StateSpaceModel(
            F=np.diag([50.0, 1.0]), H=[[1.0, 1.0]], Q=0.01 * np.eye(2), R=[[0.01]]
        )
        config = small_config(
            example="custom", custom_model=model, true_x0=(0.0, 0.0), runs=2, steps=400
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fast = run_monte_carlo(config, engine="batched")
            slow = run_monte_carlo(config, engine="reference")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        np.testing.assert_array_equal(fast.failed_runs, np.ones((2, 2), dtype=bool))
        np.testing.assert_array_equal(slow.failed_runs, fast.failed_runs)

    @pytest.mark.parametrize("r", [1.0, 0.01])
    def test_run_whose_measurement_overflows_fails_alike_on_both_engines(self, r):
        # The truth grows by 1e10 a step from 1.7e8: the 30th measurement is
        # 1.7e308, near the float maximum, and the 31st overflows.  With R < 1
        # the whitened measurement B_r^-1 y overflows, the whitened innovation not.
        model = StateSpaceModel(F=[[1e10]], H=[[1.0]], Q=[[0.01]], R=[[r]])
        config = small_config(
            example="custom", custom_model=model, true_x0=(1.7e8,), noise_case="gaussian",
            assumed_r=[[r]],
        )
        for steps, failed in ((30, False), (31, True)):
            for engine in ("batched", "reference"):
                result = run_monte_carlo(replace(config, steps=steps), engine=engine)
                assert np.all(result.failed_runs == failed), (steps, engine)

    def test_failed_runs_report_no_iterations_on_both_engines(self):
        # Every run diverges, each after hundreds of fixed-point iterations.
        model = StateSpaceModel(
            F=np.diag([50.0, 1.0]), H=[[1.0, 1.0]], Q=0.01 * np.eye(2), R=[[0.01]]
        )
        kernel = KernelConfig(sigma=0.5, epsilon=1e-6, max_iterations=3)
        config = small_config(
            example="custom", custom_model=model, true_x0=(0.0, 0.0), runs=3, steps=400,
            noise_case="impulsive-both", filters=(FilterSpec("mckf", kernel),), master_seed=3,
        )
        for engine in ("batched", "reference"):
            result = run_monte_carlo(config, engine=engine, collect_covariances=True)
            assert result.failed_runs.all(), engine
            assert not result.iterations.any() and not result.nonconverged.any(), engine
            assert np.isnan(result.covariances).all(), engine

    @pytest.mark.parametrize("sigma", [1e6, math.inf])
    def test_huge_bandwidth_matches_baseline_mse(self, sigma):
        config = small_config(
            runs=10,
            steps=100,
            filters=(
                FilterSpec("kf"),
                FilterSpec("mckf", KernelConfig(sigma=sigma, epsilon=1e-8)),
            ),
        )
        result = run_monte_carlo(config)
        np.testing.assert_allclose(result.mse[1], result.mse[0], rtol=1e-3)

    def test_average_iterations_and_convergence_accounting(self):
        result = run_monte_carlo(small_config())
        assert math.isnan(result.avg_iterations[0])
        assert result.avg_iterations[1] >= 1.0
        assert result.iterations[1].min() >= 1
        assert result.nonconverged.min() >= 0

    def test_custom_example_without_true_x0_is_rejected_when_built(self):
        model = StateSpaceModel(F=[[1.0]], H=[[1.0]], Q=[[1.0]], R=[[1.0]])
        with pytest.raises(ConfigParseError, match="true_x0"):
            small_config(example="custom", custom_model=model)

    @pytest.mark.parametrize("seed", ["abc", None, 2.5, True])
    def test_master_seed_that_is_not_an_integer_is_rejected_when_built(self, seed):
        with pytest.raises(ConfigParseError, match="master_seed"):
            small_config(master_seed=seed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FilterSpec("kf", KernelConfig(sigma=2.0, epsilon=1e-6)),
            lambda: FilterSpec("mckf"),
            lambda: small_config(example="example3"),
            lambda: small_config(filters=()),
            lambda: run_monte_carlo(small_config(), engine="fast"),
            lambda: small_config(custom_model=make_example2()),
        ],
        ids=[
            "kf-with-kernel",
            "mckf-without-kernel",
            "unknown-example",
            "no-filters",
            "unknown-engine",
            "custom-model-of-a-named-example",
        ],
    )
    def test_bad_config_is_rejected(self, build):
        with pytest.raises(ConfigParseError):
            build()

    def test_collect_covariances(self):
        result = run_monte_carlo(small_config(runs=2, steps=10), collect_covariances=True)
        assert result.covariances.shape == (2, 2, 10, 2, 2)
        assert np.all(np.isfinite(result.covariances))


#: Configs that reach each branch of the batched fixed-point loop.
ENGINE_CASES = {
    # Runs leave the active set on different trips of one step.
    "impulsive-both": dict(noise_case="impulsive-both", runs=40, steps=30),
    # Most steps hit the iteration cap (389 of 400 at seed 11).
    "iteration-cap": dict(
        runs=10,
        filters=(FilterSpec("mckf", KernelConfig(sigma=0.5, epsilon=1e-12, max_iterations=2)),),
    ),
    # m = 2: each update takes its second measurement against a downdated factor.
    "two-measurements": dict(
        example="custom",
        custom_model=StateSpaceModel(
            F=make_example2().F,
            H=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            Q=0.01 * np.eye(3),
            R=0.01 * np.eye(2),
        ),
        true_x0=(0.0, 0.0, 1.0),
        runs=20,
    ),
    # Steps end below the cap, converge on the last permitted trip, or are
    # capped: 88, 339 and 173 of 600 at seed 11.
    "cap-on-last-trip": dict(
        noise_case="impulsive-both",
        runs=20,
        steps=30,
        filters=(FilterSpec("mckf", KernelConfig(sigma=2.0, epsilon=1e-6, max_iterations=3)),),
    ),
    # A singular prior: Q = 0 and P0 = 0 keep the KF's P at zero, so its
    # gain is exactly zero; a perturbed Cholesky factor of P would not be.
    "zero-prior-covariance": dict(
        example="custom",
        custom_model=StateSpaceModel(
            F=make_example2().F, H=[[0.0, 1.0, 0.0]], Q=np.zeros((3, 3)), R=[[0.01]]
        ),
        true_x0=(0.0, 0.0, 1.0),
        noise_case="gaussian",
        assumed_q=np.zeros((3, 3)),
        p0_scale=0.0,
        steps=100,
    ),
    # A partly singular prior: P0 = 0 and Q = diag(0, 0, 0.01) give predicted
    # covariances of rank 1 and 2 on the first two steps, whose factors have
    # zero columns beside nonzero ones.
    "rank-deficient-prior": dict(
        example="custom",
        custom_model=StateSpaceModel(
            F=make_example2().F, H=[[0.0, 1.0, 0.0]], Q=np.diag([0.0, 0.0, 0.01]), R=[[0.01]]
        ),
        true_x0=(0.0, 0.0, 1.0),
        assumed_q=np.diag([0.0, 0.0, 0.01]),
        p0_scale=0.0,
    ),
    # n = 5, m = 2: the example-2 and example-1 dynamics side by side, damped
    # to be stable, one state of each block observed; the only case with n > 3.
    "wide": dict(
        example="custom",
        custom_model=StateSpaceModel(
            F=0.95 * np.block([
                [make_example2().F, np.zeros((3, 2))],
                [np.zeros((2, 3)), make_example1().F],
            ]),
            H=[[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0]],
            Q=0.01 * np.eye(5),
            R=0.01 * np.eye(2),
        ),
        true_x0=(0.0, 0.0, 1.0, 1.0, 0.0),
        noise_case="impulsive-both",
        runs=20,
        steps=30,
    ),
    # A bandwidth whose 2 sigma^2 underflows to -0.0: the kernel must take
    # exp(-(e / sigma)^2 / 2), or a zero residual's weight is 0 / 0 = NaN.
    "vanishing-bandwidth": dict(
        runs=10,
        filters=(FilterSpec("mckf", KernelConfig(sigma=1e-170, epsilon=1e-6)),),
    ),
}


class TestBatchedEngine:
    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_matches_reference_engine(self, case):
        config = small_config(**ENGINE_CASES[case])
        fast = run_monte_carlo(config, engine="batched", collect_covariances=True)
        slow = run_monte_carlo(config, engine="reference", collect_covariances=True)
        np.testing.assert_allclose(fast.errors, slow.errors, rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(fast.iterations, slow.iterations)
        np.testing.assert_array_equal(fast.nonconverged, slow.nonconverged)
        np.testing.assert_array_equal(fast.failed_runs, slow.failed_runs)
        np.testing.assert_allclose(fast.covariances, slow.covariances, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_mckf_covariances_are_symmetric_and_psd(self, case):
        # GaussianBelief._from_filter takes the step's covariance as it is.
        config = small_config(**ENGINE_CASES[case])
        result = run_monte_carlo(config, collect_covariances=True)
        for fi, spec in enumerate(config.filters):
            if spec.kind != "mckf":
                continue
            p = result.covariances[fi][~result.failed_runs[fi]]
            assert p.size and np.array_equal(p, p.swapaxes(-1, -2))
            scale = np.abs(p).max(axis=(-2, -1))
            assert np.all(np.linalg.eigvalsh(p)[..., 0] >= -PSD_RTOL * scale)

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_huge_bandwidth_mckf_is_the_kf_on_a_singular_prior(self, engine):
        # P stays zero, so the KF's gain is zero; the MCKF factors P exactly,
        # with zero columns, so its gain is zero as well.
        filters = (FilterSpec("kf"), FilterSpec("mckf", KernelConfig(sigma=1e8, epsilon=1e-6)))
        config = small_config(**{**ENGINE_CASES["zero-prior-covariance"], "steps": 300})
        kf, mckf = run_monte_carlo(replace(config, filters=filters), engine=engine).errors
        assert np.max(np.abs(mckf - kf)) <= 1e-12

    def test_cases_reach_their_branches(self):
        spread = run_monte_carlo(small_config(**ENGINE_CASES["impulsive-both"])).iterations[1]
        assert np.any(spread.max(axis=0) > spread.min(axis=0))
        capped = run_monte_carlo(small_config(**ENGINE_CASES["iteration-cap"]))
        assert capped.nonconverged.sum() == 389

    def test_cap_case_reaches_every_exit(self):
        # A step ends below the cap, converges on the last permitted trip
        # (not capped), or is capped; the loop writes each run out on exit.
        result = run_monte_carlo(small_config(**ENGINE_CASES["cap-on-last-trip"]))
        iterations, capped = result.iterations[0], int(result.nonconverged.sum())
        assert int(np.sum(iterations < 3)) == 88
        assert int(np.sum(iterations == 3)) - capped == 339
        assert capped == 173

    @pytest.mark.parametrize("case", ENGINE_CASES)
    @pytest.mark.parametrize("width", [1, 3])
    def test_run_output_does_not_depend_on_batch(self, case, width):
        # The MCKF's covariances flow from its final gain, formed per run.
        config = small_config(**ENGINE_CASES[case])
        wide = run_monte_carlo(config, collect_covariances=True)
        narrow = run_monte_carlo(replace(config, runs=width), collect_covariances=True)
        for field in ("errors", "iterations", "nonconverged", "covariances"):
            np.testing.assert_array_equal(
                getattr(narrow, field), getattr(wide, field)[:, :width], err_msg=field
            )

    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_mckf_step_is_the_engine_step(self, case):
        # Bit for bit: mckf_step runs the engine's step on a batch of one run.
        config = small_config(**ENGINE_CASES[case])
        fi = next(i for i, f in enumerate(config.filters) if f.kind == "mckf")
        kernel = config.filters[fi].kernel
        result = run_monte_carlo(config)
        fmodel = config.filter_model()
        for run in range(3):
            data = generate_run_data(config, run)
            belief = GaussianBelief(data.x0_hat, config.p0_scale * np.eye(fmodel.n))
            est = np.empty_like(data.truths)
            iters = np.empty(config.steps, dtype=result.iterations.dtype)
            for k, y in enumerate(data.measurements):
                _, _, oracle = fixed_point_iterate(fmodel, kf_predict(fmodel, belief), y, kernel)
                belief, report = mckf_step(fmodel, belief, y, kernel)
                est[k], iters[k] = belief.mean, report.iterations
                assert (report.iterations, report.converged) == (oracle.iterations, oracle.converged)
                np.testing.assert_allclose(
                    report.final_weights, oracle.final_weights, rtol=1e-12, atol=0.0
                )
                # The last step is a difference of two nearly equal iterates,
                # each rounded to about eps * |x|, and it is divided by |x|:
                # the two forms' rounding enters it as an absolute ~eps.
                np.testing.assert_allclose(
                    report.last_relative_step, oracle.last_relative_step, rtol=1e-12, atol=1e-15
                )
            np.testing.assert_array_equal(est - data.truths, result.errors[fi, run])
            np.testing.assert_array_equal(iters, result.iterations[fi, run])

    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_step_writes_into_none_of_its_inputs(self, case):
        # The step writes in place (the update's estimate and factor),
        # always into arrays of its own.
        config = small_config(**ENGINE_CASES[case])
        model, fmodel = config.resolve_model(), config.filter_model()
        n, (x0_hats, _, ys) = model.n, _generate(config, model, range(config.runs))
        for spec in config.filters:
            x, p = x0_hats, np.broadcast_to(config.p0_scale * np.eye(n), (config.runs, n, n)).copy()
            for k in range(config.steps):
                inputs = (x, p, ys[:, k])
                before = [a.copy() for a in inputs]
                x, p = _filter_step(fmodel, spec.kernel, *inputs)[:2]
                assert all(map(np.array_equal, inputs, before))
            if spec.kind != "mckf":
                continue
            data = generate_run_data(config, 0)
            belief = GaussianBelief(data.x0_hat, config.p0_scale * np.eye(n))
            for y in data.measurements:
                inputs = (belief.mean, belief.cov, y)
                before = [a.copy() for a in inputs]
                belief = mckf_step(fmodel, belief, y, spec.kernel)[0]
                assert all(map(np.array_equal, inputs, before))

    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_engine_steps_report_alike(self, case):
        # Both engines' steps fill one per-run FixedPointReport: fed the same
        # beliefs and measurements, along the batched trajectory, the two
        # solves report the same counts, cap hits, weights and last steps.
        config = small_config(**ENGINE_CASES[case])
        model, fmodel = config.resolve_model(), config.filter_model()
        n, (x0_hats, _, ys) = model.n, _generate(config, model, range(config.runs))
        for spec in config.filters:
            if spec.kind != "mckf":
                continue
            x, p = x0_hats, np.broadcast_to(config.p0_scale * np.eye(n), (config.runs, n, n)).copy()
            for k in range(config.steps):
                slow = _reference_step(fmodel, spec.kernel, x, p, ys[:, k])[2]
                x, p, fast = _filter_step(fmodel, spec.kernel, x, p, ys[:, k])
                np.testing.assert_array_equal(fast.iterations, slow.iterations)
                np.testing.assert_array_equal(fast.converged, slow.converged)
                np.testing.assert_allclose(
                    fast.final_weights, slow.final_weights, rtol=1e-12, atol=0.0
                )
                np.testing.assert_allclose(
                    fast.last_relative_step, slow.last_relative_step, rtol=0.0, atol=1e-14
                )

    @pytest.mark.parametrize("case", ["impulsive-both", "two-measurements"])
    def test_kf_covariance_is_one_track_for_all_runs(self, case):
        config = small_config(**ENGINE_CASES[case])
        fi = next(i for i, f in enumerate(config.filters) if f.kind == "kf")
        wide = run_monte_carlo(config, collect_covariances=True).covariances[fi]
        single = run_monte_carlo(replace(config, runs=1), collect_covariances=True).covariances[fi]
        assert np.all(wide == wide[:1])
        np.testing.assert_array_equal(wide[:1], single)

    def test_kf_gain_is_formed_once_per_step(self, monkeypatch):
        widths = []
        whitened_update = robustkf.mckf._whitened_update

        def counting_update(a_w, w_inv):
            widths.append(len(a_w))
            return whitened_update(a_w, w_inv)

        monkeypatch.setattr(robustkf.mckf, "_whitened_update", counting_update)
        config = small_config(runs=5, filters=(FilterSpec("kf"),))
        run_monte_carlo(config)
        assert widths == [1] * config.steps

    def test_kernel_evaluated_once_per_iteration(self, monkeypatch):
        rows = []

        def counting_kernel(e, sigma):
            rows.append(len(e))
            return gaussian_kernel(e, sigma)

        monkeypatch.setattr(robustkf.mckf, "gaussian_kernel", counting_kernel)
        result = run_monte_carlo(small_config(**ENGINE_CASES["impulsive-both"]))
        assert sum(rows) == result.iterations[1].sum()

    def test_whitened_update_runs_once_per_iteration(self, monkeypatch):
        # The final gain is B_p K_u of the last trip's update; it runs none of
        # its own.  The KF runs one update per step on its shared track.
        rows = []
        whitened_update = robustkf.mckf._whitened_update

        def counting_update(a_w, w_inv):
            rows.append(len(a_w))
            return whitened_update(a_w, w_inv)

        monkeypatch.setattr(robustkf.mckf, "_whitened_update", counting_update)
        config = small_config(**ENGINE_CASES["impulsive-both"])
        result = run_monte_carlo(config)
        assert sum(rows) == result.iterations[1].sum() + config.steps

    def test_reference_mckf_solves_once_per_run_step_and_builds_no_regression(self, monkeypatch):
        # The reference MCKF whitens with the model's factors: its solve takes
        # the model, prior and measurement, and no x-space regression is built.
        calls = []

        def spy(name, wrapped):
            def call(*args):
                calls.append(name)
                return wrapped(*args)

            return call

        direct = spy("fixed_point_direct", robustkf.sim.fixed_point_direct)
        monkeypatch.setattr(robustkf.sim, "fixed_point_direct", direct)
        build = spy("build_regression", robustkf.mckf.build_regression)
        for module in (robustkf.mckf, robustkf.sim):  # wherever the step could find it
            monkeypatch.setattr(module, "build_regression", build, raising=False)
        config = small_config(**{**ENGINE_CASES["impulsive-both"], "runs": 5, "steps": 10})
        result = run_monte_carlo(config, engine="reference")
        assert not result.failed_runs.any()
        assert calls == ["fixed_point_direct"] * (config.runs * config.steps)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    zero_q=st.sampled_from((False, True, False)),
    p0_scale=st.sampled_from((0.0, 0.01)),
)
@example(seed=81, dims=(5, 1), zero_q=True, p0_scale=0.0)
def test_kf_engines_agree_on_random_models(seed, dims, zero_q, p0_scale):
    # With Q = 0 and P0 = 0 the predicted covariance is singular, so only a
    # gain formed without factorizing P keeps the engines together, and only
    # an exact factor of P keeps a huge-bandwidth MCKF on the KF.
    rng = np.random.default_rng(seed)
    model = random_model(rng, *dims)
    config = ExperimentConfig(
        example="custom",
        custom_model=model,
        true_x0=tuple(rng.standard_normal(model.n)),
        runs=3,
        steps=20,
        filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(sigma=1e8, epsilon=1e-6))),
        p0_scale=p0_scale,
        assumed_q=np.zeros((model.n, model.n)) if zero_q else model.Q,
        assumed_r=model.R,
    )
    fast = run_monte_carlo(config, engine="batched")
    slow = run_monte_carlo(config, engine="reference")
    np.testing.assert_array_equal(fast.failed_runs, slow.failed_runs)
    np.testing.assert_allclose(fast.errors, slow.errors, rtol=0.0, atol=1e-9)
    for kf, mckf in (fast.errors, slow.errors):
        assert np.max(np.abs(mckf - kf)) <= 1e-11 * (1.0 + np.max(np.abs(kf)))


def _sweep_draw(draw, *specs):
    """Config of one draw of the MCKF property sweep, and its drawn kernel.

    numpy seed 1000 + draw; n, m, F, H, Q, R, sigma, cap and true_x0 drawn in
    that order; F at spectral radius (0.95, 1.2, 2, 5)[draw % 4]; noise case
    (gaussian, impulsive-measurement, impulsive-both)[draw % 3]; a filter Q of
    0 in odd draws; master seed = draw; 4 runs x 60 steps.  The filters are
    ``specs`` followed by an MCKF with the drawn kernel and epsilon 1e-6.
    """
    rng = np.random.default_rng(1000 + draw)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, n + 1))
    f = rng.standard_normal((n, n))
    f = (0.95, 1.2, 2.0, 5.0)[draw % 4] * f / np.max(np.abs(np.linalg.eigvals(f)))
    h = rng.standard_normal((m, n))
    q, r = random_spd(rng, n, 0.05), random_spd(rng, m, 0.1)
    kernel = KernelConfig(
        sigma=10.0 ** rng.uniform(-3, 8), epsilon=1e-6, max_iterations=int(rng.integers(1, 6))
    )
    return ExperimentConfig(
        example="custom",
        custom_model=StateSpaceModel(F=f, H=h, Q=q, R=r),
        true_x0=tuple(rng.standard_normal(n)),
        noise_case=("gaussian", "impulsive-measurement", "impulsive-both")[draw % 3],
        runs=4,
        steps=60,
        filters=(*specs, FilterSpec("mckf", kernel)),
        master_seed=draw,
        assumed_q=np.zeros((n, n)) if draw % 2 else q,
        assumed_r=r,
    )


def _assert_engines_agree(config):
    fast = run_monte_carlo(config, engine="batched")
    slow = run_monte_carlo(config, engine="reference")
    for field in ("failed_runs", "iterations", "nonconverged"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(slow, field), err_msg=field)
    # The surviving runs' estimates, to 1e-7 of the state's scale (the largest
    # |truth| or |error|), the batched update's bound against the extended-
    # precision oracle at m >= 2.  Over the 400 draws the worst is 7.1e-9 (227).
    ok = ~slow.failed_runs
    truths = _generate(config, config.resolve_model(), range(config.runs))[1]
    truths = np.broadcast_to(truths, slow.errors.shape)[ok]
    scale = max(np.abs(truths).max(initial=0.0), np.abs(slow.errors[ok]).max(initial=0.0))
    np.testing.assert_allclose(fast.errors[ok], slow.errors[ok], rtol=0.0, atol=1e-7 * scale)


@pytest.mark.parametrize("draw", [23, 119, 227, 342])
def test_engines_agree_on_hard_sweep_draws(draw):
    # Sweep draws whose updates are badly conditioned, so estimates are
    # compared to the state's scale, as covariances span many orders of magnitude.
    # 23: F at spectral radius 5 and a filter Q of 0.  A Joseph sum that is no
    # Gram product fails the next belief's eigenvalue test here (in 3 of the 4
    # MCKF runs), where a Gram product does not, so both engines must write one.
    # 119: n = 4, m = 3, sigma 4081, cap 4.  At step 49 of run 0 the x-space
    # gain form's H P_w H' + R_w has a zero pivot; the whitened forms factor none.
    # 227: spectral radius 5.  After 27 steps the gain form's round-off moves
    # the iteration counts of 2 steps of one run.
    # 342: n = m = 2, F at spectral radius 2, gaussian noise and sigma about
    # 0.06: at step 22 a state weight at the floor (w_x = 1e12) beside a
    # predicted covariance with eigenvalues 0.375 and 5.5e10 makes an m x m
    # innovation system A_w diag(w_x) A_w' + diag(w_y) numerically singular.
    # Taken one measurement at a time, the update divides only by alpha >= 1.
    _assert_engines_agree(_sweep_draw(draw, FilterSpec("kf")))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(draw=st.integers(0, 399))
def test_engines_agree_on_the_mckf_sweep(draw):
    # 50 of the sweep's 400 draws: all 400 agree, but take about a minute.
    _assert_engines_agree(_sweep_draw(draw))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    sigma=st.floats(0.1, 1e4),
)
def test_mckf_covariances_are_exactly_symmetric_on_random_models(seed, dims, sigma):
    # The Gram product G G' is a general matrix product, symmetric because each
    # element pair sums the same products in the same order; ENGINE_CASES build
    # only a few of the shapes (n, n + m) that this rests on.  The KF
    # (kernel None) writes its covariance by the same product.
    rng = np.random.default_rng(seed)
    model = random_model(rng, *dims)
    for kernel, width in itertools.product((KernelConfig(sigma=sigma, epsilon=1e-6), None), (1, 64)):
        x = rng.standard_normal((width, model.n))
        p = np.stack([random_spd(rng, model.n, 0.5) for _ in range(width)])
        y = rng.standard_normal((width, model.m)) * 10.0 ** rng.integers(0, 3, (width, 1))
        p = _filter_step(model, kernel, x, p, y)[1]
        assert np.array_equal(p, p.swapaxes(-1, -2))
        scale = np.abs(p).max(axis=(-2, -1))
        assert np.all(np.linalg.eigvalsh(p)[..., 0] >= -PSD_RTOL * scale)


class TestErrorDensity:
    def test_point_mass_lands_in_center_bin(self):
        hist = error_density(np.zeros(1000), bins=11, value_range=(-1.0, 1.0))
        assert hist.masses[5] == 1.0
        assert float(np.sum(hist.masses)) == 1.0

    def test_uniform_grid_spreads_evenly(self):
        centers = np.linspace(-0.9, 0.9, 10)
        samples = np.repeat(centers, 50)
        hist = error_density(samples, bins=10, value_range=(-1.0, 1.0))
        assert float(np.max(hist.masses) - np.min(hist.masses)) <= 0.01

    def test_conservation_is_exact(self, rng):
        samples = rng.standard_normal(5000) * 3.0
        hist = error_density(samples, bins=31, value_range=(-2.0, 2.0))
        assert float(np.sum(hist.masses)) + hist.out_of_range_fraction == 1.0
        assert hist.out_of_range_fraction > 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            error_density(np.array([]), bins=5, value_range=(-1.0, 1.0))

    def test_bad_bins_and_range(self):
        with pytest.raises(ValueError):
            error_density(np.zeros(5), bins=1, value_range=(-1.0, 1.0))
        with pytest.raises(ValueError):
            error_density(np.zeros(5), bins=5, value_range=(1.0, -1.0))
