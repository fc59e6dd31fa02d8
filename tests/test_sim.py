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
    build_regression,
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
from robustkf.mckf import gaussian_kernel
from robustkf.numerics import PSD_RTOL
from robustkf.sim import _generate

from conftest import random_model


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

    def test_huge_bandwidth_matches_baseline_mse(self):
        config = small_config(
            runs=10,
            steps=100,
            filters=(
                FilterSpec("kf"),
                FilterSpec("mckf", KernelConfig(sigma=1e6, epsilon=1e-8)),
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
    # m = 2: the innovation systems are solved, not divided.
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
                reg = build_regression(fmodel, kf_predict(fmodel, belief), y)
                _, _, oracle = fixed_point_iterate(reg, kernel)
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
        gain = robustkf.mckf._gain

        def counting_gain(H, p, r):
            widths.append(p.shape[0])
            return gain(H, p, r)

        monkeypatch.setattr(robustkf.mckf, "_gain", counting_gain)
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
