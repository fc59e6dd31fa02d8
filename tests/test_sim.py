import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import robustkf.sim
from robustkf import (
    EmptyInput,
    ExperimentConfig,
    FilterSpec,
    KernelConfig,
    StateSpaceModel,
    error_density,
    generate_run_data,
    make_example1,
    make_example2,
    noise_specs,
    run_monte_carlo,
)
from robustkf.mckf import gaussian_kernel
from robustkf.sim import _generate


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
        np.testing.assert_allclose(fast.errors, slow.errors, atol=1e-9)
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
    "l1-step-norm": dict(
        runs=20,
        filters=(
            FilterSpec("kf"),
            FilterSpec("mckf", KernelConfig(sigma=2.0, epsilon=1e-6, step_norm="l1")),
        ),
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
}


class TestBatchedEngine:
    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_matches_reference_engine(self, case):
        config = small_config(**ENGINE_CASES[case])
        fast = run_monte_carlo(config, engine="batched")
        slow = run_monte_carlo(config, engine="reference")
        np.testing.assert_allclose(fast.errors, slow.errors, atol=1e-9)
        np.testing.assert_array_equal(fast.iterations, slow.iterations)
        np.testing.assert_array_equal(fast.nonconverged, slow.nonconverged)

    def test_cases_reach_their_branches(self):
        spread = run_monte_carlo(small_config(**ENGINE_CASES["impulsive-both"])).iterations[1]
        assert np.any(spread.max(axis=0) > spread.min(axis=0))
        capped = run_monte_carlo(small_config(**ENGINE_CASES["iteration-cap"]))
        assert capped.nonconverged.sum() == 389

    @pytest.mark.parametrize("case", ENGINE_CASES)
    @pytest.mark.parametrize("width", [1, 3])
    def test_run_output_does_not_depend_on_batch(self, case, width):
        config = small_config(**ENGINE_CASES[case])
        wide = run_monte_carlo(config)
        narrow = run_monte_carlo(replace(config, runs=width))
        np.testing.assert_array_equal(narrow.errors, wide.errors[:, :width])
        np.testing.assert_array_equal(narrow.iterations, wide.iterations[:, :width])

    def test_kernel_evaluated_once_per_iteration(self, monkeypatch):
        rows = []

        def counting_kernel(e, sigma):
            rows.append(len(e))
            return gaussian_kernel(e, sigma)

        monkeypatch.setattr(robustkf.sim, "gaussian_kernel", counting_kernel)
        result = run_monte_carlo(small_config(**ENGINE_CASES["impulsive-both"]))
        assert sum(rows) == result.iterations[1].sum()


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
