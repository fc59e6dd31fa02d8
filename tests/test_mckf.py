import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustkf import (
    DimensionMismatch,
    EmptyInput,
    ExperimentConfig,
    GaussianBelief,
    InvalidBandwidth,
    KernelConfig,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    RobustKFError,
    StateSpaceModel,
    build_regression,
    compute_residuals,
    correntropy_estimate,
    fixed_point_direct,
    fixed_point_iterate,
    fixed_point_map,
    gaussian_kernel,
    generate_run_data,
    kernel_weights,
    kf_predict,
    kf_update,
    make_example1,
    make_example2,
    mckf_step,
    min_eigenvalue_symmetric,
    robust_gain,
    sufficient_sigma,
    zeta,
)
from robustkf.mckf import (
    WEIGHT_FLOOR,
    _filter_step,
    _filter_update,
    _gain,
    _whitened_system,
    weighted_qr_map,
)
from robustkf.sim import _joseph
from conftest import random_model, random_regression, random_spd


def scalar_regression(p=1.0, r=1.0, h=1.0, x_prior=0.0, y=0.0):
    model = StateSpaceModel(F=[[1.0]], H=[[h]], Q=[[0.0]], R=[[r]])
    prior = GaussianBelief([x_prior], [[p]])
    return model, prior, build_regression(model, prior, [y])


class TestGaussianKernel:
    def test_zero_error(self):
        assert gaussian_kernel(0.0, 3.0) == 1.0

    def test_unit_point(self):
        assert gaussian_kernel(1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_half_height_point(self):
        sigma = 1.7
        assert gaussian_kernel(sigma * math.sqrt(2.0 * math.log(2.0)), sigma) == pytest.approx(0.5)

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidBandwidth):
            gaussian_kernel(1.0, 0.0)


class TestCorrentropyEstimate:
    def test_zero_errors(self):
        assert correntropy_estimate(np.zeros(5), 2.0) == 1.0

    def test_symmetric_pair(self):
        assert correntropy_estimate(np.array([1.0, -1.0]), 1.0) == pytest.approx(math.exp(-0.5))

    def test_second_order_expansion_at_large_bandwidth(self, rng):
        e = rng.standard_normal(200)
        sigma = 100.0
        expected = 1.0 - float(np.mean(e**2)) / (2.0 * sigma**2)
        assert correntropy_estimate(e, sigma) == pytest.approx(expected, abs=1e-6)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            correntropy_estimate(np.array([]), 1.0)


class TestKernelConfig:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(InvalidBandwidth):
            KernelConfig(sigma=0.0, epsilon=1e-6)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, epsilon=0.0)

    def test_rejects_zero_iteration_cap(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, epsilon=1e-6, max_iterations=0)

    @pytest.mark.parametrize("cap", [2.5, True, "3"])
    def test_rejects_an_iteration_cap_that_is_not_an_integer(self, cap):
        with pytest.raises(ValueError, match="max_iterations"):
            KernelConfig(sigma=1.0, epsilon=1e-6, max_iterations=cap)


class TestBuildRegression:
    def test_identity_whitening(self, rng):
        model = StateSpaceModel(F=np.eye(2), H=rng.standard_normal((1, 2)), Q=np.eye(2), R=[[1.0]])
        prior = GaussianBelief(rng.standard_normal(2), np.eye(2))
        y = rng.standard_normal(1)
        reg = build_regression(model, prior, y)
        np.testing.assert_allclose(reg.B_p, np.eye(2))
        np.testing.assert_allclose(reg.B_r, np.eye(1))
        np.testing.assert_allclose(reg.W, np.vstack([np.eye(2), model.H]))
        np.testing.assert_allclose(reg.D, np.concatenate([prior.mean, y]))

    def test_scalar_by_hand(self):
        _, _, reg = scalar_regression(p=4.0, r=1.0, h=1.0, x_prior=2.0, y=3.0)
        np.testing.assert_allclose(reg.B_p, [[2.0]])
        np.testing.assert_allclose(reg.W, [[0.5], [1.0]])
        np.testing.assert_allclose(reg.D, [1.0, 3.0])

    def test_whitening_reconstructs_stacked_design(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            reg = random_regression(rng, n, m)
            b = np.block(
                [
                    [reg.B_p, np.zeros((n, m))],
                    [np.zeros((m, n)), reg.B_r],
                ]
            )
            stacked = np.vstack([np.eye(n), reg.H])
            assert float(np.max(np.abs(b @ reg.W - stacked))) <= 1e-10

    def test_whiteness_identity(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            model = random_model(rng, n, m)
            prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n))
            reg = build_regression(model, prior, rng.standard_normal(m))
            b = np.block(
                [
                    [reg.B_p, np.zeros((n, m))],
                    [np.zeros((m, n)), reg.B_r],
                ]
            )
            block = np.block(
                [
                    [prior.cov, np.zeros((n, m))],
                    [np.zeros((m, n)), model.R],
                ]
            )
            scale = 1.0 + float(np.max(np.abs(block)))
            assert float(np.max(np.abs(b @ b.T - block))) <= 1e-10 * scale


class TestResidualsAndWeights:
    def test_scalar_residuals_by_hand(self):
        _, _, reg = scalar_regression(p=4.0, r=1.0, h=1.0, x_prior=2.0, y=3.0)
        np.testing.assert_allclose(compute_residuals(reg, np.array([2.0])), [0.0, 1.0])

    def test_zero_candidate_gives_observation_stack(self, rng):
        reg = random_regression(rng, 3, 2)
        np.testing.assert_array_equal(compute_residuals(reg, np.zeros(3)), reg.D)

    def test_dimension_mismatch(self, rng):
        reg = random_regression(rng, 2, 1)
        with pytest.raises(DimensionMismatch):
            compute_residuals(reg, np.zeros(3))

    def test_zero_residuals_give_unit_weights(self):
        np.testing.assert_array_equal(kernel_weights(np.zeros(4), 1.5), [1.0, 1.0, 1.0, 1.0])

    def test_huge_residual_clamps_to_floor(self):
        assert kernel_weights(np.array([0.0, 1e6]), 1.0)[1] == WEIGHT_FLOOR

    def test_closed_form_weights(self):
        c = kernel_weights(np.array([0.0, 1.0]), 1.0)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(math.exp(-0.5))


class TestRobustGain:
    def test_unit_weights_collapse_to_classic_gain(self, rng):
        model = random_model(rng, 3, 2)
        prior = GaussianBelief(rng.standard_normal(3), random_spd(rng, 3))
        y = rng.standard_normal(2)
        reg = build_regression(model, prior, y)
        gain, p_w, r_w = robust_gain(reg, kernel_weights(np.zeros(5), 1.0))
        np.testing.assert_allclose(p_w, prior.cov, atol=1e-12)
        np.testing.assert_allclose(r_w, model.R, atol=1e-12)
        _, classic = kf_update(model, prior, y)
        np.testing.assert_allclose(gain, classic, atol=1e-10)

    def test_scalar_by_hand(self):
        _, _, reg = scalar_regression(p=1.0, r=1.0, h=1.0)
        c = kernel_weights(np.array([0.0, math.sqrt(2.0 * math.log(2.0))]), 1.0)
        gain, p_w, r_w = robust_gain(reg, c)
        assert p_w[0, 0] == pytest.approx(1.0)
        assert r_w[0, 0] == pytest.approx(2.0)
        assert gain[0, 0] == pytest.approx(1.0 / 3.0)

    def test_fully_distrusted_measurement_kills_gain(self):
        _, _, reg = scalar_regression(p=1.0, r=1.0, h=1.0)
        gain, _, _ = robust_gain(reg, kernel_weights(np.array([0.0, 1e9]), 1.0))
        assert abs(gain[0, 0]) <= 1e-6

    @pytest.mark.parametrize("extra", [-3, 1], ids=["length-1", "length-L+1"])
    def test_weights_of_the_wrong_length_are_rejected(self, rng, extra):
        # Unchecked, c[:n] = [0.5] would broadcast and give P_w = 2 P.
        model = make_example2()
        prior = GaussianBelief(rng.standard_normal(3), random_spd(rng, 3))
        reg = build_regression(model, prior, rng.standard_normal(1))
        with pytest.raises(DimensionMismatch):
            robust_gain(reg, np.full(reg.L + extra, 0.5))


def test_every_form_floors_the_weights_alike():
    """The gain form, the QR form and the filter step all take their weights
    from `kernel_weights`: the same vector bit for bit, the outlier's at the floor."""
    model, sigma, prior = make_example1(), 2.0, GaussianBelief(np.zeros(2), np.eye(2))
    reg = build_regression(model, prior, [1e6])
    c = kernel_weights(compute_residuals(reg, reg.prior_mean), sigma)
    assert c[-1] == WEIGHT_FLOOR
    np.testing.assert_array_equal(weighted_qr_map(reg, reg.prior_mean, sigma)[2], c)
    kernel = KernelConfig(sigma=sigma, epsilon=1e-6, max_iterations=1)
    np.testing.assert_array_equal(fixed_point_iterate(reg, kernel)[2].final_weights, c)
    _, report = mckf_step(model, prior, [1e6], kernel)
    assert report.final_weights.shape == (model.n + model.m,)


class TestFixedPoint:
    def test_zero_innovation_converges_immediately(self, rng):
        model = random_model(rng, 2, 1)
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        reg = build_regression(model, prior, model.H @ prior.mean)
        x, _, report = fixed_point_iterate(reg, KernelConfig(sigma=2.0, epsilon=1e-6))
        np.testing.assert_array_equal(x, prior.mean)
        assert report.iterations == 1
        assert report.converged

    def test_large_bandwidth_takes_exactly_two_iterations(self, rng):
        # The count includes the first correction from the prior: at a huge
        # bandwidth that correction is the Kalman update and the second
        # iteration only confirms it.
        model = random_model(rng, 2, 1)
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        reg = build_regression(model, prior, model.H @ prior.mean + 1.0)
        _, _, report = fixed_point_iterate(reg, KernelConfig(sigma=1e8, epsilon=1e-6))
        assert report.iterations == 2
        assert report.converged

    def test_large_bandwidth_recovers_classic_update(self, rng):
        model = make_example1()
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2, 0.1))
        y = model.H @ prior.mean + 0.3
        reg = build_regression(model, prior, y)
        x, _, _ = fixed_point_iterate(reg, KernelConfig(sigma=1e8, epsilon=1e-12))
        post, _ = kf_update(model, prior, y)
        scale = 1.0 + float(np.max(np.abs(post.mean)))
        assert float(np.max(np.abs(x - post.mean))) <= 1e-8 * scale

    def test_outlier_is_shrunk_and_forms_agree(self):
        model, prior, reg = scalar_regression(p=1.0, r=0.01, h=1.0, x_prior=0.0, y=10.0)
        config = KernelConfig(sigma=2.0, epsilon=1e-6)
        x_gain, _, _ = fixed_point_iterate(reg, config)
        x_direct = fixed_point_direct(reg, config)
        post, _ = kf_update(model, prior, [10.0])
        assert abs(x_gain[0]) < abs(post.mean[0])
        assert abs(x_gain[0] - x_direct[0]) <= 1e-10

    def test_unit_weights_direct_form_is_least_squares(self, rng):
        reg = random_regression(rng, 3, 2)
        config = KernelConfig(sigma=1e12, epsilon=1e-10)
        x = fixed_point_direct(reg, config)
        lsq, *_ = np.linalg.lstsq(reg.W, reg.D, rcond=None)
        np.testing.assert_allclose(x, lsq, atol=1e-9)

    def test_forms_agree_per_iterate(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            reg = random_regression(rng, n, m)
            for depth in (1, 2, 3, 4):
                config = KernelConfig(sigma=1.5, epsilon=1e-300, max_iterations=depth)
                x_gain, _, _ = fixed_point_iterate(reg, config)
                x_direct = fixed_point_direct(reg, config)
                assert float(np.max(np.abs(x_gain - x_direct))) <= 1e-10


class TestMckfStep:
    def test_large_bandwidth_matches_kf_step(self, rng):
        model = random_model(rng, 3, 2)
        posterior = GaussianBelief(rng.standard_normal(3), random_spd(rng, 3, 0.2))
        y = rng.standard_normal(2)
        robust, _ = mckf_step(model, posterior, y, KernelConfig(sigma=1e8, epsilon=1e-12))
        classic, _ = kf_update(model, kf_predict(model, posterior), y)
        mean_scale = 1.0 + float(np.max(np.abs(classic.mean)))
        cov_scale = 1.0 + float(np.max(np.abs(classic.cov)))
        assert float(np.max(np.abs(robust.mean - classic.mean))) <= 1e-8 * mean_scale
        assert float(np.max(np.abs(robust.cov - classic.cov))) <= 1e-8 * cov_scale

    def test_zero_innovation_equals_joseph_form(self, rng):
        model = random_model(rng, 2, 1)
        posterior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        prior = kf_predict(model, posterior)
        y = model.H @ prior.mean
        robust, _ = mckf_step(model, posterior, y, KernelConfig(sigma=2.0, epsilon=1e-8))
        classic, _ = kf_update(model, prior, y)
        np.testing.assert_allclose(robust.mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(robust.cov, classic.cov, atol=1e-10)

    def test_outlier_step_is_psd_and_iterates(self):
        model = StateSpaceModel(F=[[1.0]], H=[[1.0]], Q=[[0.01]], R=[[0.01]])
        posterior = GaussianBelief([0.0], [[1.0]])
        belief, report = mckf_step(model, posterior, [10.0], KernelConfig(sigma=2.0, epsilon=1e-6))
        assert report.iterations >= 1
        assert min_eigenvalue_symmetric(belief.cov) >= -1e-10 * float(np.max(np.abs(belief.cov)))

    def test_kf_agreement_improves_quadratically_with_bandwidth(self, rng):
        ratios = []
        for _ in range(10):
            model = random_model(rng, 2, 1)
            posterior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2, 0.3))
            y = rng.standard_normal(1) + 2.0
            classic, _ = kf_update(model, kf_predict(model, posterior), y)
            diffs = []
            for sigma in (1e4, 2e4):
                robust, _ = mckf_step(model, posterior, y, KernelConfig(sigma=sigma, epsilon=1e-14))
                diffs.append(float(np.linalg.norm(robust.mean - classic.mean)))
            if diffs[1] > 0:
                ratios.append(diffs[0] / diffs[1])
        assert ratios and all(r >= 3.0 for r in ratios)

    def test_objective_not_decreased_on_certified_instances(self, rng):
        # Soft aggregate property: with a certified bandwidth the final
        # iterate should not score below the start on the correntropy
        # objective in at least 99 of 100 instances.
        wins = 0
        total = 100
        for _ in range(total):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            reg = random_regression(rng, n, m)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(reg.prior_mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            config = KernelConfig(sigma=cert.sigma_min, epsilon=1e-10)
            x, _, _ = fixed_point_iterate(reg, config)
            before = correntropy_estimate(compute_residuals(reg, reg.prior_mean), cert.sigma_min)
            after = correntropy_estimate(compute_residuals(reg, x), cert.sigma_min)
            wins += after >= before - 1e-12
        assert wins >= 99

    def test_contraction_of_iterate_gaps_on_certified_instances(self, rng):
        for _ in range(10):
            reg = random_regression(rng, 2, 1)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(reg.prior_mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            x_prev = reg.prior_mean
            x = fixed_point_map(reg, x_prev, cert.sigma_min)
            gap_prev = float(np.sum(np.abs(x - x_prev)))
            for _ in range(6):
                x_next = fixed_point_map(reg, x, cert.sigma_min)
                gap = float(np.sum(np.abs(x_next - x)))
                if gap_prev < 1e-14 * max(1.0, beta):
                    break
                assert gap <= 0.5 * gap_prev * (1.0 + 1e-9)
                x_prev, x, gap_prev = x, x_next, gap


def _mckf_call(model, belief, y):
    return mckf_step(model, belief, y, KernelConfig(sigma=2.0, epsilon=1e-6))


def _kf_call(model, belief, y):
    # The KF's full cycle, so that a diverging model diverges.
    return kf_update(model, kf_predict(model, belief), y)


#: The single-trajectory steps whose input checks are tested below.
STEP_CALLS = {"mckf_step": _mckf_call, "kf_update": _kf_call}


@pytest.mark.parametrize("name", STEP_CALLS)
class TestStepBoundary:
    def test_non_finite_measurement(self, name):
        belief = GaussianBelief([0.0, 0.0], 0.01 * np.eye(2))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFinite):
                STEP_CALLS[name](make_example1(), belief, [bad])

    def test_wrong_measurement_length(self, name):
        belief = GaussianBelief([0.0, 0.0], 0.01 * np.eye(2))
        with pytest.raises(DimensionMismatch):
            STEP_CALLS[name](make_example1(), belief, [1.0, 2.0])

    def test_wrong_belief_dimension(self, name):
        belief = GaussianBelief([0.0, 0.0, 0.0], 0.01 * np.eye(3))
        with pytest.raises(DimensionMismatch):
            STEP_CALLS[name](make_example1(), belief, [1.0])

    # A model is checked when it is built, so no step ever sees a bad R.
    def test_asymmetric_measurement_covariance(self, name):
        with pytest.raises(NotSymmetric):
            StateSpaceModel(F=np.eye(2), H=np.eye(2), Q=0.01 * np.eye(2), R=[[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_measurement_covariance(self, name):
        with pytest.raises(NotPositiveDefinite):
            StateSpaceModel(F=np.eye(2), H=np.eye(2), Q=0.01 * np.eye(2), R=np.diag([1.0, -1.0]))

    def test_diverging_model_raises(self, name):
        # |50^k| overflows long before step 400, in the truths and the filter alike.
        model = StateSpaceModel(
            F=np.diag([50.0, 1.0]), H=[[1.0, 1.0]], Q=0.01 * np.eye(2), R=[[0.01]]
        )
        config = ExperimentConfig(
            example="custom", custom_model=model, true_x0=(0.0, 0.0), runs=1, steps=400,
            noise_case="impulsive-measurement", master_seed=11,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            data = generate_run_data(config, 0)
            belief = GaussianBelief(data.x0_hat, config.p0_scale * np.eye(2))
            fmodel = config.filter_model()
            with pytest.raises(RobustKFError):
                for y in data.measurements:
                    belief, _ = STEP_CALLS[name](fmodel, belief, y)


@pytest.mark.parametrize(
    "mean, y, error",
    [
        ([0.0, 0.0], [np.nan], NonFinite),
        ([0.0, 0.0], [1.0, 2.0], DimensionMismatch),
        ([0.0, 0.0, 0.0], [1.0], DimensionMismatch),
    ],
)
def test_build_regression_checks_inputs_like_the_steps(mean, y, error):
    belief = GaussianBelief(mean, 0.01 * np.eye(len(mean)))
    with pytest.raises(error):
        build_regression(make_example1(), belief, y)


def _reference_trips(model, reg, kernel, iterations):
    """Relative steps of a reference solve's iterations, and the largest
    condition number of their ``S = H P_w H' + R_w``."""
    rels, worst = [], 1.0
    for k in range(1, iterations + 1):
        report = fixed_point_iterate(reg, replace(kernel, max_iterations=k))[2]
        _, p_w, r_w = robust_gain(reg, report.final_weights)
        rels.append(report.last_relative_step)
        worst = max(worst, np.linalg.cond(model.H @ p_w @ model.H.T + r_w))
    return np.array(rels), worst


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    sigma=st.floats(0.1, 1e4),
    cap=st.integers(1, 5),
)
@example(seed=0, dims=(5, 2), sigma=1.0, cap=1)
def test_whitened_update_matches_the_regression_form(seed, dims, sigma, cap):
    # The batched update iterates and forms its gain in whitened measurement
    # coordinates; the one-regression functions work in the original ones.
    # The two round apart by up to about cond(S) eps, S = H P_w H' + R_w of
    # the worst iteration: a measurement weight at the floor beside a trusted
    # one makes cond(S) about 1e10.  Over 12000 random draws the excess over
    # the fixed tolerances below stayed under 2 cond(S) eps, and iteration
    # counts differed only where a relative step lay within 0.2 cond(S) eps
    # of epsilon; the slack is 10 cond(S) eps.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    n, m = dims
    model = random_model(rng, n, m)
    H, b_r, b_r_inv = model.H, model.B_r, model.B_r_inv
    b_p = np.linalg.cholesky(random_spd(rng, n, 0.5))
    a_w = (b_r_inv @ H) @ b_p

    def reweighted(c):
        return (b_p / c[:n]) @ b_p.T, (b_r / c[n:]) @ b_r.T

    # Weights across [WEIGHT_FLOOR, 1], about one in thirteen at the floor.
    c = np.maximum(10.0 ** rng.uniform(-13.0, 0.0, n + m), WEIGHT_FLOOR)
    p_w, r_w = reweighted(c)
    want = b_r_inv @ (H @ p_w @ H.T + r_w) @ b_r_inv.T
    got = _whitened_system(a_w[None], 1.0 / c[None])[0]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())

    kernel = KernelConfig(sigma=sigma, epsilon=1e-6, max_iterations=cap)
    x_pred = rng.standard_normal(n)
    y = H @ x_pred + b_r @ rng.standard_normal(m) * 10.0 ** rng.uniform(0.0, 2.0)
    gain, fixed_point = _filter_update(
        model, kernel, x_pred[None], (b_p @ b_p.T)[None], y[None], np.zeros(1, np.int32)
    )[2:]
    p_w, r_w = reweighted(fixed_point[0][0])
    want = _gain(H, p_w, r_w)
    slack = 10.0 * np.linalg.cond(H @ p_w @ H.T + r_w) * eps
    np.testing.assert_allclose(gain[0], want, rtol=1e-10, atol=slack * np.abs(want).max())

    belief = GaussianBelief(rng.standard_normal(n), random_spd(rng, n, 0.5))
    iters = np.zeros(1, dtype=np.int32)
    x, p, _, (_, _, capped) = _filter_step(
        model, kernel, belief.mean[None], belief.cov[None], y[None], iters
    )
    prior = kf_predict(model, belief)
    reg = build_regression(model, prior, y)
    x_ref, gain_ref, report = fixed_point_iterate(reg, kernel)
    rels, cond = _reference_trips(model, reg, kernel, report.iterations)
    slack = 10.0 * cond * eps
    if np.all(np.abs(rels - kernel.epsilon) > slack):
        assert (int(iters[0]), capped.size == 0) == (report.iterations, report.converged)
    scale = max(1.0, np.abs(x_ref).max(), np.abs(y).max())
    np.testing.assert_allclose(x[0], x_ref, rtol=0.0, atol=1e-9 + slack * scale)
    p_ref = _joseph(model, prior.cov, gain_ref)
    np.testing.assert_allclose(p[0], p_ref, rtol=1e-9, atol=(1e-12 + slack) * np.abs(p_ref).max())
