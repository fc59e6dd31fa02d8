import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from robustkf import (
    DimensionMismatch,
    Diverged,
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
    fixed_point_direct,
    fixed_point_iterate,
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
    _predict,
    _weighted_qr_solve,
    _whitened_update,
    weighted_qr_map,
)
from robustkf.numerics import cholesky_stack
from robustkf.sim import _joseph
from conftest import (
    correntropy_estimate,
    exact_whitened_update,
    random_model,
    random_problem,
    random_regression,
    random_spd,
)


def scalar_regression(p=1.0, r=1.0, h=1.0, x_prior=0.0, y=0.0):
    model = StateSpaceModel(F=[[1.0]], H=[[h]], Q=[[0.0]], R=[[r]])
    prior = GaussianBelief([x_prior], [[p]])
    return model, prior, build_regression(model, prior, [y])


MAX_FLOAT = np.finfo(float).max
#: Bandwidths where 2 sigma^2 is subnormal (1.6e-162 to 1.1e-154), 747 * 2 sigma^2
#: overflows (3.47e152), 2 sigma^2 overflows (9.48e153) and sigma^2 does (1.34e154);
#: one with a cap near the largest (2^1010), the first without a cap (2^1016), and the
#: largest float.
BANDWIDTH_EDGES = np.array(
    [1.6e-162, 1.1e-154, 3.47e152, 9.48e153, 1.34e154, 2.0**1010, 2.0**1016, MAX_FLOAT]
)


def _log_uniform_bandwidths(rng, size):
    """Positive finite floats, uniform in the binary exponent, 5e-324 to the largest."""
    return np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1073, 1025, size))


def _is_normal(x):
    return (np.abs(x) >= np.finfo(float).tiny) & np.isfinite(x)


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

    def test_bandwidth_whose_square_overflows(self):
        # Above 1.3e154, 2 sigma^2 and e^2 overflow: e^2 / (2 sigma^2) would be inf / inf.
        got = gaussian_kernel([1e200, 1.0, 2e160], 1e160)
        np.testing.assert_allclose(got, [0.0, 1.0, math.exp(-2.0)], rtol=1e-15, atol=0.0)
        # Below 1.1e-162, 2 sigma^2 underflows to -0.0: e^2 / (2 sigma^2) would be 0 / 0 at e = 0.
        got = gaussian_kernel([0.0, 1e-170, 1.0, 1e300], 1e-170)
        np.testing.assert_allclose(got, [1.0, math.exp(-0.5), 0.0, 0.0], rtol=1e-15, atol=0.0)
        # Where 2 sigma^2 is subnormal it keeps too few bits for e^2 / (2 sigma^2).
        got = gaussian_kernel([5e-161, 3e-161], 1e-161)
        np.testing.assert_allclose(got, [math.exp(-12.5), math.exp(-4.5)], rtol=1e-14, atol=0.0)
        # Where 2 sigma^2 is finite but e^2 / (2 sigma^2) overflows, the weight is 0, with no warning.
        assert gaussian_kernel(1e6, 1e-150) == 0.0
        belief, kernel = GaussianBelief([0.0, 0.0], 0.01 * np.eye(2)), KernelConfig(1e-150, 1e-6)
        mckf_step(make_example1(), belief, [1e6], kernel)
        # Above 1.3e154, e^2 overflows: the weight is 0 at a small bandwidth,
        # with no warning, and exp(-(e / sigma)^2 / 2) where 2 sigma^2 is finite
        # but 1494 sigma^2 is not.
        assert gaussian_kernel(1e160, 2.0) == 0.0
        mckf_step(make_example1(), belief, [1e160], KernelConfig(2.0, 1e-6))
        for e, sigma in ((2e154, 9e153), (1.4e154, 5e153)):
            want = math.exp(-0.5 * (e / sigma) ** 2)
            np.testing.assert_allclose(gaussian_kernel(e, sigma), want, rtol=1e-15, atol=0.0)
        # e / sigma = 1000: a cap on |e| must scale with sigma up to the largest float.
        assert gaussian_kernel(1e308, 1e305) == 0.0

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sign_in_the_divisor_is_the_textbook_form(self, seed):
        # Wherever e^2, 2 sigma^2 and their quotient are normal, each weight has
        # the bits of the textbook form: scaling by a power of two is exact, and
        # so is IEEE negation, so the sign may sit in the divisor.
        rng = np.random.default_rng(seed)
        e = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300.0, 300.0, 1000)
        e = np.concatenate([e, [0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf]])
        for sigma in np.concatenate([_log_uniform_bandwidths(rng, 10), BANDWIDTH_EDGES]):
            with np.errstate(all="ignore"):  # the textbook form's inf / inf and 0 / 0
                square, divisor = e * e, 2.0 * sigma * sigma
                quotient = square / divisor
            want = np.exp(-quotient)
            normal = _is_normal(square) & _is_normal(divisor) & _is_normal(quotient)
            assert np.array_equal(gaussian_kernel(e, sigma)[normal], want[normal])

    def test_every_weight_is_within_the_ulp_bound_of_the_exact_one(self):
        # Against 200-bit mpmath over every bandwidth: within 4 ulp * max(1,
        # (e / sigma)^2 / 2), exp's own amplification, and exactly 0 where the
        # exact weight rounds to 0; no warning anywhere, at sigma = inf included.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(33)
        ratios = np.array(
            [1e-200, 1e-10, 0.5, 1.0, 3.0, 10.0, 38.5, 38.6, 38.7, 39.0, 77.9, 78.0, 1e10]
        )
        special = [0.0, -0.0, 5e-324, -1e-310, 1.34e154, 1e300, MAX_FLOAT]
        sigmas = np.concatenate([_log_uniform_bandwidths(rng, 200), BANDWIDTH_EDGES, [1e-161]])
        for sigma in sigmas:
            with np.errstate(over="ignore"):
                cap = np.ldexp(78.0, math.frexp(sigma)[1])  # the kernel's cap, where finite
                e = np.concatenate([special, sigma * ratios, cap * np.array([0.999, 1.0, 1.001])])
            e = e[np.isfinite(e)]
            with mpmath.workprec(200):
                for x, got in zip(e, gaussian_kernel(e, sigma)):
                    power = (mpmath.mpf(x) / mpmath.mpf(float(sigma))) ** 2 / 2
                    exact = mpmath.exp(-power)
                    if float(exact) == 0.0:
                        assert got == 0.0, (x, sigma)
                    else:
                        bound = 4 * np.spacing(float(exact)) * max(1, power)
                        assert abs(got - exact) <= bound, (x, sigma, got)
            got = gaussian_kernel([np.inf, -np.inf, np.nan], sigma)
            assert got[0] == got[1] == 0.0 and math.isnan(got[2])
        got = gaussian_kernel([0.0, 5e-324, 1.0, 1e300, MAX_FLOAT, np.nan, np.inf], np.inf)
        assert np.array_equal(got[:5], np.ones(5)) and math.isnan(got[5]) and 0.0 <= got[6] <= 1.0


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
        np.testing.assert_allclose(reg.W, np.vstack([np.eye(2), model.H]))
        np.testing.assert_allclose(reg.D, np.concatenate([prior.mean, y]))

    def test_scalar_by_hand(self):
        _, _, reg = scalar_regression(p=4.0, r=1.0, h=1.0, x_prior=2.0, y=3.0)
        np.testing.assert_allclose(reg.W, [[0.5], [1.0]])
        np.testing.assert_allclose(reg.D, [1.0, 3.0])

    def test_whitening_reconstructs_stacked_design(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            model, prior, y = random_problem(rng, n, m)
            reg = build_regression(model, prior, y)
            b = np.block(
                [
                    [cholesky_stack(prior.cov), np.zeros((n, m))],
                    [np.zeros((m, n)), model.B_r],
                ]
            )
            stacked = np.vstack([np.eye(n), model.H])
            assert float(np.max(np.abs(b @ reg.W - stacked))) <= 1e-10

    def test_whiteness_identity(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            model = random_model(rng, n, m)
            prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n))
            build_regression(model, prior, rng.standard_normal(m))
            b = np.block(
                [
                    [cholesky_stack(prior.cov), np.zeros((n, m))],
                    [np.zeros((m, n)), model.B_r],
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

    def test_state_residuals_at_the_prior_mean_are_zero(self, rng):
        # D - W x_p is [0 ; B_r^-1 (y - H x_p)], the residuals every form starts from.
        for _ in range(200):
            n = int(rng.integers(1, 7))
            model, prior, y = random_problem(rng, n, int(rng.integers(1, n + 1)))
            reg = build_regression(model, prior, y)
            assert not compute_residuals(reg, prior.mean)[:n].any()

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
        c = kernel_weights(np.zeros(5), 1.0)
        gain, p_w, r_w = robust_gain(model, cholesky_stack(prior.cov), c)
        np.testing.assert_allclose(p_w, prior.cov, atol=1e-12)
        np.testing.assert_allclose(r_w, model.R, atol=1e-12)
        _, classic = kf_update(model, prior, y)
        np.testing.assert_allclose(gain, classic, atol=1e-10)

    def test_scalar_by_hand(self):
        model, prior, _ = scalar_regression(p=1.0, r=1.0, h=1.0)
        c = kernel_weights(np.array([0.0, math.sqrt(2.0 * math.log(2.0))]), 1.0)
        gain, p_w, r_w = robust_gain(model, cholesky_stack(prior.cov), c)
        assert p_w[0, 0] == pytest.approx(1.0)
        assert r_w[0, 0] == pytest.approx(2.0)
        assert gain[0, 0] == pytest.approx(1.0 / 3.0)

    def test_fully_distrusted_measurement_kills_gain(self):
        model, prior, _ = scalar_regression(p=1.0, r=1.0, h=1.0)
        c = kernel_weights(np.array([0.0, 1e9]), 1.0)
        gain, _, _ = robust_gain(model, cholesky_stack(prior.cov), c)
        assert abs(gain[0, 0]) <= 1e-6

    @pytest.mark.parametrize("extra", [-3, 1], ids=["length-1", "length-L+1"])
    def test_weights_of_the_wrong_length_are_rejected(self, rng, extra):
        # Unchecked, c[:n] = [0.5] would broadcast and give P_w = 2 P.
        model = make_example2()
        prior = GaussianBelief(rng.standard_normal(3), random_spd(rng, 3))
        reg = build_regression(model, prior, rng.standard_normal(1))
        with pytest.raises(DimensionMismatch):
            robust_gain(model, cholesky_stack(prior.cov), np.full(reg.L + extra, 0.5))


def test_every_form_floors_the_weights_alike():
    """The gain form, the QR form and the filter step all take their weights
    from `kernel_weights`: the same vector bit for bit, the outlier's at the floor."""
    model, sigma, prior = make_example1(), 2.0, GaussianBelief(np.zeros(2), np.eye(2))
    reg = build_regression(model, prior, [1e6])
    c = kernel_weights(compute_residuals(reg, prior.mean), sigma)
    assert c[-1] == WEIGHT_FLOOR
    np.testing.assert_array_equal(weighted_qr_map(reg, prior.mean, sigma)[2], c)
    kernel = KernelConfig(sigma=sigma, epsilon=1e-6, max_iterations=1)
    report = fixed_point_iterate(model, prior, [1e6], kernel)[2]
    np.testing.assert_array_equal(report.final_weights, c)
    _, report = mckf_step(model, prior, [1e6], kernel)
    assert report.final_weights.shape == (model.n + model.m,)


class TestFixedPoint:
    def test_zero_innovation_converges_immediately(self, rng):
        model = random_model(rng, 2, 1)
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        x, _, report = fixed_point_iterate(
            model, prior, model.H @ prior.mean, KernelConfig(sigma=2.0, epsilon=1e-6)
        )
        np.testing.assert_array_equal(x, prior.mean)
        assert report.iterations == 1
        assert report.converged

    def test_large_bandwidth_takes_exactly_two_iterations(self, rng):
        # The count includes the first correction from the prior: at a huge
        # bandwidth that correction is the Kalman update and the second
        # iteration only confirms it.
        model = random_model(rng, 2, 1)
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        y = model.H @ prior.mean + 1.0
        _, _, report = fixed_point_iterate(model, prior, y, KernelConfig(sigma=1e8, epsilon=1e-6))
        assert report.iterations == 2
        assert report.converged

    def test_large_bandwidth_recovers_classic_update(self, rng):
        model = make_example1()
        prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2, 0.1))
        y = model.H @ prior.mean + 0.3
        x, _, _ = fixed_point_iterate(model, prior, y, KernelConfig(sigma=1e8, epsilon=1e-12))
        post, _ = kf_update(model, prior, y)
        scale = 1.0 + float(np.max(np.abs(post.mean)))
        assert float(np.max(np.abs(x - post.mean))) <= 1e-8 * scale

    def test_outlier_is_shrunk_and_forms_agree(self):
        model, prior, _ = scalar_regression(p=1.0, r=0.01, h=1.0, x_prior=0.0, y=10.0)
        config = KernelConfig(sigma=2.0, epsilon=1e-6)
        x_gain, _, _ = fixed_point_iterate(model, prior, [10.0], config)
        x_direct = fixed_point_direct(model, prior, [10.0], config)[0]
        post, _ = kf_update(model, prior, [10.0])
        assert abs(x_gain[0]) < abs(post.mean[0])
        assert abs(x_gain[0] - x_direct[0]) <= 1e-10

    def test_unit_weights_direct_form_is_least_squares(self, rng):
        problem = random_problem(rng, 3, 2)
        reg = build_regression(*problem)
        config = KernelConfig(sigma=1e12, epsilon=1e-10)
        x = fixed_point_direct(*problem, config)[0]
        lsq, *_ = np.linalg.lstsq(reg.W, reg.D, rcond=None)
        np.testing.assert_allclose(x, lsq, atol=1e-9)

    @pytest.mark.parametrize(
        "p, iterations",
        [(np.zeros((3, 3)), 1), (np.diag([0.0, 0.01, 0.01]), 9)],
        ids=["zero", "rank-2"],
    )
    def test_direct_form_solves_a_singular_prior(self, p, iterations):
        # Example 2 with Q = 0: W loses rank with P, the whitened design [I ; A_w] does not.
        example2 = make_example2()
        model = StateSpaceModel(F=example2.F, H=example2.H, Q=np.zeros((3, 3)), R=example2.R)
        prior = GaussianBelief([0.0, 0.0, 1.0], p)
        reg = build_regression(model, prior, [0.52])
        assert not compute_residuals(reg, prior.mean)[:3].any()
        config = KernelConfig(sigma=2.0, epsilon=1e-6)
        x, gain, report = fixed_point_direct(model, prior, [0.52], config)
        x_ref, gain_ref, report_ref = fixed_point_iterate(model, prior, [0.52], config)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(gain, gain_ref, rtol=0.0, atol=1e-15)
        assert report.iterations == report_ref.iterations == iterations

    def test_forms_agree_per_iterate(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            problem = random_problem(rng, n, m)
            for depth in (1, 2, 3, 4):
                config = KernelConfig(sigma=1.5, epsilon=1e-300, max_iterations=depth)
                x_gain, _, _ = fixed_point_iterate(*problem, config)
                x_direct = fixed_point_direct(*problem, config)[0]
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
            model, prior, y = random_problem(rng, n, m)
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            config = KernelConfig(sigma=cert.sigma_min, epsilon=1e-10)
            x, _, _ = fixed_point_iterate(model, prior, y, config)
            before = correntropy_estimate(compute_residuals(reg, prior.mean), cert.sigma_min)
            after = correntropy_estimate(compute_residuals(reg, x), cert.sigma_min)
            wins += after >= before - 1e-12
        assert wins >= 99

    def test_contraction_of_iterate_gaps_on_certified_instances(self, rng):
        for _ in range(10):
            model, prior, y = random_problem(rng, 2, 1)
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            x_prev = prior.mean
            x = weighted_qr_map(reg, x_prev, cert.sigma_min)[0]
            gap_prev = float(np.sum(np.abs(x - x_prev)))
            for _ in range(6):
                x_next = weighted_qr_map(reg, x, cert.sigma_min)[0]
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


def _direct_solve(model, belief, y):
    return fixed_point_direct(model, belief, y, KernelConfig(sigma=2.0, epsilon=1e-6))


def _gain_solve(model, belief, y):
    return fixed_point_iterate(model, belief, y, KernelConfig(sigma=2.0, epsilon=1e-6))


@pytest.mark.parametrize(
    "mean, y, error, check",
    [
        ([0.0, 0.0], [np.nan], NonFinite, build_regression),
        ([0.0, 0.0], [1.0, 2.0], DimensionMismatch, build_regression),
        ([0.0, 0.0, 0.0], [1.0], DimensionMismatch, build_regression),
        ([0.0, 0.0], [np.nan], NonFinite, _direct_solve),
        ([0.0, 0.0, 0.0], [1.0], DimensionMismatch, _direct_solve),
        ([0.0, 0.0], [np.nan], NonFinite, _gain_solve),
        ([0.0, 0.0], [1.0, 2.0], DimensionMismatch, _gain_solve),
    ],
    # The first three ids are those of the rows before the direct form's.
    ids=[
        "mean0-y0-NonFinite",
        "mean1-y1-DimensionMismatch",
        "mean2-y2-DimensionMismatch",
        "fixed_point_direct-NonFinite",
        "fixed_point_direct-DimensionMismatch",
        "fixed_point_iterate-NonFinite",
        "fixed_point_iterate-DimensionMismatch",
    ],
)
def test_build_regression_checks_inputs_like_the_steps(mean, y, error, check):
    belief = GaussianBelief(mean, 0.01 * np.eye(len(mean)))
    with pytest.raises(error):
        check(make_example1(), belief, y)


def _reference_trips(model, prior, y, kernel, iterations):
    """Relative steps of a reference solve's iterations, and the largest
    condition number of their ``S = H P_w H' + R_w``."""
    rels, worst = [], 1.0
    for k in range(1, iterations + 1):
        report = fixed_point_iterate(model, prior, y, replace(kernel, max_iterations=k))[2]
        _, p_w, r_w = robust_gain(model, cholesky_stack(prior.cov), report.final_weights)
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
    rng.uniform(-13.0, 0.0, n + m)  # unused weights: the draws below stay those of each seed

    def reweighted(c):
        return (b_p / c[:n]) @ b_p.T, (b_r / c[n:]) @ b_r.T

    kernel = KernelConfig(sigma=sigma, epsilon=1e-6, max_iterations=cap)
    x_pred = rng.standard_normal(n)
    y = H @ x_pred + b_r @ rng.standard_normal(m) * 10.0 ** rng.uniform(0.0, 2.0)
    fixed_point, k_r = _filter_update(
        model, kernel, x_pred[None], (b_p @ b_p.T)[None], y[None]
    )[2:]
    p_w, r_w = reweighted(fixed_point.final_weights[0])
    want = np.linalg.solve(H @ p_w @ H.T + r_w, H @ p_w).T
    slack = 10.0 * np.linalg.cond(H @ p_w @ H.T + r_w) * eps
    gain = k_r[0] @ b_r_inv  # the MCKF's gain is K_r, in whitened measurement coordinates
    np.testing.assert_allclose(gain, want, rtol=1e-10, atol=slack * np.abs(want).max())

    belief = GaussianBelief(rng.standard_normal(n), random_spd(rng, n, 0.5))
    x, p, run = _filter_step(model, kernel, belief.mean[None], belief.cov[None], y[None])
    prior = kf_predict(model, belief)
    x_ref, gain_ref, report = fixed_point_iterate(model, prior, y, kernel)
    rels, cond = _reference_trips(model, prior, y, kernel, report.iterations)
    slack = 10.0 * cond * eps
    if np.all(np.abs(rels - kernel.epsilon) > slack):
        assert (run.iterations[0], run.converged[0]) == (report.iterations, report.converged)
    scale = max(1.0, np.abs(x_ref).max(), np.abs(y).max())
    np.testing.assert_allclose(x[0], x_ref, rtol=0.0, atol=1e-9 + slack * scale)
    p_ref = _joseph(model, cholesky_stack(prior.cov), gain_ref)
    np.testing.assert_allclose(p[0], p_ref, rtol=1e-9, atol=(1e-12 + slack) * np.abs(p_ref).max())


def test_scalar_forms_raise_diverged_on_an_overflowing_iterate():
    # A vague prior and a measurement near the float maximum: the first
    # correction, about y / H = 1.7e318, overflows in both forms.
    model = StateSpaceModel(F=[[1.0]], H=[[1e-10]], Q=[[1.0]], R=[[1.0]])
    prior, y = GaussianBelief([0.0], [[1e30]]), [1.7e308]
    kernel = KernelConfig(sigma=2.0, epsilon=1e-6)
    for solve in (fixed_point_iterate, fixed_point_direct):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged, match="iterate 1 "):
            solve(model, prior, y, kernel)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    unfloored=st.sampled_from(("one", "uniform")),
)
def test_whitened_update_is_within_the_extended_precision_solve(seed, dims, unfloored):
    # Errors in prior standard deviations, ||u - u_exact|| with x = x_p + B_p u,
    # against the 50-digit solve of the problem the prior and measurement pose:
    # priors over eight decades, each weight at the floor with probability 0.4.
    # On m = 1 both gain forms are a quotient of positive sums.  On m >= 2 the
    # sequential update divides only by alpha >= 1 (worst 1.4e-9 measured on
    # 600 such draws); the x-space gain form, which solves H P_w H' + R_w,
    # reached 3.7e-3 there and is recorded, not asserted.  The reference
    # engine's QR of the weighted [I ; A_w], its rows sorted by size, reached
    # 3.4e-13 (m = 1) and 5.2e-12 (m >= 2) on 600 draws; unsorted, 1.9e-9 and
    # 3.9e-9, so the bound also guards the row order.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    n, m = dims
    model = random_model(rng, n, m)
    prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n) * 10.0 ** rng.uniform(-4, 4))
    y = model.H @ prior.mean + rng.standard_normal(m)
    weights = rng.uniform(0.01, 1.0, n + m) if unfloored == "uniform" else np.ones(n + m)
    c = np.where(rng.random(n + m) < 0.4, WEIGHT_FLOOR, weights)
    b_p, innovation = cholesky_stack(prior.cov), y - model.H @ prior.mean
    a_w, nu_w = model.H_w @ b_p, model.B_r_inv @ innovation
    u = _whitened_update(a_w[None], 1.0 / c[None])[0] @ nu_w
    u_qr = _weighted_qr_solve(np.vstack([np.eye(n), a_w]), np.r_[np.zeros(n), nu_w], c)[0]
    x_ref = prior.mean + robust_gain(model, b_p, c)[0] @ innovation
    with mpmath.workdps(50):
        b_p, b_r, h = (mpmath.matrix(a) for a in (b_p, model.B_r, model.H))
        nu_exact = mpmath.lu_solve(b_r, mpmath.matrix(innovation))
        u_exact = exact_whitened_update(mpmath.inverse(b_r) * h * b_p, nu_exact, c)
        error = float(mpmath.norm(mpmath.matrix(u) - u_exact))
        error_qr = float(mpmath.norm(mpmath.matrix(u_qr) - u_exact))
        step = mpmath.matrix(x_ref) - mpmath.matrix(prior.mean)
        error_ref = float(mpmath.norm(mpmath.lu_solve(b_p, step) - u_exact))
    assert error_qr <= 1e-11
    if m == 1:
        assert error <= 1e-11 and error_ref <= 1e-11
    else:
        assert error <= 1e-7
        event(f"x-space gain form, m >= 2: error below 1e{math.ceil(math.log10(error_ref + 1e-300))}")


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_predict_is_symmetric_reads_the_lower_triangle_and_rounds_like_the_textbook_predict(n):
    # A non-normal F (a random matrix plus a large superdiagonal) and priors of
    # every rank 0..n, so all but the last are singular, over six decades.
    rng = np.random.default_rng(600 + n)
    f = rng.standard_normal((n, n)) + 3.0 * np.eye(n, k=1)
    assert n == 1 or not np.allclose(f @ f.T, f.T @ f)
    model = StateSpaceModel(F=f, H=np.ones((1, n)), Q=random_spd(rng, n, 0.05), R=[[1.0]])
    roots = [rng.standard_normal((n, rank)) * 10.0 ** rng.uniform(-3, 3) for rank in range(n + 1)]
    p = np.stack([GaussianBelief(np.zeros(n), b @ b.T).cov for b in roots])
    x = rng.standard_normal((n + 1, n))
    x_pred, p_pred = _predict(model, x, p)
    assert np.array_equal(p_pred, p_pred.swapaxes(-1, -2))
    garbled, (rows, cols) = p.copy(), np.triu_indices(n, 1)
    garbled[:, rows, cols] = np.nan
    np.testing.assert_array_equal(_predict(model, x, garbled)[1], p_pred)
    # First-order bounds with u = eps / 2 and M = |F| |P| |F'| + |Q|: the packed
    # form rounds each operator entry (2u) and its product (u), then N - 1 sums
    # and + Q, N = n(n+1)/2, so it is within (N + 3) u M of F P F' + Q; the
    # textbook two products and + Q within (2n + 1) u M.  One more u M covers
    # the second-order terms.
    u, big_n = np.finfo(float).eps / 2.0, n * (n + 1) // 2
    for i, cov in enumerate(p):
        textbook = f @ cov @ f.T + model.Q
        bound = (big_n + 2 * n + 6) * u * (np.abs(f) @ np.abs(cov) @ np.abs(f).T + np.abs(model.Q))
        assert np.all(np.abs(p_pred[i] - textbook) <= bound)
        assert np.all(np.abs(x_pred[i] - f @ x[i]) <= 2 * n * u * np.abs(f) @ np.abs(x[i]))
