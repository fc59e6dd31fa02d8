import math

import numpy as np
import pytest

from robustkf import (
    DimensionMismatch,
    GaussianBelief,
    MixtureNoiseSpec,
    NotPSD,
    NotPositiveDefinite,
    NotSymmetric,
    RandomStream,
    StateSpaceModel,
    make_example1,
    make_example2,
    propagate_truth,
    sample_mixture,
    sample_mixture_sequence,
    validate_model,
)

IMPULSIVE = ((0.9, 0.0, 0.01), (0.1, 0.0, 100.0))


class TestValidateModel:
    def test_example1_model_is_valid(self):
        validate_model(make_example1())

    def test_wrong_observation_width(self):
        model = StateSpaceModel(F=np.eye(2), H=np.ones((1, 3)), Q=np.eye(2), R=[[1.0]])
        with pytest.raises(DimensionMismatch):
            validate_model(model)

    def test_zero_measurement_variance_rejected(self):
        model = StateSpaceModel(F=np.eye(2), H=np.ones((1, 2)), Q=np.eye(2), R=[[0.0]])
        with pytest.raises(NotPositiveDefinite):
            validate_model(model)

    def test_indefinite_process_noise_rejected(self):
        model = StateSpaceModel(
            F=np.eye(2), H=np.ones((1, 2)), Q=np.diag([1.0, -1e-3]), R=[[1.0]]
        )
        with pytest.raises(NotPSD):
            validate_model(model)

    def test_asymmetric_noise_rejected(self):
        model = StateSpaceModel(
            F=np.eye(2), H=np.ones((1, 2)), Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]]
        )
        with pytest.raises(NotSymmetric):
            validate_model(model)

    def test_nonsquare_transition_rejected(self):
        model = StateSpaceModel(F=np.ones((2, 3)), H=np.ones((1, 3)), Q=np.eye(3), R=[[1.0]])
        with pytest.raises(DimensionMismatch):
            validate_model(model)


class TestGaussianBelief:
    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPSD):
            GaussianBelief([0.0, 0.0], np.diag([1.0, -0.1]))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotSymmetric):
            GaussianBelief([0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianBelief([0.0, 0.0], np.eye(3))


class TestMixtureNoiseSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureNoiseSpec.iid(1, ((0.5, 0.0, 1.0), (0.4, 0.0, 1.0)))

    def test_variances_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            MixtureNoiseSpec.iid(1, ((1.0, 0.0, -1.0),))

    def test_point_mass_is_exact(self):
        spec = MixtureNoiseSpec.iid(3, ((1.0, 0.0, 0.0),))
        sample = sample_mixture(spec, RandomStream(1))
        np.testing.assert_array_equal(sample, np.zeros(3))

    def test_determinism_across_equal_seeds(self):
        spec = MixtureNoiseSpec.iid(2, IMPULSIVE)
        a = [sample_mixture(spec, RandomStream(9)) for _ in range(1)]
        b = [sample_mixture(spec, RandomStream(9)) for _ in range(1)]
        np.testing.assert_array_equal(a, b)

    def test_impulsive_moments_match_total_variance_law(self):
        # mixture variance: 0.9 * 0.01 + 0.1 * 100 = 10.009
        spec = MixtureNoiseSpec.iid(1, IMPULSIVE)
        draws = sample_mixture_sequence(spec, 1_000_000, RandomStream(77))
        assert abs(float(np.mean(draws))) < 0.02
        assert abs(float(np.var(draws)) - 10.009) < 0.02 * 10.009

    def test_sequence_matches_sequential_sampling(self):
        spec = MixtureNoiseSpec(
            (
                ((0.9, 0.0, 0.01), (0.1, 0.0, 100.0)),
                ((1.0, -1.0, 2.0),),
            )
        )
        block = sample_mixture_sequence(spec, 25, RandomStream(42))
        stream = RandomStream(42)
        singles = np.array([sample_mixture(spec, stream) for _ in range(25)])
        np.testing.assert_array_equal(block, singles)

    def test_batch_rows_match_single_streams(self):
        spec = MixtureNoiseSpec.iid(2, IMPULSIVE)
        seeds = np.array([3, 5, 8], dtype=np.uint64)
        block = sample_mixture_sequence(spec, 7, RandomStream(seeds))
        assert block.shape == (3, 7, 2)
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                block[i], sample_mixture_sequence(spec, 7, RandomStream(int(seed)))
            )


class TestPropagateTruth:
    def test_zero_noise_identity_dynamics(self):
        model = StateSpaceModel(F=np.eye(2), H=[[1.0, 1.0]], Q=np.zeros((2, 2)), R=[[0.01]])
        zero2 = MixtureNoiseSpec.gaussian(2, 0.0)
        zero1 = MixtureNoiseSpec.gaussian(1, 0.0)
        x = np.array([0.3, -0.7])
        x_next, y = propagate_truth(model, x, zero2, zero1, RandomStream(5))
        np.testing.assert_array_equal(x_next, x)
        np.testing.assert_allclose(y, model.H @ x)

    def test_quarter_turn_rotation(self):
        model = make_example1(theta=math.pi / 2)
        zero2 = MixtureNoiseSpec.gaussian(2, 0.0)
        zero1 = MixtureNoiseSpec.gaussian(1, 0.0)
        x_next, _ = propagate_truth(model, [1.0, 0.0], zero2, zero1, RandomStream(5))
        np.testing.assert_allclose(x_next, [0.0, 1.0], atol=1e-15)

    def test_accelerating_chain_step(self):
        model = make_example2(dt=0.1)
        zero3 = MixtureNoiseSpec.gaussian(3, 0.0)
        zero1 = MixtureNoiseSpec.gaussian(1, 0.0)
        x_next, y = propagate_truth(model, [0.0, 0.0, 1.0], zero3, zero1, RandomStream(5))
        np.testing.assert_allclose(x_next, [0.0, 0.1, 1.0])
        np.testing.assert_allclose(y, [0.1])

    def test_zero_noise_propagation_is_linear(self, rng):
        model = make_example1()
        zero2 = MixtureNoiseSpec.gaussian(2, 0.0)
        zero1 = MixtureNoiseSpec.gaussian(1, 0.0)
        x = rng.standard_normal(2)
        one, _ = propagate_truth(model, x, zero2, zero1, RandomStream(5))
        scaled, _ = propagate_truth(model, 3.0 * x, zero2, zero1, RandomStream(5))
        np.testing.assert_allclose(scaled, 3.0 * one, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = make_example1()
        zero2 = MixtureNoiseSpec.gaussian(2, 0.0)
        zero1 = MixtureNoiseSpec.gaussian(1, 0.0)
        with pytest.raises(DimensionMismatch):
            propagate_truth(model, [1.0, 2.0, 3.0], zero2, zero1, RandomStream(5))
