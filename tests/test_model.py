import math

import numpy as np
import pytest

from robustkf import (
    DimensionMismatch,
    GaussianBelief,
    MixtureNoiseSpec,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    RandomStream,
    StateSpaceModel,
    make_example1,
    make_example2,
    sample_mixture,
    sample_mixture_sequence,
)

IMPULSIVE = ((0.9, 0.0, 0.01), (0.1, 0.0, 100.0))


class TestValidateModel:
    """The invariants a `StateSpaceModel` checks when it is built."""

    def test_example1_model_is_valid(self):
        model = make_example1()
        np.testing.assert_array_equal(model.B_r, np.sqrt(model.R))

    def test_wrong_observation_width(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(F=np.eye(2), H=np.ones((1, 3)), Q=np.eye(2), R=[[1.0]])

    def test_zero_measurement_variance_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            StateSpaceModel(F=np.eye(2), H=np.ones((1, 2)), Q=np.eye(2), R=[[0.0]])

    def test_indefinite_process_noise_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            StateSpaceModel(F=np.eye(2), H=np.ones((1, 2)), Q=np.diag([1.0, -1e-3]), R=[[1.0]])

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(NotSymmetric):
            StateSpaceModel(F=np.eye(2), H=np.ones((1, 2)), Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]])

    def test_nonsquare_transition_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(F=np.ones((2, 3)), H=np.ones((1, 3)), Q=np.eye(3), R=[[1.0]])

    def test_small_asymmetry_in_process_noise_rejected(self):
        with pytest.raises(NotSymmetric):
            StateSpaceModel(
                F=np.eye(2), H=np.ones((1, 2)), Q=[[0.01, 0.004], [0.0, 0.01]], R=[[1.0]]
            )

    def test_measurement_noise_factor(self):
        R = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = StateSpaceModel(F=np.eye(2), H=np.eye(2), Q=np.eye(2), R=R)
        np.testing.assert_allclose(model.B_r @ model.B_r.T, R, rtol=1e-15)
        np.testing.assert_allclose(model.B_r_inv @ model.B_r, np.eye(2), atol=1e-15)
        assert np.all(np.triu(model.B_r, 1) == 0.0)

    def test_arrays_are_read_only_copies(self):
        R = np.array([[1.0]])
        model = StateSpaceModel(F=np.eye(2), H=np.ones((1, 2)), Q=np.eye(2), R=R)
        with pytest.raises(ValueError):
            model.R[0, 0] = 2.0
        for name in ("F", "H", "Q", "R", "B_r", "B_r_inv"):
            assert not getattr(model, name).flags.writeable, name
        R[0, 0] = 4.0
        assert model.R[0, 0] == 1.0 and model.B_r[0, 0] == 1.0


class TestGaussianBelief:
    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianBelief([0.0, 0.0], np.diag([1.0, -0.1]))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotSymmetric):
            GaussianBelief([0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianBelief([0.0, 0.0], np.eye(3))

    def test_later_writes_to_the_inputs_do_not_reach_it(self):
        mean, cov = np.zeros(2), np.eye(2)
        belief = GaussianBelief(mean, cov)
        cov[0, 1] = 5.0
        mean[0] = np.nan
        np.testing.assert_array_equal(belief.cov, np.eye(2))
        np.testing.assert_array_equal(belief.mean, np.zeros(2))

    def test_stores_the_symmetrized_covariance(self):
        # Asymmetric by 1e-12, inside the symmetry tolerance.
        cov = np.array([[1.0, 0.3], [0.3 + 1e-12, 1.0]])
        belief = GaussianBelief([0.0, 0.0], cov)
        np.testing.assert_array_equal(belief.cov, belief.cov.T)
        np.testing.assert_array_equal(belief.cov, (cov + cov.T) / 2.0)

    def test_rejects_a_covariance_whose_symmetrized_copy_overflows(self):
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
            GaussianBelief([0.0, 0.0], [[1.5e308, 0.0], [0.0, 1.0]])


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
