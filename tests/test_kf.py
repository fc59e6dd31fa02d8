import math

import numpy as np
import pytest

from robustkf import (
    GaussianBelief,
    StateSpaceModel,
    kf_predict,
    kf_update,
    make_example1,
    min_eigenvalue_symmetric,
)
from conftest import random_model, random_spd


def scalar_model(h=1.0, q=0.0, r=1.0):
    return StateSpaceModel(F=[[1.0]], H=[[h]], Q=[[q]], R=[[r]])


class TestPredict:
    def test_identity_dynamics_no_noise(self, rng):
        model = StateSpaceModel(F=np.eye(2), H=[[1.0, 0.0]], Q=np.zeros((2, 2)), R=[[1.0]])
        belief = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        prior = kf_predict(model, belief)
        np.testing.assert_array_equal(prior.mean, belief.mean)
        np.testing.assert_allclose(prior.cov, belief.cov)

    def test_identity_dynamics_unit_noise(self):
        model = StateSpaceModel(F=np.eye(2), H=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]])
        prior = kf_predict(model, GaussianBelief(np.zeros(2), np.eye(2)))
        np.testing.assert_allclose(prior.cov, 2.0 * np.eye(2))

    def test_rotation_of_unit_vector(self):
        theta = math.pi / 18
        prior = kf_predict(make_example1(theta), GaussianBelief([1.0, 0.0], 0.01 * np.eye(2)))
        np.testing.assert_allclose(prior.mean, [math.cos(theta), math.sin(theta)], rtol=1e-15)


class TestUpdate:
    def test_scalar_closed_form(self):
        post, gain = kf_update(scalar_model(), GaussianBelief([0.0], [[1.0]]), [2.0])
        assert gain[0, 0] == pytest.approx(0.5)
        assert post.mean[0] == pytest.approx(1.0)
        assert post.cov[0, 0] == pytest.approx(0.5)

    def test_huge_measurement_noise_keeps_prior(self, rng):
        model = StateSpaceModel(F=np.eye(2), H=[[1.0, 1.0]], Q=np.zeros((2, 2)), R=[[1e12]])
        prior = GaussianBelief(rng.standard_normal(2), np.eye(2))
        post, _ = kf_update(model, prior, [57.0])
        assert float(np.linalg.norm(post.mean - prior.mean)) <= 1e-6

    def test_tiny_measurement_noise_trusts_measurement(self, rng):
        model = StateSpaceModel(F=np.eye(2), H=np.eye(2), Q=np.zeros((2, 2)), R=1e-12 * np.eye(2))
        y = rng.standard_normal(2)
        post, _ = kf_update(model, GaussianBelief(np.zeros(2), np.eye(2)), y)
        np.testing.assert_allclose(post.mean, y, atol=1e-9)

    def test_zero_innovation_keeps_mean(self, rng):
        model = random_model(rng, 3, 2)
        prior = GaussianBelief(rng.standard_normal(3), random_spd(rng, 3))
        post, _ = kf_update(model, prior, model.H @ prior.mean)
        np.testing.assert_allclose(post.mean, prior.mean, rtol=1e-12, atol=1e-12)

    def test_posterior_covariance_psd_sweep(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            model = random_model(rng, n, m)
            prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n))
            post, _ = kf_update(model, prior, rng.standard_normal(m))
            p = post.cov
            assert np.array_equal(p, p.T)
            assert min_eigenvalue_symmetric(p) >= -1e-10 * float(np.max(np.abs(p)))

    def test_joseph_form_equals_short_form_at_optimal_gain(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            model = random_model(rng, n, m)
            prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n))
            post, gain = kf_update(model, prior, rng.standard_normal(m))
            short = (np.eye(n) - gain @ model.H) @ prior.cov
            assert float(np.max(np.abs(post.cov - short))) <= 1e-9
