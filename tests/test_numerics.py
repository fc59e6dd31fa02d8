import numpy as np
import pytest

from robustkf import (
    NotPositiveDefinite,
    NotSymmetric,
    cholesky_lower,
    induced_l1_norm,
    min_eigenvalue_symmetric,
    solve_spd,
)
from robustkf.numerics import cholesky_stack
from conftest import random_spd


def max_abs(a):
    return float(np.max(np.abs(a)))


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(2)), np.eye(2))

    def test_diagonal_square_roots(self):
        np.testing.assert_allclose(cholesky_lower(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction_2x2(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky_lower(a)
        assert np.allclose(np.tril(lower), lower)
        assert max_abs(lower @ lower.T - a) <= 1e-12

    def test_reconstruction_sweep(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_spd(rng, n, scale=float(rng.uniform(0.01, 10.0)))
            lower = cholesky_lower(a)
            assert max_abs(lower @ lower.T - a) <= 1e-10 * (1.0 + max_abs(a))

    def test_jitter_rescues_singular(self):
        v = np.array([1.0, 2.0])
        lower = cholesky_lower(np.outer(v, v))  # rank one, zero pivot
        assert np.all(np.isfinite(lower))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.diag([1.0, -1.0]))

    def test_stack_jitter_is_scaled_per_matrix(self):
        v = np.array([1e3, 2e3])
        singular = np.outer(v, v)
        lower = cholesky_stack(np.stack([singular, np.eye(2)]))
        np.testing.assert_array_equal(lower[0], cholesky_lower(singular))
        np.testing.assert_array_equal(lower[1], np.linalg.cholesky(np.eye(2)))

    def test_stack_jitters_only_the_failing_matrix(self):
        # Indefinite by round-off: the smallest eigenvalue is -5e-16.
        spd = np.array([[2.0, 1.0], [1.0, 2.0]])
        indefinite = np.diag([1.0, -5e-16])
        lower = cholesky_stack(np.stack([spd, indefinite]))
        np.testing.assert_array_equal(lower[0], cholesky_stack(spd))
        np.testing.assert_array_equal(lower[0], np.linalg.cholesky(spd))
        np.testing.assert_array_equal(lower[1], cholesky_stack(indefinite))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSolveSpd:
    def test_identity_solve(self, rng):
        b = rng.standard_normal((3, 2))
        np.testing.assert_allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(x, [[1.0], [1.0]])

    def test_solve_against_self(self, rng):
        a = random_spd(rng, 4)
        x = solve_spd(a, a)
        assert max_abs(a @ x - a) <= 1e-9 * (1.0 + max_abs(a))

    def test_inverse_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = random_spd(rng, n)
            assert max_abs(a @ solve_spd(a, np.eye(n)) - np.eye(n)) <= 1e-8

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.diag([1.0, -2.0]), np.ones(2))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue_symmetric(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue_symmetric(np.diag([2.0, 5.0])) == pytest.approx(2.0)

    def test_closed_form_2x2(self):
        assert min_eigenvalue_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            min_eigenvalue_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_below_every_diagonal_entry(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            assert min_eigenvalue_symmetric(a) <= float(np.min(np.diag(a))) + 1e-12

    def test_eigenpair_residual(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = random_spd(rng, n)
            lam = min_eigenvalue_symmetric(a)
            vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
            v = vecs[:, 0]
            assert float(np.linalg.norm(a @ v - lam * v)) <= 1e-8 * max_abs(a)


class TestInducedL1Norm:
    def test_identity(self):
        assert induced_l1_norm(np.eye(5)) == 1.0

    def test_max_column_abs_sum(self):
        assert induced_l1_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0

    def test_zero_matrix(self):
        assert induced_l1_norm(np.zeros((3, 3))) == 0.0

    def test_vector_is_abs_sum(self):
        assert induced_l1_norm(np.array([1.0, -2.0, 3.0])) == 6.0

    def test_submultiplicative(self, rng):
        for _ in range(50):
            n, k, m = (int(v) for v in rng.integers(1, 6, size=3))
            a = rng.standard_normal((n, k))
            b = rng.standard_normal((k, m))
            assert induced_l1_norm(a @ b) <= induced_l1_norm(a) * induced_l1_norm(b) + 1e-12
