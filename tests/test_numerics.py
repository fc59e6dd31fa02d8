import re
from pathlib import Path

import numpy as np
import pytest

import robustkf

from robustkf import (
    DimensionMismatch,
    GaussianBelief,
    KernelConfig,
    NotPositiveDefinite,
    NotSymmetric,
    StateSpaceModel,
    build_regression,
    cholesky_lower,
    mckf_step,
    min_eigenvalue_symmetric,
    solve_spd,
)
from robustkf.numerics import PSD_RTOL, cholesky_stack, einsum
from conftest import induced_l1_norm, random_spd


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

    def test_singular_stack_factor_has_zero_columns(self, rng):
        v = np.array([1.0, 2.0])
        lower = cholesky_stack(np.outer(v, v))  # rank one, zero second pivot
        np.testing.assert_array_equal(lower, [[1.0, 0.0], [2.0, 0.0]])
        for _ in range(50):
            n = int(rng.integers(2, 7))
            b = rng.standard_normal((n, int(rng.integers(0, n))))
            a = b @ b.T
            lower = cholesky_stack(a)
            assert np.array_equal(np.tril(lower), lower)
            assert max_abs(lower @ lower.T - a) <= 1e-10 * (1.0 + max_abs(a))
        # A zero pivot before a nonzero one; entries near the float maximum,
        # where an unscaled eigen-root overflows; the zero matrix; a small first
        # pivot, which the roots of round-off eigenvalues (~1e-8) would tilt.
        middle_zero = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        small_first = np.outer([8e-4, -0.5, -3.0], [8e-4, -0.5, -3.0])
        for a in (middle_zero, np.full((2, 2), 1e308), np.zeros((3, 3)), small_first):
            lower = cholesky_stack(a)
            assert np.array_equal(np.tril(lower), lower)
            assert max_abs(lower @ lower.T - a) <= 1e-10 * (1.0 + max_abs(a))
        assert not cholesky_stack(middle_zero)[:, 1].any()
        assert not cholesky_stack(np.zeros((3, 3))).any()

    def test_round_off_pivot_gives_zero_column(self):
        # The tolerance is relative to each matrix: -5e-16 is round-off beside
        # 1, and -1e-5 beside 1e6, but not beside 1.
        np.testing.assert_array_equal(cholesky_stack(np.diag([1.0, -5e-16])), np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(cholesky_stack(np.diag([1e6, -1e-5])), np.diag([1e3, 0.0]))
        # A NaN or infinite entry is never round-off.
        non_finite = (np.array([[np.inf, 1.0], [1.0, -1.0]]), np.array([[1.0, 1.0], [1.0, -np.inf]]))
        for a in (np.diag([1.0, -1e-5]), np.diag([1.0, -1.0])) + non_finite:
            with pytest.raises(NotPositiveDefinite):
                cholesky_stack(a)

    def test_every_covariance_a_belief_accepts_factors(self):
        # Nearly singular, slightly indefinite: Q diag(1, 10^U(-16,-8),
        # -10^U(-13,-9.5)) Q'.  The belief's eigenvalue rule decides; the factor,
        # the regression and a step with F = I, Q = 0 (so P_pred is the belief's
        # covariance) must then all go through.
        rng = np.random.default_rng(2026)
        model = StateSpaceModel(F=np.eye(3), H=[[1.0, 0.5, -0.3]], Q=np.zeros((3, 3)), R=[[0.1]])
        config = KernelConfig(sigma=2.0, epsilon=1e-6)
        beliefs = []
        for _ in range(2000):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            lam = [1.0, 10 ** rng.uniform(-16, -8), -(10 ** rng.uniform(-13, -9.5))]
            try:
                beliefs.append(GaussianBelief(np.zeros(3), q @ np.diag(lam) @ q.T))
            except NotPositiveDefinite:
                pass
        assert len(beliefs) > 1000
        covs = np.stack([b.cov for b in beliefs])
        lower = cholesky_stack(covs)
        scale = np.max(np.abs(covs), axis=(1, 2))
        assert np.all(np.max(np.abs(lower @ lower.transpose(0, 2, 1) - covs), axis=(1, 2))
                      <= np.sqrt(PSD_RTOL) * scale)
        for belief in beliefs:  # zero innovation: one fixed-point trip each
            build_regression(model, belief, [0.0])
            mckf_step(model, belief, [0.0], config)

    def test_not_positive_definite(self):
        # A singular matrix has no positive definite factor, whatever
        # cholesky_stack returns for it.
        for a in (np.diag([1.0, -1.0]), np.outer([1.0, 2.0], [1.0, 2.0]), np.zeros((2, 2))):
            with pytest.raises(NotPositiveDefinite):
                cholesky_lower(a)

    def test_failing_stack_keeps_lapack_factors(self):
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

    @pytest.mark.parametrize("a", [np.zeros((0, 0)), np.ones((2, 3))])
    def test_empty_or_nonsquare_input_is_a_dimension_mismatch(self, a):
        with pytest.raises(DimensionMismatch):
            cholesky_lower(a)


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

    def test_rhs_of_the_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(2), np.ones(3))

    def test_propagates_not_positive_definite(self):
        for a in (np.diag([1.0, -2.0]), np.outer([1.0, 2.0], [1.0, 2.0])):
            with pytest.raises(NotPositiveDefinite):
                solve_spd(a, np.ones(2))


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


SRC = Path(robustkf.__file__).parent
#: The subscripts of every ``einsum(...)`` call in the package.
EINSUM_SUBSCRIPTS = sorted({
    m for path in SRC.glob("*.py") for m in re.findall(r'einsum\("([^"]+)"', path.read_text())
})


class TestEinsum:
    @pytest.mark.parametrize("rows", [1, 100, 4000])
    @pytest.mark.parametrize("subscripts", EINSUM_SUBSCRIPTS)
    def test_equals_numpy_einsum_bit_for_bit(self, subscripts, rows):
        # ``r`` and ``...`` are the runs axis; other letters get distinct small
        # sizes.  The runs of the first operand are every other row of a
        # wider array, a strided view like the loops' slices.
        rng = np.random.default_rng(rows)
        sizes = {"r": rows, ".": rows, "i": 3, "j": 4, "k": 5, "l": 2}
        operands = []
        for spec in subscripts.split("->")[0].split(","):
            shape = [sizes[c] for c in spec.replace("...", ".")]
            operands.append(rng.standard_normal(shape))
        if subscripts[0] in "r.":
            operands[0] = np.repeat(operands[0], 2, axis=0)[::2]
        ours, theirs = einsum(subscripts, *operands), np.einsum(subscripts, *operands)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()

    def test_the_package_calls_no_numpy_einsum(self):
        assert "ij,rj->ri" in EINSUM_SUBSCRIPTS  # the parametrization above is not empty
        calls = [p.name for p in SRC.glob("*.py") if re.search(r"\b(np|numpy)\.einsum\(", p.read_text())]
        assert calls == []
