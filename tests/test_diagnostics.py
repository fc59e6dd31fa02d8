import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustkf
from robustkf import (
    BetaTooSmall,
    BracketNotFound,
    ExperimentConfig,
    GaussianBelief,
    SingularDesign,
    StateSpaceModel,
    build_regression,
    flop_counts,
    gaussian_kernel,
    generate_run_data,
    jacobian_f,
    kf_predict,
    kf_update,
    phi_sigma,
    psi_sigma,
    sufficient_sigma,
    zeta,
)
from robustkf import diagnostics
from robustkf.diagnostics import (
    _BETA_EXCESS,
    _COARSE,
    _COARSE_STRIDE,
    _SIGMA_GRID,
    _bound_parts,
    _bounds,
)
from robustkf.mckf import WEIGHT_FLOOR, AugmentedRegression, weighted_qr_map
from conftest import induced_l1_norm, random_problem, random_regression


def unit_scalar_regression(x_prior=1.0, y=1.0):
    """n = m = 1, unit covariances: W = [[1], [1]], D = [x_prior, y]."""
    model = StateSpaceModel(F=[[1.0]], H=[[1.0]], Q=[[0.0]], R=[[1.0]])
    prior = GaussianBelief([x_prior], [[1.0]])
    return build_regression(model, prior, [y])


def brute_force_phi(reg, beta, sigma):
    """Independent loop evaluation of the ball-confinement bound."""
    n = reg.n
    numer = 0.0
    gram = np.zeros((n, n))
    for i in range(reg.L):
        w_i = reg.W[i]
        w1 = sum(abs(v) for v in w_i)
        numer += w1 * abs(reg.D[i])
        radius = beta * w1 + abs(reg.D[i])
        g = math.exp(-(radius**2) / (2.0 * sigma**2))
        gram += g * np.outer(w_i, w_i)
    lam = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[0])
    return math.sqrt(n) * numer / lam


def brute_force_psi(reg, beta, sigma):
    """Independent loop evaluation of the contraction-factor bound."""
    n = reg.n
    numer = 0.0
    gram = np.zeros((n, n))
    for i in range(reg.L):
        w_i = reg.W[i]
        w1 = sum(abs(v) for v in w_i)
        radius = beta * w1 + abs(reg.D[i])
        rank_one = np.outer(w_i, w_i)
        rank_one_norm = max(np.sum(np.abs(rank_one), axis=0)) if n else 0.0
        cross_norm = sum(abs(v * reg.D[i]) for v in w_i)
        numer += radius * w1 * (beta * rank_one_norm + cross_norm)
        g = math.exp(-(radius**2) / (2.0 * sigma**2))
        gram += g * np.outer(w_i, w_i)
    lam = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[0])
    return math.sqrt(n) * numer / (sigma**2 * lam)


def evaluable_bandwidth(reg, beta, shrink=5.0):
    """A bandwidth at which no kernel weight of the bound underflows."""
    w_abs_sum = np.sum(np.abs(reg.W), axis=1)
    radii = beta * w_abs_sum + np.abs(reg.D)
    return float(np.max(radii)) / shrink + 1e-6


def hand_regression(W, D):
    """A regression snapshot with a given design, two state rows first."""
    return AugmentedRegression(D=np.asarray(D, dtype=float), W=np.asarray(W, dtype=float))


def plain_root(fn, target):
    """Bracket scan and 80 geometric bisection steps, one bandwidth at a time."""

    def gap(sigma):
        try:
            return fn(sigma) - target
        except SingularDesign:
            return math.inf

    grid = _SIGMA_GRID
    if gap(grid[0]) <= 0.0:
        return float(grid[0])
    for prev, sigma in zip(grid, grid[1:]):
        if gap(sigma) <= 0.0:
            lo, hi = prev, sigma
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                if gap(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return float(hi)
    raise BracketNotFound("no bracket")


def assert_roots_equal_plain(reg, beta, alpha):
    cert = sufficient_sigma(reg, beta, alpha)
    assert cert.sigma_star == plain_root(lambda s: phi_sigma(reg, beta, s), beta)
    assert cert.sigma_dagger == plain_root(lambda s: psi_sigma(reg, beta, s), alpha)
    return cert


def kf_snapshots(example, seed, steps=64):
    """Regressions and default ball radii of consecutive KF steps, as ``diagnose`` forms them."""
    config = ExperimentConfig.from_dict({
        "example": example, "noise_case": "impulsive-measurement",
        "runs": 1, "steps": steps, "master_seed": seed, "filters": [{"kind": "kf"}],
    })
    data = generate_run_data(config, 0)
    model = config.filter_model()
    belief = GaussianBelief(data.x0_hat, config.p0_scale * np.eye(model.n))
    for y in data.measurements:
        prior = kf_predict(model, belief)
        reg = build_regression(model, prior, y)
        yield reg, 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
        belief, _ = kf_update(model, prior, y)


def record_bounds(monkeypatch):
    """Record the bandwidths of every stacked `_bounds` call of the root search."""
    calls = []

    def recording_bounds(reg, parts, sigmas):
        calls.append(list(sigmas))
        return _bounds(reg, parts, sigmas)

    monkeypatch.setattr(diagnostics, "_bounds", recording_bounds)
    return calls


def set_phi(monkeypatch, sigmas, value):
    """Make every `_bounds` call return ``phi = value`` at ``sigmas``, as rounding might."""
    bounds = diagnostics._bounds

    def patched_bounds(reg, parts, at):
        phi, psi = bounds(reg, parts, at)
        return np.where(np.isin(at, sigmas), value, phi), psi

    monkeypatch.setattr(diagnostics, "_bounds", patched_bounds)


def tiny_scale_regression(rng):
    """A snapshot whose kernel weights are 1 on the whole grid, so psi is ``c / sigma^2``.

    With ``beta = 2 zeta`` phi's root is the left edge, so only psi is
    bisected, and ``alpha = psi(s)`` places psi's root at ``s``.
    """
    base = random_regression(rng, 2, 2)
    reg = dataclasses.replace(base, D=base.D * 1e-9)
    return reg, 2.0 * zeta(reg)


def finite_difference_jacobian(reg, x, sigma, step=1e-6):
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        delta = np.zeros(n)
        delta[j] = step
        jac[:, j] = (
            weighted_qr_map(reg, x + delta, sigma)[0] - weighted_qr_map(reg, x - delta, sigma)[0]
        ) / (2.0 * step)
    return jac


class TestZeta:
    def test_hand_value(self):
        reg = unit_scalar_regression(x_prior=1.0, y=1.0)
        assert zeta(reg) == pytest.approx(1.0, rel=1e-12)

    def test_zero_observations(self):
        reg = unit_scalar_regression(x_prior=0.0, y=0.0)
        assert zeta(reg) == 0.0

    def test_linear_in_observation_magnitude(self):
        assert zeta(unit_scalar_regression(2.0, 2.0)) == pytest.approx(
            2.0 * zeta(unit_scalar_regression(1.0, 1.0))
        )

    def test_ill_conditioned_full_rank_design(self):
        # cond(W) is about 2.8e9, so lambda_min(W'W) is about 1e-18: below
        # the rounding of the Gram matrix, but W itself has full rank.
        reg = hand_regression(
            [[1.0, 1.0], [1.0, 1.0 + 1e-9], [1.0, 1.0 - 1e-9], [1.0, 1.0]], [0.1, 0.2, 0.0, 0.3]
        )
        s = np.linalg.svd(reg.W, compute_uv=False)
        assert s[0] / s[-1] > 1e9
        num = math.sqrt(2) * float(np.sum(np.abs(reg.W), axis=1) @ np.abs(reg.D))
        assert zeta(reg) == pytest.approx(num / s[-1] ** 2, rel=1e-9)


class TestPhi:
    def test_limit_is_zeta(self, rng):
        reg = random_regression(rng, 3, 2)
        z = zeta(reg)
        assert phi_sigma(reg, beta=2.0 * z + 1.0, sigma=1e12) == pytest.approx(z, rel=1e-9)

    def test_never_below_zeta(self, rng):
        reg = random_regression(rng, 2, 2)
        z = zeta(reg)
        beta = 2.0 * z + 1.0
        for sigma in np.geomspace(0.5, 1e6, 15):
            try:
                value = phi_sigma(reg, beta, float(sigma))
            except SingularDesign:
                continue  # kernel weights underflow: bound is effectively infinite
            assert value >= z - 1e-12

    def test_nonincreasing_in_bandwidth(self, rng):
        reg = random_regression(rng, 2, 1)
        beta = 2.0 * zeta(reg) + 1.0
        sigmas = np.geomspace(evaluable_bandwidth(reg, beta), 1e6, 12)
        values = [phi_sigma(reg, beta, float(s)) for s in sigmas]
        assert all(a >= b * (1.0 - 1e-12) for a, b in zip(values, values[1:]))

    def test_matches_brute_force(self):
        reg = unit_scalar_regression(x_prior=1.0, y=1.0)
        assert phi_sigma(reg, 2.0, 1.0) == pytest.approx(brute_force_phi(reg, 2.0, 1.0), rel=1e-12)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            phi_sigma(unit_scalar_regression(x_prior=1.0, y=1.0), 2.0, 0.0)

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            reg = random_regression(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            beta = min(2.0 * zeta(reg) + 0.5, 10.0)
            sigma = evaluable_bandwidth(reg, beta) * float(rng.uniform(1.0, 4.0))
            assert phi_sigma(reg, beta, sigma) == pytest.approx(
                brute_force_phi(reg, beta, sigma), rel=1e-10
            )


class TestPsi:
    def test_decreasing_in_bandwidth(self, rng):
        for _ in range(10):
            reg = random_regression(rng, 2, 1)
            beta = 2.0 * zeta(reg) + 1.0
            sigma = evaluable_bandwidth(reg, beta) * float(rng.uniform(1.0, 4.0))
            assert psi_sigma(reg, beta, 2.0 * sigma) < psi_sigma(reg, beta, sigma)

    def test_vanishes_with_zero_data_and_radius(self):
        reg = unit_scalar_regression(x_prior=0.0, y=0.0)
        assert psi_sigma(reg, beta=0.0, sigma=1.0) == 0.0

    def test_vanishes_at_large_bandwidth(self, rng):
        reg = random_regression(rng, 2, 2)
        beta = 2.0 * zeta(reg) + 1.0
        assert psi_sigma(reg, beta, 1e9) < 1e-12

    def test_matches_brute_force(self):
        reg = unit_scalar_regression(x_prior=1.0, y=1.0)
        assert psi_sigma(reg, 2.0, 1.0) == pytest.approx(brute_force_psi(reg, 2.0, 1.0), rel=1e-12)

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            reg = random_regression(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            beta = min(2.0 * zeta(reg) + 0.5, 10.0)
            sigma = evaluable_bandwidth(reg, beta) * float(rng.uniform(1.0, 4.0))
            assert psi_sigma(reg, beta, sigma) == pytest.approx(
                brute_force_psi(reg, beta, sigma), rel=1e-10
            )


class TestSufficientSigma:
    def test_beta_below_zeta_rejected(self):
        reg = unit_scalar_regression(x_prior=1.0, y=1.0)
        with pytest.raises(BetaTooSmall):
            sufficient_sigma(reg, beta=0.5 * zeta(reg), alpha=0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_beta_within_rounding_of_zeta_rejected(self, seed):
        # Near zeta, phi meets beta only where its rounding decides the
        # grid's reached mask (it flickers for seeds 1 and 2 at one ulp).
        reg = random_regression(np.random.default_rng(seed), 2, 1)
        z = zeta(reg)
        for ulps in (1, 2, 8, 64, 1024):
            with pytest.raises(BetaTooSmall):
                sufficient_sigma(reg, z * (1.0 + ulps * np.finfo(float).eps), 0.5)
        assert_roots_equal_plain(reg, z * (1.0 + 2.0 * _BETA_EXCESS), 0.5)

    def test_masks_monotone_just_above_the_beta_margin(self):
        rng = np.random.default_rng(4096)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            base = random_regression(rng, n, int(rng.integers(1, n + 1)))
            reg = dataclasses.replace(base, D=base.D * 10.0 ** rng.uniform(-3.0, 3.0))
            beta = np.nextafter(zeta(reg) * (1.0 + _BETA_EXCESS), math.inf)
            reached = _bounds(reg, _bound_parts(reg, beta), _SIGMA_GRID)[0] <= beta
            assert not np.any(reached[:-1] & ~reached[1:])  # all False, then all True

    def test_alpha_range_enforced(self):
        reg = unit_scalar_regression(x_prior=1.0, y=1.0)
        with pytest.raises(ValueError):
            sufficient_sigma(reg, beta=10.0, alpha=1.5)

    def test_root_residuals(self, rng):
        for _ in range(5):
            model, prior, y = random_problem(rng, 2, 1)
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            assert phi_sigma(reg, beta, cert.sigma_star) == pytest.approx(beta, rel=1e-6)
            assert psi_sigma(reg, beta, cert.sigma_dagger) == pytest.approx(0.5, rel=1e-6)
            assert cert.sigma_min == max(cert.sigma_star, cert.sigma_dagger)
            assert cert.beta > cert.zeta

    def test_certified_ball_satisfies_banach_conditions(self, rng):
        for _ in range(5):
            model, prior, y = random_problem(rng, 2, 1)
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            for _ in range(20):
                # uniform direction on the l1 sphere, scaled into the ball
                raw = rng.exponential(size=2) * rng.choice([-1.0, 1.0], size=2)
                point = beta * rng.uniform() ** 0.5 * raw / np.sum(np.abs(raw))
                image = weighted_qr_map(reg, point, cert.sigma_min)[0]
                assert float(np.sum(np.abs(image))) <= beta * (1.0 + 1e-9)
                jac = finite_difference_jacobian(reg, point, cert.sigma_min)
                assert induced_l1_norm(jac) <= 0.5 + 1e-6

    def test_unique_fixed_point_under_restarts(self, rng):
        model, prior, y = random_problem(rng, 2, 1)
        reg = build_regression(model, prior, y)
        beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
        cert = sufficient_sigma(reg, beta, 0.5)
        limits = []
        for _ in range(10):
            raw = rng.exponential(size=2) * rng.choice([-1.0, 1.0], size=2)
            x = beta * rng.uniform() ** 0.5 * raw / np.sum(np.abs(raw))
            for _ in range(300):
                x_next = weighted_qr_map(reg, x, cert.sigma_min)[0]
                if float(np.max(np.abs(x_next - x))) <= 1e-13:
                    break
                x = x_next
            limits.append(x_next)
        for lim in limits[1:]:
            assert float(np.max(np.abs(lim - limits[0]))) <= 1e-8


class TestRootScan:
    def test_stacked_bounds_equal_public_bounds(self, rng):
        grid = _SIGMA_GRID
        for _ in range(3):
            model, prior, y = random_problem(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            phi, psi = _bounds(reg, _bound_parts(reg, beta), grid)
            assert np.isnan(phi).any() and np.isfinite(phi).any()
            for sigma, phi_k, psi_k in zip(grid, phi, psi):
                for public, stacked in ((phi_sigma, phi_k), (psi_sigma, psi_k)):
                    if np.isnan(stacked):
                        with pytest.raises(SingularDesign):
                            public(reg, beta, sigma)
                    else:
                        assert public(reg, beta, sigma) == stacked

    def test_roots_equal_plain_bisection(self, rng):
        for _ in range(4):
            model, prior, y = random_problem(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            reg = build_regression(model, prior, y)
            beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
            cert = sufficient_sigma(reg, beta, 0.5)
            assert cert.sigma_star == plain_root(lambda s: phi_sigma(reg, beta, s), beta)
            assert cert.sigma_dagger == plain_root(lambda s: psi_sigma(reg, beta, s), 0.5)

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_kf_snapshots_equal_plain_bisection(self, example):
        for reg, beta in kf_snapshots(example, seed=11):
            assert_roots_equal_plain(reg, beta, 0.5)

    def test_root_at_a_coarse_grid_point(self, rng):
        reg, beta = tiny_scale_regression(rng)
        k = 8 * _COARSE_STRIDE
        alpha = psi_sigma(reg, beta, _SIGMA_GRID[k])
        assert psi_sigma(reg, beta, _SIGMA_GRID[k - 1]) > alpha
        cert = assert_roots_equal_plain(reg, beta, alpha)
        assert cert.sigma_dagger == _SIGMA_GRID[k]

    @pytest.mark.parametrize("k", [1, 11, _COARSE_STRIDE, 590, len(_SIGMA_GRID) - 1])
    def test_root_in_first_and_last_coarse_cell(self, rng, k):
        reg, beta = tiny_scale_regression(rng)
        alpha = psi_sigma(reg, beta, math.sqrt(_SIGMA_GRID[k - 1] * _SIGMA_GRID[k]))
        cert = assert_roots_equal_plain(reg, beta, alpha)
        assert _SIGMA_GRID[k - 1] < cert.sigma_dagger <= _SIGMA_GRID[k]

    def test_coarse_scan_spans_the_grid(self):
        assert _COARSE[0] == 0 and _COARSE[-1] == len(_SIGMA_GRID) - 1
        assert np.all(np.diff(_COARSE) >= 1) and np.all(np.diff(_COARSE) <= _COARSE_STRIDE)

    def test_root_hidden_from_every_coarse_point_is_found(self, rng, monkeypatch):
        # As if rounding made phi miss beta at every coarse point: the whole
        # grid is rescanned before the root is declared out of range.
        reg = random_regression(rng, 2, 1)
        beta = 2.0 * zeta(reg)
        set_phi(monkeypatch, _SIGMA_GRID[_COARSE], np.inf)
        assert_roots_equal_plain(reg, beta, 0.5)

    def test_root_past_a_point_that_reaches_out_of_order(self, rng, monkeypatch):
        # As if rounding made phi reach beta at one fine point well left of
        # the root: the coarse scan passes it, and the bracket found still
        # has a left end that misses and a right end that reaches.
        reg = random_regression(rng, 2, 1)
        beta = 2.0 * zeta(reg)
        k = int(np.searchsorted(_SIGMA_GRID, sufficient_sigma(reg, beta, 0.5).sigma_star))
        fluke = (k // _COARSE_STRIDE - 2) * _COARSE_STRIDE + 7
        set_phi(monkeypatch, _SIGMA_GRID[fluke], 0.0)
        assert plain_root(lambda s: phi_sigma(reg, beta, s), beta) < _SIGMA_GRID[fluke + 1]
        sigma_star = sufficient_sigma(reg, beta, 0.5).sigma_star
        assert _SIGMA_GRID[k - 1] < sigma_star <= _SIGMA_GRID[k]
        assert phi_sigma(reg, beta, sigma_star) <= beta < phi_sigma(reg, beta, _SIGMA_GRID[k - 1])

    def test_singular_left_end_takes_the_geometric_midpoint(self, monkeypatch):
        # With D = 0, phi is 0 wherever C^1/2 W has full rank and NaN where
        # the weight of the long row underflows, so phi's root is the first
        # nonsingular grid point and its cell's left end is singular.
        reg = hand_regression([[1.0, 0.0], [0.0, 1000.0], [1.0, 0.0]], [0.0, 0.0, 0.0])
        beta = 1e-3
        calls = record_bounds(monkeypatch)
        cert = sufficient_sigma(reg, beta, 0.5)
        monkeypatch.undo()
        assert cert.sigma_star == plain_root(lambda s: phi_sigma(reg, beta, s), beta)
        k = int(np.searchsorted(_SIGMA_GRID, cert.sigma_star))
        assert 0 < k < len(_SIGMA_GRID) and phi_sigma(reg, beta, _SIGMA_GRID[k]) == 0.0
        with pytest.raises(SingularDesign):
            phi_sigma(reg, beta, _SIGMA_GRID[k - 1])
        # The predicted root is the first midpoint, so the path turns left there.
        lo = _SIGMA_GRID[k - 1]
        first = math.sqrt(lo * _SIGMA_GRID[k])
        path = next(sigmas for sigmas in calls if sigmas[0] == first)
        assert path[1] == math.sqrt(lo * first)

    def test_path_left_after_one_level(self, rng, monkeypatch):
        # psi = c / sigma^2 is convex in log sigma, so the interpolated root
        # lies right of the true one.  With the true root at the cell's
        # geometric midpoint, the first decision keeps the left half while
        # the path was laid out through the right half.
        reg, beta = tiny_scale_regression(rng)
        lo, hi = _SIGMA_GRID[99], _SIGMA_GRID[100]
        first = math.sqrt(lo * hi)
        second = math.sqrt(lo * first)  # the serial loop's second midpoint
        alpha = psi_sigma(reg, beta, first)
        calls = record_bounds(monkeypatch)
        cert = sufficient_sigma(reg, beta, alpha)
        monkeypatch.undo()
        assert cert.sigma_dagger == plain_root(lambda s: psi_sigma(reg, beta, s), alpha)
        path = next(i for i, sigmas in enumerate(calls) if sigmas[0] == first)
        assert len(calls[path]) > 1 and calls[path][1] != second
        assert calls[path + 1][0] == second

    def test_both_roots_at_left_edge(self, rng):
        # With D = 0 phi vanishes, and a tiny ball keeps psi tiny at the edge.
        base = random_regression(rng, 2, 2)
        reg = dataclasses.replace(base, D=np.zeros_like(base.D))
        cert = sufficient_sigma(reg, 1e-12, 0.5)
        assert cert.sigma_star == cert.sigma_dagger == _SIGMA_GRID[0]
        assert cert.sigma_star == plain_root(lambda s: phi_sigma(reg, 1e-12, s), 1e-12)
        assert cert.sigma_dagger == plain_root(lambda s: psi_sigma(reg, 1e-12, s), 0.5)

    def test_one_root_at_left_edge_while_other_is_bisected(self, rng):
        # At a tiny scale the weights are 1 on the whole grid, so phi is
        # within a hair of zeta from the left edge on; a small alpha keeps
        # psi's root inside the range.
        base = random_regression(rng, 2, 2)
        reg = dataclasses.replace(base, D=base.D * 1e-9)
        beta, alpha = 2.0 * zeta(reg), 1e-6
        cert = sufficient_sigma(reg, beta, alpha)
        assert cert.sigma_star == _SIGMA_GRID[0] < cert.sigma_dagger
        assert cert.sigma_star == plain_root(lambda s: phi_sigma(reg, beta, s), beta)
        assert cert.sigma_dagger == plain_root(lambda s: psi_sigma(reg, beta, s), alpha)

    def test_no_root_in_search_range(self, rng):
        # Residual radii near 1e12 underflow every kernel weight on the grid.
        base = random_regression(rng, 2, 2)
        reg = dataclasses.replace(base, D=base.D * 1e12)
        beta = 2.0 * zeta(reg)
        with pytest.raises(BracketNotFound):
            plain_root(lambda s: phi_sigma(reg, beta, s), beta)
        with pytest.raises(BracketNotFound, match="phi root"):
            sufficient_sigma(reg, beta, 0.5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected_before_any_svd(self, rng, monkeypatch, beta):
        reg = random_regression(rng, 2, 1)

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for call in (
            lambda: sufficient_sigma(reg, beta, 0.5),
            lambda: phi_sigma(reg, beta, 1.0),
            lambda: psi_sigma(reg, beta, 1.0),
        ):
            with pytest.raises(ValueError, match="beta must be finite"):
                call()

    def test_huge_beta_finds_no_root_without_warnings(self, rng):
        reg = random_regression(rng, 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketNotFound):
                sufficient_sigma(reg, 1e300, 0.5)

    def test_no_floating_point_warnings(self):
        # Kernel weights underflow at small bandwidths, and the bounds then
        # divide by a zero lambda_min.
        rng = np.random.default_rng(808)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(25):
                model, prior, y = random_problem(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
                reg = build_regression(model, prior, y)
                beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
                sufficient_sigma(reg, beta, 0.5)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    scale=st.floats(-3.0, 3.0),
    # beta = zeta (1 + excess) covers (zeta, 10 zeta]; excesses of 1 to 2^16
    # ulps reach either side of where phi meets beta only to rounding.
    excess=st.one_of(
        st.integers(1, 2**16).map(lambda ulps: ulps * np.finfo(float).eps),
        st.floats(0.0, 9.0, exclude_min=True),
    ),
    alpha=st.floats(1e-6, 0.9),
)
@example(seed=1424878, dims=(1, 1), scale=0.0, excess=np.finfo(float).eps, alpha=0.5)
@example(seed=1, dims=(2, 1), scale=0.0, excess=1.01 * _BETA_EXCESS, alpha=0.5)
@example(seed=2, dims=(4, 3), scale=-2.0, excess=2.0 * _BETA_EXCESS, alpha=1e-6)
def test_reached_masks_are_monotone_and_roots_equal_plain(seed, dims, scale, excess, alpha):
    base = random_regression(np.random.default_rng(seed), *dims)
    reg = dataclasses.replace(base, D=base.D * 10.0**scale)
    z = zeta(reg)
    beta = z * (1.0 + excess)
    if beta <= z * (1.0 + _BETA_EXCESS):
        with pytest.raises(BetaTooSmall):
            sufficient_sigma(reg, beta, alpha)
        return
    for values, target in zip(_bounds(reg, _bound_parts(reg, beta), _SIGMA_GRID), (beta, alpha)):
        reached = values <= target
        assert not np.any(reached[:-1] & ~reached[1:])  # all False, then all True
    roots = []
    for fn, target in ((phi_sigma, beta), (psi_sigma, alpha)):
        try:
            roots.append(plain_root(lambda s: fn(reg, beta, s), target))
        except BracketNotFound:
            roots.append(None)
    if None in roots:
        with pytest.raises(BracketNotFound):
            sufficient_sigma(reg, beta, alpha)
    else:
        cert = sufficient_sigma(reg, beta, alpha)
        assert [cert.sigma_star, cert.sigma_dagger] == roots


def test_package_runs_without_scipy():
    # NumPy is the only numerical dependency: with every SciPy import made to
    # fail, each code path below that factorizes or solves still runs.
    code = textwrap.dedent("""
        import sys
        import tempfile
        sys.modules["scipy"] = None
        import numpy as np
        from robustkf import (
            ExperimentConfig, FilterSpec, GaussianBelief, KernelConfig, StateSpaceModel,
            build_regression, fixed_point_direct, jacobian_f, kf_predict, kf_update,
            mckf_step, run_monte_carlo, solve_spd, sufficient_sigma, zeta,
        )
        from robustkf.cli import run_cli

        with tempfile.TemporaryDirectory() as out:
            args = ["simulate", "--runs", "2", "--steps", "20", "--seed", "3", "--out", out]
            assert run_cli(args) == 0
        kernel = KernelConfig(sigma=2.0, epsilon=1e-6)
        config = ExperimentConfig(
            runs=2, steps=20, noise_case="impulsive-both",
            filters=(FilterSpec("kf"), FilterSpec("mckf", kernel)),
        )
        assert not run_monte_carlo(config, engine="reference").failed_runs.any()
        model = StateSpaceModel(F=np.eye(2), H=[[1.0, 0.0]], Q=0.1 * np.eye(2), R=[[1.0]])
        belief = GaussianBelief([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        mckf_step(model, belief, [0.5], kernel)
        kf_update(model, kf_predict(model, belief), [0.5])
        solve_spd(belief.cov, np.ones(2))
        reg = build_regression(model, belief, [0.5])
        x = fixed_point_direct(model, belief, [0.5], kernel)[0]
        jacobian_f(reg, x, kernel.sigma)
        sufficient_sigma(reg, 2.0 * zeta(reg), 0.5)
        assert run_cli(["diagnose", "--example", "1", "--noise", "gaussian", "--seed", "3"]) == 0
    """)
    src = str(Path(robustkf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestJacobian:
    def test_zero_residuals_give_zero_jacobian(self, rng):
        base = random_regression(rng, 3, 2)
        x_star = rng.standard_normal(3)
        reg = AugmentedRegression(D=base.W @ x_star, W=base.W)
        jac = jacobian_f(reg, x_star, sigma=1.3)
        assert float(np.max(np.abs(jac))) <= 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            reg = random_regression(rng, n, m)
            x = rng.standard_normal(n)
            sigma = float(rng.uniform(1.0, 4.0))
            analytic = jacobian_f(reg, x, sigma)
            numeric = finite_difference_jacobian(reg, x, sigma)
            scale = 1.0 + float(np.max(np.abs(numeric)))
            assert float(np.max(np.abs(analytic - numeric))) <= 1e-5 * scale

    def test_vanishes_at_large_bandwidth(self, rng):
        reg = random_regression(rng, 2, 2)
        jac = jacobian_f(reg, rng.standard_normal(2), sigma=1e8)
        assert float(np.max(np.abs(jac))) <= 1e-12

    def test_floored_row_and_ill_conditioned_design(self):
        # The first three rows nearly share one direction, so the last row
        # carries most of what fixes the other one; at x = 0 its weight is
        # exp(-7.5^2 / 2) = 6.1e-13, below WEIGHT_FLOOR.  The map holds that
        # weight at the floor, so the row has no derivative, and the whitened
        # design C^½ W has a condition number near 2e3 (4e6 for W' C W).
        reg = hand_regression(
            [[1.0, 1.0], [1.0, 1.001], [1.0, 0.999], [0.0, 1000.0]], [0.1, 0.2, 0.0, 7.5]
        )
        x = np.zeros(2)
        assert gaussian_kernel(reg.D[3], 1.0) < WEIGHT_FLOOR
        analytic = jacobian_f(reg, x, 1.0)
        numeric = finite_difference_jacobian(reg, x, 1.0)
        scale = 1.0 + float(np.max(np.abs(numeric)))
        assert float(np.max(np.abs(analytic - numeric))) <= 1e-5 * scale

    def test_rank_deficient_design_is_singular(self):
        reg = hand_regression(
            [[1.0, 2.0], [-0.5, -1.0], [3.0, 6.0], [0.7, 1.4]], [1.0, 0.0, -1.0, 2.0]
        )
        with pytest.raises(SingularDesign):
            jacobian_f(reg, np.zeros(2), 1.5)
        with pytest.raises(SingularDesign):
            weighted_qr_map(reg, np.zeros(2), 1.5)
        with pytest.raises(SingularDesign):
            zeta(reg)
        with pytest.raises(SingularDesign):
            phi_sigma(reg, 1.0, 1.5)
        with pytest.raises(SingularDesign):
            psi_sigma(reg, 1.0, 1.5)


class TestFlopCounts:
    def test_two_state_single_measurement(self):
        counts = flop_counts(2, 1, 1)
        assert counts.kf == 110
        assert counts.kf_o_terms == ("O(m^3)",)

    def test_scalar_chain_single_iteration(self):
        counts = flop_counts(1, 1, 1)
        assert counts.mckf == 36
        assert counts.mckf_o_terms == ("1*O(n^3)", "2*O(m^3)")

    def test_monotone_in_iteration_count(self):
        values = [flop_counts(3, 2, t).mckf for t in range(1, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            flop_counts(0, 1, 1)
