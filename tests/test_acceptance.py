"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured values behind them.
"""

import numpy as np
import pytest

from robustkf import (
    ExperimentConfig,
    FilterSpec,
    GaussianBelief,
    KernelConfig,
    build_regression,
    cholesky_lower,
    fixed_point_direct,
    fixed_point_iterate,
    flop_counts,
    generate_run_data,
    jacobian_f,
    kf_predict,
    kf_update,
    mckf_step,
    run_monte_carlo,
    sufficient_sigma,
    zeta,
)
from robustkf.cli import run_cli
from robustkf.mckf import weighted_qr_map
from robustkf.numerics import cholesky_stack
from conftest import induced_l1_norm, random_model, random_problem, random_regression, random_spd


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def max_rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))


def assert_covariances_psd(covariances):
    """Smallest eigenvalue of every recorded posterior covariance."""
    flat = covariances.reshape(-1, *covariances.shape[-2:])
    eigs = np.linalg.eigvalsh((flat + flat.transpose(0, 2, 1)) / 2.0)
    scale = np.maximum(np.abs(flat).max(axis=(1, 2)), 1e-300)
    worst = float(np.min(eigs[:, 0] / scale))
    assert worst >= -1e-10, f"posterior covariance not PSD: min scaled eig {worst}"
    return worst


def l1_ball_point(rng, n, radius):
    raw = rng.exponential(size=n) * rng.choice([-1.0, 1.0], size=n)
    return radius * rng.uniform() ** (1.0 / n) * raw / np.sum(np.abs(raw))


def test_criterion_01_large_bandwidth_reduces_to_kf():
    rng = np.random.default_rng(101)
    config = KernelConfig(sigma=1e8, epsilon=1e-6)
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        model = random_model(rng, n, m)
        start = GaussianBelief(rng.standard_normal(n), random_spd(rng, n, 0.2))
        robust, classic = start, start
        for _ in range(100):
            y = rng.standard_normal(m)
            robust, _ = mckf_step(model, robust, y, config)
            classic, _ = kf_update(model, kf_predict(model, classic), y)
            worst_mean = max(worst_mean, max_rel_diff(robust.mean, classic.mean))
            worst_cov = max(worst_cov, max_rel_diff(robust.cov, classic.cov))
    ok = worst_mean <= 1e-8 and worst_cov <= 1e-8
    report("1", ok, f"max relative diff over 50 models x 100 steps: mean {worst_mean:.2e}, cov {worst_cov:.2e}")


def test_criterion_02_gain_form_agrees_with_direct_form_per_iterate():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        problem = random_problem(rng, n, m)
        sigma = float(rng.uniform(1.0, 4.0))
        for depth in (1, 2, 3, 4, 5):
            cfg = KernelConfig(sigma=sigma, epsilon=1e-300, max_iterations=depth)
            x_gain, _, _ = fixed_point_iterate(*problem, cfg)
            x_direct = fixed_point_direct(*problem, cfg)[0]
            worst = max(worst, float(np.max(np.abs(x_gain - x_direct))))
    report("2", worst <= 1e-10, f"max per-iterate gap over 100 instances: {worst:.2e}")


def test_criterion_03_gaussian_noise_mse_table():
    config = ExperimentConfig(
        example="example1",
        noise_case="gaussian",
        runs=100,
        steps=1000,
        filters=(
            FilterSpec("kf"),
            FilterSpec("mckf", KernelConfig(5.0, 1e-6)),
            FilterSpec("mckf", KernelConfig(0.5, 1e-6)),
        ),
        master_seed=20230101,
    )
    result = run_monte_carlo(config, collect_covariances=True)
    kf_x1 = float(result.mse[0, 0])
    ratio_wide = float(result.mse[1, 0] / result.mse[0, 0])
    ratio_narrow = float(result.mse[2, 0] / result.mse[0, 0])
    assert_covariances_psd(result.covariances)
    ok = 0.025 <= kf_x1 <= 0.048 and 0.98 <= ratio_wide <= 1.02 and ratio_narrow >= 2.0
    report(
        "3",
        ok,
        f"KF mse(x1)={kf_x1:.6f} in [0.025,0.048]; sigma=5 ratio {ratio_wide:.4f} in "
        f"[0.98,1.02]; sigma=0.5 ratio {ratio_narrow:.2f} >= 2",
    )


def test_criterion_04_iteration_counts_vs_bandwidth():
    sigmas = (0.2, 0.5, 1.0, 2.0, 3.0, 10.0)
    config = ExperimentConfig(
        example="example1",
        noise_case="impulsive-measurement",
        runs=100,
        steps=1000,
        filters=tuple(FilterSpec("mckf", KernelConfig(s, 1e-6)) for s in sigmas),
        master_seed=20230101,
    )
    result = run_monte_carlo(config, collect_covariances=True)
    avgs = result.avg_iterations
    assert_covariances_psd(result.covariances)
    nonincreasing = bool(np.all(np.diff(avgs) <= 1e-12))
    first_ok = 3.0 <= avgs[0] <= 4.8
    last_ok = 1.3 <= avgs[-1] <= 2.0
    detail = (
        "avg iterations " + " ".join(f"{v:.3f}" for v in avgs)
        + f"; nonincreasing={nonincreasing}; sigma=0.2 in [3.0,4.8]={first_ok}; "
        + f"sigma=10 in [1.3,2.0]={last_ok}"
    )
    report("4", nonincreasing and first_ok and last_ok, detail)


def test_criterion_05_stop_threshold_sweep():
    epsilons = (1e-1, 1e-2, 1e-4, 1e-6, 1e-8)
    config = ExperimentConfig(
        example="example1",
        noise_case="impulsive-measurement",
        runs=100,
        steps=1000,
        filters=tuple(FilterSpec("mckf", KernelConfig(2.0, e)) for e in epsilons),
        master_seed=20230101,
    )
    result = run_monte_carlo(config, collect_covariances=True)
    assert_covariances_psd(result.covariances)
    mse_x1 = result.mse[:, 0]
    avgs = result.avg_iterations
    mse_ok = bool(np.all((mse_x1[1:] >= 0.15) & (mse_x1[1:] <= 0.30)))  # eps <= 1e-2
    nondecreasing = bool(np.all(np.diff(avgs) >= -1e-12))
    span_ok = avgs[0] <= 1.5 and avgs[-1] >= 2.5
    detail = (
        "mse(x1) " + " ".join(f"{v:.4f}" for v in mse_x1)
        + "; iters " + " ".join(f"{v:.3f}" for v in avgs)
        + f"; mse band={mse_ok}; nondecreasing={nondecreasing}; span={span_ok}"
    )
    report("5", mse_ok and nondecreasing and span_ok, detail)


def test_criterion_06_impulsive_measurement_noise_ratios():
    ratios = []
    for seed in (101, 202, 303):
        config = ExperimentConfig(
            example="example2",
            noise_case="impulsive-measurement",
            runs=100,
            steps=1000,
            filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(2.0, 1e-6))),
            master_seed=seed,
        )
        result = run_monte_carlo(config, collect_covariances=True)
        assert_covariances_psd(result.covariances)
        ratios.append(
            (float(result.mse[0, 0] / result.mse[1, 0]), float(result.mse[0, 1] / result.mse[1, 1]))
        )
    ok = all(r1 >= 3.0 and r2 >= 1.8 for r1, r2 in ratios)
    detail = "; ".join(f"seed ratios x1={r1:.2f} x2={r2:.2f}" for r1, r2 in ratios)
    report("6", ok, detail + " (need x1>=3, x2>=1.8)")


def unobservable_position_walk(config):
    """Running sum of the x1 process noise of every run, shape (runs, steps).

    Each increment is recovered from the truths as ``q1_k = x1_k - (F x_{k-1})_1``
    with ``x_{-1}`` the true initial state.
    """
    model = config.resolve_model()
    x0 = config.resolve_x0()
    walks = np.empty((config.runs, config.steps))
    for run in range(config.runs):
        truths = generate_run_data(config, run).truths
        previous = np.vstack([x0, truths[:-1]])
        walks[run] = np.cumsum(truths[:, 0] - previous @ model.F[0])
    return walks


def test_criterion_07_impulsive_process_and_measurement_noise_ratio():
    ratios = []
    for seed in (101, 202, 303):
        config = ExperimentConfig(
            example="example2",
            noise_case="impulsive-both",
            runs=100,
            steps=1000,
            filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(2.0, 1e-6))),
            master_seed=seed,
        )
        result = run_monte_carlo(config, collect_covariances=True)
        assert_covariances_psd(result.covariances)
        ratios.append(float(result.mse[0, 0] / result.mse[1, 0]))
    ok = all(r >= 1.8 for r in ratios)
    report("7", ok, "x1 ratios " + " ".join(f"{r:.2f}" for r in ratios) + " (need >=1.8)")


def test_example2_x1_ratio_net_of_unobservable_walk():
    # Example 2 measures speed only (H = [0 1 0]) and x1 feeds neither x2 nor
    # x3, so the running sum of the x1 process noise is unobservable: no
    # measurement carries it and it enters every filter's x1 error alike.
    # Its realized mean square is a floor under both x1 MSEs, and KF MSE /
    # floor caps the plain ratio of criterion 7 (1.75 for seed 101).  This
    # test checks the part of the x1 error a filter can estimate: net of the
    # walk, the MCKF must beat the KF by criterion 7's factor of 1.8.
    plain, floors, caps, net = [], [], [], []
    for seed in (101, 202, 303):
        config = ExperimentConfig(
            example="example2",
            noise_case="impulsive-both",
            runs=100,
            steps=1000,
            filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(2.0, 1e-6))),
            master_seed=seed,
        )
        result = run_monte_carlo(config)
        walk = unobservable_position_walk(config)
        net_mse = [
            float(np.mean((result.errors[fi, ok, :, 0] + walk[ok]) ** 2))
            for fi, ok in enumerate(~result.failed_runs)
        ]
        plain.append(float(result.mse[0, 0] / result.mse[1, 0]))
        floors.append(float(np.mean(walk**2)))
        caps.append(float(result.mse[0, 0]) / floors[-1])
        net.append(net_mse[0] / net_mse[1])
    ok = all(r > 1.0 for r in plain) and all(r >= 1.8 for r in net)
    detail = (
        "plain x1 ratios " + " ".join(f"{r:.2f}" for r in plain) + " (need >1)"
        + "; walk mean square " + " ".join(f"{v:.2f}" for v in floors)
        + "; plain-ratio caps " + " ".join(f"{c:.2f}" for c in caps)
        + "; net x1 ratios " + " ".join(f"{r:.2f}" for r in net) + " (need >=1.8)"
    )
    report("7 net of the x1 walk", ok, detail)


def test_criterion_08_certified_bandwidth_contracts():
    rng = np.random.default_rng(808)
    jac_ok = gap_ok = restart_ok = True
    certified = 0
    while certified < 25:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        model, prior, y = random_problem(rng, n, m)
        reg = build_regression(model, prior, y)
        beta = 2.0 * max(zeta(reg), float(np.sum(np.abs(prior.mean))))
        cert = sufficient_sigma(reg, beta, 0.5)
        certified += 1
        sigma = cert.sigma_min

        # (a) numeric Jacobian 1-norm at 20 points in the ball
        for _ in range(20):
            x = l1_ball_point(rng, n, beta)
            jac = np.empty((n, n))
            for j in range(n):
                d = np.zeros(n)
                d[j] = 1e-6
                jac[:, j] = (
                    weighted_qr_map(reg, x + d, sigma)[0] - weighted_qr_map(reg, x - d, sigma)[0]
                ) / 2e-6
            jac_ok &= induced_l1_norm(jac) <= 0.5 + 1e-6

        # (b) iterate gaps halve at every step
        x_prev = prior.mean
        x = weighted_qr_map(reg, x_prev, sigma)[0]
        gap_prev = float(np.sum(np.abs(x - x_prev)))
        for _ in range(8):
            x_next = weighted_qr_map(reg, x, sigma)[0]
            gap = float(np.sum(np.abs(x_next - x)))
            if gap_prev < 1e-14 * max(1.0, beta):
                break
            gap_ok &= gap <= 0.5 * gap_prev * (1.0 + 1e-9)
            x, gap_prev = x_next, gap

        # (c) restarts inside the ball share one fixed point
        limits = []
        for _ in range(10):
            x = l1_ball_point(rng, n, beta)
            for _ in range(400):
                x_next = weighted_qr_map(reg, x, sigma)[0]
                if float(np.max(np.abs(x_next - x))) <= 1e-13:
                    break
                x = x_next
            limits.append(x_next)
        restart_ok &= all(float(np.max(np.abs(l - limits[0]))) <= 1e-8 for l in limits[1:])
    ok = jac_ok and gap_ok and restart_ok
    report(
        "8",
        ok,
        f"25 certified instances: jacobian<=0.5 {jac_ok}, gaps halve {gap_ok}, unique fixed point {restart_ok}",
    )


def test_criterion_09_analytic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        reg = random_regression(rng, n, m)
        x = rng.standard_normal(n)
        sigma = float(rng.uniform(1.0, 4.0))
        analytic = jacobian_f(reg, x, sigma)
        numeric = np.empty((n, n))
        for j in range(n):
            d = np.zeros(n)
            d[j] = 1e-6
            numeric[:, j] = (
                weighted_qr_map(reg, x + d, sigma)[0] - weighted_qr_map(reg, x - d, sigma)[0]
            ) / 2e-6
        worst = max(worst, max_rel_diff(analytic, numeric))
    report("9", worst <= 1e-5, f"max relative error over 100 instances: {worst:.2e}")


def test_criterion_10_numerics_whiteness_and_psd():
    rng = np.random.default_rng(1010)

    worst_chol = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = random_spd(rng, n, float(rng.uniform(0.01, 10.0)))
        lower = cholesky_lower(a)
        worst_chol = max(
            worst_chol,
            float(np.max(np.abs(lower @ lower.T - a))) / (1.0 + float(np.max(np.abs(a)))),
        )

    worst_white = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        model = random_model(rng, n, m)
        prior = GaussianBelief(rng.standard_normal(n), random_spd(rng, n))
        build_regression(model, prior, rng.standard_normal(m))
        b_p = cholesky_stack(prior.cov)
        b = np.block([[b_p, np.zeros((n, m))], [np.zeros((m, n)), model.B_r]])
        block = np.block([[prior.cov, np.zeros((n, m))], [np.zeros((m, n)), model.R]])
        worst_white = max(
            worst_white,
            float(np.max(np.abs(b @ b.T - block))) / (1.0 + float(np.max(np.abs(block)))),
        )

    worst_eig = 0.0
    for example, case in (("example1", "impulsive-measurement"), ("example2", "impulsive-both")):
        config = ExperimentConfig(
            example=example,
            noise_case=case,
            runs=10,
            steps=300,
            filters=(FilterSpec("kf"), FilterSpec("mckf", KernelConfig(2.0, 1e-6))),
            master_seed=4040,
        )
        result = run_monte_carlo(config, collect_covariances=True)
        worst_eig = min(worst_eig, assert_covariances_psd(result.covariances))

    ok = worst_chol <= 1e-10 and worst_white <= 1e-10
    report(
        "10",
        ok,
        f"cholesky residual {worst_chol:.2e}, whiteness residual {worst_white:.2e}, "
        f"min scaled covariance eig {worst_eig:.2e}",
    )


def test_criterion_11_flop_count_polynomials():
    expected = {
        (1, 1, 1): (22, 36),
        (2, 1, 2): (110, 272),
        (3, 1, 3): (312, 1020),
    }
    results = {}
    for (n, m, t), (kf_val, mckf_val) in expected.items():
        counts = flop_counts(n, m, t)
        results[(n, m, t)] = (counts.kf, counts.mckf)
        assert counts.kf == kf_val and counts.mckf == mckf_val, (
            f"(n={n},m={m},T={t}): got {(counts.kf, counts.mckf)}, expected {(kf_val, mckf_val)}"
        )
    report("11", True, f"exact matches for {sorted(expected)}: {sorted(results.values())}")


def test_criterion_12_bench_outputs_are_byte_identical(tmp_path):
    args = [
        "bench",
        "--example", "1",
        "--noise", "impulsive",
        "--sigma", "0.5,2,10",
        "--epsilon", "1e-6",
        "--runs", "20",
        "--steps", "200",
        "--seed", "31337",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("mse.csv", "iterations.csv")
    )
    report("12", same, "mse.csv and iterations.csv byte-identical across reruns")
