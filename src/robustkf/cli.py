"""Command-line front end: run experiments and diagnostics, emit tables.

Subcommands
-----------
simulate
    Run one experiment and write ``mse.csv``, ``iterations.csv`` and
    per-state error-density files into the output directory.
bench
    Sweep a sigma x epsilon grid (baseline filter included) and write
    ``mse.csv`` and ``iterations.csv``.
diagnose
    Print a sufficient-bandwidth convergence certificate for a regression
    snapshot of the chosen system.
flops
    Print the closed-form per-step operation counts of both filters.

Configuration comes from flags, an optional JSON config file (``--config``),
and the ``ROBUSTKF_SEED`` environment variable.  The seed is the first of:
the ``--seed`` flag, the environment variable, the file's ``master_seed``,
and the default ``master_seed`` of `ExperimentConfig`.  Every output file
starts with a comment line recording the seed and a hash of the resolved
configuration, and numeric values are written in shortest round-trip form,
so identical invocations produce byte-identical files.

Exit status: 0 on success, 1 on configuration errors, 2 on numerical
failure (no usable result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import flop_counts, sufficient_sigma, zeta
from .errors import ConfigParseError, RobustKFError
from .kf import kf_predict, kf_update
from .mckf import KernelConfig, build_regression
from .model import GaussianBelief
from .sim import (
    DEFAULT_DENSITY_BINS,
    EXAMPLE1_ERROR_RANGE,
    EXAMPLE2_POSITION_ERROR_RANGE,
    ExperimentConfig,
    FilterSpec,
    check_density_bins,
    error_density,
    generate_run_data,
    run_monte_carlo,
)

SEED_ENV_VAR = "ROBUSTKF_SEED"

_NOISE_ALIASES = {
    "gaussian": "gaussian",
    "impulsive": "impulsive-measurement",
    "impulsive-measurement": "impulsive-measurement",
    "impulsive-both": "impulsive-both",
}


def _fmt(value) -> str:
    """Shortest round-trip text for a cell value."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` over ``path`` without truncating it first.

    Opening with ``O_TRUNC`` frees the old blocks before the new ones are
    written, which costs tens of milliseconds per file on a file system
    that discards freed blocks at once; overwriting in place and then
    cutting the file at the written length leaves the same bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _write_table(path: Path, comment: str, columns: list[str], rows: list[list], fmt: str):
    if fmt == "csv":
        lines = [f"# {comment}", ",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines)
    else:
        payload = {
            "comment": comment,
            "columns": columns,
            "rows": rows,
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
    _write_text(path, text + "\n")


def _filter_slug(spec: FilterSpec) -> str:
    if spec.kind == "kf":
        return "kf"
    return f"mckf_sigma{spec.kernel.sigma:g}_eps{spec.kernel.epsilon:g}"


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigParseError(f"{flag}: could not parse {text!r} as floats") from None
    if not values:
        raise ConfigParseError(f"{flag}: empty list")
    return values


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigParseError("config file must contain a JSON object")
    return data


def _experiment_from_args(ns) -> ExperimentConfig:
    data = _load_config_file(ns.config)
    env = os.environ.get(SEED_ENV_VAR)
    if ns.seed is not None:
        data["master_seed"] = ns.seed
    elif env is not None:
        try:
            data["master_seed"] = int(env)
        except ValueError:
            raise ConfigParseError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    if ns.example is not None:
        data["example"] = f"example{ns.example}"
    if ns.noise is not None:
        data["noise_case"] = _NOISE_ALIASES[ns.noise]
    if ns.runs is not None:
        data["runs"] = ns.runs
    if ns.steps is not None:
        data["steps"] = ns.steps
    sigma_flag = getattr(ns, "sigma", None)
    epsilon_flag = getattr(ns, "epsilon", None)
    if sigma_flag is not None or epsilon_flag is not None or "filters" not in data:
        sigmas = _parse_float_list(sigma_flag, "--sigma") if sigma_flag else [2.0]
        epsilons = _parse_float_list(epsilon_flag, "--epsilon") if epsilon_flag else [1e-6]
        data["filters"] = [{"kind": "kf"}] + [
            {"kind": "mckf", "sigma": s, "epsilon": e} for s in sigmas for e in epsilons
        ]
    cap = getattr(ns, "max_iterations", None)
    if cap is not None and isinstance(data["filters"], list):  # from_dict rejects other values
        for spec in data["filters"]:
            if isinstance(spec, dict) and spec.get("kind") == "mckf":
                spec["max_iterations"] = cap
    return ExperimentConfig.from_dict(data)


def _checked_call(fn, *args):
    """Call ``fn``; a `ValueError` from its argument checks is a configuration error."""
    try:
        return fn(*args)
    except RobustKFError:
        raise
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from None


def _check_failures(result) -> int:
    """Report per-run failures; exit code 2 only when a filter lost every run."""
    status = 0
    for fi, spec in enumerate(result.config.filters):
        nfail = int(result.failed_runs[fi].sum())
        if nfail == result.config.runs:
            print(f"error: every run of {spec.label} failed numerically", file=sys.stderr)
            status = 2
        elif nfail:
            print(f"warning: {nfail} runs of {spec.label} failed and were excluded", file=sys.stderr)
    return status


def _mse_rows(result):
    rows = []
    for fi, spec in enumerate(result.config.filters):
        sigma = spec.kernel.sigma if spec.kernel else None
        epsilon = spec.kernel.epsilon if spec.kernel else None
        for s in range(result.mse.shape[1]):
            rows.append([
                "KF" if spec.kind == "kf" else "MCKF",
                sigma,
                epsilon,
                s + 1,
                float(result.mse[fi, s]),
            ])
    return rows


def _iteration_rows(result):
    rows = []
    for fi, spec in enumerate(result.config.filters):
        if spec.kind != "mckf":
            continue
        rows.append([
            "MCKF",
            spec.kernel.sigma,
            spec.kernel.epsilon,
            float(result.avg_iterations[fi]),
            int(result.nonconverged[fi].sum()),
        ])
    return rows


def _density_ranges(config: ExperimentConfig, n: int) -> list[tuple[float, float]]:
    if config.example == "example2":
        return [EXAMPLE2_POSITION_ERROR_RANGE] + [EXAMPLE1_ERROR_RANGE] * (n - 1)
    return [EXAMPLE1_ERROR_RANGE] * n


def _write_experiment_tables(ns, result, densities: bool) -> None:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = ns.format
    comment = f"seed={result.config.master_seed} config=sha256:{_config_hash(result.config)}"
    _write_table(
        out / f"mse.{ext}",
        comment,
        ["filter", "sigma", "epsilon", "state_index", "mse"],
        _mse_rows(result),
        ns.format,
    )
    _write_table(
        out / f"iterations.{ext}",
        comment,
        ["filter", "sigma", "epsilon", "avg_iterations", "nonconverged_steps"],
        _iteration_rows(result),
        ns.format,
    )
    if not densities:
        return
    n = result.mse.shape[1]
    ranges = _density_ranges(result.config, n)
    single = len(result.config.filters) == 1
    for fi, spec in enumerate(result.config.filters):
        for s in range(n):
            hist = error_density(result.errors[fi, :, :, s], ns.bins, ranges[s])
            name = f"density_{s + 1}" if single else f"density_{s + 1}_{_filter_slug(spec)}"
            rows = [
                [float(c), float(m)]
                for c, m in zip(hist.bin_centers, hist.masses)
            ]
            _write_table(out / f"{name}.{ext}", comment, ["bin_center", "mass"], rows, ns.format)


def _cmd_experiment(ns) -> int:
    """``simulate`` and ``bench``: they differ only in ``ns.densities``."""
    if ns.densities:
        _checked_call(check_density_bins, ns.bins)
    config = _experiment_from_args(ns)
    result = run_monte_carlo(config)
    status = _check_failures(result)
    if status:
        return status
    _write_experiment_tables(ns, result, ns.densities)
    return 0


def _cmd_diagnose(ns) -> int:
    config = _experiment_from_args(ns)
    snapshot_step = ns.snapshot_step
    if snapshot_step < 1:
        raise ConfigParseError("--snapshot-step must be >= 1")
    probe = replace(config, runs=1, steps=snapshot_step, filters=(FilterSpec("kf"),))
    data = generate_run_data(probe, 0)
    fmodel = probe.filter_model()
    belief = GaussianBelief(data.x0_hat, probe.p0_scale * np.eye(fmodel.n))
    for k in range(snapshot_step - 1):
        belief, _ = kf_update(fmodel, kf_predict(fmodel, belief), data.measurements[k])
    prior = kf_predict(fmodel, belief)
    reg = build_regression(fmodel, prior, data.measurements[snapshot_step - 1])
    z = zeta(reg)
    # Default ball radius: a documented heuristic, twice the larger of the
    # intrinsic bound and the prior-mean 1-norm.
    beta = ns.beta if ns.beta is not None else 2.0 * max(z, float(np.sum(np.abs(prior.mean))))
    cert = _checked_call(sufficient_sigma, reg, beta, ns.alpha)
    if ns.format == "json":
        print(json.dumps({
            "alpha": cert.alpha,
            "beta": cert.beta,
            "zeta": cert.zeta,
            "sigma_star": cert.sigma_star,
            "sigma_dagger": cert.sigma_dagger,
            "sigma_min": cert.sigma_min,
            "snapshot_step": snapshot_step,
            "seed": probe.master_seed,
        }, sort_keys=True, indent=2))
    else:
        print(f"snapshot: {probe.example} / {probe.noise_case} / step {snapshot_step} / seed {probe.master_seed}")
        print(f"zeta         = {cert.zeta!r}")
        print(f"beta         = {cert.beta!r}")
        print(f"alpha        = {cert.alpha!r}")
        print(f"sigma_star   = {cert.sigma_star!r}")
        print(f"sigma_dagger = {cert.sigma_dagger!r}")
        print(f"sigma_min    = {cert.sigma_min!r}")
        print("any bandwidth >= sigma_min certifies contraction on the beta-ball")
    return 0


def _cmd_flops(ns) -> int:
    counts = _checked_call(flop_counts, ns.n, ns.m, ns.t)
    print(f"n={ns.n} m={ns.m} T={ns.t}")
    print(f"KF multiply-adds per step:   {counts.kf} (+ {' + '.join(counts.kf_o_terms)})")
    print(f"MCKF multiply-adds per step: {counts.mckf} (+ {' + '.join(counts.mckf_o_terms)})")
    return 0


def _add_experiment_flags(p: argparse.ArgumentParser, with_grid: bool = True):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--example", type=int, choices=(1, 2), help="benchmark system")
    p.add_argument("--noise", choices=tuple(_NOISE_ALIASES), help="noise case")
    p.add_argument("--runs", type=int, help="Monte Carlo runs")
    p.add_argument("--steps", type=int, help="time steps per run")
    if with_grid:
        p.add_argument("--sigma", help="comma-separated kernel bandwidths")
        p.add_argument("--epsilon", help="comma-separated stop thresholds")
        p.add_argument("--max-iterations", type=int, dest="max_iterations")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustkf",
        description="Robust state estimation benchmarks and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment, write tables and densities")
    _add_experiment_flags(p_sim)
    p_sim.add_argument("--bins", type=int, default=DEFAULT_DENSITY_BINS)
    p_sim.set_defaults(func=_cmd_experiment, densities=True)

    p_bench = sub.add_parser("bench", help="sweep a sigma x epsilon grid, write tables")
    _add_experiment_flags(p_bench)
    p_bench.set_defaults(func=_cmd_experiment, densities=False)

    p_diag = sub.add_parser("diagnose", help="print a convergence certificate")
    _add_experiment_flags(p_diag, with_grid=False)
    p_diag.add_argument("--alpha", type=float, default=0.5, help="target contraction factor")
    p_diag.add_argument("--beta", type=float, help="ball radius (default: heuristic)")
    p_diag.add_argument("--snapshot-step", type=int, default=1, dest="snapshot_step")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_flops = sub.add_parser("flops", help="print per-step operation counts")
    p_flops.add_argument("--n", type=int, required=True)
    p_flops.add_argument("--m", type=int, required=True)
    p_flops.add_argument("--t", type=int, required=True)
    p_flops.set_defaults(func=_cmd_flops)
    return parser


def run_cli(args: list[str]) -> int:
    """Parse arguments and execute one subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RobustKFError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
