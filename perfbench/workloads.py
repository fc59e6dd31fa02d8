"""The benchmark's four workloads, each driven through robustkf's public API.

A workload is built from the seed (its set-up), checked once by `gate`
before anything is timed, and then run in passes.  `run_pass` appends the
``(start, end)`` times of every operation of one pass to ``ops`` and returns
the pass's output, which must equal the output the gate checked, bit for bit.

See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from pathlib import Path
from time import perf_counter

import numpy as np

import robustkf as rk
from robustkf import cli

#: Engine parity tolerance of the tier-1 suite.
PARITY_ATOL = 1e-9
#: Leading runs of a batch re-run on the reference engine by the gate.
PARITY_RUNS = 3
#: Target contraction factor of the certificates (the `diagnose` default).
CERT_ALPHA = 0.5

MCKF = {"kind": "mckf", "sigma": 2.0, "epsilon": 1e-6}

#: Full-size and smoke-size dimensions of each workload.
SIZES = {
    "paper-mc": ({"runs": 100, "steps": 1000}, {"runs": 4, "steps": 50}),
    "many-runs": ({"runs": 4000, "steps": 50}, {"runs": 40, "steps": 10}),
    "online": ({"trajectories": 3, "steps": 3000}, {"trajectories": 2, "steps": 50}),
    "certify": ({"snapshots": 64}, {"snapshots": 4}),
}


class GateError(Exception):
    """The program's output failed a correctness check."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclasses.dataclass
class FixedPointRecord:
    """Iterations of the MCKF fixed-point solve: (runs, steps) counts."""

    iterations: np.ndarray
    nonconverged: int


class CliWorkload:
    """One ``robustkf simulate``/``bench`` invocation per operation.

    Work is counted in filter-run-steps (runs x steps x filters); attempts
    and failures in filter-runs.
    """

    op_label = "CLI invocation"
    work_label = "filter-run-steps"

    def __init__(self, command, example, noise, seed, out_dir, runs, steps):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.argv = [
            command, "--example", str(example), "--noise", noise,
            "--runs", str(runs), "--steps", str(steps),
            "--sigma", "2", "--epsilon", "1e-6",
            "--seed", str(seed), "--out", str(self.out_dir),
        ]
        noise_case = "impulsive-measurement" if noise == "impulsive" else noise
        self.config = rk.ExperimentConfig.from_dict({
            "example": f"example{example}", "noise_case": noise_case,
            "runs": runs, "steps": steps, "master_seed": seed,
            "filters": [{"kind": "kf"}, MCKF],
        })
        model = self.config.resolve_model()
        self.n, self.m = model.n, model.m
        nfilters = len(self.config.filters)
        self.work_per_op = runs * steps * nfilters
        self.attempts_per_op = runs * nfilters
        self.failed_per_op = 0
        self.reference = None

    def _digest(self) -> dict[str, str]:
        """sha256 of every output file; each must carry the seed/config header."""
        digest = {}
        header = re.compile(rf"# seed={self.seed} config=sha256:[0-9a-f]{{64}}\n")
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            first = data[: data.find(b"\n") + 1].decode()
            _check(header.fullmatch(first) is not None, f"{path.name}: bad header {first!r}")
            digest[path.name] = hashlib.sha256(data).hexdigest()
        return digest

    def gate(self) -> dict:
        _check(cli.run_cli(self.argv) == 0, "CLI exited with a non-zero status")
        self.reference = self._digest()
        full = rk.run_monte_carlo(self.config)
        lines = (self.out_dir / "mse.csv").read_text().splitlines()
        col = lines[1].split(",").index("mse")
        written = [float(line.split(",")[col]) for line in lines[2:]]
        _check(written == full.mse.ravel().tolist(), "mse.csv differs from run_monte_carlo")
        head = dataclasses.replace(self.config, runs=PARITY_RUNS)
        ref = rk.run_monte_carlo(head, engine="reference")
        _check(
            np.allclose(ref.errors, full.errors[:, :PARITY_RUNS], rtol=0.0, atol=PARITY_ATOL, equal_nan=True),
            "reference engine errors differ from the batched engine",
        )
        _check(
            np.array_equal(ref.iterations, full.iterations[:, :PARITY_RUNS]),
            "reference engine iteration counts differ from the batched engine",
        )
        self.failed_per_op = int(full.failed_runs.sum())
        return {"mse_ratio_x1": float(full.mse[0, 0] / full.mse[1, 0])}

    def run_pass(self, ops: list) -> tuple[object, int]:
        start = perf_counter()
        try:
            status = cli.run_cli(self.argv)
        except Exception:
            status = None
        ops.append((start, perf_counter()))
        if status != 0:
            return None, self.attempts_per_op
        return self._digest(), self.failed_per_op

    def same_output(self, output) -> bool:
        return output == self.reference

    def fixed_point_records(self, output, tracer) -> list[FixedPointRecord]:
        return [
            FixedPointRecord(r.iterations[0], int(r.nonconverged[0].sum()))
            for r in tracer.results
            if r.config.filters[0].kind == "mckf"
        ]


class Online:
    """Example-2 impulsive trajectories fed to `mckf_step` a measurement at a time.

    A pass runs each trajectory (runs 0, 1, ... of the seed's experiment) from
    its own initial belief; an operation, and a unit of work, is one step.
    Several trajectories per pass average out how much the iteration count,
    and so the step cost, depends on the one trajectory a seed draws.
    """

    op_label = "mckf_step"
    work_label = "filter-steps"
    work_per_op = 1
    attempts_per_op = 1

    def __init__(self, seed, trajectories, steps):
        self.config = rk.ExperimentConfig.from_dict({
            "example": "example2", "noise_case": "impulsive-measurement",
            "runs": trajectories, "steps": steps, "master_seed": seed, "filters": [MCKF],
        })
        data = [rk.generate_run_data(self.config, run) for run in range(trajectories)]
        self.model = self.config.filter_model()
        self.n, self.m = self.model.n, self.model.m
        self.kernel = self.config.filters[0].kernel
        p0 = self.config.p0_scale * np.eye(self.n)
        self.truths = np.stack([d.truths for d in data])
        self.trajectories = [(rk.GaussianBelief(d.x0_hat, p0), list(d.measurements)) for d in data]
        self.reference = None

    def gate(self) -> dict:
        (est, iters, _), failures = self.run_pass([])
        _check(failures == 0, f"{failures} steps raised")
        batch = rk.run_monte_carlo(self.config)
        _check(
            np.allclose(est - self.truths, batch.errors[0], rtol=0.0, atol=PARITY_ATOL),
            "mckf_step trajectories differ from run_monte_carlo",
        )
        _check(
            np.array_equal(iters, batch.iterations[0]),
            "mckf_step iteration counts differ from run_monte_carlo",
        )
        self.reference = (est, iters)
        return {}

    def run_pass(self, ops: list) -> tuple[object, int]:
        step = rk.mckf_step
        model, kernel = self.model, self.kernel
        est = np.full(self.truths.shape, np.nan)
        iters = np.zeros(self.truths.shape[:2], dtype=np.int64)
        nonconverged = np.zeros(len(self.trajectories), dtype=np.int64)
        failures = 0
        for t, (belief, measurements) in enumerate(self.trajectories):
            for k, y in enumerate(measurements):
                start = perf_counter()
                try:
                    belief, report = step(model, belief, y, kernel)
                except Exception:
                    ops.append((start, perf_counter()))
                    failures += 1
                    continue
                ops.append((start, perf_counter()))
                est[t, k] = belief.mean
                iters[t, k] = report.iterations
                nonconverged[t] += not report.converged
        return (est, iters, nonconverged), failures

    def same_output(self, output) -> bool:
        est, iters, _ = output
        return np.array_equal(est, self.reference[0]) and np.array_equal(iters, self.reference[1])

    def fixed_point_records(self, output, tracer) -> list[FixedPointRecord]:
        # Sequential single trajectories: each is its own batch of one run.
        _, iters, nonconverged = output
        return [FixedPointRecord(it[None, :], int(nc)) for it, nc in zip(iters, nonconverged)]


class Certify:
    """`sufficient_sigma` certificates of consecutive KF snapshots.

    The snapshots of one example-1 impulsive trajectory, with the
    zeta-based ball radius that ``robustkf diagnose`` uses by default, are
    built in set-up; an operation, and a unit of work, is one certificate.
    """

    op_label = "certificate"
    work_label = "certificates"
    work_per_op = 1
    attempts_per_op = 1

    def __init__(self, seed, snapshots):
        config = rk.ExperimentConfig.from_dict({
            "example": "example1", "noise_case": "impulsive-measurement",
            "runs": 1, "steps": snapshots, "master_seed": seed, "filters": [{"kind": "kf"}],
        })
        data = rk.generate_run_data(config, 0)
        model = config.filter_model()
        self.n, self.m = model.n, model.m
        belief = rk.GaussianBelief(data.x0_hat, config.p0_scale * np.eye(model.n))
        self.snapshots = []
        for y in data.measurements:
            prior = rk.kf_predict(model, belief)
            reg = rk.build_regression(model, prior, y)
            beta = 2.0 * max(rk.zeta(reg), float(np.sum(np.abs(prior.mean))))
            self.snapshots.append((reg, beta))
            belief, _ = rk.kf_update(model, prior, y)
        self.reference = None

    def gate(self) -> dict:
        certs, failures = self.run_pass([])
        _check(failures == 0, f"{failures} certificates raised")
        for k, ((reg, beta), cert) in enumerate(zip(self.snapshots, certs)):
            _check(cert.sigma_min == max(cert.sigma_star, cert.sigma_dagger), f"snapshot {k}: sigma_min")
            _check(rk.phi_sigma(reg, beta, cert.sigma_min) <= beta, f"snapshot {k}: phi > beta")
            _check(rk.psi_sigma(reg, beta, cert.sigma_min) <= CERT_ALPHA, f"snapshot {k}: psi > alpha")
        self.reference = certs
        return {}

    def run_pass(self, ops: list) -> tuple[object, int]:
        certify = rk.sufficient_sigma
        certs, failures = [], 0
        for reg, beta in self.snapshots:
            start = perf_counter()
            try:
                cert = certify(reg, beta, CERT_ALPHA)
            except Exception:
                cert = None
                failures += 1
            ops.append((start, perf_counter()))
            certs.append(cert)
        return certs, failures

    def same_output(self, output) -> bool:
        return output == self.reference

    def fixed_point_records(self, output, tracer) -> list[FixedPointRecord]:
        return []


def fixed_point_counts(wl, records: list[FixedPointRecord]) -> dict[str, int]:
    """Exact totals of one pass: steps, run-steps, iterations, loop trips, flop.

    The batched engine loops until the slowest run of a step has converged,
    so a step costs as many loop trips as its largest iteration count.
    """
    totals = {"steps": 0, "run_steps": 0, "iterations": 0, "trips": 0, "nonconverged": 0, "flop": 0}
    for rec in records:
        it = rec.iterations
        totals["steps"] += it.shape[1]
        totals["run_steps"] += it.size
        totals["iterations"] += int(it.sum())
        totals["trips"] += int(it.max(axis=0).sum())
        totals["nonconverged"] += rec.nonconverged
        values, counts = np.unique(it[it > 0], return_counts=True)
        totals["flop"] += sum(
            rk.flop_counts(wl.n, wl.m, int(t)).mckf * int(c) for t, c in zip(values, counts)
        )
    return totals


def make(name: str, seed: int, smoke: bool, out_dir: Path):
    """Set up workload ``name`` for ``seed`` at full or smoke size."""
    size = SIZES[name][1 if smoke else 0]
    if name == "paper-mc":
        return CliWorkload("simulate", 2, "impulsive", seed, out_dir, **size)
    if name == "many-runs":
        return CliWorkload("bench", 1, "impulsive-both", seed, out_dir, **size)
    if name == "online":
        return Online(seed, **size)
    return Certify(seed, **size)
