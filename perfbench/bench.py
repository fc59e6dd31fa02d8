"""Measurement, metrics and output of one benchmark run (see run.py).

Timings are taken as wall time around each operation, less the speed
probe's samples inside it, and reported in reference-machine seconds (see
speed.py); the wall times are printed too.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracing
import workloads
from speed import SpeedProbe

#: Separate set-ups timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 5
#: Minimum passes per timed phase, so that repeats can be compared.
MIN_PASSES = 2

#: name -> (unit, better).  The order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, source, key).  Sources: self time of a span (per
#: operation, in s or us), call count of a span or counter (per operation),
#: a value computed from the fixed-point counts, or the tracing overhead.
PER_LAYER = {
    "cli.write_s": ("s", "lower", "self_s", "cli.run_cli"),
    "sim.kf_s": ("s", "lower", "self_s", "sim.kf"),
    "sim.mckf_s": ("s", "lower", "self_s", "sim.mckf"),
    "sim.fp_trips_per_step": ("count", "lower", "fp", "trips_per_step"),
    "sim.fp_useful_ratio": ("ratio", "higher", "fp", "useful_ratio"),
    "sim.noise_specs_calls": ("count", "lower", "calls", "sim.noise_specs"),
    "model.sample_s": ("s", "lower", "self_s", "model.sample"),
    "model.belief_us": ("us", "lower", "self_us", "model.belief"),
    "rng.uniforms_s": ("s", "lower", "self_s", "rng.uniforms"),
    "rng.substream_calls": ("count", "lower", "calls", "rng.substream"),
    "kf.predict_us": ("us", "lower", "self_us", "kf.predict"),
    "mckf.whiten_us": ("us", "lower", "self_us", "mckf.whiten"),
    "mckf.fixed_point_us": ("us", "lower", "self_us", "mckf.fixed_point"),
    "mckf.joseph_us": ("us", "lower", "self_us", "mckf.step"),
    "mckf.avg_iterations": ("count", "lower", "fp", "avg_iterations"),
    "mckf.nonconverged_frac": ("ratio", "lower", "fp", "nonconverged_frac"),
    "mckf.computed_mflop": ("MFLOP", "lower", "fp", "computed_mflop"),
    "numerics.cholesky_calls": ("count", "lower", "calls", "numerics.cholesky"),
    "numerics.solve_spd_calls": ("count", "lower", "calls", "numerics.solve_spd"),
    "numerics.min_eig_us": ("us", "lower", "self_us", "numerics.min_eig"),
    "diagnostics.phi_evals": ("count", "lower", "calls", "diagnostics.phi"),
    "diagnostics.psi_evals": ("count", "lower", "calls", "diagnostics.psi"),
    "diagnostics.phi_us": ("us", "lower", "self_us", "diagnostics.phi"),
    "diagnostics.psi_us": ("us", "lower", "self_us", "diagnostics.psi"),
    "trace.overhead_frac": ("ratio", "lower", "overhead", ""),
}


def _machine(thread_vars) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in thread_vars},
    }


def _setup_times(args, count: int, probe) -> tuple[list[float], list[float]]:
    """Time from process start to "ready" of ``count`` separate set-ups.

    Returns the wall times and the same times in reference-machine seconds.
    """
    cmd = [sys.executable, sys.argv[0], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-child"] + (["--smoke"] if args.smoke else [])
    wall, scaled = [], []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            end = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with status {proc.returncode}")
        wall.append(end - start)
        scaled.append((end - start) / probe.slowdown(start, end))
    return wall, scaled


class Phase:
    """Operations, failures and per-pass trace summaries of one timed phase.

    ``wall`` holds each operation's wall time, and ``scaled`` its time in
    reference-machine seconds without the probe's samples inside it.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.failures = 0
        self.mismatches = 0
        self.passes: list[dict] = []


def _measure(wl, seconds: float, probe, tracer=None) -> Phase:
    """Run whole passes until ``seconds`` have passed (at least `MIN_PASSES`)."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while len(phase.passes) < MIN_PASSES or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        ops = []
        start = perf_counter()
        output, failures = wl.run_pass(ops)
        end = perf_counter()
        for op_start, op_end in ops:
            phase.wall.append(op_end - op_start)
            busy = probe.busy(op_start, op_end)
            phase.scaled.append((op_end - op_start - busy) / probe.slowdown(op_start, op_end))
        phase.failures += failures
        phase.mismatches += not wl.same_output(output)
        if tracer is not None:
            self_s, calls = tracer.summary()
            factor = probe.slowdown(start, end)
            phase.passes.append({
                "ops": len(ops),
                "self_within_wall": sum(self_s.values()) <= sum(e - s for s, e in ops),
                "self_s": {name: t / factor for name, t in self_s.items()},
                "calls": calls,
                "fp": workloads.fixed_point_counts(wl, wl.fixed_point_records(output, tracer)),
            })
        else:
            phase.passes.append({})
    return phase


def _end_to_end(wl, phase: Phase, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": wl.work_per_op * len(phase.scaled) / sum(phase.scaled),
        "latency_p50_ms": 1e3 * statistics.median(phase.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(untraced: Phase, traced: Phase) -> tuple[dict[str, float], list[str]]:
    """Per-operation layer metrics of the traced phase, and any check failures.

    Times are averaged over every traced pass.  Counts come from the first
    pass alone, as exact ratios of integers, after checking that every pass
    repeated them exactly.
    """
    problems = []
    if not all(p["self_within_wall"] for p in traced.passes):
        problems.append("span self times exceed the wall time of their pass")
    first = traced.passes[0]
    if any(p["calls"] != first["calls"] or p["fp"] != first["fp"] for p in traced.passes):
        problems.append("call or iteration counts differ between identical passes")
    self_s: dict[str, float] = {}
    for p in traced.passes:
        for name, value in p["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
    ops, calls, fp = first["ops"], first["calls"], first["fp"]
    derived = {
        "trips_per_step": fp["trips"] / fp["steps"] if fp["steps"] else 0.0,
        # mean iterations per run-step over mean loop trips per step
        "useful_ratio": fp["iterations"] * fp["steps"] / (fp["trips"] * fp["run_steps"]) if fp["trips"] else 0.0,
        "avg_iterations": fp["iterations"] / fp["run_steps"] if fp["run_steps"] else 0.0,
        "nonconverged_frac": fp["nonconverged"] / fp["run_steps"] if fp["run_steps"] else 0.0,
        "computed_mflop": fp["flop"] / (1e6 * ops),
    }
    overhead = statistics.median(traced.scaled) / statistics.median(untraced.scaled) - 1.0
    metrics = {}
    for name, (_, _, source, key) in PER_LAYER.items():
        if source == "self_s":
            metrics[name] = self_s.get(key, 0.0) / len(traced.scaled)
        elif source == "self_us":
            metrics[name] = 1e6 * self_s.get(key, 0.0) / len(traced.scaled)
        elif source == "calls":
            metrics[name] = calls.get(key, 0) / ops
        elif source == "fp":
            metrics[name] = derived[key]
        else:
            metrics[name] = overhead
    return metrics, problems


def _tail(wl, latencies: list[float]) -> None:
    """Print the highest percentile with at least ten samples beyond it."""
    for q in (99, 90):
        if len(latencies) * (100 - q) >= 1000:
            value = 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]
            print(f"# latency_p{q}_ms = {value!r} ms over {len(latencies)} {wl.op_label}s")
            return


def main(args, root: Path, thread_vars) -> int:
    out_root = root / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, args.smoke, out_dir)
    if args.setup_child:
        print("ready", flush=True)
        return 0
    try:
        return _run(args, wl, thread_vars)
    finally:
        if out_dir.exists():
            for path in out_dir.iterdir():
                path.unlink()
            out_dir.rmdir()
        try:
            out_root.rmdir()
        except OSError:
            pass


def _run(args, wl, thread_vars) -> int:
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# machine {json.dumps(_machine(thread_vars), sort_keys=True)}")
    try:
        info = wl.gate()
    except Exception as exc:  # any failure of the program fails the gate
        print(f"# gate FAILED: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    print(f"# gate passed {json.dumps(info, sort_keys=True)}")

    with SpeedProbe() as probe:
        if args.trace:
            untraced = _measure(wl, args.seconds / 2, probe)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = _measure(wl, args.seconds / 2, probe, tracer)
            finally:
                tracer.uninstall()
        else:
            wall_setups, setups = _setup_times(args, 2 if args.smoke else SETUP_REPEATS, probe)
            phase = _measure(wl, args.seconds, probe)
    if args.trace:
        metrics, problems = _per_layer(untraced, traced)
        if tracer.missing:
            problems.append(f"traced functions not found: {', '.join(tracer.missing)}")
        phases = (untraced, traced)
        table = PER_LAYER
    else:
        metrics, problems = _end_to_end(wl, phase, setups), []
        phases = (phase,)
        table = END_TO_END
        _tail(wl, phase.scaled)
        print(f"# {len(phase.scaled)} {wl.op_label}s, {wl.work_per_op * len(phase.scaled)} "
              f"{wl.work_label} in {sum(phase.scaled)!r} reference s "
              f"({sum(phase.wall)!r} s wall); set-ups {wall_setups!r} s wall")

    mismatches = sum(p.mismatches for p in phases)
    if mismatches:
        problems.append(f"{mismatches} passes differ from the gated output")
    for problem in problems:
        print(f"# check FAILED: {problem}")
    for name, value in metrics.items():
        unit, better = table[name][:2]
        print(f"{name} = {value!r} {unit} ({better} is better)")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(wl.attempts_per_op * len(p.wall) for p in phases),
        "failed": sum(p.failures for p in phases),
        "metrics": {name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()},
    }))
    return 0
