"""Fast self-test of the benchmark at smoke sizes (about 20 s).

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced once and traced twice
with the same seed, and checks that:

* each run exits 0 with a correct result and at least one attempt;
* every metric named in BENCHMARK.json is printed by name, with its unit and
  direction, and appears in the JSON result with that unit;
* span self times fit in the wall time (``run.py`` checks this per pass and
  fails the result otherwise);
* the exact counts of the two traced runs are identical.

It also checks that, in a directory holding only BENCHMARK.json and the
benchmark's files, the benchmark exits with a non-zero status and prints no
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11

#: Per-layer metrics that are timings, and so may differ between two runs.
TIMED_UNITS = ("s", "us")


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def _check_output(workload, trace, status, stdout, metrics) -> tuple[list[str], dict]:
    errors = []
    where = f"{workload} --trace {trace}"
    if status != 0:
        return [f"{where}: exit status {status}"], {}
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        errors.append(f"{where}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in metrics:
        line = next((x for x in lines if x.startswith(f"{m['name']} = ")), None)
        if line is None or not line.endswith(f" {m['unit']} ({m['better']} is better)"):
            errors.append(f"{where}: {m['name']} not printed with unit and direction: {line!r}")
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} in the result: {got!r}")
    return errors, result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        status, out = _run(ROOT, workload, 0)
        errors += _check_output(workload, 0, status, out, spec["end_to_end"])[0]
        counts = []
        for _ in range(2):
            status, out = _run(ROOT, workload, 1)
            errs, values = _check_output(workload, 1, status, out, spec["per_layer"])
            errors += errs
            counts.append({
                m["name"]: values.get(m["name"], {}).get("value")
                for m in spec["per_layer"]
                if m["unit"] not in TIMED_UNITS and m["name"] != "trace.overhead_frac"
            })
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            errors.append(f"{workload}: counts differ between identical traced runs: {diff}")
        print(f"{workload}: checked", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, Path(tmp) / rel, ignore=shutil.ignore_patterns("__pycache__"))
        status, out = _run(Path(tmp), names[0], 0)
        if status == 0 or out.strip():
            errors.append(f"without src/: exit status {status}, stdout {out!r}")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
