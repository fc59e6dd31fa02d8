"""Run the benchmark over several seeds and record a trajectory point.

Usage (from the root of a checkout)::

    python3 perfbench/record.py --out perfbench/baseline.json

For every seed in `SEEDS` and every workload in BENCHMARK.json it runs ``run.py
--trace 0`` once for ``run_seconds`` (seeds in the outer loop, so each
workload's runs are spread over the whole recording), then one ``--trace 1``
run per workload with the first seed.  It prints, per end-to-end metric, the
median over seeds and the spread: the distance between the first and third
quartiles as a share of the median, next to the bound in BENCHMARK.json.
The JSON it writes holds every run's values, the machine, the gate output
and the traced per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py; its result line plus the machine and gate lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["run_wall_s"] = time.perf_counter() - start
    for line in lines:
        if line.startswith("# machine "):
            record["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# gate passed "):
            record["gate"] = json.loads(line[len("# gate passed "):])
    return record


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the trajectory point to this JSON file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            rec = run_once(w, seed, seconds, 0)
            runs[w].append(rec)
            print(f"{w} seed={seed} correct={rec['correct']} wall={rec['run_wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in rec["metrics"].items()), flush=True)

    point = {"seconds": seconds, "seeds": SEEDS, "machine": runs[workloads[0]][0]["machine"],
             "workloads": {}}
    print(f"\n{'workload':10} {'metric':18} {'median':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        entry = {"correct": all(r["correct"] for r in runs[w]),
                 "run_wall_s": [r["run_wall_s"] for r in runs[w]],
                 "failed": sum(r["failed"] for r in runs[w]),
                 "attempted": sum(r["attempted"] for r in runs[w]),
                 "gate": [r.get("gate", {}) for r in runs[w]],
                 "end_to_end": {}}
        for name in runs[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            s = spread(values)
            entry["end_to_end"][name] = {"unit": runs[w][0]["metrics"][name]["unit"], "values": values,
                                         "median": statistics.median(values), "spread": s}
            print(f"{w:10} {name:18} {statistics.median(values):12.6g} {s:7.3f} {bounds[name]:6.2f}")
        traced = run_once(w, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": traced["correct"], "per_layer": traced["metrics"]}
        point["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
