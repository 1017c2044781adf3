#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --workloads sphere_tower long_tower cli_mix \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one run at a time,
and prints for each end-to-end metric its median, quartiles, sample count
and quartile spread as a share of the median, next to a third of the
metric's bound (the steadiness target).  `--out` writes the same figures,
with the environment stamp of the first run, as a JSON baseline, together
with the per-layer metrics of one traced run per workload (first seed);
workloads already in FILE and not run now are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("python", "numpy", "nproc", "commit", "hash_seed", "loop")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stdout}{res.stderr}")
    stamp = json.loads(lines[0][2:])
    return stamp, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in args.seeds:
            stamp, result = run_once(wl, seed, args.seconds)
            baseline.setdefault("stamp", {k: v for k, v in stamp.items() if k in ENVIRONMENT})
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                          "spread": spread, "unit": bounds[name]["unit"]}
            target = bounds[name]["bound"] / 3
            # setup time is held to its bound by median drift, not by spread
            flag = "not checked" if name == "setup_s" else "ok" if spread < target else "WIDE"
            print(f"  {wl} {name}: median {med:.6g} {bounds[name]['unit']} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n={len(vals)} spread {spread:.4f} "
                  f"(target < {target:.4f}) {flag}", flush=True)
        print(f"  {wl}: attempted {attempted}, failed {failed}", flush=True)
        baseline["workloads"][wl] = {"attempted": attempted, "failed": failed, "metrics": rows}
        if args.out:
            _, traced = run_once(wl, args.seeds[0], args.seconds, trace=1)
            baseline["workloads"][wl]["traced"] = {
                "seed": args.seeds[0],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
    if args.out:
        out = Path(args.out)
        if out.exists():  # keep the workloads this invocation did not run
            kept = json.loads(out.read_text())["workloads"]
            baseline["workloads"] = {**kept, **baseline["workloads"]}
        out.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
