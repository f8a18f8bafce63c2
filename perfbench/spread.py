"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/baseline.json]

For each workload in BENCHMARK.json, runs run.py once per seed for
run_seconds, one run at a time, and prints each end-to-end metric's
median, quartiles (statistics.quantiles, n=4) and spread: the distance
between the quartiles as a share of the median.  A spread at or above a
third of the metric's bound in BENCHMARK.json is flagged.  --out writes
every value, the summaries and the settings as JSON, which is how
baseline.json was made.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(cmd: list, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=2 * seconds + 120, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} exited "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    cmd = [sys.executable] + spec["command"][1:]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": seeds,
              "python": platform.python_version(),
              "machine": platform.machine(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(cmd, workload, s, seconds) for s in seeds]
        wrong = [s for s, r in zip(seeds, results) if not r["correct"]]
        rows = {}
        print(f"{workload}: {len(seeds)} runs, incorrect seeds: {wrong}")
        for name, bound in bounds.items():
            rows[name] = summarize(
                [r["metrics"][name]["value"] for r in results])
            row = rows[name]
            flag = "" if row["spread"] < bound / 3 else "  <- wide"
            print(f"  {name:12s} median {row['median']:12.6g}  "
                  f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  "
                  f"spread {row['spread']:.4f} (bound {bound}){flag}")
        report["workloads"][workload] = {
            "incorrect_seeds": wrong,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": rows}
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
