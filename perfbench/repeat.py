"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/repeat.py --workloads ideals products --seeds 1 2 3 4 5 \
        [--seconds 30] [--out summary.json]

Run from the root of a source checkout.  Runs one benchmark process at a
time and reports, for every end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values), "values": values}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()
    src_lines = sum(len(path.read_text().splitlines())
                    for path in (HERE.parent / "src" / "yoklab").glob("*.py"))
    report = {"python": platform.python_version(), "cpu_model": cpu_model(),
              "nproc": os.cpu_count(), "src_lines": src_lines, "seeds": args.seeds,
              "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {res['failed']} failed operations")
            results.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results], "metrics": summarize(results)}
        for name, s in report["workloads"][workload]["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
