"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --first-seed 1 --traced-runs 1 --out perfbench/out/spread.json

For each workload in BENCHMARK.json, runs run.py for run_seconds once per
seed (ten seeds from first-seed on) untraced, and with the first
traced-runs seeds once traced.  For every end-to-end metric it
reports the median of the runs, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  The output JSON also records the
machine (nproc, Python and numpy versions), the tail percentile and the
sample counts behind it, and every run's raw values.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10
TAIL_LINE = re.compile(r"(\d+) passes of (\d+) operations.*op_tail_s is p([\d.]+) "
                       r"of (\d+) operation times, (\d+) beyond it")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-runs", type=int, default=0,
                    help="traced runs per workload, with the first seeds")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    import numpy

    report = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + SEEDS)),
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, tails = [], []
        for seed in report["seeds"]:
            result, text = run(workload, seed, 0)
            if not result["correct"]:
                steady = False
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            match = TAIL_LINE.search(text)
            if match:
                passes, ops, pct, samples, beyond = match.groups()
                tails.append({"passes": int(passes), "percentile": float(pct),
                              "samples": int(samples), "beyond": int(beyond)})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.4g}" for k in bounds), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            if spread > bound:
                steady = False
            print(f"  {name:14s} median {median:.5g}  spread {spread:.4f}  bound {bound}{flag}")
        traced = []
        for seed in report["seeds"][:args.traced_runs]:
            result, _ = run(workload, seed, 1)
            traced.append({"seed": seed, **{k: m["value"] for k, m in result["metrics"].items()}})
        report["workloads"][workload] = {"summary": summary, "tail": tails, "runs": runs,
                                         "traced": traced}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
