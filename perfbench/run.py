"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload e7_residuals --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned.  A run repeats the workload's pass (a fixed list
of operations built from --seed) until --seconds have passed and at least
the workload's minimum number of passes is done, and checks every output.

--trace 0 prints the end-to-end metrics, with every time scaled to a
fixed host speed (see CAL_REFERENCE_S): the median pass time, operations
per second, the median over the operations of each one's median time, a
tail percentile of all operation times fixed per workload, the median of
nine set-ups timed in fresh interpreters, the peak resident memory during
the timed passes, and the share of operations that succeeded; it also
writes the raw times to perfbench/out/.  --trace 1 spends half of --seconds on
untraced passes, then makes one pass with every public function of the
package traced, and prints the per-layer metrics; it also times
canonical_key on each corpus item and its one-point residuals, and writes
the spans to perfbench/out/.  The last line of output is one JSON object;
the metric names and units are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

SETUP_SAMPLES = 9
# The host's speed drifts by 15-30% between runs, and the package's
# operations drift with it, also within a run.  So calibrate(), a fixed mix
# of pure-Python and numpy work, is timed before every operation, and each
# operation time is scaled by CAL_REFERENCE_S over the median calibration
# time of its pass: the time the operation would take on a host that runs
# calibrate() in CAL_REFERENCE_S.  Set-up is mostly the import of numpy,
# whose cost swings by up to 2.5x on its own, so each set-up sample is scaled
# by SETUP_REFERENCE_S over the time of a reference set-up timed next to it
# in another fresh interpreter.
CAL_ITERATIONS = 200_000
CAL_ROWS = 10080  # the size of the dim-7 symmetry table, 2 * 7! rows of 128 points
CAL_REFERENCE_S = 0.025
SETUP_REFERENCE_S = 0.25
MAX_MEASURE_S = 140.0  # stop adding passes here, whatever the minimum, to end within 180 s
RSS_INTERVAL_S = 0.05
OUT_DIR = Path(__file__).resolve().parent / "out"


def setup_seconds(corpus: Path) -> float:
    start = time.perf_counter()
    workloads.setup(corpus)
    return time.perf_counter() - start


def reference_setup_seconds() -> float:
    """Import numpy, build the calibration inputs and call calibrate() three
    times: work of the kinds a set-up does, none of it the package's."""
    start = time.perf_counter()
    for _ in range(3):
        calibrate()
    return time.perf_counter() - start


def setup_samples(corpus: Path, count: int) -> list[tuple[float, float]]:
    """(set-up time, reference set-up time) pairs, each measured in a fresh
    interpreter so that the imports and the table builds really happen."""
    here = str(Path(__file__).resolve())
    samples = []
    for _ in range(count):
        pair = []
        for cmd in ([here, "--setup-reference"], [here, "--setup-only", "--corpus", str(corpus)]):
            proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True,
                                  timeout=120, check=True)
            pair.append(float(proc.stdout.split()[-1]))
        samples.append((pair[1], pair[0]))
    return samples


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class RssPeak:
    """Largest resident set size seen while the context is open: read once
    on entry and exit and every RSS_INTERVAL_S by a thread in between.  The
    set-up's peak before the timed passes does not count."""

    def __enter__(self):
        self.peak = rss_mb()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.sample, daemon=True)
        self.thread.start()
        return self

    def sample(self):
        while not self.stop.wait(RSS_INTERVAL_S):
            self.peak = max(self.peak, rss_mb())

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()
        self.peak = max(self.peak, rss_mb())


def run_op(op, tracer) -> bool:
    try:
        if tracer is None:
            return bool(op.run())
        with tracer.span(f"op.{op.name}"):
            return bool(op.run())
    except Exception:
        print(f"operation {op.name} raised:", file=sys.stderr)
        traceback.print_exc()
        return False


@functools.cache
def calibration_inputs():
    """A table of CAL_ROWS permutations of 128 points and a membership
    vector.  numpy is imported here, not at the top of this file, so that a
    set-up timed in this interpreter still pays for the import."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.permuted(np.tile(np.arange(128, dtype=np.int32), (CAL_ROWS, 1)), axis=1)
    return np, table, (rng.random(128) < 0.4).astype(np.uint8)


def calibrate() -> float:
    """Time a pure-Python loop and a numpy gather-and-narrow over a
    permutation table, the two kinds of work the package does; none of it
    is the package's code."""
    np, table, members = calibration_inputs()
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    for _ in range(3):
        rows = table
        for offset in range(0, 128, 32):
            vals = np.packbits(members[rows[:, offset:offset + 32]], axis=1).view(">u4").ravel()
            rows = rows[vals <= np.median(vals)]
    return time.perf_counter() - start


def measure(wl, seconds: float, min_passes: int, tracer=None) -> dict:
    """Make whole passes until `seconds` have passed and at least min_passes
    are done.  The calibration loop runs before every operation, outside
    the operation's time."""
    op_times, cal, failed, passes = [], [], 0, 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() - start > MAX_MEASURE_S:
            break
        for op in wl.ops:
            cal.append(calibrate())
            op_start = time.perf_counter()
            failed += not run_op(op, tracer)
            op_times.append(time.perf_counter() - op_start)
        passes += 1
    return {"passes": passes, "op_names": [op.name for op in wl.ops], "op_times": op_times,
            "cal": cal, "attempted": len(op_times), "failed": failed}


def pass_times(op_times: list[float], ops_per_pass: int) -> list[float]:
    return [sum(op_times[i:i + ops_per_pass]) for i in range(0, len(op_times), ops_per_pass)]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def pass_scales(res: dict, ops_per_pass: int) -> list[float]:
    cal = res["cal"]
    return [CAL_REFERENCE_S / statistics.median(cal[i:i + ops_per_pass])
            for i in range(0, len(cal), ops_per_pass)]


def scaled_op_times(res: dict, ops_per_pass: int) -> list[float]:
    scales = pass_scales(res, ops_per_pass)
    return [t * scales[i // ops_per_pass] for i, t in enumerate(res["op_times"])]


def end_to_end(wl, args) -> tuple[dict, dict]:
    # half the set-ups before the timed passes and half after, so that a
    # slow stretch of the host does not catch all of them
    setups = setup_samples(args.corpus, SETUP_SAMPLES // 2)
    with RssPeak() as rss:
        res = measure(wl, args.seconds, wl.min_passes)
    setups += setup_samples(args.corpus, SETUP_SAMPLES - len(setups))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    raw = OUT_DIR / f"run-{args.workload}-seed{args.seed}.json"
    raw.write_text(json.dumps({"setups": setups, "peak_rss_mb": rss.peak, **res}) + "\n",
                   encoding="utf-8")

    k = len(wl.ops)
    ops = scaled_op_times(res, k)
    passes = pass_times(ops, k)
    # The median of the pooled times falls between two operations whenever
    # a pass has an even number of them, and then hangs on the slowest
    # repeat of one and the fastest of the other; the median over the
    # operations of each one's median time does not.
    op_medians = [statistics.median(ops[j::k]) for j in range(k)]
    tail_pct = 100 * (1 - 10 / (wl.min_passes * k))
    beyond = len(ops) - math.ceil(tail_pct / 100 * len(ops))
    print(f"{len(passes)} passes of {k} operations; op_p50_s is the median of the "
          f"{k} per-operation medians; op_tail_s is p{tail_pct:.2f} of {len(ops)} "
          f"operation times, {beyond} beyond it")
    scales = pass_scales(res, k)
    print(f"calibration median {statistics.median(res['cal']):.5f} s: operation times "
          f"scaled by {min(scales):.4f} to {max(scales):.4f} by pass; unscaled wall_s "
          f"{statistics.median(pass_times(res['op_times'], k)):.4f}")
    print(f"set-up: median unscaled {statistics.median(s for s, _ in setups):.4f} s, reference "
          f"set-up {statistics.median(r for _, r in setups):.4f} s, over {len(setups)} pairs "
          f"of fresh interpreters")
    print(f"error_rate: {res['failed'] / res['attempted']} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    values = {
        "wall_s": statistics.median(passes),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_s": statistics.median(op_medians),
        "op_tail_s": nearest_rank(ops, tail_pct),
        "setup_s": statistics.median(s * SETUP_REFERENCE_S / ref for s, ref in setups),
        "peak_rss_mb": rss.peak,
        "success_rate": 1 - res["failed"] / res["attempted"],
    }
    return values, res


def canonical_probe(dk, corpus) -> float:
    """Microseconds per canonical_key call on each corpus item and on the
    item minus the up-set, and minus the down-set, of each of its points."""
    sets = []
    for S, _ in corpus:
        sets.append(S)
        for p in S.masks:
            sets.append(dk.Subposet(S.dim, tuple(m for m in S.masks if m & p != p)))
            sets.append(dk.Subposet(S.dim, tuple(m for m in S.masks if m | p != p)))
    start = time.perf_counter()
    for T in sets:
        dk.partition.canonical_key(T)
    return (time.perf_counter() - start) / len(sets) * 1e6


def per_layer(wl, args, dk, corpus) -> tuple[dict, dict]:
    from tracing import Tracer

    # Untraced passes for half of --seconds, then the traced pass.  The
    # counters are cleared before each, so that every pass gets the same
    # inputs (the same suite seeds on verify_desk).
    base, start = [], time.perf_counter()
    while not base or time.perf_counter() - start < args.seconds / 2:
        wl.counters.clear()
        base.append(measure(wl, 0, 1))
    wl.counters.clear()
    tracer = Tracer(dk)
    tracer.install()
    try:
        traced = measure(wl, 0, 1, tracer)
    finally:
        tracer.remove()
    probe = canonical_probe(dk, corpus)
    spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans)
    print(f"{len(tracer.span_name)} spans written to {spans}")

    functions, layers = tracer.summary()
    values = {}
    for name, (calls, seconds) in functions.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = seconds
    for layer, seconds in layers.items():
        values[f"{layer}.self_s"] = seconds
    memo = tracer.memo_stats()
    lookups = memo["hits"] + memo["misses"]
    pivot_maps = wl.counters["pivot_maps"]
    decompose_s = values.get("partition.decompose_power_of_two.s", 0.0)
    values.update({
        "partition.canonical_calls": lookups,
        "partition.canonical_key.us_per_call": probe,
        "partition.memo_hits": memo["hits"],
        "partition.memo_misses": memo["misses"],
        "partition.memo_hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "partition.memo_entries": memo["entries"],
        "partition.pivot_maps": pivot_maps,
        "partition.pivot_maps_per_s": pivot_maps / decompose_s if decompose_s else 0.0,
        "poset.calls": sum(c for n, (c, _) in functions.items() if n.startswith("poset.")),
        "trace.overhead_s": (
            sum(scaled_op_times(traced, len(wl.ops)))
            - statistics.median(sum(scaled_op_times(b, len(wl.ops))) for b in base)),
    })
    res = {k: sum(r[k] for r in base + [traced]) for k in ("attempted", "failed")}
    return values, res


def declared(kind: str) -> list[dict]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", type=Path, default=workloads.DEFAULT_CORPUS,
                    help="E^7 corpus file with reference counts (default: the seed-1 corpus)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it (used for setup_s)")
    ap.add_argument("--setup-reference", action="store_true",
                    help="time one reference set-up in this process and print it")
    args = ap.parse_args()
    if args.setup_only:
        print(setup_seconds(args.corpus))
        return 0
    if args.setup_reference:
        print(reference_setup_seconds())
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    dk, corpus = workloads.setup(args.corpus)
    wl = workloads.build(args.workload, dk, corpus, args.seed)
    if args.trace:
        values, res = per_layer(wl, args, dk, corpus)
        spec = declared("per_layer")
    else:
        values, res = end_to_end(wl, args)
        spec = declared("end_to_end")
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            print(f"note: nothing recorded for {m['name']}; reporting 0", file=sys.stderr)
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
