"""Self-check of the benchmark; about two minutes on two cores.

    python3 perfbench/selfcheck.py

1. A short untraced run of each workload reports every end-to-end metric
   declared in BENCHMARK.json, with its unit, and no failed operation.  The
   e7_residuals run uses the held-out corpus, which checks its references.
2. A copy of the corpus with one reference count off by one makes the run
   report a failed operation, so error_rate > 0.
3. A traced cube6_cli run reports every per-layer metric, no poset call, and
   exactly the pivot maps of both layer decompositions of E^6.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
HELD_OUT = HERE / "corpus" / "e7_seed2.json"
CORRUPTED = HERE / "out" / "corrupted-corpus.json"


def run(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_metrics(result: dict, kind: str) -> None:
    want = declared(kind)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics/units differ from BENCHMARK.json: {got} != {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} has no numeric value"


def main() -> int:
    checks = []

    def check(label, fn):
        try:
            fn()
            checks.append(True)
            print(f"PASS {label}")
        except AssertionError as exc:
            checks.append(False)
            print(f"FAIL {label}: {exc}")

    def short_run(workload, *extra):
        def fn():
            result = run(workload, "--trace", "0", *extra)
            check_metrics(result, "end_to_end")
            assert result["correct"] and result["failed"] == 0, result
            assert result["metrics"]["success_rate"]["value"] == 1
        return fn

    def corrupted():
        data = json.loads(workloads.DEFAULT_CORPUS.read_text(encoding="utf-8"))
        data["items"][0]["count"] += 1
        CORRUPTED.parent.mkdir(parents=True, exist_ok=True)
        CORRUPTED.write_text(json.dumps(data), encoding="utf-8")
        result = run("e7_residuals", "--trace", "0", "--corpus", str(CORRUPTED))
        error_rate = result["failed"] / result["attempted"]
        assert not result["correct"] and error_rate > 0, result
        assert result["metrics"]["success_rate"]["value"] < 1

    def traced_cube6():
        result = run("cube6_cli", "--trace", "1")
        check_metrics(result, "per_layer")
        assert result["correct"], result
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["poset.calls"] == 0, values["poset.calls"]
        want = sum(workloads.PIVOT_MAPS.values())
        assert values["partition.pivot_maps"] == want, values["partition.pivot_maps"]

    check("e7_residuals (held-out corpus) reports every end-to-end metric",
          short_run("e7_residuals", "--corpus", str(HELD_OUT)))
    check("cube6_cli reports every end-to-end metric", short_run("cube6_cli"))
    check("verify_desk reports every end-to-end metric", short_run("verify_desk"))
    check("a corrupted reference count makes error_rate > 0", corrupted)
    check("traced cube6_cli: every per-layer metric, no poset call, exact pivot maps",
          traced_cube6)
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
