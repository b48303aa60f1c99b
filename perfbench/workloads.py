"""Workload definitions for the dedekind benchmark.

A workload is a fixed list of operations (a "pass") built from the run
seed.  Every operation calls a public entry point of the package and checks
its output against an independent reference; it returns True when the
output is right and False when it is wrong, raises, or exits with an
unexpected code.  Operations look functions up on the module objects at call
time, so the tracer in tracing.py sees every call once it has patched them.

Import this module with the standard library only: the package itself is
imported by setup(), whose cost is the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CORPUS = Path(__file__).resolve().parent / "corpus" / "e7_seed1.json"

# References that do not come from the package under test.
D6 = 7828354  # Dedekind number of the 6-cube
PIVOT_MAPS = {"even": 89128, "odd": 1061474}  # monotone maps on the layer pivots of E^6
LEMMA2_N3_VIOLATIONS = 6  # size-law violations the exhaustive n=3 sweep reports


def import_dedekind():
    """Import the package from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "dedekind"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import dedekind
    import dedekind.cli

    if Path(dedekind.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported dedekind from {dedekind.__file__}, not {pkg}")
    return dedekind


def load_corpus(dk, path: Path) -> list[tuple]:
    """Corpus items as (Subposet, reference count) pairs."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    dim = data["dim"]
    items = []
    for item in data["items"]:
        bits = int(item["bits"], 16)
        masks = tuple(m for m in range(1 << dim) if bits >> m & 1)
        items.append((dk.Subposet(dim, masks), int(item["count"])))
    return items


def warm_tables(dk) -> None:
    """Build the lazily cached symmetry and up/down tables through public
    calls: counting a two-point chain of E^d keys it canonically at
    dimension d and then pivots on it."""
    for d in range(1, 8):
        dk.partition.count_via_partition(dk.Subposet(d, (0, (1 << d) - 1)))
    dk.partition.canonical_key(dk.Subposet(7, tuple(range(0, 128, 3))))


def setup(corpus_path: Path):
    """Everything a run needs before its first timed operation."""
    dk = import_dedekind()
    corpus = load_corpus(dk, corpus_path)
    warm_tables(dk)
    return dk, corpus


@dataclass
class Op:
    name: str
    run: Callable[[], bool]


@dataclass
class Workload:
    ops: list[Op]
    # Each run makes at least this many passes, so the tail percentile is
    # fixed per workload: 100 * (1 - 10 / (min_passes * len(ops))).
    min_passes: int
    # Counts the operations keep: exact work, such as pivot maps walked, and
    # the calls of each sampled suite.  The traced run clears them before
    # its pass, so that the traced pass repeats exactly.
    counters: Counter = field(default_factory=Counter)


def _run_cli(dk, argv: list[str]) -> tuple[int, dict | None]:
    """Call cli.main in-process; return its exit code and the JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dk.cli.main(argv + ["--format", "json"])
        except SystemExit as exc:
            code = exc.code
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def _e7_residuals(dk, corpus, rng) -> Workload:
    P = dk.partition

    def op(S, ref):
        return lambda: P.count_via_partition(S, cache=P.MemoCache()) == ref

    order = list(range(len(corpus)))
    rng.shuffle(order)
    return Workload([Op(f"item{i}", op(*corpus[i])) for i in order], min_passes=3)


def _cube6_cli(dk, corpus, rng) -> Workload:
    counters = Counter()

    def count(argv):
        def run():
            code, rep = _run_cli(dk, argv)
            return code == 0 and rep["result"] == str(D6)
        return run

    def decompose(parity):
        def run():
            code, rep = _run_cli(dk, ["decompose", "--n", "6", "--parity", parity])
            if code != 0 or rep["result"] != str(D6):
                return False
            poly = {int(j): int(c) for j, c in rep["polynomial"].items()}
            counters["pivot_maps"] += sum(poly.values())
            return (sum(poly.values()) == PIVOT_MAPS[parity]
                    and sum(c << j for j, c in poly.items()) == D6)
        return run

    ops = [
        Op("count6", count(["count", "--n", "6", "--threads", "1"])),
        Op("count6_layer", count(["count", "--n", "6", "--strategy", "layer", "--threads", "1"])),
        Op("decompose6_even", decompose("even")),
        Op("decompose6_odd", decompose("odd")),
    ]
    rng.shuffle(ops)
    return Workload(ops, min_passes=7, counters=counters)


def _verify_desk(dk, corpus, rng) -> Workload:
    P = dk.partition
    counters = Counter()

    def suite(theorem, n, *extra, code=0):
        argv = ["verify", "--theorem", theorem, "--n", str(n), *extra]

        def run():
            # The k-th call of a suite gets --seed k, in every run: the
            # sampled suites see new samples in every pass, but each run
            # makes the same passes, whatever its seed.
            seed = str(counters[theorem, n])
            counters[theorem, n] += 1
            got, rep = _run_cli(dk, argv + ["--seed", seed])
            if got != code or rep is None:
                return False
            res = rep["result"]
            if code == 0:
                return res["passed"] == res["checks"] > 0
            # the documented lemma2 n=3 outcome: one check, six witnesses
            return (res["passed"] == 0 and res["checks"] == 1
                    and len(rep["witnesses"]) == LEMMA2_N3_VIOLATIONS)
        return run

    def corollary6():
        shared = P.MemoCache()
        if P.count_via_partition(dk.Subposet.cube(6), cache=shared) != D6:
            return False
        ok = True
        for mask in range(64):
            u, l = P.corollary_split(6, dk.Point(mask, 6), cache=shared)
            ok &= u + l == D6
        return ok

    ops = [
        Op("theorem1_n5", suite("1", 5, "--samples", "200")),
        Op("theorem2_n3", suite("2", 3)),
        Op("corollary_n5", suite("corollary", 5)),
        Op("theorem3_n6", suite("3", 6)),
        Op("lemma2_n3", suite("lemma2", 3, code=1)),
        Op("lemma2_n4", suite("lemma2", 4)),
        Op("lemma3_n7", suite("lemma3", 7)),
        Op("corollary_split6_shared", corollary6),
    ]
    rng.shuffle(ops)
    return Workload(ops, min_passes=6, counters=counters)


WORKLOADS = {
    "e7_residuals": _e7_residuals,
    "cube6_cli": _cube6_cli,
    "verify_desk": _verify_desk,
}


def build(name: str, dk, corpus, seed: int) -> Workload:
    return WORKLOADS[name](dk, corpus, random.Random(seed))
