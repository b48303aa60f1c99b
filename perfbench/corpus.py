"""Generate the E^7 residual corpus and its reference counts.

    python3 perfbench/corpus.py --seed 1 --out perfbench/corpus/e7_seed1.json

Each candidate is the 7-cube minus the up-sets of 1-3 points of weight 2-3
and the down-sets of 1-3 points of weight 4-5.  A candidate is kept when it
has 44-60 points, differs from the items already kept, and the plain DFS
oracle (monotone.count_monotone_oracle) counts it within a fixed node
budget; that count is the item's reference.  The rule never consults the
partition engine, so a faster engine cannot change its own corpus.  The
oracle takes minutes per corpus, which is why the corpus is stored and never
generated inside a timed run.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from workloads import import_dedekind

DIM = 7
MIN_POINTS, MAX_POINTS = 44, 60
NODE_BUDGET = 30_000_000
ITEMS = 16


def generate(dk, seed: int) -> dict:
    rng = random.Random(seed)
    full = (1 << (1 << DIM)) - 1
    low = [m for m in range(1 << DIM) if m.bit_count() in (2, 3)]
    high = [m for m in range(1 << DIM) if m.bit_count() in (4, 5)]
    kept, seen, rejected = [], set(), 0
    while len(kept) < ITEMS:
        ups = sorted(rng.sample(low, rng.randint(1, 3)))
        downs = sorted(rng.sample(high, rng.randint(1, 3)))
        bits = full
        for p in ups:
            bits &= ~dk.upper_set(dk.Point(p, DIM)).bitset
        for q in downs:
            bits &= ~dk.lower_set(dk.Point(q, DIM)).bitset
        if not MIN_POINTS <= bits.bit_count() <= MAX_POINTS or bits in seen:
            continue
        seen.add(bits)
        S = dk.Subposet(DIM, tuple(m for m in range(1 << DIM) if bits >> m & 1))
        start = time.perf_counter()
        try:
            count = dk.count_monotone_oracle(S, max_nodes=NODE_BUDGET)
        except dk.BudgetExceededError:
            rejected += 1
            continue
        kept.append({
            "bits": f"{bits:x}",
            "points": len(S),
            "count": count,
            "ups": ups,
            "downs": downs,
            "oracle_s": round(time.perf_counter() - start, 2),
        })
        print(f"item {len(kept)}: {len(S)} points, D = {count}", flush=True)
    return {
        "seed": seed,
        "dim": DIM,
        "rule": (f"E^{DIM} minus up-sets of 1-3 points of weight 2-3 and down-sets of "
                 f"1-3 points of weight 4-5; {MIN_POINTS}-{MAX_POINTS} points; kept when "
                 f"count_monotone_oracle finishes within {NODE_BUDGET} nodes"),
        "rejected_over_budget": rejected,
        "items": kept,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    corpus = generate(import_dedekind(), args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
