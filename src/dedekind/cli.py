"""Command-line front end: counting, verification, construction checks, and
the power-of-two decomposition, with machine-readable reports.

Exit codes are a stable contract: 0 success, 1 property failure, 2 input
error, 3 budget exceeded or run stopped (recursion limit, out of memory,
interrupt), 4 theorem falsification.  JSON reports serialize
counts as decimal strings so consumers never lose precision; the
deterministic part of a report (everything except elapsed_ms and the memo
table's hit and miss counts) is byte-identical across repeats.  Each verify
suite yields one (ok, lines, witnesses) record per check, with witnesses
only for a failed check, and _cmd_verify alone gathers the records into the
check count, the text lines and the report's witnesses.  Counting
runs on one thread.  Two count options stay only for the argv of the
benchmark's cube6_cli workload, until the benchmark drops them: --threads
N >= 1, which is ignored, and --strategy layer, a legacy spelling of the
value decompose --parity even prints for a full cube.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter

from .errors import BudgetExceededError, FalsificationError, PosetParseError
from .monotone import count_monotone_oracle
from .partition import (
    NOT_COMPLETE,
    PINNED_DEDEKIND,
    MemoCache,
    construct_layer_subset,
    construct_recursive_partition,
    corollary_split,
    count_via_partition,
    decompose_power_of_two,
    definitional_completeness_oracle,
    is_complete_partition,
    minimality_check,
    partition_terms,
)
from .poset import COVER_MODES, DEFAULT_COVER_MODE, Point, Subposet, find_v3

DEFAULT_SEED = 20260819


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _witness_dict(w) -> dict:
    return {
        "apex": str(w.apex),
        "arms": [str(w.arms[0]), str(w.arms[1])],
        "orientation": w.orientation,
    }


def _report(command: str, n, digest: str, result, *,
            cache: MemoCache | None = None, **extra) -> dict:
    rep = {"command": command, "n": n, "input_digest": digest, "result": result}
    rep.update(extra)
    rep["cache"] = (cache if cache is not None else MemoCache()).stats()
    return rep


def _load_subposet(path: str) -> Subposet:
    try:
        with open(path, encoding="utf-8") as fh:
            return Subposet.from_text(fh.read())
    except OSError as exc:
        raise PosetParseError(f"cannot read {path}: {exc}") from exc


def _layer_walk(n: int, parity: str, args):
    # one range for both layer commands: E^7's walk peaks at 839 MB even, 2.2 GB odd
    if not 2 <= n <= 6:
        raise PosetParseError(f"the layer walk supports 2 <= n <= 6, got {n}")
    return decompose_power_of_two(n, parity, max_nodes=args.max_nodes,
                                  budget_seconds=args.budget_seconds)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> tuple[dict, list[str], int]:
    if args.threads < 1:
        raise PosetParseError("--threads must be positive")
    if (args.n is None) == (args.poset is None):
        raise PosetParseError("count needs exactly one of --n or --poset")
    if args.n is not None:
        if args.n < 0:
            raise PosetParseError("--n must be >= 0")
        S = Subposet.cube(args.n)
        digest = _digest(f"cube:{args.n}")
        n = args.n
    else:
        S = _load_subposet(args.poset)
        digest = _file_digest(args.poset)
        n = S.dim
    cache = MemoCache()
    if args.strategy == "layer":
        if S != Subposet.cube(S.dim):
            raise ValueError("layer strategy requires the full cube")
        value = _layer_walk(S.dim, "even", args).value()
    else:
        value = count_via_partition(S, args.strategy, cache=cache, max_nodes=args.max_nodes,
                                    budget_seconds=args.budget_seconds)
    report = _report("count", n, digest, str(value), cache=cache)
    return report, [str(value)], 0


def _verify_theorem_1(args, rng):
    for idx in range(args.samples):
        density = rng.uniform(0.3, 0.95)
        s_masks = tuple(m for m in range(1 << args.n) if rng.random() < density)
        S = Subposet(args.n, s_masks)
        a_masks = tuple(m for m in s_masks if rng.random() < 0.5)
        A = Subposet(args.n, a_masks)
        residuals = Counter(t.residual for t in partition_terms(S, A))
        total = sum(k * count_monotone_oracle(R) for R, k in residuals.items())
        direct = count_monotone_oracle(S)
        ok = total == direct
        line = (f"case {idx + 1}: {'pass' if ok else 'FAIL'} "
                f"(|S|={len(S)}, |A|={len(A)}, sum={total}, direct={direct})")
        yield ok, [line], [] if ok else [{
            "case": idx + 1,
            "S": [str(p) for p in S.points],
            "A": [str(p) for p in A.points],
            "term_sum": str(total),
            "direct": str(direct),
        }]


def _verify_corollary(args, rng):
    # the cache is shared between the splits, which count each isomorphism
    # class of branch once
    expected = PINNED_DEDEKIND[args.n]
    cache = MemoCache()
    for mask in range(1 << args.n):
        a = Point(mask, args.n)
        u, l = corollary_split(args.n, a, cache=cache)
        ok = u + l == expected
        line = f"pivot {a}: {'pass' if ok else 'FAIL'} ({u} + {l} = {u + l})"
        yield ok, [line], [] if ok else [{"pivot": str(a), "upper_removed": str(u),
                                          "lower_removed": str(l), "expected": str(expected)}]


def _verify_theorem_2(args, rng):
    S = Subposet.cube(args.n)
    size = 1 << args.n
    agree = {mode: 0 for mode in COVER_MODES}
    disagreements = {mode: [] for mode in COVER_MODES}
    total = 1 << size
    for bits in range(total):
        A = Subposet(args.n, tuple(m for m in range(size) if bits >> m & 1))
        truth = definitional_completeness_oracle(A, S)
        for mode in COVER_MODES:
            if is_complete_partition(A, S, mode) == truth:
                agree[mode] += 1
            else:
                disagreements[mode].append(A)
    lines = []
    for mode in COVER_MODES:
        wrong = disagreements[mode]
        lines.append(f"mode {mode}: agrees with the definitional oracle on "
                     f"{agree[mode]}/{total} subsets"
                     + ("" if not wrong else " (disagrees on "
                        + ", ".join("{" + ",".join(str(p) for p in A.points) + "}"
                                    for A in wrong[:3])
                        + (", ..." if len(wrong) > 3 else "") + ")"))
    full = [mode for mode in COVER_MODES if agree[mode] == total]
    lines.append(f"fully agreeing mode(s): {', '.join(full) if full else 'none'}; "
                 f"package default: {DEFAULT_COVER_MODE}")
    # the experiment is one check: it passes when at least one mode agrees
    # everywhere and the package documents an agreeing mode as its default
    ok = DEFAULT_COVER_MODE in full
    yield ok, lines, [] if ok else [{"agreement": agree, "default": DEFAULT_COVER_MODE}]


def _verify_theorem_3(args, rng):
    for i in range(1, args.n + 1):
        bit = 1 << (i - 1)
        for parity in ("even", "odd"):
            seed = Subposet(args.n, tuple(
                m for m in construct_layer_subset(args.n, parity).masks if m & bit))
            A = construct_recursive_partition(args.n, i, seed)
            ok = (is_complete_partition(A, Subposet.cube(args.n))
                  and len(A) == 1 << (args.n - 1))
            line = f"coordinate {i}, {parity} seed: {'pass' if ok else 'FAIL'} (|A|={len(A)})"
            yield ok, [line], [] if ok else [{"coordinate": i, "parity": parity,
                                              "A": [str(p) for p in A.points]}]


def _verify_lemma2(args, rng):
    S = Subposet.cube(args.n)
    size = 1 << args.n
    half = 1 << (args.n - 1)
    if args.n <= 3:
        pool = [tuple(m for m in range(size) if bits >> m & 1)
                for bits in range(1 << size)]
        label = f"exhaustive over {len(pool)} subsets"
    else:
        pool = []
        for _ in range(args.samples):
            density = rng.uniform(0.2, 0.9)
            pool.append(tuple(m for m in range(size) if rng.random() < density))
        pool += [construct_layer_subset(args.n, p).masks for p in ("even", "odd")]
        label = f"{len(pool)} sampled subsets"
    # the size law over the whole pool is one check, whose witnesses are
    # its violations
    checked = 0
    violations = []
    for masks in pool:
        A = Subposet(args.n, masks)
        if not A.bitset or not is_complete_partition(A, S):
            continue
        checked += 1
        v_free = find_v3(A) is None
        if not (len(A) >= half and (len(A) == half) == v_free):
            violations.append({"A": [str(p) for p in A.points], "size": len(A),
                               "v_free": v_free, "bound": half})
    line = f"{label}: {checked} complete partitions, {len(violations)} size-law violations"
    yield not violations, [line], violations


def _verify_lemma3(args, rng):
    S = Subposet.cube(args.n)
    for parity in ("even", "odd"):
        A = construct_layer_subset(args.n, parity)
        complete = is_complete_partition(A, S)
        v_free = find_v3(A) is None
        ok = complete and v_free and len(A) == 1 << (args.n - 1)
        line = (f"{parity} layer: complete={complete}, v_free={v_free}, "
                f"size={len(A)} -> {'pass' if ok else 'FAIL'}")
        yield ok, [line], [] if ok else [{"parity": parity, "complete": complete,
                                          "v_free": v_free, "size": len(A)}]


def _verify_theorem_4(args, rng):
    expected = PINNED_DEDEKIND[args.n]
    for parity in ("even", "odd"):
        poly = decompose_power_of_two(args.n, parity)
        ok = poly.value() == expected
        line = f"{parity}: {poly} = {poly.value()} {'==' if ok else '!='} {expected}"
        yield ok, [line], [] if ok else [{"parity": parity, "polynomial": poly.as_dict(),
                                          "value": str(poly.value()),
                                          "expected": str(expected)}]


# theorem -> (suite, title, least n, largest n)
_VERIFY_RUNNERS = {
    "1": (_verify_theorem_1, "partition identity on random (S, A) pairs", 1, 5),
    "corollary": (_verify_corollary, "single-point split sums", 1, 6),
    "2": (_verify_theorem_2, "completeness equivalence experiment", 2, 3),
    "3": (_verify_theorem_3, "mirror-complement construction", 2, 6),
    "lemma2": (_verify_lemma2, "complete-partition size law", 2, 4),
    "lemma3": (_verify_lemma3, "layer subsets are minimal complete partitions", 2, 7),
    "4": (_verify_theorem_4, "power-of-two decomposition", 2, 6),
}


def _cmd_verify(args) -> tuple[dict, list[str], int]:
    runner, title, floor, cap = _VERIFY_RUNNERS[args.theorem]
    if not floor <= args.n <= cap:
        raise PosetParseError(
            f"--theorem {args.theorem} supports {floor} <= n <= {cap}, got {args.n}")
    if args.samples < 1:
        raise PosetParseError(f"--samples must be >= 1, got {args.samples}")
    rng = random.Random(args.seed)
    lines = [f"verify {args.theorem}: {title} (n={args.n})"]
    cases: list[bool] = []
    failures: list[dict] = []
    for ok, text, witnesses in runner(args, rng):
        cases.append(ok)
        lines += text
        failures += witnesses
    passed = sum(cases)
    lines.append(f"{passed}/{len(cases)} checks passed")
    result = {"checks": len(cases), "passed": passed}
    report = _report("verify", args.n, _digest(
        f"verify:{args.theorem}:{args.n}:{args.samples}:{args.seed}"), result,
        theorem=args.theorem, seed=args.seed,
        witnesses=failures)
    return report, lines, 0 if passed == len(cases) else 1


def _cmd_decompose(args) -> tuple[dict, list[str], int]:
    poly = _layer_walk(args.n, args.parity, args)
    value = poly.value()
    polynomial = {str(j): str(c) for j, c in poly.terms}
    if args.format == "text":
        lines = [f"{poly} = {value}"]
    elif args.format == "csv":
        lines = ["exponent,coefficient"]
        lines += [f"{j},{c}" for j, c in poly.terms]
        lines.append(f"value,{value}")
    else:
        lines = []
    report = _report("decompose", args.n, _digest(f"decompose:{args.n}:{args.parity}"),
                     str(value), polynomial=polynomial, parity=args.parity)
    return report, lines, 0


def _cmd_check_complete(args) -> tuple[dict, list[str], int]:
    A = _load_subposet(args.subset)
    if args.n is not None and args.n != A.dim:
        raise PosetParseError(
            f"--n {args.n} does not match the subset file dimension {A.dim}")
    n = A.dim
    if n < 1:
        raise PosetParseError("check-complete needs dimension >= 1")
    remainder = Subposet.cube(n).minus(A)
    mode = args.mode
    # minimality is read under the default covers, and in that mode its
    # search of the remainder tells whether A is complete: the remainder is
    # searched again only for the V-shape a non-complete A leaves
    if mode == DEFAULT_COVER_MODE:
        classification = minimality_check(A, n)
        witness = None if classification != NOT_COMPLETE else find_v3(remainder, mode)
    else:
        witness = find_v3(remainder, mode)
        classification = minimality_check(A, n)
    complete = witness is None
    lines = [
        f"subset of E^{n}, size {len(A)}",
        f"complete ({mode} covers): {'yes' if complete else 'no'}",
    ]
    if witness is not None:
        lines.append(f"remainder V-shape: {witness}")
    lines.append(f"classification: {classification}")
    result = {
        "complete": complete,
        "size": len(A),
        "minimality": classification,
        "mode": mode,
    }
    report = _report("check-complete", n, _file_digest(args.subset), result,
                     witnesses=[_witness_dict(witness)] if witness else [])
    return report, lines, 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedekind",
        description="Exact counting of monotone 0/1 maps on subposets of the n-cube.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count monotone maps on a cube or a poset file")
    p.add_argument("--n", type=int, help="full cube dimension")
    p.add_argument("--poset", help="poset file (n=<dim> header, one point per line)")
    p.add_argument("--strategy", choices=("auto", "single", "layer"),
                   default="auto",
                   help="counting strategy: auto (default) takes the fibre sum "
                        "over a coupled split along two coordinates (the "
                        "interval sum for products T x E^2) and the engine "
                        "elsewhere; single pins the engine; layer is a legacy "
                        "spelling of "
                        "decompose --parity even's value, kept with --threads "
                        "for the benchmark's cube6_cli argv")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored, as counting runs on one thread; must be >= 1")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="abort after this many engine nodes (exit 3)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="abort after this much wall time (exit 3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run a property suite for one statement")
    p.add_argument("--theorem", required=True, choices=tuple(_VERIFY_RUNNERS),
                   help="which statement to exercise")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=50,
                   help="sample count for randomized suites (default 50)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed, echoed in the report (default {DEFAULT_SEED})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("decompose",
                       help="write D(E^n) as an exact polynomial in powers of two")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("check-complete",
                       help="test whether a subset completely partitions its cube")
    p.add_argument("--subset", required=True, help="subset file (poset format)")
    p.add_argument("--n", type=int, default=None,
                   help="expected dimension (cross-checked against the file)")
    p.add_argument("--mode", choices=COVER_MODES, default=DEFAULT_COVER_MODE)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_check_complete)

    return parser


def _emit(report: dict, lines: list[str], fmt: str, elapsed_ms: int) -> None:
    if fmt == "json":
        report["elapsed_ms"] = elapsed_ms
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        start = time.monotonic()
        report, lines, code = args.handler(args)
        elapsed_ms = int((time.monotonic() - start) * 1000)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError, KeyboardInterrupt) as exc:
        print(f"stopped: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return 3
    except FalsificationError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 4
    _emit(report, lines, args.format, elapsed_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
