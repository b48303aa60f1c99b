"""Exact counting through recursive pivot partitions.

The identity driving everything: for any pivot subset A of S, the monotone
maps on S split by their restriction to A, so D(S) is the sum over monotone
f on A of D(S minus the region f forces).  A single-point pivot gives the
two-branch recursion; alternating-weight layer pivots force every residual
down to an antichain, turning D(E^n) into an exact polynomial in powers of
two.  The engine memoizes residuals under cube symmetry (coordinate
permutations, optionally folded with global complementation, which reverses
the order and preserves counts) and splits order-disconnected residuals
multiplicatively.  A residual's canonical key is its least image over the
symmetries that sort its coordinates by a weight-histogram invariant, a
partition refinement in the style of McKay and Piperno, so a key searches a
handful of the 2*d! symmetries rather than all of them.

Completeness of a pivot subset (every residual a disjoint union of cubes of
strictly lower dimension) is decided three ways: the V-shape predicate on
the remainder, the 2-face condition, and a definitional oracle that checks
every residual's component structure (a numeric variant that only factors
the counts is strictly weaker).  The cover reading the predicates use
defaults to "ambient"; see DEFAULT_COVER_MODE.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import BudgetExceededError, FalsificationError
from .monotone import MonotoneMap, count_monotone_oracle, enumerate_monotone
from .poset import (
    COVER_MODES,
    Point,
    Subposet,
    _comparable_table,
    _generated_bits,
    _mask_list,
    _updown_tables,
    cover_preserving_isomorphic,
    find_v3,
)

# Monotone map counts of the full cubes E^0 .. E^6, cross-checked against the
# enumeration oracle in the test suite.  The definitional completeness oracle
# factors term values over this pool; desk-scale terms never need more.
PINNED_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)

# Cover reading used by the V-shape predicates when no mode is passed.  The
# ambient (weight-gap-1) reading is the one that matches the definitional
# oracle on every subset of E^3; the induced reading stays available and is
# strictly more sensitive (sound but incomplete on full cubes).
DEFAULT_COVER_MODE = "ambient"

# The dimension up to which keys fold cube symmetry.  The symmetry table has
# 2*d! x 2^d entries (10080 x 128 at d = 7) and grows too fast to build
# beyond; larger sets are keyed by their own membership bitset.  Not an
# input cap: that is poset.MAX_DIM.
CANONICAL_DIM_CAP = 7

MINIMAL = "minimal"
COMPLETE_BUT_NOT_MINIMAL = "complete_but_not_minimal"
NOT_COMPLETE = "not_complete"

PivotStrategy = Union[str, Subposet]


@dataclass(frozen=True)
class PartitionTerm:
    """One summand of the partition identity: a pivot assignment and what is
    left of S after removing the region it forces."""

    pivot_values: MonotoneMap
    residual: Subposet


@dataclass(frozen=True)
class TwoAdicPolynomial:
    """An exact sum of coefficient * 2^exponent terms, exponents ascending."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = -1
        for exp, coeff in self.terms:
            if exp <= last:
                raise ValueError("exponents must be strictly ascending")
            if coeff < 1:
                raise ValueError("coefficients must be positive")
            last = exp

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "TwoAdicPolynomial":
        return cls(tuple(sorted((j, c) for j, c in counts.items() if c)))

    def value(self) -> int:
        return sum(c << j for j, c in self.terms)

    def coefficient(self, exponent: int) -> int:
        for j, c in self.terms:
            if j == exponent:
                return c
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*2^{j}" for j, c in self.terms)


class MemoCache:
    """The engine's one memo table.  It holds both kinds of residual key: the
    literal (dim, membership bitset) of a projected residual, and the
    canonical form of a connected one.

    Unbounded by default; with maxsize set, it evicts the least recently
    used entry, so maxsize bounds every entry the engine stores.  hits and
    misses are running statistics over literal and canonical lookups alike.
    Not thread-safe: share one instance between calls on one thread only.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        if key in self._data:
            self.hits += 1
            if self.maxsize is not None:
                self._data.move_to_end(key)
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        if self.maxsize is not None:
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _symmetry_tables(dim: int) -> np.ndarray:
    """Point-index transforms of E^dim: all coordinate permutations followed
    by the same composed with global complementation.  Shape
    (2*dim!, max(2^dim, 32)): below dimension 5 the slots past 2^dim index
    cell 2^dim, which is never a member, so every row is whole 32-slot words."""
    size = 1 << dim
    bits = ((np.arange(size)[:, None] >> np.arange(dim)[None, :]) & 1).astype(np.int64)
    perms = list(itertools.permutations(range(dim)))
    place = np.array([[1 << p[i] for i in range(dim)] for p in perms], dtype=np.int64)
    transformed = (bits @ place.T).T  # (dim!, size)
    full = np.concatenate([transformed, (size - 1) - transformed])
    full = np.pad(full, ((0, 0), (0, max(32 - size, 0))), constant_values=size)
    return np.ascontiguousarray(full, dtype=np.int32)


@lru_cache(maxsize=None)
def _permutation_rows(dim: int) -> dict[tuple[int, ...], int]:
    """Row of each coordinate permutation in _symmetry_tables(dim): its rank
    in lexicographic order, the order itertools.permutations lists."""
    return {p: r for r, p in enumerate(itertools.permutations(range(dim)))}


@lru_cache(maxsize=None)
def _coordinate_weights(dim: int) -> np.ndarray:
    """Shape (2^dim, 2*dim).  Column i of row x is 256^weight(x) if x has
    coordinate i set, else 0; column dim + i is the same for the complement
    of x.  Summed over the members of a set, column i packs the weight
    histogram of the members that have coordinate i set into one integer,
    8 bits a weight (a count is at most C(6, 3) = 20 at dim 7); the last dim
    columns give the same for the set's dual."""
    x = np.arange(1 << dim, dtype=np.int64)
    cols = []
    for y in (x, ((1 << dim) - 1) ^ x):
        bits = (y[:, None] >> np.arange(dim)) & 1
        cols.append(bits << (8 * bits.sum(axis=1))[:, None])
    return np.concatenate(cols, axis=1)


def _candidate_transforms(memb: np.ndarray, dim: int, fold_duality: bool) -> np.ndarray:
    """The rows of _symmetry_tables(dim) whose images of the set (memb is
    its membership vector) list the coordinates in ascending invariant
    order (see _coordinate_weights), in the orientation whose sorted
    invariants are least (both when the set and its dual tie).  This
    candidate set is defined by the images alone, so every member of an
    orbit gets the same set of images and the least of them is a canonical
    form.  The row of permutation p maps image coordinate j to set
    coordinate p[j]."""
    tables = _symmetry_tables(dim)
    half = tables.shape[0] // 2
    inv = (memb[: 1 << dim] @ _coordinate_weights(dim)).tolist()
    pairs = ((inv[:dim], 0), (inv[dim:], half)) if fold_duality else ((inv[:dim], 0),)
    keyed = [(sorted(vec), vec, base) for vec, base in pairs]
    least = min(keyed)[0]
    orientations = [(vec, base) for key, vec, base in keyed if key == least]
    if len(set(inv[:dim])) <= 1:
        # one invariant class, and then the dual has one too: every
        # permutation of a kept orientation is a candidate, so the rows
        # are one table half, or both, and a view indexes them
        return tables[orientations[0][1] : orientations[-1][1] + half]
    ranks = _permutation_rows(dim)
    rows = []
    for vec, base in orientations:
        order = sorted(range(dim), key=vec.__getitem__)
        blocks = [tuple(b) for _, b in itertools.groupby(order, key=vec.__getitem__)]
        for parts in itertools.product(*map(itertools.permutations, blocks)):
            rows.append(base + ranks[sum(parts, ())])
    return tables[rows]


def _canonical_payload(masks: list[int], dim: int, fold_duality: bool) -> bytes:
    memb = np.zeros((1 << dim) + 1, dtype=np.uint8)
    if masks:
        memb[masks] = 1

    # radix minimum over the candidate images, 32 point-slots (one
    # big-endian word) at a time: gather only surviving transforms
    surviving = _candidate_transforms(memb, dim, fold_duality)
    parts = [b"\x00", bytes([dim])]
    offset = 0
    while surviving.shape[0] > 1 and offset < surviving.shape[1]:
        vals = np.packbits(memb[surviving[:, offset : offset + 32]], axis=1).view(">u4").ravel()
        m = vals.min()
        parts.append(int(m).to_bytes(4, "big"))
        surviving = surviving[vals == m]
        offset += 32
    if offset < surviving.shape[1]:
        parts.append(np.packbits(memb[surviving[0, offset:]]).tobytes())
    return b"".join(parts)


def canonical_key(S: Subposet, *, fold_duality: bool = True) -> bytes:
    """Canonical form of S under cube symmetry, optionally folded with global
    complementation (which folds each subposet with its dual): equal keys
    exactly when one set maps to the other.  The key is the least membership
    bitset over the images that list the coordinates in ascending order of
    their invariant (the weight histogram of the members on that
    coordinate), taken in the orientation, S or its dual, whose sorted
    invariants are least; it is not the least image over every permutation.
    Above CANONICAL_DIM_CAP the key is S's own membership bitset, an identity
    key that is equal only for equal sets.  Keys are comparable only between
    calls with the same fold_duality setting."""
    if S.dim > CANONICAL_DIM_CAP:
        return b"\x01" + bytes([S.dim]) + S.bitset.to_bytes(1 << (S.dim - 3), "little")
    return _canonical_payload(list(S.masks), S.dim, fold_duality)


# ---------------------------------------------------------------------------
# the counting engine


class _EngineRun:
    """Mutable per-call state: cache handles, budgets, node statistics."""

    __slots__ = ("cache", "use_cache", "max_nodes", "deadline", "nodes")

    def __init__(self, cache: MemoCache | None, use_cache: bool, max_nodes, budget_seconds):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
        # written so that NaN fails too
        if budget_seconds is not None and not budget_seconds >= 0:
            raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
        self.cache = cache
        self.use_cache = use_cache
        self.max_nodes = max_nodes
        self.deadline = (
            time.monotonic() + budget_seconds if budget_seconds is not None else None
        )
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"engine node budget exceeded ({self.max_nodes} nodes)"
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("engine time budget exceeded")


def _components(bits: int, dim: int) -> list[int]:
    """Point-space bitsets of the comparability components of the set bits
    in E^dim, ordered by least point."""
    near = _comparable_table(dim)
    comps = []
    rest = bits
    while rest:
        frontier = rest & -rest
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & bits & ~comp
        rest &= ~comp
        comps.append(comp)
    return comps


def _varying_coordinates(masks: Iterable[int]) -> int:
    """Bitset of the coordinates that are not constant across masks."""
    m_and, m_or = -1, 0
    for m in masks:
        m_and &= m
        m_or |= m
    return m_or & ~m_and


def _extract_bits(mask: int, selector: int) -> int:
    """Compress the selector bits of mask into a contiguous low-bit word."""
    out = 0
    pos = 0
    while selector:
        low = selector & -selector
        if mask & low:
            out |= 1 << pos
        pos += 1
        selector ^= low
    return out


def _select_pivot(masks: list[int], bits: int, dim: int) -> int:
    """Default pivot of the set bits (masks lists its points): a point of
    lower-median weight whose comparability degree is maximal, ties broken
    by numeric value.  High degree shrinks both branches; median weight
    keeps the branches balanced."""
    near = _comparable_table(dim)
    median_weight = sorted(m.bit_count() for m in masks)[(len(masks) - 1) // 2]
    return min(
        (m for m in masks if m.bit_count() == median_weight),
        key=lambda m: (-(near[m] & bits).bit_count(), m),
    )


def _count_bits(bits: int, dim: int, run: _EngineRun) -> int:
    """D of the point set bits of E^dim."""
    k = bits.bit_count()
    if k == 0:
        return 1
    if k == 1:
        return 2
    run.tick()

    # project away coordinates that are constant across the set; the induced
    # order, and with it the count, is unchanged
    masks = _mask_list(bits)
    varying = _varying_coordinates(masks)
    vdim = varying.bit_count()
    if vdim < dim:
        # constant positions are identical in every mask, so order is kept
        masks = [_extract_bits(m, varying) for m in masks]
        dim = vdim
        bits = 0
        for m in masks:
            bits |= 1 << m

    # the literal key: exact for this projected residual at any dimension
    literal_key = None
    if run.use_cache:
        literal_key = (dim, bits)
        cached = run.cache.get(literal_key)
        if cached is not None:
            return cached

    comps = _components(bits, dim)
    if len(comps) == k:
        result = 1 << k  # antichain: every 0/1 assignment is monotone
    elif len(comps) > 1:
        result = 1
        for comp in comps:
            result *= _count_bits(comp, dim, run)
    else:
        key = None
        if run.use_cache and dim <= CANONICAL_DIM_CAP:
            key = _canonical_payload(masks, dim, True)
            cached = run.cache.get(key)
            if cached is not None:
                run.cache.put(literal_key, cached)
                return cached
        pivot = _select_pivot(masks, bits, dim)
        up_t, down_t = _updown_tables(dim)
        result = _count_bits(bits & ~up_t[pivot], dim, run) + _count_bits(
            bits & ~down_t[pivot], dim, run
        )
        if key is not None:
            run.cache.put(key, result)
    if literal_key is not None:
        run.cache.put(literal_key, result)
    return result


def _pivot_maps(A: Subposet, run: _EngineRun) -> Iterator[int]:
    """Walk the monotone maps on an explicit pivot subset A depth first,
    0-branch first, and yield for each map the point-space bitset of the
    region it forces.  Every decision spends one engine node, so the run's
    budgets bound the walk; an empty A yields 0 once."""
    up_t, down_t = _updown_tables(A.dim)
    stack = [(A.bitset, 0)]
    while stack:
        undecided, covered = stack.pop()
        while undecided:
            run.tick()
            a = (undecided & -undecided).bit_length() - 1
            stack.append((undecided & ~up_t[a], covered | up_t[a]))
            undecided &= ~down_t[a]
            covered |= down_t[a]
        yield covered


def _reach(undecided: int, near: tuple[int, ...]) -> int:
    """Points comparable to some member of the point-space bitset undecided."""
    reach = 0
    while undecided:
        low = undecided & -undecided
        reach |= near[low.bit_length() - 1]
        undecided ^= low
    return reach


def _residual_sizes(A: Subposet, run: _EngineRun) -> dict[int, int]:
    """The residual-size polynomial of a pivot subset A of the full cube, as
    {k: c}: c monotone maps f on A leave exactly k points of the cube outside
    the region f forces.

    The pivots are decided lowest first, as in _pivot_maps, but a state is
    memoized as (U, live): U is the set of undecided pivots and live the free
    non-pivot points within reach of U, i.e. comparable to one of its
    members.  A free point out of reach can never be covered again, so it
    only shifts the polynomial.  Polynomials are packed into one int, |A| + 1
    bits a coefficient; a coefficient counts monotone maps on a subset of A,
    of which there are at most 2^|A|.  The walk keeps an explicit stack, so
    its depth (up to |A| decisions) is not bounded by the recursion limit,
    and every memo miss spends one engine node."""
    up_t, down_t = _updown_tables(A.dim)
    near = _comparable_table(A.dim)
    width = len(A) + 1
    free = ((1 << (1 << A.dim)) - 1) & ~A.bitset
    reach = _reach(A.bitset, near)
    root = (A.bitset, free & reach)
    # U -> (child U, points kept live, points dropped) for the 1- and 0-branch
    branches: dict[int, list[tuple[int, int, int]]] = {}
    memo = {(0, 0): 1}
    stack: list = [(root, None)]
    while stack:
        key, kids = stack.pop()
        if kids is not None:
            (one, one_shift), (zero, zero_shift) = kids
            memo[key] = (memo[one] << one_shift) + (memo[zero] << zero_shift)
            continue
        if key in memo:
            continue
        run.tick()
        undecided, live = key
        steps = branches.get(undecided)
        if steps is None:
            a = (undecided & -undecided).bit_length() - 1
            steps = []
            for cover in (up_t[a], down_t[a]):
                rest = undecided & ~cover
                rest_reach = _reach(rest, near)
                steps.append((rest, rest_reach & ~cover, ~(rest_reach | cover)))
            branches[undecided] = steps
        kids = tuple(
            ((rest, live & keep), (live & drop).bit_count() * width)
            for rest, keep, drop in steps
        )
        stack.append((key, kids))
        # the 0-branch goes on top, so it is walked first
        stack.extend((kid, None) for kid, _ in kids if kid not in memo)
    packed = memo[root]
    k = (free & ~reach).bit_count()
    counts = {}
    coefficient = (1 << width) - 1
    while packed:
        if packed & coefficient:
            counts[k] = packed & coefficient
        packed >>= width
        k += 1
    return counts


def _free_edge(A: Subposet) -> tuple[int, int] | None:
    """The least cube edge (m, m | e_i), by m and then i, with both ends
    outside A, or None.  Some residual of pivot A holds a comparable pair
    exactly when such an edge exists: the map f(a) = [a >= m] leaves both its
    ends free, and a free comparable pair p < q leaves every point between
    them free, the edges out of p toward q among them."""
    full = (1 << A.dim) - 1
    down_t = _updown_tables(A.dim)[1]
    free = ((1 << (1 << A.dim)) - 1) & ~A.bitset
    edges = []
    for i in range(A.dim):
        # free points with coordinate i clear whose neighbour m | e_i is free
        lows = free & down_t[full ^ 1 << i] & (free >> (1 << i))
        if lows:
            m = (lows & -lows).bit_length() - 1
            edges.append((m, m | 1 << i))
    return min(edges, default=None)


def _layer_polynomial(A: Subposet, parity: str, run: _EngineRun) -> TwoAdicPolynomial:
    """The residual-size polynomial of the layer pivot A, read in powers of
    two, after checking that every residual is an antichain (one of k points
    counts 2^k); a comparable pair falsifies the layer-pivot guarantee and
    raises FalsificationError naming the pair and a map that leaves it
    free."""
    edge = _free_edge(A)
    if edge is not None:
        m, y = edge
        n = A.dim
        pivot_text = ", ".join(f"{Point(a, n)}={int(a & m == m)}" for a in A.masks)
        raise FalsificationError(
            f"residual of the layer pivot is not an antichain: "
            f"{Point(m, n)} below {Point(y, n)} "
            f"(n={n}, parity={parity}, pivot values {pivot_text})"
        )
    return TwoAdicPolynomial.from_counts(_residual_sizes(A, run))


def _validate_subset(A: Subposet, S: Subposet) -> None:
    if A.dim != S.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {S.dim}")
    if A.bitset & ~S.bitset:
        raise ValueError("pivot subset must be contained in S")


def count_via_partition(
    S: Subposet,
    strategy: PivotStrategy = "single",
    *,
    cache: MemoCache | None = None,
    use_cache: bool = True,
    max_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> int:
    """Count monotone maps on S by the recursive partition identity.

    strategy selects the top-level pivot: "single" (default) recurses on one
    median-weight point of maximal comparability degree at every level;
    "layer" pivots on the even-weight layer subset of a full cube, making
    every residual an antichain, and returns the value at 2 of the
    residual-size polynomial decompose_power_of_two builds (the antichain
    check runs once, before the walk, and cache is left unused); a Subposet
    pivots on that explicit subset once, then continues with the default.
    All strategies are exact and agree; they differ only in work.  Counting
    runs on the calling thread.  Budgets, when given, bound engine nodes and
    wall time and raise BudgetExceededError; engine nodes are the recursion
    steps of the engine, the decisions of an explicit pivot's walk, and the
    distinct states of the layer walk.  A negative max_nodes, or a
    budget_seconds that is negative or NaN, raises ValueError.
    """
    run = _EngineRun(
        cache if cache is not None else MemoCache(), use_cache, max_nodes, budget_seconds
    )

    if isinstance(strategy, Subposet):
        _validate_subset(strategy, S)
        s_bits = S.bitset
        return sum(
            _count_bits(s_bits & ~covered, S.dim, run)
            for covered in _pivot_maps(strategy, run)
        )
    if strategy == "layer":
        if S != Subposet.cube(S.dim):
            raise ValueError("layer strategy requires the full cube")
        if S.dim < 2:
            raise ValueError("layer strategy requires dimension >= 2")
        A = construct_layer_subset(S.dim, "even")
        return _layer_polynomial(A, "even", run).value()
    if strategy == "single":
        return _count_bits(S.bitset, S.dim, run)
    raise ValueError(f"unknown strategy {strategy!r}")


def partition_terms(S: Subposet, A: Subposet) -> list[PartitionTerm]:
    """Materialize the partition sum for pivot subset A: one term per
    monotone map f on A, with residual S minus the region f forces (upper
    sets where f is 1, lower sets where f is 0).  Terms are ordered by the
    value tuple of their pivot maps.  Desk-scale: every monotone map on A is
    listed."""
    _validate_subset(A, S)
    keyed = []
    for f in enumerate_monotone(A):
        values = f.values()
        forced = _generated_bits(A, values)
        residual = Subposet(S.dim, tuple(m for m in S.masks if not forced >> m & 1))
        keyed.append((values, PartitionTerm(f, residual)))
    keyed.sort(key=lambda vt: vt[0])
    return [term for _, term in keyed]


def corollary_split(
    n: int,
    a: Point,
    *,
    cache: MemoCache | None = None,
    max_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> tuple[int, int]:
    """The two-branch split of D(E^n) at a single pivot point a: counts of
    the cube minus the upper set of a and minus the lower set of a.  The two
    share one cache; with duality folding the second branch of a symmetric
    pivot is usually a cache hit."""
    if a.dim != n:
        raise ValueError(f"pivot dimension {a.dim} != {n}")
    up_t, down_t = _updown_tables(n)
    full = (1 << (1 << n)) - 1
    shared = cache if cache is not None else MemoCache()
    kwargs = dict(cache=shared, max_nodes=max_nodes, budget_seconds=budget_seconds)
    upper_removed = Subposet(n, tuple(_mask_list(full & ~up_t[a.mask])))
    lower_removed = Subposet(n, tuple(_mask_list(full & ~down_t[a.mask])))
    return (
        count_via_partition(upper_removed, **kwargs),
        count_via_partition(lower_removed, **kwargs),
    )


# ---------------------------------------------------------------------------
# complete partitions


def is_complete_partition(A: Subposet, S: Subposet, mode: str | None = None) -> bool:
    """Predicate form of completeness: no V-shape in S - A under the selected
    cover reading (default DEFAULT_COVER_MODE)."""
    if mode is None:
        mode = DEFAULT_COVER_MODE
    if mode not in COVER_MODES:
        raise ValueError(f"mode must be one of {COVER_MODES}, got {mode!r}")
    _validate_subset(A, S)
    return find_v3(S.minus(A), mode) is None


def e2_condition_check(A: Subposet, n: int, mode: str | None = None) -> bool:
    """The 2-face condition on the full cube: every four-point diamond B of
    E^n must put one of its two middle points in A, or both its endpoints.

    Under the ambient reading the diamonds are the standard 2-faces.  Under
    the induced reading every interval [x, y] contributes a diamond for each
    incomparable pair of interior points, so the non-A interior of every
    interval must form a chain."""
    if mode is None:
        mode = DEFAULT_COVER_MODE
    if mode not in COVER_MODES:
        raise ValueError(f"mode must be one of {COVER_MODES}, got {mode!r}")
    if A.dim != n:
        raise ValueError(f"pivot dimension {A.dim} != {n}")
    in_a = frozenset(A.masks)
    size = 1 << n

    if mode == "ambient":
        for x in range(size):
            for i in range(n):
                if x >> i & 1:
                    continue
                m1 = x | 1 << i
                for j in range(i + 1, n):
                    if x >> j & 1:
                        continue
                    m2 = x | 1 << j
                    if m1 in in_a or m2 in in_a:
                        continue
                    if x in in_a and (m1 | m2) in in_a:
                        continue
                    return False
        return True

    full = size - 1
    for x in range(size):
        free = full & ~x
        t = free
        while t:
            if t.bit_count() >= 2:
                y = x | t
                if not (x in in_a and y in in_a):
                    # every incomparable pair of non-A interior points violates
                    interior = []
                    u = (t - 1) & t
                    while u:
                        if (x | u) not in in_a:
                            interior.append(u)
                        u = (u - 1) & t
                    interior.sort()
                    for a_, b_ in zip(interior, interior[1:]):
                        if a_ & ~b_:
                            return False
            t = (t - 1) & free
    return True


def _comparability_components(S: Subposet) -> list[Subposet]:
    return [Subposet(S.dim, tuple(_mask_list(c))) for c in _components(S.bitset, S.dim)]


def definitional_completeness_oracle(A: Subposet, S: Subposet) -> bool:
    """Decide completeness from the definition: every term of the partition
    must count as a product of full-cube counts, realized by the residual's
    structure.  Concretely, every connected component of every residual must
    be cover-preserving isomorphic to a cube of dimension strictly below the
    intrinsic dimension of S (coordinates that vary across S); the empty
    residual is the empty product.

    The strict-dimension requirement keeps "A partitions S" meaningful: on a
    full cube only the empty pivot could produce a full-dimensional
    component, and admitting it would contradict the size law for complete
    partitions.  The purely numeric reading of "product of cube counts" is
    weaker and is available as numeric_completeness_oracle; the two differ
    on residuals whose count happens to factor without the shape doing so
    (the smallest case: a four-point fence counting 8 = 2*2*2).
    """
    _validate_subset(A, S)
    limit = _varying_coordinates(S.masks).bit_count()
    for term in partition_terms(S, A):
        for comp in _comparability_components(term.residual):
            k = len(comp).bit_length() - 1
            if len(comp) != 1 << k or k >= limit:
                return False
            if not cover_preserving_isomorphic(comp, Subposet.cube(k)):
                return False
    return True


@lru_cache(maxsize=200_000)
def _is_product_of(v: int, allowed: tuple[int, ...]) -> bool:
    if v == 1:
        return True
    return any(v % d == 0 and _is_product_of(v // d, allowed) for d in allowed)


def numeric_completeness_oracle(
    A: Subposet, S: Subposet, *, value_budget: int = 10**15
) -> bool:
    """The literal numeric reading of completeness: recount every residual
    and test whether the value factors multiplicatively over the pinned
    full-cube counts, with no structural requirement.

    Implied by definitional_completeness_oracle but strictly weaker: counts
    can factor accidentally (a connected four-point fence counts 8) and the
    whole of S factors through its own count when A is empty.  Kept because
    the gap between the two readings is exactly what the V-shape criterion
    detects.  Terms larger than value_budget raise BudgetExceededError."""
    _validate_subset(A, S)
    for term in partition_terms(S, A):
        v = count_monotone_oracle(term.residual)
        if v > value_budget:
            raise BudgetExceededError(
                f"term value {v} exceeds factorization budget {value_budget}"
            )
        if not _is_product_of(v, PINNED_DEDEKIND):
            return False
    return True


def construct_layer_subset(n: int, parity: str) -> Subposet:
    """The alternating-weight pivot subset of E^n: all points of even (or
    odd) weight.  Size 2^(n-1); a minimal complete partition."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if n < 2:
        raise ValueError("layer subsets are defined for n >= 2")
    want = 0 if parity == "even" else 1
    return Subposet(n, tuple(m for m in range(1 << n) if m.bit_count() & 1 == want))


def _witness_text(w) -> str:
    return (
        f"apex {w.apex}, arms {w.arms[0]} and {w.arms[1]}, orientation {w.orientation}"
    )


def construct_recursive_partition(n: int, i: int, seed: Subposet) -> Subposet:
    """Extend a complete partition of the upper subcube at coordinate i to a
    complete partition of E^n by mirror complement: keep the seed, and take
    every lower-subcube point whose mirror image is absent from the seed.

    The seed must lie in the upper subcube, contain no V-shape, and
    completely partition the upper subcube; violations raise ValueError
    carrying the offending witness.  The result always has size 2^(n-1).
    """
    if not 1 <= i <= n:
        raise ValueError(f"coordinate must satisfy 1 <= i <= n, got {i}")
    if seed.dim != n:
        raise ValueError(f"seed dimension {seed.dim} != {n}")
    bit = 1 << (i - 1)
    if any(not m & bit for m in seed.masks):
        raise ValueError("seed must lie in the upper subcube (coordinate i equal to 1)")
    w = find_v3(seed, DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(f"seed contains a V-shape: {_witness_text(w)}")
    upper = Subposet(n, tuple(m for m in range(1 << n) if m & bit))
    w = find_v3(upper.minus(seed), DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(
            "seed does not completely partition the upper subcube; "
            f"V-shape in the remainder: {_witness_text(w)}"
        )
    in_seed = set(seed.masks)
    mirrors = tuple(
        m for m in range(1 << n) if not m & bit and (m | bit) not in in_seed
    )
    return Subposet(n, seed.masks + mirrors)


def minimality_check(A: Subposet, n: int) -> str:
    """Classify a pivot subset of E^n: "not_complete", "minimal" (complete,
    V-shape free, necessarily of size 2^(n-1)) or "complete_but_not_minimal"
    (complete with a V-shape inside A, necessarily larger).  A size that
    contradicts the classification raises FalsificationError."""
    if n < 1:
        raise ValueError("minimality is defined for n >= 1")
    if A.dim != n:
        raise ValueError(f"pivot dimension {A.dim} != {n}")
    # an empty pivot partitions nothing; without this the vacuously V-free
    # remainder E^1 would slip past the predicate and falsify the size law
    if not A.masks:
        return NOT_COMPLETE
    if not is_complete_partition(A, Subposet.cube(n)):
        return NOT_COMPLETE
    half = 1 << (n - 1)
    if find_v3(A, DEFAULT_COVER_MODE) is None:
        if len(A) != half:
            raise FalsificationError(
                f"V-free complete partition has size {len(A)}, expected {half}"
            )
        return MINIMAL
    if len(A) <= half:
        raise FalsificationError(
            f"complete partition with a V-shape has size {len(A)}, expected > {half}"
        )
    return COMPLETE_BUT_NOT_MINIMAL


def decompose_power_of_two(
    n: int,
    parity: str = "even",
    *,
    max_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> TwoAdicPolynomial:
    """Write D(E^n) as an exact polynomial in powers of two by pivoting on
    the alternating-weight layer subset: every residual is an antichain of
    some size k and contributes 2^k, so the coefficient of 2^k counts the
    pivot maps leaving exactly k points free.

    The residuals are checked to be antichains before the walk: one holds a
    comparable pair exactly when some cube edge has both ends outside the
    pivot, and such an edge would falsify the layer-pivot guarantee and
    raises FalsificationError.  The pivot maps are not walked one by one:
    a memoized walk over (undecided pivots, coverable free points) states
    builds the polynomial, and each state spends one engine node.
    """
    A = construct_layer_subset(n, parity)
    run = _EngineRun(None, False, max_nodes, budget_seconds)
    return _layer_polynomial(A, parity, run)
