"""Exact counting through recursive pivot partitions.

The identity driving everything: for any pivot subset A of S, the monotone
maps on S split by their restriction to A, so D(S) is the sum over monotone
f on A of D(S minus the region f forces).  A single-point pivot gives the
two-branch recursion; alternating-weight layer pivots force every residual
down to an antichain, turning D(E^n) into an exact polynomial in powers of
two.  The engine counts residuals of a few points directly, splits
order-disconnected residuals multiplicatively, and memoizes each connected
one under one key: the large ones by their canonical form under cube
symmetry (coordinate permutations folded with global complementation,
which reverses the order and preserves counts), the rest by their
membership bitset.  A residual's canonical key is its least image
over the symmetries that sort its coordinates by a weight-histogram
invariant, a partition refinement in the style of McKay and Piperno, so a
key builds and compares only those few images, not all 2*d! of them.  By
default a count's input, if order-connected, too large for the direct
count and with a coupled split along two coordinates, is counted without
the engine by the fibre sum over pairs of monotone maps on the split's two
middle fibres; one ranking of the splits picks it, and one dispatcher,
_count_bits, routes every count.  A product T x E^2, every full cube from E^4 up among
them, is the split whose four fibres are equal, which ranks first, and
there the fibre sum is the interval sum over pairs of maps on T (Wiedemann,
Order 8, 1991).

Completeness of a pivot subset (every residual a disjoint union of cubes of
strictly lower dimension) is decided three ways: the V-shape predicate on
the remainder, the 2-face condition, and a definitional oracle that checks
every residual's component structure (a numeric variant that only factors
the counts is strictly weaker).  The predicates read covers under
poset.DEFAULT_COVER_MODE unless a mode is passed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import BudgetExceededError, FalsificationError
from .monotone import DEFAULT_ENUMERATION_CAP, MonotoneMap, count_monotone_oracle
from .poset import (
    DEFAULT_COVER_MODE,
    Point,
    Subposet,
    _check_mode,
    _comparable_table,
    _mask_list,
    _updown_tables,
    cover_preserving_isomorphic,
    find_v3,
)

# Monotone map counts of the full cubes E^0 .. E^6, cross-checked against the
# enumeration oracle in the test suite.  numeric_completeness_oracle factors
# term values over this pool; desk-scale terms never need more.
PINNED_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)

# The dimension up to which keys fold cube symmetry; larger sets are keyed by
# their own membership bitset.  At dim 8 folding merged only 22% of 2,000
# engine residuals (ROADMAP, "Measured and dropped"), and a set whose
# coordinates all share one invariant has d! candidates, 40,320 at d = 8.
# Not an input cap: that is poset.MAX_DIM.
CANONICAL_DIM_CAP = 7

# The engine keeps its memo where the memo pays.  A residual of at most
# _DIRECT_MAX_POINTS points is counted by a small DFS, with no projection,
# no lookup and no entry; a connected residual is keyed canonically only
# from _CANONICAL_MIN_POINTS points up, and literally below.  Below that
# floor a canonical key costs more than the hits it finds save.  Both come
# from the sweep in BENCH_memo_policy.json.
_DIRECT_MAX_POINTS = 10
_CANONICAL_MIN_POINTS = 20

# The fibre sum's reach.  Truth tables of maps on a fibre are int64 bitsets
# over its points, and the sum visits at most |M(F01)| * |M(F10)| pairs: at
# 10^4 maps that is 10^8 pairs, a few seconds, with every partial sum far
# inside int64.  A split beyond either limit is dropped for the next.
INTERVAL_MAX_POINTS = 63
INTERVAL_MAX_MAPS = 10_000
# Pairs per numpy block of the fibre sum: a block's temporaries stay a few
# MB.  It also bounds the direct-address tables of F00 and F11 (see
# _lookup): a fibre gets one only when its 2^|F| truth tables fit in one
# block, so a table is never larger than a block's int64 temporaries (2 MB).
_INTERVAL_BLOCK_PAIRS = 1 << 18

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
    """The engine's one memo table, a plain dict.  The engine stores each
    connected residual it pivots on under one key: its canonical form,
    bytes, when it is large and of dimension at most CANONICAL_DIM_CAP, and
    otherwise the literal key of the projected residual, an int (see
    _literal_key).  corollary_split stores the count of each branch it
    counts under the branch's canonical_key, bytes too; when the two kinds
    of entry answer each other is set out at corollary_split.

    Unbounded: every entry stays until clear().  hits and misses are running
    statistics over literal and canonical lookups alike.  A value of None
    reads as a miss; the engine stores counts, which are positive.  Not
    thread-safe: share one instance between calls on one thread only.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._data: dict = {}

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value

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


@lru_cache(maxsize=None)
def _image_row(perm: tuple[int, ...]) -> np.ndarray:
    """Point indices of the coordinate permutation perm of E^len(perm):
    slot j holds the point sum_i bit_i(j) << perm[i], so a membership
    vector indexed by the row is that of the set's image, which maps image
    coordinate i to set coordinate perm[i]."""
    dim = len(perm)
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    return (bits @ (1 << np.array(perm, dtype=np.int64))).astype(np.uint8)


def _candidate_images(memb: np.ndarray, dim: int) -> np.ndarray:
    """Membership vectors, one a row, of the images of the set (memb is its
    membership vector) that list the coordinates in ascending invariant
    order (see _coordinate_weights), in the orientation whose sorted
    invariants are least (both when the set and its dual tie).  This
    candidate set is defined by the images alone, so every member of an
    orbit gets the same set of images and the least of them is a canonical
    form.  Complementing every coordinate sends point x to 2^dim - 1 - x,
    so the dual's membership vector is memb reversed."""
    inv = (memb @ _coordinate_weights(dim)).tolist()
    vecs = (inv[:dim], inv[dim:])
    least = min(map(sorted, vecs))
    images = []
    for vec, vector in zip(vecs, (memb, memb[::-1])):
        if sorted(vec) == least:
            order = sorted(range(dim), key=vec.__getitem__)
            blocks = [tuple(b) for _, b in itertools.groupby(order, key=vec.__getitem__)]
            perms = itertools.product(*map(itertools.permutations, blocks))
            images.append(vector[np.concatenate([_image_row(sum(p, ())) for p in perms])])
    return np.concatenate(images).reshape(-1, 1 << dim)


def _canonical_payload(masks: list[int], dim: int) -> bytes:
    memb = np.zeros(1 << dim, dtype=np.uint8)
    memb[masks] = 1
    images = np.packbits(_candidate_images(memb, dim), axis=1)
    return b"\x00" + bytes([dim]) + min(map(bytes, images))


def canonical_key(S: Subposet) -> bytes:
    """Canonical form of S under cube symmetry folded with global
    complementation (which folds each subposet with its dual): equal keys
    exactly when one set maps to the other.  The key is the least membership
    bitset over the images that list the coordinates in ascending order of
    their invariant (the weight histogram of the members on that
    coordinate), taken in the orientation, S or its dual, whose sorted
    invariants are least; it is not the least image over every permutation.
    Above CANONICAL_DIM_CAP the key is S's own membership bitset, an identity
    key that is equal only for equal sets."""
    if S.dim > CANONICAL_DIM_CAP:
        return b"\x01" + bytes([S.dim]) + S.bitset.to_bytes(1 << (S.dim - 3), "little")
    return _canonical_payload(list(S.masks), S.dim)


# ---------------------------------------------------------------------------
# the counting engine


class _EngineRun:
    """The state of one public call, which every step of it is charged to:
    the engine's memo (None where no engine runs), budgets, nodes spent."""

    __slots__ = ("cache", "max_nodes", "deadline", "nodes")

    def __init__(self, cache: MemoCache | None = None, max_nodes=None, budget_seconds=None):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
        # written so that NaN fails too
        if budget_seconds is not None and not budget_seconds >= 0:
            raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
        self.cache = cache
        self.max_nodes = max_nodes
        self.deadline = (
            time.monotonic() + budget_seconds if budget_seconds is not None else None
        )
        self.nodes = 0

    def tick(self, nodes: int = 1) -> None:
        self.nodes += nodes
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
            frontier = _reach(frontier, near) & bits & ~comp
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


def _literal_key(bits: int, dim: int) -> int:
    """The memo key of the point set bits of E^dim, exact at any dimension:
    the bit above the membership bitset marks the dimension."""
    return bits | 1 << (1 << dim)


def _count_small(bits: int, dim: int) -> int:
    """D of the point set bits of E^dim by a plain DFS, for small sets.  The
    least point of a set is minimal in it, so setting it to 0 forces only
    itself and setting it to 1 forces its up-set; a least point with nothing
    above it is isolated and doubles the count."""
    up_t = _updown_tables(dim)[0]
    total = 0
    stack = [(bits, 1)]
    while stack:
        rest, weight = stack.pop()
        while rest:
            low = rest & -rest
            above = up_t[low.bit_length() - 1] & rest
            if above != low:
                stack.append((rest & ~above, weight))
            else:
                weight <<= 1
            rest ^= low
        total += weight
    return total


def _count_bits(
    bits: int, dim: int, run: _EngineRun, connected: bool = False, fibre_sum: bool = False
) -> int:
    """D of the point set bits of E^dim, the one dispatcher of every count.
    It takes the first of these cases that applies:

    1. at most one point: no node;
    2. at most _DIRECT_MAX_POINTS points: the direct count (_count_small);
    3. several comparability components: the product of their counts, each
       found in its own call, which is told the component is connected and
       so skips the search for components;
    4. with fibre_sum, which only a count's input under "auto" gets: the
       fibre sum (_count_split) over the first split of _coupled_splits
       that counts the set;
    5. the memo, under one key of the projected set, then a pivot on a miss.

    Cases 2, 3 and 5 spend one node each; the fibre sum charges its own."""
    k = bits.bit_count()
    if k <= 1:
        return k + 1
    if k <= _DIRECT_MAX_POINTS:
        run.tick()
        return _count_small(bits, dim)

    if not connected:
        comps = _components(bits, dim)
        if len(comps) > 1:
            run.tick()
            result = 1
            for comp in comps:
                result *= _count_bits(comp, dim, run, True)
            return result

    if fibre_sum:
        for fibres in _coupled_splits(bits, dim):
            value = _count_split(fibres, dim, run)
            if value is not None:
                return value

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

    if k >= _CANONICAL_MIN_POINTS and dim <= CANONICAL_DIM_CAP:
        key = _canonical_payload(masks, dim)
    else:
        key = _literal_key(bits, dim)
    cached = run.cache.get(key)
    if cached is not None:
        return cached
    pivot = _select_pivot(masks, bits, dim)
    up_t, down_t = _updown_tables(dim)
    result = _count_bits(bits & ~up_t[pivot], dim, run) + _count_bits(
        bits & ~down_t[pivot], dim, run
    )
    run.cache.put(key, result)
    return result


def _pivot_maps(bits: int, dim: int, run: _EngineRun) -> Iterator[tuple[int, int]]:
    """Walk the monotone maps on the point set A = bits of E^dim depth first,
    deciding the least undecided point first, 0-branch first.  For each map
    f yield (table, covered): table is f's truth table over A's points in
    ascending order, as in MonotoneMap.bits, and covered is the point-space
    bitset of the region f forces.  The points below the one decided are
    smaller, so already decided: a 0 decides that point alone, and a 1 the
    undecided points of its up-set.  Every decision spends one engine node,
    so the run's budgets bound the walk; each splits the walk in two, so a
    walk spends one node less than it yields maps.  An empty A yields (0, 0)
    once."""
    up_t, down_t = _updown_tables(dim)
    steps = [(_extract_bits(up_t[m], bits), up_t[m], down_t[m]) for m in _mask_list(bits)]
    stack = [((1 << len(steps)) - 1, 0, 0)]
    while stack:
        undecided, ones, covered = stack.pop()
        while undecided:
            run.tick()
            i = (undecided & -undecided).bit_length() - 1
            rank_up, up, down = steps[i]
            stack.append((undecided & ~rank_up, ones | rank_up, covered | up))
            undecided ^= 1 << i
            covered |= down
        yield ones, covered


def _fibres(bits: int, dim: int, i: int, j: int) -> tuple[int, int, int, int]:
    """The fibres (F00, F01, F10, F11) of the point set bits of E^dim along
    coordinates i < j, as point-space bitsets: Fab holds the points whose
    coordinates i and j read a and b, moved onto the face where both are 0,
    whose order is that of E^(dim-2)."""
    full = (1 << dim) - 1
    down_t = _updown_tables(dim)[1]
    clear_i, clear_j = down_t[full ^ 1 << i], down_t[full ^ 1 << j]
    return (
        bits & clear_i & clear_j,
        (bits & clear_i & ~clear_j) >> (1 << j),
        (bits & ~clear_i & clear_j) >> (1 << i),
        (bits & ~clear_i & ~clear_j) >> ((1 << i) + (1 << j)),
    )


def _coupled(fibres: tuple[int, int, int, int], dim: int) -> bool:
    """Whether every pair x <= y with x in F00 and y in F11 has some z in
    F01 or F10 with x <= z <= y.  Then the F00-F11 constraints of a map on
    the split follow from the others, which the fibre sum needs.  A point of
    F00 that is also in F01 or F10 is its own z, so only the others are
    tested, and a product, whose fibres are equal, tests none."""
    f00, f01, f10, f11 = fibres
    full = (1 << dim) - 1
    up_t, down_t = _updown_tables(dim)
    clear = [down_t[full ^ 1 << c] for c in range(dim)]
    middle = f01 | f10
    rest = f00 & ~middle
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        over = up_t[x] & f11
        if over:
            # close the middle points above x upward, one coordinate at a time
            reach = up_t[x] & middle
            for c in range(dim):
                reach |= (reach & clear[c]) << (1 << c)
            if over & ~reach:
                return False
    return True


def _coupled_splits(bits: int, dim: int) -> Iterator[tuple[int, int, int, int]]:
    """The splits of the point set S = bits of E^dim that the fibre sum may
    count, best first, as their fibres (see _fibres).  A split qualifies
    when each fibre has at most INTERVAL_MAX_POINTS points and it is
    coupled (see _coupled).  Splits come by least largest fibre, then least
    middle fibres, then fewest distinct fibres, ties in the order of
    coordinate pairs.  A product T x E^2, whose four fibres are all T, has
    the least of these keys any split of S can have, (|S|/4, |S|/2, 1), so
    its first product split comes first.  Fibre sizes are popcounts, so a
    split is tested for coupling only when its turn comes."""
    ranked = []
    for i, j in itertools.combinations(range(dim), 2):
        fibres = _fibres(bits, dim, i, j)
        sizes = list(map(int.bit_count, fibres))
        if max(sizes) <= INTERVAL_MAX_POINTS:
            ranked.append(((max(sizes), sizes[1] + sizes[2], len(set(fibres))), fibres))
    ranked.sort(key=lambda r: r[0])
    for _, fibres in ranked:
        if _coupled(fibres, dim):
            yield fibres


def _order_counts(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the truth tables of every monotone map on a set, in any order,
    the maps under each map and the maps over it, from one subset matrix
    built in numpy blocks of rows of at most _INTERVAL_BLOCK_PAIRS pairs."""
    k = len(maps)
    rows = max(1, _INTERVAL_BLOCK_PAIRS // k)
    below = np.empty(k, np.int64)
    above = np.zeros(k, np.int64)
    for r0 in range(0, k, rows):
        under = (maps & ~maps[r0 : r0 + rows, None]) == 0  # [i, j]: map j <= map r0 + i
        below[r0 : r0 + rows] = under.sum(axis=1)
        above += under.sum(axis=0)
    return below, above


def _images(maps: np.ndarray, src: int, dst: int, dim: int, meet: bool) -> np.ndarray:
    """Carry maps on the point set src over to the point set dst of E^dim,
    truth tables in and out: with meet, the map whose value at x is the AND
    of the map over the points of src at or above x (1 where there are
    none); otherwise the OR over the points of src at or below x (0 where
    there are none).  Both are monotone on dst, and the identity when dst
    is src."""
    if dst == src:
        return maps
    table = _updown_tables(dim)[0 if meet else 1]
    out = np.zeros(len(maps), np.int64)
    for r, x in enumerate(_mask_list(dst)):
        near = _extract_bits(table[x] & src, src)
        hit = (maps & near) == near if meet else (maps & near) != 0
        out |= hit.astype(np.int64) << r
    return out


def _lookup(
    maps: np.ndarray, values: np.ndarray, points: int
) -> Callable[[np.ndarray], np.ndarray]:
    """A function that reads values[i] at the truth table maps[i], for any
    array of truth tables that all lie in maps, the tables of every monotone
    map on a fibre of the given number of points, in any order.  When the
    fibre's 2^points truth tables fit in one block of _INTERVAL_BLOCK_PAIRS
    (at most 18 points) it reads a direct-address table, whose entries at
    the other truth tables are never read; otherwise it sorts maps, values
    alongside, and finds each query by searchsorted."""
    if 1 << points <= _INTERVAL_BLOCK_PAIRS:
        table = np.zeros(1 << points, np.int64)
        table[maps] = values
        return table.take
    order = np.argsort(maps)
    maps, values = maps[order], values[order]

    def search(q):
        # rebinding q frees the queries before the gather, as an inline
        # values[np.searchsorted(maps, q)] in the pair loop would
        q = np.searchsorted(maps, q)
        return values[q]

    return search


def _count_split(fibres: tuple[int, int, int, int], dim: int, run: _EngineRun) -> int | None:
    """D(S) by the fibre sum over one coupled split of S, given by its
    fibres (see _fibres), or None, the walks' decisions charged all the
    same, when a fibre has more than INTERVAL_MAX_MAPS maps.

    A monotone map on S is four monotone maps on its fibres, each at most
    the next where points compare across fibres; coupling makes the F00-F11
    constraints follow from the others.  So D(S) is the sum over a in
    M(F01) and b in M(F10) of below[phi(a) & phi'(b)] * above[psi(a) |
    psi'(b)]: the maps on F00 under the meet of the AND images of a and b
    (see _images) times the maps on F11 over the join of their OR images.
    For S = T x E^2 every image is the map itself and this is the interval
    sum over pairs of maps on T (Wiedemann, Order 8, 1991).  Monotone maps
    are closed under & and |, so every meet is a map on F00 and every join
    one on F11, whose count _lookup reads.

    Everything is computed once per distinct fibre and kept in dicts keyed
    by fibre: the walk and the truth tables of its maps, in walk order, the
    order counts of F00 and F11, and the images of F01 and F10.  So a product,
    whose four fibres are equal, walks and counts one fibre and needs no
    image.  Every walk decision spends one engine node as it is made, and
    each row a of the pair sum one node, charged a block at a time before
    the block is summed; so the deadline goes unchecked only through the
    order counts (0.16 s over the 7,581 maps of E^5 on a 2-vCPU host) and
    the images.  At 10^4 maps and below every partial sum stays far inside
    int64."""
    maps = {}
    for f in dict.fromkeys(fibres):
        # one map past the cap is enough to drop the split
        walk = itertools.islice(_pivot_maps(f, dim, run), INTERVAL_MAX_MAPS + 1)
        maps[f] = np.array([table for table, _ in walk], np.int64)
        if len(maps[f]) > INTERVAL_MAX_MAPS:
            return None

    f00, f01, f10, f11 = fibres
    counts = {f: _order_counts(maps[f]) for f in {f00, f11}}
    images = {
        f: (_images(maps[f], f, f00, dim, True), _images(maps[f], f, f11, dim, False))
        for f in {f01, f10}
    }
    below = _lookup(maps[f00], counts[f00][0], f00.bit_count())
    above = _lookup(maps[f11], counts[f11][1], f11.bit_count())
    (phi_a, psi_a), (phi_b, psi_b) = images[f01], images[f10]
    rows = max(1, _INTERVAL_BLOCK_PAIRS // len(phi_b))
    symmetric = f01 == f10
    total = 0
    for r0 in range(0, len(phi_a), rows):
        a = slice(r0, r0 + rows)
        b = slice(r0 if symmetric else 0, None)
        run.tick(len(phi_a[a]))
        w = below(phi_a[a, None] & phi_b[None, b]) * above(psi_a[a, None] | psi_b[None, b])
        if symmetric:
            # the sum is over ordered pairs: a pair with b past the block's
            # rows stands for itself and its mirror, and the square of pairs
            # inside the block already holds both orders
            size = w.shape[0]
            total += 2 * int(w[:, size:].sum()) + int(w[:, :size].sum())
        else:
            total += int(w.sum())
    return total


def _reach(undecided: int, near: tuple[int, ...]) -> int:
    """Points comparable to some member of the point-space bitset undecided."""
    reach = 0
    while undecided:
        low = undecided & -undecided
        reach |= near[low.bit_length() - 1]
        undecided ^= low
    return reach


def _residual_sizes(bits: int, dim: int, run: _EngineRun) -> dict[int, int]:
    """The residual-size polynomial of a pivot subset A = bits of E^dim, as
    {k: c}: c monotone maps f on A leave exactly k points of the cube outside
    the region f forces.

    The pivots are decided lowest first, as in _pivot_maps.  A state is one
    point-space bitset, key = U | live, of the undecided pivots U and the
    free points live within reach of U (comparable to one of its members):
    U lies in A and live outside it, so they are disjoint and key & A is U.
    A branch on U's least pivot covers its up- or down-set and has two masks
    that depend on U alone: keep, the reach of the pivots left undecided
    (them included) minus the cover, and drop, the points in neither.  The
    child is key & keep; the key & drop points never become coverable again
    and only shift the polynomial, one int of |A| + 1 bits a coefficient (a
    coefficient counts at most 2^|A| maps).  The stack holds a state as key
    and its visit after its children as ~key, so the walk's depth (up to |A|
    decisions) is not bounded by the recursion limit; each miss spends a node."""
    up_t, down_t = _updown_tables(dim)
    near = _comparable_table(dim)
    width = bits.bit_count() + 1
    free = ((1 << (1 << dim)) - 1) & ~bits
    reach = _reach(bits, near)
    root = bits | free & reach
    # U -> (keep, drop) masks of the 1-branch, then of the 0-branch
    branches: dict[int, tuple[int, int, int, int]] = {}
    memo = {0: 1}
    stack = [root]
    while stack:
        key = stack.pop()
        if key < 0:
            key = ~key
            keep1, drop1, keep0, drop0 = branches[key & bits]
            memo[key] = ((memo[key & keep1] << (key & drop1).bit_count() * width)
                         + (memo[key & keep0] << (key & drop0).bit_count() * width))
            continue
        if key in memo:
            continue
        run.tick()
        undecided = key & bits
        steps = branches.get(undecided)
        if steps is None:
            a = (undecided & -undecided).bit_length() - 1
            steps = ()
            for cover in (up_t[a], down_t[a]):
                rest_reach = _reach(undecided & ~cover, near)
                steps += (rest_reach & ~cover, ~(rest_reach | cover))
            branches[undecided] = steps
        # the 0-branch goes on top, so it is walked first
        stack += (~key, key & steps[0], key & steps[2])
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


def _free_edge(bits: int, dim: int) -> tuple[int, int] | None:
    """The least cube edge (m, m | e_i) of E^dim, by m and then i, with both
    ends outside the pivot A = bits, or None.  Some residual of A holds a
    comparable pair exactly when such an edge exists: the map f(a) = [a >= m]
    leaves both its ends free, and a free comparable pair p < q leaves every
    point between them free, the edges out of p toward q among them."""
    full = (1 << dim) - 1
    down_t = _updown_tables(dim)[1]
    free = ((1 << (1 << dim)) - 1) & ~bits
    edges = []
    for i in range(dim):
        # free points with coordinate i clear whose neighbour m | e_i is free
        lows = free & down_t[full ^ 1 << i] & (free >> (1 << i))
        if lows:
            m = (lows & -lows).bit_length() - 1
            edges.append((m, m | 1 << i))
    return min(edges, default=None)


def _validate_subset(A: Subposet, S: Subposet) -> None:
    if A.dim != S.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {S.dim}")
    if A.bitset & ~S.bitset:
        raise ValueError("pivot subset must be contained in S")


def count_via_partition(
    S: Subposet,
    strategy: PivotStrategy = "auto",
    *,
    cache: MemoCache | None = None,
    max_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> int:
    """Count monotone maps on S by the recursive partition identity.

    strategy selects the top-level pivot.  "single" is the engine: it
    counts a residual of at most a few points directly, multiplies over the
    comparability components of a disconnected one, and recurses on one
    median-weight point of maximal comparability degree of a connected one,
    memoized in cache under one key per connected residual.  "auto"
    (default) adds the fibre sum for S itself, in the order of cases that
    _count_bits sets out: it splits S along two coordinates into four
    fibres and sums over pairs of monotone maps on the two middle fibres,
    on a coupled split (see _coupled) whose fibres have at most
    INTERVAL_MAX_POINTS points and INTERVAL_MAX_MAPS maps each.  One ranking
    orders the splits (see _coupled_splits), and for a product T x E^2 it
    puts first a split on two free coordinates, where the sum is the
    interval sum over pairs of maps on T.  A Subposet pivots on that
    explicit subset once, then counts each residual with the engine.  The
    fibre sum leaves cache unused.  All strategies are exact and agree;
    they differ only in work.  Counting runs on the calling thread.  The
    power-of-two layer walk is decompose_power_of_two.

    Budgets, when given, bound engine nodes and wall time and raise
    BudgetExceededError.  Engine nodes are the recursion steps of the
    engine (a direct count of a small residual is one step), the decisions
    of a pivot walk (an explicit pivot's, or the walks listing the maps on
    a split's distinct fibres, one decision less than each walk's maps) and
    one per row a of the fibre sum's pair loop.  A split with a fibre of
    more than INTERVAL_MAX_MAPS maps is dropped for the next coupled split,
    and then for the engine; the decisions its walks made stay charged.  A
    negative max_nodes, or a budget_seconds that is negative or NaN, raises
    ValueError.
    """
    run = _EngineRun(cache if cache is not None else MemoCache(), max_nodes, budget_seconds)
    return _count(S, strategy, run)


def _count(S: Subposet, strategy: PivotStrategy, run: _EngineRun) -> int:
    """count_via_partition's dispatch, on the run its caller built."""
    if isinstance(strategy, Subposet):
        _validate_subset(strategy, S)
        s_bits = S.bitset
        return sum(
            _count_bits(s_bits & ~covered, S.dim, run)
            for _, covered in _pivot_maps(strategy.bitset, S.dim, run)
        )
    if strategy not in ("auto", "single"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return _count_bits(S.bitset, S.dim, run, fibre_sum=strategy == "auto")


def partition_terms(S: Subposet, A: Subposet) -> list[PartitionTerm]:
    """Materialize the partition sum for pivot subset A: one term per
    monotone map f on A, with residual S minus the region f forces (upper
    sets where f is 1, lower sets where f is 0).  Terms are ordered by the
    value tuple of their pivot maps, the order the pivot walk yields them
    in: it decides the least undecided point first, 0 before 1, and a 0
    forces only numerically smaller points and a 1 only larger ones, so a
    decision never changes the value of a point below the one decided.
    Desk-scale: every monotone map on A is listed, and an A of more than
    DEFAULT_ENUMERATION_CAP points raises BudgetExceededError.  Terms whose
    maps force the same region share one residual object."""
    _validate_subset(A, S)
    if len(A) > DEFAULT_ENUMERATION_CAP:
        raise BudgetExceededError(
            f"enumeration cap exceeded: {len(A)} points > {DEFAULT_ENUMERATION_CAP}"
        )
    s_bits = S.bitset
    residuals: dict[int, Subposet] = {}
    terms = []
    for table, covered in _pivot_maps(A.bitset, S.dim, _EngineRun()):
        bits = s_bits & ~covered
        residual = residuals.get(bits)
        if residual is None:
            residual = residuals[bits] = Subposet._from_bits(S.dim, bits)
        terms.append(PartitionTerm(MonotoneMap(A, table), residual))
    return terms


def corollary_split(
    n: int,
    a: Point,
    *,
    cache: MemoCache | None = None,
    max_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> tuple[int, int]:
    """The two-branch split of D(E^n) at a single pivot point a: counts of
    the cube minus the upper set of a and minus the lower set of a.  Each
    branch is looked up in cache under its canonical_key; only on a miss is
    it counted as count_via_partition counts it, and the count stored
    under that key.  Equal keys are isomorphic sets up to duality, so up to
    dimension CANONICAL_DIM_CAP a cache shared over the pivots of E^n
    counts at most n + 1 branches: the upper branch is fixed up to
    isomorphism by the weight of a, and the lower branch is dual to an
    upper one.  At those dimensions a branch of at least
    _CANONICAL_MIN_POINTS points whose coordinates all vary has the key the
    engine stores for it, so either entry answers the other; the engine
    keys a smaller set literally and projects constant coordinates away, as
    on the weight-1 upper branch and the weight-(n - 1) lower one.  A hit
    spends no engine node.  The budgets bound the whole call, and a bad one
    raises ValueError before any lookup."""
    if a.dim != n:
        raise ValueError(f"pivot dimension {a.dim} != {n}")
    run = _EngineRun(cache if cache is not None else MemoCache(), max_nodes, budget_seconds)
    up_t, down_t = _updown_tables(n)
    full = (1 << (1 << n)) - 1
    counts = []
    for removed in (up_t[a.mask], down_t[a.mask]):
        branch = Subposet._from_bits(n, full & ~removed)
        key = canonical_key(branch)
        value = run.cache.get(key)
        if value is None:
            value = _count(branch, "auto", run)
            run.cache.put(key, value)
        counts.append(value)
    return counts[0], counts[1]


# ---------------------------------------------------------------------------
# complete partitions


def is_complete_partition(A: Subposet, S: Subposet, mode: str = DEFAULT_COVER_MODE) -> bool:
    """Predicate form of completeness: no V-shape in S - A under the selected
    cover reading."""
    _validate_subset(A, S)
    return find_v3(S.minus(A), mode) is None


def e2_condition_check(A: Subposet, n: int, mode: str = DEFAULT_COVER_MODE) -> bool:
    """The 2-face condition on the full cube: every four-point diamond B of
    E^n must put one of its two middle points in A, or both its endpoints.

    Under the ambient reading the diamonds are the standard 2-faces, tested
    one coordinate pair at a time over point space.  Under the induced
    reading every interval [x, y] contributes a diamond for each
    incomparable pair of interior points, so the non-A interior of every
    interval with an end outside A must form a chain.  Incomparable z and w
    lie strictly inside [x, y] exactly when x <= z & w and y >= z | w, so
    this holds iff no incomparable pair outside A has a point outside A
    below z & w or above z | w."""
    _check_mode(mode)
    if A.dim != n:
        raise ValueError(f"pivot dimension {A.dim} != {n}")
    up_t, down_t = _updown_tables(n)
    full = (1 << n) - 1
    a = A.bitset
    out = (1 << (1 << n)) - 1 & ~a

    if mode == "ambient":
        # bit x of a >> s reads x + s in A: the middles sit si and sj above a
        # bottom x with both coordinates clear, the top si + sj above it
        for si, sj in itertools.combinations([1 << i for i in range(n)], 2):
            bottoms = down_t[full ^ si] & down_t[full ^ sj]
            if bottoms & (out >> si) & (out >> sj) & ~(a & a >> si + sj):
                return False
        return True

    for z in _mask_list(out):
        # the points of out above z numerically and incomparable to it
        for w in _mask_list((out >> z + 1) << z + 1 & ~(up_t[z] | down_t[z])):
            if (down_t[z & w] | up_t[z | w]) & out:
                return False
    return True


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

    A component shared by several residuals is checked once per call.
    """
    _validate_subset(A, S)
    limit = _varying_coordinates(S.masks).bit_count()
    checked: set[int] = set()
    for term in partition_terms(S, A):
        for c in _components(term.residual.bitset, A.dim):
            if c in checked:
                continue
            checked.add(c)
            comp = Subposet._from_bits(A.dim, c)
            k = len(comp).bit_length() - 1
            if len(comp) != 1 << k or k >= limit:
                return False
            # comp has 2^k points with k < limit: size the guard to it
            if not cover_preserving_isomorphic(comp, Subposet.cube(k), max_size=len(comp)):
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
    upper = _updown_tables(n)[0][bit]
    if seed.bitset & ~upper:
        raise ValueError("seed must lie in the upper subcube (coordinate i equal to 1)")
    w = find_v3(seed, DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(f"seed contains a V-shape: {w}")
    rest = upper & ~seed.bitset
    w = find_v3(Subposet._from_bits(n, rest), DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(
            "seed does not completely partition the upper subcube; "
            f"V-shape in the remainder: {w}"
        )
    # the mirror m of a point m | bit sits bit places below it in point space
    return Subposet._from_bits(n, seed.bitset | rest >> bit)


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
    if not A.bitset or not is_complete_partition(A, Subposet.cube(n)):
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
    raises FalsificationError naming the edge and the map that leaves it
    free.  The pivot maps are not walked one by one: a memoized walk builds
    the polynomial over states that are one bitset each, the undecided
    pivots (in the layer) united with the still coverable free points
    (outside it), and each state spends one engine node.
    """
    A = construct_layer_subset(n, parity)
    run = _EngineRun(None, max_nodes, budget_seconds)
    edge = _free_edge(A.bitset, A.dim)
    if edge is not None:
        m, y = edge
        pivot_text = ", ".join(f"{Point(a, n)}={int(a & m == m)}" for a in A.masks)
        raise FalsificationError(
            f"residual of the layer pivot is not an antichain: "
            f"{Point(m, n)} below {Point(y, n)} "
            f"(n={n}, parity={parity}, pivot values {pivot_text})"
        )
    return TwoAdicPolynomial.from_counts(_residual_sizes(A.bitset, A.dim, run))
