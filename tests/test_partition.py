"""The recursive partition engine: counting, term expansion, completeness
predicates and oracles, the two pivot-set constructions, and the power-of-two
decomposition."""

import ast
import functools
import gc
import hashlib
import inspect
import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedekind
import dedekind.partition as partition_module
import dedekind.poset as poset_module
from conftest import brute_count_monotone, random_subposet
from dedekind.errors import BudgetExceededError, FalsificationError
from dedekind.monotone import (
    DEFAULT_ENUMERATION_CAP,
    count_monotone_oracle,
    enumerate_monotone,
)
from dedekind.partition import (
    CANONICAL_DIM_CAP,
    COMPLETE_BUT_NOT_MINIMAL,
    DEFAULT_COVER_MODE,
    MINIMAL,
    NOT_COMPLETE,
    PINNED_DEDEKIND,
    MemoCache,
    TwoAdicPolynomial,
    canonical_key,
    construct_layer_subset,
    construct_recursive_partition,
    corollary_split,
    count_via_partition,
    decompose_power_of_two,
    definitional_completeness_oracle,
    e2_condition_check,
    is_complete_partition,
    minimality_check,
    numeric_completeness_oracle,
    partition_terms,
)
from dedekind.poset import (
    CoverPair,
    Point,
    Subposet,
    _comparable_table,
    _generated_bits,
    _updown_tables,
    cover_preserving_isomorphic,
    find_v3,
    generated_subset,
    lower_set,
    upper_set,
)


def permute_coordinates(S: Subposet, perm: list[int]) -> Subposet:
    remapped = tuple(
        sum(((m >> i) & 1) << perm[i] for i in range(S.dim)) for m in S.masks
    )
    return Subposet(S.dim, remapped)


def cube_residual(rng, dim: int) -> Subposet:
    """E^dim minus the up-sets of 1-3 points of weight 2-3 and the down-sets
    of 1-3 points of weight dim-3 to dim-2: the shape of the engine's E^7
    benchmark residuals."""
    low = [m for m in range(1 << dim) if m.bit_count() in (2, 3)]
    high = [m for m in range(1 << dim) if m.bit_count() in (dim - 3, dim - 2)]
    S = Subposet.cube(dim)
    for _ in range(rng.randint(1, 3)):
        S = S.minus(upper_set(Point(rng.choice(low), dim)))
    for _ in range(rng.randint(1, 3)):
        S = S.minus(lower_set(Point(rng.choice(high), dim)))
    return S


@functools.lru_cache(maxsize=None)
def _symmetry_tables(dim: int) -> np.ndarray:
    """Point-index transforms of E^dim, shape (2*dim!, 2^dim): slot j of
    image r holds the set's membership of point [r, j].  The first dim! rows
    are the coordinate permutations in itertools.permutations order, the
    rest the same composed with global complementation.  The table the
    package's keys were once read from, kept as the reference that shares
    no code with the candidate images."""
    size = 1 << dim
    bits = ((np.arange(size)[:, None] >> np.arange(dim)[None, :]) & 1).astype(np.int64)
    perms = list(itertools.permutations(range(dim)))
    place = np.array([[1 << p[i] for i in range(dim)] for p in perms], dtype=np.int64)
    transformed = (bits @ place.T).T  # (dim!, size)
    full = np.concatenate([transformed, (size - 1) - transformed])
    return np.ascontiguousarray(full, dtype=np.int32)


def exhaustive_key(S: Subposet, fold: bool) -> bytes:
    """The key the refined canonical form replaced: the least membership
    image of S over every row of the symmetry table."""
    tables = _symmetry_tables(S.dim)
    rows = tables if fold else tables[: tables.shape[0] // 2]
    memb = np.zeros((1 << S.dim) + 1, dtype=np.uint8)
    memb[list(S.masks)] = 1
    return min(bytes(image) for image in np.packbits(memb[rows], axis=1))


def radix_key(S: Subposet) -> bytes:
    """The key as the radix loop took it before it became one min over the
    packed images: the least candidate image, 32 point slots (one
    big-endian word) at a time, keeping only the images that tie on each
    word.  Images are whole words from dimension 5 up, where the two keys
    must agree byte for byte."""
    memb = np.zeros(1 << S.dim, dtype=np.uint8)
    memb[list(S.masks)] = 1
    surviving = partition_module._candidate_images(memb, S.dim)
    parts = [b"\x00", bytes([S.dim])]
    offset = 0
    while surviving.shape[0] > 1 and offset < surviving.shape[1]:
        vals = np.packbits(surviving[:, offset : offset + 32], axis=1).view(">u4").ravel()
        m = vals.min()
        parts.append(int(m).to_bytes(4, "big"))
        surviving = surviving[vals == m]
        offset += 32
    if offset < surviving.shape[1]:
        parts.append(np.packbits(surviving[0, offset:]).tobytes())
    return b"".join(parts)


def pinned_key_sets():
    """Every subset of E^0..E^3, then 2,000 seeded sets at dims 4-7: E^d
    minus each weight layer (its coordinates share one invariant, and so do
    its dual's), and random sets, each followed by its dual."""
    for dim in range(4):
        for bits in range(1 << (1 << dim)):
            yield Subposet(dim, tuple(m for m in range(1 << dim) if bits >> m & 1))
    seeded = [
        Subposet(dim, tuple(m for m in range(1 << dim) if m.bit_count() != w))
        for dim in range(4, 8)
        for w in range(dim + 1)
    ]
    rng = random.Random(4096)
    while len(seeded) < 2000:
        S = random_subposet(rng, rng.randint(4, 7))
        seeded += [S, S.dual()]
    yield from seeded


def assert_orbits_match_exhaustive(rng, sets) -> None:
    """Each set, two coordinate relabelings of it and its dual must split
    into the same classes under canonical_key as under exhaustive_key."""
    pairs = set()
    for S in sets:
        family = [S, S.dual()]
        for _ in range(2):
            perm = list(range(S.dim))
            rng.shuffle(perm)
            family.append(permute_coordinates(S, perm))
        for T in family:
            pairs.add((canonical_key(T), exhaustive_key(T, True)))
    # equal keys exactly when equal reference keys: the pairing is a bijection
    assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})


# The index-space comparability path the point-space engine replaced, kept
# as the reference for its components and pivots: adjacency over indices
# into the ascending mask list, numpy from 48 points up.
REFERENCE_NUMPY_THRESHOLD = 48


def reference_comparability(masks: list[int]) -> list[int]:
    k = len(masks)
    adj = [0] * k
    if k >= REFERENCE_NUMPY_THRESHOLD:
        arr = np.array(masks, dtype=np.int64)
        sub = (arr[:, None] & ~arr[None, :]) == 0
        comp = sub | sub.T
        np.fill_diagonal(comp, False)
        packed = np.packbits(comp, axis=1, bitorder="little")
        for i in range(k):
            adj[i] = int.from_bytes(packed[i].tobytes(), "little")
        return adj
    for i in range(k):
        mi = masks[i]
        bit_i = 1 << i
        for j in range(i + 1, k):
            if mi & ~masks[j] == 0:
                adj[i] |= 1 << j
                adj[j] |= bit_i
    return adj


def reference_components(adj: list[int]) -> list[int]:
    """Index bitsets of connected components, ordered by smallest index."""
    seen = 0
    comps = []
    for i in range(len(adj)):
        if seen >> i & 1:
            continue
        frontier = 1 << i
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~comp
        seen |= comp
        comps.append(comp)
    return comps


def reference_pivot(masks: list[int], adj: list[int]) -> int:
    k = len(masks)
    by_weight = sorted(range(k), key=lambda i: (masks[i].bit_count(), masks[i]))
    median_weight = masks[by_weight[(k - 1) // 2]].bit_count()
    best = None
    for i in range(k):
        if masks[i].bit_count() != median_weight:
            continue
        key = (-adj[i].bit_count(), masks[i])
        if best is None or key < best[0]:
            best = (key, masks[i])
    return best[1]


# The leaf-by-leaf layer walk the memoized residual-size walk replaced, kept
# as its reference: every monotone map on the pivot subset A, depth first,
# 0-branch first, with the per-leaf antichain check decompose_power_of_two
# made on each residual.


def reference_leaf_residuals(A: Subposet):
    """Yield the residual (the cube minus the forced region) of every
    monotone map on A as a point-space bitset."""
    up_t, down_t = _updown_tables(A.dim)
    full = (1 << (1 << A.dim)) - 1
    stack = [(A.bitset, 0)]
    while stack:
        undecided, covered = stack.pop()
        while undecided:
            a = (undecided & -undecided).bit_length() - 1
            stack.append((undecided & ~up_t[a], covered | up_t[a]))
            undecided &= ~down_t[a]
            covered |= down_t[a]
        yield full & ~covered


def reference_comparable_pair(residual: int, dim: int):
    """The first comparable pair (m, y) of a residual in (m, y) order, or
    None when the residual is an antichain."""
    up_t = _updown_tables(dim)[0]
    rest = residual
    while rest:
        low = rest & -rest
        m = low.bit_length() - 1
        above = residual & up_t[m] & ~low
        if above:
            return m, (above & -above).bit_length() - 1
        rest ^= low
    return None


def reference_tuple_walk(bits: int, dim: int, run) -> dict[int, int]:
    """_residual_sizes as it was when a walk state was the tuple (U, live)
    of undecided pivots and live free points, each state's children built
    as a tuple: the path the one-bitset state replaced."""
    up_t, down_t = _updown_tables(dim)
    near = _comparable_table(dim)
    reach_of = partition_module._reach
    width = bits.bit_count() + 1
    free = ((1 << (1 << dim)) - 1) & ~bits
    reach = reach_of(bits, near)
    root = (bits, free & reach)
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
                rest_reach = reach_of(rest, near)
                steps.append((rest, rest_reach & ~cover, ~(rest_reach | cover)))
            branches[undecided] = steps
        kids = tuple(
            ((rest, live & keep), (live & drop).bit_count() * width)
            for rest, keep, drop in steps
        )
        stack.append((key, kids))
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


def pivot_pool(rng) -> list[Subposet]:
    """Every subset of E^2 and E^3, and seeded random subsets of E^4 and
    E^5."""
    pool = [
        Subposet(n, tuple(m for m in range(1 << n) if bits >> m & 1))
        for n in (2, 3)
        for bits in range(1 << (1 << n))
    ]
    pool += [random_subposet(rng, 4) for _ in range(60)]
    pool += [random_subposet(rng, 5, density=rng.uniform(0.3, 0.7)) for _ in range(20)]
    return pool


def fresh_run():
    return partition_module._EngineRun(None, None, None)


def reference_terms(S: Subposet, A: Subposet) -> list[tuple[int, Subposet]]:
    """The term list partition_terms built before the pivot walk listed it,
    as (pivot bits, residual) pairs: every map the enumeration oracle lists,
    S minus its generated_subset region, sorted by value tuple."""
    keyed = sorted(
        (f.values(), f.bits, S.minus(generated_subset(A, f.values())))
        for f in enumerate_monotone(A)
    )
    return [(bits, residual) for _, bits, residual in keyed]


def term_pairs(terms) -> list[tuple[int, Subposet]]:
    return [(t.pivot_values.bits, t.residual) for t in terms]


class TestEngine:
    def test_base_cases(self):
        assert count_via_partition(Subposet.empty(3)) == 1
        assert count_via_partition(Subposet(4, (7,))) == 2

    def test_full_cubes_pinned(self):
        for n, expected in enumerate(PINNED_DEDEKIND):
            assert count_via_partition(Subposet.cube(n)) == expected

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(40):
            S = random_subposet(rng, 4)
            assert count_via_partition(S) == count_monotone_oracle(S)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_matches_brute_force_on_e4(self, member_bits):
        S = Subposet(4, tuple(m for m in range(16) if member_bits >> m & 1))
        assert count_via_partition(S) == brute_count_monotone(S)

    def test_strategies_agree(self):
        for n in (2, 3, 4):
            cube = Subposet.cube(n)
            single = count_via_partition(cube, "single")
            explicit = count_via_partition(cube, Subposet(n, (0, (1 << n) - 1)))
            assert single == explicit == PINNED_DEDEKIND[n]

    def test_strategy_validation(self):
        # the layer walk is decompose_power_of_two, not a strategy
        with pytest.raises(ValueError, match="unknown strategy 'layer'"):
            count_via_partition(Subposet.cube(3), "layer")
        with pytest.raises(ValueError):
            count_via_partition(Subposet.cube(2), "zigzag")
        with pytest.raises(ValueError):
            count_via_partition(Subposet(2, (0,)), Subposet(2, (3,)))  # pivot not inside

    def test_cache_on_off_identical(self, rng):
        # the memo against the oracle, which keeps none: one cache is shared
        # by random sets and the 64 one-point splits of E^5, so isomorphic
        # splits and their residuals are answered from canonical entries
        cube = Subposet.cube(5)
        sets = [random_subposet(rng, 4) for _ in range(10)]
        sets += [cube.minus(cut(Point(a, 5))) for a in range(32) for cut in (upper_set, lower_set)]
        cache = CanonicalTierCache()
        for S in sets:
            assert count_via_partition(S, "single", cache=cache) == count_monotone_oracle(S)
        assert cache.canonical_hits > 0

    def test_shared_cache_reuse(self):
        cache = MemoCache()
        first = count_via_partition(Subposet.cube(4), "single", cache=cache)
        misses_after_first = cache.misses
        second = count_via_partition(Subposet.cube(4), "single", cache=cache)
        assert first == second == 168
        # the warm run answers from the table without a single new entry
        assert cache.misses == misses_after_first
        assert cache.hits >= 1

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(4), max_nodes=3)

    def test_time_budget(self):
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(4), budget_seconds=0.0)

    @pytest.mark.parametrize("budget", [
        {"max_nodes": -1},
        {"budget_seconds": -1.0},
        {"budget_seconds": float("nan")},
    ])
    def test_bad_budget_rejected(self, budget):
        # rejected before any work, even where the count needs no engine node
        for strategy in ("single", "auto", Subposet.cube(3)):
            with pytest.raises(ValueError, match="must be >= 0"):
                count_via_partition(Subposet.cube(3), strategy, **budget)
        with pytest.raises(ValueError, match="must be >= 0"):
            count_via_partition(Subposet.empty(2), **budget)
        with pytest.raises(ValueError, match="must be >= 0"):
            corollary_split(3, Point(1, 3), **budget)
        with pytest.raises(ValueError, match="must be >= 0"):
            decompose_power_of_two(3, "even", **budget)

    def test_zero_budget_still_runs_out(self):
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(3), max_nodes=0)
        assert count_via_partition(Subposet(3, (5,)), max_nodes=0) == 2

    def test_empty_set_needs_no_node(self):
        # every coordinate of the empty set is free, but its product split
        # of four empty fibres would charge a pair-sum row: the default
        # leaves it to the engine, which counts it with no node
        for n in range(8):
            for strategy in ("single", "auto"):
                assert count_via_partition(Subposet.empty(n), strategy, max_nodes=0) == 1

    def test_explicit_pivot_walk_spends_node_budget(self):
        # pivoting on the whole cube leaves residuals of at most one point,
        # which never reach the engine's recursion: the walk itself must tick
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(4), Subposet.cube(4), max_nodes=1)

    def test_explicit_pivot_walk_spends_time_budget(self):
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(5), Subposet.cube(5), budget_seconds=0.0)

    def test_components_and_pivot_match_index_space_reference(self, rng):
        sizes = set()
        for n in range(2, 8):
            sets = [random_subposet(rng, n) for _ in range(40)]
            sets += [random_subposet(rng, n, density=0.15) for _ in range(20)]
            if n >= 6:
                sets += [cube_residual(rng, n) for _ in range(20)]
            for S in sets:
                masks = list(S.masks)
                sizes.add(len(masks) >= REFERENCE_NUMPY_THRESHOLD)
                adj = reference_comparability(masks)
                expected = [frozenset(masks[i] for i in range(len(masks)) if c >> i & 1)
                            for c in reference_components(adj)]
                got = partition_module._components(S.bitset, n)
                assert [frozenset(m for m in masks if c >> m & 1) for c in got] == expected
                assert sum(got) == S.bitset
                if masks:
                    assert partition_module._select_pivot(masks, S.bitset, n) == reference_pivot(
                        masks, adj
                    )
        # both branches of the reference ran
        assert sizes == {False, True}

    @pytest.mark.parametrize("dim", [5, 6])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_hypothesis(self, dim, data):
        # any subset of E^5; on E^6 at most 32 points, so the oracle's DFS
        # stays fast.  The size is drawn first so that large sets are as
        # likely as small ones.
        size = data.draw(st.integers(0, 32))
        order = data.draw(st.permutations(range(1 << dim)))
        S = Subposet(dim, tuple(sorted(order[:size])))
        assert count_via_partition(S, "single") == count_monotone_oracle(S)

    def test_pivot_walk_matches_partition_terms(self, rng):
        # the engine's pivot walk against a term list built from the
        # enumeration oracle, which shares no code with it
        for n, trials in ((4, 20), (5, 8)):
            for _ in range(trials):
                S = random_subposet(rng, n, density=0.6)
                A = Subposet(n, tuple(m for m in S.masks if rng.random() < 0.35))
                expected = sum(
                    count_monotone_oracle(residual) for _, residual in reference_terms(S, A)
                )
                assert count_via_partition(S, A) == expected


def small_sets(rng) -> list[Subposet]:
    """Seeded sets of at most _DIRECT_MAX_POINTS points in E^4..E^7: random
    picks, chains, antichains of one weight, and fences zigzagging between
    weights one and two."""
    cap = partition_module._DIRECT_MAX_POINTS
    sets = []
    for n in range(4, 8):
        for _ in range(12):
            k = rng.randint(2, cap)
            sets.append(Subposet(n, tuple(rng.sample(range(1 << n), k))))
        order = rng.sample(range(n), n)
        chain = [sum(1 << c for c in order[:w]) for w in range(n + 1)]
        sets.append(Subposet(n, tuple(chain[:cap])))
        for w in range(1, n):
            layer = [m for m in range(1 << n) if m.bit_count() == w]
            sets.append(Subposet(n, tuple(rng.sample(layer, min(cap, len(layer))))))
        zigzag = []
        for c in range(n - 1):
            zigzag += [1 << order[c], 1 << order[c] | 1 << order[c + 1]]
        sets.append(Subposet(n, tuple(zigzag[:cap])))
    return sets


class CanonicalTierCache(MemoCache):
    """A MemoCache that also counts its hits on canonical (bytes) keys."""

    def __init__(self):
        super().__init__()
        self.canonical_hits = 0

    def get(self, key):
        value = super().get(key)
        if value is not None and isinstance(key, bytes):
            self.canonical_hits += 1
        return value


class TestMemoPolicy:
    def test_direct_count_matches_oracle_on_every_e3_subset(self):
        for bits in range(1 << 8):
            S = Subposet(3, tuple(m for m in range(8) if bits >> m & 1))
            assert partition_module._count_small(bits, 3) == count_monotone_oracle(S)

    def test_direct_count_matches_oracle_on_small_sets(self, rng):
        for S in small_sets(rng):
            assert len(S) <= partition_module._DIRECT_MAX_POINTS
            assert partition_module._count_small(S.bitset, S.dim) == count_monotone_oracle(S)

    def test_small_residual_spends_one_node_and_no_entry(self, rng):
        for S in small_sets(rng):
            cache = MemoCache()
            assert count_via_partition(S, "single", cache=cache, max_nodes=1) == (
                count_monotone_oracle(S)
            )
            assert len(cache) == 0 and cache.stats() == {"hits": 0, "misses": 0}
            with pytest.raises(BudgetExceededError):
                count_via_partition(S, "single", max_nodes=0)

    def test_canonical_keys_only_from_the_floor(self, rng, monkeypatch):
        sizes = []
        payload = partition_module._canonical_payload

        def spy(masks, dim):
            sizes.append(len(masks))
            return payload(masks, dim)

        monkeypatch.setattr(partition_module, "_canonical_payload", spy)
        cache = CanonicalTierCache()
        assert count_via_partition(Subposet.cube(6), "single", cache=cache) == PINNED_DEDEKIND[6]
        # the canonical tier still finds hits on E^6, so it is not
        # switched off by the floor
        assert cache.canonical_hits > 0
        # sparse sets of E^6 and E^7, keyed canonically at dims 6 and 7 and
        # small enough for the oracle
        for S in [random_subposet(rng, n, 0.45 if n == 6 else 0.2) for n in (6, 7) * 3]:
            assert count_via_partition(S, "single") == count_monotone_oracle(S)
        assert sizes and min(sizes) >= partition_module._CANONICAL_MIN_POINTS

    def test_disconnected_residual_not_stored(self):
        # 14 disjoint squares: each is a direct count, and their product is
        # neither looked up nor stored
        antichain = [m for m in range(64) if m.bit_count() == 3][:14]
        S = product_with_square(8, 0, 7, antichain)
        cache = MemoCache()
        assert count_via_partition(S, "single", cache=cache) == 6 ** 14
        assert len(cache) == 0 and cache.stats() == {"hits": 0, "misses": 0}

    def test_one_key_per_connected_residual(self, monkeypatch):
        # a residual keyed canonically is not stored under its literal key
        # too, and the one key still finds every hit: E^6 spends the 2,895
        # nodes it spent with both keys
        literal = []
        payload = partition_module._canonical_payload

        def spy(masks, dim):
            bits = sum(1 << m for m in masks)
            literal.append(partition_module._literal_key(bits, dim))
            return payload(masks, dim)

        monkeypatch.setattr(partition_module, "_canonical_payload", spy)
        cube, cache = Subposet.cube(6), MemoCache()
        assert count_via_partition(cube, "single", cache=cache, max_nodes=2895) == (
            PINNED_DEDEKIND[6]
        )
        assert literal and all(cache.get(key) is None for key in literal)
        with pytest.raises(BudgetExceededError):
            count_via_partition(cube, "single", max_nodes=2894)

    def test_literal_keys_distinct_up_to_dim_4(self):
        keys = {
            partition_module._literal_key(bits, dim)
            for dim in range(5)
            for bits in range(1 << (1 << dim))
        }
        assert len(keys) == sum(1 << (1 << dim) for dim in range(5))


def product_with_square(n: int, i: int, j: int, t_masks) -> Subposet:
    """T x E^2 in E^n: T's masks spread over the coordinates other than i
    and j, each point taken with all four values of coordinates i and j."""
    rest = [c for c in range(n) if c not in (i, j)]
    square = (0, 1 << i, 1 << j, 1 << i | 1 << j)
    spread = [sum(1 << rest[b] for b in range(len(rest)) if t >> b & 1) for t in t_masks]
    return Subposet(n, tuple(p | x for p in spread for x in square))


def comparability_components(masks) -> int:
    """Number of components of the comparability graph on masks, by brute
    force over pairs."""
    masks = list(masks)
    label = list(range(len(masks)))
    for x, y in itertools.combinations(range(len(masks)), 2):
        a, b = masks[x], masks[y]
        if a & b in (a, b) and label[x] != label[y]:
            old = label[y]
            label = [label[x] if v == old else v for v in label]
    return len(set(label))


def dispatch(S: Subposet, fibre_sum: bool = True, **budget) -> tuple[int, bool, int]:
    """S through the dispatcher, partition._count_bits, on a fresh run and
    memo, with the fibre sum as "auto" has it by default: D(S), whether
    the fibre sum counted S, and the nodes spent."""
    summed = []
    real = partition_module._count_split

    def spy(*args):
        value = real(*args)
        summed.append(value is not None)
        return value

    run = partition_module._EngineRun(
        MemoCache(), budget.get("max_nodes"), budget.get("budget_seconds")
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition_module, "_count_split", spy)
        value = partition_module._count_bits(S.bitset, S.dim, run, fibre_sum=fibre_sum)
    return value, any(summed), run.nodes


def brute_coupled(S: Subposet, i: int, j: int) -> bool:
    """The coupling of the split of S along coordinates i and j, from its
    definition over triples of points: every x <= y of S with coordinates
    i and j both 0 in x and both 1 in y has a point z of S between them
    with exactly one of the two set."""
    pair = 1 << i | 1 << j
    low = [x for x in S.masks if not x & pair]
    high = [y for y in S.masks if y & pair == pair]
    middle = [z for z in S.masks if (z & pair).bit_count() == 1]
    return all(
        any(x & ~z == 0 and z & ~y == 0 for z in middle)
        for x in low for y in high if x & ~y == 0
    )


def split_sum(S: Subposet, i: int, j: int) -> int | None:
    """The fibre sum over the split of S along coordinates i and j, whether
    or not it is coupled, on a fresh run."""
    fibres = partition_module._fibres(S.bitset, S.dim, i, j)
    return partition_module._count_split(fibres, S.dim, fresh_run())


def spy_on(monkeypatch, name: str) -> list:
    """Wrap the function partition.<name>.  Each call appends its arguments
    to the returned list."""
    calls = []
    real = getattr(partition_module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partition_module, name, spy)
    return calls


def spy_lookups(monkeypatch) -> list:
    """Wrap partition._lookup.  Each call appends to the returned list the
    fibre's point count and the direct-address table the lookup reads, or
    None where it searches."""
    made = []
    real = partition_module._lookup

    def spy(maps, values, points):
        lookup = real(maps, values, points)
        table = getattr(lookup, "__self__", None)
        made.append((points, table if isinstance(table, np.ndarray) else None))
        return lookup

    monkeypatch.setattr(partition_module, "_lookup", spy)
    return made


class TestFibreSum:
    def test_every_split_of_small_subsets(self, rng):
        # on a coupled split the sum is D(S); on an uncoupled one it also
        # counts maps that break an F00-F11 order the middle fibres do not
        # carry, so it is too large: coupling is what makes the sum exact
        seen = Counter()
        for n in (2, 3, 4, 5):
            for _ in range(40 if n < 5 else 20):
                S = random_subposet(rng, n)
                expected = count_monotone_oracle(S)
                for i, j in itertools.combinations(range(n), 2):
                    fibres = partition_module._fibres(S.bitset, n, i, j)
                    coupled = partition_module._coupled(fibres, n)
                    assert coupled == brute_coupled(S, i, j)
                    value = split_sum(S, i, j)
                    assert value == expected if coupled else value > expected
                    seen[coupled] += 1
        assert seen[True] > 300 and seen[False] > 50

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_split_hypothesis(self, data):
        n = data.draw(st.integers(2, 5))
        i, j = sorted(data.draw(st.permutations(range(n)))[:2])
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        S = Subposet(n, tuple(m for m in range(1 << n) if bits >> m & 1))
        coupled = brute_coupled(S, i, j)
        assert partition_module._coupled(partition_module._fibres(bits, n, i, j), n) == coupled
        value, expected = split_sum(S, i, j), count_monotone_oracle(S)
        assert value == expected if coupled else value > expected

    def test_matches_engine_on_six_cube_subsets(self, rng):
        # half-dense to dense: most sets have coupled splits that are not
        # products, and the sum over each of them is D(S)
        took = Counter()
        for density in (0.5, 0.7, 0.85, 0.95):
            for _ in range(4):
                S = random_subposet(rng, 6, density)
                single = count_via_partition(S, "single")
                assert count_via_partition(S) == single
                splits = list(partition_module._coupled_splits(S.bitset, S.dim))
                for fibres in splits:
                    assert partition_module._count_split(fibres, 6, fresh_run()) == single
                took[bool(splits)] += 1
        assert took[True] >= 12

    def test_matches_engine_on_six_cube_corollary_residuals(self):
        # all 128 residuals of the one-point splits of E^6: each is a product
        # or has a coupled split, and none but the empty one (the cube minus
        # the up-set of its bottom), which needs no node, is left to the
        # engine by default
        up_t, down_t = _updown_tables(6)
        full = (1 << 64) - 1
        cache = MemoCache()
        kinds = Counter()
        for mask in range(64):
            for removed in (up_t[mask], down_t[mask]):
                S = Subposet._from_bits(6, full & ~removed)
                fibres = next(partition_module._coupled_splits(S.bitset, S.dim))
                kinds[fibres.count(fibres[0]) == 4] += 1
                single = count_via_partition(S, "single", cache=cache)
                assert dispatch(S)[:2] == (single, bool(S.masks))
        assert kinds == {True: 114, False: 14}

    def test_direct_tables_match_searchsorted(self, rng, monkeypatch):
        # every coupled split of seeded subsets of E^4-E^6, and the product
        # split of seeded T x E^2 in E^7 with |T| <= 18, counted as shipped
        # and again with blocks of no pairs: then no fibre gets a table, every
        # order count is found by searchsorted, and every block holds one row
        cases = []
        for n, sets in ((4, 30), (5, 20), (6, 10)):
            for _ in range(sets):
                S = random_subposet(rng, n)
                cases += [(fibres, n) for fibres in partition_module._coupled_splits(S.bitset, n)]
        for size in range(11, 19):
            i, j = sorted(rng.sample(range(7), 2))
            S = product_with_square(7, i, j, rng.sample(range(32), size))
            cases.append((partition_module._fibres(S.bitset, S.dim, i, j), 7))
        kinds = Counter(
            "product" if f.count(f[0]) == 4 else "symmetric" if f[1] == f[2] else "other"
            for f, _ in cases
        )
        assert min(kinds["product"], kinds["symmetric"], kinds["other"]) >= 10

        def counts():
            out = []
            for fibres, dim in cases:
                run = fresh_run()
                out.append((partition_module._count_split(fibres, dim, run), run.nodes))
            return out

        made = spy_lookups(monkeypatch)
        shipped = counts()
        assert all(value is not None for value, _ in shipped)
        assert all(
            table is not None and len(table) <= partition_module._INTERVAL_BLOCK_PAIRS
            for _, table in made
        )
        monkeypatch.setattr(partition_module, "_INTERVAL_BLOCK_PAIRS", 0)
        made.clear()
        assert counts() == shipped
        assert made and all(table is None for _, table in made)

    def test_search_reads_maps_in_walk_order(self, rng):
        # E^5 has 32 points, so no table: the search is handed the 7,581
        # maps in the order the walk yields them, which is not ascending,
        # and reads back the value stored with each map
        walked = partition_module._pivot_maps((1 << 32) - 1, 5, fresh_run())
        maps = np.array([table for table, _ in walked], np.int64)
        assert len(maps) == PINNED_DEDEKIND[5]
        assert (np.diff(maps) < 0).any()
        values = np.arange(len(maps))
        read = partition_module._lookup(maps, values, 32)
        assert not isinstance(getattr(read, "__self__", None), np.ndarray)
        order = list(range(len(maps)))
        rng.shuffle(order)
        assert (read(maps[order]) == values[order]).all()

    def test_tables_stay_inside_one_block(self, monkeypatch):
        # E^7's product split has fibres of 32 points, so both order counts
        # are searched and D(7) is unchanged; a connected T of 18 points in
        # E^5 gets tables of exactly one block's 2^18 entries and T of 19
        # points none, and no table ever has more entries than a block
        made = spy_lookups(monkeypatch)
        assert dispatch(Subposet.cube(7))[:2] == (2414682040998, True)
        assert made == [(32, None), (32, None)]
        rng = random.Random(5)
        for size, tabled in ((17, True), (18, True), (19, False)):
            made.clear()
            t_masks = [0] + rng.sample(range(1, 32), size - 1)
            S = product_with_square(7, 2, 5, t_masks)
            assert dispatch(S)[:2] == (count_via_partition(S, "single"), True)
            assert [points for points, _ in made] == [size, size]
            assert all((table is not None) == tabled for _, table in made)
            for _, table in made:
                if table is not None:
                    assert len(table) == 1 << size <= partition_module._INTERVAL_BLOCK_PAIRS



class TestIntervalSum:
    def test_full_cubes_pinned(self):
        # E^2 and E^3 have at most _DIRECT_MAX_POINTS points: the engine
        # counts them
        for n in range(2, 7):
            if n >= 4:
                assert dispatch(Subposet.cube(n))[:2] == (PINNED_DEDEKIND[n], True)
            assert count_via_partition(Subposet.cube(n)) == PINNED_DEDEKIND[n]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_engine_on_products_hypothesis(self, data):
        # T of at most 12 points in E^(n-2), the square on two random
        # coordinates, not always the two lowest; half the draws add T's
        # bottom, which joins every component.  A disconnected T, or an S
        # small enough for the direct count, goes to the engine, with the
        # value and nodes of "single"
        n = data.draw(st.integers(2, 7))
        i, j = sorted(data.draw(st.permutations(range(n)))[:2])
        size = data.draw(st.integers(0, min(12, 1 << (n - 2))))
        t_masks = data.draw(st.permutations(range(1 << (n - 2))))[:size]
        if data.draw(st.booleans()):
            t_masks = sorted(set(t_masks[:11]) | {0})
        S = product_with_square(n, i, j, t_masks)
        single = count_via_partition(S, "single")
        assert count_via_partition(S) == single
        connected = comparability_components(t_masks) == 1
        if connected and len(S) > partition_module._DIRECT_MAX_POINTS:
            assert dispatch(S)[:2] == (single, True)
        else:
            assert dispatch(S) == dispatch(S, False)

    def test_product_detection_matches_toggles(self, rng):
        # the first split the chooser yields has four equal fibres exactly
        # when S has two free coordinates
        sets = [Subposet(n, tuple(m for m in range(1 << n) if bits >> m & 1))
                for n in (1, 2, 3) for bits in range(1 << (1 << n))]
        sets += [random_subposet(rng, n) for n in (4, 5) for _ in range(30)]
        sets += [product_with_square(5, i, j, [m for m in range(8) if rng.random() < 0.5])
                 for i, j in itertools.combinations(range(5), 2)]
        seen = set()
        for S in sets:
            members = set(S.masks)
            free = [c for c in range(S.dim) if {m ^ 1 << c for m in members} == members]
            splits = list(partition_module._coupled_splits(S.bitset, S.dim))
            product = bool(splits) and splits[0].count(splits[0][0]) == 4
            assert product == (len(free) >= 2)
            if product:
                # T x E^2 rebuilt on the top two coordinates counts like S
                T = Subposet._from_bits(S.dim, splits[0][0])
                rebuilt = product_with_square(T.dim + 2, T.dim, T.dim + 1, T.masks)
                assert 4 * len(T) == len(S)
                assert count_via_partition(rebuilt, "single") == count_via_partition(S, "single")
            seen.add(len(free) >= 2)
        assert seen == {False, True}

    def test_chooser_rule(self):
        # T x E^3 at dim 7, T a seeded subset of E^4 holding its bottom, the
        # cube on coordinates 1, 4 and 6: 72 points.  The three product
        # splits on those coordinates rank first, in the order of coordinate
        # pairs, and every other coupled split follows by its key
        rng = random.Random(3)
        t_masks = [0] + [m for m in range(1, 16) if rng.random() < 0.5]
        S = product_with_square(7, 1, 4, [t | x << 4 for t in t_masks for x in (0, 1)])
        assert len(S) == 72
        members = set(S.masks)
        free = [c for c in range(7) if {m ^ 1 << c for m in members} == members]
        assert free == [1, 4, 6]
        splits = list(partition_module._coupled_splits(S.bitset, S.dim))
        assert len(splits) == 18
        products = [partition_module._fibres(S.bitset, S.dim, i, j)
                    for i, j in itertools.combinations(free, 2)]
        assert splits[:3] == products
        assert all(fibres.count(fibres[0]) == 4 for fibres in products)
        sizes = [[f.bit_count() for f in fibres] for fibres in splits]
        ranks = [(max(s), s[1] + s[2], len(set(fibres))) for s, fibres in zip(sizes, splits)]
        assert ranks == sorted(ranks)
        by_pair = {(i, j): partition_module._fibres(S.bitset, S.dim, i, j)
                   for i, j in itertools.combinations(range(7), 2)}
        for fibres in splits:
            assert any(brute_coupled(S, i, j) for (i, j), f in by_pair.items() if f == fibres)
        qualifying = [
            fibres for (i, j), fibres in by_pair.items()
            if max(f.bit_count() for f in fibres) <= partition_module.INTERVAL_MAX_POINTS
            and brute_coupled(S, i, j)
        ]
        assert sorted(splits) == sorted(qualifying)
        # E^8's product splits have fibres of 64 points, and every other
        # split has a fibre at least as large
        assert list(partition_module._coupled_splits(Subposet.cube(8).bitset, 8)) == []

    def test_sets_around_the_direct_count_match_oracle(self):
        # every subset of E^3 has at most _DIRECT_MAX_POINTS points and goes
        # to the engine, as under "single"; seeded subsets of E^4 and E^5 of
        # 11-32 points take the fibre sum wherever a split is coupled
        rng = random.Random(11)
        sets = [Subposet(3, tuple(m for m in range(8) if bits >> m & 1)) for bits in range(256)]
        for n, top in ((4, 16), (5, 32)):
            sets += [Subposet(n, tuple(rng.sample(range(1 << n), rng.randint(11, top))))
                     for _ in range(100)]
        routed = Counter()
        for S in sets:
            expected = count_monotone_oracle(S)
            assert count_via_partition(S) == expected
            value, summed, nodes = dispatch(S)
            assert value == expected
            if not summed:
                assert (value, summed, nodes) == dispatch(S, False)
            routed[S.dim, summed] += 1
        assert routed[3, True] == 0 and routed[4, True] + routed[5, True] >= 150
        # E^3 takes the engine's one node; E^4 takes the 5 decisions of the
        # walk over M(E^2) and the pair sum's 6 rows
        assert count_via_partition(Subposet.cube(3), max_nodes=1) == PINNED_DEDEKIND[3]
        assert count_via_partition(Subposet.cube(4), max_nodes=11) == PINNED_DEDEKIND[4]
        for n, nodes in ((3, 0), (4, 10)):
            with pytest.raises(BudgetExceededError):
                count_via_partition(Subposet.cube(n), max_nodes=nodes)

    def test_non_product_counted_by_engine(self):
        for S in (Subposet(3, (0, 1, 3)), Subposet.cube(1), Subposet(2, (0, 1, 2))):
            assert dispatch(S) == dispatch(S, False)
            assert count_via_partition(S) == count_via_partition(S, "single")

    def test_too_many_points_left_to_engine(self, monkeypatch):
        # E^8 is E^6 x E^2, and E^6 has 64 points: no int64 truth table, so
        # no split is tried and the first node spent is the engine's
        splits = spy_on(monkeypatch, "_count_split")
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(8), max_nodes=0)
        assert splits == []

    def test_disconnected_product_stays_on_engine(self):
        # a 14-point antichain times E^2 is 14 disjoint squares, each
        # counting 6; the engine multiplies over them in a handful of nodes,
        # where the interval sum would walk 2^14 maps
        antichain = [m for m in range(64) if m.bit_count() == 3][:14]
        S = product_with_square(8, 0, 7, antichain)
        assert dispatch(S) == dispatch(S, False) == (6 ** 14, False, 15)
        assert count_via_partition(S, max_nodes=15) == 6 ** 14

    def test_too_many_maps_falls_back_exactly(self):
        # a bottom under a 14-point antichain is connected and has
        # 2^14 + 1 > INTERVAL_MAX_MAPS maps.  Times E^2 the bottom's square
        # map g leaves each antichain square the maps above g: 6, 5, 3, 3,
        # 2 and 1 over the six maps of E^2
        antichain = [m for m in range(64) if m.bit_count() == 3][:14]
        S = product_with_square(8, 0, 7, [0] + antichain)
        assert (1 << 14) + 1 > partition_module.INTERVAL_MAX_MAPS
        expected = 6 ** 14 + 5 ** 14 + 2 * 3 ** 14 + 2 ** 14 + 1
        # the product split's walk reaches the cap and is dropped, its
        # decisions charged; the next coupled split counts S
        product, *rest = partition_module._coupled_splits(S.bitset, S.dim)
        assert product.count(product[0]) == 4 and rest
        walk = fresh_run()
        assert partition_module._count_split(product, S.dim, walk) is None
        assert walk.nodes == 10_010
        counted = fresh_run()
        assert partition_module._count_split(rest[0], S.dim, counted) == expected
        nodes = walk.nodes + counted.nodes
        assert dispatch(S) == (expected, True, nodes)
        assert count_via_partition(S, max_nodes=nodes) == expected
        with pytest.raises(BudgetExceededError):
            count_via_partition(S, max_nodes=nodes - 1)

    def test_every_split_dropped_falls_back_to_engine(self, monkeypatch):
        # E^6 minus its bottom is connected, with 63 points and 15 coupled
        # splits; under a cap of two maps every split's walk reaches the
        # cap, so the fibre sum gives up, its walks charged, and the engine
        # counts
        S = Subposet(6, tuple(range(1, 64)))
        monkeypatch.setattr(partition_module, "INTERVAL_MAX_MAPS", 2)
        assert len(list(partition_module._coupled_splits(S.bitset, S.dim))) == 15
        single, _, engine = dispatch(S, False)
        assert single == count_via_partition(S, "single") == PINNED_DEDEKIND[6] - 1
        # each split's walk of its 15-point F00 decides 15 points before it
        # reaches a third map
        nodes = 15 * 15 + engine
        assert dispatch(S) == (single, False, nodes)
        assert count_via_partition(S, max_nodes=nodes) == single
        with pytest.raises(BudgetExceededError):
            count_via_partition(S, max_nodes=nodes - 1)

    def test_no_coupled_split_falls_back_to_engine(self):
        # a seeded half-dense subset of E^6, too large for the direct count,
        # none of whose 15 splits is coupled
        rng = random.Random(7)
        S = random_subposet(rng, 6, 0.5)
        assert len(S) > partition_module._DIRECT_MAX_POINTS
        assert comparability_components(S.masks) == 1
        assert not any(brute_coupled(S, i, j) for i, j in itertools.combinations(range(6), 2))
        expected, _, nodes = dispatch(S, False)
        assert dispatch(S) == (expected, False, nodes)
        assert expected == count_monotone_oracle(S)
        assert count_via_partition(S, max_nodes=nodes) == expected

    def test_walk_lists_the_oracle_maps(self, rng):
        # the walk's truth tables are the ones the enumeration oracle lists
        pool = [A for A in pivot_pool(rng) if A.dim <= 4]
        for A in pool:
            walk = partition_module._pivot_maps(A.bitset, A.dim, fresh_run())
            tables = sorted(t for t, _ in walk)
            assert tables == sorted(f.bits for f in enumerate_monotone(A))

    def test_budgets(self):
        for S in (Subposet.cube(5), Subposet.cube(6)):
            with pytest.raises(BudgetExceededError):
                dispatch(S, max_nodes=5)
            with pytest.raises(BudgetExceededError):
                dispatch(S, budget_seconds=0.0)
            with pytest.raises(BudgetExceededError):
                count_via_partition(S, max_nodes=5)
            with pytest.raises(BudgetExceededError):
                count_via_partition(S, budget_seconds=0.0)

    def test_nodes_are_walk_decisions_and_rows(self):
        # |M(E^4)| - 1 = 167 walk decisions, then one node per row of the
        # pair sum: 335 in all
        S = Subposet.cube(6)
        assert count_via_partition(S, max_nodes=335) == PINNED_DEDEKIND[6]
        with pytest.raises(BudgetExceededError):
            count_via_partition(S, max_nodes=334)
        with pytest.raises(BudgetExceededError):
            count_via_partition(S, max_nodes=167)


# Inputs the fibre sum turns away, with D and the nodes they take: two E^5
# halves of E^7 and two E^6 halves of E^8 (the engine's memo answers the
# second half), 14 disjoint squares, and a connected set of E^6 with no
# coupled split
ENGINE_ROUTED = {
    "e7_halves": (lambda: Subposet(7, tuple(x for x in range(128) if (x ^ x >> 1) & 1)),
                  7581 ** 2, 125),
    "e8_halves": (lambda: Subposet(8, tuple(x for x in range(256) if (x ^ x >> 1) & 1)),
                  7828354 ** 2, 2897),
    "antichain_squares": (
        lambda: product_with_square(8, 0, 7, [m for m in range(64) if m.bit_count() == 3][:14]),
        6 ** 14, 15),
    "no_coupled_split": (lambda: random_subposet(random.Random(7), 6, 0.5), 274350, 279),
}


class TestDispatcher:
    @pytest.mark.parametrize("name", list(ENGINE_ROUTED))
    def test_auto_routes_as_single_searching_components_once(self, name, monkeypatch):
        build, value, nodes = ENGINE_ROUTED[name]
        S = build()
        assert dispatch(S, False) == (value, False, nodes)
        searched = spy_on(monkeypatch, "_components")
        splits = spy_on(monkeypatch, "_count_split")
        run = partition_module._EngineRun(MemoCache())
        assert partition_module._count(S, "auto", run) == value
        assert run.nodes == nodes
        assert [bits for bits, _ in searched].count(S.bitset) == 1
        assert splits == []

    def test_one_router(self):
        # only _count_bits chooses splits and counts them, so no second
        # router can ask its size and connectivity questions again
        tree = ast.parse(inspect.getsource(partition_module))
        callers = {
            name: {
                getattr(top, "name", "<module>")
                for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            }
            for name in ("_coupled_splits", "_count_split")
        }
        assert callers == {"_coupled_splits": {"_count_bits"}, "_count_split": {"_count_bits"}}

    def test_one_representation(self):
        # below the public entries the private layer takes point sets as
        # (bits, dim): no private function builds a Subposet, and only the
        # two that check or route the public arguments take one
        tree = ast.parse(inspect.getsource(partition_module))
        private = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        ]

        def names(node):
            return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

        builds = {
            f.name
            for f in private
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and "Subposet" in names(node.func)
        }
        takes = {
            f.name
            for f in private
            for arg in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
            if arg.annotation is not None and "Subposet" in names(arg.annotation)
        }
        assert builds == set()
        assert takes == {"_validate_subset", "_count"}


class TestPartitionTerms:
    def test_two_point_pivot_on_square(self):
        terms = partition_terms(Subposet.cube(2), Subposet(2, (0, 3)))
        assert [t.pivot_values.values() for t in terms] == [(0, 0), (0, 1), (1, 1)]
        assert [t.residual.masks for t in terms] == [(), (1, 2), ()]
        total = sum(count_monotone_oracle(t.residual) for t in terms)
        assert total == 6  # 1 + 4 + 1

    def test_empty_pivot_single_term(self):
        S = Subposet(3, (0, 2, 5, 7))
        terms = partition_terms(S, Subposet.empty(3))
        assert len(terms) == 1
        assert terms[0].residual == S

    def test_single_point_pivot_on_edge(self):
        terms = partition_terms(Subposet.cube(1), Subposet(1, (0,)))
        assert [t.residual.masks for t in terms] == [(1,), ()]

    def test_term_count_is_pivot_count(self, rng):
        for _ in range(15):
            S = random_subposet(rng, 3, density=0.8)
            if not S.masks:
                continue
            sub = tuple(m for m in S.masks if rng.random() < 0.5)
            A = Subposet(3, sub)
            terms = partition_terms(S, A)
            assert len(terms) == count_monotone_oracle(A)
            for t in terms:
                leftover = set(t.residual.masks)
                assert leftover <= set(S.masks) - set(A.masks)

    def test_term_sum_equals_direct_count(self, rng):
        for _ in range(30):
            S = random_subposet(rng, 4, density=0.5)
            sub = tuple(m for m in S.masks if rng.random() < 0.4)
            A = Subposet(4, sub)
            total = sum(
                count_monotone_oracle(t.residual) for t in partition_terms(S, A)
            )
            assert total == count_monotone_oracle(S)

    def test_matches_enumeration_reference(self, rng):
        # pivot bits, residuals and their order, against the term list built
        # from enumerate_monotone and generated_subset
        for n in (2, 3, 4, 5):
            for _ in range(25):
                S = random_subposet(rng, n)
                A = Subposet(n, tuple(m for m in S.masks if rng.random() < 0.5))
                terms = partition_terms(S, A)
                assert term_pairs(terms) == reference_terms(S, A)
                assert all(t.pivot_values.domain == A for t in terms)

    def test_matches_brute_listing_on_three_cube(self, rng):
        # every one of the 2^|A| assignments, filtered for monotonicity over
        # all comparable pairs, with its forced region found point by point
        for _ in range(40):
            S = random_subposet(rng, 3, density=0.8)
            A = Subposet(3, tuple(m for m in S.masks if rng.random() < 0.6))
            k = len(A)
            brute = []
            for bits in range(1 << k):
                values = tuple(bits >> i & 1 for i in range(k))
                f = dict(zip(A.masks, values))
                if any(u & ~w == 0 and f[u] > f[w] for u in f for w in f):
                    continue
                # a point is forced when it lies above a 1 or below a 0
                kept = tuple(
                    m for m in S.masks
                    if not any(a & ~m == 0 if v else m & ~a == 0 for a, v in f.items())
                )
                brute.append((values, bits, Subposet(3, kept)))
            brute.sort()
            assert term_pairs(partition_terms(S, A)) == [(b, r) for _, b, r in brute]

    def test_enumeration_cap(self):
        # 41 points raise before any walk starts, with the oracle's message
        S = Subposet.cube(6)
        A = Subposet(6, tuple(range(41)))
        assert len(A) == DEFAULT_ENUMERATION_CAP + 1
        with pytest.raises(BudgetExceededError, match="enumeration cap exceeded: 41 points > 40"):
            partition_terms(S, A)

    def test_pivot_must_be_subset(self):
        with pytest.raises(ValueError, match="pivot subset must be contained in S"):
            partition_terms(Subposet(2, (1, 2)), Subposet(2, (0,)))
        with pytest.raises(ValueError, match="pivot subset must be contained in S"):
            partition_terms(Subposet(3, (1, 2, 7)), Subposet(3, (1, 2, 3)))
        with pytest.raises(ValueError, match="pivot subset must be contained in S"):
            count_via_partition(Subposet(3, (0, 5)), Subposet(3, (5, 6)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            partition_terms(Subposet.cube(2), Subposet(3, (1,)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_partition_identity_hypothesis(self, s_bits, a_bits):
        # the oracle sum over the term list, the engine's pivot walk on A and
        # the single-pivot engine must agree for any S of E^5 and A within S
        S = Subposet(5, tuple(m for m in range(32) if s_bits >> m & 1))
        A = Subposet(5, tuple(m for m in S.masks if a_bits >> m & 1))
        terms = partition_terms(S, A)
        total = sum(count_monotone_oracle(t.residual) for t in terms)
        assert total == count_via_partition(S, A) == count_via_partition(S)
        for t in terms:
            forced = generated_subset(A, t.pivot_values.values())
            assert not set(t.residual.masks) & set(forced.masks)
            assert t.residual == S.minus(forced)
        keys = [t.pivot_values.values() for t in terms]
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestCorollarySplit:
    def test_middle_point_of_square(self):
        assert corollary_split(2, Point.from_text("01")) == (3, 3)

    def test_top_of_edge(self):
        assert corollary_split(1, Point.from_text("1")) == (2, 1)

    def test_all_pivots_sum_to_cube_count(self):
        for n in range(1, 5):
            expected = PINNED_DEDEKIND[n]
            for mask in range(1 << n):
                hi, lo = corollary_split(n, Point(mask, n))
                assert hi + lo == expected

    def test_pivot_dimension_checked(self):
        with pytest.raises(ValueError):
            corollary_split(3, Point(0, 2))

    def test_shared_memo_counts_each_class_once(self, monkeypatch):
        # one cache over every pivot against a fresh cache per pivot; the
        # branches fall into n + 1 classes (the upper branch by the weight of
        # the pivot, the lower branch dual to an upper one), and an entry the
        # engine stored may answer a class before its first branch comes
        real = partition_module._count
        calls = []

        def spy(S, *args):
            calls.append(S)
            return real(S, *args)

        for n in range(7):
            fresh = [corollary_split(n, Point(mask, n)) for mask in range(1 << n)]
            calls.clear()
            monkeypatch.setattr(partition_module, "_count", spy)
            shared = MemoCache()
            for mask, (u, l) in enumerate(fresh):
                assert corollary_split(n, Point(mask, n), cache=shared) == (u, l)
                assert u + l == PINNED_DEDEKIND[n]
            monkeypatch.setattr(partition_module, "_count", real)
            assert 1 <= len(calls) <= n + 1
            assert len({canonical_key(S) for S in calls}) == len(calls)
        assert len(calls) == 7  # at n = 6 no engine entry answers a class

    @pytest.mark.parametrize("budget", [
        {"max_nodes": -1},
        {"budget_seconds": -1.0},
        {"budget_seconds": float("nan")},
    ])
    def test_bad_budget_rejected_on_warm_cache(self, budget):
        # both branches already in the shared cache: the budget is still
        # checked before the lookup
        shared = MemoCache()
        pivot = Point.from_text("0110")
        corollary_split(4, pivot, cache=shared)
        with pytest.raises(ValueError, match="must be >= 0"):
            corollary_split(4, pivot, cache=shared, **budget)

    def test_hit_spends_no_node(self):
        shared = MemoCache()
        pair = corollary_split(5, Point(0b00011, 5), cache=shared)
        with pytest.raises(BudgetExceededError):
            corollary_split(5, Point(0b00101, 5), max_nodes=0)
        assert corollary_split(5, Point(0b00101, 5), cache=shared, max_nodes=0) == pair


# Every public entry that takes budgets, as a call with budgets, and the
# nodes it spends: a count by each strategy, a corollary split (27 nodes
# for its upper branch, 37 for its lower) and a layer walk.
BUDGETED_CALLS = {
    "auto": (lambda **b: count_via_partition(Subposet.cube(6), **b), 335),
    "single": (lambda **b: count_via_partition(
        random_subposet(random.Random(5), 5, 0.6), "single", **b), 11),
    "pivot": (lambda **b: count_via_partition(
        Subposet.cube(4), Subposet(4, (3, 5, 6, 9)), **b), 31),
    "corollary": (lambda **b: corollary_split(5, Point(0b00101, 5), **b), 64),
    "decompose": (lambda **b: decompose_power_of_two(5, "odd", **b), 297),
}


class TestBudgetContract:
    # a public call builds one run and charges all of its work to it, so
    # it returns under max_nodes equal to the nodes it spends and raises
    # one node below
    @pytest.mark.parametrize("entry", list(BUDGETED_CALLS))
    def test_max_nodes_is_the_nodes_spent(self, entry, monkeypatch):
        call, nodes = BUDGETED_CALLS[entry]
        runs = []

        class Spy(partition_module._EngineRun):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(partition_module, "_EngineRun", Spy)
            value = call()
        assert [run.nodes for run in runs] == [nodes]
        assert call(max_nodes=nodes) == value
        with pytest.raises(BudgetExceededError):
            call(max_nodes=nodes - 1)

    def test_corollary_branches_share_one_budget(self):
        # 37 nodes count either branch alone, not both
        call = BUDGETED_CALLS["corollary"][0]
        with pytest.raises(BudgetExceededError):
            call(max_nodes=37)
        assert call(max_nodes=64) == (2008, 5573)

    def test_dropped_walks_are_charged(self, monkeypatch):
        # every coupled split of this dense subset of E^8 has a fibre of
        # more than INTERVAL_MAX_MAPS maps; the first walk decision of the
        # first split runs out of a budget of 0
        S = random_subposet(random.Random(3), 8, 0.9)
        assert len(S) == 230
        assert len(list(partition_module._coupled_splits(S.bitset, S.dim))) == 17
        real = partition_module._count_split
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(partition_module, "_count_split", spy)
        with pytest.raises(BudgetExceededError):
            count_via_partition(S, max_nodes=0)
        assert len(calls) == 1

    def test_runs_built_only_in_public_entries(self):
        # one run per call: only the public entries build an _EngineRun,
        # each once, and everything below them is handed that run
        tree = ast.parse(inspect.getsource(partition_module))
        built = Counter(
            getattr(top, "name", "<module>")
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_EngineRun"
        )
        assert built == Counter(
            {"count_via_partition": 1, "corollary_split": 1, "partition_terms": 1,
             "decompose_power_of_two": 1}
        )


class TestCanonicalKey:
    def test_coordinate_relabeling_invariance(self, rng):
        for dim in range(CANONICAL_DIM_CAP + 1):
            for _ in range(40):
                S = random_subposet(rng, dim)
                perm = list(range(dim))
                rng.shuffle(perm)
                T = permute_coordinates(S, perm)
                assert canonical_key(S) == canonical_key(T)
                assert canonical_key(S.dual()) == canonical_key(S)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coordinate_relabeling_invariance_hypothesis(self, data):
        dim = data.draw(st.integers(min_value=0, max_value=CANONICAL_DIM_CAP))
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << dim)) - 1))
        perm = data.draw(st.permutations(range(dim)))
        S = Subposet(dim, tuple(m for m in range(1 << dim) if bits >> m & 1))
        T = permute_coordinates(S, perm)
        assert canonical_key(T) == canonical_key(S)
        assert canonical_key(S.dual()) == canonical_key(S)

    def test_orbits_match_exhaustive_key_on_random_sets(self, rng):
        for dim, trials in ((4, 40), (5, 30), (6, 20), (7, 10)):
            sets = [random_subposet(rng, dim) for _ in range(trials)]
            assert_orbits_match_exhaustive(rng, sets)

    def test_orbits_match_exhaustive_key_where_invariants_tie(self, rng):
        # sets whose coordinates the invariants cannot split, or split only
        # into large classes: the full cube, single weight layers, and the
        # cube minus the up-set of a point of each weight; and a set whose
        # sorted invariants tie with its dual's though no relabeling maps
        # one to the other, so folding must search both orientations
        tied = Subposet(4, (2, 4, 6, 7, 9, 11))
        assert exhaustive_key(tied, False) != exhaustive_key(tied.dual(), False)
        for dim in (4, 5, 6, 7):
            cube = Subposet.cube(dim)
            sets = [cube, Subposet.empty(dim)] + ([tied] if dim == 4 else [])
            for w in range(dim + 1):
                sets.append(Subposet(dim, tuple(m for m in cube.masks if m.bit_count() == w)))
                sets.append(cube.minus(upper_set(Point((1 << w) - 1, dim))))
            assert_orbits_match_exhaustive(rng, sets)

    def test_orbits_match_exhaustive_key_on_cube_residuals(self, rng):
        for dim, trials in ((6, 20), (7, 12)):
            sets = [cube_residual(rng, dim) for _ in range(trials)]
            assert_orbits_match_exhaustive(rng, sets)

    def test_keys_match_radix_reference(self, rng):
        sets = [random_subposet(rng, dim) for dim, trials in ((5, 30), (6, 20), (7, 10))
                for _ in range(trials)]
        sets += [cube_residual(rng, dim) for dim, trials in ((6, 20), (7, 12))
                 for _ in range(trials)]
        for dim in (5, 6, 7):
            cube = Subposet.cube(dim)
            sets += [cube, Subposet.empty(dim)]
            sets += [Subposet(dim, tuple(m for m in cube.masks if m.bit_count() == w))
                     for w in range(dim + 1)]
        for S in sets:
            for T in (S, S.dual()):
                assert canonical_key(T) == radix_key(T)

    def test_key_bytes_pinned(self):
        # the sha256 of the keys of pinned_key_sets() concatenated, as the
        # symmetry-table key computed them: the bytes are the memo's keys,
        # so a change to them is a change to every canonical entry
        keys = b"".join(canonical_key(S) for S in pinned_key_sets())
        assert hashlib.sha256(keys).hexdigest() == (
            "3b63f7227385d1a7654ad932c723bc06fb8768d5077673b34612556f8a7a3d1c"
        )

    def test_key_length(self, rng):
        # a kind byte, the dimension, then one bit per point of the image
        for dim in range(CANONICAL_DIM_CAP + 1):
            sets = [Subposet.empty(dim), Subposet.cube(dim)]
            sets += [random_subposet(rng, dim) for _ in range(5)]
            for S in sets:
                assert len(canonical_key(S)) == 2 + -(-(1 << dim) // 8)

    def test_keys_partition_like_brute_orbits(self):
        # the brute key: the least sorted mask tuple over every image of S
        # under the symmetries the key claims to fold
        for dim in (0, 1, 2, 3):
            size = 1 << dim
            perms = list(itertools.permutations(range(dim)))
            pairs = set()
            for bits in range(1 << size):
                S = Subposet(dim, tuple(m for m in range(size) if bits >> m & 1))
                images = [permute_coordinates(S, list(p)) for p in perms]
                images += [T.dual() for T in images]
                pairs.add((canonical_key(S), min(T.masks for T in images)))
            # equal keys exactly when equal brute keys: the pairing is a bijection
            assert len(pairs) == len({k for k, _ in pairs}) == len({b for _, b in pairs})

    def test_single_points_of_square_share_key(self):
        assert canonical_key(Subposet(2, (2,))) == canonical_key(Subposet(2, (1,)))

    def test_duality_folding(self):
        S = Subposet(1, (0,))
        assert canonical_key(S) == canonical_key(S.dual())

    def test_distinguishes_chain_from_v_shape(self):
        chain3 = Subposet(2, (0, 1, 3))
        v3 = Subposet(2, (0, 1, 2))
        assert canonical_key(chain3) != canonical_key(v3)

    def test_equal_keys_imply_isomorphism(self, rng):
        buckets: dict[bytes, Subposet] = {}
        for _ in range(150):
            S = random_subposet(rng, 3)
            key = canonical_key(S)
            if key in buckets:
                assert cover_preserving_isomorphic(buckets[key], S) or (
                    cover_preserving_isomorphic(buckets[key], S.dual())
                )
            else:
                buckets[key] = S

    def test_large_dimension_identity_fallback(self):
        S = Subposet(8, (0, 5, 200))
        assert canonical_key(S) == canonical_key(Subposet(8, (0, 5, 200)))
        assert isinstance(canonical_key(S), bytes)


class TestMemoCache:
    def test_roundtrip_and_stats(self):
        cache = MemoCache()
        assert cache.get(b"k") is None
        cache.put(b"k", 42)
        assert cache.get(b"k") == 42
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert len(cache) == 1

    def test_clear_resets_everything(self):
        cache = MemoCache()
        cache.put(b"a", 1)
        cache.get(b"a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0}


class TestTwoAdicPolynomial:
    def test_from_counts_sorts_and_drops_zeros(self):
        p = TwoAdicPolynomial.from_counts({2: 1, 0: 2, 5: 0})
        assert p.terms == ((0, 2), (2, 1))
        assert p.as_dict() == {0: 2, 2: 1}

    def test_value_and_coefficient(self):
        p = TwoAdicPolynomial(((0, 2), (2, 1)))
        assert p.value() == 6
        assert p.coefficient(0) == 2
        assert p.coefficient(2) == 1
        assert p.coefficient(7) == 0

    def test_text_form(self):
        assert str(TwoAdicPolynomial(((0, 2), (2, 1)))) == "2*2^0 + 1*2^2"
        assert str(TwoAdicPolynomial(())) == "0"

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoAdicPolynomial(((2, 1), (0, 2)))  # exponents out of order
        with pytest.raises(ValueError):
            TwoAdicPolynomial(((0, 0),))  # zero coefficient
        with pytest.raises(ValueError):
            TwoAdicPolynomial(((0, -3),))


def loop_face_condition(A: Subposet, n: int, mode: str) -> bool:
    """The 2-face condition point by point: every 2-face under the ambient
    reading, every interval and its interior under the induced one."""
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


def loop_mirror_complement(n: int, i: int, seed: Subposet) -> Subposet:
    """construct_recursive_partition point by point, with its checks and
    messages, for seeds of a valid coordinate and dimension."""
    bit = 1 << (i - 1)
    if any(not m & bit for m in seed.masks):
        raise ValueError("seed must lie in the upper subcube (coordinate i equal to 1)")
    w = find_v3(seed, DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(f"seed contains a V-shape: {w}")
    upper = Subposet(n, tuple(m for m in range(1 << n) if m & bit))
    w = find_v3(upper.minus(seed), DEFAULT_COVER_MODE)
    if w is not None:
        raise ValueError(
            "seed does not completely partition the upper subcube; "
            f"V-shape in the remainder: {w}"
        )
    in_seed = set(seed.masks)
    mirrors = tuple(
        m for m in range(1 << n) if not m & bit and (m | bit) not in in_seed
    )
    return Subposet(n, seed.masks + mirrors)


def mirror_outcome(construct, n: int, i: int, seed: Subposet) -> tuple | str:
    """The result's masks, or the text of the ValueError it raises."""
    try:
        return construct(n, i, seed).masks
    except ValueError as exc:
        return str(exc)


class TestCompletenessPredicates:
    def test_even_layer_completes_e4(self):
        A = construct_layer_subset(4, "even")
        assert is_complete_partition(A, Subposet.cube(4))

    def test_empty_pivot_leaves_v_shape(self):
        assert not is_complete_partition(Subposet.empty(2), Subposet.cube(2))
        w = find_v3(Subposet.cube(2), DEFAULT_COVER_MODE)
        assert w.apex.mask == 0

    def test_full_pivot_always_complete(self, rng):
        for _ in range(5):
            S = random_subposet(rng, 3)
            assert is_complete_partition(S, S)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            is_complete_partition(Subposet.empty(2), Subposet.cube(2), "diagonal")

    def test_one_cover_default(self):
        # every predicate reads covers under the one package default, so
        # changing it changes them all
        for predicate in (find_v3, is_complete_partition, e2_condition_check):
            default = inspect.signature(predicate).parameters["mode"].default
            assert default is poset_module.DEFAULT_COVER_MODE
        assert (
            dedekind.DEFAULT_COVER_MODE
            is partition_module.DEFAULT_COVER_MODE
            is poset_module.DEFAULT_COVER_MODE
        )

    def test_one_mode_check(self):
        A, cube = construct_layer_subset(3, "even"), Subposet.cube(3)
        calls = (
            lambda: find_v3(cube, "diagonal"),
            lambda: is_complete_partition(A, cube, "diagonal"),
            lambda: e2_condition_check(A, 3, "diagonal"),
            lambda: CoverPair(Point(0, 3), Point(1, 3), "diagonal"),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError, match="mode must be one of") as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_face_condition_examples(self):
        odd3 = construct_layer_subset(3, "odd")
        assert e2_condition_check(odd3, 3)
        assert e2_condition_check(odd3, 3, "ambient")
        # the induced reading also counts weight-jumping diamonds and rejects
        assert not e2_condition_check(odd3, 3, "induced")
        assert not e2_condition_check(Subposet.empty(2), 2)
        assert e2_condition_check(Subposet.cube(2), 2)
        assert e2_condition_check(construct_layer_subset(4, "even"), 4)
        with pytest.raises(ValueError):
            e2_condition_check(Subposet.empty(2), 3)

    def test_face_condition_matches_predicate(self):
        cube2 = Subposet.cube(2)
        for bits in range(16):
            A = Subposet(2, tuple(m for m in range(4) if bits >> m & 1))
            for mode in ("ambient", "induced"):
                assert e2_condition_check(A, 2, mode) == is_complete_partition(
                    A, cube2, mode
                )
        cube3 = Subposet.cube(3)
        for bits in range(1 << 8):
            A = Subposet(3, tuple(m for m in range(8) if bits >> m & 1))
            for mode in ("ambient", "induced"):
                assert e2_condition_check(A, 3, mode) == is_complete_partition(
                    A, cube3, mode
                )


class TestFaceCondition:
    def test_matches_predicate_on_every_four_cube_subset(self):
        # the ambient reading is the 2-face condition that the completeness
        # statements rest on; the induced one is checked alongside
        cube4 = Subposet.cube(4)
        complete = Counter()
        for bits in range(1 << 16):
            A = Subposet._from_bits(4, bits)
            for mode in ("ambient", "induced"):
                holds = e2_condition_check(A, 4, mode)
                assert holds == is_complete_partition(A, cube4, mode)
                complete[mode] += holds
        assert complete == {"ambient": 5695, "induced": 1305}

    def test_matches_loop_reference(self, rng):
        cases = [
            Subposet._from_bits(n, bits)
            for n in range(4)
            for bits in range(1 << (1 << n))
        ]
        for n in (4, 5, 6):
            for density in (0.3, 0.5, 0.7, 0.85, 0.95):
                cases += [random_subposet(rng, n, density) for _ in range(8)]
        for A in cases:
            for mode in ("ambient", "induced"):
                assert e2_condition_check(A, A.dim, mode) == loop_face_condition(
                    A, A.dim, mode
                ), (A, mode)


class TestCompletenessOracles:
    def test_diagonal_pivot_of_square(self):
        A = Subposet(2, (0, 3))
        assert definitional_completeness_oracle(A, Subposet.cube(2))
        assert numeric_completeness_oracle(A, Subposet.cube(2))

    def test_empty_pivot_of_v_shape(self):
        V = Subposet(2, (0, 1, 2))
        assert not definitional_completeness_oracle(Subposet.empty(2), V)
        assert not numeric_completeness_oracle(Subposet.empty(2), V)

    def test_full_pivot_of_cube(self):
        cube3 = Subposet.cube(3)
        assert definitional_completeness_oracle(cube3, cube3)
        assert numeric_completeness_oracle(cube3, cube3)

    def test_fence_separates_numeric_from_definitional(self):
        # this pivot leaves a connected four-point zigzag counting 8 = 2*2*2:
        # the value factors but the shape is no union of cubes
        A = Subposet(3, (1, 3))
        cube3 = Subposet.cube(3)
        assert numeric_completeness_oracle(A, cube3)
        assert not definitional_completeness_oracle(A, cube3)
        assert not is_complete_partition(A, cube3)

    def test_empty_pivot_separates_on_full_cube(self):
        # the single residual is the cube itself: its count factors trivially,
        # but a full-dimensional component never counts as a partition
        cube2 = Subposet.cube(2)
        assert numeric_completeness_oracle(Subposet.empty(2), cube2)
        assert not definitional_completeness_oracle(Subposet.empty(2), cube2)

    def test_definitional_implies_numeric(self, rng):
        cube2 = Subposet.cube(2)
        for bits in range(16):
            A = Subposet(2, tuple(m for m in range(4) if bits >> m & 1))
            if definitional_completeness_oracle(A, cube2):
                assert numeric_completeness_oracle(A, cube2)
        cube3 = Subposet.cube(3)
        for _ in range(40):
            A = random_subposet(rng, 3, density=0.5)
            if definitional_completeness_oracle(A, cube3):
                assert numeric_completeness_oracle(A, cube3)

    def test_predicate_agreement_with_definitional(self, rng):
        cube3 = Subposet.cube(3)
        for _ in range(60):
            A = random_subposet(rng, 3)
            expected = definitional_completeness_oracle(A, cube3)
            assert is_complete_partition(A, cube3, "ambient") == expected
            # induced is sound but misses some complete pivots
            if is_complete_partition(A, cube3, "induced"):
                assert expected

    def test_both_pivots_of_five_cube(self):
        # the face x1 = 0 leaves the opposite face, an E^4 component of 16
        # points, so the isomorphism check must accept a component that size
        cube5 = Subposet.cube(5)
        face = Subposet(5, tuple(m for m in cube5.masks if not m & 1))
        layer = construct_layer_subset(5, "even")
        for A, complete in ((face, False), (layer, True)):
            assert definitional_completeness_oracle(A, cube5) is complete
            assert is_complete_partition(A, cube5) is complete

    def test_numeric_value_budget(self):
        with pytest.raises(BudgetExceededError):
            numeric_completeness_oracle(
                Subposet.empty(4), Subposet.cube(4), value_budget=100
            )


class TestLayerSubset:
    def test_small_cases_exact(self):
        assert construct_layer_subset(3, "even").masks == (0, 3, 5, 6)
        assert construct_layer_subset(3, "odd").masks == (1, 2, 4, 7)
        assert len(construct_layer_subset(4, "even")) == 8

    def test_half_size_and_v_free(self):
        for n in range(2, 8):
            for parity in ("even", "odd"):
                A = construct_layer_subset(n, parity)
                assert len(A) == 1 << (n - 1)
                assert find_v3(A, DEFAULT_COVER_MODE) is None

    def test_completes_the_cube(self):
        for n in range(2, 6):
            for parity in ("even", "odd"):
                A = construct_layer_subset(n, parity)
                assert is_complete_partition(A, Subposet.cube(n))

    def test_validation(self):
        with pytest.raises(ValueError):
            construct_layer_subset(1, "even")
        with pytest.raises(ValueError):
            construct_layer_subset(3, "both")


class TestMirrorComplement:
    def test_diagonal_of_square(self):
        result = construct_recursive_partition(2, 2, Subposet(2, (3,)))
        assert result.masks == (0, 3)
        assert is_complete_partition(result, Subposet.cube(2))

    def test_seed_on_upper_face_recovers_layer(self):
        # even-weight points of the coordinate-3 upper face of the 3-cube
        result = construct_recursive_partition(3, 3, Subposet(3, (5, 6)))
        assert result.masks == construct_layer_subset(3, "even").masks
        assert is_complete_partition(result, Subposet.cube(3))

    def test_layer_seed_lifts_one_dimension(self):
        seed = Subposet(4, tuple(m | 8 for m in construct_layer_subset(3, "even").masks))
        result = construct_recursive_partition(4, 4, seed)
        assert len(result) == 8
        assert minimality_check(result, 4) == MINIMAL

    def test_full_face_seed_rejected(self):
        with pytest.raises(ValueError, match="V-shape"):
            construct_recursive_partition(3, 3, Subposet(3, (4, 5, 6, 7)))

    def test_incomplete_seed_rejected(self):
        with pytest.raises(ValueError, match="completely partition"):
            construct_recursive_partition(3, 3, Subposet(3, (7,)))

    def test_seed_outside_upper_subcube_rejected(self):
        with pytest.raises(ValueError, match="upper subcube"):
            construct_recursive_partition(2, 2, Subposet(2, (0,)))

    def test_matches_loop_reference_on_layer_seeds(self):
        # the seeds verify --theorem 3 builds: one parity layer's points on
        # the upper face of each coordinate
        for n in range(2, 9):
            for i in range(1, n + 1):
                bit = 1 << (i - 1)
                for parity in ("even", "odd"):
                    seed = Subposet(n, tuple(
                        m for m in construct_layer_subset(n, parity).masks if m & bit
                    ))
                    result = construct_recursive_partition(n, i, seed)
                    assert result.masks == loop_mirror_complement(n, i, seed).masks

    def test_matches_loop_reference_on_random_seeds(self, rng):
        # half the seeds lie in the upper face; most are rejected, each with
        # the reference's message
        rejected = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            i = rng.randint(1, n)
            seed = random_subposet(rng, n, rng.random())
            if rng.random() < 0.5:
                bit = 1 << (i - 1)
                seed = Subposet(n, tuple(m for m in seed.masks if m & bit))
            got = mirror_outcome(construct_recursive_partition, n, i, seed)
            assert got == mirror_outcome(loop_mirror_complement, n, i, seed)
            rejected += isinstance(got, str)
        assert 0 < rejected < 200

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            construct_recursive_partition(2, 0, Subposet(2, (3,)))
        with pytest.raises(ValueError):
            construct_recursive_partition(2, 3, Subposet(2, (3,)))
        with pytest.raises(ValueError):
            construct_recursive_partition(3, 3, Subposet(2, (3,)))


class TestMinimality:
    def test_layer_subset_is_minimal(self):
        for n in range(2, 6):
            assert minimality_check(construct_layer_subset(n, "even"), n) == MINIMAL

    def test_full_cube_is_complete_but_large(self):
        for n in (2, 3):
            assert minimality_check(Subposet.cube(n), n) == COMPLETE_BUT_NOT_MINIMAL

    def test_empty_pivot_is_not_complete(self):
        assert minimality_check(Subposet.empty(2), 2) == NOT_COMPLETE
        assert minimality_check(Subposet.empty(1), 1) == NOT_COMPLETE

    def test_validation(self):
        with pytest.raises(ValueError):
            minimality_check(Subposet.empty(2), 0)
        with pytest.raises(ValueError):
            minimality_check(Subposet.empty(2), 3)

    def test_size_law_exhaustive_on_three_cube(self):
        # measured truth: the lower bound and the V-free equality hold on the
        # 3-cube; the strict bound for pivots containing a V fails in exactly
        # six cases, all sitting at the bound itself
        cube3 = Subposet.cube(3)
        at_bound_with_v = 0
        for bits in range(1, 256):
            A = Subposet(3, tuple(m for m in range(8) if bits >> m & 1))
            if not is_complete_partition(A, cube3):
                continue
            assert len(A) >= 4
            if find_v3(A, DEFAULT_COVER_MODE) is None:
                assert len(A) == 4
            elif len(A) == 4:
                at_bound_with_v += 1
        assert at_bound_with_v == 6

    def test_size_law_on_sampled_four_cube(self, rng):
        # in dimension four the full law holds (verified exhaustively once;
        # sampled here), so the checker never needs its reporting path
        cube4 = Subposet.cube(4)
        for _ in range(120):
            A = random_subposet(rng, 4)
            if not A.masks or not is_complete_partition(A, cube4):
                continue
            label = minimality_check(A, 4)
            assert len(A) >= 8
            if find_v3(A, DEFAULT_COVER_MODE) is None:
                assert len(A) == 8
                assert label == MINIMAL
            else:
                assert label == COMPLETE_BUT_NOT_MINIMAL

    def test_augmented_layer_subset_classified_larger(self):
        A = construct_layer_subset(4, "even")
        augmented = Subposet(4, A.masks + (1,))
        assert minimality_check(augmented, 4) == COMPLETE_BUT_NOT_MINIMAL

    def test_reports_genuine_size_law_violations(self):
        # a four-point pivot of the 3-cube that contains a V yet completely
        # partitions it: the strict size bound fails and the checker says so
        # instead of returning a label
        A = Subposet(3, (1, 2, 3, 5))
        assert is_complete_partition(A, Subposet.cube(3))
        assert find_v3(A, DEFAULT_COVER_MODE) is not None
        with pytest.raises(FalsificationError, match="expected > 4"):
            minimality_check(A, 3)
        # below dimension three even the V-free equality fails: one middle
        # point of the square leaves a bare chain behind
        assert is_complete_partition(Subposet(2, (1,)), Subposet.cube(2))
        with pytest.raises(FalsificationError, match="expected 2"):
            minimality_check(Subposet(2, (1,)), 2)


class TestPowerOfTwoDecomposition:
    def test_square_polynomial_exact(self):
        p = decompose_power_of_two(2, "even")
        assert p.as_dict() == {0: 2, 2: 1}
        assert p.value() == 6
        assert str(p) == "2*2^0 + 1*2^2"

    def test_three_cube_polynomial(self):
        for parity in ("even", "odd"):
            p = decompose_power_of_two(3, parity)
            assert p.as_dict() == {0: 4, 1: 4, 3: 1}
            assert p.value() == 20

    def test_values_match_pinned_counts(self):
        for n in range(2, 6):
            for parity in ("even", "odd"):
                assert decompose_power_of_two(n, parity).value() == PINNED_DEDEKIND[n]

    def test_coefficients_match_partition_terms(self):
        # each coefficient of 2^k counts the layer-pivot terms whose residual
        # has k points, as listed by the independent term enumeration
        for n in range(2, 6):
            for parity in ("even", "odd"):
                terms = partition_terms(Subposet.cube(n), construct_layer_subset(n, parity))
                sizes = Counter(len(t.residual) for t in terms)
                assert decompose_power_of_two(n, parity).as_dict() == dict(sizes)

    def test_non_layer_pivot_is_reported(self, monkeypatch):
        # a single middle point leaves a comparable pair in one residual;
        # the per-leaf antichain verification must catch it
        monkeypatch.setattr(
            partition_module, "construct_layer_subset", lambda n, p: Subposet(2, (2,))
        )
        with pytest.raises(FalsificationError, match="not an antichain"):
            decompose_power_of_two(2, "even")

    def test_memoized_walk_matches_leaf_walk_on_layers(self):
        for n in range(2, 7):
            for parity in ("even", "odd"):
                A = construct_layer_subset(n, parity)
                sizes = Counter(r.bit_count() for r in reference_leaf_residuals(A))
                assert decompose_power_of_two(n, parity).as_dict() == dict(sizes)

    def test_size_polynomial_matches_leaf_sizes_on_any_pivot(self, rng):
        for A in pivot_pool(rng):
            sizes = Counter(r.bit_count() for r in reference_leaf_residuals(A))
            assert partition_module._residual_sizes(A.bitset, A.dim, fresh_run()) == dict(sizes)

    def test_bitset_walk_matches_tuple_walk(self, rng):
        # the same polynomial from the same number of distinct states as the
        # tuple-keyed walk, on any pivot and on both layers of E^2-E^6
        pool = pivot_pool(rng)
        pool += [construct_layer_subset(n, p) for n in range(2, 7) for p in ("even", "odd")]
        for A in pool:
            walk, reference = fresh_run(), fresh_run()
            got = partition_module._residual_sizes(A.bitset, A.dim, walk)
            assert got == reference_tuple_walk(A.bitset, A.dim, reference)
            assert walk.nodes == reference.nodes

    @pytest.mark.parametrize("max_nodes", [0, 1, 50, 150, 296, 297, 298])
    def test_budget_stops_both_walks_at_the_same_node(self, max_nodes):
        # the odd layer of E^5 spends 297 nodes on either walk
        A = construct_layer_subset(5, "odd")
        outcomes = []
        for walk in (partition_module._residual_sizes, reference_tuple_walk):
            run = partition_module._EngineRun(None, max_nodes, None)
            try:
                outcomes.append((walk(A.bitset, A.dim, run), run.nodes))
            except BudgetExceededError:
                outcomes.append((None, run.nodes))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is None) == (max_nodes < 297)

    def test_walk_peak_below_tuple_walk(self):
        A = construct_layer_subset(6, "odd")
        partition_module._residual_sizes(A.bitset, A.dim, fresh_run())  # builds the cached tables
        peaks = []
        gc.disable()
        try:
            for walk in (partition_module._residual_sizes, reference_tuple_walk):
                tracemalloc.start()
                try:
                    walk(A.bitset, A.dim, fresh_run())
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert peaks[0] < peaks[1]

    def test_edge_check_iff_some_leaf_residual_is_comparable(self, rng):
        pool = pivot_pool(rng)
        pool += [construct_layer_subset(n, p) for n in range(2, 6) for p in ("even", "odd")]
        seen = set()
        for A in pool:
            comparable = any(
                reference_comparable_pair(r, A.dim) is not None
                for r in reference_leaf_residuals(A)
            )
            assert (partition_module._free_edge(A.bitset, A.dim) is not None) == comparable
            seen.add(comparable)
        assert seen == {False, True}

    def test_named_map_leaves_its_pair_free(self, rng, monkeypatch):
        pattern = re.compile(
            r"not an antichain: ([01]+) below ([01]+) "
            r"\(n=(\d+), parity=odd, pivot values (.*)\)$"
        )
        for A in pivot_pool(rng):
            if partition_module._free_edge(A.bitset, A.dim) is None:
                continue
            monkeypatch.setattr(partition_module, "construct_layer_subset", lambda n, p: A)
            with pytest.raises(FalsificationError) as info:
                decompose_power_of_two(A.dim, "odd")
            low, high, n, pivot_text = pattern.search(str(info.value)).groups()
            m, y = Point.from_text(low), Point.from_text(high)
            assert int(n) == A.dim == m.dim
            # the pair is a cube edge with both ends outside A
            assert y.mask & ~m.mask and (y.mask ^ m.mask).bit_count() == 1
            assert m.mask not in A.masks and y.mask not in A.masks
            outside = set(range(1 << A.dim)) - set(A.masks)
            least = min(
                (p, p | 1 << i)
                for p in outside
                for i in range(A.dim)
                if not p >> i & 1 and p | 1 << i in outside
            )
            assert (m.mask, y.mask) == least
            named = [item.split("=") for item in pivot_text.split(", ")] if A.masks else []
            assert [Point.from_text(p).mask for p, _ in named] == list(A.masks)
            values = [int(v) for _, v in named]
            for (a, va), (b, vb) in itertools.combinations(zip(A.masks, values), 2):
                if a & ~b == 0:
                    assert va <= vb  # the named map is monotone
            forced = _generated_bits(A, values)
            assert not forced >> m.mask & 1 and not forced >> y.mask & 1

    def test_nodes_count_distinct_walk_states(self):
        # 9,661 distinct undecided | live states on the even layer of E^6,
        # against 89,128 pivot maps; each state spends one node
        assert decompose_power_of_two(6, "even", max_nodes=9661).value() == PINNED_DEDEKIND[6]
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(6, "even", max_nodes=9660)

    def test_deep_walks_keep_the_budget_contract(self):
        # the walk is |A| = 1024 decisions deep here: it must run out of its
        # node budget, not of Python's recursion limit
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(11, "even", max_nodes=10_000)

    def test_walk_memo_released_on_return(self):
        decompose_power_of_two(6, "odd")  # builds the cached tables
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            decompose_power_of_two(6, "odd")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        # freed by reference counting alone, with no collector pass
        assert retained < 500_000

    def test_budgets(self):
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(3, "even", max_nodes=1)
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(6, "even", budget_seconds=0.0)

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            decompose_power_of_two(3, "both")
        with pytest.raises(ValueError):
            decompose_power_of_two(1, "even")
