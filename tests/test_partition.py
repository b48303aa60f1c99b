"""The recursive partition engine: counting, term expansion, completeness
predicates and oracles, the two pivot-set constructions, and the power-of-two
decomposition."""

import gc
import itertools
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedekind.partition as partition_module
from conftest import brute_count_monotone, random_subposet
from dedekind.errors import BudgetExceededError, FalsificationError
from dedekind.monotone import count_monotone_oracle
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
    Point,
    Subposet,
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


def exhaustive_key(S: Subposet, fold: bool) -> bytes:
    """The key the refined canonical form replaced: the least membership
    image of S over every row of the symmetry table."""
    tables = partition_module._symmetry_tables(S.dim)
    rows = tables if fold else tables[: tables.shape[0] // 2]
    memb = np.zeros((1 << S.dim) + 1, dtype=np.uint8)
    memb[list(S.masks)] = 1
    return min(bytes(image) for image in np.packbits(memb[rows], axis=1))


def assert_orbits_match_exhaustive(rng, sets, fold: bool) -> None:
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
            pairs.add((canonical_key(T, fold_duality=fold), exhaustive_key(T, fold)))
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
    return partition_module._EngineRun(None, False, None, None)


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
            layer = count_via_partition(cube, "layer")
            explicit = count_via_partition(cube, Subposet(n, (0, (1 << n) - 1)))
            assert single == layer == explicit == PINNED_DEDEKIND[n]

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            count_via_partition(Subposet(2, (0, 1)), "layer")  # not the full cube
        with pytest.raises(ValueError):
            count_via_partition(Subposet.cube(1), "layer")  # dimension too small
        with pytest.raises(ValueError):
            count_via_partition(Subposet.cube(2), "zigzag")
        with pytest.raises(ValueError):
            count_via_partition(Subposet(2, (0,)), Subposet(2, (3,)))  # pivot not inside

    def test_cache_on_off_identical(self, rng):
        # with the cache off no canonical key is computed, so the E^6
        # residuals check the engine's memo against plain recursion
        sets = [random_subposet(rng, 4) for _ in range(10)]
        sets += [cube_residual(rng, 6) for _ in range(8)]
        for S in sets:
            assert count_via_partition(S, use_cache=True) == count_via_partition(
                S, use_cache=False
            )

    def test_shared_cache_reuse(self):
        cache = MemoCache()
        first = count_via_partition(Subposet.cube(4), cache=cache)
        misses_after_first = cache.misses
        second = count_via_partition(Subposet.cube(4), cache=cache)
        assert first == second == 168
        # the warm run answers from the table without a single new entry
        assert cache.misses == misses_after_first
        assert cache.hits >= 1

    @pytest.mark.parametrize("maxsize", [1, 4, 64])
    def test_evicting_cache_matches_oracle(self, rng, maxsize):
        for n, trials in ((4, 10), (5, 6)):
            for _ in range(trials):
                S = random_subposet(rng, n)
                cache = MemoCache(maxsize=maxsize)
                assert count_via_partition(S, cache=cache) == count_monotone_oracle(S)
                assert len(cache) <= maxsize

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
        for strategy in ("single", "layer", Subposet.cube(3)):
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
        assert count_via_partition(S) == count_monotone_oracle(S)

    def test_pivot_walk_matches_partition_terms(self, rng):
        # the engine's pivot walk against the enumeration oracle's term list,
        # which shares no code with it
        for n, trials in ((4, 20), (5, 8)):
            for _ in range(trials):
                S = random_subposet(rng, n, density=0.6)
                A = Subposet(n, tuple(m for m in S.masks if rng.random() < 0.35))
                expected = sum(
                    count_monotone_oracle(t.residual) for t in partition_terms(S, A)
                )
                assert count_via_partition(S, A) == expected


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


class TestCanonicalKey:
    def test_coordinate_relabeling_invariance(self, rng):
        for dim in range(CANONICAL_DIM_CAP + 1):
            for _ in range(40):
                S = random_subposet(rng, dim)
                perm = list(range(dim))
                rng.shuffle(perm)
                T = permute_coordinates(S, perm)
                for fold in (True, False):
                    assert canonical_key(S, fold_duality=fold) == canonical_key(
                        T, fold_duality=fold
                    )
                assert canonical_key(S.dual()) == canonical_key(S)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coordinate_relabeling_invariance_hypothesis(self, data):
        dim = data.draw(st.integers(min_value=0, max_value=CANONICAL_DIM_CAP))
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << dim)) - 1))
        perm = data.draw(st.permutations(range(dim)))
        S = Subposet(dim, tuple(m for m in range(1 << dim) if bits >> m & 1))
        T = permute_coordinates(S, perm)
        for fold in (True, False):
            assert canonical_key(T, fold_duality=fold) == canonical_key(S, fold_duality=fold)
        assert canonical_key(S.dual()) == canonical_key(S)

    @pytest.mark.parametrize("fold", [True, False])
    def test_orbits_match_exhaustive_key_on_random_sets(self, rng, fold):
        for dim, trials in ((4, 40), (5, 30), (6, 20), (7, 10)):
            sets = [random_subposet(rng, dim) for _ in range(trials)]
            assert_orbits_match_exhaustive(rng, sets, fold)

    @pytest.mark.parametrize("fold", [True, False])
    def test_orbits_match_exhaustive_key_where_invariants_tie(self, rng, fold):
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
            assert_orbits_match_exhaustive(rng, sets, fold)

    @pytest.mark.parametrize("fold", [True, False])
    def test_orbits_match_exhaustive_key_on_cube_residuals(self, rng, fold):
        for dim, trials in ((6, 20), (7, 12)):
            sets = [cube_residual(rng, dim) for _ in range(trials)]
            assert_orbits_match_exhaustive(rng, sets, fold)

    @pytest.mark.parametrize("fold", [True, False])
    def test_keys_partition_like_brute_orbits(self, fold):
        # the brute key: the least sorted mask tuple over every image of S
        # under the symmetries the key claims to fold
        for dim in (2, 3):
            size = 1 << dim
            perms = list(itertools.permutations(range(dim)))
            pairs = set()
            for bits in range(1 << size):
                S = Subposet(dim, tuple(m for m in range(size) if bits >> m & 1))
                images = [permute_coordinates(S, list(p)) for p in perms]
                if fold:
                    images += [T.dual() for T in images]
                pairs.add((canonical_key(S, fold_duality=fold), min(T.masks for T in images)))
            # equal keys exactly when equal brute keys: the pairing is a bijection
            assert len(pairs) == len({k for k, _ in pairs}) == len({b for _, b in pairs})

    def test_single_points_of_square_share_key(self):
        assert canonical_key(Subposet(2, (2,))) == canonical_key(Subposet(2, (1,)))

    def test_duality_folding(self):
        S = Subposet(1, (0,))
        assert canonical_key(S) == canonical_key(S.dual())
        assert canonical_key(S, fold_duality=False) != canonical_key(
            S.dual(), fold_duality=False
        )

    def test_distinguishes_chain_from_v_shape(self):
        chain3 = Subposet(2, (0, 1, 3))
        v3 = Subposet(2, (0, 1, 2))
        assert canonical_key(chain3) != canonical_key(v3)

    def test_equal_keys_imply_isomorphism(self, rng):
        buckets: dict[bytes, Subposet] = {}
        for _ in range(150):
            S = random_subposet(rng, 3)
            key = canonical_key(S, fold_duality=False)
            if key in buckets:
                assert cover_preserving_isomorphic(buckets[key], S)
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

    def test_lru_eviction(self):
        cache = MemoCache(maxsize=2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        assert cache.get(b"a") == 1  # refresh a
        cache.put(b"c", 3)  # evicts b
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1
        assert cache.get(b"c") == 3

    def test_clear_resets_everything(self):
        cache = MemoCache()
        cache.put(b"a", 1)
        cache.get(b"a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0}

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            MemoCache(maxsize=0)


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

    def test_face_condition_matches_predicate(self, rng):
        cube2 = Subposet.cube(2)
        for bits in range(16):
            A = Subposet(2, tuple(m for m in range(4) if bits >> m & 1))
            for mode in ("ambient", "induced"):
                assert e2_condition_check(A, 2, mode) == is_complete_partition(
                    A, cube2, mode
                )
        cube3 = Subposet.cube(3)
        for _ in range(60):
            A = random_subposet(rng, 3)
            for mode in ("ambient", "induced"):
                assert e2_condition_check(A, 3, mode) == is_complete_partition(
                    A, cube3, mode
                )


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
            assert partition_module._residual_sizes(A, fresh_run()) == dict(sizes)

    def test_edge_check_iff_some_leaf_residual_is_comparable(self, rng):
        pool = pivot_pool(rng)
        pool += [construct_layer_subset(n, p) for n in range(2, 6) for p in ("even", "odd")]
        seen = set()
        for A in pool:
            comparable = any(
                reference_comparable_pair(r, A.dim) is not None
                for r in reference_leaf_residuals(A)
            )
            assert (partition_module._free_edge(A) is not None) == comparable
            seen.add(comparable)
        assert seen == {False, True}

    def test_named_map_leaves_its_pair_free(self, rng):
        pattern = re.compile(
            r"not an antichain: ([01]+) below ([01]+) "
            r"\(n=(\d+), parity=odd, pivot values (.*)\)$"
        )
        for A in pivot_pool(rng):
            if partition_module._free_edge(A) is None:
                continue
            with pytest.raises(FalsificationError) as info:
                partition_module._layer_polynomial(A, "odd", fresh_run())
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
        # 9,661 distinct (undecided, live) states on the even layer of E^6,
        # against 89,128 pivot maps; each state spends one node
        D6 = PINNED_DEDEKIND[6]
        assert decompose_power_of_two(6, "even", max_nodes=9661).value() == D6
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(6, "even", max_nodes=9660)
        assert count_via_partition(Subposet.cube(6), "layer", max_nodes=9661) == D6

    def test_deep_walks_keep_the_budget_contract(self):
        # the walk is |A| = 1024 decisions deep here: it must run out of its
        # node budget, not of Python's recursion limit
        with pytest.raises(BudgetExceededError):
            decompose_power_of_two(11, "even", max_nodes=10_000)
        with pytest.raises(BudgetExceededError):
            count_via_partition(Subposet.cube(11), "layer", max_nodes=10_000)

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
