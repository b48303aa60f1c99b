"""Order-theoretic core: points, subposets, cover relations, V-shape search,
and the cover-preserving isomorphism routine."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedekind.errors import PosetParseError
from dedekind.poset import (
    COVER_MODES,
    CoverPair,
    Point,
    Subposet,
    V3Witness,
    _cover_arms,
    cover_preserving_isomorphic,
    covers,
    find_v3,
    generated_subset,
    induced_cover_pairs,
    leq,
    lower_set,
    upper_set,
    weight,
)


def P(text: str) -> Point:
    return Point.from_text(text)


def S(dim: int, *texts: str) -> Subposet:
    return Subposet.from_points([Point.from_text(t) for t in texts]) if texts else Subposet(dim, ())


def union_reference(A: Subposet, y) -> Subposet:
    """The set-union path generated_subset replaced: merge the up-set or
    down-set of every member of A in a Python set."""
    masks: set[int] = set()
    for m, v in zip(A.masks, y):
        p = Point(m, A.dim)
        masks.update((upper_set(p) if v else lower_set(p)).masks)
    return Subposet(A.dim, tuple(masks))


def pair_list_find_v3(S: Subposet, mode: str) -> V3Witness | None:
    """The V-search find_v3 replaced: build the cover pairs of S as a list,
    index them by end point, then take the first apex with two arms."""
    if mode == "ambient":
        pairs = [CoverPair(Point(a, S.dim), Point(b, S.dim), "ambient")
                 for i, a in enumerate(S.masks) for b in S.masks[i + 1:]
                 if a & ~b == 0 and (a ^ b).bit_count() == 1]
    else:
        pairs = induced_cover_pairs(S)
    up: dict[int, list[int]] = {}
    down: dict[int, list[int]] = {}
    for cp in pairs:
        up.setdefault(cp.lower.mask, []).append(cp.upper.mask)
        down.setdefault(cp.upper.mask, []).append(cp.lower.mask)
    for apex in S.masks:
        candidates = []
        ups = sorted(up.get(apex, ()))
        if len(ups) >= 2:
            candidates.append((ups[0], ups[1], "up"))
        downs = sorted(down.get(apex, ()))
        if len(downs) >= 2:
            candidates.append((downs[0], downs[1], "down"))
        if candidates:
            lo, hi, orientation = min(candidates)
            return V3Witness(Point(apex, S.dim),
                             (Point(lo, S.dim), Point(hi, S.dim)), orientation)
    return None


def v3_differential_pool() -> list[Subposet]:
    """Every subset of E^2 and E^3, then seeded random subsets of E^4-E^8."""
    pool = [Subposet(n, tuple(m for m in range(1 << n) if bits >> m & 1))
            for n in (2, 3) for bits in range(1 << (1 << n))]
    rng = random.Random(8)
    for n in range(4, 9):
        for _ in range(40 if n < 7 else 12):
            density = rng.uniform(0.05, 0.6)
            pool.append(Subposet(n, tuple(m for m in range(1 << n) if rng.random() < density)))
    return pool


class TestPoint:
    def test_text_packing_low_coordinate_first(self):
        # "110": coordinate 1 and 2 set, coordinate 3 clear
        p = P("110")
        assert p.mask == 0b011
        assert p.dim == 3
        assert str(p) == "110"

    def test_roundtrip(self):
        for text in ("0", "1", "00", "1011", "11111", "0000000"):
            assert str(P(text)) == text

    def test_weight(self):
        assert weight(P("000")) == 0
        assert weight(P("1011")) == 3
        assert weight(P("11111")) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Point(4, 2)  # mask outside the low bits
        with pytest.raises(ValueError):
            Point(0, 17)
        with pytest.raises(ValueError):
            Point(-1, 3)
        with pytest.raises(PosetParseError):
            Point.from_text("10x")
        with pytest.raises(PosetParseError):
            Point.from_text("")

    def test_leq(self):
        assert leq(P("010"), P("011"))
        assert not leq(P("010"), P("101"))
        a = P("0110")
        assert leq(a, a)
        with pytest.raises(ValueError):
            leq(P("01"), P("011"))

    def test_covers(self):
        assert covers(P("011"), P("001"))
        assert not covers(P("111"), P("001"))  # weight gap 2
        assert not covers(P("011"), P("100"))  # incomparable
        assert not covers(P("001"), P("011"))  # wrong direction

    def test_order_axioms_exhaustive(self):
        n = 3
        pts = [Point(m, n) for m in range(1 << n)]
        for a in pts:
            assert leq(a, a)
            for b in pts:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in pts:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    def test_cover_implies_order_and_weight(self):
        n = 4
        pts = [Point(m, n) for m in range(1 << n)]
        for a in pts:
            for b in pts:
                if covers(a, b):
                    assert leq(b, a)
                    assert weight(a) == weight(b) + 1


class TestSubposet:
    def test_membership_normalized(self):
        sub = Subposet(2, (3, 0, 3))
        assert sub.masks == (0, 3)
        assert len(sub) == 2
        assert Point(3, 2) in sub
        assert Point(1, 2) not in sub

    def test_membership_needs_same_dimension(self):
        sub = Subposet(2, (1, 3))
        assert Point(1, 2) in sub
        assert Point(1, 3) not in sub
        assert Point(3, 3) not in sub
        assert Point(0, 0) not in Subposet.empty(0)
        assert Point(0, 0) in Subposet.cube(0)

    def test_validation(self):
        for masks in ((4,), (-1,), (1, 2.0), (1, "a"), ("a", 1), (1, [2])):
            # a mask of another type is rejected like one out of range,
            # not by a TypeError from sorting
            with pytest.raises(ValueError, match="out of range for dimension 2"):
                Subposet(2, masks)
        with pytest.raises(ValueError):
            Subposet(13, ())

    def test_cube_and_empty(self):
        assert len(Subposet.cube(3)) == 8
        assert len(Subposet.empty(3)) == 0
        assert Subposet.cube(0).masks == (0,)

    def test_minus_and_dual(self):
        cube = Subposet.cube(2)
        rest = cube.minus(S(2, "00", "11"))
        assert rest.masks == (1, 2)
        chain = S(3, "000", "100", "110")
        assert chain.dual().masks == tuple(sorted(7 ^ m for m in chain.masks))

    def test_from_points_needs_one_known_dimension(self):
        with pytest.raises(ValueError, match="cannot infer dimension"):
            Subposet.from_points([])
        with pytest.raises(ValueError, match="all points must share one dimension"):
            Subposet.from_points([P("01"), P("011")])
        assert Subposet.from_points([P("11"), P("10")]) == S(2, "10", "11")

    def test_minus_needs_one_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            Subposet.cube(2).minus(Subposet.cube(3))

    def test_iterates_points_in_mask_order(self):
        assert list(Subposet(2, (3, 1))) == [Point(1, 2), Point(3, 2)]

    def test_text_roundtrip(self):
        sub = S(3, "000", "110", "011")
        again = Subposet.from_text(sub.to_text())
        assert again == sub

    def test_parse_errors(self):
        with pytest.raises(PosetParseError):
            Subposet.from_text("001\n010\n")  # missing header
        with pytest.raises(PosetParseError):
            Subposet.from_text("n=2\n01\n01\n")  # duplicate
        with pytest.raises(PosetParseError):
            Subposet.from_text("n=2\n012\n")
        with pytest.raises(PosetParseError):
            Subposet.from_text("n=0x\n")

    def test_parse_allows_blank_lines_and_empty_set(self):
        assert Subposet.from_text("n=3\n\n101\n\n") == S(3, "101")
        assert Subposet.from_text("n=2\n") == Subposet.empty(2)


class TestSetConstructions:
    def test_upper_lower_basics(self):
        assert upper_set(P("11")).masks == (3,)
        assert lower_set(P("00")).masks == (0,)
        assert upper_set(P("01")).masks == (2, 3)  # {01, 11}

    def test_upper_lower_match_order(self):
        rng = random.Random(12)
        points = [Point(m, n) for n in range(8) for m in range(1 << n)]
        points += [Point(rng.randrange(1 << 12), 12) for _ in range(8)]
        points += [Point(0, 12), Point((1 << 12) - 1, 12)]
        for a in points:
            n = a.dim
            above = tuple(b for b in range(1 << n) if leq(a, Point(b, n)))
            below = tuple(b for b in range(1 << n) if leq(Point(b, n), a))
            assert upper_set(a).masks == above
            assert lower_set(a).masks == below

    def test_sizes(self):
        for n in range(1, 5):
            for m in range(1 << n):
                a = Point(m, n)
                assert len(upper_set(a)) == 1 << (n - weight(a))
                assert len(lower_set(a)) == 1 << weight(a)

    def test_generated_subset(self):
        A = S(2, "00", "11")
        assert generated_subset(A, (0, 1)).masks == (0, 3)
        assert generated_subset(A, (1, 1)) == Subposet.cube(2)
        B = S(3, "010")
        assert generated_subset(B, (0,)).masks == (0, 2)  # {000, 010}

    def test_generated_subset_matches_union_on_small_cubes(self):
        for n in (2, 3):
            for bits in range(1 << (1 << n)):
                A = Subposet(n, tuple(m for m in range(1 << n) if bits >> m & 1))
                for y in itertools.product((0, 1), repeat=len(A)):
                    assert generated_subset(A, y) == union_reference(A, y)

    def test_generated_subset_matches_union_on_random_pivots(self):
        rng = random.Random(5)
        for n in (4, 5, 6):
            for _ in range(60):
                density = rng.uniform(0.05, 0.5)
                A = Subposet(n, tuple(m for m in range(1 << n) if rng.random() < density))
                y = tuple(rng.randrange(2) for _ in A.masks)
                assert generated_subset(A, y) == union_reference(A, y)

    def test_generated_subset_matches_order(self):
        # anchored to leq alone, since upper_set and lower_set read the same
        # tables as generated_subset
        rng = random.Random(9)
        for n in range(1, 7):
            for _ in range(12):
                A = Subposet(n, tuple(m for m in range(1 << n) if rng.random() < 0.3))
                y = tuple(rng.randrange(2) for _ in A.masks)
                region = tuple(
                    b for b in range(1 << n)
                    if any(leq(p, Point(b, n)) if v else leq(Point(b, n), p)
                           for p, v in zip(A.points, y)))
                assert generated_subset(A, y).masks == region

    def test_generated_subset_validation(self):
        A = S(2, "00", "11")
        with pytest.raises(ValueError, match="value vector length 1 != "):
            generated_subset(A, (0,))
        with pytest.raises(ValueError, match="value vector length 3 != "):
            generated_subset(A, (0, 1, 1))
        with pytest.raises(ValueError, match="value vector length 1 != "):
            generated_subset(Subposet.empty(2), (1,))
        with pytest.raises(ValueError, match="values must be 0 or 1, got 2"):
            generated_subset(A, (0, 2))
        with pytest.raises(ValueError, match="values must be 0 or 1, got 2"):
            generated_subset(A, (2, 0))
        with pytest.raises(ValueError, match="values must be 0 or 1, got -1"):
            generated_subset(A, (1, -1))


class TestCoverPairs:
    def test_induced_basics(self):
        pairs = induced_cover_pairs(S(2, "00", "11"))
        assert [(str(c.lower), str(c.upper)) for c in pairs] == [("00", "11")]
        square = induced_cover_pairs(Subposet.cube(2))
        assert [(str(c.lower), str(c.upper)) for c in square] == [
            ("00", "10"), ("00", "01"), ("10", "11"), ("01", "11")]
        assert induced_cover_pairs(S(2, "10", "01")) == []

    def test_ambient_cover_membership(self):
        sub = Subposet.cube(3)
        pairs = induced_cover_pairs(sub)
        seen = {(c.lower.mask, c.upper.mask) for c in pairs}
        for a in sub.points:
            for b in sub.points:
                if covers(a, b):
                    assert (b.mask, a.mask) in seen

    def test_induced_covers_jump_weights(self):
        pairs = induced_cover_pairs(S(3, "000", "011"))
        assert len(pairs) == 1
        assert weight(pairs[0].upper) - weight(pairs[0].lower) == 2

    def test_cover_pair_validation(self):
        with pytest.raises(ValueError):
            CoverPair(P("01"), P("10"), "induced")
        with pytest.raises(ValueError):
            CoverPair(P("00"), P("01"), "sideways")


class TestFindV3:
    def test_square_has_upward_v_at_bottom(self):
        w = find_v3(Subposet.cube(2))
        assert w is not None
        assert str(w.apex) == "00"
        assert sorted(str(p) for p in w.arms) == ["01", "10"]
        assert w.orientation == "up"

    def test_chain_has_none(self):
        assert find_v3(S(3, "000", "001", "011")) is None

    def test_even_layers_mode_split(self):
        even = Subposet(4, tuple(m for m in range(16) if m.bit_count() % 2 == 0))
        assert find_v3(even) is None  # no weight-gap-1 pairs at all
        assert find_v3(even, "ambient") is None
        w = find_v3(even, "induced")
        assert w is not None

    def test_mode_changes_answer_on_sparse_sets(self):
        sparse = S(3, "000", "011", "101")
        assert find_v3(sparse, "ambient") is None
        w = find_v3(sparse, "induced")
        assert w is not None
        assert str(w.apex) == "000"

    def test_witness_arms_incomparable(self):
        with pytest.raises(ValueError):
            V3Witness(P("00"), (P("01"), P("11")), "up")
        with pytest.raises(ValueError):
            V3Witness(P("00"), (P("01"), P("10")), "diagonal")

    def test_witness_arms_sorted_and_distinct(self):
        # "01" is mask 2 and "10" mask 1
        for arms in ((P("01"), P("10")), (P("10"), P("10"))):
            with pytest.raises(ValueError, match="arms must be sorted"):
                V3Witness(P("00"), arms, "up")

    def test_lexicographic_tie_break(self):
        w = find_v3(Subposet.cube(3))
        assert w.apex.mask == 0
        assert tuple(p.mask for p in w.arms) == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1))
    def test_induced_search_matches_triple_isomorphism(self, bits):
        sub = Subposet(4, tuple(m for m in range(12) if bits >> m & 1))
        up_v = S(2, "00", "10", "01")
        down_v = S(2, "11", "10", "01")
        exists = any(
            cover_preserving_isomorphic(Subposet.from_points(list(triple)), v)
            for triple in itertools.combinations(sub.points, 3)
            for v in (up_v, down_v)
        )
        assert (find_v3(sub, "induced") is not None) == exists

    def test_matches_pair_list_search(self):
        for sub in v3_differential_pool():
            for mode in COVER_MODES:
                assert find_v3(sub, mode) == pair_list_find_v3(sub, mode), (sub, mode)

    def test_cover_arms_match_cover_pairs(self):
        for sub in v3_differential_pool():
            up = dict.fromkeys(sub.masks, 0)
            down = dict.fromkeys(sub.masks, 0)
            for cp in induced_cover_pairs(sub):
                up[cp.lower.mask] |= 1 << cp.upper.mask
                down[cp.upper.mask] |= 1 << cp.lower.mask
            for apex in sub.masks:
                assert _cover_arms(sub.bitset, apex, sub.dim, "induced") == (
                    up[apex], down[apex])
                ups, downs = _cover_arms(sub.bitset, apex, sub.dim, "ambient")
                p = Point(apex, sub.dim)
                assert ups == sum(1 << q.mask for q in sub.points if covers(q, p))
                assert downs == sum(1 << q.mask for q in sub.points if covers(p, q))

    def test_mode_is_checked(self):
        for sub in (Subposet.empty(2), Subposet.cube(2)):
            with pytest.raises(ValueError, match="mode must be one of .*'diagonal'"):
                find_v3(sub, "diagonal")

    def test_witness_is_genuine_in_both_modes(self):
        sub = S(4, "0000", "1000", "0100", "1100", "1010", "0110")
        for mode in ("ambient", "induced"):
            w = find_v3(sub, mode)
            if w is None:
                continue
            a, b = w.arms
            assert not leq(a, b) and not leq(b, a)
            assert weight(a) == weight(b)


def brute_isomorphic(P: Subposet, Q: Subposet) -> bool:
    """Whether some bijection P -> Q carries the induced covers of P exactly
    onto those of Q, tried over every bijection."""
    if len(P) != len(Q):
        return False
    p_covers = {(c.lower.mask, c.upper.mask) for c in induced_cover_pairs(P)}
    q_covers = {(c.lower.mask, c.upper.mask) for c in induced_cover_pairs(Q)}
    for image in itertools.permutations(Q.masks):
        f = dict(zip(P.masks, image))
        if {(f[x], f[y]) for x, y in p_covers} == q_covers:
            return True
    return False


def degree_signatures(S: Subposet) -> list[tuple[int, int]]:
    """The sorted (upper covers, lower covers) counts of S's points."""
    pairs = induced_cover_pairs(S)
    return sorted((sum(c.lower.mask == m for c in pairs),
                   sum(c.upper.mask == m for c in pairs)) for m in S.masks)


class TestCoverIsomorphism:
    def test_sizes_differ(self):
        for P, Q in [(S(2, "00", "11"), S(2, "00", "10", "11")), (S(2), S(2, "01"))]:
            assert not cover_preserving_isomorphic(P, Q)
            assert not cover_preserving_isomorphic(Q, P)
            assert not brute_isomorphic(P, Q)

    def test_equal_degree_signatures_not_isomorphic(self):
        # the signatures agree, so the backtracking runs, undoes every
        # candidate and returns False
        P = Subposet(4, (0, 7, 8, 10, 11))
        Q = Subposet(4, (0, 3, 11, 12, 13))
        assert degree_signatures(P) == degree_signatures(Q)
        assert not cover_preserving_isomorphic(P, Q)
        assert not brute_isomorphic(P, Q)

    def test_backtracks_past_a_failed_candidate(self):
        # an isomorphic pair on which the first degree-compatible candidate
        # of some point leads to a dead end, so an assignment is undone
        # before the isomorphism is found
        P = Subposet(4, (1, 2, 5, 10, 14, 15))
        Q = Subposet(4, (2, 3, 4, 11, 13, 15))
        assert cover_preserving_isomorphic(P, Q)
        assert cover_preserving_isomorphic(Q, P)
        assert brute_isomorphic(P, Q)

    def test_matches_brute_force(self, rng):
        # random pairs of at most six points, half of them a set and a
        # coordinate relabelling of another set of the same size
        agree = Counter()
        for _ in range(150):
            n = rng.randrange(2, 5)
            k = rng.randrange(min(7, 1 << n))
            P = Subposet(n, tuple(sorted(rng.sample(range(1 << n), k))))
            Q = Subposet(n, tuple(sorted(rng.sample(range(1 << n), k))))
            if rng.random() < 0.5:
                perm = rng.sample(range(n), n)
                Q = Subposet(n, tuple(sorted(
                    sum((m >> i & 1) << perm[i] for i in range(n)) for m in Q.masks)))
            expected = brute_isomorphic(P, Q)
            assert cover_preserving_isomorphic(P, Q) == expected
            agree[expected] += 1
        assert agree[True] and agree[False]

    def test_identity(self):
        sub = S(3, "000", "110", "011")
        assert cover_preserving_isomorphic(sub, sub)

    def test_up_down_v_not_isomorphic(self):
        up_v = S(2, "00", "01", "10")
        down_v = S(2, "01", "10", "11")
        assert not cover_preserving_isomorphic(up_v, down_v)

    def test_chain_vs_antichain(self):
        assert not cover_preserving_isomorphic(S(2, "00", "11"), S(2, "01", "10"))

    def test_coordinate_relabeling(self):
        a = S(3, "000", "100", "110", "111")
        b = S(3, "000", "001", "011", "111")
        assert cover_preserving_isomorphic(a, b)

    def test_stretched_chain_matches_short_chain(self):
        assert cover_preserving_isomorphic(S(3, "000", "111"), S(1, "0", "1"))

    def test_size_guard(self):
        big = Subposet.cube(4)
        with pytest.raises(ValueError):
            cover_preserving_isomorphic(big, big)

    def test_symmetry_and_transitivity_spot_check(self, rng):
        for _ in range(40):
            n = rng.randrange(2, 4)
            masks = tuple(m for m in range(1 << n) if rng.random() < 0.6)
            a = Subposet(n, masks)
            perm = list(range(n))
            rng.shuffle(perm)
            b = Subposet(n, tuple(sorted(
                sum(((m >> i) & 1) << perm[i] for i in range(n)) for m in masks)))
            assert cover_preserving_isomorphic(a, b)
            assert cover_preserving_isomorphic(b, a)
