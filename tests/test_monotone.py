"""Monotone-map enumeration and the DFS counting oracle."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_count_monotone, random_subposet
from dedekind.errors import BudgetExceededError
from dedekind.monotone import (
    MonotoneMap,
    count_monotone_oracle,
    enumerate_monotone,
    is_monotone,
)
from dedekind.poset import Point, Subposet

ROOT = Path(__file__).resolve().parent.parent


def chain(k: int) -> Subposet:
    # 0 < 1 < 11 < 111 < ... : k nested prefix masks
    return Subposet(max(k, 1), tuple((1 << i) - 1 for i in range(k)))


def reference_tables(S: Subposet):
    """Up- and down-sets along the linear extension (weight, then numeric
    value), as the oracle built them with both directions."""
    order = sorted(range(len(S.masks)), key=lambda i: (S.masks[i].bit_count(), S.masks[i]))
    ext = [S.masks[i] for i in order]
    k = len(ext)
    up = [1 << i for i in range(k)]
    down = [1 << i for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if ext[i] & ~ext[j] == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down, order


def reference_count(S: Subposet) -> tuple[int, int]:
    """(count, nodes) of the recursive DFS that calls itself on both
    branches, forcing the down-set of a point fixed to 0."""
    if not S.masks:
        return 1, 0
    up, down, _ = reference_tables(S)
    nodes = 0

    def rec(undecided: int) -> int:
        nonlocal nodes
        nodes += 1
        if undecided == 0:
            return 1
        i = (undecided & -undecided).bit_length() - 1
        return rec(undecided & ~down[i]) + rec(undecided & ~up[i])

    return rec((1 << len(S.masks)) - 1), nodes


def reference_walk(S: Subposet) -> list[int]:
    """The bits, in order, of the enumeration walk whose 0 branch decides
    the whole down-set of the point it fixes."""
    k = len(S.masks)
    if k == 0:
        return [0]
    up, down, order = reference_tables(S)
    full = (1 << k) - 1

    def walk(decided: int, ones: int):
        if decided == full:
            yield ones
            return
        free = ~decided & full
        i = (free & -free).bit_length() - 1
        yield from walk(decided | down[i], ones)
        yield from walk(decided | up[i], ones | up[i])

    return [
        sum(1 << order[pos] for pos in range(k) if ones >> pos & 1)
        for ones in walk(0, 0)
    ]


def oracle_pool(seed: int, dims, per_dim: int) -> list[Subposet]:
    """Every subset of E^3, then seeded random subsets of each dimension in
    dims."""
    rng = random.Random(seed)
    pool = [Subposet(3, tuple(m for m in range(8) if bits >> m & 1)) for bits in range(256)]
    pool += [random_subposet(rng, n) for n in dims for _ in range(per_dim)]
    return pool


class TestEnumerate:
    def test_empty_domain_single_map(self):
        maps = list(enumerate_monotone(Subposet.empty(3)))
        assert len(maps) == 1
        assert maps[0].bits == 0
        assert maps[0].values() == ()

    def test_single_point_two_maps(self):
        S = Subposet(2, (0b01,))
        maps = list(enumerate_monotone(S))
        assert sorted(m.bits for m in maps) == [0, 1]

    def test_square_six_maps(self):
        maps = list(enumerate_monotone(Subposet.cube(2)))
        assert len(maps) == 6
        # value tuples follow the ascending-mask order 00, 10, 01, 11
        got = {m.values() for m in maps}
        assert got == {
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 1),
        }

    def test_deterministic_order(self):
        S = Subposet(3, (0, 1, 2, 5, 7))
        first = [m.bits for m in enumerate_monotone(S)]
        second = [m.bits for m in enumerate_monotone(S)]
        assert first == second

    def test_no_duplicates_all_monotone(self, rng):
        for _ in range(30):
            S = random_subposet(rng, 3)
            maps = list(enumerate_monotone(S))
            assert len({m.bits for m in maps}) == len(maps)
            assert all(is_monotone(m) for m in maps)
            assert len(maps) == brute_count_monotone(S)

    def test_bits_sequence_matches_reference_walk(self):
        # the 0 branch decides one point where the reference decided its
        # down-set: same maps, same order
        for S in oracle_pool(29, (4, 5), 30):
            assert [m.bits for m in enumerate_monotone(S)] == reference_walk(S)

    def test_enumeration_cap(self):
        S = Subposet(6, tuple(range(41)))
        with pytest.raises(BudgetExceededError):
            list(enumerate_monotone(S))
        # a raised cap lets the same domain through
        assert sum(1 for _ in enumerate_monotone(chain(3), cap=3)) == 4


class TestOracle:
    def test_chains_count_thresholds(self):
        for k in range(1, 7):
            assert count_monotone_oracle(chain(k)) == k + 1

    def test_up_v_shape(self):
        S = Subposet.from_points(
            [Point.from_text("00"), Point.from_text("01"), Point.from_text("10")]
        )
        assert count_monotone_oracle(S) == 5

    def test_full_cubes(self):
        got = [count_monotone_oracle(Subposet.cube(n)) for n in range(6)]
        assert got == [2, 3, 6, 20, 168, 7581]

    def test_matches_enumeration_length(self, rng):
        for _ in range(20):
            S = random_subposet(rng, 4, density=0.4)
            assert count_monotone_oracle(S) == sum(1 for _ in enumerate_monotone(S))

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            count_monotone_oracle(Subposet.cube(4), max_nodes=10)

    def test_matches_recursive_reference(self):
        for S in oracle_pool(31, (4, 5), 40):
            assert count_monotone_oracle(S) == reference_count(S)[0]

    def test_nodes_are_twice_the_count_less_one(self):
        # a full binary tree with one leaf per map: max_nodes = 2D - 1 is
        # exactly enough, one fewer raises
        rng = random.Random(37)
        for n in range(1, 6):
            for _ in range(12):
                S = random_subposet(rng, n)
                if not S.masks:
                    continue
                count, nodes = reference_count(S)
                assert nodes == 2 * count - 1
                assert count_monotone_oracle(S, max_nodes=nodes) == count
                with pytest.raises(BudgetExceededError):
                    count_monotone_oracle(S, max_nodes=nodes - 1)

    def test_empty_set_needs_no_node(self):
        assert count_monotone_oracle(Subposet.empty(3), max_nodes=0) == 1

    @pytest.mark.parametrize("S", [Subposet.empty(2), Subposet.cube(2)], ids=["empty", "square"])
    def test_negative_budget_rejected(self, S):
        with pytest.raises(ValueError, match="max_nodes must be >= 0, got -1"):
            count_monotone_oracle(S, max_nodes=-1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_matches_brute_force_on_e4(self, member_bits):
        S = Subposet(4, tuple(m for m in range(16) if member_bits >> m & 1))
        assert count_monotone_oracle(S) == brute_count_monotone(S)


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(level, module) of every import in a source file; level 0 is an
    absolute import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


class TestIndependence:
    def test_oracle_imports_no_engine_code(self):
        # the oracle checks the engine, so it may read only the poset
        # primitives, the error types and the standard library
        for level, module in imported_modules(ROOT / "src" / "dedekind" / "monotone.py"):
            if level:
                assert level == 1 and module in ("errors", "poset"), module
            else:
                assert module.split(".")[0] in sys.stdlib_module_names, module

    def test_brute_counter_imports_no_engine_or_oracle(self):
        # conftest.py's brute counter checks both, so it reaches the package
        # only through the poset and error modules
        for _, module in imported_modules(ROOT / "tests" / "conftest.py"):
            if module.split(".")[0] == "dedekind":
                assert module in ("dedekind.poset", "dedekind.errors"), module


class TestCountLaws:
    def test_antichain_powers_of_two(self):
        for k in range(1, 7):
            layer = Subposet(k, tuple(1 << i for i in range(k)))
            assert count_monotone_oracle(layer) == 2**k
        middle = Subposet(4, tuple(m for m in range(16) if m.bit_count() == 2))
        assert count_monotone_oracle(middle) == 2**6

    def test_incomparable_union_multiplies(self, rng):
        # bits 0-1 only vs bits 2-3 only (both nonzero): no cross comparabilities
        low_pool = [1, 2, 3]
        high_pool = [4, 8, 12]
        X = Subposet(4, (1, 3))
        Y = Subposet(4, (4, 12))
        union = Subposet(4, X.masks + Y.masks)
        assert count_monotone_oracle(union) == 9
        for _ in range(25):
            xs = tuple(m for m in low_pool if rng.random() < 0.6)
            ys = tuple(m for m in high_pool if rng.random() < 0.6)
            lhs = count_monotone_oracle(Subposet(4, xs + ys))
            rhs = count_monotone_oracle(Subposet(4, xs)) * count_monotone_oracle(
                Subposet(4, ys)
            )
            assert lhs == rhs

    def test_dual_invariance(self, rng):
        for _ in range(25):
            S = random_subposet(rng, 4)
            assert count_monotone_oracle(S) == count_monotone_oracle(S.dual())


class TestIsMonotone:
    def test_all_zeros_always_monotone(self, rng):
        for _ in range(10):
            S = random_subposet(rng, 3)
            assert is_monotone(MonotoneMap(S, 0))

    def test_violated_comparable_pair(self):
        S = Subposet(2, (0b00, 0b11))
        # bit 0 is the value at mask 0; assigning 1 below and 0 above breaks order
        assert not is_monotone(MonotoneMap(S, 0b01))
        assert is_monotone(MonotoneMap(S, 0b10))

    def test_antichain_unconstrained(self):
        S = Subposet(2, (0b01, 0b10))
        for bits in range(4):
            assert is_monotone(MonotoneMap(S, bits))

    def test_value_lookup(self):
        S = Subposet(2, (0, 1, 3))
        m = MonotoneMap(S, 0b110)
        assert m.value(Point(0, 2)) == 0
        assert m.value(Point(1, 2)) == 1
        assert m.value(Point(3, 2)) == 1
        assert m.values() == (0, 1, 1)
        with pytest.raises(ValueError):
            m.value(Point(2, 2))  # not in the domain
        with pytest.raises(ValueError):
            m.value(Point(0, 3))  # wrong dimension
