"""Monotone 0/1 assignments on a subposet: enumeration and exact counting.

The counter is the package's reference oracle: a plain depth-first search
over a linear extension (ascending weight, ties by numeric value) whose leaf
count is the number of monotone maps, 2*D - 1 nodes for a non-empty set
with D maps.  Each call walks its chain of 0 branches in a loop and
recurses only into 1 branches.  It deliberately carries no memo table, no
symmetry folding and no product decomposition, so it stays an independent
check on the partition engine.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError
from .poset import Point, Subposet, induced_cover_pairs

DEFAULT_ENUMERATION_CAP = 40
DEFAULT_NODE_BUDGET = 200_000_000


@dataclass(frozen=True)
class MonotoneMap:
    """A 0/1 assignment on domain; bit i of bits is the value at domain.masks[i]."""

    domain: Subposet
    bits: int

    def value(self, p: Point) -> int:
        if p.dim != self.domain.dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {self.domain.dim}")
        i = bisect_left(self.domain.masks, p.mask)
        if i == len(self.domain.masks) or self.domain.masks[i] != p.mask:
            raise ValueError(f"point {p} is not in the domain")
        return self.bits >> i & 1

    def values(self) -> tuple[int, ...]:
        """Values in the domain's canonical (ascending numeric) order."""
        return tuple(self.bits >> i & 1 for i in range(len(self.domain.masks)))


def _extension_tables(S: Subposet) -> tuple[list[int], list[int]]:
    """Points reindexed along the linear extension (weight, then numeric value).

    Returns (up_bits, canon_index) where up_bits[i] is the closed up-set of
    extension position i within S, as a bitset over extension positions, and
    canon_index maps extension position to canonical position.
    """
    masks = S.masks
    order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), masks[i]))
    ext_masks = [masks[i] for i in order]
    k = len(ext_masks)
    up = [1 << i for i in range(k)]
    for i in range(k):
        mi = ext_masks[i]
        for j in range(i + 1, k):
            # weight order means a comparable later point can only be above
            if mi & ~ext_masks[j] == 0:
                up[i] |= 1 << j
    return up, order


def enumerate_monotone(
    S: Subposet, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[MonotoneMap]:
    """Yield every monotone map on S exactly once, in deterministic order.

    Depth-first assignment along the linear extension, 0 branch before 1,
    propagating forced values through up-sets: the least undecided point has
    its whole down-set decided already, so its 0 branch decides it alone.
    Materialization is for desk-scale domains; the cap guards against 2^k
    blowups.
    """
    k = len(S.masks)
    if k > cap:
        raise BudgetExceededError(f"enumeration cap exceeded: {k} points > {cap}")
    if k == 0:
        yield MonotoneMap(S, 0)
        return
    up, order = _extension_tables(S)
    full = (1 << k) - 1

    def walk(decided: int, ones: int) -> Iterator[int]:
        if decided == full:
            yield ones
            return
        free = ~decided & full
        i = (free & -free).bit_length() - 1
        yield from walk(decided | 1 << i, ones)
        yield from walk(decided | up[i], ones | up[i])

    for ones_ext in walk(0, 0):
        bits = 0
        for pos in range(k):
            if ones_ext >> pos & 1:
                bits |= 1 << order[pos]
        yield MonotoneMap(S, bits)


def count_monotone_oracle(S: Subposet, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> int:
    """Count monotone maps on S by direct DFS; leaves are exactly the maps.

    A DFS node is the set of undecided points.  Fixing a point to 1 forces
    its up-set to 1 (dually for 0), so that set alone carries the state.
    The node branches on its least undecided point i in the linear
    extension, whose down-set is decided already: the 0 branch decides i
    alone, and the 1 branch decides its whole up-set.  So each call walks
    its chain of 0 branches in a loop, one point per step, recursing only
    into non-empty 1 branches and counting an empty one, and the chain's
    end, as a leaf in place.

    The tree is a full binary tree with one leaf per map, so a non-empty S
    takes 2*D - 1 nodes, where D is the count; the empty S takes none.
    Each call charges on entry the nodes its loop visits (the chain after
    its first node, the chain's end and the root of every 1 branch), so
    BudgetExceededError is raised exactly when the node count exceeds
    max_nodes.  A negative max_nodes raises ValueError.
    """
    if max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
    k = len(S.masks)
    if k == 0:
        return 1
    up, _ = _extension_tables(S)
    # the root; each call charges the rest of its subtree
    budget = max_nodes - 1

    def rec(undecided: int) -> int:
        nonlocal budget
        # one 0 step and one 1-branch root per undecided point
        budget -= 2 * undecided.bit_count()
        if budget < 0:
            raise BudgetExceededError(
                f"oracle node budget exceeded ({max_nodes} nodes)"
            )
        total = 1
        while undecided:
            low = undecided & -undecided
            one = undecided & ~up[low.bit_length() - 1]
            total += rec(one) if one else 1
            undecided ^= low
        return total

    return rec((1 << k) - 1)


def is_monotone(m: MonotoneMap) -> bool:
    """Check a candidate assignment against the induced cover relation.

    Monotonicity on all comparable pairs follows from the cover pairs alone,
    since induced covers generate the induced order.
    """
    masks = m.domain.masks
    idx = {mask: i for i, mask in enumerate(masks)}
    for cp in induced_cover_pairs(m.domain):
        if m.bits >> idx[cp.lower.mask] & 1 > m.bits >> idx[cp.upper.mask] & 1:
            return False
    return True
