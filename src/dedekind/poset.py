"""Points and subposets of the n-cube, with cover-relation machinery.

A point of E^n is a 0/1 sequence a^1 ... a^n packed into an int: bit i-1
holds coordinate a^i, so the textual form reads low bit first ("110" has
mask 0b011).  A subposet is a set of points of one cube under the
coordinatewise order.  Two cover relations matter here: the ambient one
(b below a with weights differing by 1, i.e. an edge of the cube) and the
induced one (nothing of the subposet strictly between).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import PosetParseError

# The one input cap: the largest cube whose per-point up-set/down-set tables
# (2^12 entries of 4096-bit ints, a few MB) every engine path builds.  Points,
# subposets and poset files of a larger dimension are rejected on entry.
MAX_DIM = 12

COVER_MODES = ("ambient", "induced")

# Cover reading used by the V-shape predicates when no mode is passed.  The
# ambient (weight-gap-1) reading is the one that matches the definitional
# oracle on every subset of E^3; the induced reading stays available and is
# strictly more sensitive (sound but incomplete on full cubes).
DEFAULT_COVER_MODE = "ambient"


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or not 0 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be an int in [0, {MAX_DIM}], got {dim!r}")


def _check_mode(mode: str) -> None:
    if mode not in COVER_MODES:
        raise ValueError(f"mode must be one of {COVER_MODES}, got {mode!r}")


@dataclass(frozen=True)
class Point:
    """A vertex of E^dim with coordinates packed into mask (bit i-1 = a^i)."""

    mask: int
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not isinstance(self.mask, int) or not 0 <= self.mask < (1 << self.dim):
            raise ValueError(
                f"mask {self.mask!r} out of range for dimension {self.dim}"
            )

    @classmethod
    def from_text(cls, text: str) -> "Point":
        """Parse the textual form a^1...a^n, e.g. '011' -> mask 0b110, dim 3."""
        if not text or any(c not in "01" for c in text):
            raise PosetParseError(f"point must be a nonempty 0/1 string, got {text!r}")
        mask = 0
        for i, c in enumerate(text):
            if c == "1":
                mask |= 1 << i
        return cls(mask, len(text))

    def to_text(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.dim))

    def __str__(self) -> str:
        return self.to_text()


def weight(p: Point) -> int:
    """Number of 1-coordinates of p."""
    return p.mask.bit_count()


def _same_dim(a: Point, b: Point) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def leq(a: Point, b: Point) -> bool:
    """Coordinatewise a <= b.  Raises on dimension mismatch."""
    _same_dim(a, b)
    return a.mask & ~b.mask == 0


def covers(a: Point, b: Point) -> bool:
    """Ambient cover: a is directly above b (b <= a, weights differ by 1)."""
    _same_dim(a, b)
    return b.mask & ~a.mask == 0 and (a.mask ^ b.mask).bit_count() == 1


@dataclass(frozen=True)
class CoverPair:
    """An ordered cover edge, tagged with the relation it was computed under."""

    lower: Point
    upper: Point
    relation: str

    def __post_init__(self) -> None:
        _check_mode(self.relation)
        if not leq(self.lower, self.upper) or self.lower == self.upper:
            raise ValueError("lower must be strictly below upper")


@dataclass(frozen=True)
class V3Witness:
    """A V-shape: one apex with two incomparable arms, both covering moves.

    orientation "up" means the apex sits below both arms, "down" the dual.
    Arms are stored sorted by numeric value.  Incomparability of the arms is
    asserted here rather than filtered on during search; under the ambient
    relation both arms share a weight, so it holds automatically.
    """

    apex: Point
    arms: tuple[Point, Point]
    orientation: str

    def __post_init__(self) -> None:
        if self.orientation not in ("up", "down"):
            raise ValueError("orientation must be 'up' or 'down'")
        a, b = self.arms
        _same_dim(a, b)
        _same_dim(a, self.apex)
        if a.mask >= b.mask:
            raise ValueError("arms must be sorted by numeric value and distinct")
        if leq(a, b) or leq(b, a):
            raise ValueError("arms must be incomparable")

    def __str__(self) -> str:
        return (f"apex {self.apex}, arms {self.arms[0]} and {self.arms[1]}, "
                f"orientation {self.orientation}")


@dataclass(frozen=True, init=False)
class Subposet:
    """An immutable set of points of E^dim, stored as its point-space bitset
    (bit m set iff mask m belongs); masks and points are decoded on demand."""

    dim: int
    bitset: int

    def __init__(self, dim: int, masks: Iterable[int]) -> None:
        _check_dim(dim)
        bits = 0
        for m in masks:
            if not isinstance(m, int) or not 0 <= m < 1 << dim:
                raise ValueError(f"mask {m!r} out of range for dimension {dim}")
            bits |= 1 << m
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bitset", bits)

    @classmethod
    def _from_bits(cls, dim: int, bits: int) -> "Subposet":
        """Trusted constructor from a point-space bitset of E^dim, for
        callers whose bits are a region of the cube they already hold: it
        sets the two fields and checks nothing; the masks are decoded only
        when read."""
        S = object.__new__(cls)
        object.__setattr__(S, "dim", dim)
        object.__setattr__(S, "bitset", bits)
        return S

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Subposet":
        pts = list(points)
        if not pts:
            raise ValueError("cannot infer dimension from an empty point set")
        dim = pts[0].dim
        for p in pts:
            if p.dim != dim:
                raise ValueError("all points must share one dimension")
        return cls(dim, tuple(p.mask for p in pts))

    @classmethod
    def cube(cls, dim: int) -> "Subposet":
        _check_dim(dim)
        return cls._from_bits(dim, (1 << (1 << dim)) - 1)

    @classmethod
    def empty(cls, dim: int) -> "Subposet":
        _check_dim(dim)
        return cls._from_bits(dim, 0)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Member masks, ascending."""
        return tuple(_mask_list(self.bitset))

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(Point(m, self.dim) for m in self.masks)

    def dual(self) -> "Subposet":
        """Complement every coordinate; reverses the induced order."""
        full = (1 << self.dim) - 1
        return Subposet(self.dim, tuple(full ^ m for m in self.masks))

    def minus(self, other: "Subposet") -> "Subposet":
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Subposet._from_bits(self.dim, self.bitset & ~other.bitset)

    def __len__(self) -> int:
        return self.bitset.bit_count()

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: Point) -> bool:
        return p.dim == self.dim and bool(self.bitset >> p.mask & 1)

    def to_text(self) -> str:
        lines = [f"n={self.dim}"]
        lines.extend(Point(m, self.dim).to_text() for m in self.masks)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Subposet":
        """Parse the poset text format: an 'n=<dim>' header, one point per line.
        Blank lines are skipped, but at n=0 one is the empty word, the cube's point."""
        lines = [ln.strip() for ln in text.lstrip().splitlines()]
        if not lines or not lines[0].startswith("n="):
            raise PosetParseError("first line must be a header of the form n=<dim>")
        try:
            dim = int(lines[0][2:])
        except ValueError:
            raise PosetParseError(f"bad header {lines[0]!r}") from None
        _check_dim_parse(dim)
        bits = 0
        for ln in lines[1:]:
            if not ln and dim:
                continue
            if len(ln) != dim or any(c not in "01" for c in ln):
                raise PosetParseError(
                    f"line {ln!r} is not a {dim}-character 0/1 string"
                )
            bit = 1 << int(ln[::-1] or "0", 2)
            if bits & bit:
                raise PosetParseError(f"duplicate point {ln!r}")
            bits |= bit
        return cls._from_bits(dim, bits)


def _check_dim_parse(dim: int) -> None:
    if not 0 <= dim <= MAX_DIM:
        raise PosetParseError(f"dimension must lie in [0, {MAX_DIM}], got {dim}")


def upper_set(a: Point) -> Subposet:
    """All points of the cube above a (inclusive); size 2^(n - weight)."""
    return Subposet._from_bits(a.dim, _updown_tables(a.dim)[0][a.mask])


def lower_set(a: Point) -> Subposet:
    """All points of the cube below a (inclusive); size 2^weight."""
    return Subposet._from_bits(a.dim, _updown_tables(a.dim)[1][a.mask])


def _generated_bits(A: Subposet, y: Sequence[int]) -> int:
    """Point-space bitset of the region generated_subset(A, y) covers."""
    if len(y) != len(A):
        raise ValueError(f"value vector length {len(y)} != |A| = {len(A)}")
    up_t, down_t = _updown_tables(A.dim)
    bits = 0
    for m, v in zip(A.masks, y):
        if v == 1:
            bits |= up_t[m]
        elif v == 0:
            bits |= down_t[m]
        else:
            raise ValueError(f"values must be 0 or 1, got {v!r}")
    return bits


def generated_subset(A: Subposet, y: Sequence[int]) -> Subposet:
    """Union of upper_set(a_i) where y_i = 1 and lower_set(a_i) where y_i = 0.

    y is paired with A's canonical (ascending numeric) member order and must
    match its length.  The region is built as one point-space bitset.
    """
    return Subposet._from_bits(A.dim, _generated_bits(A, y))


def induced_cover_pairs(S: Subposet) -> list[CoverPair]:
    """Cover pairs of S as a poset in its own right: a < b with nothing of S
    strictly between.  Weights may jump.  Ascending (lower, upper) order."""
    pairs = []
    masks = S.masks
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if a & ~b:
                continue
            # any strictly intermediate z of S lies between them numerically
            blocked = False
            for z in masks[i + 1 : j]:
                if a & ~z == 0 and z & ~b == 0:
                    blocked = True
                    break
            if not blocked:
                pairs.append(
                    CoverPair(Point(a, S.dim), Point(b, S.dim), "induced")
                )
    return pairs


def _cover_arms(bits: int, apex: int, dim: int, mode: str) -> tuple[int, int]:
    """Point-space bitsets of the members of bits that cover apex from above
    and from below under the selected cover reading."""
    up_t, down_t = _updown_tables(dim)
    if mode == "ambient":
        near = 0
        for i in range(dim):
            near |= 1 << (apex ^ 1 << i)
        near &= bits
        return near & up_t[apex], near & down_t[apex]
    # induced: the minimal members strictly above apex (dually below), i.e.
    # that set minus every member's strict up-set (strict down-set)
    arms = []
    for table in (up_t, down_t):
        strict = (table[apex] ^ 1 << apex) & bits
        cover = strict
        for m in _mask_list(strict):
            cover &= ~(table[m] ^ 1 << m)
        arms.append(cover)
    return arms[0], arms[1]


def find_v3(S: Subposet, mode: str = DEFAULT_COVER_MODE) -> V3Witness | None:
    """Search S for a V-shape under the selected cover reading.

    Both orientations are searched; the returned witness is the
    lexicographically smallest by (apex, arms, orientation), all by numeric
    point value.  Returns None when no V-shape exists.
    """
    _check_mode(mode)
    for apex in S.masks:
        ups, downs = _cover_arms(S.bitset, apex, S.dim, mode)
        candidates = [(*_mask_list(arms)[:2], orientation)
                      for arms, orientation in ((ups, "up"), (downs, "down"))
                      if arms & (arms - 1)]
        if not candidates:
            continue
        lo, hi, orientation = min(candidates)
        return V3Witness(
            apex=Point(apex, S.dim),
            arms=(Point(lo, S.dim), Point(hi, S.dim)),
            orientation=orientation,
        )
    return None


def _degree_signature(masks: Sequence[int], out_adj: list[int], in_adj: list[int]) -> list[tuple[int, int]]:
    return [(out_adj[i].bit_count(), in_adj[i].bit_count()) for i in range(len(masks))]


def cover_preserving_isomorphic(P: Subposet, Q: Subposet, *, max_size: int = 12) -> bool:
    """Decide whether a bijection P -> Q preserving induced covers both ways
    exists.  Backtracking over degree-compatible candidates; intended for
    small subposets, guarded at max_size points."""
    if len(P) != len(Q):
        return False
    k = len(P)
    if k > max_size:
        raise ValueError(f"size guard exceeded: {k} > {max_size} points")
    if k == 0:
        return True

    def adjacency(S: Subposet) -> tuple[list[int], list[int]]:
        idx = {m: i for i, m in enumerate(S.masks)}
        out_adj = [0] * len(S)
        in_adj = [0] * len(S)
        for cp in induced_cover_pairs(S):
            i, j = idx[cp.lower.mask], idx[cp.upper.mask]
            out_adj[i] |= 1 << j
            in_adj[j] |= 1 << i
        return out_adj, in_adj

    p_out, p_in = adjacency(P)
    q_out, q_in = adjacency(Q)
    p_sig = _degree_signature(P.masks, p_out, p_in)
    q_sig = _degree_signature(Q.masks, q_out, q_in)
    if sorted(p_sig) != sorted(q_sig):
        return False

    # assign rare signatures first to cut the branching early
    order = sorted(range(k), key=lambda i: (p_sig.count(p_sig[i]), i))
    assigned_q = [-1] * k  # P index -> Q index
    used = [False] * k

    def extend(step: int) -> bool:
        if step == k:
            return True
        i = order[step]
        for j in range(k):
            if used[j] or p_sig[i] != q_sig[j]:
                continue
            ok = True
            for step2 in range(step):
                i2 = order[step2]
                j2 = assigned_q[i2]
                if (
                    bool(p_out[i] >> i2 & 1) != bool(q_out[j] >> j2 & 1)
                    or bool(p_out[i2] >> i & 1) != bool(q_out[j2] >> j & 1)
                ):
                    ok = False
                    break
            if not ok:
                continue
            assigned_q[i] = j
            used[j] = True
            if extend(step + 1):
                return True
            used[j] = False
            assigned_q[i] = -1
        return False

    return extend(0)


@lru_cache(maxsize=None)
def _updown_tables(dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-point bitsets over point space: up[m] / down[m] cover the closed
    up-set / down-set of mask m within the full cube."""
    size = 1 << dim
    down = [0] * size
    for m in range(size):
        d = 1 << m
        mm = m
        while mm:
            b = mm & -mm
            d |= down[m ^ b]
            mm ^= b
        down[m] = d
    up = [0] * size
    for m in range(size - 1, -1, -1):
        u = 1 << m
        absent = (size - 1) & ~m
        while absent:
            b = absent & -absent
            u |= up[m | b]
            absent ^= b
        up[m] = u
    return tuple(up), tuple(down)


@lru_cache(maxsize=None)
def _comparable_table(dim: int) -> tuple[int, ...]:
    """Per-point bitsets over point space: entry m is every point comparable
    to mask m within the full cube, m included (up[m] | down[m])."""
    up, down = _updown_tables(dim)
    return tuple(u | d for u, d in zip(up, down))


def _mask_list(bits: int) -> list[int]:
    """Set bit positions of a membership bitset, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out
