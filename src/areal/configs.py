"""Point configurations, their area signatures, goodness / badness
classification, and recovery of the unique SL_2 element between
equivalent good configurations.

A configuration is an ordered tuple of k+1 points (k >= 1); two
configurations are equivalent iff all pairwise areas x^i . x^{j perp}
agree, which the AreaSignature captures as the (i < j) half in
lexicographic index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import Mat2, Vec2, col_matrix, enumerate_sl2, inverse
from .rings import RingSpec


class NotEquivalent(Exception):
    """The two configurations have different signatures (or the algebra
    produced a candidate that fails pointwise verification)."""


class BothBad(Exception):
    """The base configuration is bad, so a unique mapping element is not
    guaranteed to exist."""


@lru_cache(maxsize=None)
def pair_indices(k: int) -> tuple[tuple[int, int], ...]:
    """(i, j) with 0 <= i < j <= k, lexicographic."""
    return tuple((i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


def key_width(spec: RingSpec) -> int:
    """Bytes per area in a signature key: just enough for the ring size."""
    return max(1, ((spec.size() - 1).bit_length() + 7) // 8)


@dataclass(frozen=True)
class AreaSignature:
    spec: RingSpec
    k: int
    areas: tuple  # pairwise areas for i < j, lexicographic (i, j) order

    def encode(self) -> bytes:
        """Stable byte encoding: k as 2 bytes big-endian, then each area's
        canonical index in fixed width (just enough bytes for the ring
        size).  census.good_class_members groups by it; the census
        itself packs its keys from the area table in another order."""
        width = key_width(self.spec)
        parts = [self.k.to_bytes(2, "big")]
        parts.extend(a.to_bytes(width, "big") for a in self.areas)
        return b"".join(parts)


def signature(spec: RingSpec, points: tuple[Vec2, ...]) -> AreaSignature:
    k = len(points) - 1
    if k < 1:
        raise ValueError("a configuration needs at least 2 points")
    return AreaSignature(spec, k, _areas(spec, points))


def _areas(spec: RingSpec, points: tuple[Vec2, ...]) -> tuple:
    """The pairwise areas of a signature, in pair_indices order."""
    perp = spec.perp_dot
    return tuple([perp(points[i], points[j]) for i, j in pair_indices(len(points) - 1)])


def badness_level(spec: RingSpec, points: tuple[Vec2, ...]) -> int:
    """Minimal m with p^m dividing every pairwise area; 0 means good
    (some pairwise area is a unit), max_level means all areas vanish
    mod the full modulus.  Fields only have levels 0 and 1."""
    m = spec.max_level
    for i, j in pair_indices(len(points) - 1):
        v = spec.valuation(spec.perp_dot(points[i], points[j]))
        if v < m:
            m = v
            if m == 0:
                return 0
    return m


def first_unit_pair(spec: RingSpec, points: tuple[Vec2, ...]):
    """First (i, j) in lexicographic order whose area is a unit, or None."""
    for i, j in pair_indices(len(points) - 1):
        if spec.is_unit(spec.perp_dot(points[i], points[j])):
            return (i, j)
    return None


@lru_cache(maxsize=1)
def _recovery_base(spec: RingSpec, xs: tuple[Vec2, ...]):
    """What recover_g needs of xs whatever ys is: None when xs is bad,
    else its first unit-area pair (i, j), its areas and the inverse of
    the column matrix (x^i x^j).  A scan hands recover_g every ys of one
    xs in a row, so one cached xs is enough."""
    pair = first_unit_pair(spec, xs)
    if pair is None:
        return None
    i, j = pair
    return pair, _areas(spec, xs), inverse(spec, col_matrix(xs[i], xs[j]))


def recover_g(spec: RingSpec, xs: tuple[Vec2, ...], ys: tuple[Vec2, ...]) -> Mat2:
    """The unique g in SL_2 with g x^i = y^i for all i, for good xs with
    signature(xs) == signature(ys).

    g is built as (y^i y^j)(x^i x^j)^{-1} from the first unit-area index
    pair, then verified on every point; raises BothBad when xs is bad and
    NotEquivalent when the signatures differ or verification fails.  The
    pair, the areas of xs and the inverse come from _recovery_base, and
    each column of the inverse is sent through (y^i y^j) by apply_mat;
    xs is their cache key, so it must be hashable (a tuple of tuples)."""
    if len(xs) != len(ys):
        raise ValueError("configurations must have the same number of points")
    base = _recovery_base(spec, xs)
    if base is None:
        raise BothBad("base configuration has no unit pairwise area")
    (i, j), areas, (a, b, c, d) = base
    if _areas(spec, ys) != areas:
        raise NotEquivalent("signatures differ")
    target = col_matrix(ys[i], ys[j])
    left, right = spec.apply_mat(target, (a, c)), spec.apply_mat(target, (b, d))
    g = (left[0], right[0], left[1], right[1])
    # cheap insurance against convention mismatches: never trust the algebra
    for x, y in zip(xs, ys):
        if spec.apply_mat(g, x) != y:
            raise NotEquivalent(f"candidate {g} fails on point {x}")
    return g


def apply_config(spec: RingSpec, g: Mat2, points: tuple[Vec2, ...]) -> tuple[Vec2, ...]:
    apply = spec.apply_mat
    return tuple([apply(g, x) for x in points])


def orbit(spec: RingSpec, points: tuple[Vec2, ...]) -> set:
    """{g.x : g in SL_2} as a deduplicated set of configurations.  Only
    sensible for rings small enough to enumerate SL_2."""
    return {apply_config(spec, g, points) for g in enumerate_sl2(spec)}
