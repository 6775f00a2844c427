"""Point configurations, their area signatures, goodness / badness
classification, and recovery of the unique SL_2 element between
equivalent good configurations.

A configuration is an ordered tuple of k+1 points (k >= 1); two
configurations are equivalent iff all pairwise areas x^i . x^{j perp}
agree, which their signature captures as the (i < j) half in
lexicographic index order.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .linalg import Mat2, Vec2, col_matrix
from .rings import RingSpec


class NotEquivalent(Exception):
    """The two configurations have different signatures."""


class BothBad(Exception):
    """The base configuration is bad, so a unique mapping element is not
    guaranteed to exist."""


@lru_cache(maxsize=None)
def pair_indices(k: int) -> tuple[tuple[int, int], ...]:
    """(i, j) with 0 <= i < j <= k, lexicographic."""
    return tuple((i, j) for i in range(k + 1) for j in range(i + 1, k + 1))


def key_width(spec: RingSpec) -> int:
    """Bytes per area in a census key: the least of 1, 2, 4 and 8 that
    holds every element index, so an area is one native word."""
    return 1 << (((spec.size() - 1).bit_length() + 7) // 8 - 1).bit_length()


def signature(spec: RingSpec, points: tuple[Vec2, ...]) -> tuple:
    """The pairwise areas for i < j, in lexicographic (i, j) order."""
    if len(points) < 2:
        raise ValueError("a configuration needs at least 2 points")
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


def recovery(spec: RingSpec, xs: tuple[Vec2, ...]):
    """None when xs is bad, else the function ys -> g with g the unique
    element of SL_2 with g x^i = y^i for all i (see _recover).  What the
    function needs of xs whatever ys is: the first unit-area pair (i, j)
    (first_unit_pair), its one area, and the inverse of B = (x^i x^j),
    which with d the inverse of that area det B is (d y2, -d y1, -d x2,
    d x1) for x^i = (x1, x2) and x^j = (y1, y2).  It is a partial of
    _recover, so its args hold xs, (i, j), the area and the inverse."""
    pair = first_unit_pair(spec, xs)
    if pair is None:
        return None
    i, j = pair
    (x1, x2), (y1, y2), area = xs[i], xs[j], spec.perp_dot(xs[i], xs[j])
    d, mul, neg = spec.inv(area), spec.mul, spec.neg
    inverse = (mul(d, y2), neg(mul(d, y1)), neg(mul(d, x2)), mul(d, x1))
    return partial(_recover, spec, xs, pair, area, inverse)


def _recover(spec: RingSpec, xs, pair, area, inverse, ys: tuple[Vec2, ...]) -> Mat2:
    """g = (y^i y^j)(x^i x^j)^{-1} for the pair (i, j), each column of the
    inverse sent through (y^i y^j) by apply_mat, then verified at the k - 1
    points outside the pair.  The pair needs no check: the inverse sends
    x^i and x^j to (1, 0) and (0, 1), so g sends them to the columns y^i
    and y^j exactly.  The inverse and g are proved by
    test_recovery_base_inverts_the_first_unit_pair and by the lemma-2.2
    scan, which compares every recovered g with the one element that its
    move bitsets give.  Only the pair's area is compared, not the whole
    signature: when area(y^i, y^j) equals area(x^i, x^j), det g = 1, so g
    is in SL_2 and keeps every area, and g x = y at every point gives ys
    the signature of xs.  Conversely, when the signatures agree, x^i and
    x^j are a basis and every other point of xs and of ys has the same
    coordinates in its pair, read off the shared areas, so g x = y holds
    everywhere.  So NotEquivalent is raised exactly when the signatures
    differ: "signatures differ" when the pair's area does, else naming
    the first point that g does not send to its y."""
    if len(xs) != len(ys):
        raise ValueError("configurations must have the same number of points")
    (i, j), (a, b, c, d) = pair, inverse
    if spec.perp_dot(ys[i], ys[j]) != area:
        raise NotEquivalent("signatures differ")
    target = col_matrix(ys[i], ys[j])
    left, right = spec.apply_mat(target, (a, c)), spec.apply_mat(target, (b, d))
    g = (left[0], right[0], left[1], right[1])
    for s, (x, y) in enumerate(zip(xs, ys)):
        if s not in pair and spec.apply_mat(g, x) != y:
            raise NotEquivalent(f"candidate {g} fails on point {x}")
    return g


def recover_g(spec: RingSpec, xs: tuple[Vec2, ...], ys: tuple[Vec2, ...]) -> Mat2:
    """The unique g in SL_2 with g x^i = y^i for all i, for good xs with
    signature(xs) == signature(ys): recovery(xs) applied to ys.  Raises
    BothBad when xs is bad and NotEquivalent exactly when the signatures
    differ."""
    recover = recovery(spec, xs)
    if recover is None:
        raise BothBad("base configuration has no unit pairwise area")
    return recover(ys)


def apply_config(spec: RingSpec, g: Mat2, points: tuple[Vec2, ...]) -> tuple[Vec2, ...]:
    apply = spec.apply_mat
    return tuple([apply(g, x) for x in points])
