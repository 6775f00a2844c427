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

from .linalg import Mat2, Vec2
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
    """The pairwise areas for i < j, in lexicographic (i, j) order.  The
    only code here that computes a tuple's areas: badness_level,
    first_unit_pair and recovery each read one signature per tuple, so
    each of them, like this, raises ValueError on fewer than 2 points."""
    if len(points) < 2:
        raise ValueError("a configuration needs at least 2 points")
    perp = spec.perp_dot
    return tuple([perp(points[i], points[j]) for i, j in pair_indices(len(points) - 1)])


def badness_level(spec: RingSpec, points: tuple[Vec2, ...]) -> int:
    """Minimal m with p^m dividing every pairwise area, the least
    valuation of the signature; 0 means good (some pairwise area is a
    unit), max_level means all areas vanish mod the full modulus.  Fields
    only have levels 0 and 1."""
    return min(map(spec.valuation, signature(spec, points)))


def _first_unit_entry(spec: RingSpec, points: tuple[Vec2, ...]):
    """((i, j), area) for the signature's first unit entry, or None."""
    unit, pairs = spec.is_unit, pair_indices(len(points) - 1)
    return next(((pair, area) for pair, area in zip(pairs, signature(spec, points)) if unit(area)), None)


def first_unit_pair(spec: RingSpec, points: tuple[Vec2, ...]):
    """First (i, j) in lexicographic order whose area is a unit, or None."""
    entry = _first_unit_entry(spec, points)
    return None if entry is None else entry[0]


def recovery(spec: RingSpec, xs: tuple[Vec2, ...]):
    """None when xs is bad, else the function ys -> g with g the unique
    element of SL_2 with g x^i = y^i for all i (see _recover).  It does
    once per xs all the work that does not depend on ys: the base pair
    (i, j) and its area are the first unit entry of the one signature
    of xs; d, the area's inverse, gives the inverse of B = (x^i x^j),
    (d y2, -d y1, -d x2, d x1) for x^i = (x1, x2) and x^j = (y1, y2), kept
    as its two columns; and the points off the pair are listed with their
    indexes.  It is a partial of _recover, so its args hold len(xs),
    (i, j), the area, the columns and that (index, point) list."""
    entry = _first_unit_entry(spec, xs)
    if entry is None:
        return None
    pair, area = entry
    (x1, x2), (y1, y2) = xs[pair[0]], xs[pair[1]]
    d, mul, neg = spec.inv(area), spec.mul, spec.neg
    columns = ((mul(d, y2), neg(mul(d, x2))), (neg(mul(d, y1)), mul(d, x1)))
    off = [(s, x) for s, x in enumerate(xs) if s not in pair]
    return partial(_recover, spec, len(xs), pair, area, columns, off)


def _recover(spec: RingSpec, size, pair, area, columns, off, ys: tuple[Vec2, ...]) -> Mat2:
    """g = (y^i y^j)(x^i x^j)^{-1} for the pair (i, j), each column of the
    inverse sent through (y^i y^j) by apply_mat, then verified at the k - 1
    points off the pair.  Per ys that is one area comparison (perp_dot),
    two column applications and one apply_mat per off-pair point.  The
    pair needs no check: the inverse sends x^i and x^j to (1, 0) and
    (0, 1), so g sends them to the columns y^i and y^j exactly.  The
    inverse and g are proved by test_recovery_base_inverts_the_first_unit_pair
    and by the lemma-2.2 scan, which compares every recovered g with the
    one element that its move bitsets give.  Only the pair's area is
    compared, not the whole signature: when area(y^i, y^j) equals
    area(x^i, x^j), det g = 1, so g is in SL_2 and keeps every area, and
    g x = y at every point gives ys the signature of xs.  Conversely, when
    the signatures agree, x^i and x^j are a basis and every other point of
    xs and of ys has the same coordinates in its pair, read off the shared
    areas, so g x = y holds everywhere.  So NotEquivalent is raised
    exactly when the signatures differ: "signatures differ" when the
    pair's area does, else naming the first point that g does not send to
    its y."""
    if len(ys) != size:
        raise ValueError("configurations must have the same number of points")
    yi, yj = ys[pair[0]], ys[pair[1]]
    if spec.perp_dot(yi, yj) != area:
        raise NotEquivalent("signatures differ")
    apply, target = spec.apply_mat, (yi[0], yj[0], yi[1], yj[1])
    (a, c), (b, d) = apply(target, columns[0]), apply(target, columns[1])
    g = (a, b, c, d)
    for s, x in off:
        if apply(g, x) != ys[s]:
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
