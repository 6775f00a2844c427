"""2-vectors and 2x2 matrices over a ring: the area form, determinants
and SL_2 enumeration.

Vectors are pairs (x1, x2) of ring elements; matrices are row-major
4-tuples (a, b, c, d) meaning [[a, b], [c, d]].  Nothing here is bigger
than 2x2 on purpose.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .rings import RingSpec

Vec2 = tuple
Mat2 = tuple


def perp_dot(spec: RingSpec, x: Vec2, y: Vec2):
    """Area form x . y^perp = x1*y2 - x2*y1, with y^perp = (y2, -y1).

    Equals the determinant of the matrix with columns x, y, and is
    invariant under the SL_2 action on both arguments."""
    return spec.perp_dot(x, y)


def identity(spec: RingSpec) -> Mat2:
    return (spec.one, spec.zero, spec.zero, spec.one)


def det(spec: RingSpec, m: Mat2):
    a, b, c, d = m
    return spec.sub(spec.mul(a, d), spec.mul(b, c))


def apply_mat(spec: RingSpec, m: Mat2, v: Vec2) -> Vec2:
    return spec.apply_mat(m, v)


def orbit_size(spec: RingSpec, v: int) -> int:
    """The size of the SL_2 orbit of p^v (1, 0), 0 <= v < l: the vectors
    whose coordinates have least valuation v, p^{2(l - v)} - p^{2(l - v -
    1)} of them.  Over F_q read p^l as q (l = 1), so the orbit of (1, 0)
    is the q^2 - 1 nonzero vectors.  O(l) bits of arithmetic."""
    top = spec.max_level
    p = spec.size() if top == 1 else spec.p
    return p ** (2 * (top - v)) - p ** (2 * (top - v - 1))


def plane_orbits(spec: RingSpec) -> list[tuple[Vec2, int]]:
    """The SL_2 orbits of the plane R^2, as (representative, size) pairs:
    0 alone, and p^v (1, 0) for 0 <= v < l with its orbit_size.  The
    sizes sum to q^2."""
    return [((0, 0), 1), *(((spec.p ** v, 0), orbit_size(spec, v)) for v in range(spec.max_level))]


def sl2_order(spec: RingSpec) -> int:
    """|SL_2| by orbit-stabilizer at (1, 0), whose stabilizer [[1, b],
    [0, 1]] has q elements: q times orbit_size(spec, 0), the size of the
    orbit of (1, 0).  That is q^3 - q for a field of size q and
    p^{3l} - p^{3l-2} for Z/p^l Z."""
    return spec.size() * orbit_size(spec, 0)


def sl2_blocks(spec: RingSpec) -> Iterator[tuple]:
    """SL_2 as blocks (a, b, cs, ds): the det-1 matrices with top row
    (a, b) are (a, b, cs[t], ds[t]) for each t, and the blocks come in a
    fixed deterministic order, each top row once.

    Split on whether the entry a is a unit: for unit a, (b, c) are free
    and d = a^{-1}(1 + bc); otherwise b must be a unit (ad - bc = 1
    forces bc to be a unit), d is free, and c = b^{-1}(ad - 1).  The
    order is ascending in the free entries' canonical indexes.  The q^2
    products come from checked mul calls made once, before the first
    block; each block is then C-level maps over their rows."""
    elems = list(spec.elements())
    times = [list(map(spec.mul, itertools.repeat(a), elems)) for a in elems]
    plus_one = list(map(spec.add, itertools.repeat(spec.one), elems))
    minus_one = list(map(spec.sub, elems, itertools.repeat(spec.one)))
    units = [a for a in elems if spec.is_unit(a)]
    for a in elems:
        if spec.is_unit(a):
            by_inverse = times[spec.inv(a)].__getitem__
            for b in elems:
                yield a, b, elems, list(map(by_inverse, map(plus_one.__getitem__, times[b])))
        else:
            by_a = list(map(minus_one.__getitem__, times[a]))
            for b in units:
                yield a, b, list(map(times[spec.inv(b)].__getitem__, by_a)), elems


def enumerate_sl2(spec: RingSpec) -> Iterator[Mat2]:
    """All det-1 matrices, each exactly once, in sl2_blocks order."""
    repeat = itertools.repeat
    return itertools.chain.from_iterable(
        zip(repeat(a), repeat(b), cs, ds) for a, b, cs, ds in sl2_blocks(spec)
    )
