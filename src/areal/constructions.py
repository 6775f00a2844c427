"""Generators for the extremal point sets (circles, the thin modular
grid whose areas are never units, lines) and generic test sets."""

from __future__ import annotations

from .census import PointSet, full_plane_points
from .linalg import Mat2
from .rings import ModPrimePower, RingSpec, checked_int, mod_prime_power


def circle(spec: RingSpec, r) -> PointSet:
    """{x : x1^2 + x2^2 = r}."""
    return union_circles(spec, [r])


def union_circles(spec: RingSpec, radii) -> PointSet:
    """{x : x1^2 + x2^2 in radii}, by one exhaustive scan of the plane,
    however many radii there are."""
    radii = list(radii)
    wanted = set(radii)
    if len(wanted) != len(radii):
        raise ValueError("radii must be distinct")
    squares = [(a, spec.mul(a, a)) for a in spec.elements()]
    pts = [(a, b) for a, aa in squares for b, bb in squares if spec.add(aa, bb) in wanted]
    return PointSet(spec, pts)


def rotation_group(spec: RingSpec) -> list[Mat2]:
    """All matrices [[a, -b], [b, a]] with (a, b) on the unit circle.
    Each has determinant 1 and maps every circle onto itself."""
    return [(a, spec.neg(b), b, a) for a, b in circle(spec, spec.one)]


def mod_sharpness_set(p: int, ell: int) -> PointSet:
    """The thin grid {(t + pn, t + pm)} in (Z/p^l Z)^2: p^{2l-1} points
    whose pairwise areas are all divisible by p, so every configuration
    drawn from it is bad."""
    spec = mod_prime_power(p, ell)
    q = p ** ell
    step = p ** (ell - 1)
    pts = [
        ((t + p * n) % q, (t + p * m) % q)
        for t in range(p)
        for n in range(step)
        for m in range(step)
    ]
    return PointSet(spec, pts)


def line_through_origin(spec: RingSpec, direction) -> PointSet:
    if direction == (spec.zero, spec.zero):
        raise ValueError("direction must be nonzero")
    pts = [
        (spec.mul(t, direction[0]), spec.mul(t, direction[1])) for t in spec.elements()
    ]
    return PointSet(spec, pts)


def full_plane(spec: RingSpec) -> PointSet:
    return PointSet(spec, list(full_plane_points(spec)))


_MCG_MULTIPLIER = 0xF1357AEA2E62A9C5
_MASK64 = (1 << 64) - 1


class McgStream:
    """64-bit multiplicative congruential generator used for seeded test
    sets, pinned so other implementations can reproduce them exactly:
    state starts at (2*seed + 1) mod 2^64 (forced odd), each step is
    state <- (state * 0xf1357aea2e62a9c5) mod 2^64, and below(m) returns
    (state * m) >> 64 after stepping."""

    def __init__(self, seed: int):
        self.state = (2 * seed + 1) & _MASK64

    def next64(self) -> int:
        self.state = (self.state * _MCG_MULTIPLIER) & _MASK64
        return self.state

    def below(self, m: int) -> int:
        return (self.next64() * m) >> 64


def random_subset(spec: RingSpec, size: int, seed: int) -> PointSet:
    """Seed-deterministic uniform subset without replacement, chosen by
    a partial Fisher-Yates shuffle over the canonically ordered plane,
    whose index v is the point divmod(v, q).  The plane is never listed:
    moved holds only the positions that a swap has filled, so the work
    and memory are O(size)."""
    q = spec.size()
    plane_size = q * q
    if not 0 <= size <= plane_size:
        raise ValueError(f"random-subset size must be in [0, {plane_size}], got {size}")
    rng, moved, pts = McgStream(seed), {}, []
    for i in range(size):
        j = i + rng.below(plane_size - i)
        pts.append(divmod(moved.get(j, j), q))
        moved[j] = moved.get(i, i)
    return PointSet(spec, pts)


def construction_from_json(spec: RingSpec, obj: dict) -> PointSet:
    kind = obj.get("kind")
    if kind == "circle":
        return circle(spec, spec.element_from_json(obj["r"]))
    if kind == "union-circles":
        return union_circles(spec, [spec.element_from_json(r) for r in obj["radii"]])
    if kind == "mod-sharpness":
        if not isinstance(spec, ModPrimePower):
            raise ValueError("mod-sharpness requires a mod-prime-power ring")
        return mod_sharpness_set(spec.p, spec.ell)
    if kind == "line-through-origin":
        d = obj["direction"]
        if not isinstance(d, list) or len(d) != 2:
            raise ValueError(f"direction must be a list of two elements, got {d!r}")
        direction = (spec.element_from_json(d[0]), spec.element_from_json(d[1]))
        return line_through_origin(spec, direction)
    if kind == "random-subset":
        return random_subset(
            spec, checked_int(obj["size"], "size"), checked_int(obj["seed"], "seed")
        )
    if kind == "full-plane":
        return full_plane(spec)
    raise ValueError(f"unknown construction kind: {kind!r}")
