import itertools

import pytest

from areal.census import count_classes, full_plane_points
from areal.configs import badness_level
from areal.constructions import (
    McgStream,
    circle,
    construction_from_json,
    full_plane,
    line_through_origin,
    mod_sharpness_set,
    random_subset,
    rotation_group,
    union_circles,
)
from areal.linalg import apply_mat, det, identity, perp_dot
from areal.rings import galois_field, mod_prime_power, prime_field
from traced_child import traced

F3 = prime_field(3)
F5 = prime_field(5)
Z9 = mod_prime_power(3, 2)


def naive_circle(spec, r):
    # oracle: rescan the plane with raw arithmetic
    return sorted(
        (a, b)
        for a in spec.elements()
        for b in spec.elements()
        if spec.add(spec.mul(a, a), spec.mul(b, b)) == r
    )


def test_circle_f3_unit_radius():
    E = circle(F3, 1)
    assert set(E.points) == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert len(E) == 4  # q + 1 when q = 3 mod 4


def test_circle_f5_unit_radius():
    E = circle(F5, 1)
    assert len(E) == 4  # q - 1 when q = 1 mod 4
    assert set(E.points) == set(naive_circle(F5, 1))


def test_circle_zero_radius_contains_origin():
    for spec in (F3, F5, Z9):
        assert (spec.zero, spec.zero) in circle(spec, spec.zero)


def test_union_circles():
    assert len(union_circles(F5, [1, 4])) == 8  # both nonzero squares
    assert len(union_circles(F5, [])) == 0
    assert union_circles(F3, [1]) == circle(F3, 1)
    with pytest.raises(ValueError):
        union_circles(F5, [1, 1])


def test_union_of_every_circle_scans_the_plane_once(monkeypatch):
    # one pass over the q^2 points of the plane, not one per radius
    F7 = prime_field(7)
    calls = []
    mul = type(F7).mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(type(F7), "mul", counted)
    assert len(union_circles(F7, range(7))) == 49
    assert len(calls) <= 2 * 7 ** 2


def test_rotation_group_small_fields():
    for spec, expected in ((F3, 4), (F5, 4)):
        rots = rotation_group(spec)
        assert len(rots) == expected
        assert identity(spec) in rots
        for g in rots:
            assert det(spec, g) == spec.one


def test_rotations_preserve_every_circle():
    for spec in (F3, F5, Z9):
        rots = rotation_group(spec)
        for r in spec.elements():
            E = circle(spec, r)
            for g in rots:
                assert {apply_mat(spec, g, x) for x in E.points} == E.members


def test_mod_sharpness_set_size_and_badness():
    E = mod_sharpness_set(3, 2)
    assert len(E) == 27  # p^(2l-1)
    spec = E.spec
    for x in E.points:
        for y in E.points:
            assert not spec.is_unit(perp_dot(spec, x, y))


def test_mod_sharpness_every_tuple_is_bad():
    E = mod_sharpness_set(3, 2)
    report = count_classes(E, 1)
    assert report.tuples_by_level.get(0, 0) == 0


def test_mod_sharpness_degenerate_ell_1():
    E = mod_sharpness_set(3, 1)
    assert E.points == ((0, 0), (1, 1), (2, 2))


def test_line_through_origin():
    E = line_through_origin(F3, (1, 0))
    assert set(E.points) == {(0, 0), (1, 0), (2, 0)}
    assert all(badness_level(F3, pair) == 1 for pair in itertools.product(E, repeat=2))
    with pytest.raises(ValueError):
        line_through_origin(F3, (0, 0))


def test_full_plane_sizes():
    assert len(full_plane(F3)) == 9
    assert len(full_plane(galois_field(3, 2))) == 81


def test_mcg_stream_is_pinned():
    rng = McgStream(0)
    assert rng.next64() == 0xF1357AEA2E62A9C5
    rng = McgStream(1)
    first = rng.next64()
    assert first == (3 * 0xF1357AEA2E62A9C5) % 2 ** 64


def test_random_subset_deterministic():
    a = random_subset(F5, 10, 42)
    b = random_subset(F5, 10, 42)
    c = random_subset(F5, 10, 43)
    assert a == b
    assert len(a) == 10
    assert a != c
    with pytest.raises(ValueError):
        random_subset(F3, 10, 0)


def test_random_subset_pinned_sample():
    # frozen so cross-version drift in the generator is caught
    assert random_subset(F3, 4, 1).points == ((0, 1), (0, 2), (2, 1), (2, 2))


def listed_shuffle(spec, size, seed):
    # oracle: the partial Fisher-Yates shuffle over the listed plane
    plane = list(full_plane_points(spec))
    rng = McgStream(seed)
    for i in range(size):
        j = i + rng.below(len(plane) - i)
        plane[i], plane[j] = plane[j], plane[i]
    return sorted(plane[:size])


@pytest.mark.parametrize(
    "spec",
    [F3, prime_field(7), galois_field(3, 2), mod_prime_power(3, 3), galois_field(3, 4), mod_prime_power(5, 2)],
    ids=lambda spec: spec.label(),
)
def test_random_subset_matches_the_listed_shuffle(spec):
    plane_size = spec.size() ** 2
    for size in sorted({s for s in (0, 1, 6, 20, 150, plane_size // 2, plane_size) if s <= plane_size}):
        for seed in (0, 1, 7, 2 ** 63):
            assert list(random_subset(spec, size, seed)) == listed_shuffle(spec, size, seed)


def test_random_subset_never_lists_the_plane():
    # Z/3^11Z: a plane of 3^22 (about 3.1e10) points, of which six are drawn
    _, peak, (size, in_ring) = traced(
        "from areal.constructions import random_subset\n"
        "from areal.rings import mod_prime_power\n"
        "spec = mod_prime_power(3, 11)",
        "E = random_subset(spec, 6, 1)",
        "(len(E), all(0 <= c < spec.size() for x in E for c in x))",
    )
    assert size == 6 and in_ring
    assert peak <= 64 << 10


def test_construction_from_json():
    assert construction_from_json(F3, {"kind": "circle", "r": 1}) == circle(F3, 1)
    assert construction_from_json(
        F5, {"kind": "union-circles", "radii": [1, 4]}
    ) == union_circles(F5, [1, 4])
    assert construction_from_json(Z9, {"kind": "mod-sharpness"}) == mod_sharpness_set(3, 2)
    assert construction_from_json(
        F3, {"kind": "line-through-origin", "direction": [1, 0]}
    ) == line_through_origin(F3, (1, 0))
    assert construction_from_json(
        F3, {"kind": "random-subset", "size": 4, "seed": 1}
    ) == random_subset(F3, 4, 1)
    assert construction_from_json(F3, {"kind": "full-plane"}) == full_plane(F3)
    with pytest.raises(ValueError):
        construction_from_json(F3, {"kind": "mod-sharpness"})
    with pytest.raises(ValueError):
        construction_from_json(F3, {"kind": "pentagon"})
