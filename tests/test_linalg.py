import itertools

import pytest

from areal.linalg import (
    apply_mat,
    det,
    enumerate_sl2,
    identity,
    orbit_size,
    perp_dot,
    sl2_blocks,
    sl2_order,
)
from areal.rings import galois_field, mod_prime_power, prime_field

F3 = prime_field(3)
F5 = prime_field(5)
Z9 = mod_prime_power(3, 2)


def all_mats(spec):
    return list(itertools.product(spec.elements(), repeat=4))


def mat_add(spec, m, n):
    return tuple(spec.add(x, y) for x, y in zip(m, n))


def mat_mul(spec, m, n):
    """The reference 2x2 product, entry by entry."""
    a, b, c, d = m
    e, f, g, h = n
    return (
        spec.add(spec.mul(a, e), spec.mul(b, g)),
        spec.add(spec.mul(a, f), spec.mul(b, h)),
        spec.add(spec.mul(c, e), spec.mul(d, g)),
        spec.add(spec.mul(c, f), spec.mul(d, h)),
    )


def det_bilinear(spec, m, n):
    """The bilinear form B with det(M + N) = det(M) + det(N) + B(M, N);
    explicitly B = a_m d_n + a_n d_m - b_m c_n - b_n c_m."""
    a1, b1, c1, d1 = m
    a2, b2, c2, d2 = n
    pos = spec.add(spec.mul(a1, d2), spec.mul(a2, d1))
    neg = spec.add(spec.mul(b1, c2), spec.mul(b2, c1))
    return spec.sub(pos, neg)


def is_sl2(spec, m):
    return det(spec, m) == spec.one


def all_vecs(spec):
    return list(itertools.product(spec.elements(), repeat=2))


def test_perp_dot_examples():
    assert perp_dot(F3, (1, 0), (0, 1)) == 1
    assert perp_dot(F3, (2, 1), (2, 1)) == 0
    assert perp_dot(Z9, (1, 0), (0, 3)) == 3


def test_perp_dot_antisymmetric_and_equals_column_det():
    for x in all_vecs(F3):
        for y in all_vecs(F3):
            assert perp_dot(F3, x, y) == F3.neg(perp_dot(F3, y, x))
            assert perp_dot(F3, x, y) == det(F3, (x[0], y[0], x[1], y[1]))


def test_det_identity_and_apply():
    assert det(F3, identity(F3)) == 1
    for v in all_vecs(F5):
        assert apply_mat(F5, identity(F5), v) == v


def test_det_multiplicative_exhaustive_f3():
    mats = all_mats(F3)
    for m in mats:
        dm = det(F3, m)
        for n in mats:
            assert det(F3, mat_mul(F3, m, n)) == F3.mul(dm, det(F3, n))


def test_det_sum_expansion_exhaustive_f3():
    mats = all_mats(F3)
    for m in mats:
        dm = det(F3, m)
        for n in mats:
            lhs = det(F3, mat_add(F3, m, n))
            rhs = F3.add(F3.add(dm, det(F3, n)), det_bilinear(F3, m, n))
            assert lhs == rhs


def test_det_bilinear_is_bilinear_exhaustive_f3():
    mats = all_mats(F3)
    for m in mats:
        for n in mats:
            b = det_bilinear(F3, m, n)
            for c in F3.elements():
                scaled = tuple(F3.mul(c, x) for x in m)
                assert det_bilinear(F3, scaled, n) == F3.mul(c, b)
    # additivity on a spot-checked slice (full triple product is 81^3)
    for m in mats[::7]:
        for m2 in mats[::11]:
            s = mat_add(F3, m, m2)
            for n in mats[::13]:
                assert det_bilinear(F3, s, n) == F3.add(
                    det_bilinear(F3, m, n), det_bilinear(F3, m2, n)
                )


@pytest.mark.parametrize(
    "spec,expected",
    [
        (F3, 24),
        (F5, 120),
        (prime_field(7), 336),
        (galois_field(3, 2), 720),
        (Z9, 648),
        (mod_prime_power(3, 3), 17496),
        (mod_prime_power(5, 2), 15000),
        (galois_field(5, 2), 15600),
        (galois_field(3, 3), 19656),
        (mod_prime_power(7, 2), 115248),
    ],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_sl2_order_matches_enumeration(spec, expected):
    assert sl2_order(spec) == expected
    group = list(enumerate_sl2(spec))
    assert len(group) == expected
    assert len(set(group)) == expected
    for g in group[:50]:
        assert is_sl2(spec, g)


def test_sl2_order_reads_one_orbit_size_not_the_list_of_orbits(monkeypatch):
    # Z/3^7100 Z: the orbit of (1, 0) has its own closed form, so sl2_order
    # does O(l) bits of arithmetic where building all l + 1 orbit sizes
    # was O(l^2)
    import areal.linalg as linalg

    spec = mod_prime_power(3, 7_100)
    monkeypatch.setattr(linalg, "plane_orbits", None)
    assert orbit_size(spec, 0) == 3 ** 14_200 - 3 ** 14_198
    assert orbit_size(spec, 7_099) == 3 ** 2 - 1
    assert sl2_order(spec) == 3 ** 21_300 - 3 ** 21_298


def test_enumerate_sl2_exactly_det_one_matrices():
    naive = {m for m in all_mats(Z9) if det(Z9, m) == 1}
    assert set(enumerate_sl2(Z9)) == naive


def row_by_row_sl2(spec):
    """The group in its documented order, one checked ring call per entry:
    a unit a leaves (b, c) free with d = a^{-1}(1 + bc); otherwise b is a
    unit, d is free and c = b^{-1}(ad - 1)."""
    one = spec.one
    elems = list(spec.elements())
    units = [a for a in elems if spec.is_unit(a)]
    for a in elems:
        if spec.is_unit(a):
            ai = spec.inv(a)
            for b in elems:
                for c in elems:
                    d = spec.mul(ai, spec.add(one, spec.mul(b, c)))
                    yield (a, b, c, d)
        else:
            for b in units:
                bi = spec.inv(b)
                for d in elems:
                    c = spec.mul(bi, spec.sub(spec.mul(a, d), one))
                    yield (a, b, c, d)


@pytest.mark.parametrize(
    "spec",
    [F3, galois_field(3, 2), galois_field(5, 2), Z9, mod_prime_power(3, 3), mod_prime_power(7, 2)],
    ids=lambda s: s.label(),
)
def test_enumerate_sl2_keeps_the_row_by_row_order(spec):
    assert list(enumerate_sl2(spec)) == list(row_by_row_sl2(spec))
    blocks = list(sl2_blocks(spec))
    # one block per top row, each as long as its cs and ds
    assert len({(a, b) for a, b, _, _ in blocks}) == len(blocks)
    assert all(len(cs) == len(ds) for _, _, cs, ds in blocks)


def test_enumerate_sl2_partitions_merge_to_serial():
    serial = list(enumerate_sl2(F5))
    chunks = []
    for lo in range(0, len(serial), 37):
        chunks.extend(
            itertools.islice(enumerate_sl2(F5), lo, min(lo + 37, len(serial)))
        )
    assert chunks == serial


def test_perp_dot_sl2_invariant_exhaustive():
    for spec in (F3, Z9):
        vecs = all_vecs(spec)
        pos = {v: i for i, v in enumerate(vecs)}
        table = [[perp_dot(spec, x, y) for y in vecs] for x in vecs]
        for g in enumerate_sl2(spec):
            perm = [pos[apply_mat(spec, g, x)] for x in vecs]
            for i in range(len(vecs)):
                row, prow = table[i], table[perm[i]]
                for j in range(len(vecs)):
                    assert prow[perm[j]] == row[j]
