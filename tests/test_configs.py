import itertools

import pytest
from hypothesis import given, strategies as st

from areal.configs import (
    AreaSignature,
    BothBad,
    NotEquivalent,
    apply_config,
    badness_level,
    orbit,
    pair_indices,
    recover_g,
    signature,
)
from areal.linalg import apply_mat, enumerate_sl2, identity, perp_dot
from areal.rings import galois_field, mod_prime_power, prime_field

F3 = prime_field(3)
F9 = galois_field(3, 2)
Z9 = mod_prime_power(3, 2)


def test_pair_indices_order():
    assert pair_indices(1) == ((0, 1),)
    assert pair_indices(2) == ((0, 1), (0, 2), (1, 2))
    assert pair_indices(3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_signature_examples():
    assert signature(F3, ((1, 0), (0, 1))).areas == (1,)
    assert signature(F3, ((1, 0), (2, 0), (0, 1))).areas == (0, 1, 2)


def test_signature_needs_two_points():
    with pytest.raises(ValueError):
        signature(F3, ((1, 0),))


def test_signature_invariant_under_sl2():
    xs = ((1, 0), (0, 1), (2, 2))
    sig = signature(F3, xs)
    for g in enumerate_sl2(F3):
        assert signature(F3, apply_config(F3, g, xs)) == sig


@given(st.permutations(range(3)))
def test_signature_permutes_with_the_configuration(perm):
    xs = ((1, 0), (0, 1), (2, 1))
    base = signature(F3, xs)
    permuted = signature(F3, tuple(xs[i] for i in perm))
    # each permuted-entry area equals the base area up to antisymmetry
    for (i, j), area in zip(pair_indices(2), permuted.areas):
        a, b = perm[i], perm[j]
        expected = perp_dot(F3, xs[a], xs[b])
        assert area == expected


def test_encoding_is_stable_and_injective_on_small_plane():
    seen = {}
    for xs in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        sig = signature(F3, xs)
        key = sig.encode()
        assert seen.setdefault(key, sig.areas) == sig.areas
    assert len(seen) == 3  # k=1 classes of the full F_3 plane
    # frozen bytes: k prefix then one byte per area index
    assert signature(F3, ((1, 0), (0, 1))).encode() == b"\x00\x01\x01"
    assert signature(F3, ((1, 0), (2, 0), (0, 1))).encode() == b"\x00\x02\x00\x01\x02"


def test_badness_levels():
    assert badness_level(F3, ((1, 0), (0, 1))) == 0
    assert badness_level(Z9, ((1, 0), (0, 1))) == 0
    assert badness_level(F3, ((1, 0), (2, 0))) == 1
    assert badness_level(Z9, ((1, 0), (0, 3))) == 1
    assert badness_level(Z9, ((0, 0), (0, 0))) == 2


def test_badness_is_a_class_invariant_exhaustive_f3_pairs():
    by_key = {}
    for xs in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        key = signature(F3, xs).encode()
        m = badness_level(F3, xs)
        assert by_key.setdefault(key, m) == m


def test_recover_g_identity_on_self():
    xs = ((1, 0), (0, 1), (1, 2))
    assert recover_g(F3, xs, xs) == identity(F3)


def test_recover_g_rotation_example():
    xs = ((1, 0), (0, 1))
    ys = ((0, 1), (2, 0))
    g = recover_g(F3, xs, ys)
    assert g == (0, 2, 1, 0)
    # oracle: the full group scan finds exactly this one element
    matches = [h for h in enumerate_sl2(F3) if apply_config(F3, h, xs) == ys]
    assert matches == [g]


def test_recover_g_bad_base_raises():
    xs = ((1, 0), (2, 0))
    with pytest.raises(BothBad):
        recover_g(F3, xs, xs)


def test_recover_g_not_equivalent_raises():
    with pytest.raises(NotEquivalent):
        recover_g(F3, ((1, 0), (0, 1)), ((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        recover_g(F3, ((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)))


def _scan(spec, xs, ys):
    """Every g of SL_2 with g xs = ys, by full scan."""
    return [g for g in enumerate_sl2(spec) if apply_config(spec, g, xs) == ys]


def test_recover_g_gives_each_ring_its_own_g():
    # the same pairs of ints, read in F_9 and in Z/9Z, back to back
    xs = ((1, 1), (2, 3), (4, 0))
    cases = []
    for spec in (F9, Z9):
        g = list(enumerate_sl2(spec))[100]
        cases.append((spec, g, apply_config(spec, g, xs)))
    for spec, g, ys in cases + cases[::-1]:
        assert recover_g(spec, xs, ys) == g
        assert _scan(spec, xs, ys) == [g]


def test_recover_g_alternating_bases():
    group = list(enumerate_sl2(F3))
    a, b = ((1, 0), (0, 1), (1, 2)), ((2, 1), (1, 1))
    for xs, g in ((a, group[5]), (b, group[17]), (a, group[11])):
        ys = apply_config(F3, g, xs)
        assert recover_g(F3, xs, ys) == g
        assert _scan(F3, xs, ys) == [g]


def test_recover_g_still_raises_after_a_success():
    xs = ((1, 0), (0, 1), (1, 2))
    g = list(enumerate_sl2(F3))[7]
    assert recover_g(F3, xs, apply_config(F3, g, xs)) == g
    with pytest.raises(BothBad):
        recover_g(F3, ((1, 0), (2, 0), (0, 0)), ((1, 0), (2, 0), (0, 0)))
    assert recover_g(F3, xs, apply_config(F3, g, xs)) == g
    with pytest.raises(NotEquivalent):  # the area of the last two points differs
        recover_g(F3, xs, ((1, 0), (0, 1), (2, 2)))
    with pytest.raises(ValueError):
        recover_g(F3, xs, xs[:2])


def test_orbit_sizes():
    assert len(orbit(F3, ((1, 0), (0, 1)))) == 24  # free action on good tuples
    assert len(orbit(F3, ((0, 0), (0, 0)))) == 1
    size = len(orbit(Z9, ((1, 0), (0, 3))))
    assert size >= 3 ** 4  # 1-bad classes hold at least p^(3l-2m) tuples
    assert size == 216  # exact value frozen from the brute-force scan


def test_orbit_members_share_signature():
    xs = ((1, 0), (0, 3))
    sig = signature(Z9, xs)
    for ys in orbit(Z9, xs):
        assert signature(Z9, ys) == sig
