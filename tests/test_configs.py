import functools
import itertools

import pytest
from hypothesis import assume, given, strategies as st

from areal.configs import (
    BothBad,
    NotEquivalent,
    apply_config,
    badness_level,
    first_unit_pair,
    pair_indices,
    recover_g,
    recovery,
    signature,
)
from areal.linalg import col_matrix, enumerate_sl2, identity
from areal.rings import galois_field, mod_prime_power, prime_field
from test_linalg import mat_mul

F3 = prime_field(3)
F9 = galois_field(3, 2)
Z9 = mod_prime_power(3, 2)


def test_pair_indices_order():
    assert pair_indices(1) == ((0, 1),)
    assert pair_indices(2) == ((0, 1), (0, 2), (1, 2))
    assert pair_indices(3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_signature_examples():
    assert signature(F3, ((1, 0), (0, 1))) == (1,)
    assert signature(F3, ((1, 0), (2, 0), (0, 1))) == (0, 1, 2)


def test_signature_needs_two_points():
    with pytest.raises(ValueError):
        signature(F3, ((1, 0),))


def test_signature_invariant_under_sl2():
    # a good triple over F_3, and a 1-bad pair over Z/9Z
    for spec, xs in ((F3, ((1, 0), (0, 1), (2, 2))), (Z9, ((1, 0), (0, 3)))):
        sig = signature(spec, xs)
        for g in enumerate_sl2(spec):
            assert signature(spec, apply_config(spec, g, xs)) == sig


@given(st.permutations(range(3)))
def test_signature_permutes_with_the_configuration(perm):
    xs = ((1, 0), (0, 1), (2, 1))
    base = signature(F3, xs)
    permuted = signature(F3, tuple(xs[i] for i in perm))
    # each permuted-entry area equals the base area up to antisymmetry:
    # the entry of the pair in base order, negated when the order flips
    entry = dict(zip(pair_indices(2), base))
    for (i, j), area in zip(pair_indices(2), permuted):
        a, b = perm[i], perm[j]
        expected = entry[a, b] if a < b else F3.neg(entry[b, a])
        assert area == expected


def test_badness_levels():
    assert badness_level(F3, ((1, 0), (0, 1))) == 0
    assert badness_level(Z9, ((1, 0), (0, 1))) == 0
    assert badness_level(F3, ((1, 0), (2, 0))) == 1
    assert badness_level(Z9, ((1, 0), (0, 3))) == 1
    assert badness_level(Z9, ((0, 0), (0, 0))) == 2


def test_badness_is_a_class_invariant_exhaustive_f3_pairs():
    by_key = {}
    for xs in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        key = signature(F3, xs)
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


@st.composite
def _configurations(draw):
    spec = draw(st.sampled_from([prime_field(5), F9, Z9, mod_prime_power(3, 3)]))
    point = st.tuples(*[st.integers(0, spec.size() - 1)] * 2)
    return spec, tuple(draw(st.lists(point, min_size=2, max_size=4)))


@given(_configurations())
def test_recovery_base_inverts_the_first_unit_pair(case):
    # the pair, its one area and the base inverse; no signature of xs is kept
    spec, xs = case
    recover, pair = recovery(spec, xs), first_unit_pair(spec, xs)
    if pair is None:
        assert recover is None
        return
    (i, j), area, inverse = recover.args[2:]
    assert (i, j) == pair and area == spec.perp_dot(xs[i], xs[j])
    assert area == signature(spec, xs)[pair_indices(len(xs) - 1).index(pair)]
    b = col_matrix(xs[i], xs[j])
    assert mat_mul(spec, inverse, b) == mat_mul(spec, b, inverse) == identity(spec)
    assert recover(xs) == identity(spec)


@functools.lru_cache(maxsize=None)
def _group(spec):
    return list(enumerate_sl2(spec))


@st.composite
def _perturbed_images(draw):
    """A good xs of 2 to 4 points over F_5, F_9, Z/9Z or Z/27Z, and ys =
    g xs for a drawn g of SL_2 with one drawn point then replaced by a
    drawn point (often itself, and often outside the base pair)."""
    spec = draw(st.sampled_from([prime_field(5), F9, Z9, mod_prime_power(3, 3)]))
    point = st.tuples(*[st.integers(0, spec.size() - 1)] * 2)
    xs = tuple(draw(st.lists(point, min_size=2, max_size=4)))
    assume(first_unit_pair(spec, xs) is not None)
    ys = list(apply_config(spec, draw(st.sampled_from(_group(spec))), xs))
    slot = draw(st.integers(0, len(xs) - 1))
    ys[slot] = draw(st.one_of(st.just(ys[slot]), point))
    return spec, xs, tuple(ys)


@given(_perturbed_images())
def test_recover_g_raises_not_equivalent_exactly_when_the_signatures_differ(case):
    # recover_g compares only the base pair's area, then checks g on every point
    spec, xs, ys = case
    if signature(spec, ys) != signature(spec, xs):
        with pytest.raises(NotEquivalent):
            recover_g(spec, xs, ys)
    else:
        assert apply_config(spec, recover_g(spec, xs, ys), xs) == ys


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
