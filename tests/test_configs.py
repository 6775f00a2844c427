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
from areal.linalg import enumerate_sl2, identity
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


@pytest.mark.parametrize("read", [badness_level, first_unit_pair, recovery])
@pytest.mark.parametrize("xs", [(), ((1, 0),)], ids=["0-points", "1-point"])
def test_every_reader_of_the_signature_needs_two_points(read, xs):
    # signature's ValueError, not a level, None or BothBad
    with pytest.raises(ValueError, match="at least 2 points"):
        read(F3, xs)
    with pytest.raises(ValueError, match="at least 2 points"):
        recover_g(F3, xs, xs)


@pytest.mark.parametrize("read", [badness_level, first_unit_pair, recovery])
def test_badness_first_unit_pair_and_recovery_read_one_signature_per_tuple(monkeypatch, read):
    # signature is the only code that computes the tuple's areas
    import areal.configs as configs
    from areal.rings import RingSpec

    calls, areas, perp_dot = [], [], RingSpec.perp_dot

    def counted(spec, points):
        calls.append(points)
        return signature(spec, points)

    def counted_area(self, x, y):
        areas.append((x, y))
        return perp_dot(self, x, y)

    monkeypatch.setattr(configs, "signature", counted)
    monkeypatch.setattr(RingSpec, "perp_dot", counted_area)
    # good, bad at level 1, and good only at the last pair
    for spec, xs in ((F3, ((1, 0), (0, 1), (1, 2))), (Z9, ((3, 0), (0, 3), (6, 6))), (Z9, ((3, 0), (1, 0), (0, 1)))):
        calls.clear()
        areas.clear()
        read(spec, xs)
        assert calls == [xs] and areas == [(xs[i], xs[j]) for i, j in pair_indices(len(xs) - 1)]


def test_recover_compares_one_area_per_ys_and_reads_no_signature(monkeypatch):
    import areal.configs as configs
    from areal.rings import RingSpec

    xs = ((1, 0), (0, 1), (1, 2), (2, 2))
    recover, areas, perp_dot = recovery(F3, xs), [], RingSpec.perp_dot

    def counted(self, x, y):
        areas.append((x, y))
        return perp_dot(self, x, y)

    def no_signature(spec, points):
        raise AssertionError("a recovery compares one area per ys, not a signature")

    monkeypatch.setattr(RingSpec, "perp_dot", counted)
    monkeypatch.setattr(configs, "signature", no_signature)
    for g in enumerate_sl2(F3):
        ys = apply_config(F3, g, xs)
        areas.clear()
        assert recover(ys) == g and areas == [ys[:2]]
    for ys in (((1, 0), (0, 2), (1, 2), (2, 2)), ((1, 0), (0, 1), (1, 2), (0, 0))):
        areas.clear()
        with pytest.raises(NotEquivalent):
            recover(ys)
        assert areas == [ys[:2]]


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
    # the size, the pair, its one area, the base inverse's two columns and
    # the points off the pair; no signature of xs is kept
    spec, xs = case
    recover, pair = recovery(spec, xs), first_unit_pair(spec, xs)
    if pair is None:
        assert recover is None
        return
    size, (i, j), area, ((a, c), (b, d)), off = recover.args[1:]
    assert size == len(xs) and off == [(s, x) for s, x in enumerate(xs) if s not in (i, j)]
    assert (i, j) == pair and area == spec.perp_dot(xs[i], xs[j])
    assert area == signature(spec, xs)[pair_indices(len(xs) - 1).index(pair)]
    base, inverse = (xs[i][0], xs[j][0], xs[i][1], xs[j][1]), (a, b, c, d)
    assert mat_mul(spec, inverse, base) == mat_mul(spec, base, inverse) == identity(spec)
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
