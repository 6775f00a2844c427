import hashlib
import itertools
import math
import operator
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from areal import census, rings
from areal.census import (
    BudgetExceeded,
    NotTransitive,
    PointSet,
    count_bad_tuples,
    count_bad_tuples_naive,
    count_classes,
    designated_orbit,
    f_profile,
    flemma_check,
    good_class_members,
    key_badness,
    mbad_class_size_check,
    moment_identity_check,
    moment_lift_check,
    moments,
    nu_histogram,
    plane_closed_forms,
    signature_counts,
    transitivity_constant,
)
from areal.configs import badness_level, key_width, pair_indices, signature
from areal.constructions import full_plane, line_through_origin, mod_sharpness_set, random_subset
from areal.linalg import enumerate_sl2, identity, plane_orbits, sl2_order
from areal.rings import galois_field, mod_prime_power, prime_field
from traced_child import traced

F3 = prime_field(3)
F5 = prime_field(5)
Z9 = mod_prime_power(3, 2)

PLANE3 = full_plane(F3)
PLANE5 = full_plane(F5)


@pytest.mark.parametrize(
    "spec",
    [F3, F5, prime_field(7), galois_field(3, 2), Z9, mod_prime_power(5, 2), mod_prime_power(3, 3),
     galois_field(5, 2), galois_field(3, 3), mod_prime_power(7, 2)],
    ids=lambda spec: spec.label(),
)
def test_plane_orbits_partition_the_plane(spec):
    # each root's SL_2 orbit, listed by enumerate_sl2, has the stated size;
    # the orbits are disjoint and cover the plane
    group, plane, covered = list(enumerate_sl2(spec)), set(full_plane(spec).points), set()
    orbits = plane_orbits(spec)
    assert len(orbits) == spec.max_level + 1
    for root, size in orbits:
        orbit = set(map(spec.apply_mat, group, itertools.repeat(root)))
        assert len(orbit) == size
        assert not orbit & covered
        covered |= orbit
    assert covered == plane


def test_pointset_dedupes_and_sorts():
    E = PointSet(F3, [(2, 2), (0, 1), (2, 2), (1, 0)])
    assert E.points == ((0, 1), (1, 0), (2, 2))
    assert (0, 1) in E and (0, 0) not in E
    assert len(E) == 3


def test_count_classes_full_plane_f3_k1():
    report = count_classes(PLANE3, 1)
    assert report.total_classes == 3  # one class per attainable area
    assert report.tuples_by_level == {0: 48, 1: 33}
    assert report.classes_by_level == {0: 2, 1: 1}
    assert sum(report.tuples_by_level.values()) == 81


def test_count_classes_empty_set():
    report = count_classes(PointSet(F3, []), 2)
    assert report.total_classes == 0
    assert report.total_tuples == 0
    # the kernel keys no tuple of an empty set, at one-byte and two-byte keys alike
    for spec in (F3, galois_field(3, 2), mod_prime_power(7, 3)):
        for k in (2, 3, 5):
            report = count_classes(PointSet(spec, []), k)
            assert (report.total_classes, report.total_tuples, report.size_tally) == (0, 0, {})


def test_count_classes_full_plane_f3_k2_free_good_action():
    report = count_classes(PLANE3, 2)
    good_tuples = report.tuples_by_level[0]
    good_classes = report.classes_by_level[0]
    assert good_tuples == good_classes * 24  # |SL_2(F_3)| orbits exactly
    assert report.classes_by_level[1] == 1  # all-bad tuples share one signature


def test_budget_error_names_required_budget():
    with pytest.raises(BudgetExceeded) as err:
        count_classes(PLANE5, 3, budget=10)
    assert err.value.required == 25 ** 4
    assert "390625" in str(err.value)


@pytest.mark.parametrize(
    "spec, k, forms",
    [(F3, 1, 5), (F3, 2, 5), (F3, 3, 4), (F5, 1, 5), (F5, 2, 5), (F5, 3, 4), (prime_field(7), 2, 5),
     (galois_field(3, 2), 1, 5), (galois_field(3, 2), 2, 5), (prime_field(11), 2, 5),
     (Z9, 1, 4), (Z9, 2, 4), (mod_prime_power(3, 3), 1, 5), (mod_prime_power(5, 2), 1, 4),
     (mod_prime_power(7, 2), 1, 4)],
    ids=lambda v: v.label() if hasattr(v, "label") else str(v),
)
def test_plane_closed_forms_hold_on_every_small_plane(spec, k, forms):
    # two forms on every plane, two more over F_q, one per level below the
    # top at k <= 2; the F_q good classes at k = 3 are 260 over F_3 and 3,224
    # over F_5
    report = count_classes(full_plane(spec), k)
    conditions = plane_closed_forms(report)
    assert len(conditions) == forms and all(conditions.values())
    if (spec, k) in ((F3, 3), (F5, 3)):
        assert report.classes_by_level[0] == {3: 260, 5: 3224}[spec.size()]


@given(
    base=st.one_of(st.integers(0, 40), st.integers(0, 1 << 80)),
    exp=st.one_of(st.integers(1, 200), st.integers(1, 10 ** 9)),
    budget=st.one_of(st.integers(1, (1 << 64) - 1), st.integers(1, 1 << 200)),
)
@example(base=3, exp=64, budget=10 ** 9)  # exp (b - 1) = 64: the first lower bound
@example(base=3, exp=63, budget=10 ** 9)  # 3^63, the largest exact charge of base 3
@example(base=5, exp=4, budget=100)  # the Z/25Z plane at budget 100: 625, exactly
def test_check_power_budget_is_the_one_power_rule(base, exp, budget):
    # it raises exactly when base^exp > budget; the charge is exact while
    # exp (bit_length(base) - 1) < max(bit_length(budget), 64), else the
    # lower bound 2^bit_length(budget); and the one power it builds is
    # below 2^max(128, 2 bit_length(budget)), so below 2^128 for every
    # budget below 2^64
    with mock.patch.object(census, "check_budget", wraps=census.check_budget) as charged:
        try:
            census.check_power_budget(base, exp, budget)
            refused = None
        except BudgetExceeded as exc:
            refused = exc
    built = [call.args[0] for call in charged.call_args_list]
    assert all(power < 1 << max(128, 2 * budget.bit_length()) for power in built)
    if exp * (base.bit_length() - 1) < max(budget.bit_length(), 64):
        assert built == [base ** exp]
        assert (refused is not None) == (base ** exp > budget)
        assert refused is None or (refused.exact and refused.required == base ** exp)
    else:
        assert built == []
        assert refused is not None and not refused.exact
        assert refused.required == 1 << budget.bit_length() > budget
        assert "at least" in str(refused)
        # base^exp >= 2^(exp (b - 1)) >= the lower bound, built here while small
        if exp * base.bit_length() <= 4096:
            assert base ** exp >= refused.required


def _signature_oracle(E, k):
    """Class sizes, per-level tuple and class counts, and the per-level
    tally level -> {class size -> number of classes} of E^{k+1}, grouped
    by configs.signature, with no area table and no census keys."""
    spec = E.spec
    classes = Counter(signature(spec, t) for t in itertools.product(E.points, repeat=k + 1))
    tuples_by_level, classes_by_level, tally = Counter(), Counter(), {}
    for areas, size in classes.items():
        m = min([spec.max_level] + [spec.valuation(a) for a in areas])
        tuples_by_level[m] += size
        classes_by_level[m] += 1
        tally.setdefault(m, Counter())[size] += 1
    return sorted(classes.values()), dict(tuples_by_level), dict(classes_by_level), tally


def _key_level(spec, key):
    """The badness level of a census key, decoded area by area, w =
    key_width bytes each from its lowest digit; the zero areas in front
    of its first nonzero digit are at the top level."""
    bits = 8 * key_width(spec)
    areas = [key >> o & (1 << bits) - 1 for o in range(0, key.bit_length(), bits)]
    return min([spec.max_level, *map(spec.valuation, areas)])


@pytest.mark.parametrize(
    "E, k",
    [
        (PLANE3, 1),
        (PLANE3, 2),
        (PLANE3, 3),
        (random_subset(galois_field(3, 2), 9, 4), 1),
        (random_subset(galois_field(3, 2), 9, 4), 2),
        (random_subset(galois_field(3, 2), 9, 4), 3),
        (full_plane(Z9), 1),
        (full_plane(Z9), 2),
        (full_plane(prime_field(7)), 2),
        (PLANE5, 3),
        (random_subset(mod_prime_power(7, 3), 14, 2), 2),  # two-byte keys
    ],
    ids=["F3-k1", "F3-k2", "F3-k3", "F9s-k1", "F9s-k2", "F9s-k3", "Z9-k1", "Z9-k2", "F7-k2", "F5-k3",
         "Z343s-k2"],
)
def test_count_classes_matches_signature_oracle(E, k):
    report = count_classes(E, k)
    sizes, tuples_by_level, classes_by_level, tally = _signature_oracle(E, k)
    assert sorted(report.class_sizes.values()) == sizes
    assert report.tuples_by_level == tuples_by_level
    assert report.classes_by_level == classes_by_level
    assert report.total_classes == len(sizes)
    assert report.size_tally == tally


@pytest.mark.parametrize(
    "E",
    [
        PLANE3,
        random_subset(galois_field(3, 2), 9, 4),
        full_plane(Z9),
        random_subset(mod_prime_power(7, 3), 14, 2),  # two-byte areas
        PointSet(Z9, [(3, 6)]),
        PointSet(F3, []),
    ],
    ids=["F3", "F9s", "Z9", "Z343s", "one-point", "empty"],
)
def test_k1_census_is_read_off_the_area_counts(monkeypatch, E):
    # a pair's class is its one area, so the k = 1 census is nu: one
    # class per area t, of nu(t) tuples, at the level of t, and the
    # kernel is never entered
    def no_kernel(*args):
        raise AssertionError("the k = 1 census entered the kernel")

    monkeypatch.setattr(census, "_nondecreasing_counts", no_kernel)
    report = count_classes(E, 1)
    sizes, tuples_by_level, classes_by_level, tally = _signature_oracle(E, 1)
    assert sorted(report.class_sizes.values()) == sizes
    assert report.tuples_by_level == tuples_by_level
    assert report.classes_by_level == classes_by_level
    assert report.size_tally == tally


@pytest.mark.parametrize(
    "E, k",
    [
        (full_plane(prime_field(7)), 2),
        (random_subset(mod_prime_power(3, 3), 20, 5), 3),
        (random_subset(mod_prime_power(7, 3), 14, 2), 2),  # two-byte keys
    ],
    ids=["F7-k2", "Z27s-k3", "Z343s-k2"],
)
def test_census_key_levels_match_per_area_decode(E, k):
    keys = list(_signature_keys(E, k))
    levels = key_badness(E.spec, keys)
    assert levels == [_key_level(E.spec, key) for key in keys]
    assert set(levels) == set(range(E.spec.max_level + 1))


def test_key_levels_runs_once_per_nondecreasing_key(monkeypatch):
    # a level is the same for every ordering of a nondecreasing key, so
    # the census finds it for C(n + k, k + 1) keys, not for each class
    E = random_subset(mod_prime_power(3, 3), 20, 1)
    seen = []
    key_badness_ = census.key_badness

    def counted(spec, keys):
        seen.append(len(keys))
        return key_badness_(spec, keys)

    monkeypatch.setattr(census, "key_badness", counted)
    report = count_classes(E, 3)
    assert report.total_classes == 137851
    assert sum(seen) <= math.comb(20 + 3, 3 + 1) == 8855


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "E",
    [
        random_subset(galois_field(3, 2), 9, 4),
        random_subset(Z9, 9, 4),
        random_subset(mod_prime_power(7, 3), 12, 2),  # two-byte keys
    ],
    ids=["F9s", "Z9s", "Z343s"],
)
def test_size_tally_matches_the_per_class_level_tally(E, k):
    # the tally the census adds up orbit by orbit is the one that a level
    # per class of the signature keys gives
    report, sizes = count_classes(E, k), _signature_keys(E, k)
    reference = {}
    for (m, size), n in Counter(zip(key_badness(E.spec, list(sizes)), sizes.values())).items():
        reference.setdefault(m, {})[size] = n
    assert report.size_tally == reference
    _assert_tally_of_keys(E, report.class_sizes, sizes)


def test_count_classes_peak_memory_is_the_signature_counts():
    # the per-level tally adds nothing that grows with the number of
    # classes; one unmeasured call first, as whichever function is measured
    # first in a fresh process peaks 160-220 KB higher
    setup = (
        "from areal.census import count_classes, signature_counts\n"
        "from areal.constructions import random_subset\n"
        "from areal.rings import mod_prime_power\n"
        "E = random_subset(mod_prime_power(3, 3), 20, 1)\n"
        "count_classes(E, 3)"
    )
    peak = {fn: traced(setup, f"{fn}(E, 3)")[1] for fn in ("count_classes", "signature_counts")}
    assert peak["count_classes"] <= 1.05 * peak["signature_counts"]


def test_signature_counts_peak_memory_is_a_few_bytes_per_block_key():
    # the first block at k = 2 holds n(n + 1)/2 keys of three one-byte
    # areas, each in a 4-byte word: the byte table and the block take 3
    # n^2 bytes and a block's fills about 2 n^2 more, and Counter.update
    # reads the block cast to ints, so no key is an object until it is
    # counted.  Every area of the set is divisible by 3, so its 729
    # classes keep the Counters and the records small.  The peak was
    # 455-470 KiB (n = 243; the bound, 10 n^2, is 577 KiB), against 1,169
    # KiB when every key of a 64 KiB span was cut into a bytes object
    _, peak, (classes, n) = traced(
        "from areal.census import signature_counts\n"
        "from areal.constructions import mod_sharpness_set\n"
        "E = mod_sharpness_set(3, 3)",
        "counts = signature_counts(E, 2)",
        "(len(counts), len(E))",
    )
    assert classes == 729
    assert peak <= 10 * n ** 2


def test_budget_is_checked_before_the_area_table(monkeypatch):
    def no_table(E):
        raise AssertionError("area table built before the budget check")

    monkeypatch.setattr(census, "area_index_table", no_table)
    with pytest.raises(BudgetExceeded):
        count_classes(PLANE5, 3, budget=10)


def test_nu_histogram_checks_its_budget_before_any_area_row(monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("areas computed before the budget check")

    monkeypatch.setattr(census, "area_index_table", no_rows)
    for ring_class in (rings._Residues, rings.GaloisField):
        monkeypatch.setattr(ring_class, "perp_rows", no_rows)
    for E in (full_plane(F5), random_subset(F5, 9, 2)):  # fresh sets, no histogram counted yet
        with pytest.raises(BudgetExceeded):
            nu_histogram(E, budget=len(E) ** 2 - 1)


def _over_budget_calls():
    """Each engine that takes a budget, as (name, call), on inputs built
    here, none with an area table yet, and a budget one visit below the
    engine's charge."""
    def fresh():
        return random_subset(F5, 6, 1)

    n, profile = 6, f_profile(fresh())
    order = sl2_order(F5)
    yield "count_classes", lambda: count_classes(fresh(), 2, budget=n ** 3 - 1)
    yield "signature_counts", lambda: signature_counts(fresh(), 1, budget=n ** 2 - 1)
    yield "nu_histogram", lambda: nu_histogram(fresh(), budget=n ** 2 - 1)
    yield "f_profile", lambda: f_profile(fresh(), budget=order * n - 1)
    yield "transitivity_constant", lambda: transitivity_constant(F5, budget=order * 24 - 1)
    yield "count_bad_tuples_naive", lambda: count_bad_tuples_naive(fresh(), 2, budget=n ** 3 - 1)
    yield "moment_identity_check", lambda: moment_identity_check(fresh(), profile, budget=order * n * n - 1)
    yield "good_class_members", lambda: good_class_members(fresh(), 2, budget=n ** 3 - 1)


def test_every_engine_charges_its_budget_before_it_builds(monkeypatch):
    # one visit over the budget must be refused before any table, orbit,
    # group or plane is listed and before any area or image is computed
    calls = list(_over_budget_calls())

    def no_build(*args, **kwargs):
        raise AssertionError("built before the budget check")

    for name in ("area_index_table", "designated_orbit", "enumerate_sl2", "sl2_blocks", "full_plane_points"):
        monkeypatch.setattr(census, name, no_build)
    for ring_class in (rings._Residues, rings.GaloisField):
        for name in ("perp_rows", "perp_dot", "apply_mat"):
            monkeypatch.setattr(ring_class, name, no_build)
    for name, call in calls:
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert err.value.required == err.value.budget + 1, name


def test_census_independent_of_point_order():
    # the kernel keys the nondecreasing tuples by point index, so the
    # index order must not reach the counts.  A point set sorts its points,
    # so the order is changed by g in SL_2, which keeps every area: the
    # tally of gE is that of E
    g = (1, 1, 1, 2)
    for E in (random_subset(F5, 12, 7), random_subset(mod_prime_power(3, 3), 24, 7)):
        moved = [E.spec.apply_mat(g, x) for x in E.points]
        gE = PointSet(E.spec, moved)
        assert list(map(gE.points.index, moved)) != list(range(len(E)))
        for k in (1, 2, 3):
            assert signature_counts(gE, k).tally == signature_counts(E, k).tally


def _signature_keys(E, k):
    """The key of every ordered tuple of E^{k+1}: its configs.signature,
    packed by _encoded_signature."""
    width = key_width(E.spec)
    return Counter(_encoded_signature(E.spec, t, width) for t in itertools.product(E.points, repeat=k + 1))


def _encoded_signature(spec, t, width):
    """The census key of t: its signature, each area's index in width
    bytes big-endian, zero bytes in front up to a stride of 1, 2, 4 or 8
    bytes or of whole 8-byte lanes, read as one big-endian int (so the
    last area is its lowest digit)."""
    key = b"".join(a.to_bytes(width, "big") for a in signature(spec, t))
    stride = min(s for s in (1, 2, 4, 8, -(-len(key) // 8) * 8) if s >= len(key))
    return int.from_bytes(key.rjust(stride, b"\0"), "big")


_KEYED_SETS = [
    random_subset(F3, 6, 1),
    random_subset(galois_field(3, 2), 7, 2),
    random_subset(Z9, 7, 3),
    random_subset(mod_prime_power(7, 3), 6, 4),  # two-byte keys
]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("E", _KEYED_SETS, ids=["F3s", "F9s", "Z9s", "Z343s"])
def test_census_keys_are_the_encoded_signatures(E, k):
    # the kernel keys each nondecreasing tuple by its signature, pattern by
    # pattern, and the re-keyer gives each of its orderings that
    # ordering's signature, every key an int: one word of 3 or 6 areas at
    # one byte (k = 2, 3) or 3 areas at two (Z/343Z, k = 2), two 8-byte
    # lanes at k = 4 or 6 two-byte areas (Z/343Z, k = 3), three lanes for
    # 10 two-byte areas (Z/343Z, k = 4)
    width = key_width(E.spec)
    kernel = Counter()
    for patterns in census._nondecreasing_counts(E, k, width):
        for same, keys in patterns.items():
            assert all(type(key) is int for key in keys)
            kernel.update({(same, key): c for key, c in keys.items()})
    reference = Counter()
    rekeyer = census._Rekeyer(E.spec, k)
    for t in itertools.combinations_with_replacement(E.points, k + 1):
        same = tuple(map(operator.eq, t, t[1:]))
        key = _encoded_signature(E.spec, t, width)
        reference[same, key] += 1
        sigmas = list(census._orderings(same))
        images = [_encoded_signature(E.spec, tuple(t[s] for s in sigma), width) for sigma in sigmas]
        rekeyed = [keys[0] for keys in rekeyer.rekey([key], sigmas)]
        assert rekeyed == images and all(type(image) is int for image in rekeyed)
    assert kernel == reference
    assert any(key >> 64 for _, key in kernel) == (len(pair_indices(k)) * width > 8)


_DRAWN_RINGS = (
    F3, F5, galois_field(3, 2), galois_field(5, 2), Z9,
    mod_prime_power(5, 2), mod_prime_power(3, 3), mod_prime_power(7, 3),  # two-byte keys
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_census_matches_both_references_on_drawn_subsets(data):
    # k = 4 keys take 10 areas, past one 8-byte lane on every ring; its
    # sets stay at 6 points, as the oracles visit every tuple
    spec = data.draw(st.sampled_from(_DRAWN_RINGS), label="ring")
    element = st.integers(0, spec.size() - 1)
    k = data.draw(st.integers(1, 4), label="k")
    points = data.draw(st.sets(st.tuples(element, element), max_size=6 if k == 4 else 10), label="points")
    E = PointSet(spec, points)
    _assert_tally_of_keys(E, signature_counts(E, k), _signature_keys(E, k))
    report = count_classes(E, k)
    sizes, tuples_by_level, classes_by_level, tally = _signature_oracle(E, k)
    assert sorted(report.class_sizes.values()) == sizes
    assert report.tuples_by_level == tuples_by_level
    assert report.classes_by_level == classes_by_level
    assert report.size_tally == tally


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_patterns_and_orderings_count_every_ordered_tuple(k):
    # a pattern of r runs has C(n, r) nondecreasing tuples, each with the
    # pattern's distinct orderings, and together they are all n^{k+1}
    orderings = {}
    for same in itertools.product((True, False), repeat=k):
        t = [sum(not s for s in same[:a]) for a in range(k + 1)]  # a tuple with this pattern
        sigmas = [tuple(s) for s in census._orderings(same)]
        assert sigmas[0] == tuple(range(k + 1))
        assert all(sorted(s) == list(range(k + 1)) for s in sigmas)
        images = [tuple(t[s] for s in sigma) for sigma in sigmas]
        assert len(set(images)) == len(images)
        assert set(images) == set(itertools.permutations(t))
        orderings[same] = len(sigmas)
    for n in range(7):
        total = sum(math.comb(n, 1 + same.count(False)) * c for same, c in orderings.items())
        assert total == n ** (k + 1)


def _assert_tally_of_keys(E, counts, reference):
    """counts tallies the signature keys of reference: each key is one
    class, of its number of tuples, at its level decoded area by area;
    values() and len() read the same tally."""
    tally = {}
    for key, size in reference.items():
        sizes = tally.setdefault(_key_level(E.spec, key), {})
        sizes[size] = sizes.get(size, 0) + 1
    assert counts.tally == tally
    assert sorted(counts.values()) == sorted(reference.values())
    assert len(counts) == len(reference)


def test_orbit_with_a_nontrivial_stabiliser():
    # every area of t = ((1, 0), (0, 1), (-1, -1)) is a unit, and the
    # 3-cycle (t_1, t_2, t_0) has t's key: t's orbit holds 6 / 3 classes,
    # each of 3 tuples, beside the level-0 classes of tuples that repeat
    # a point
    E = PointSet(F5, [(1, 0), (0, 1), (4, 4)])
    counts, reference = signature_counts(E, 2), _signature_keys(E, 2)
    t = [(1, 0), (0, 1), (4, 4)]
    keys = {perm: _encoded_signature(F5, perm, 1) for perm in itertools.permutations(t)}
    assert keys[tuple(t)] == keys[tuple(t[1:] + t[:1])] == keys[tuple(t[2:] + t[:2])]
    assert len(set(keys.values())) == 2
    assert all(E.spec.is_unit(a) for a in signature(F5, tuple(t)))
    assert all(reference[key] == 3 for key in keys.values())
    others = [key for key in reference if key not in keys.values() and _key_level(F5, key) == 0]
    assert counts.tally[0][3] == 2 + [reference[key] for key in others].count(3)
    _assert_tally_of_keys(E, counts, reference)


@pytest.mark.parametrize(
    "E, k",
    [
        (PointSet(F5, [(1, 0), (0, 1), (4, 4)]), 2),
        (PointSet(F5, [(0, 0), (1, 0), (2, 0), (0, 1)]), 3),  # the origin and a line: zero areas
        (PointSet(F3, [(1, 0)]), 4),  # every tuple repeats its one point
        (random_subset(F5, 4, 1), 4),
        (random_subset(Z9, 4, 2), 4),
        (random_subset(mod_prime_power(7, 3), 8, 3), 3),  # two-byte keys
        # four-byte areas, three 8-byte lanes per key
        (PointSet(mod_prime_power(3, 11), [(0, 0), (1, 0), (0, 1), (3, 9), (9, 27), (5, 7), (177146, 2)]), 3),
    ],
    ids=["F5-unit-3-cycle-k2", "F5-zero-areas-k3", "F3-one-point-k4", "F5s-k4", "Z9s-k4",
         "Z343s-k3", "Z177147-k3"],
)
def test_class_sizes_keep_the_mapping_contract(E, k):
    # the tally stands for the mapping of every signature key to the
    # number of tuples with that key: one class per key, of its size and
    # level
    counts, reference = signature_counts(E, k), _signature_keys(E, k)
    _assert_tally_of_keys(E, counts, reference)
    sizes = sorted(counts.values())
    assert len(counts) == len(sizes) == len(reference)
    assert sizes == sorted(reference.values())
    report = count_classes(E, k)
    sizes_, tuples_by_level, classes_by_level, tally = _signature_oracle(E, k)
    assert sizes == sorted(report.class_sizes.values()) == sizes_
    assert report.tuples_by_level == tuples_by_level
    assert report.classes_by_level == classes_by_level
    assert report.size_tally == tally


def test_census_rekeys_at_most_n_to_the_k_plus_1_keys(monkeypatch):
    # two points at k = 6: 2^7 tuples, while S_7 has 5,040 orderings
    E = PointSet(F3, [(1, 0), (2, 2)])
    seen = []
    rekey = census._Rekeyer.rekey

    def counted(self, keys, sigmas):
        sigmas = list(sigmas)
        seen.append(len(keys) * len(sigmas))
        return rekey(self, keys, sigmas)

    monkeypatch.setattr(census._Rekeyer, "rekey", counted)
    counts = signature_counts(E, 6)
    assert 0 < sum(seen) <= 2 ** 7
    seen.clear()
    assert sum(counts.values()) == 2 ** 7
    assert len(counts) == 2 ** 7 - 1  # both constant tuples have zero areas
    assert seen == []  # the sizes and the class count are read, nothing re-keyed


def test_census_of_one_point_or_none_at_large_k_lists_no_empty_pattern(monkeypatch):
    # a block whose only key is u = v = n - 1 leaves its later rows' pattern
    # without keys: it must not be made, or its C(k + 1, 2) orderings of
    # k + 1 slots are listed for nothing
    listed = []
    orderings = census._orderings

    def counted(same):
        listed.append(same)
        return orderings(same)

    monkeypatch.setattr(census, "_orderings", counted)
    k = 200
    for points, classes in (([(1, 0)], 1), ([], 0)):
        start = time.perf_counter()
        report = count_classes(PointSet(F3, points), k, budget=2 ** (k + 1))
        assert time.perf_counter() - start < 1
        assert (report.total_tuples, report.total_classes) == (classes, classes)
    assert listed == [(True,) * k]  # the one point's constant tuple


_DRAWN_FLUSHED_RINGS = (
    F3, F5, galois_field(3, 2), Z9, mod_prime_power(3, 3), mod_prime_power(7, 3),  # two-byte keys
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_census_handed_on_at_every_group_boundary_matches_the_reference(data):
    # with one key per flush, every prefix group is re-keyed on its own and
    # each orbit's records come from many flushes; the tally must still be
    # the one of the signature keys, one class per key
    spec = data.draw(st.sampled_from(_DRAWN_FLUSHED_RINGS), label="ring")
    element = st.integers(0, spec.size() - 1)
    points = data.draw(st.sets(st.tuples(element, element), max_size=9), label="points")
    k = data.draw(st.integers(1, 3), label="k")
    E = PointSet(spec, points)
    reference = _signature_keys(E, k)
    with mock.patch.object(census, "_FLUSH", 1):
        report = count_classes(E, k)
    _assert_tally_of_keys(E, report.class_sizes, reference)


@pytest.mark.parametrize("points", [3, 6], ids=["F3-3pt", "F3-6pt"])
def test_census_at_k5_keeps_orbits_of_up_to_720_classes(points):
    # six distinct points have 6! orderings, so an orbit's class count
    # needs more than one byte of its record
    E = random_subset(F3, points, 3)
    counts, reference = signature_counts(E, 5), _signature_keys(E, 5)
    _assert_tally_of_keys(E, counts, reference)
    assert sum(counts.values()) == points ** 6


def test_two_records_of_one_orbit_that_disagree_on_its_classes_are_refused(monkeypatch):
    # two collinear points: every area is 0, so the constant tuples and
    # the tuples (x, x, y) and (x, y, y) reach the one key 0 from three
    # patterns.  Re-keying under the first ordering alone makes the last
    # two records say 3 classes, the first 1
    E = PointSet(F3, [(1, 0), (2, 0)])
    assert signature_counts(E, 2).tally == {1: {8: 1}}
    rekey = census._Rekeyer.rekey
    monkeypatch.setattr(census._Rekeyer, "rekey", lambda self, keys, sigmas: rekey(self, keys, sigmas[:1]))
    with pytest.raises(ArithmeticError, match="disagree"):
        signature_counts(E, 2)


def test_an_orbit_whose_classes_do_not_split_its_tuples_is_refused(monkeypatch):
    # x = (0, 1) comes first, so x . y^perp = 4, and (x, x, y), (x, y, x)
    # and (y, x, x) have the keys (0, 4, 4), (4, 0, 1) and (1, 1, 0), one
    # class each.  Listing five orderings of (x, x, y), two of them giving
    # the rep (0, 4, 4), makes an orbit of 5 // 2 = 2 classes that would
    # share 5 tuples
    E = PointSet(F5, [(1, 0), (0, 1)])
    assert signature_counts(E, 2).tally == {1: {2: 1}, 0: {1: 6}}
    orderings = census._orderings

    def padded(same):
        return [*orderings(same), [0, 1, 2], [0, 2, 1]] if same == (True, False) else orderings(same)

    monkeypatch.setattr(census, "_orderings", padded)
    with pytest.raises(ArithmeticError, match="evenly"):
        signature_counts(E, 2)


@pytest.mark.parametrize("flush", [1, census._FLUSH], ids=["flush-1", "flush-default"])
@pytest.mark.parametrize(
    "E, k",
    [
        (full_plane(prime_field(7)), 3),
        (random_subset(mod_prime_power(3, 3), 20, 1), 3),
        (random_subset(mod_prime_power(7, 3), 10, 2), 3),  # two-byte keys
        (random_subset(F5, 12, 3), 2),
    ],
    ids=["F7-k3", "Z27s-k3", "Z343s-k3", "F5s-k2"],
)
def test_census_rekeys_each_distinct_pattern_key_once(monkeypatch, E, k, flush):
    # keys of two prefix groups differ in the areas among their prefixes,
    # so handing the Counters on at a group boundary re-keys no key twice
    seen = []
    rekey = census._Rekeyer.rekey

    def counted(self, keys, sigmas):
        seen.extend(keys)
        return rekey(self, keys, sigmas)

    monkeypatch.setattr(census._Rekeyer, "rekey", counted)
    monkeypatch.setattr(census, "_FLUSH", flush)
    signature_counts(E, k)
    table, width, n = census.area_index_table(E), key_width(E.spec), len(E)

    def key(t):
        return b"".join(table[t[i]][t[j] * width : (t[j] + 1) * width] for j in range(1, k + 1) for i in range(j))

    if E.is_plane():  # the plane is keyed root by root, slot 0 fixed: once per root
        roots = [E.points.index(r) for r, _ in census.plane_orbits(E.spec)]
        rooted = [(r, *t) for r in roots for t in itertools.combinations_with_replacement(range(n), k)]
        distinct = {(t[0], tuple(map(operator.eq, t[1:], t[2:])), key(t)) for t in rooted}
    else:
        distinct = {
            (tuple(map(operator.eq, t, t[1:])), key(t))
            for t in itertools.combinations_with_replacement(range(n), k + 1)
        }
    assert len(seen) == len(distinct)


@pytest.mark.parametrize(
    "size, seed, mib, classes",
    [
        (20, 1, 1.1, 137851),
        # the 29-point cell of the benchmark's census workload at seed 0
        (29, int.from_bytes(hashlib.sha256(b"areal-bench:0:census-2").digest()[:8], "big"),
         1.4, 614223),
    ],
    ids=["Z27-s20-k3", "Z27-s29-k3"],
)
def test_count_classes_peak_memory_is_a_few_mib(size, seed, mib, classes):
    # one fixed-width record per re-keyed key, one prefix group's keys and
    # one chunk's re-keyed keys at a time (6,943 and 28,613 orbits).  Int
    # keys peaked at 0.86-0.92 and 1.16 MiB, the bounds about 20% above;
    # a bytes object per key, with the last chunk's keys held while the
    # next was re-keyed, at 1.62 and 1.82 MiB; one entry per class at
    # 11.0 and 43.8 MiB, and one dict entry per orbit beside every
    # nondecreasing key at 2.4 and 7.0 MiB
    _, peak, (total, distinct) = traced(
        "from areal.census import count_classes\n"
        "from areal.constructions import random_subset\n"
        "from areal.rings import mod_prime_power\n"
        f"E = random_subset(mod_prime_power(3, 3), {size}, {seed})",
        "report = count_classes(E, 3)",
        "(report.total_classes, len(report.class_sizes))",
    )
    assert total == distinct == classes
    assert peak <= mib * 2 ** 20


def test_bad_tuple_counts_f3_k1():
    # oracle: exhaustive scan of all 81 pairs
    assert count_bad_tuples(PLANE3, 1) == {0: 48, 1: 33}
    assert count_bad_tuples_naive(PLANE3, 1) == {0: 48, 1: 33}


def test_bad_tuple_counts_single_point():
    E = PointSet(F3, [(1, 0)])
    for k in (1, 2):
        counts = count_bad_tuples(E, k)
        assert counts == {1: 1}


def test_bad_tuple_fast_matches_naive_on_random_subsets():
    # Z/343Z has two-byte census keys
    for spec in (F5, mod_prime_power(7, 3)):
        for seed in range(3):
            E = random_subset(spec, 10, seed)
            for k in (1, 2, 3):
                assert count_bad_tuples(E, k) == count_bad_tuples_naive(E, k)
    # every tuple of the sharpness set is bad, so no unit area stops a scan
    E = mod_sharpness_set(3, 2)
    for k in (1, 2):
        counts = count_bad_tuples_naive(E, k)
        assert 0 not in counts
        assert count_bad_tuples(E, k) == counts


def test_bad_tuple_oracle_is_independent_of_the_census(monkeypatch):
    E = random_subset(mod_prime_power(7, 3), 10, 4)  # two-byte census keys
    expected = count_bad_tuples(E, 2)

    def no_census(*args):
        raise AssertionError("the oracle called the census")

    for name in ("area_index_table", "signature_counts", "key_badness"):
        monkeypatch.setattr(census, name, no_census)
    # the oracle recomputes every area from the points through perp_dot
    for ring_class in (rings._Residues, rings.GaloisField):
        monkeypatch.setattr(ring_class, "perp_rows", no_census)
    assert count_bad_tuples_naive(PLANE3, 1) == {0: 48, 1: 33}
    assert count_bad_tuples_naive(E, 2) == expected


def test_bad_tuple_oracle_checks_its_budget_first(monkeypatch):
    def no_area(*args):
        raise AssertionError("an area computed before the budget check")

    for ring_class in (rings._Residues, rings.GaloisField):
        monkeypatch.setattr(ring_class, "perp_dot", no_area)
    with pytest.raises(BudgetExceeded):
        count_bad_tuples_naive(PLANE5, 3, budget=10)


def _oracle_cases():
    for spec, top_k in ((F3, 3), (F5, 3), (galois_field(3, 2), 2), (Z9, 2)):
        E = full_plane(spec)
        for k in range(1, top_k + 1):
            yield pytest.param(E, k, id=f"{spec.label()}-plane-k{k}")
    for spec in (mod_prime_power(3, 5), mod_prime_power(7, 3)):
        for seed in (0, 1):
            E = random_subset(spec, 10, seed)
            for k in (1, 2, 3):
                yield pytest.param(E, k, id=f"{spec.label()}-s{seed}-k{k}")
    # every pairwise area is divisible by 3, so no prefix is ever cut
    for k in (1, 2):
        yield pytest.param(mod_sharpness_set(3, 2), k, id=f"mod-sharpness-k{k}")
    for E in (PointSet(Z9, []), PointSet(Z9, [(3, 6)])):
        for k in (1, 2):
            yield pytest.param(E, k, id=f"{len(E)}-point-k{k}")


@pytest.mark.parametrize("E, k", _oracle_cases())
def test_bad_tuple_oracle_matches_badness_level_tuple_by_tuple(E, k):
    expected = Counter(badness_level(E.spec, t) for t in itertools.product(E.points, repeat=k + 1))
    assert count_bad_tuples_naive(E, k) == dict(expected)


def test_bad_tuple_oracle_computes_each_pair_area_once(monkeypatch):
    E = full_plane(Z9)
    expected = count_bad_tuples(E, 2)
    calls = []
    for ring_class in (rings._Residues, rings.GaloisField):
        def counted(self, x, y, perp_dot=ring_class.perp_dot):
            calls.append(None)
            return perp_dot(self, x, y)

        monkeypatch.setattr(ring_class, "perp_dot", counted)
    assert count_bad_tuples_naive(E, 2) == expected
    assert len(calls) <= len(E) ** 2 == 6561


@pytest.mark.parametrize(
    "spec, top_k",
    [pytest.param(spec, top_k, id=spec.label()) for spec, top_k in (
        *((prime_field(q), 3) for q in (3, 5, 7, 11, 13)), (galois_field(3, 2), 3), (galois_field(5, 2), 2)
    )],
)
def test_bad_tuple_oracle_counts_one_line_through_the_origin(spec, top_k):
    # over F_q a tuple is bad iff its points lie on one of the q + 1 lines
    # through the origin, which share only 0: (q + 1) q^{k+1} - q tuples
    q = spec.size()
    E = full_plane(spec)
    for k in range(1, top_k + 1):
        bad = (q + 1) * q ** (k + 1) - q
        assert count_bad_tuples_naive(E, k) == {1: bad, 0: q ** (2 * (k + 1)) - bad}


_ORACLE_RINGS = (
    galois_field(3, 2), galois_field(5, 2), mod_prime_power(5, 2), mod_prime_power(3, 5),
    mod_prime_power(7, 3),
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bad_tuple_oracle_matches_badness_level_on_drawn_subsets(data):
    spec = data.draw(st.sampled_from(_ORACLE_RINGS), label="ring")
    q = spec.size()
    # a point scaled by p^e has every area at level >= e over Z/p^l Z
    scaled = st.builds(
        lambda e, x, y: (x * spec.p ** e % q, y * spec.p ** e % q),
        st.integers(0, spec.max_level), st.integers(0, q - 1), st.integers(0, q - 1),
    )
    E = PointSet(spec, data.draw(st.sets(scaled, max_size=8), label="points"))
    k = data.draw(st.integers(1, 3), label="k")
    expected = Counter(badness_level(spec, t) for t in itertools.product(E.points, repeat=k + 1))
    assert count_bad_tuples_naive(E, k) == dict(expected)


def test_bad_pair_bound_constant_small_fields():
    for q in (3, 5, 7):
        spec = prime_field(q)
        E = full_plane(spec)
        bad = sum(c for m, c in count_bad_tuples(E, 1).items() if m >= 1)
        assert bad <= 4 * q * len(E)


def test_nu_histogram_f3():
    hist = nu_histogram(PLANE3)
    assert hist.counts == {0: 33, 1: 24, 2: 24}
    assert hist.total() == 81


@pytest.mark.parametrize(
    "E",
    [
        random_subset(galois_field(3, 2), 30, 3),
        random_subset(mod_prime_power(3, 3), 60, 3),
        random_subset(mod_prime_power(7, 3), 40, 3),  # two-byte keys
        random_subset(galois_field(3, 4), 300, 3),
        full_plane(mod_prime_power(3, 3)),  # one row per SL_2 orbit
        full_plane(galois_field(3, 2)),  # one root for the nonzero vectors
        PointSet(F3, []),
    ],
    ids=["F9s", "Z27s", "Z343s", "F81s", "Z27", "F9", "empty"],
)
def test_nu_histogram_matches_pairwise_loop(E):
    spec = E.spec
    expected = {}
    for x in E.points:
        for y in E.points:
            t = spec.sub(spec.mul(x[0], y[1]), spec.mul(x[1], y[0]))
            expected[t] = expected.get(t, 0) + 1
    assert nu_histogram(E).counts == expected


def test_nu_histogram_keeps_no_area_table():
    # the rows are counted as perp_rows yields them: nu holds its counts,
    # never the n^2 table of areas (4,000,000 bytes here)
    held, peak, _ = traced(
        "from areal.census import nu_histogram\n"
        "from areal.constructions import random_subset\n"
        "from areal.rings import galois_field\n"
        "E = random_subset(galois_field(3, 4), 2000, 1)\n"
        "E.spec.mul(1, 1)  # builds F_81's tables, which every F_81 spec shares, before the trace",
        "nu_histogram(E)",
    )
    assert held <= 64 << 10
    assert peak <= 1 << 20


def test_nu_histogram_origin_only():
    hist = nu_histogram(PointSet(F3, [(0, 0)]))
    assert hist.counts == {0: 1}


def test_nu_total_is_square_of_size():
    for seed in range(3):
        E = random_subset(F5, 9, seed)
        assert nu_histogram(E).total() == 81


def test_f_profile_full_plane_is_constant():
    prof = f_profile(PLANE3)
    assert set(prof.values) == {9}
    sum_f, _, maximum, _ = moments(prof.values)
    assert maximum == 9 and sum_f == 24 * 9


def test_f_profile_punctured_plane_matches_orbit_counting():
    E = PointSet(F3, [p for p in PLANE3.points if p != (0, 0)])
    sum_f, _, maximum, excess = moments(f_profile(E).values)
    assert sum_f == 3 * 64  # (|G|/|X|) |E|^2 with |G|=24, |X|=8
    assert maximum <= len(E)
    assert excess >= 0


def test_f_identity_is_set_size():
    E = random_subset(F5, 12, 3)
    prof = f_profile(E)
    # identity is the very first unit-a matrix only when a=1 comes second;
    # find it explicitly instead of assuming a position
    from areal.linalg import enumerate_sl2, identity

    f_id = next(v for g, v in zip(enumerate_sl2(F5), prof.values) if g == identity(F5))
    assert f_id == len(E)


@pytest.mark.parametrize(
    "E",
    [
        PLANE3,
        full_plane(galois_field(3, 2)),
        full_plane(Z9),
        random_subset(mod_prime_power(3, 3), 20, 1),
        random_subset(mod_prime_power(5, 2), 20, 1),
        random_subset(galois_field(3, 4), 3, 1),
        PointSet(F3, []),
    ],
    ids=["F3", "F9", "Z9", "Z27s", "Z25s", "F81s", "empty"],
)
def test_f_profile_matches_pointwise_count(E):
    spec = E.spec
    values = f_profile(E).values
    assert len(values) == sl2_order(spec)
    for g, value in zip(enumerate_sl2(spec), values):
        assert value == sum(spec.apply_mat(g, x) in E.members for x in E.points)


@pytest.mark.parametrize("points", [[(5, 0)], [(1, 2), (2, -1)]], ids=["past-q", "negative"])
def test_f_profile_refuses_a_non_element_point(points):
    # the checked ring ops read every point before a bitset is indexed or
    # shifted, so a point outside F_3 is a TypeError, as in nu and the census
    E = PointSet(F3, points)
    for engine in (f_profile, nu_histogram, lambda E: count_classes(E, 1)):
        with pytest.raises(TypeError):
            engine(E)


def test_moment_lift_constant_table():
    res, conditions = moment_lift_check([5] * 12, 3)
    assert res["excess"] == 0
    assert res["lhs"] == 12 * 5 ** 4
    assert all(conditions.values())


def test_moment_lift_indicator_table():
    s = 10
    res, conditions = moment_lift_check([1] + [0] * (s - 1), 2)
    assert res["lhs"] == 1
    assert res["mean"] == Fraction(1, s)
    assert res["excess"] == 1 - Fraction(1, s)
    assert res["c_k"] == 16
    assert all(conditions.values())


def test_moment_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        moment_lift_check([], 2)
    with pytest.raises(ValueError):
        moment_lift_check([1, -1], 2)
    with pytest.raises(ValueError):
        moment_lift_check([1, 2], 0)


@pytest.mark.parametrize("s", [1, 2, 10])
def test_moments_of_hand_tables(s):
    # (sum, mean A, max M, excess R = sum (v - A)^2)
    assert moments([5] * 12) == (60, 5, 5, 0)
    assert moments([1] + [0] * (s - 1)) == (1, Fraction(1, s), 1, 1 - Fraction(1, s))


def test_moments_reject_an_empty_or_negative_table():
    with pytest.raises(ValueError):
        moments([])
    with pytest.raises(ValueError):
        moments([1, -1])


@pytest.mark.parametrize("spec", [F3, galois_field(3, 2)], ids=lambda spec: spec.label())
def test_moments_are_what_lemma_3_1_reports(spec):
    from areal.cli import ExperimentConfig, run_experiment

    values = f_profile(full_plane(spec)).values
    _, mean, maximum, excess = moments(values)
    # every g maps the plane onto itself: f = q^2 everywhere, so R = 0
    assert (mean, maximum, excess) == (spec.size() ** 2, spec.size() ** 2, 0)
    assert excess == sum((v - mean) ** 2 for v in values)
    cfg = ExperimentConfig.from_json({"ring": spec.to_json(), "checks": ["lemma-3.1"]})
    (check,) = run_experiment(cfg)["checks"]
    assert [check["mean"], check["max"], check["excess"]] == [str(mean), str(maximum), str(excess)]


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=40),
    st.integers(1, 4),
)
def test_moment_lift_property(values, k):
    assert all(moment_lift_check(values, k)[1].values())


@settings(max_examples=50)
@given(
    st.lists(st.fractions(min_value=0, max_value=50, max_denominator=7), min_size=1, max_size=20),
    st.integers(1, 4),
)
def test_moment_lift_sums_fractions_exactly(values, k):
    res, conditions = moment_lift_check(values, k)
    assert conditions == {"lhs <= rhs": res["lhs"] <= res["rhs"], "excess >= 0": res["excess"] >= 0}
    size = len(values)
    mean = sum(values, Fraction(0)) / size
    assert res["mean"] == mean and res["max"] == max(values)
    assert res["excess"] == sum((v - mean) ** 2 for v in values)
    assert res["lhs"] == sum(v ** (k + 1) for v in values)
    assert all(type(res[name]) is Fraction for name in ("mean", "max", "excess", "lhs", "rhs"))


def test_transitivity_constants():
    assert transitivity_constant(F3) == 3  # 24 / 8
    assert transitivity_constant(F5) == 5  # 120 / 24
    assert transitivity_constant(Z9) == 9  # 648 / 72


def test_designated_orbit_sizes():
    assert len(designated_orbit(F3)) == 8
    assert len(designated_orbit(Z9)) == 72


def test_transitivity_names_the_first_pair_whose_count_differs(monkeypatch):
    X, group = designated_orbit(F3), list(enumerate_sl2(F3))
    assert transitivity_constant(F3) * len(X) == len(group)  # the whole group passes
    # without the identity, X[0] reaches itself one time too few
    others = [g for g in group if g != identity(F3)]
    monkeypatch.setattr(census, "enumerate_sl2", lambda spec: iter(others))
    with pytest.raises(NotTransitive) as err:
        transitivity_constant(F3)
    assert err.value.pair == (X[0], X[0])
    # one element twice: X[0] reaches its image under it one time too often
    g = next(g for g in group if F3.apply_mat(g, X[0]) == X[-1])
    monkeypatch.setattr(census, "enumerate_sl2", lambda spec: iter(group + [g]))
    with pytest.raises(NotTransitive) as err:
        transitivity_constant(F3)
    assert err.value.pair == (X[0], X[-1])


def test_transitivity_charges_the_orbit_before_listing_it(monkeypatch):
    # Z/3^7Z: X holds 4,251,528 of the 4,782,969 points of the plane,
    # which took 1.6 s and 424 MiB to list before the budget refused them;
    # counting the 3^15 units of Z/3^15Z for |X| then took about 2 s.
    # |SL_2| |X| is charged exactly, from the closed form, before X is
    # listed or a unit is tested
    def not_before_the_charge(*args):
        raise AssertionError("the orbit was listed or a unit tested before the budget check")

    monkeypatch.setattr(census, "designated_orbit", not_before_the_charge)
    monkeypatch.setattr(rings.ModPrimePower, "is_unit", not_before_the_charge)
    for ell in (7, 15, 30):
        spec = mod_prime_power(3, ell)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            transitivity_constant(spec, budget=1000)
        assert time.perf_counter() - start < 0.01
        size = plane_orbits(spec)[1][1]
        assert err.value.required == sl2_order(spec) * size and err.value.exact is True
        if ell == 7:
            assert err.value.required == 39_531_097_362_172_608


def _pointwise_transitivity(spec, group):
    """The constant |SL_2| / |X| when every pair of the designated orbit X
    is reached by that many g of group, else the first pair that is not,
    from one apply_mat per (g, x)."""
    X = designated_orbit(spec)
    expected = sl2_order(spec) // len(X)
    for x in X:
        phi = Counter(spec.apply_mat(g, x) for g in group)
        for y in X:
            if phi[y] != expected:
                return (x, y)
    return expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transitivity_matches_the_pointwise_count(data):
    # the group with a few elements dropped and a few repeated: the rows'
    # codes name the same first pair as applying each g to each x, and
    # images that leave X are never read
    spec = data.draw(st.sampled_from([F3, F5, galois_field(3, 2), Z9]), label="ring")
    group = list(enumerate_sl2(spec))
    index = st.integers(0, len(group) - 1)
    dropped = data.draw(st.sets(index, max_size=3), label="dropped")
    repeated = data.draw(st.lists(index, max_size=3), label="repeated")
    patched = [g for i, g in enumerate(group) if i not in dropped] + [group[i] for i in repeated]
    expected = _pointwise_transitivity(spec, patched)
    with mock.patch.object(census, "enumerate_sl2", lambda spec: iter(patched)):
        if isinstance(expected, int):
            assert transitivity_constant(spec) == expected
        else:
            with pytest.raises(NotTransitive) as err:
                transitivity_constant(spec)
            assert err.value.pair == expected


@pytest.mark.parametrize(
    "spec", [F3, galois_field(3, 2), Z9, mod_prime_power(3, 3)], ids=["F3", "F9", "Z9", "Z27"]
)
def test_designated_orbit_is_the_orbit_of_1_0(spec):
    # the nonzero vectors over a field, those with a unit coordinate over
    # Z/p^l Z, in the order of the plane; and (1, 0) reaches exactly these
    plane = [(a, b) for a in spec.elements() for b in spec.elements()]
    if isinstance(spec, rings.ModPrimePower):
        expected = [x for x in plane if spec.is_unit(x[0]) or spec.is_unit(x[1])]
    else:
        expected = [x for x in plane if x != (spec.zero, spec.zero)]
    assert designated_orbit(spec) == expected
    assert len(designated_orbit(spec)) == plane_orbits(spec)[1][1]
    one_zero = (spec.one, spec.zero)
    assert {spec.apply_mat(g, one_zero) for g in enumerate_sl2(spec)} == set(expected)


# every odd p <= 13: Z/p^l Z for l <= 3 and F_{p^e} for e <= 3, each of at
# most GF_MAX_ORDER elements (listing X of Z/13^3 Z would hold 4.8M points)
CLOSED_FORM_RINGS = [
    *(prime_field(p) for p in (3, 5, 7, 11, 13)),
    *(galois_field(p, e) for p in (3, 5, 7, 11, 13) for e in (2, 3) if p ** e <= rings.GF_MAX_ORDER),
    *(mod_prime_power(p, ell) for p in (3, 5, 7, 11, 13) for ell in (1, 2, 3) if p ** ell <= rings.GF_MAX_ORDER),
]


@pytest.mark.parametrize("spec", CLOSED_FORM_RINGS, ids=lambda spec: spec.label())
def test_the_orbit_of_1_0_has_the_closed_form_size(spec):
    # orbit-stabilizer at (1, 0): |X| is plane_orbits' size of its orbit,
    # and |SL_2| is q |X|, as the stabilizer [[1, b], [0, 1]] has q elements
    size = plane_orbits(spec)[1][1]
    assert size == len(designated_orbit(spec))
    assert sl2_order(spec) == spec.size() * size


def flemma(E, k):
    return flemma_check(count_classes(E, k), f_profile(E))


def test_flemma_full_plane_f3():
    for k in (1, 2):
        report, conditions = flemma(PLANE3, k)
        assert all(conditions.values())
        assert report["good_tuples"] ** 2 <= report["good_classes"] * report["equivalent_good_pairs"]
        assert report["equivalent_good_pairs"] <= report["f_power_sum"]


def test_flemma_line_is_trivially_fine():
    E = line_through_origin(F3, (1, 0))
    report, conditions = flemma(E, 2)
    assert report["good_tuples"] == 0
    assert all(conditions.values())


def test_flemma_random_subsets():
    for seed in range(3):
        E = random_subset(F5, 10, seed)
        assert all(flemma(E, 2)[1].values())


def test_moment_identity_full_plane_f3():
    report, conditions = moment_identity_check(PLANE3, f_profile(PLANE3))
    assert report["f_square_sum"] == report["stabilizer_sum"] == 24 * 81  # f is constant 9
    assert report["unique_on_good"]
    assert conditions["matched_part == matched_quadruples"]
    assert report["matched_part"] + report["collinear_part"] == report["stabilizer_sum"]
    assert all(conditions.values())


def test_moment_identity_two_point_set():
    E = PointSet(F3, [(1, 0), (0, 1)])
    _, conditions = moment_identity_check(E, f_profile(E))
    assert all(conditions.values())


def test_moment_identity_empty_set():
    E = PointSet(F3, [])
    report, conditions = moment_identity_check(E, f_profile(E))
    assert report["f_square_sum"] == 0 and report["stabilizer_sum"] == 0
    assert all(conditions.values())


def quadruple_loop_moment_identity(E, profile):
    """The moment identity quadruple by quadruple: for each (x1, y1) the
    group elements sending x1 to y1, then for each (x2, y2) those of them
    sending x2 to y2.  Returns the checker's values and the number of
    matched quadruples."""
    spec = E.spec
    group = list(enumerate_sl2(spec))
    perp, apply = spec.perp_dot, spec.apply_mat
    stabilizer_sum = matched_part = collinear_part = matched_quads = 0
    unique_on_good = True
    for x1 in E.points:
        for y1 in E.points:
            movers = [g for g in group if apply(g, x1) == y1]
            for x2 in E.points:
                t = perp(x1, x2)
                good_pair = spec.is_unit(t)
                for y2 in E.points:
                    c = sum(1 for g in movers if apply(g, x2) == y2)
                    stabilizer_sum += c
                    if good_pair:
                        matched_part += c
                        if perp(y1, y2) == t:
                            matched_quads += 1
                            if c != 1:
                                unique_on_good = False
                    else:
                        collinear_part += c
    values = {"f_square_sum": profile.sum_power(2), "stabilizer_sum": stabilizer_sum,
              "matched_part": matched_part, "collinear_part": collinear_part,
              "unique_on_good": unique_on_good}
    return values, matched_quads


@pytest.mark.parametrize(
    "E",
    [PLANE3, PLANE5, random_subset(Z9, 12, 4), random_subset(galois_field(3, 2), 12, 5),
     line_through_origin(F5, (1, 2))],
    ids=["F3", "F5", "Z9s", "F9s", "F5-line"],
)
def test_moment_identity_matches_quadruple_loop(E):
    profile = f_profile(E)
    report, conditions = moment_identity_check(E, profile)
    expected, matched_quadruples = quadruple_loop_moment_identity(E, profile)
    assert report == expected
    assert conditions["matched_part == matched_quadruples"] == (expected["matched_part"] == matched_quadruples)


def test_moment_identity_sees_a_non_unique_good_quadruple(monkeypatch):
    # a mask holding the whole group gives its good quadruples 3 elements each
    group_moves = census.group_moves

    def doubled(E, group):
        moves = group_moves(E, group)
        moves[1] = [(j, (1 << len(group)) - 1 if j == 1 else m) for j, m in moves[1]]
        return moves

    monkeypatch.setattr(census, "group_moves", doubled)
    report, conditions = moment_identity_check(PLANE3, f_profile(PLANE3))
    assert not report["unique_on_good"] and report["f_square_sum"] != report["stabilizer_sum"]
    assert not all(conditions.values())


@pytest.mark.parametrize("E", [PLANE3, PLANE5], ids=["F3", "F5"])
def test_moment_identity_sees_masks_swapped_between_targets(monkeypatch, E):
    # the row of (1, 0) gets the masks of the targets (1, 0) and (0, 1)
    # swapped: every row total stays, so only per-target uniqueness can fail
    group_moves = census.group_moves
    i, j = E.points.index((1, 0)), E.points.index((0, 1))

    def swapped(E, group):
        moves = group_moves(E, group)
        row = dict(moves[i])
        row[i], row[j] = row[j], row[i]
        moves[i] = sorted(row.items())
        return moves

    monkeypatch.setattr(census, "group_moves", swapped)
    report, conditions = moment_identity_check(E, f_profile(E))
    assert report["f_square_sum"] == report["stabilizer_sum"]
    assert [name for name, holds in conditions.items() if not holds] == ["unique_on_good"]


MOVE_SETS = [
    PointSet(F3, [(0, 0), (1, 0), (0, 1), (2, 2)]),
    PointSet(F3, [(1, 0), (2, 0), (1, 1)]),
    random_subset(galois_field(3, 2), 5, 3),
    random_subset(Z9, 6, 2),
    PointSet(Z9, [(0, 0), (3, 0), (0, 3), (1, 2), (2, 1)]),
]


@pytest.mark.parametrize("E", MOVE_SETS, ids=["F3-a", "F3-b", "F9s", "Z9s", "Z9-nonunit"])
def test_group_moves_and_tuple_moves_match_apply_mat(E):
    spec, points = E.spec, E.points
    group = list(enumerate_sl2(spec))
    moves = census.group_moves(E, group)
    images = [[spec.apply_mat(g, x) for g in group] for x in points]
    for i, row in enumerate(moves):
        assert [j for j, _ in row] == sorted({points.index(y) for y in images[i] if y in E})
        for j, mask in row:
            assert mask != 0
            assert all((mask >> b & 1) == (y == points[j]) for b, y in enumerate(images[i]))
    for length in (1, 2, 3):
        for idx in itertools.product(range(len(points)), repeat=length):
            expected: dict[tuple, int] = {}
            for b in range(len(group)):
                ys = tuple(images[i][b] for i in idx)
                if all(y in E for y in ys):
                    js = tuple(map(points.index, ys))
                    expected[js] = expected.get(js, 0) | 1 << b
            assert census.tuple_moves(moves, idx) == sorted(expected.items())


def test_nu_second_moment_equals_k1_equivalent_pairs():
    # sum_t nu(t)^2 counts area-coincident quadruples = pairs of
    # equivalent 2-point configurations, here grouped by signature
    # without the area table that nu and the k = 1 census read
    for E in (PLANE3, random_subset(F5, 8, 2)):
        hist = nu_histogram(E)
        lhs = sum(c * c for c in hist.counts.values())
        sizes = _signature_oracle(E, 1)[0]
        assert lhs == sum(c * c for c in sizes)


def test_mbad_class_sizes_z9():
    for k in (1, 2):
        report, conditions = mbad_class_size_check(count_classes(full_plane(Z9), k))
        assert report["good_free_action_ok"]
        assert report["good_classes"] * 648 == report["good_tuples"]
        for lvl in report["levels"]:
            assert lvl["min_class_size"] >= 3 ** (6 - 2 * lvl["m"])
            assert lvl["count_constant"] <= 4
        assert all(conditions.values())


def test_mbad_requires_mod_prime_power():
    with pytest.raises(TypeError):
        mbad_class_size_check(count_classes(PLANE3, 2))


def test_mbad_requires_full_plane_census():
    with pytest.raises(ValueError):
        mbad_class_size_check(count_classes(random_subset(Z9, 80, 1), 1))


def test_good_class_members_charges_at_least_2_to_the_k_plus_1():
    # one point has one tuple, but its signature holds k(k+1)/2 areas
    with pytest.raises(BudgetExceeded) as err:
        good_class_members(PointSet(F3, [(1, 0)]), 3, budget=2 ** 4 - 1)
    assert err.value.required == 2 ** 4 and err.value.exact
    # 2^3001 passes a 30-bit budget for certain, so the refusal is the
    # lower bound 2^30, and 2^3001 is never built
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        good_class_members(PointSet(F3, [(1, 0)]), 3000)
    assert err.value.required == 2 ** 30 and not err.value.exact
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("k", [0, -1])
def test_every_engine_that_takes_k_refuses_k_below_1(k, monkeypatch):
    # count_bad_tuples_naive(F_3 plane, 0) used to return the k = 1 counts
    # of 81 pairs; the others raised from itertools or from signature
    def no_charge(required, budget):
        raise AssertionError("charged before k was checked")

    monkeypatch.setattr(census, "check_budget", no_charge)
    engines = [signature_counts, count_classes, count_bad_tuples, count_bad_tuples_naive, good_class_members]
    for engine in engines:
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            engine(PLANE3, k)
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        moment_lift_check([1, 2], k)


def test_good_class_members_f3_k1():
    classes = good_class_members(PLANE3, 1)
    assert len(classes) == 2
    assert sorted(len(v) for v in classes.values()) == [24, 24]
