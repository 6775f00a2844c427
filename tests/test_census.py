import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    key_levels,
    mbad_class_size_check,
    moment_identity_check,
    moment_lift_check,
    nu_histogram,
    signature_counts,
    transitivity_constant,
)
from areal.configs import badness_level, key_width, signature
from areal.constructions import full_plane, line_through_origin, mod_sharpness_set, random_subset
from areal.linalg import enumerate_sl2, sl2_order
from areal.rings import galois_field, mod_prime_power, prime_field

F3 = prime_field(3)
F5 = prime_field(5)
Z9 = mod_prime_power(3, 2)

PLANE3 = full_plane(F3)
PLANE5 = full_plane(F5)


def test_pointset_dedupes_and_sorts():
    E = PointSet(F3, [(2, 2), (0, 1), (2, 2), (1, 0)])
    assert E.points == ((0, 1), (1, 0), (2, 2))
    assert (0, 1) in E and (0, 0) not in E
    assert len(E) == 3


def test_pointset_csv():
    E = PointSet(F3, [(0, 1), (1, 0)])
    assert E.to_csv() == "x1,x2\n0,1\n1,0\n"


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


def _signature_oracle(E, k):
    """Class sizes, per-level tuple and class counts, and the per-level
    tally level -> {class size -> number of classes} of E^{k+1}, grouped
    by configs.signature, with no area table and no census keys."""
    spec = E.spec
    classes = Counter(signature(spec, t).areas for t in itertools.product(E.points, repeat=k + 1))
    tuples_by_level, classes_by_level, tally = Counter(), Counter(), {}
    for areas, size in classes.items():
        m = min([spec.max_level] + [spec.valuation(a) for a in areas])
        tuples_by_level[m] += size
        classes_by_level[m] += 1
        tally.setdefault(m, Counter())[size] += 1
    return sorted(classes.values()), dict(tuples_by_level), dict(classes_by_level), tally


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
        (random_subset(mod_prime_power(7, 3), 14, 2), 2),  # two-byte keys
    ],
    ids=["F3-k1", "F3-k2", "F3-k3", "F9s-k1", "F9s-k2", "F9s-k3", "Z9-k1", "Z9-k2", "Z343s-k2"],
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
    "E, k",
    [
        (full_plane(prime_field(7)), 2),
        (random_subset(mod_prime_power(3, 3), 20, 5), 3),
        (random_subset(mod_prime_power(7, 3), 14, 2), 2),  # two-byte keys
    ],
    ids=["F7-k2", "Z27s-k3", "Z343s-k2"],
)
def test_census_key_levels_match_per_area_decode(E, k):
    keys = list(count_classes(E, k).class_sizes)
    levels = list(key_levels(E.spec, keys))
    assert levels == [key_badness(E.spec, key) for key in keys]
    assert set(levels) == set(range(E.spec.max_level + 1))


def test_key_levels_runs_once_per_nondecreasing_key(monkeypatch):
    # a level is the same for every ordering of a nondecreasing key, so
    # the census finds it for C(n + k, k + 1) keys, not for each class
    E = random_subset(mod_prime_power(3, 3), 20, 1)
    seen = []
    key_levels_ = census.key_levels

    def counted(spec, keys):
        keys = list(keys)
        seen.append(len(keys))
        return key_levels_(spec, keys)

    monkeypatch.setattr(census, "key_levels", counted)
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
    # the tally read from each level's run of classes is the one that a
    # level lookup per class gives, and the runs come in ascending level
    report = count_classes(E, k)
    sizes = report.class_sizes
    levels = list(key_levels(E.spec, sizes))
    reference = {}
    for (m, size), n in Counter(zip(levels, sizes.values())).items():
        reference.setdefault(m, {})[size] = n
    assert report.size_tally == reference
    assert levels == sorted(levels)


def test_count_classes_peak_memory_is_the_signature_counts():
    # the per-level tally adds nothing that grows with the number of classes
    E = random_subset(mod_prime_power(3, 3), 20, 1)

    def peak(fn):
        tracemalloc.start()
        try:
            fn(E, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(count_classes) <= 1.05 * peak(signature_counts)


def test_signature_counts_peak_memory_is_a_few_bytes_per_block_key():
    # a block of n^2 keys at one byte per area: the byte table, its flat
    # copy, the block with its separators and the block's bytes copy
    # take 6 n^2 bytes in all, and no row is kept repeated n times
    E = full_plane(mod_prime_power(3, 3))
    tracemalloc.start()
    try:
        signature_counts(E, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(E) ** 2


def test_budget_is_checked_before_the_area_table(monkeypatch):
    def no_table(E):
        raise AssertionError("area table built before the budget check")

    monkeypatch.setattr(census, "area_index_table", no_table)
    with pytest.raises(BudgetExceeded):
        count_classes(PLANE5, 3, budget=10)


def test_nu_histogram_checks_its_budget_before_the_area_table(monkeypatch):
    def no_table(E):
        raise AssertionError("area table built before the budget check")

    monkeypatch.setattr(census, "area_index_table", no_table)
    E = full_plane(F5)  # a fresh set, with no table built yet
    with pytest.raises(BudgetExceeded):
        nu_histogram(E, budget=len(E) ** 2 - 1)


def test_census_independent_of_point_order():
    # the kernel keys the nondecreasing tuples by point index, so the
    # index order must not reach the counts
    rng = random.Random(7)
    for E in (PLANE5, random_subset(mod_prime_power(3, 3), 24, 7)):
        pts = list(E.points)
        rng.shuffle(pts)
        for k in (1, 2, 3):
            assert signature_counts(PointSet(E.spec, pts), k) == signature_counts(E, k)


def _column_keys(E, k):
    """The column-order key of every ordered tuple of E^{k+1}, read from
    the area table one tuple at a time."""
    table, width = census.area_index_table(E), key_width(E.spec)

    def area(x, y):
        return table[x][y * width : (y + 1) * width]

    return Counter(
        b"".join(area(t[i], t[j]) for j in range(1, k + 1) for i in range(j))
        for t in itertools.product(range(len(E)), repeat=k + 1)
    )


_DRAWN_RINGS = (
    F3, F5, galois_field(3, 2), galois_field(5, 2), Z9,
    mod_prime_power(5, 2), mod_prime_power(3, 3), mod_prime_power(7, 3),  # two-byte keys
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_census_matches_both_references_on_drawn_subsets(data):
    spec = data.draw(st.sampled_from(_DRAWN_RINGS), label="ring")
    element = st.integers(0, spec.size() - 1)
    points = data.draw(st.sets(st.tuples(element, element), max_size=10), label="points")
    k = data.draw(st.integers(1, 3), label="k")
    E = PointSet(spec, points)
    assert signature_counts(E, k) == _column_keys(E, k)
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


def test_count_classes_peak_memory_is_near_what_its_report_holds():
    # one ordering of one equality pattern is re-keyed at a time (a peak
    # of 1.08 times the report); keeping every ordering's re-keyed list
    # to the end peaks at 1.18
    E = random_subset(mod_prime_power(3, 3), 20, 1)
    tracemalloc.start()
    try:
        report = count_classes(E, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.total_classes == 137851
    assert peak <= 1.15 * held


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

    for name in ("area_index_table", "signature_counts", "key_levels", "key_badness"):
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
    assert hist.to_csv() == "t,count\n0,33\n1,24\n2,24\n"


@pytest.mark.parametrize(
    "E",
    [
        random_subset(galois_field(3, 2), 30, 3),
        random_subset(mod_prime_power(3, 3), 60, 3),
        random_subset(mod_prime_power(7, 3), 40, 3),  # two-byte keys
    ],
    ids=["F9s", "Z27s", "Z343s"],
)
def test_nu_histogram_matches_pairwise_loop(E):
    spec = E.spec
    expected = {}
    for x in E.points:
        for y in E.points:
            t = spec.sub(spec.mul(x[0], y[1]), spec.mul(x[1], y[0]))
            expected[t] = expected.get(t, 0) + 1
    assert nu_histogram(E).counts == expected


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
    assert prof.maximum == 9 and prof.sum_f == 24 * 9


def test_f_profile_punctured_plane_matches_orbit_counting():
    E = PointSet(F3, [p for p in PLANE3.points if p != (0, 0)])
    prof = f_profile(E)
    assert prof.sum_f == 3 * 64  # (|G|/|X|) |E|^2 with |G|=24, |X|=8
    assert prof.maximum <= len(E)
    assert prof.second_moment_excess >= 0


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


def test_moment_lift_constant_table():
    res = moment_lift_check([5] * 12, 3)
    assert res.excess == 0
    assert res.lhs == 12 * 5 ** 4
    assert res.ok


def test_moment_lift_indicator_table():
    s = 10
    res = moment_lift_check([1] + [0] * (s - 1), 2)
    assert res.lhs == 1
    assert res.mean == Fraction(1, s)
    assert res.excess == 1 - Fraction(1, s)
    assert res.c_k == 16
    assert res.ok


def test_moment_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        moment_lift_check([], 2)
    with pytest.raises(ValueError):
        moment_lift_check([1, -1], 2)
    with pytest.raises(ValueError):
        moment_lift_check([1, 2], 0)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=40),
    st.integers(1, 4),
)
def test_moment_lift_property(values, k):
    assert moment_lift_check(values, k).ok


def test_transitivity_constants():
    assert transitivity_constant(F3) == 3  # 24 / 8
    assert transitivity_constant(F5) == 5  # 120 / 24
    assert transitivity_constant(Z9) == 9  # 648 / 72


def test_designated_orbit_sizes():
    assert len(designated_orbit(F3)) == 8
    assert len(designated_orbit(Z9)) == 72


def test_transitivity_detects_non_transitive_union():
    # scaling check by hand: phi(x, x) * |X| = |G| on a transitive action
    assert transitivity_constant(F3) * len(designated_orbit(F3)) == sl2_order(F3)


def flemma(E, k):
    return flemma_check(count_classes(E, k), f_profile(E))


def test_flemma_full_plane_f3():
    for k in (1, 2):
        report = flemma(PLANE3, k)
        assert report.ok
        assert report.good_tuples ** 2 <= report.good_classes * report.equivalent_good_pairs
        assert report.equivalent_good_pairs <= report.f_power_sum


def test_flemma_line_is_trivially_fine():
    E = line_through_origin(F3, (1, 0))
    report = flemma(E, 2)
    assert report.good_tuples == 0
    assert report.ok


def test_flemma_random_subsets():
    for seed in range(3):
        E = random_subset(F5, 10, seed)
        assert flemma(E, 2).ok


def test_moment_identity_full_plane_f3():
    report = moment_identity_check(PLANE3, f_profile(PLANE3))
    assert report.f_square_sum == report.stabilizer_sum == 24 * 81  # f is constant 9
    assert report.unique_on_good
    assert report.matched_part == report.matched_quadruples
    assert report.matched_part + report.collinear_part == report.stabilizer_sum
    assert report.ok


def test_moment_identity_two_point_set():
    E = PointSet(F3, [(1, 0), (0, 1)])
    report = moment_identity_check(E, f_profile(E))
    assert report.ok


def test_moment_identity_empty_set():
    E = PointSet(F3, [])
    report = moment_identity_check(E, f_profile(E))
    assert report.f_square_sum == 0 and report.stabilizer_sum == 0
    assert report.ok


def test_nu_second_moment_equals_k1_equivalent_pairs():
    # sum_t nu(t)^2 counts area-coincident quadruples = pairs of
    # equivalent 2-point configurations
    for E in (PLANE3, random_subset(F5, 8, 2)):
        hist = nu_histogram(E)
        lhs = sum(c * c for c in hist.counts.values())
        sizes = count_classes(E, 1).class_sizes
        assert lhs == sum(c * c for c in sizes.values())


def test_mbad_class_sizes_z9():
    for k in (1, 2):
        report = mbad_class_size_check(count_classes(full_plane(Z9), k))
        assert report.good_free_action_ok
        assert report.good_classes * 648 == report.good_tuples
        for lvl in report.levels:
            assert lvl.min_class_size >= 3 ** (6 - 2 * lvl.m)
            assert lvl.count_constant <= 4
        assert report.ok


def test_mbad_requires_mod_prime_power():
    with pytest.raises(TypeError):
        mbad_class_size_check(count_classes(PLANE3, 2))


def test_mbad_requires_full_plane_census():
    with pytest.raises(ValueError):
        mbad_class_size_check(count_classes(random_subset(Z9, 80, 1), 1))


def test_good_class_members_f3_k1():
    classes = good_class_members(PLANE3, 1)
    assert len(classes) == 2
    assert sorted(len(v) for v in classes.values()) == [24, 24]
