import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from areal.linalg import enumerate_sl2
from areal.rings import (
    GF_MAX_ORDER,
    PRIME_TEST_LIMIT,
    GaloisField,
    ModPrimePower,
    NotInvertibleError,
    PrimeField,
    RingSpec,
    _Residues,
    find_irreducible,
    galois_field,
    is_irreducible,
    is_prime,
    mod_prime_power,
    prime_field,
    ring_from_json,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
F9 = galois_field(3, 2)
Z9 = mod_prime_power(3, 2)
Z25 = mod_prime_power(5, 2)
Z27 = mod_prime_power(3, 3)

ALL_RINGS = [F3, F5, F7, F9, Z9, Z25, Z27, galois_field(3, 4)]


def test_rejects_characteristic_two():
    with pytest.raises(ValueError):
        prime_field(2)
    with pytest.raises(ValueError):
        mod_prime_power(2, 3)
    with pytest.raises(ValueError):
        prime_field(9)


def test_ring_specs_compare_and_hash_by_family_and_parameters():
    for make in (lambda: prime_field(7), lambda: galois_field(3, 2), lambda: mod_prime_power(3, 2)):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "first"}[b] == "first"
    assert galois_field(3, 2) != mod_prime_power(3, 2)
    assert prime_field(3) != mod_prime_power(3, 1) and prime_field(3) != galois_field(3, 2)
    assert mod_prime_power(3, 2) != mod_prime_power(3, 3)
    assert galois_field(3, 2, (1, 0, 1)) != galois_field(3, 2, (2, 1, 1))
    assert len({F9: 9, Z9: 9, galois_field(3, 2): 9, mod_prime_power(3, 2): 9}) == 2


@pytest.mark.parametrize("spec", [F7, F9, Z27], ids=lambda s: s.label())
def test_ring_specs_refuse_assignment(spec):
    p, q = spec.p, spec.size()
    with pytest.raises(AttributeError):
        spec.p = 5
    with pytest.raises(AttributeError):
        spec._q = 5
    assert (spec.p, spec.size()) == (p, q)


def test_mod_examples():
    assert Z9.add(7, 5) == 3
    assert F3.mul(2, 2) == 1
    assert Z9.inv(2) == 5
    assert F7.inv(3) == 5


def test_unit_examples():
    assert not Z9.is_unit(3)
    assert Z9.is_unit(2)
    assert not F5.is_unit(0)


def test_galois_mul_against_symbolic_reduction():
    # oracle: x * x = x^2 = -1 mod (x^2 + 1), i.e. 2 in characteristic 3
    x = F9.element_from_json([0, 1])
    assert F9.element_to_json(F9.mul(x, x)) == [2, 0]


def test_galois_inv_against_exhaustive_search():
    x = F9.element_from_json([0, 1])
    # oracle: scan all elements for the inverse
    inverses = [b for b in F9.elements() if F9.mul(x, b) == F9.one]
    assert [F9.element_to_json(b) for b in inverses] == [[0, 2]]
    assert F9.element_to_json(F9.inv(x)) == [0, 2]


def test_inv_of_nonunit_raises():
    with pytest.raises(NotInvertibleError, match=r"^3 has no inverse in Z/9Z$"):
        Z9.inv(3)
    with pytest.raises(NotInvertibleError, match=r"^0 has no inverse in F_5$"):
        F5.inv(0)
    with pytest.raises(NotInvertibleError, match=r"^0 has no inverse in F_9$"):
        F9.inv(F9.zero)


@pytest.mark.parametrize("spec", [F7, F9, galois_field(3, 4), Z27], ids=lambda s: s.label())
def test_inv_checks_its_operand_once_without_is_unit(spec, monkeypatch):
    # inv tests the element itself and calls the kernels _is_unit and _inv
    def no_call(self, a):
        raise AssertionError("inv called the public is_unit")

    monkeypatch.setattr(RingSpec, "is_unit", no_call)
    assert spec.mul(2, spec.inv(2)) == spec.one
    with pytest.raises(NotInvertibleError):
        spec.inv(spec.zero)


def test_huge_ring_ops_build_no_tables():
    # is_unit, inv, neg and add are O(1): none reads the q-entry valuation list
    spec = mod_prime_power(3, 40)
    q = spec.size()
    start = time.perf_counter()
    assert spec.is_unit(2) and not spec.is_unit(3)
    assert spec.mul(2, spec.inv(2)) == 1
    assert spec.add(q - 1, spec.neg(q - 1)) == 0
    assert time.perf_counter() - start < 0.1
    assert "_valuations" not in vars(spec)


PUBLIC_OPS = (
    "add", "sub", "mul", "neg", "is_unit", "inv", "valuation", "perp_dot", "apply_mat", "perp_rows"
)


def test_public_ops_are_defined_only_on_ringspec():
    # each family supplies kernels; the element rule lives in RingSpec alone
    assert set(PUBLIC_OPS) <= set(vars(RingSpec))
    for cls in (_Residues, PrimeField, ModPrimePower, GaloisField):
        assert not set(PUBLIC_OPS) & set(vars(cls)), cls.__name__


def test_enumeration_lengths():
    assert len(list(F3.elements())) == 3
    assert len(list(F9.elements())) == 9
    assert sum(map(Z9.is_unit, Z9.elements())) == 6  # phi(9)


@pytest.mark.parametrize("spec", ALL_RINGS, ids=lambda s: s.label())
def test_unit_count_formula(spec):
    q = spec.size()
    if isinstance(spec, ModPrimePower):
        expected = q - q // spec.p
    else:
        expected = q - 1
    assert sum(map(spec.is_unit, spec.elements())) == expected


@pytest.mark.parametrize("spec", ALL_RINGS, ids=lambda s: s.label())
def test_enumeration_canonical_order_and_roundtrip(spec):
    els = list(spec.elements())
    assert len(els) == len(set(els)) == spec.size()
    for i, a in enumerate(els):
        assert spec.index(a) == i


@pytest.mark.parametrize("spec", ALL_RINGS, ids=lambda s: s.label())
def test_ring_axioms_exhaustive(spec):
    els = list(spec.elements())
    add, mul = spec.add, spec.mul
    for a in els:
        assert add(a, spec.zero) == a
        assert mul(a, spec.one) == a
        assert add(a, spec.neg(a)) == spec.zero
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert spec.sub(a, b) == add(a, spec.neg(b))
    for a in els:
        for b in els:
            ab_a, ab_m = add(a, b), mul(a, b)
            for c in els:
                assert add(ab_a, c) == add(a, add(b, c))
                assert mul(ab_m, c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(ab_m, mul(a, c))


@pytest.mark.parametrize("spec", ALL_RINGS, ids=lambda s: s.label())
def test_inv_is_involution_on_units(spec):
    for a in filter(spec.is_unit, spec.elements()):
        assert spec.mul(a, spec.inv(a)) == spec.one
        assert spec.inv(spec.inv(a)) == a


def test_find_irreducible_canonical_choices():
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1, rootless mod 3
    assert find_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2, first in scan order
    with pytest.raises(ValueError):
        find_irreducible(3, 1)


def test_find_irreducible_really_irreducible():
    for p, e in [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]:
        poly = find_irreducible(p, e)
        assert len(poly) == e + 1 and poly[-1] == 1
        if e <= 3:
            # oracle: degree <= 3 is irreducible iff it has no root
            assert all(
                sum(c * pow(r, i, p) for i, c in enumerate(poly)) % p != 0
                for r in range(p)
            )
        assert is_irreducible(poly, p)


def test_reducible_modulus_rejected():
    # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        GaloisField(3, 2, (2, 0, 1))


def test_json_roundtrip():
    for spec in [F3, F9, Z27]:
        assert ring_from_json(spec.to_json()) == spec
    assert ring_from_json({"family": "galois-field", "p": 3, "e": 2}) == F9
    with pytest.raises(ValueError):
        ring_from_json({"family": "integers"})


def test_mismatched_elements_rejected():
    with pytest.raises(TypeError):
        F3.add(1, 5)
    with pytest.raises(TypeError):
        F9.add((1, 0), 1)
    with pytest.raises(TypeError):
        Z9.mul(4, (1, 0))


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_mod_arithmetic_matches_integers(a, b, c):
    spec = Z27
    assert spec.add(a, b) == (a + b) % 27
    assert spec.mul(a, spec.add(b, c)) == (a * b + a * c) % 27


@given(st.integers(0, 80), st.integers(0, 80))
def test_galois_field_81_multiplicative_index(i, j):
    # units form a group: product of units is a unit
    spec = galois_field(3, 4)
    els = list(spec.elements())
    a, b = els[i], els[j]
    if spec.is_unit(a) and spec.is_unit(b):
        assert spec.is_unit(spec.mul(a, b))


def test_valuations():
    assert Z9.valuation(0) == 2
    assert Z9.valuation(3) == 1
    assert Z9.valuation(6) == 1
    assert Z9.valuation(2) == 0
    assert Z27.valuation(9) == 2
    assert F3.valuation(0) == 1 and F3.valuation(2) == 0
    assert F9.valuation(F9.zero) == 1 and F9.valuation(F9.element_from_json([0, 1])) == 0
    for spec, bad in ((F9, (0, 1)), (F9, "x"), (Z27, -27)):
        with pytest.raises(TypeError):
            spec.valuation(bad)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _is_prime_by_trial_division(n) for n in range(10 ** 5))


def test_large_prime_field_is_built_at_once():
    start = time.perf_counter()
    spec = ring_from_json({"family": "prime-field", "p": 10 ** 18 + 9})
    assert time.perf_counter() - start < 0.1
    assert spec.size() == 10 ** 18 + 9


def test_is_prime_refuses_past_its_exact_range():
    assert is_prime(PRIME_TEST_LIMIT - 1) is False
    # the least strong pseudoprime to every prime base up to 37
    assert is_prime(318_665_857_834_031_151_167_461) is False
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        prime_field(10 ** 25)


def _poly_mul(spec, a, b):
    """The polynomial reference: the product of the coefficient tuples a
    and b (constant term first) reduced mod the monic modulus of spec,
    by schoolbook multiplication and long division."""
    p, e, m = spec.p, spec.e, spec.modulus
    conv = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * e - 2, e - 1, -1):  # subtract conv[k] x^(k-e) m(x)
        top = conv[k]
        for i, c in enumerate(m):
            conv[k - e + i] -= top * c
    return tuple(c % p for c in conv[:e])


@pytest.mark.parametrize(
    "spec",
    [
        galois_field(3, 2),
        pytest.param(GaloisField(3, 2, (2, 1, 1)), id="F_9-x^2+x+2"),
        galois_field(5, 2),
        galois_field(3, 3),
        pytest.param(GaloisField(3, 3, (2, 2, 0, 1)), id="F_27-x^3+2x+2"),
        galois_field(3, 4),
    ],
    ids=lambda s: s.label(),
)
def test_galois_tables_match_polynomial_reference(spec):
    # the tables read by add/sub/mul/inv against polynomial arithmetic on
    # coefficient tuples, on every pair and every unit; the moduli
    # x^2 + x + 2 and x^3 + 2x + 2 are not the defaults, so they change
    # what multiplying by x does; sums and differences are digit-wise mod p
    q, p = spec.size(), spec.p
    coeffs = [spec.coeffs(a) for a in range(q)]
    assert [spec.from_coeffs(c) for c in coeffs] == list(range(q))
    for a in range(q):
        ca = coeffs[a]
        for b in range(q):
            cb = coeffs[b]
            assert coeffs[spec.add(a, b)] == tuple((x + y) % p for x, y in zip(ca, cb))
            assert coeffs[spec.sub(a, b)] == tuple((x - y) % p for x, y in zip(ca, cb))
            assert coeffs[spec.mul(a, b)] == _poly_mul(spec, ca, cb)
        assert coeffs[spec.neg(a)] == tuple(-x % p for x in ca)
        if a:
            assert _poly_mul(spec, ca, coeffs[spec.inv(a)]) == coeffs[1]


@pytest.mark.parametrize("spec", [galois_field(3, 6), galois_field(31, 2)], ids=lambda s: s.label())
def test_galois_tables_of_the_largest_fields(spec):
    # every inverse and negative, every nonzero mul row a permutation,
    # a - b as a + (-b) for a seeded sample of b, and a seeded sample of
    # products against polynomial arithmetic
    q = spec.size()
    units = range(1, q)
    assert all(spec.mul(a, spec.inv(a)) == 1 for a in units)
    assert all(sorted(spec._tables.mul[a]) == list(range(q)) for a in units)
    rng = random.Random(2024)
    sample = [rng.randrange(q) for _ in range(20)]
    for a in range(q):
        assert spec.add(a, spec.neg(a)) == 0
        assert all(spec.sub(a, b) == spec.add(a, spec.neg(b)) for b in sample)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert spec.coeffs(spec.mul(a, b)) == _poly_mul(spec, spec.coeffs(a), spec.coeffs(b))


def test_galois_tables_are_lazy_and_shared():
    spec = GaloisField(3, 3, (1, 2, 0, 1))
    assert "_tables" not in vars(spec)
    assert spec.mul(4, 5) == galois_field(3, 3).mul(4, 5)
    assert GaloisField(3, 3, (1, 2, 0, 1))._tables is spec._tables


def test_galois_field_size_cap():
    assert galois_field(3, 6).size() == 729 <= GF_MAX_ORDER
    for p, e in [(3, 7), (5, 5), (37, 2), (10 ** 40 + 1, 2), (3, 10 ** 12)]:
        with pytest.raises(ValueError, match="more than 1024 elements"):
            galois_field(p, e)
    with pytest.raises(ValueError, match="more than 1024 elements"):
        ring_from_json({"family": "galois-field", "p": 3, "e": 7})


def test_galois_element_from_json_is_strict():
    assert F9.element_from_json([1, 2]) == 7
    for bad in ([1, True], [1], [1, 2, 0], [1, 3], [1, -1], [1, 1.0], ["1", 1], 4, "12"):
        with pytest.raises(ValueError):
            F9.element_from_json(bad)


def _composed_perp_dot(spec, x, y):
    return spec.sub(spec.mul(x[0], y[1]), spec.mul(x[1], y[0]))


def _composed_apply_mat(spec, m, v):
    a, b, c, d = m
    return (
        spec.add(spec.mul(a, v[0]), spec.mul(b, v[1])),
        spec.add(spec.mul(c, v[0]), spec.mul(d, v[1])),
    )


def _plane(spec):
    return list(itertools.product(spec.elements(), repeat=2))


@pytest.mark.parametrize("spec", [F3, F7, F9, Z9, Z27], ids=lambda s: s.label())
def test_perp_dot_matches_composed_ring_ops(spec):
    plane = _plane(spec)
    for x in plane:
        for y in plane:
            assert spec.perp_dot(x, y) == _composed_perp_dot(spec, x, y)


@pytest.mark.parametrize("spec", [F3, F9], ids=lambda s: s.label())
def test_apply_mat_matches_composed_ring_ops_on_all_of_sl2(spec):
    plane = _plane(spec)
    for g in enumerate_sl2(spec):
        for x in plane:
            assert spec.apply_mat(g, x) == _composed_apply_mat(spec, g, x)


@pytest.mark.parametrize("spec", [Z27, galois_field(3, 4)], ids=lambda s: s.label())
def test_apply_mat_matches_composed_ring_ops_on_samples(spec):
    rng = random.Random(20190611)
    elems = list(spec.elements())
    units = [a for a in elems if spec.is_unit(a)]
    for _ in range(5000):
        a, b, c = rng.choice(units), rng.choice(elems), rng.choice(elems)
        g = (a, b, c, spec.mul(spec.inv(a), spec.add(spec.one, spec.mul(b, c))))
        x = (rng.choice(elems), rng.choice(elems))
        assert spec.apply_mat(g, x) == _composed_apply_mat(spec, g, x)


# each checked op with its operand count, called on a flat operand list
CHECKED_OPS = {
    "add": (2, lambda spec, ops: spec.add(*ops)),
    "sub": (2, lambda spec, ops: spec.sub(*ops)),
    "mul": (2, lambda spec, ops: spec.mul(*ops)),
    "neg": (1, lambda spec, ops: spec.neg(*ops)),
    "is_unit": (1, lambda spec, ops: spec.is_unit(*ops)),
    "inv": (1, lambda spec, ops: spec.inv(*ops)),
    "valuation": (1, lambda spec, ops: spec.valuation(*ops)),
    "perp_dot": (4, lambda spec, ops: spec.perp_dot(tuple(ops[:2]), tuple(ops[2:]))),
    "apply_mat": (6, lambda spec, ops: spec.apply_mat(tuple(ops[:4]), tuple(ops[4:]))),
}


@pytest.mark.parametrize(
    "spec", [F7, F9, Z27, mod_prime_power(3, 5), galois_field(3, 6)], ids=lambda s: s.label()
)
def test_fused_kernels_reject_non_elements(spec):
    # every public op, with each bad value at each operand position
    good = [1, 2, 0, 1, 1, 2]
    for name, (arity, call) in CHECKED_OPS.items():
        for bad in (True, spec.size(), -1, "1", 1.0, None):
            message = f"{bad!r} is not an element of {spec.label()}"
            for pos in range(arity):
                ops = good[:arity]
                ops[pos] = bad
                with pytest.raises(TypeError) as info:
                    call(spec, ops)
                assert str(info.value) == message, (name, pos)


@pytest.mark.parametrize("spec", [F3, F7, F9, Z9, Z27], ids=lambda s: s.label())
def test_perp_row_matches_perp_dot(spec):
    plane = _plane(spec)
    rows = list(spec.perp_rows(plane, plane))
    assert rows == [[spec.perp_dot(x, y) for y in plane] for x in plane]
    assert list(spec.perp_rows([(1, 0)], [])) == [[]]
    assert list(spec.perp_rows([], plane)) == []


BYTE_LANE_RINGS = [mod_prime_power(5, 3), prime_field(127)]  # 2(q - 1) <= 255
WIDE_RINGS = [mod_prime_power(13, 2), prime_field(131), mod_prime_power(3, 5)]


def _edge_points(spec, count, seed):
    """Seeded points plus every pair of the coordinates 0, 1, q - 1 and q - 2."""
    q, rng = spec.size(), random.Random(seed)
    edges = list(itertools.product((0, 1, q - 2, q - 1), repeat=2))
    return edges + [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]


@pytest.mark.parametrize("spec", BYTE_LANE_RINGS + WIDE_RINGS, ids=lambda s: s.label())
def test_perp_row_matches_perp_dot_on_large_rings(spec):
    xs, ys = _edge_points(spec, 60, 1), _edge_points(spec, 300, 2)
    assert list(spec.perp_rows(xs, ys)) == [[spec.perp_dot(x, y) for y in ys] for x in xs]
    assert list(spec.perp_rows(xs[:1], [])) == [[]]
    # the first two rings go through byte lanes, the others do not
    assert ("_byte_times" in vars(spec)) == (spec in BYTE_LANE_RINGS)


def _with_bad_coordinate(points, i, pos, bad):
    point = list(points[i])
    point[pos] = bad
    return points[:i] + [tuple(point)] + points[i + 1 :]


@pytest.mark.parametrize("spec", [F7, F9, Z27, *BYTE_LANE_RINGS, *WIDE_RINGS], ids=lambda s: s.label())
def test_perp_row_rejects_non_elements(spec):
    # every coordinate of xs and ys is checked before the first row
    xs = [(1, 2), (2, 0)]
    ys = [(0, 1), (2, 1), (1, 1)]
    for bad in (True, spec.size(), -1, "1", 1.0, None):
        for i in range(len(xs)):
            for pos in range(2):
                rows = spec.perp_rows(_with_bad_coordinate(xs, i, pos, bad), ys)
                with pytest.raises(TypeError):
                    next(rows)
        for i in range(len(ys)):
            for pos in range(2):
                rows = spec.perp_rows(xs, _with_bad_coordinate(ys, i, pos, bad))
                with pytest.raises(TypeError):
                    next(rows)
