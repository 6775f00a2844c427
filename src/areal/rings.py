"""Exact arithmetic for the three ring families used everywhere else:
prime fields F_p, Galois fields F_{p^e}, and modular rings Z/p^l Z,
always with p an odd prime.

Every element is a plain int, its canonical index in [0, size): the
residue itself for F_p and Z/p^l Z, and for F_{p^e} the number
sum c_i p^i whose base-p digits c_0, ..., c_{e-1} are the coefficients
of the element's polynomial (constant term first).  So index() is the
identity, two elements are equal iff their ints are, and elements serve
directly as dict keys and list indexes.  Every operation takes the ring
as explicit context.  RingSpec defines each public operation once: it
raises TypeError for an operand that is not an element, then calls the
family's unchecked kernel, so a family is only its arithmetic.  Besides
the ring operations, there are the area form perp_dot(x, y) and the
SL_2 action apply_mat(m, v), each one checked call, since every count
reduces to them, and perp_rows(xs, ys), the areas of each point of xs
with every point of ys, which checks every coordinate once before it
yields the first row.

F_p and Z/p^l Z compute residues modulo the cached size.  F_{p^e} reads
add/mul/neg/inv tables that are built on first use from the modulus
alone (mul row by row from add, as multiplication by a is F_p-linear)
and shared by every instance with the same (p, e, modulus); a - b is
a + (-b).  GF_MAX_ORDER caps the field size, so the q x q tables stay
small.  JSON still spells F_{p^e} elements as coefficient lists.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Iterator, NamedTuple

# Largest F_{p^e} with arithmetic tables: its two q x q tables hold
# 8-byte references, at most 17 MB in all.
GF_MAX_ORDER = 1024


class NotInvertibleError(Exception):
    """Inversion was requested for an element with no inverse."""


# Miller-Rabin over the first thirteen primes as bases decides every n
# below PRIME_TEST_LIMIT exactly: the least strong pseudoprime to all of
# them is that number (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, O(log n) multiplications per base;
    raises ValueError for n >= PRIME_TEST_LIMIT, where it is not exact."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot test {n} for primality: it is not below {PRIME_TEST_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def checked_int(value, what: str) -> int:
    """value itself if it is a JSON integer (a bool is not one); raises
    ValueError otherwise, with no coercion from strings or floats."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Polynomials over F_p: ascending coefficient lists, used to find and
# validate Galois field moduli.

def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    num = _poly_trim(list(num))
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        _poly_trim(num)
    return num


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree
    1..deg//2.  Fine at desk scale (deg <= 4 or so)."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % p != 1:
        return False
    if coeffs[0] % p == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for i in range(p ** d):
            if not _poly_mod(coeffs, _digits(i, p, d) + (1,), p):
                return False
    return True


def _digits(n: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of n, least significant first."""
    out = []
    for _ in range(e):
        n, c = divmod(n, p)
        out.append(c)
    return tuple(out)


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p, where "smallest"
    orders the lower coefficient vectors (c_0,...,c_{e-1}) by the value
    of sum c_i p^i.  Deterministic, so F_{p^e} is reproducible."""
    _check_odd_prime(p)
    if e < 2:
        raise ValueError("find_irreducible requires degree e >= 2")
    for idx in range(p ** e):
        poly = _digits(idx, p, e) + (1,)
        if is_irreducible(poly, p):
            return poly
    raise AssertionError("unreachable: an irreducible of every degree exists")


# ---------------------------------------------------------------------------
# Ring families.

class RingSpec:
    """The public ring operations, each defined once: it checks that
    every operand is an element (an int in [0, size)), raises TypeError
    otherwise, and then calls the family's unchecked kernel (_add, _sub,
    _mul, _neg, _is_unit, _inv, _perp, _apply, _rows and the _valuations
    table).  Construct via prime_field / galois_field / mod_prime_power
    or ring_from_json.  Each family's __init__ checks its parameters and
    sets them once through _set_params, with _q, the ring size; a spec
    compares and hashes by (family, parameters), and assigning to it
    raises AttributeError.  Each family defines max_level, label,
    to_json, element_to_json and element_from_json."""

    family: str = ""
    zero = 0
    one = 1

    def _set_params(self, q: int, **params) -> None:
        # set one by one, not through __dict__, which would cost the spec
        # its specialised method calls (a materialised dict defeats them)
        for name, value in {**params, "_q": q, "_params": (self.family, *params.values())}.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingSpec) and self._params == other._params

    def __hash__(self) -> int:
        return hash(self._params)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a ring spec is immutable")

    def size(self) -> int:
        return self._q

    def elements(self) -> Iterator[int]:
        """All elements, ascending canonical order, each exactly once."""
        return iter(range(self._q))

    def index(self, a: int) -> int:
        return a

    def add(self, a: int, b: int) -> int:
        q = self._q
        if type(a) is int and type(b) is int and 0 <= a < q and 0 <= b < q:
            return self._add(a, b)
        raise self._reject(a, b)

    def sub(self, a: int, b: int) -> int:
        q = self._q
        if type(a) is int and type(b) is int and 0 <= a < q and 0 <= b < q:
            return self._sub(a, b)
        raise self._reject(a, b)

    def mul(self, a: int, b: int) -> int:
        q = self._q
        if type(a) is int and type(b) is int and 0 <= a < q and 0 <= b < q:
            return self._mul(a, b)
        raise self._reject(a, b)

    def neg(self, a: int) -> int:
        if type(a) is int and 0 <= a < self._q:
            return self._neg(a)
        raise self._reject(a)

    def is_unit(self, a: int) -> bool:
        if type(a) is int and 0 <= a < self._q:
            return self._is_unit(a)
        raise self._reject(a)

    def inv(self, a: int) -> int:
        if type(a) is int and 0 <= a < self._q:
            if self._is_unit(a):
                return self._inv(a)
            raise NotInvertibleError(f"{a} has no inverse in {self.label()}")
        raise self._reject(a)

    def valuation(self, a: int) -> int:
        """Largest m <= max_level with p^m | a (so valuation(0) = max_level)."""
        if type(a) is int and 0 <= a < self._q:
            return self._valuations[a]
        raise self._reject(a)

    def perp_dot(self, x: tuple, y: tuple) -> int:
        """The area x1*y2 - x2*y1 of two plane vectors, in one call."""
        q = self._q
        x1, x2 = x
        y1, y2 = y
        if (
            type(x1) is int and type(x2) is int and type(y1) is int and type(y2) is int
            and 0 <= x1 < q and 0 <= x2 < q and 0 <= y1 < q and 0 <= y2 < q
        ):
            return self._perp(x1, x2, y1, y2)
        raise self._reject(x1, x2, y1, y2)

    def apply_mat(self, m: tuple, v: tuple) -> tuple[int, int]:
        """The vector [[a, b], [c, d]] (x, y) for m = (a, b, c, d), in one call."""
        q = self._q
        a, b, c, d = m
        x, y = v
        if (
            type(a) is int and type(b) is int and type(c) is int and type(d) is int
            and type(x) is int and type(y) is int
            and 0 <= a < q and 0 <= b < q and 0 <= c < q and 0 <= d < q
            and 0 <= x < q and 0 <= y < q
        ):
            return self._apply(a, b, c, d, x, y)
        raise self._reject(a, b, c, d, x, y)

    def perp_rows(self, xs, ys) -> Iterator[list[int]]:
        """[perp_dot(x, y) for y in ys] for each x of xs in turn, for
        sequences xs and ys, every coordinate checked before the first row."""
        self._check_points(xs, ys)
        yield from self._rows(xs, ys)

    def _check_points(self, xs, ys) -> None:
        """Raise TypeError unless every coordinate of the points xs and ys
        is an element, checked in C-level passes over them all."""
        chain = itertools.chain.from_iterable
        coords = (*chain(xs), *chain(ys))
        if set(map(type, coords)) <= {int}:
            values = set(coords)
            if not values or (min(values) >= 0 and max(values) < self._q):
                return
        raise self._reject(*coords)

    def _reject(self, *operands) -> TypeError:
        """The error for the first operand that is not an element."""
        q = self._q
        bad = next(a for a in operands if type(a) is not int or not 0 <= a < q)
        return TypeError(f"{bad!r} is not an element of {self.label()}")


class _Residues(RingSpec):
    """Z/nZ arithmetic on residues in [0, n), with n = p^ell = _q."""

    def _add(self, a: int, b: int) -> int:
        return (a + b) % self._q

    def _sub(self, a: int, b: int) -> int:
        return (a - b) % self._q

    def _mul(self, a: int, b: int) -> int:
        return (a * b) % self._q

    def _neg(self, a: int) -> int:
        return -a % self._q

    def _is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def _inv(self, a: int) -> int:
        return pow(a, -1, self._q)

    def _perp(self, x1: int, x2: int, y1: int, y2: int) -> int:
        return (x1 * y2 - x2 * y1) % self._q

    def _apply(self, a: int, b: int, c: int, d: int, x: int, y: int) -> tuple[int, int]:
        q = self._q
        return ((a * x + b * y) % q, (c * x + d * y) % q)

    def _rows(self, xs, ys) -> Iterator[list[int]]:
        """The perp_rows kernel.  While 2(q - 1) fits a byte, a row is
        C-level passes over one byte per point of ys: x1 * y2 and
        -x2 * y1 mod q by bytes.translate through multiplication rows, one
        big-int add of the two (no lane can carry), and one translate that
        reduces each byte mod q."""
        q = self._q
        if 2 * (q - 1) > 255:
            for x1, x2 in xs:
                yield [(x1 * y2 - x2 * y1) % q for y1, y2 in ys]
            return
        first, second = bytes([y1 for y1, _ in ys]), bytes([y2 for _, y2 in ys])
        times, reduce, size = self._byte_times, self._byte_reduce, len(ys)
        for x1, x2 in xs:
            lanes = (
                int.from_bytes(second.translate(times[x1]), "big")
                + int.from_bytes(first.translate(times[-x2 % q]), "big")
            )
            yield list(lanes.to_bytes(size, "big").translate(reduce))

    @cached_property
    def _byte_times(self) -> list[bytes]:
        """Row a maps each byte v < q to a * v mod q, for perp_rows."""
        q = self._q
        return [bytes([a * v % q for v in range(q)]).ljust(256, b"\0") for a in range(q)]

    @cached_property
    def _byte_reduce(self) -> bytes:
        """Maps each byte v to v mod q, for perp_rows."""
        return bytes([v % self._q for v in range(256)])

    @cached_property
    def _valuations(self) -> list[int]:
        vals = [0] * self._q
        step = 1
        for m in range(1, self.max_level + 1):
            step *= self.p
            for a in range(0, self._q, step):
                vals[a] = m
        return vals

    def element_to_json(self, a: int) -> int:
        return a

    def element_from_json(self, obj) -> int:
        a = checked_int(obj, "a ring element")
        if not 0 <= a < self._q:
            raise ValueError(f"{a} is not an element of {self.label()}")
        return a


class PrimeField(_Residues):
    family = "prime-field"
    max_level = 1

    def __init__(self, p: int):
        _check_odd_prime(p)
        self._set_params(p, p=p)

    def label(self) -> str:
        return f"F_{self.p}"

    def to_json(self) -> dict:
        return {"family": self.family, "p": self.p}


class ModPrimePower(_Residues):
    family = "mod-prime-power"

    def __init__(self, p: int, ell: int):
        _check_odd_prime(p)
        if ell < 1:
            raise ValueError("ell must be >= 1")
        self._set_params(p ** ell, p=p, ell=ell)

    @property
    def max_level(self) -> int:
        return self.ell

    def label(self) -> str:
        return f"Z/{self._q}Z"

    def to_json(self) -> dict:
        return {"family": self.family, "p": self.p, "ell": self.ell}


def _galois_order(p: int, e: int) -> int:
    """p^e for a valid F_{p^e}.  The size cap is checked before p is
    tested for primality, so a huge p or e is refused at once."""
    if e < 2:
        raise ValueError("galois-field requires e >= 2; use prime_field for e = 1")
    if p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    q = 1
    for _ in range(e):
        q *= p
        if q > GF_MAX_ORDER:
            raise ValueError(
                f"galois-field {p}^{e} has more than {GF_MAX_ORDER} elements"
            )
    _check_odd_prime(p)
    return q


class _GFTables(NamedTuple):
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]  # inv[0] is a placeholder; inv() refuses 0 first


class GaloisField(RingSpec):
    family = "galois-field"
    max_level = 1

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        """modulus: ascending coefficients, length e+1, monic."""
        q = _galois_order(p, e)
        m = modulus
        if (
            len(m) != e + 1
            or m[-1] != 1
            or any(type(c) is not int or not 0 <= c < p for c in m)
        ):
            raise ValueError(f"modulus must be monic of degree {e} over F_{p}")
        if not is_irreducible(m, p):
            raise ValueError(f"modulus {m} is reducible over F_{p}")
        self._set_params(q, p=p, e=e, modulus=m)

    # -- table-driven arithmetic on indexes --------------------------------

    @cached_property
    def _tables(self) -> _GFTables:
        return _galois_tables(self)

    def _add(self, a: int, b: int) -> int:
        return self._tables.add[a][b]

    def _sub(self, a: int, b: int) -> int:
        t = self._tables
        return t.add[a][t.neg[b]]

    def _mul(self, a: int, b: int) -> int:
        return self._tables.mul[a][b]

    def _neg(self, a: int) -> int:
        return self._tables.neg[a]

    def _is_unit(self, a: int) -> bool:
        return a != 0

    def _inv(self, a: int) -> int:
        return self._tables.inv[a]

    def _perp(self, x1: int, x2: int, y1: int, y2: int) -> int:
        t = self._tables
        mul = t.mul
        return t.add[mul[x1][y2]][mul[t.neg[x2]][y1]]

    def _apply(self, a: int, b: int, c: int, d: int, x: int, y: int) -> tuple[int, int]:
        t = self._tables
        mul, add = t.mul, t.add
        return (add[mul[a][x]][mul[b][y]], add[mul[c][x]][mul[d][y]])

    def _rows(self, xs, ys) -> Iterator[list[int]]:
        t = self._tables
        add, mul, neg = t.add, t.mul, t.neg
        for x1, x2 in xs:
            by_x1, by_minus_x2 = mul[x1], mul[neg[x2]]
            yield [add[by_x1[y2]][by_minus_x2[y1]] for y1, y2 in ys]

    @cached_property
    def _valuations(self) -> list[int]:
        return [1] + [0] * (self._q - 1)

    # -- coefficient tuples, constant term first ---------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        return _digits(a, self.p, self.e)

    def from_coeffs(self, cs) -> int:
        n = 0
        for c in reversed(cs):
            n = n * self.p + c
        return n

    def label(self) -> str:
        return f"F_{self._q}"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus),
        }

    def element_to_json(self, a: int) -> list[int]:
        return list(self.coeffs(a))

    def element_from_json(self, obj) -> int:
        """Exactly e coefficients, each an int (not a bool) in [0, p)."""
        if (
            not isinstance(obj, (list, tuple))
            or len(obj) != self.e
            or any(type(c) is not int or not 0 <= c < self.p for c in obj)
        ):
            raise ValueError(
                f"{obj!r} is not a list of {self.e} coefficients in [0, {self.p})"
            )
        return self.from_coeffs(obj)


@cache
def _galois_tables(F: GaloisField) -> _GFTables:
    """Every table of F from its modulus.  add acts digit by digit, and
    neg[a] is where row a of add holds 0.  Multiplication by a is
    F_p-linear, a*(b_0 + b_1 x + ...) = b_0 a + b_1 (a x) + ..., so row a
    of mul is built digit by digit as _digitwise_table builds its rows:
    level i takes the p multiples of the shift a x^i, and times_x gives
    the next shift.  times_x comes from add alone: with
    a = low + top p^(e-1), a x = low x + top x^e, where low x shifts the
    digits of low up one place and x^e = -(m_0 + ... + m_{e-1} x^{e-1})
    for the modulus m.  inv[a] is where row a of mul holds 1.  Cached by
    field value (p, e, modulus), so equal specs share one set."""
    p, e, q = F.p, F.e, F.size()
    ints = list(range(q))  # share one int object per element
    add = _digitwise_table(p, e, ints)
    x_to_e = F.from_coeffs([-c % p for c in F.modulus[:e]])
    times_x = [add[low * p][top] for top in _multiples(add, x_to_e, p) for low in range(q // p)]
    mul = []
    for a in ints:
        row, shift = [0], a
        for _ in range(e):
            by_digit = map(add.__getitem__, _multiples(add, shift, p))
            # indexes below len(row) * p: one more (top) digit over the row so far
            row = [by_top[low] for by_top in by_digit for low in row]
            shift = times_x[shift]
        mul.append(tuple(row))
    neg = tuple(row.index(0) for row in add)
    inv = (0,) + tuple(mul[a].index(1) for a in ints[1:])
    return _GFTables(add=add, mul=tuple(mul), neg=neg, inv=inv)


def _multiples(add, a: int, p: int) -> list[int]:
    """c * a for c in [0, p), by p - 1 lookups in the add table."""
    out = [0]
    for _ in range(p - 1):
        out.append(add[out[-1]][a])
    return out


def _digitwise_table(p: int, e: int, ints: list[int]) -> tuple[tuple[int, ...], ...]:
    """t[a][b] = the index whose base-p digits are a_i + b_i mod p:
    coefficient-wise addition of F_{p^e} elements."""
    digit = [[(x + y) % p for y in range(p)] for x in range(p)]
    rows, span = ((0,),), 1
    for _ in range(e):
        # indexes below span * p: one more (top) digit over the rows so far
        rows = tuple(
            tuple(ints[low[yl] + span * top[yt]] for yt in range(p) for yl in range(span))
            for top in digit
            for low in rows
        )
        span *= p
    return rows


# ---------------------------------------------------------------------------
# Factories.

def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def galois_field(p: int, e: int, modulus=None) -> GaloisField:
    if modulus is None:
        _galois_order(p, e)  # refuse an oversized field before the modulus search
        modulus = find_irreducible(p, e)
    return GaloisField(p, e, tuple(modulus))


def mod_prime_power(p: int, ell: int) -> ModPrimePower:
    return ModPrimePower(p, ell)


def ring_from_json(obj) -> RingSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"a ring must be a JSON object, got {obj!r}")
    family = obj.get("family")
    if family == "prime-field":
        return prime_field(checked_int(obj["p"], "p"))
    if family == "galois-field":
        modulus = obj.get("modulus")
        return galois_field(checked_int(obj["p"], "p"), checked_int(obj["e"], "e"), modulus)
    if family == "mod-prime-power":
        return mod_prime_power(checked_int(obj["p"], "p"), checked_int(obj["ell"], "ell"))
    raise ValueError(f"unknown ring family: {family!r}")
