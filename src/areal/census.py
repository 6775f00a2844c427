"""The counting engine: equivalence-class censuses, bad-tuple counts,
nu histograms, f(g) moments, and the exact checkers behind each lemma.

All counts are exact integers (Fractions where a mean is involved); no
floating point enters any counting path.  Everything that touches a tuple
stream takes an explicit visit budget and raises BudgetExceeded rather
than silently truncating.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .configs import key_width, signature
from .linalg import Vec2, enumerate_sl2, sl2_order
from .rings import ModPrimePower, RingSpec

DEFAULT_BUDGET = 10 ** 9


class BudgetExceeded(Exception):
    def __init__(self, required: int, budget: int):
        try:
            needed = str(required)
        except ValueError:  # past the interpreter's limit on decimal digits
            needed = f"over 2^{required.bit_length() - 1}"
        super().__init__(f"enumeration needs {needed} tuple visits but the budget is {budget}")
        self.required = required
        self.budget = budget


class NotTransitive(Exception):
    """The supplied action is not transitive; carries a counterexample pair."""

    def __init__(self, pair, message="action is not transitive"):
        super().__init__(f"{message}: counterexample pair {pair}")
        self.pair = pair


def check_budget(required: int, budget: int) -> None:
    """Raise BudgetExceeded when a count of visits passes the budget;
    every engine calls it before it allocates or enumerates."""
    if required > budget:
        raise BudgetExceeded(required, budget)


class PointSet:
    """A deduplicated, canonically sorted subset of the ring's plane.  Its
    area_table is built on first use and kept, so the census and nu of one
    experiment read the same table."""

    def __init__(self, spec: RingSpec, points):
        self.spec = spec
        # elements are their canonical indexes, so tuple order is index order
        self.points = tuple(sorted(set(points)))
        self.members = frozenset(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, v):
        return v in self.members

    def __iter__(self):
        return iter(self.points)

    @functools.cached_property
    def area_table(self) -> list[bytes]:
        return area_index_table(self)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.spec == other.spec
            and self.points == other.points
        )

    def to_csv(self) -> str:
        """Rows x1,x2 of canonical representatives (Galois field
        coefficients joined with ';')."""
        spec = self.spec
        lines = ["x1,x2"]
        lines.extend(f"{_csv_rep(spec, x[0])},{_csv_rep(spec, x[1])}" for x in self.points)
        return "\n".join(lines) + "\n"


def _csv_rep(spec: RingSpec, a) -> str:
    """One CSV cell for an element: its JSON form, with Galois field
    coefficients joined by ';'."""
    j = spec.element_to_json(a)
    return ";".join(str(c) for c in j) if isinstance(j, list) else str(j)


def area_index_table(E: PointSet) -> list[bytes]:
    """Row i holds the area of (point i, point j) for every j, each as its
    canonical index in key_width bytes big-endian, from one perp_rows."""
    rows, width = E.spec.perp_rows(E.points, E.points), key_width(E.spec)
    if width == 1:
        return list(map(bytes, rows))
    return [b"".join([a.to_bytes(width, "big") for a in row]) for row in rows]


# Ends every one-byte-per-area key in a census block and in a pattern's
# joined keys.  Such keys hold indexes below q, and q is odd, so q <= 255
# and no area is this byte.
_SEPARATOR = b"\xff"
_BYTES = [bytes((v,)) for v in range(256)]
_CHUNK = 4096  # keys re-keyed at once


def _cut(keys: bytes, step: int, width: int) -> list[bytes]:
    """The keys held every step bytes: split on the separator at one byte
    per area (none follows the last key), sliced at wider keys."""
    if width == 1:
        return keys.split(_SEPARATOR)
    ends = range(step, len(keys) + step, step)
    return list(map(keys.__getitem__, map(slice, range(0, len(keys), step), ends)))


def _orderings(same: tuple[bool, ...]) -> Iterator[list[int]]:
    """Each distinct ordering of a nondecreasing tuple t with same[b] iff
    t_b == t_{b+1}, as sigma: slot a of the ordered tuple is slot sigma[a]
    of t, equal points in their order.  The slots' run labels step
    through their lexicographic next permutations, identity first."""
    word = list(itertools.accumulate(map(operator.not_, same), initial=0))
    starts = [word.index(r) for r in range(word[-1] + 1)]
    while True:
        free, sigma = starts[:], []
        for r in word:
            sigma.append(free[r])
            free[r] += 1
        yield sigma
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def _nondecreasing_counts(E: PointSet, k: int, width: int) -> dict[tuple, Counter]:
    """Census keys of the nondecreasing tuples t_0 <= .. <= t_k of E^{k+1}
    by point index, one Counter per equality pattern (see _orderings).
    The tuples sharing (t_0 .. t_{k-2}), the last of them lo, form a block
    of keys for lo <= u <= v, written into one bytearray with one
    extended-slice assignment per key byte: the pairs u < v row by row,
    then the pairs u = v.  An area is fixed over the block, or repeated
    over v, or a table row from column u + 1 on, or taken at u."""
    n = len(E)
    T = E.area_table
    # planes[b][x][y]: byte b of the area of (x, y); at width 1 the table
    planes = [T] if width == 1 else [[row[b::width] for row in T] for b in range(width)]
    # each key byte's pair (i, j) and plane; t_inner = u and t_k = v
    sources = [(i, j, planes[b]) for j in range(1, k + 1) for i in range(j) for b in range(width)]
    inner, sep = k - 1, int(width == 1)
    stride = len(sources) + sep  # one-byte-per-area keys end in the separator
    block = bytearray(_SEPARATOR * (n * (n + 1) // 2 * stride))
    view, tails = memoryview(block), [slice(u, None) for u in range(n + 1)]
    patterns: dict[tuple, Counter] = defaultdict(Counter)
    for t in itertools.combinations_with_replacement(range(n), k - 1):
        lo = t[-1] if t else 0
        m = n - lo
        end = m * (m + 1) // 2 * stride
        for o, (i, j, plane) in enumerate(sources):
            if j < inner:  # one area for the whole block
                fill = _BYTES[plane[t[i]][t[j]]] * (m * (m + 1) // 2)
            elif j == inner:  # the area of t_i with u, once for each v
                units = map(_BYTES.__getitem__, plane[t[i]][lo:])
                fill = b"".join(map(operator.mul, units, range(m - 1, -1, -1))) + plane[t[i]][lo:]
            elif i < inner:  # the area of t_i with v
                fill = b"".join(map(plane[t[i]].__getitem__, tails[lo + 1 :])) + plane[t[i]][lo:]
            else:  # the area of u with v: the table's upper triangle, then its diagonal
                upper = b"".join(map(bytes.__getitem__, plane[lo:], tails[lo + 1 :]))
                fill = upper + bytes(map(bytes.__getitem__, plane[lo:], range(lo, n)))
            block[o:end:stride] = fill
        keys = bytes(view[:end])
        same = tuple(map(operator.eq, t, t[1:]))
        first, rest = (same + (True,), same + (False,)) if t else (same, same)  # u == lo or not
        first_row, diagonal = (m - 1) * stride, (m - 1) * m // 2 * stride
        ends = list(itertools.accumulate(range(first_row, 0, -stride)))
        rows = (_cut(keys[a : b - sep], stride, width) for a, b in zip([0] + ends, ends))
        patterns[first + (False,)].update(next(rows, ()))
        patterns[rest + (False,)].update(itertools.chain.from_iterable(rows))
        lo_key, *others = _cut(keys[diagonal : end - sep], stride, width)
        patterns[first + (True,)][lo_key] += 1
        patterns[rest + (True,)].update(others)
    return patterns


def _level_splits(spec: RingSpec, tally: Counter) -> dict[int, tuple[list, list, list]]:
    """For each badness level m of tally's keys: its keys counted once, its
    other keys and their counts, in tally's order.  The lists are cut by
    itertools.compress over the keys' levels, with no tuple per key."""
    levels, out = list(key_levels(spec, tally)), {}
    for m in sorted(set(levels)):
        keys, sizes = tally, tally.values()
        if levels.count(m) < len(levels):
            keys = list(itertools.compress(keys, map(m.__eq__, levels)))
            sizes = list(itertools.compress(sizes, map(m.__eq__, levels)))
        ones = list(itertools.compress(keys, map((1).__eq__, sizes)))
        shared = list(itertools.compress(keys, map((1).__lt__, sizes)))
        out[m] = ones, shared, list(filter((1).__lt__, sizes))
    return out


def signature_counts(
    E: PointSet, k: int, budget: int = DEFAULT_BUDGET, level_ends: dict | None = None
) -> Counter:
    """Counter mapping census keys to the number of tuples of E^{k+1}
    realizing them, grouped by badness level in ascending order.

    A key packs the area index of every pair (i, j), i < j, in column
    order (by j, then by i), each in key_width bytes big-endian.  Only the
    nondecreasing tuples are keyed, one Counter per equality pattern
    (_nondecreasing_counts); each distinct ordering sigma of a pattern
    (_orderings) then adds the pattern's counts under re-keyed keys.  Slot
    (a, b) of a re-keyed key is slot (min(sigma a, sigma b), max(sigma a,
    sigma b)) of the nondecreasing key, negated when sigma a > sigma b, as
    y . x^perp = -x . y^perp.  An ordering is one bulk pass over up to
    _CHUNK of the pattern's keys, joined: one extended-slice assignment per
    key byte from them or from their negation, made once per chunk by
    bytes.translate at one byte per area and through a map of the q area
    encodings at wider keys.

    Reordering a tuple permutes its areas and negates some, which keeps
    every valuation, so a key's level is that of its nondecreasing key:
    key_levels runs once per pattern key, C(n + k, k + 1) keys in all.
    The levels are expanded in ascending order, so each level's keys are
    one contiguous run of the Counter; level_ends, when given, receives
    len(counts) after each level.  Each pattern's Counter is split into
    per-level key lists (_level_splits) and freed.  Its level-0 lists run
    at once, the largest pattern last; the higher levels' lists wait and
    then run level by level.  Each list is freed after it runs, and one
    chunk's ordering is re-keyed at a time."""
    n = len(E)
    check_budget(n ** (k + 1), budget)
    counts: Counter = Counter()
    if n == 0:
        return counts
    spec, width = E.spec, key_width(E.spec)
    patterns = _nondecreasing_counts(E, k, width)
    pairs = [(i, j) for j in range(1, k + 1) for i in range(j)]
    slot = {pair: o * width for o, pair in enumerate(pairs)}
    step = len(pairs) * width + (width == 1)
    if width == 1:
        table = bytes(map(spec.neg, spec.elements())).ljust(256, _SEPARATOR)
        negate = lambda keys: keys.translate(table)
    else:
        codes = {a.to_bytes(width, "big"): spec.neg(a).to_bytes(width, "big")
                 for a in spec.elements()}
        negate = lambda keys: b"".join(map(codes.__getitem__, _cut(keys, width, width)))
    identity = list(range(k + 1))

    def expand(same: tuple, keys: list[bytes], sizes: list[int] | None) -> None:
        """Add keys of pattern same under each of its orderings: one tuple
        each when sizes is None (counted in C), else sizes[i] for keys[i]."""
        if not all(same):
            joined = (_SEPARATOR if width == 1 else b"").join(keys)
            negated = negate(joined)
        for sigma in _orderings(same):
            if sigma == identity:
                ordered = keys
            else:
                out = bytearray(joined)
                for (a, b), o in slot.items():
                    s, t = sigma[a], sigma[b]
                    src, p = (joined, slot[s, t]) if s < t else (negated, slot[t, s])
                    for c in range(width):
                        out[o + c :: step] = src[p + c :: step]
                ordered = _cut(bytes(out), step, width)
                del out
            if sizes is None:
                counts.update(ordered)
            else:  # one ordering's keys are distinct, so get reads the count before it
                totals = map(operator.add, map(counts.get, ordered, itertools.repeat(0)), sizes)
                dict.update(counts, zip(ordered, totals))
            del ordered  # before the next ordering is cut

    def run(same: tuple, ones: list[bytes], keys: list[bytes], sizes: list[int]) -> None:
        # a chunk of keys at a time keeps one ordering's re-keyed copies small
        for c in range(0, len(ones), _CHUNK):
            expand(same, ones[c : c + _CHUNK], None)
        for c in range(0, len(keys), _CHUNK):
            expand(same, keys[c : c + _CHUNK], sizes[c : c + _CHUNK])

    # level 0, the least, runs as each pattern is split, the largest
    # pattern last when the others are freed; higher levels wait in order
    waiting: dict[int, list] = defaultdict(list)
    for same in sorted(patterns, key=lambda same: len(patterns[same])):
        splits = _level_splits(spec, patterns.pop(same))
        if 0 in splits:
            run(same, *splits.pop(0))
        for m, job in splits.items():
            waiting[m].append((same, *job))
    ends = {} if level_ends is None else level_ends
    if counts:
        ends[0] = len(counts)
    for m in sorted(waiting):
        queue = waiting.pop(m)[::-1]
        while queue:
            run(*queue.pop())
        ends[m] = len(counts)
    return counts


def key_badness(spec: RingSpec, key: bytes) -> int:
    """Badness level of every tuple whose signature has this key, decoded
    area by area: the route key_levels takes for keys wider than one byte
    per area, and the reference its width-1 route is tested against."""
    width = key_width(spec)
    if width > 1:  # a width-1 key iterates as its area indexes already
        key = [int.from_bytes(key[off : off + width], "big") for off in range(0, len(key), width)]
    m = spec.max_level
    for idx in key:
        v = spec.valuation(idx)
        if v < m:
            m = v
            if m == 0:
                return 0
    return m


def key_levels(spec: RingSpec, keys) -> Iterator[int]:
    """The badness levels of census keys, yielded in key order.  A width-1
    key's is the least byte of key.translate(vt), where vt maps each area
    index to its valuation; wider keys go through key_badness."""
    if key_width(spec) > 1:
        return (key_badness(spec, key) for key in keys)
    vt = bytes(map(spec.valuation, spec.elements())).ljust(256, b"\0")
    return map(min, map(bytes.translate, keys, itertools.repeat(vt)))


@dataclass
class CensusReport:
    """The census of E^{k+1}.  Unreported: class_sizes (key -> tuples)
    and size_tally (level -> {class size -> classes}), from which the
    per-level counts and the composite checks' class statistics come."""

    spec: RingSpec
    k: int
    set_size: int
    total_tuples: int
    tuples_by_level: dict[int, int]
    classes_by_level: dict[int, int]
    total_classes: int
    class_sizes: dict[bytes, int] = field(repr=False, default_factory=dict)
    size_tally: dict[int, dict[int, int]] = field(repr=False, default_factory=dict)

    def equivalent_good_pairs(self) -> int:
        """#{(x, y) : x ~ y, both good} = sum of |class|^2 over good classes."""
        return sum(size * size * n for size, n in self.size_tally.get(0, {}).items())


def count_classes(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Exact census of distinct area signatures over E^{k+1}, split by
    badness level (a class invariant).  signature_counts finds the levels
    once per nondecreasing key and hands back where each level's run of
    classes ends, so each level's size tally is one Counter over a slice
    of the class sizes."""
    ends: dict[int, int] = {}
    counts = signature_counts(E, k, budget, level_ends=ends)
    sizes, start = iter(counts.values()), 0
    tally: dict[int, dict[int, int]] = {}
    for m, end in ends.items():
        tally[m] = dict(Counter(itertools.islice(sizes, end - start)))
        start = end
    return CensusReport(
        spec=E.spec,
        k=k,
        set_size=len(E),
        total_tuples=len(E) ** (k + 1),
        tuples_by_level={m: sum(size * n for size, n in t.items()) for m, t in tally.items()},
        classes_by_level={m: sum(t.values()) for m, t in tally.items()},
        total_classes=len(counts),
        class_sizes=counts,
        size_tally=tally,
    )


def count_bad_tuples(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Tuple counts per badness level, read from the census (fast route;
    see count_bad_tuples_naive for the oracle)."""
    return dict(count_classes(E, k, budget).tuples_by_level)


def bad_tuple_shape(spec: RingSpec, k: int, set_size: int, m: int) -> int:
    """The shape of the bound on the number of tuples of E^{k+1} at
    badness level m: p^{(2l - m)(k + 1) + m} over Z/p^l Z and q^k |E|
    over F_q; at m = 0 it is |E|^{k+1}, every tuple."""
    if m == 0:
        return set_size ** (k + 1)
    if isinstance(spec, ModPrimePower):
        p, ell = spec.p, spec.ell
        return p ** ((2 * ell - m) * (k + 1) + m)
    return spec.size() ** k * set_size


def count_bad_tuples_naive(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Independent oracle: the badness levels of E^{k+1}, by a walk over
    tuple prefixes on bitsets.  Each pair costs one checked
    valuation(perp_dot(x_i, x_j)); bit j of at_least[m][i] says it is
    >= m.  A prefix carries masks[m-1], the y that put prefix + (y,) at
    level >= m; extending it by x_j ANDs each mask with at_least[m][j].
    Popcounts count the level-0 extensions and the whole last slot.  It
    calls no census routine and reads no area table or census key."""
    n, spec, top, pts = len(E), E.spec, E.spec.max_level, E.points
    check_budget(n ** (k + 1), budget)
    digits = [bytes(48 + (v >= m) for v in range(256)) for m in range(top + 1)]  # b"0"/b"1"
    # each point's valuation row, reversed so that x_0 is bit 0, read as one int per level
    rows = (bytes([spec.valuation(spec.perp_dot(x, y)) for y in pts[::-1]]) for x in pts)
    levels = ([int(row.translate(d), 2) for d in digits] for row in rows)
    at_least = list(zip(*levels)) or [()] * (top + 1)  # no points: nothing to transpose
    tally = [0] * (top + 1)
    stack = [(0, [(1 << n) - 1] * top)]  # the empty prefix: a 1-tuple is at level top
    while stack:
        depth, masks = stack.pop()
        ones = [[j for j, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"] for mask in masks]
        if depth < k - 1:
            tally[0] += (n - len(ones[0])) * n ** (k - depth)
            for j in ones[0]:  # masks are nested: the child keeps those up to its own level
                child = [mask & at_least[m][j] for m, mask in enumerate(masks, 1) if mask >> j & 1]
                stack.append((depth + 1, child))
        else:  # the last two slots: one popcount for each x_j of ones[m-1] and level m
            sizes = [n * n, *(sum(map(int.bit_count, map(mask.__and__, map(row.__getitem__, js))))
                              for mask, row, js in zip(masks, at_least[1:], ones)), 0]
            for m in range(len(masks) + 1):
                tally[m] += sizes[m] - sizes[m + 1]
    return {m: c for m, c in enumerate(tally) if c}


@dataclass
class NuHistogram:
    spec: RingSpec
    counts: dict  # ring element -> number of ordered pairs with that area

    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        lines = ["t,count"]
        for a in self.spec.elements():
            if a in self.counts:
                lines.append(f"{_csv_rep(self.spec, a)},{self.counts[a]}")
        return "\n".join(lines) + "\n"


def nu_histogram(E: PointSet, budget: int = DEFAULT_BUDGET) -> NuHistogram:
    """nu(t) = #{(x, y) in E x E : x . y^perp = t}; sums to |E|^2.  Read
    from E.area_table, the table the census of E uses: one bytes.count per
    element over the joined rows at one byte per area, one Counter over
    the area slices of every row at wider keys."""
    spec = E.spec
    check_budget(len(E) ** 2, budget)
    table, width = E.area_table, key_width(spec)
    if width == 1:
        areas = b"".join(table)
        tallies = ((a, areas.count(_BYTES[a])) for a in spec.elements())
        return NuHistogram(spec, {a: c for a, c in tallies if c})
    slices: Counter = Counter()
    for row in table:
        slices.update(_cut(row, width, width))
    return NuHistogram(spec, {int.from_bytes(a, "big"): c for a, c in slices.items()})


@dataclass
class FProfile:
    """f(g) = #{x in E : gx in E} for each g, in enumerate_sl2 order,
    with the exact moment data of the lifting lemma: mean A, max M, and
    R = sum f^2 - A^2 |S| (= sum (f - A)^2, hence nonnegative)."""

    spec: RingSpec
    values: tuple[int, ...] = field(repr=False)
    group_order: int
    sum_f: int
    mean: Fraction
    maximum: int
    second_moment_excess: Fraction

    def sum_power(self, exp: int) -> int:
        return sum(v ** exp for v in self.values)


def f_profile(E: PointSet, budget: int = DEFAULT_BUDGET) -> FProfile:
    """f(g) = #{x in E : gx in E} for every g, one AND and one popcount
    each.

    Point x_i of E owns field i of a bitset: whole bytes, one bit per
    element.  A row r of g sends x_i to u_i = r . x_i; top(r) sets every
    v with (u_i, v) in E in field i, and bottom(r) sets bit u_i of field
    i.  So for g with rows r and s, top(r) & bottom(s) has one bit for
    each x_i with g x_i in E.  One apply_mat pass over E with g gives
    the bits of both its rows, so each distinct row costs at most one
    pass; every row's two |E|-field ints are kept for the whole group."""
    spec = E.spec
    order = sl2_order(spec)
    check_budget(order * max(1, len(E)), budget)
    q, points, apply = spec.size(), E.points, spec.apply_mat
    field_bytes = (q + 7) // 8
    columns = [0] * q  # columns[u]: bit v set iff (u, v) in E
    for u, v in points:
        columns[u] |= 1 << v
    tops = [c.to_bytes(field_bytes, "little") for c in columns]
    bottoms = [(1 << u).to_bytes(field_bytes, "little") for u in range(q)]

    def bits(images: list[int]) -> tuple[int, int]:
        return (
            int.from_bytes(b"".join(map(tops.__getitem__, images)), "little"),
            int.from_bytes(b"".join(map(bottoms.__getitem__, images)), "little"),
        )

    row_bits: dict[tuple, tuple[int, int]] = {}
    values = []
    for g in enumerate_sl2(spec):
        top_row, bottom_row = g[:2], g[2:]
        if top_row not in row_bits or bottom_row not in row_bits:
            images = [apply(g, x) for x in points]
            row_bits[top_row] = bits([u for u, _ in images])
            row_bits[bottom_row] = bits([v for _, v in images])
        values.append((row_bits[top_row][0] & row_bits[bottom_row][1]).bit_count())
    sum_f = sum(values)
    mean = Fraction(sum_f, order)
    excess = sum(v * v for v in values) - mean * mean * order
    return FProfile(
        spec=spec,
        values=tuple(values),
        group_order=order,
        sum_f=sum_f,
        mean=mean,
        maximum=max(values) if values else 0,
        second_moment_excess=excess,
    )


@dataclass
class MomentLiftResult:
    k: int
    c_k: int
    size: int
    mean: Fraction
    maximum: Fraction
    excess: Fraction
    lhs: Fraction
    rhs: Fraction
    ok: bool


def moment_lift_check(values, k: int) -> MomentLiftResult:
    """Exact check of the lifting inequality
    sum F^{k+1} <= c_k (M^{k-1} R + A^{k+1} |S|) with c_k = 2^{k^2},
    for any finite table of nonnegative values."""
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("the table must be nonempty")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    size = len(vals)
    mean = sum(vals) / size
    maximum = max(vals)
    excess = sum(v * v for v in vals) - mean * mean * size
    c_k = 2 ** (k * k)
    lhs = sum(v ** (k + 1) for v in vals)
    rhs = c_k * (maximum ** (k - 1) * excess + mean ** (k + 1) * size)
    return MomentLiftResult(
        k=k, c_k=c_k, size=size, mean=mean, maximum=maximum, excess=excess,
        lhs=lhs, rhs=rhs, ok=lhs <= rhs,
    )


def designated_orbit(spec: RingSpec) -> list[Vec2]:
    """The transitive SL_2 orbit used by the counting lemma: nonzero
    vectors for fields, vectors with at least one unit coordinate for
    Z/p^l Z (the orbit of (1, 0))."""
    zero = spec.zero
    out = []
    for a in spec.elements():
        for b in spec.elements():
            if isinstance(spec, ModPrimePower):
                if spec.is_unit(a) or spec.is_unit(b):
                    out.append((a, b))
            elif (a, b) != (zero, zero):
                out.append((a, b))
    return out


def transitivity_constant(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Verifies phi(x, y) = #{g : gx = y} is the same for every pair of
    the designated orbit and returns its value |G| / |X|."""
    X = designated_orbit(spec)
    order = sl2_order(spec)
    check_budget(order * len(X), budget)
    index = {x: i for i, x in enumerate(X)}
    nx = len(X)
    phi = [0] * (nx * nx)
    apply = spec.apply_mat
    for g in enumerate_sl2(spec):
        for x in X:
            y = apply(g, x)
            phi[index[x] * nx + index[y]] += 1
    expected, rem = divmod(order, nx)
    if rem != 0:
        raise NotTransitive((X[0], X[0]), "group order is not divisible by orbit size")
    for i, c in enumerate(phi):
        if c != expected:
            raise NotTransitive((X[i // nx], X[i % nx]))
    return expected


@dataclass
class FlemmaReport:
    good_tuples: int
    good_classes: int
    equivalent_good_pairs: int
    f_power_sum: int
    cauchy_schwarz_ok: bool
    f_bound_ok: bool

    def conditions(self) -> dict[str, bool]:
        return {"cauchy_schwarz_ok": self.cauchy_schwarz_ok, "f_bound_ok": self.f_bound_ok}

    @property
    def ok(self) -> bool:
        return all(self.conditions().values())


def flemma_check(census: CensusReport, profile: FProfile) -> FlemmaReport:
    """Both exact inequalities behind the class-count lower bound:
    |G|^2 <= (#good classes) * #{(x, y) in G x G : x ~ y}  and
    #{(x, y) in G x G : x ~ y} <= sum_g f(g)^{k+1},
    where G is the set of good tuples of E^{k+1}, read from the census
    of E at k and the f profile of E."""
    good_tuples = census.tuples_by_level.get(0, 0)
    good_classes = census.classes_by_level.get(0, 0)
    eq_pairs = census.equivalent_good_pairs()
    f_power_sum = profile.sum_power(census.k + 1)
    return FlemmaReport(
        good_tuples=good_tuples,
        good_classes=good_classes,
        equivalent_good_pairs=eq_pairs,
        f_power_sum=f_power_sum,
        cauchy_schwarz_ok=good_tuples ** 2 <= good_classes * eq_pairs,
        f_bound_ok=eq_pairs <= f_power_sum,
    )


@dataclass
class MomentIdentityReport:
    f_square_sum: int
    stabilizer_sum: int
    matched_part: int
    collinear_part: int
    matched_quadruples: int = field(repr=False)
    unique_on_good: bool

    @property
    def ok(self) -> bool:
        return (
            self.f_square_sum == self.stabilizer_sum
            and self.unique_on_good
            and self.matched_part == self.matched_quadruples
        )


def moment_identity_check(
    E: PointSet, profile: FProfile, budget: int = DEFAULT_BUDGET
) -> MomentIdentityReport:
    """Exact identity sum_g f(g)^2 = sum over quadruples (x1,x2,y1,y2) of
    #{g : gx1 = y1, gx2 = y2}, with the left side read from the f profile
    of E and the right side enumerated quadruple by quadruple and
    decomposed into the part where (x1, x2) has unit area (each such
    matched quadruple contributes exactly one g) and the remaining
    non-unit-area part."""
    spec = E.spec
    n = len(E)
    order = sl2_order(spec)
    check_budget(max(n ** 4, order * n * n), budget)
    group = list(enumerate_sl2(spec))
    lhs = profile.sum_power(2)
    perp, apply = spec.perp_dot, spec.apply_mat
    stabilizer_sum = 0
    matched_part = 0
    collinear_part = 0
    matched_quads = 0
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
    return MomentIdentityReport(
        f_square_sum=lhs,
        stabilizer_sum=stabilizer_sum,
        matched_part=matched_part,
        collinear_part=collinear_part,
        matched_quadruples=matched_quads,
        unique_on_good=unique_on_good,
    )


def _power(p: int, exponent: int) -> Fraction:
    return Fraction(p ** exponent) if exponent >= 0 else Fraction(1, p ** (-exponent))


@dataclass
class MBadLevelReport:
    m: int
    class_count: int
    tuple_count: int
    min_class_size: int
    size_bound: int
    count_shape: Fraction
    count_constant: Fraction
    size_ok: bool


@dataclass
class MBadReport:
    spec: RingSpec
    k: int
    good_classes: int
    good_tuples: int
    group_order: int
    good_free_action_ok: bool
    levels: list[MBadLevelReport]

    def conditions(self) -> dict[str, bool]:
        """Each term of ok, named by its field and the level m."""
        out = {"good_free_action_ok": self.good_free_action_ok}
        for lvl in self.levels:
            out[f"levels[m={lvl.m}].size_ok"] = lvl.size_ok
            out[f"levels[m={lvl.m}].count_constant <= 4"] = lvl.count_constant <= 4
        return out

    @property
    def ok(self) -> bool:
        return all(self.conditions().values())


def mbad_class_size_check(census: CensusReport) -> MBadReport:
    """From the census of the full plane over Z/p^l Z: good classes carry
    a free SL_2 action (size exactly |SL_2|, count x order = tuple
    count), and every m-bad class has at least p^{3l - 2m} members;
    per-m class counts are compared against the shape
    p^{l(2k-1) + (2-k)m} with the constant reported."""
    spec, k = census.spec, census.k
    if not isinstance(spec, ModPrimePower):
        raise TypeError("m-badness analysis needs a mod-prime-power ring")
    if census.set_size != spec.size() ** 2:
        raise ValueError("m-badness analysis needs the census of the full plane")
    order = sl2_order(spec)
    p, ell = spec.p, spec.ell
    good_classes = census.classes_by_level.get(0, 0)
    good_tuples = census.tuples_by_level.get(0, 0)
    good_free = good_classes * order == good_tuples and all(
        size == order for size in census.size_tally.get(0, {})
    )
    levels = []
    for m in range(1, ell + 1):
        tally = census.size_tally.get(m)
        if not tally:
            continue
        class_count, min_size = sum(tally.values()), min(tally)
        size_bound = p ** (3 * ell - 2 * m)
        shape = _power(p, ell * (2 * k - 1) + (2 - k) * m)
        levels.append(
            MBadLevelReport(
                m=m,
                class_count=class_count,
                tuple_count=census.tuples_by_level[m],
                min_class_size=min_size,
                size_bound=size_bound,
                count_shape=shape,
                count_constant=Fraction(class_count) / shape,
                size_ok=min_size >= size_bound,
            )
        )
    return MBadReport(
        spec=spec,
        k=k,
        good_classes=good_classes,
        good_tuples=good_tuples,
        group_order=order,
        good_free_action_ok=good_free,
        levels=levels,
    )


def good_class_members(
    E: PointSet, k: int, budget: int = DEFAULT_BUDGET
) -> dict[bytes, list[tuple]]:
    """Good tuples of E^{k+1} grouped by signature key, built tuple by
    tuple through configs.signature: the tests' reference grouping, which
    no check uses.  Memory is the number of good tuples, so keep to small
    instances."""
    check_budget(len(E) ** (k + 1), budget)
    spec = E.spec
    out: dict[bytes, list[tuple]] = {}
    for t in itertools.product(E.points, repeat=k + 1):
        sig = signature(spec, t)
        if any(spec.is_unit(a) for a in sig.areas):
            out.setdefault(sig.encode(), []).append(t)
    return out


def full_plane_points(spec: RingSpec) -> Iterator[Vec2]:
    for a in spec.elements():
        for b in spec.elements():
            yield (a, b)
