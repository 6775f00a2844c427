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
import math
import operator
import struct
from array import array
from collections import Counter, defaultdict, deque
from fractions import Fraction
from typing import Iterator, NamedTuple

from .configs import key_width, pair_indices, signature
from .linalg import Vec2, enumerate_sl2, orbit_size, plane_orbits, sl2_blocks, sl2_order
from .rings import ModPrimePower, RingSpec

DEFAULT_BUDGET = 10 ** 9
# What a checker returns: the values it reports and its named conditions.
Checked = tuple[dict, dict[str, bool]]


class BudgetExceeded(Exception):
    """A charge of required visits passes the budget.  exact is False when
    required is only a lower bound on the work, and the message says "at
    least"."""

    def __init__(self, required: int, budget: int, exact: bool = True):
        try:
            needed = ("" if exact else "at least ") + str(required)
        except ValueError:  # past the interpreter's limit on decimal digits
            needed = f"over 2^{required.bit_length() - 1}"
        super().__init__(f"enumeration needs {needed} tuple visits but the budget is {budget}")
        self.required = required
        self.budget = budget
        self.exact = exact


class NotTransitive(Exception):
    """The supplied action is not transitive; carries a counterexample pair."""

    def __init__(self, pair):
        super().__init__(f"action is not transitive: counterexample pair {pair}")
        self.pair = pair


def check_budget(required: int, budget: int) -> None:
    """Raise BudgetExceeded when a count of visits passes the budget;
    every engine calls it before it allocates or enumerates."""
    if required > budget:
        raise BudgetExceeded(required, budget)


def power_reaches(base: int, exp: int, bits: int) -> bool:
    """Whether base^exp >= 2^bits is certain from bit lengths alone:
    base^exp >= 2^(exp (b - 1)) for b = base.bit_length()."""
    return exp * (base.bit_length() - 1) >= bits


def check_power_budget(base: int, exp: int, budget: int) -> None:
    """Charge base^exp visits without building a power past the budget,
    the one rule that picks an exact charge or a lower bound: once
    base^exp >= 2^budget.bit_length() is certain (power_reaches), it
    passes the budget, and that power of two is raised as inexact.  A
    power below 2^128 costs nothing to build, so one with exp (b - 1) < 64
    is always charged exactly; any other is below 2^(2
    budget.bit_length())."""
    if power_reaches(base, exp, max(budget.bit_length(), 64)):
        raise BudgetExceeded(1 << budget.bit_length(), budget, exact=False)
    check_budget(base ** exp, budget)


def check_k(k: int) -> None:
    """Refuse a tuple length k + 1 below 2; every engine that takes k
    calls it before its budget charge."""
    if k < 1:
        raise ValueError("k must be >= 1")


class PointSet:
    """A deduplicated, canonically sorted subset of the ring's plane.  Its
    area_counts and area_table are built on first use and kept, so nu and
    the k = 1 census of one experiment read one histogram, and the
    censuses at k >= 2 of one set one table.  area_counts is counted from
    perp_rows rows and never reads the table."""

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

    @functools.cached_property
    def area_counts(self) -> dict[int, int]:
        """nu: each area t with nu(t) > 0, in element order -> the number
        of ordered pairs of points with area t.

        nu(t) = sum over roots r of weight w of w * #{y : area(r, y) = t},
        from one perp_rows row per root, each run of rows of one weight
        counted at once.  Off the plane every point is a root of weight
        1.  On the whole plane the roots are the plane_orbits (r, size):
        if x = g r with g in SL_2, then y -> g^{-1} y maps the plane onto
        itself and keeps area(x, y) = area(r, g^{-1} y), as det g = 1, so
        every x of r's orbit has r's row of areas, permuted."""
        spec = self.spec
        roots, weights = self.points, itertools.repeat(1)
        if self.is_plane():
            roots, weights = zip(*plane_orbits(spec))
        rows = zip(weights, spec.perp_rows(roots, self.points))
        nu: Counter = Counter()
        for weight, weighted in itertools.groupby(rows, key=operator.itemgetter(0)):
            for a, c in Counter(itertools.chain.from_iterable(row for _, row in weighted)).items():
                nu[a] += weight * c
        return {a: nu[a] for a in spec.elements() if nu[a]}

    def is_plane(self) -> bool:
        """Whether the set is the whole plane R^2, its q^2 points."""
        return len(self) == self.spec.size() ** 2

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.spec == other.spec
            and self.points == other.points
        )


def area_index_table(E: PointSet) -> list[bytes]:
    """Row i holds the area of (point i, point j) for every j, each as its
    canonical index in a native word of key_width bytes, from one
    perp_rows."""
    rows, width = E.spec.perp_rows(E.points, E.points), key_width(E.spec)
    return list(map(bytes, rows)) if width == 1 else [array(_WORDS[width], row).tobytes() for row in rows]


# array/memoryview codes by word size: census keys are native words
_WORDS = {array(code).itemsize: code for code in "BHIQ"}
_BYTES = [bytes((v,)) for v in range(256)]
_CHUNK = 512  # keys re-keyed at once under every ordering
_FLUSH = 4096  # pattern keys held before the census re-keys them


def _stride(size: int) -> int:
    """Bytes per key of size bytes: the least of 1, 2, 4 and 8 holding it,
    else whole 8-byte lanes."""
    return 1 << (size - 1).bit_length() if size <= 8 else -(-size // 8) * 8


def _lanes(keys: list[int], count: int) -> list:
    """Bits 64 j to 64 j + 63 of the keys for each lane j < count."""
    return [keys] if count == 1 else [[key >> 64 * j & 2 ** 64 - 1 for key in keys] for j in range(count)]


def _unlanes(lanes) -> list[int]:
    """_lanes undone."""
    return lanes[0] if len(lanes) == 1 else [sum(w << 64 * j for j, w in enumerate(ws)) for ws in zip(*lanes)]


def _pack(keys: list[int], stride: int) -> bytes:
    """The keys as native words, stride bytes each."""
    if stride <= 8:
        return array(_WORDS[stride], keys).tobytes()
    return array("Q", itertools.chain.from_iterable(zip(*_lanes(keys, stride // 8)))).tobytes()


def _ints(buf, stride: int) -> Iterator[int]:
    """The keys cast from native words, stride bytes each: _pack undone."""
    if stride <= 8:
        return memoryview(buf).cast(_WORDS[stride])
    words, count = memoryview(buf).cast("Q"), stride // 8
    return _unlanes([words[j::count] for j in range(count)])


def _orderings(same: tuple) -> Iterator[list[int]]:
    """Each distinct ordering of a nondecreasing tuple t with same[b] iff
    t_b == t_{b+1}, as sigma: slot a of the ordered tuple is slot sigma[a]
    of t, equal points in their order.  The slots' run labels step
    through their lexicographic next permutations, identity first.  When
    same[0] is None, slot 0 holds a root and never moves: only t_1 <= ..
    are ordered."""
    fixed = int(same[:1] == (None,))
    word = list(itertools.accumulate(map(operator.not_, same[fixed:]), initial=0))
    starts = [fixed + word.index(r) for r in range(word[-1] + 1)]
    while True:
        free, sigma = starts[:], list(range(fixed))
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


def _nondecreasing_counts(
    E: PointSet, k: int, width: int, root: int | None = None
) -> Iterator[dict[tuple, Counter]]:
    """Census keys, k >= 2, of the nondecreasing tuples t_0 <= .. <= t_k
    of E^{k+1} by point index, one Counter per equality pattern
    (_orderings), handed on after a prefix group once they hold _FLUSH.
    Given a root, the tuples are (root, t_1 <= .. <= t_k): slot 0 never
    moves, so each pattern starts with None, and the first u is 0 at k =
    2.  The tuples sharing (t_0 .. t_{k-2}), the last of them lo, form a
    block of keys for lo <= u <= v in one zeroed bytearray, one
    extended-slice assignment per key byte: the pairs u < v row by row,
    then u = v.  Of the P = k(k+1)/2 area slots, slot o fills bytes (P -
    1 - o) width on; the rest of the stride stays zero.  An area is fixed
    over the block, or repeated over v, or a table row from column u + 1
    on, or taken at u.  The first row (u = lo), the later rows and the
    diagonal are each counted by one Counter.update of the block cast to
    ints (_ints), so no key is an object before it is counted.

    The prefixes are grouped by the areas among them, which every key of
    their blocks holds, so two groups share no key and each distinct
    (pattern, key) is yielded once.  At k = 2 there is one group."""
    n = len(E)
    T = E.area_table
    # planes[b][x][y]: byte b of the area of (x, y); at width 1 the table
    planes = [T] if width == 1 else [[row[b::width] for row in T] for b in range(width)]
    # each key byte's pair (i, j) and plane, last pair first; t_inner = u and t_k = v
    sources = [(i, j, planes[b]) for i, j in reversed(pair_indices(k)) for b in range(width)]
    inner = k - 1
    among = [(i, j, plane) for i, j, plane in sources if j < inner]  # the areas of a prefix
    fixed = root is not None
    prefixes = itertools.combinations_with_replacement(range(n), k - 1 - fixed)
    groups: dict[bytes, list[tuple]] = defaultdict(list)
    for t in ((root, *c) for c in prefixes) if fixed else prefixes:
        groups[bytes([plane[t[i]][t[j]] for i, j, plane in among])].append(t)
    stride = _stride(len(sources))
    block = bytearray(n * (n + 1) // 2 * stride)
    view, tails = memoryview(block), [slice(u, None) for u in range(n + 1)]
    patterns: dict[tuple, Counter] = defaultdict(Counter)
    for group in groups.values():
        for t in group:
            lo = 0 if len(t) == fixed else t[-1]  # a lone root bounds no u
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
            same = tuple(map(operator.eq, t, t[1:]))
            first, rest = same + (True,), same + (False,)  # u == lo or not
            if fixed:  # slot 0 is compared with nothing
                first, rest = (None, *first[1:]), (None, *rest[1:])
            first_row, diagonal = (m - 1) * stride, (m - 1) * m // 2 * stride
            if first_row:
                patterns[first + (False,)].update(_ints(view[:first_row], stride))
            if diagonal > first_row:
                patterns[rest + (False,)].update(_ints(view[first_row:diagonal], stride))
            lo_key, *others = _ints(view[diagonal:end], stride)
            patterns[first + (True,)][lo_key] += 1
            if others:  # an empty pattern would still have its orderings listed
                patterns[rest + (True,)].update(others)
        if sum(map(len, patterns.values())) >= _FLUSH:
            yield patterns
            patterns = defaultdict(Counter)
    if patterns:
        yield patterns


class _Rekeyer:
    """Relabels the points of tuples of E^{k+1}, k >= 2, given by their
    census keys: that permutes a key's areas and negates some, so it maps
    classes to classes of the same size and level."""

    def __init__(self, spec: RingSpec, k: int):
        self.width = width = key_width(spec)
        pairs = pair_indices(k)
        self._slot = {pair: o * width for o, pair in enumerate(reversed(pairs))}
        self.stride = _stride(len(pairs) * width)
        if width == 1:
            table = bytes(map(spec.neg, spec.elements())).ljust(256, b"\0")
            self._negate = lambda keys: keys.translate(table)
        else:
            negs = list(map(spec.neg, spec.elements()))
            self._negate = lambda keys: _pack(map(negs.__getitem__, _ints(keys, width)), width)

    def rekey(self, keys: list[int], sigmas) -> list[list[int]]:
        """The keys of the tuples of keys reordered by each sigma, one list
        per sigma: slot (a, b) of the tuple ordered by sigma is slot
        (min(sigma a, sigma b), max(sigma a, sigma b)) of its key, negated
        when sigma a > sigma b, as y . x^perp = -x . y^perp: one
        extended-slice assignment per key byte from the packed keys or
        their negation, then one cast back.  A pad byte, the zero area,
        negates to itself."""
        width, stride, slot = self.width, self.stride, self._slot
        joined = _pack(keys, stride)
        negated, out = self._negate(joined), []
        for sigma in sigmas:
            if sigma == sorted(sigma):
                out.append(keys)
                continue
            ordered = bytearray(joined)
            for (a, b), o in slot.items():
                s, t = sigma[a], sigma[b]
                src, p = (joined, slot[s, t]) if s < t else (negated, slot[t, s])
                for c in range(width):
                    ordered[o + c :: stride] = src[p + c :: stride]
            out.append(list(_ints(ordered, stride)))
        return out


class ClassSizes:
    """The census of E^{k+1} as its size tally: tally[level][size] is the
    number of classes of that badness level with size tuples each."""

    def __init__(self):
        self.tally: dict[int, dict[int, int]] = {}

    def __len__(self) -> int:
        return sum(sum(sizes.values()) for sizes in self.tally.values())

    def values(self) -> Iterator[int]:
        """Each class's number of tuples."""
        runs = (itertools.repeat(size, n) for sizes in self.tally.values() for size, n in sizes.items())
        return itertools.chain.from_iterable(runs)


def signature_counts(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> ClassSizes:
    """The census of E^{k+1}: ClassSizes, its tally of classes by level
    and size.

    At k = 1 two pairs are equivalent exactly when their one area agrees,
    so the classes are read off E.area_counts, the nu histogram: one
    class per area t, of nu(t) tuples, at the level of t.  The kernel
    described next serves k >= 2.

    A key is an int whose digits, key_width bytes each, are the area
    indexes of configs.signature, the first most significant
    (_nondecreasing_counts keys the nondecreasing tuples).  Up to _CHUNK
    pattern keys K at a time are re-keyed (_Rekeyer) under the pattern's
    distinct orderings D (_orderings): K's orbit, whose least key is its
    rep.  The orbit gains count(K) |D| tuples and holds |D| / (orderings
    giving the rep) classes, whichever key reaches it; each distinct
    (pattern, key) is re-keyed once (on the plane, once per root).

    Each key leaves a record, appended to one of 256 bytearrays by the
    rep's lowest byte: its head, the orbit's classes (at most (k+1)!)
    above its rep, in native words, then the tuples it adds (at most
    n^{k+1}), big-endian.  Each bytearray is merged alone, one total per
    head: two records of a rep must agree on its classes, and its classes
    must share its tuples evenly, both checked.  Reordering keeps every
    valuation, so an orbit's level is its rep's (key_badness).  The
    charge is at least 2^{k+1}, which passes the k(k+1)/2 areas of a key,
    so a set of one point or none cannot ask for keys past its budget.

    On the whole plane the kernel runs once per root r of plane_orbits,
    over (r, t_1 <= .. <= t_k) only, each record's tuples multiplied by
    the size of r's SL_2 orbit: for x_0 = g r with g in SL_2, (x_0, ..,
    x_k) -> (g^{-1} x_0, .., g^{-1} x_k) maps the tuples that start at x_0
    one to one onto those that start at r and keeps every key (det g =
    1).  Slot 0 never moves, so a rep is least under the S_k relabelings
    of slots 1 .. k.  The charge stays max(n, 2)^{k+1}, which overcounts
    this rooted work."""
    n = len(E)
    check_k(k)
    check_power_budget(max(n, 2), k + 1, budget)
    counts = ClassSizes()
    if k == 1:  # the class of a pair is its area t: nu(t) tuples at the level of t
        for t, size in E.area_counts.items():
            sizes = counts.tally.setdefault(E.spec.valuation(t), {})
            sizes[size] = sizes.get(size, 0) + 1
        return counts
    rekeyer = _Rekeyer(E.spec, k)
    # a record: its head (the orbit's classes above the rep) in native words, then the tuples added
    top, repeat = 8 * len(pair_indices(k)) * rekeyer.width, itertools.repeat
    stride = _stride(top // 8 + (math.factorial(k + 1).bit_length() + 7) // 8)
    lanes, tail = max(1, stride // 8), ((n ** (k + 1)).bit_length() + 7) // 8
    record = struct.Struct(f"={lanes}{_WORDS[min(stride, 8)]}{tail}s")
    buckets = [bytearray() for _ in range(256)]
    # (root, its orbit's size) on the plane, else one run of every nondecreasing tuple
    runs = [(E.points.index(r), size) for r, size in plane_orbits(E.spec)] if E.is_plane() else [(None, 1)]
    batches = ((weight, patterns) for root, weight in runs
               for patterns in _nondecreasing_counts(E, k, rekeyer.width, root))
    for weight, patterns in batches:
        while patterns:
            same, pattern = patterns.popitem()
            sigmas = list(_orderings(same))
            keys, sizes = list(pattern), list(pattern.values())
            del pattern
            d = len(sigmas)
            # the classes, shifted above the rep, by how many orderings give the rep
            classes = [0, *(d // hits << top for hits in range(1, d + 1))]
            for c in range(0, len(keys), _CHUNK):
                rows = list(zip(*rekeyer.rekey(keys[c : c + _CHUNK], sigmas)))
                reps = list(map(min, rows))
                heads = list(map(operator.or_, reps, map(classes.__getitem__, map(tuple.count, rows, reps))))
                tuples = map(operator.mul, sizes[c : c + _CHUNK], repeat(d * weight))
                records = map(record.pack, *_lanes(heads, lanes), map(int.to_bytes, tuples, repeat(tail), repeat("big")))
                spread = map(buckets.__getitem__, map(operator.and_, reps, repeat(255)))
                deque(map(bytearray.extend, spread, records), maxlen=0)
                del rows, reps, heads, records  # before the next chunk is re-keyed
    classes_at: dict[tuple, int] = {}  # (level, class size) -> classes
    for bucket in filter(None, buckets):
        *words, tails = zip(*record.iter_unpack(bucket))
        bucket.clear()
        heads = list(_unlanes(words))
        weights = map(int.from_bytes, tails, repeat("big"))
        totals: dict[int, int] = {}  # head -> the orbit's tuples
        # update stores each total before it reads the next head's
        totals.update(zip(heads, map(operator.add, map(totals.get, heads, repeat(0)), weights)))
        del heads, words, tails
        reps = list(map(operator.and_, totals, repeat((1 << top) - 1)))
        if len(set(reps)) < len(reps):
            raise ArithmeticError("two records of one orbit disagree on its number of classes")
        orbits = list(map(operator.rshift, totals, repeat(top)))
        tuples = list(totals.values())
        if any(map(operator.mod, tuples, orbits)):
            raise ArithmeticError("the classes of an orbit do not split its tuples evenly")
        tags = list(zip(key_badness(E.spec, reps), map(operator.floordiv, tuples, orbits)))
        classes_at.update(zip(tags, map(operator.add, map(classes_at.get, tags, repeat(0)), orbits)))
    for (level, size), classes in classes_at.items():
        counts.tally.setdefault(level, {})[size] = classes
    return counts


def key_badness(spec: RingSpec, keys) -> list[int]:
    """The badness levels of census keys, in key order: the least
    valuation of a key's areas, read through the ring's table from the
    keys packed at the widest one's stride.  A zero pad, the zero area,
    is at the top level."""
    width, vals, keys = key_width(spec), _valuation_codes(spec), list(keys)
    stride = _stride(max(width, (max(keys, default=0).bit_length() + 7) // 8))
    packed = _pack(keys, stride)
    levels = packed.translate(vals) if width == 1 else bytes(map(vals.__getitem__, _ints(packed, width)))
    per = stride // width
    return list(map(min, *(levels[a::per] for a in range(per)))) if per > 1 else list(levels)


@functools.lru_cache(maxsize=1)
def _valuation_codes(spec: RingSpec) -> bytes:
    """key_badness's valuations by area index, a translate table at one
    byte per area; kept for the census's next bucket."""
    return bytes(map(spec.valuation, spec.elements())).ljust(256, b"\0")


class CensusReport(NamedTuple):
    """The census of E^{k+1}.  Unreported: class_sizes, the ClassSizes
    that signature_counts gives, whose size_tally (level -> {class size ->
    classes}) gives the per-level counts and the composite checks' class
    statistics."""

    spec: RingSpec
    k: int
    set_size: int
    total_tuples: int
    tuples_by_level: dict[int, int]
    classes_by_level: dict[int, int]
    total_classes: int
    class_sizes: ClassSizes

    @property
    def size_tally(self) -> dict[int, dict[int, int]]:
        return self.class_sizes.tally

    def equivalent_good_pairs(self) -> int:
        """#{(x, y) : x ~ y, both good} = sum of |class|^2 over good classes."""
        return sum(size * size * n for size, n in self.size_tally.get(0, {}).items())


def count_classes(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Exact census of distinct area signatures over E^{k+1}, split by
    badness level (a class invariant), read from the size tally of
    signature_counts."""
    counts = signature_counts(E, k, budget)
    tally = counts.tally
    return CensusReport(
        spec=E.spec,
        k=k,
        set_size=len(E),
        total_tuples=len(E) ** (k + 1),
        tuples_by_level={m: sum(size * n for size, n in t.items()) for m, t in tally.items()},
        classes_by_level={m: sum(t.values()) for m, t in tally.items()},
        total_classes=len(counts),
        class_sizes=counts,
    )


def plane_closed_forms(census: CensusReport) -> dict[str, bool]:
    """Named conditions on the census of the whole plane R^2 at k, each a
    closed form in q, p, l and k compared with the size tally alone.  Over
    F_q read p^l as q (l = 1, the top level).

    - Every k: each good class is one free SL_2 orbit (lemma 2.2), so
      size_tally[0] is {|SL_2|: good classes}.  The top level, every area
      0, is one class.
    - F_q, every k: a tuple is bad when all its points lie on one of the q
      + 1 lines through 0, which share only 0.  So N = (q + 1)(q^{k+1} -
      1) + 1 tuples are bad, in that one class, and the other q^{2(k+1)}
      - N tuples fill good classes of q(q^2 - 1) = |SL_2| each.
    - k <= 2: every tuple of n = k(k+1)/2 areas is realized, so the
      classes at level m < l number the area tuples whose least valuation
      is m: p^{n(l - m)} - p^{n(l - m - 1)}, as p^{l - m} elements have
      valuation >= m.  At k = 1 the pair ((1, 0), (0, a)) has area a.  At
      k = 2, write the areas (a, b, c) of (x_0 x_1, x_0 x_2, x_1 x_2) as
      p^m (a', b', c') with a' a unit; then (1, 0), (0, p^m a'), (-c'/a',
      p^m b') has them, as perp_dot(x, y) = x_1 y_2 - x_2 y_1.  When a' is
      not a unit, relabel: swapping x_1 and x_2 gives the areas (b, a,
      -c), swapping x_0 and x_2 gives (-c, -b, -a), so one of the two
      puts the unit first."""
    spec, k, tally = census.spec, census.k, census.size_tally
    q, top = spec.size(), spec.max_level
    p = q if top == 1 else spec.p
    classes = [sum(tally.get(m, {}).values()) for m in range(top + 1)]
    conditions = {
        "size_tally[0] == {|SL_2|: good classes}": list(tally.get(0, {})) == [sl2_order(spec)],
        "top level is one class": classes[top] == 1,
    }
    if top == 1:
        bad = (q + 1) * (q ** (k + 1) - 1) + 1
        conditions["size_tally[1] == {(q+1)(q^(k+1) - 1) + 1: 1}"] = tally.get(1) == {bad: 1}
        conditions["good classes == (q^(2(k+1)) - (q+1)(q^(k+1) - 1) - 1) / (q^3 - q)"] = (
            classes[0] * sl2_order(spec) == q ** (2 * k + 2) - bad)
    if k <= 2:
        n = k * (k + 1) // 2
        for m in range(top):
            conditions[f"classes at level {m} == p^(n(l - {m})) - p^(n(l - {m} - 1))"] = (
                classes[m] == p ** (n * (top - m)) - p ** (n * (top - m - 1)))
    return conditions


def count_bad_tuples(E: PointSet, k: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Tuple counts per badness level, read from the census (fast route;
    see count_bad_tuples_naive for the oracle)."""
    return dict(count_classes(E, k, budget).tuples_by_level)


def bad_tuple_shape(spec: RingSpec, k: int, set_size: int, m: int) -> int:
    """The shape of the bound on the number of tuples of E^{k+1} at
    badness level m >= 1: p^{(2l - m)(k + 1) + m} over Z/p^l Z and q^k |E|
    over F_q."""
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
    check_k(k)
    check_power_budget(n, k + 1, budget)
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


class NuHistogram(NamedTuple):
    spec: RingSpec
    counts: dict  # ring element -> number of ordered pairs with that area

    def total(self) -> int:
        return sum(self.counts.values())


def nu_histogram(E: PointSet, budget: int = DEFAULT_BUDGET) -> NuHistogram:
    """nu(t) = #{(x, y) in E x E : x . y^perp = t}; sums to |E|^2.  A copy
    of E.area_counts, charged |E|^2 before any area row."""
    check_budget(len(E) ** 2, budget)
    return NuHistogram(E.spec, dict(E.area_counts))


class FProfile(NamedTuple):
    """f(g) = #{x in E : gx in E} for each g, in enumerate_sl2 order."""

    values: tuple[int, ...]

    def sum_power(self, exp: int) -> int:
        return sum(v ** exp for v in self.values)


def f_profile(E: PointSet, budget: int = DEFAULT_BUDGET) -> FProfile:
    """f(g) = #{x in E : gx in E} for every g, one AND and one popcount
    each, a block of g sharing their top row at a time (sl2_blocks).

    Point x_i of E owns field i of a bitset: whole bytes, one bit per
    element.  A row r of g sends x_i to u_i = r . x_i; top(r) sets every
    v with (u_i, v) in E in field i, and bottom(r) sets bit u_i of field
    i.  So for g with rows r and s, top(r) & bottom(s) has one bit for
    each x_i with g x_i in E.  As r . x = perp_dot(r, (-x_2, x_1)), one
    perp_rows call against the turned points gives the images under every
    row r = (c, d) of the plane, at index c q + d.  bottom(r) is kept for
    every row; top(r) is made once, for the block with top row r."""
    spec = E.spec
    check_budget(sl2_order(spec) * max(1, len(E)), budget)
    q, points = spec.size(), E.points
    # the checked ring ops read every point before columns indexes one
    turned = [(spec.neg(x2), x1) for x1, x2 in points]
    images = list(spec.perp_rows(list(full_plane_points(spec)), turned))
    field_bytes = (q + 7) // 8
    columns = [0] * q  # columns[u]: bit v set iff (u, v) in E
    for u, v in points:
        columns[u] |= 1 << v
    tops = [c.to_bytes(field_bytes, "little") for c in columns]
    bottoms = [(1 << u).to_bytes(field_bytes, "little") for u in range(q)]
    bottom_bits = [int.from_bytes(b"".join(map(bottoms.__getitem__, row)), "little") for row in images]
    by_row = [bottom_bits[c * q : c * q + q] for c in range(q)]  # by_row[c][d]: bottom((c, d))
    values: list[int] = []
    for a, b, cs, ds in sl2_blocks(spec):
        top = int.from_bytes(b"".join(map(tops.__getitem__, images[a * q + b])), "little")
        values += map(int.bit_count, map(top.__and__, map(operator.getitem, map(by_row.__getitem__, cs), ds)))
    return FProfile(tuple(values))


def moments(values) -> tuple:
    """The moment data of the lifting lemma for a nonempty table of
    nonnegative values (ints or Fractions), as (sum, A, M, R): the sum,
    the mean A, the max M and R = sum v^2 - A^2 |S| (= sum (v - A)^2,
    hence nonnegative), where |S| is the table's size."""
    vals = list(values)
    if not vals:
        raise ValueError("the table must be nonempty")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    total, size = sum(vals), len(vals)
    mean = Fraction(total) / size
    return total, mean, max(vals), sum(v * v for v in vals) - mean * mean * size


def moment_lift_check(values, k: int) -> Checked:
    """Exact check of the lifting inequality
    sum F^{k+1} <= c_k (M^{k-1} R + A^{k+1} |S|) with c_k = 2^{k^2},
    for any finite table of nonnegative values (ints or Fractions), as
    (values, conditions), with A, M and R from moments.  The sums are
    taken over the values as given, one Fraction made per sum."""
    vals = list(values)
    _, mean, maximum, excess = moments(vals)
    check_k(k)
    c_k = 2 ** (k * k)
    lhs = Fraction(sum(v ** (k + 1) for v in vals))
    rhs = c_k * (maximum ** (k - 1) * excess + mean ** (k + 1) * len(vals))
    values = {"c_k": c_k, "lhs": lhs, "rhs": rhs, "mean": mean, "max": maximum, "excess": excess}
    return values, {"lhs <= rhs": lhs <= rhs, "excess >= 0": excess >= 0}


def designated_orbit(spec: RingSpec) -> list[Vec2]:
    """The transitive SL_2 orbit used by the counting lemma: the orbit of
    (1, 0), which is the vectors with a unit coordinate (over a field, the
    nonzero vectors).  Only transitivity_constant lists it."""
    unit = spec.is_unit
    return [x for x in full_plane_points(spec) if unit(x[0]) or unit(x[1])]


def transitivity_constant(spec: RingSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Verifies phi(x, y) = #{g : gx = y} is the same for every pair of
    the designated orbit X and returns that value, phi(x_0, x_0) for the
    first x_0 of X.  On correct code it is |G| / |X|, which is q, the
    size of the stabilizer of (1, 0) (sl2_order); it is not assumed, so
    lemma-4.1's phi * |X| == |G| can fail.

    The group is listed once, as the indexes c q + d of its rows (c, d).
    For each x, one perp_rows row gives r . x = perp_dot((x_2, -x_1), r)
    for every row r of the plane, as f_profile reads it; g x is then
    the code (r . x) q + (s . x) for g with rows r and s.  One Counter of
    the codes of every g is read at each y of X in order, so the first
    pair that differs is named, and an image outside X is never read.
    Memory is O(q^2 + |G|) at a time.  |G| |X| is charged exactly before
    X is listed, with |X| from orbit_size."""
    q = spec.size()
    check_budget(sl2_order(spec) * orbit_size(spec, 0), budget)
    X = designated_orbit(spec)
    plane = list(full_plane_points(spec))
    tops, bottoms = [], []
    for a, b, c, d in enumerate_sl2(spec):
        tops.append(a * q + b)
        bottoms.append(c * q + d)
    codes = [u * q + v for u, v in X]
    turned = [(x2, spec.neg(x1)) for x1, x2 in X]
    first = None
    for x, images in zip(X, spec.perp_rows(turned, plane)):
        scaled = [u * q for u in images]
        phi = Counter(map(operator.add, map(scaled.__getitem__, tops), map(images.__getitem__, bottoms)))
        first = phi[codes[0]] if first is None else first
        for y, count in zip(X, map(phi.__getitem__, codes)):
            if count != first:
                raise NotTransitive((x, y))
    return first


def flemma_check(census: CensusReport, profile: FProfile) -> Checked:
    """Both exact inequalities behind the class-count lower bound:
    |G|^2 <= (#good classes) * #{(x, y) in G x G : x ~ y}  and
    #{(x, y) in G x G : x ~ y} <= sum_g f(g)^{k+1},
    where G is the set of good tuples of E^{k+1}, read from the census
    of E at k and the f profile of E.  The values repeat both conditions."""
    good_tuples = census.tuples_by_level.get(0, 0)
    good_classes = census.classes_by_level.get(0, 0)
    eq_pairs = census.equivalent_good_pairs()
    f_power_sum = profile.sum_power(census.k + 1)
    conditions = {
        "cauchy_schwarz_ok": good_tuples ** 2 <= good_classes * eq_pairs,
        "f_bound_ok": eq_pairs <= f_power_sum,
    }
    values = {"good_tuples": good_tuples, "good_classes": good_classes,
              "equivalent_good_pairs": eq_pairs, "f_power_sum": f_power_sum}
    return {**values, **conditions}, conditions


def group_moves(E: PointSet, group: list) -> list[list[tuple[int, int]]]:
    """moves[i] lists, in ascending j, the pairs (j, mask) with a nonzero
    mask, where bit b of mask is set iff group[b] sends point x_i of E to
    point x_j, from len(group) checked apply_mat calls per point.  Each
    point's hits set bits of one bytearray per target it reaches, read as
    an int once, so no mask is built for a target the point never reaches."""
    points, apply = E.points, E.spec.apply_mat
    index = {x: j for j, x in enumerate(points)}
    size = (len(group) + 7) // 8
    moves = []
    for x in points:
        hits: dict[int, bytearray] = {}
        for b, j in enumerate(map(index.get, map(apply, group, itertools.repeat(x)))):
            if j is not None:
                hits.setdefault(j, bytearray(size))[b >> 3] |= 1 << (b & 7)
        moves.append([(j, int.from_bytes(bits, "little")) for j, bits in sorted(hits.items())])
    return moves


def tuple_moves(moves: list, idx: tuple) -> list:
    """The images of the points of E at indexes idx under the group, as
    (js, mask) with mask's bit b set iff group[b] sends point idx[s] to
    point js[s] for every slot s: a walk over image prefixes, one AND per
    slot, where moves is group_moves(E, group) and only nonzero masks
    are kept.  SL_2 keeps areas, so every image is in the class of the
    tuple; js ascend."""
    walk = [((), -1)]  # the empty prefix: every group element
    for i in idx:
        walk = [(js + (j,), both) for js, mask in walk for j, m in moves[i] if (both := mask & m)]
    return walk


def moment_identity_check(E: PointSet, profile: FProfile, budget: int = DEFAULT_BUDGET) -> Checked:
    """Exact identity sum_g f(g)^2 = sum over quadruples (x1,x2,y1,y2) of
    #{g : gx1 = y1, gx2 = y2}, with the left side read from the f profile
    of E and the right side counted source pair by source pair, as the
    popcounts over the tuple_moves walk of (x1, x2) (group_moves, built
    from apply_mat), and decomposed into the part where (x1, x2) has unit
    area a (each matched quadruple, one of the nu(a) target pairs of area
    a, contributes exactly one g) and the remaining non-unit-area part.
    The areas and nu come from the check's own perp_rows table, not from
    E's area table, and the matched quadruples are counted for the third
    condition only.  The charge max(n^4, |SL_2| n^2) covers the at most
    n^4 second-slot ANDs of the walks and the images of group_moves."""
    spec, n = E.spec, len(E)
    check_budget(max(n ** 4, sl2_order(spec) * n * n), budget)
    moves = group_moves(E, list(enumerate_sl2(spec)))
    lhs = profile.sum_power(2)
    areas = list(spec.perp_rows(E.points, E.points))
    nu = Counter(itertools.chain.from_iterable(areas))
    units = set(filter(spec.is_unit, nu))
    stabilizer_sum = matched_part = collinear_part = matched_quads = 0
    unique_on_good = True
    for i1, row in enumerate(areas):
        for i2, a in enumerate(row):
            walk = tuple_moves(moves, (i1, i2))
            c = sum(mask.bit_count() for _, mask in walk)
            stabilizer_sum += c
            if a in units:
                matched_part += c
                matched_quads += nu[a]
                # each of the nu(a) target pairs of area a needs exactly one g
                single = sum(areas[j1][j2] == a and mask.bit_count() == 1 for (j1, j2), mask in walk)
                unique_on_good = unique_on_good and single == nu[a]
            else:
                collinear_part += c
    values = {"f_square_sum": lhs, "stabilizer_sum": stabilizer_sum, "matched_part": matched_part,
              "collinear_part": collinear_part, "unique_on_good": unique_on_good}
    return values, {
        "f_square_sum == stabilizer_sum": lhs == stabilizer_sum,
        "unique_on_good": unique_on_good,
        "matched_part == matched_quadruples": matched_part == matched_quads,
    }


def mbad_class_size_check(census: CensusReport) -> Checked:
    """From the census of the full plane over Z/p^l Z: good classes carry
    a free SL_2 action (size exactly |SL_2|, count x order = tuple
    count), and every m-bad class has at least p^{3l - 2m} members;
    per-m class counts are compared against the shape
    p^{l(2k-1) + (2-k)m} with the constant reported, one dict per level
    m that has a class.  Each condition is named by its value and m."""
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
    levels, conditions = [], {"good_free_action_ok": good_free}
    for m in range(1, ell + 1):
        tally = census.size_tally.get(m)
        if not tally:
            continue
        class_count, min_size = sum(tally.values()), min(tally)
        size_bound = p ** (3 * ell - 2 * m)
        shape = p ** (ell * (2 * k - 1) + (2 - k) * m)
        constant, size_ok = Fraction(class_count) / shape, min_size >= size_bound
        levels.append({
            "m": m, "class_count": class_count, "tuple_count": census.tuples_by_level[m],
            "min_class_size": min_size, "size_bound": size_bound, "count_shape": shape,
            "count_constant": constant, "size_ok": size_ok,
        })
        conditions[f"levels[m={m}].size_ok"] = size_ok
        conditions[f"levels[m={m}].count_constant <= 4"] = constant <= 4
    values = {"good_classes": good_classes, "good_tuples": good_tuples, "group_order": order,
              "good_free_action_ok": good_free, "levels": levels}
    return values, conditions


def good_class_members(
    E: PointSet, k: int, budget: int = DEFAULT_BUDGET
) -> dict[tuple, list[tuple]]:
    """Good tuples of E^{k+1} grouped by their signature's areas, built
    tuple by tuple through configs.signature: the tests' reference
    grouping, which no check uses.  Memory is the number of good tuples,
    so keep to small instances.  The charge is at least 2^{k+1}, as the
    census's is, since each tuple's signature holds k(k+1)/2 areas."""
    check_k(k)
    check_power_budget(max(len(E), 2), k + 1, budget)
    spec = E.spec
    out: dict[tuple, list[tuple]] = {}
    for t in itertools.product(E.points, repeat=k + 1):
        areas = signature(spec, t)
        if any(spec.is_unit(a) for a in areas):
            out.setdefault(areas, []).append(t)
    return out


def full_plane_points(spec: RingSpec) -> Iterator[Vec2]:
    for a in spec.elements():
        for b in spec.elements():
            yield (a, b)
