"""Command-line front end: declarative experiments (`areal run`),
threshold sweeps (`areal sweep`), and the canonical verification matrix
(`areal verify-all`).

Reports carry every exact count as a decimal string and are byte
identical across runs.  Exit codes: 0 all checks pass,
1 a check failed, 2 invalid configuration, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import census as cn
from . import constructions as cons
# cli calls no apply_config; perfbench's traced matrix run patches cli.apply_config
from .configs import NotEquivalent, apply_config, recovery
from .linalg import enumerate_sl2, identity, orbit_size, sl2_order
from .rings import ModPrimePower, RingSpec, checked_int, prime_field, ring_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class InvalidConfig(Exception):
    pass


class _Echo(NamedTuple):
    """A config value that a report repeats as the config spelled it."""

    value: object


def _too_many_digits() -> InvalidConfig:
    limit = sys.get_int_max_str_digits()
    return InvalidConfig(f"a report value has more than {limit} decimal digits")


def _report_json(value):
    """The one spelling of report values: bools and strings stay, ints
    and Fractions become decimal strings, lists and dicts recurse (dict
    keys through str), and an _Echo is written as the config spelled it.
    A number past the interpreter's limit on decimal digits cannot be
    reported, so the config is refused."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        try:
            return str(value)
        except ValueError:  # past the interpreter's limit on decimal digits
            raise _too_many_digits() from None
    if isinstance(value, _Echo):
        return value.value
    if isinstance(value, list):
        return [_report_json(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _report_json(v) for key, v in value.items()}
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def _json_object(obj: dict, key: str, default: dict) -> dict:
    value = obj.get(key, default)
    if not isinstance(value, dict):
        raise InvalidConfig(f"{key} must be a JSON object, got {value!r}")
    return value


def _json_int(obj: dict, key: str, default: int) -> int:
    try:
        return checked_int(obj.get(key, default), key)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc


def _budget_huge_modulus(ring, budget: int) -> None:
    """Refuse, before p^ell is built, a valid mod-prime-power ring whose
    q^2 = p^(2 ell) passes the budget (already checked > 0) for certain:
    once q^2 >= 2^budget.bit_length() > budget follows from bit lengths
    (cn.power_reaches), q^2 is charged through cn.check_power_budget,
    which gives the exact charge when it is cheap to build and that power
    of two as a lower bound when it is not.  point_set would refuse the
    plane after building q."""
    if not isinstance(ring, dict) or ring.get("family") != "mod-prime-power":
        return
    p, ell = ring.get("p"), ring.get("ell")
    if type(p) is type(ell) is int and ell >= 1 and cn.power_reaches(p, 2 * ell, budget.bit_length()):
        prime_field(p)  # refuses a p that is not an odd prime
        cn.check_power_budget(p, 2 * ell, budget)


class ExperimentConfig(NamedTuple):
    spec: RingSpec
    construction: dict
    k: int
    checks: list[str]
    budget: int
    output: str | None = None
    fmt: str = "json"

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object, checked field by field here and
        nowhere else.  k, the checks and the budget are checked before the
        ring is read, so an invalid one is refused before any ring work,
        however large its modulus."""
        if not isinstance(obj, dict):
            raise InvalidConfig("experiment config must be a JSON object")
        checks = obj.get("checks", [])
        if not isinstance(checks, list):
            raise InvalidConfig(f"checks must be a list, got {checks!r}")
        k, budget = _json_int(obj, "k", 1), _json_int(obj, "budget", cn.DEFAULT_BUDGET)
        if k < 1:
            raise InvalidConfig("k must be >= 1")
        if not checks:
            raise InvalidConfig("checks must be nonempty")
        for c in checks:
            if c not in CHECK_NAMES:
                raise InvalidConfig(f"unknown check {c!r}")
        if budget <= 0:
            raise InvalidConfig("budget must be > 0")
        try:
            _budget_huge_modulus(obj["ring"], budget)
            spec = ring_from_json(obj["ring"])
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidConfig(f"bad ring spec: {exc}") from exc
        out = _json_object(obj, "output", {})
        path, fmt = out.get("path"), out.get("format", "json")
        if path is not None and not isinstance(path, str):
            raise InvalidConfig(f"output path must be a string, got {path!r}")
        construction = _json_object(obj, "construction", {"kind": "full-plane"})
        if fmt not in ("json", "csv"):
            raise InvalidConfig(f"unknown output format {fmt!r}")
        if "theorem-6.1" in checks and not isinstance(spec, ModPrimePower):
            raise InvalidConfig("theorem-6.1 requires a mod-prime-power ring")
        circles = ("circle", "union-circles", "mod-sharpness")
        if "sharpness" in checks and construction.get("kind") not in circles:
            raise InvalidConfig("sharpness requires a circle or mod-sharpness construction")
        return cls(spec=spec, construction=construction, k=k, checks=list(checks),
                   budget=budget, output=path, fmt=fmt)

    def point_set(self) -> cn.PointSet:
        """The construction's points.  A construction scans up to the
        q^2 points of the plane, so q^2 is budgeted before it runs;
        random-subset draws its points without a scan but is charged the
        same q^2, so no exit code depends on the kind."""
        cn.check_budget(self.spec.size() ** 2, self.budget)
        try:
            return cons.construction_from_json(self.spec, self.construction)
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidConfig(f"bad construction: {exc}") from exc


class Memo:
    """What one command builds and counts, each at most once and only when
    a check first reads it: the point set of every (ring, construction),
    the census of every (ring, points, k) and the f profile of every (ring,
    points).  Every read is asked by config; a census or profile reads the
    point set first and is built under cfg.budget, which every config of
    one command shares.  Two rings can share points (the F_9 and Z/9Z
    planes), so the ring is in every key; a construction is keyed by its
    canonical JSON, a string, and points by a tuple, so the keys of one
    dict never meet.  A census is kept as count_classes returns it: a size
    tally per level."""

    def __init__(self):
        self._built: dict = {}

    def _get(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def points(self, cfg: ExperimentConfig) -> cn.PointSet:
        return self._get((cfg.spec, json.dumps(cfg.construction, sort_keys=True)), cfg.point_set)

    def census(self, cfg: ExperimentConfig) -> cn.CensusReport:
        E = self.points(cfg)
        return self._get((E.spec, E.points, cfg.k), lambda: cn.count_classes(E, cfg.k, cfg.budget))

    def profile(self, cfg: ExperimentConfig) -> cn.FProfile:
        E = self.points(cfg)
        return self._get((E.spec, E.points), lambda: cn.f_profile(E, cfg.budget))


# ---------------------------------------------------------------------------
# Individual checks.  Each takes the experiment's config and memo, asks
# the memo by config for what it reads (the point set first, before any
# charge of its own; lemma-4.1 and lemma-4.2 read only the ring,
# theorem-6.1 only the plane), and returns (values, conditions): every
# exact quantity it computed, and its named boolean conditions (the
# census engines' checkers return the same pair).  run_experiment alone
# sets each report's verdict from the conditions and spells the values
# through _report_json.

Checked = cn.Checked


def _check_lemma_4_2(cfg: ExperimentConfig, memo: Memo) -> Checked:
    order = sl2_order(cfg.spec)
    cn.check_budget(order, cfg.budget)
    enumerated = sum(1 for _ in enumerate_sl2(cfg.spec))
    return {"formula": order, "enumerated": enumerated}, {"formula == enumerated": order == enumerated}


def _check_lemma_4_1(cfg: ExperimentConfig, memo: Memo) -> Checked:
    spec = cfg.spec
    try:
        phi = cn.transitivity_constant(spec, cfg.budget)
    except cn.NotTransitive as exc:
        return {"counterexample": repr(exc.pair)}, {"transitive": False}
    order, size = sl2_order(spec), orbit_size(spec, 0)
    values = {"phi": phi, "group_order": order, "orbit_size": size}
    return values, {"phi * orbit_size == group_order": phi * size == order}


def _check_census(cfg: ExperimentConfig, memo: Memo) -> Checked:
    """The census's own sums, and on the whole plane its closed forms
    (cn.plane_closed_forms)."""
    report = memo.census(cfg)
    classes = report.classes_by_level.values()
    conditions = {
        "tuples_by_level sums to total_tuples": sum(report.tuples_by_level.values()) == report.total_tuples,
        "classes_by_level sums to total_classes": sum(classes) == report.total_classes,
        "every level has a class": all(c >= 1 for c in classes),
    }
    if memo.points(cfg).is_plane():
        conditions.update(cn.plane_closed_forms(report))
    return {
        "ring": _Echo(cfg.spec.to_json()), "k": _Echo(cfg.k), "set_size": report.set_size,
        "total_tuples": report.total_tuples, "tuples_by_level": report.tuples_by_level,
        "classes_by_level": report.classes_by_level, "total_classes": report.total_classes,
    }, conditions


def _check_nu(cfg: ExperimentConfig, memo: Memo) -> Checked:
    E = memo.points(cfg)
    hist = cn.nu_histogram(E, cfg.budget)
    element_json = cfg.spec.element_to_json
    total, expected = hist.total(), len(E) ** 2
    return {
        "histogram": {json.dumps(element_json(t)): c for t, c in hist.counts.items()},
        "total": total,
        "expected_total": expected,
    }, {"total == expected_total": total == expected}


def _check_f_moments(cfg: ExperimentConfig, memo: Memo) -> Checked:
    spec, E = cfg.spec, memo.points(cfg)
    prof = memo.profile(cfg)
    ident = identity(spec)
    f_identity = next(
        v for g, v in zip(enumerate_sl2(spec), prof.values) if g == ident
    )
    sum_f, mean, maximum, excess = cn.moments(prof.values)
    conditions = {
        "f_identity == set_size": f_identity == len(E),
        "max <= set_size": maximum <= len(E),
        "excess >= 0": excess >= 0,
    }
    out = {
        "f_identity": f_identity,
        "set_size": len(E),
        "sum_f": sum_f,
        "mean": mean,
        "max": maximum,
        "excess": excess,
    }
    if all(spec.is_unit(a) or spec.is_unit(b) for a, b in E.points):  # E lies in the orbit X
        orbit_sum = sum_f * orbit_size(spec, 0)
        expected = sl2_order(spec) * len(E) ** 2
        conditions["sum_f_times_orbit == order_times_size_sq"] = orbit_sum == expected
        out["sum_f_times_orbit"] = orbit_sum
        out["order_times_size_sq"] = expected
    try:
        out["moment_identity"], parts = cn.moment_identity_check(E, prof, cfg.budget)
        conditions.update({f"moment_identity.{name}": holds for name, holds in parts.items()})
    except cn.BudgetExceeded:
        out["moment_identity"] = "skipped: budget"
    return out, conditions


def _check_lemma_2_2(cfg: ExperimentConfig, memo: Memo) -> Checked:
    """Every pair of equivalent good tuples is related by exactly one
    group element, found both by the move bitsets and by recover_g.  Each
    tuple xs of E^{k+1}, in product order, gets one recovery, which is
    None when xs is bad; for a good xs the walk cn.tuple_moves over the
    nonzero masks of cn.group_moves gives its images ys, each with the
    elements that send xs to it, and a pair passes when its mask has
    exactly one bit and that element is the recovery's g for ys.  The
    check stops at the first pair that does not.  A good class of c tuples
    yields at most c^2 pairs, so every equivalent pair was reached only
    when the pairs checked reach the census's sum of c^2.  The walk and
    the |SL_2| |E| images of group_moves are charged together, as |SL_2|
    times the larger of that sum and |E|, before the group is enumerated;
    without a good tuple neither runs, and nothing is charged."""
    spec, E = cfg.spec, memo.points(cfg)
    points, census = E.points, memo.census(cfg)
    equivalent_pairs = census.equivalent_good_pairs()
    images = sl2_order(spec) * max(len(E), equivalent_pairs) if equivalent_pairs else 0
    cn.check_budget(images, cfg.budget)
    group = list(enumerate_sl2(spec)) if equivalent_pairs else []
    moves = cn.group_moves(E, group)
    recoveries = zip(
        itertools.product(range(len(points)), repeat=cfg.k + 1),
        map(recovery, itertools.repeat(spec), itertools.product(points, repeat=cfg.k + 1)),
    )
    scan = (
        (recover, js, mask)
        for idx, recover in recoveries
        if recover is not None
        for js, mask in cn.tuple_moves(moves, idx)
    )
    pairs_checked, matched = 0, True
    for recover, js, mask in scan:
        try:
            g = recover(tuple(map(points.__getitem__, js)))
            matched = mask & (mask - 1) == 0 and group[mask.bit_length() - 1] == g
        except NotEquivalent:
            matched = False
        if not matched:
            break
        pairs_checked += 1
    report = {"good_classes": census.classes_by_level.get(0, 0), "pairs_checked": pairs_checked}
    return report, {
        "scan matches recover_g": matched,
        "pairs_checked == equivalent_good_pairs": pairs_checked == equivalent_pairs,
    }


def _check_lemma_2_3(cfg: ExperimentConfig, memo: Memo) -> Checked:
    spec, E, k = cfg.spec, memo.points(cfg), cfg.k
    fast = memo.census(cfg).tuples_by_level
    oracle = cn.count_bad_tuples_naive(E, k, cfg.budget)
    bad_total = sum(c for m, c in fast.items() if m >= 1)
    level_shapes = {
        m: cn.bad_tuple_shape(spec, k, len(E), m) for m in range(1, spec.max_level + 1)
    }
    # an empty set has shape 0 over a field, and no bad tuple to bound
    level_constants = {
        m: Fraction(fast.get(m, 0), s) if s else Fraction(0)
        for m, s in level_shapes.items()
    }
    shape = level_shapes[1]
    constant = Fraction(bad_total, shape) if shape else Fraction(0)
    conditions = {"fast == oracle": fast == oracle, "constant <= 4": constant <= 4}
    conditions.update({f"level_constants[{m}] <= 4": c <= 4 for m, c in level_constants.items()})
    report = {
        "counts_by_level": fast,
        "oracle_by_level": oracle,
        "bad_total": bad_total,
        "bound_shape": shape,
        "constant": constant,
        "level_constants": level_constants,
    }
    return report, conditions


def _check_lemma_2_4(cfg: ExperimentConfig, memo: Memo) -> Checked:
    return cn.flemma_check(memo.census(cfg), memo.profile(cfg))


def _check_lemma_3_1(cfg: ExperimentConfig, memo: Memo) -> Checked:
    memo.points(cfg)  # a malformed construction is refused before the k^2 charge
    # c_k = 2^{k^2} is a k^2-bit integer: k^2 is charged, and a c_k past
    # the limit on decimal digits is refused, before it is built
    cn.check_budget(cfg.k ** 2, cfg.budget)
    limit = sys.get_int_max_str_digits()
    if limit and cfg.k ** 2 >= (10 ** limit).bit_length():
        raise _too_many_digits()
    return cn.moment_lift_check(memo.profile(cfg).values, cfg.k)


def _check_theorem_6_1(cfg: ExperimentConfig, memo: Memo) -> Checked:
    return cn.mbad_class_size_check(memo.census(cfg._replace(construction=FULL)))


def rotation_orbits(E: cn.PointSet, rotations, budget: int) -> tuple[bool, int]:
    """Whether E holds the orbit of each of its points under a list of
    matrices, and the least such orbit, which is the smallest orbit of a
    tuple of E^{k+1} for every k (0 when E is empty): the tuple (x, .., x)
    has the orbit of x, and a tuple's orbit maps onto the orbit of its
    first point.  The |E| |rotations| applications are charged before the
    first, and one point's orbit is held at a time."""
    cn.check_budget(len(E) * len(rotations), budget)
    apply, closed, sizes = E.spec.apply_mat, True, []
    for x in E.points:
        orbit = set(map(apply, rotations, itertools.repeat(x)))
        closed = closed and orbit <= E.members
        sizes.append(len(orbit))
    return closed, min(sizes, default=0)


def _check_sharpness(cfg: ExperimentConfig, memo: Memo) -> Checked:
    spec, E, kind = cfg.spec, memo.points(cfg), cfg.construction.get("kind")
    report = memo.census(cfg)
    bad_tuples = sum(c for m, c in report.tuples_by_level.items() if m >= 1)
    out = {
        "kind": kind,
        "set_size": len(E),
        "total_tuples": report.total_tuples,
        "bad_tuples": bad_tuples,
        "total_classes": report.total_classes,
    }
    if kind == "mod-sharpness":
        expected_size = spec.p ** (2 * spec.ell - 1)
        out["expected_size"] = expected_size
        return out, {
            "set_size == expected_size": len(E) == expected_size,
            "bad_tuples == total_tuples": bad_tuples == report.total_tuples,
        }
    rotations = cons.rotation_group(spec)
    closed, min_orbit = rotation_orbits(E, rotations, cfg.budget)
    out["rotation_group_size"] = len(rotations)
    out["min_orbit"] = min_orbit
    out["rotation_closed"] = closed
    return out, {
        "rotation_closed": closed,
        "2 * min_orbit >= rotation_group_size": 2 * min_orbit >= len(rotations),
        "total_classes * min_orbit <= total_tuples":
            report.total_classes * min_orbit <= report.total_tuples,
    }


_CHECKS = {
    "census": _check_census,
    "nu": _check_nu,
    "f-moments": _check_f_moments,
    "lemma-2.2": _check_lemma_2_2,
    "lemma-2.3": _check_lemma_2_3,
    "lemma-2.4": _check_lemma_2_4,
    "lemma-3.1": _check_lemma_3_1,
    "lemma-4.1": _check_lemma_4_1,
    "lemma-4.2": _check_lemma_4_2,
    "theorem-6.1": _check_theorem_6_1,
    "sharpness": _check_sharpness,
}
CHECK_NAMES = tuple(_CHECKS)


def run_experiment(cfg: ExperimentConfig, *, memo: Memo | None = None) -> dict:
    """The experiment's report, the one place a verdict is set: each
    check's values with "ok" when all its named conditions hold, and
    otherwise also "failed", the false ones in order.  It builds nothing
    itself: the checks ask the memo for what they read, and set_size is
    read after them, so a check that reads only the ring runs, or refuses,
    before the construction is built."""
    memo = memo or Memo()
    results = []
    for name in cfg.checks:
        values, conditions = _CHECKS[name](cfg, memo)
        failed = [cond for cond, holds in conditions.items() if not holds]
        report = {"check": name, **values, "ok": not failed}
        if failed:
            report["failed"] = failed
        results.append(report)
    return _report_json({
        "ring": _Echo(cfg.spec.to_json()),
        "construction": _Echo(cfg.construction),
        "k": _Echo(cfg.k),
        "set_size": len(memo.points(cfg)),
        "checks": results,
        "ok": all(r["ok"] for r in results),
    })


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    # flat CSV: one row per scalar detail, nested values as compact JSON
    lines = ["check,key,value"]
    for chk in report["checks"]:
        name = chk["check"]
        for key in sorted(chk):
            if key == "check":
                continue
            val = chk[key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            val = str(val).replace('"', '""')
            lines.append(f'{name},{key},"{val}"')
    return "\n".join(lines) + "\n"


def _writable(path: str | None) -> str | None:
    """The output path, checked before any work: it is opened for
    appending, which leaves an existing file as it is, and a file the
    probe created is removed again."""
    if path:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except (OSError, ValueError) as exc:
            raise InvalidConfig(f"cannot write output {path!r}: {exc}") from exc
        if not existed:
            os.remove(path)
    return path


def _emit(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot write output {path!r}: {exc}") from exc


def _print_check_lines(report: dict, label: str = "") -> None:
    for chk in report["checks"]:
        status = "PASS" if chk["ok"] else "FAIL"
        print(f"{label}{chk['check']}: {status}", file=sys.stderr)


def _load_config(path: str):
    """The JSON value of a config file; an unreadable one is invalid."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidConfig(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands.  Each returns EXIT_OK or EXIT_CHECK_FAILED; main turns an
# InvalidConfig or BudgetExceeded raised anywhere into exit 2 or 3.

def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(_load_config(args.config))
    path = _writable(args.output or cfg.output)
    report = run_experiment(cfg)
    _emit(_report_text(report, cfg.fmt), path)
    _print_check_lines(report)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    obj = _load_config(args.config)
    if not isinstance(obj, dict):
        raise InvalidConfig("a sweep config must be a JSON object")
    base = dict(_json_object(obj, "experiment", {}))
    variable = obj.get("variable")
    values = obj.get("values")
    seeds = obj.get("seeds", [0])
    if variable not in ("size", "k", "ell"):
        raise InvalidConfig(f"unknown sweep variable {variable!r}")
    if not (isinstance(values, list) and isinstance(seeds, list) and values and seeds):
        raise InvalidConfig("values and seeds must be nonempty lists")
    # a sweep runs only the census and writes only its CSV rows
    if base.setdefault("checks", ["census"]) != ["census"]:
        raise InvalidConfig("a sweep runs only the census check")
    if "output" in base:
        raise InvalidConfig("a sweep writes its rows to --output or stdout, not to output")
    # every other ring family ignores ell, every other construction size
    if variable == "ell" and _json_object(base, "ring", {}).get("family") != "mod-prime-power":
        raise InvalidConfig("sweeping ell needs a mod-prime-power ring")
    if variable == "size":
        if _json_object(base, "construction", {}).get("kind", "random-subset") != "random-subset":
            raise InvalidConfig("sweeping size needs a random-subset construction")
    try:  # a construction that ignores its seed would print any value
        seeds = [checked_int(seed, "seed") for seed in seeds]
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from exc
    path = _writable(args.output)

    rows = ["variable,value,seed,set_size,classes,plane_classes,proportion"]
    memo = Memo()
    for value in values:
        for seed in seeds:
            exp = json.loads(json.dumps(base))
            default = {"kind": "random-subset" if variable == "size" else "full-plane"}
            con = exp["construction"] = _json_object(exp, "construction", default)
            if variable == "size":
                con["size"] = value
            elif variable == "k":
                exp["k"] = value
            else:
                exp["ring"] = dict(_json_object(exp, "ring", {}), ell=value)
            if con.get("kind") == "random-subset":
                con["seed"] = seed
            cfg = ExperimentConfig.from_json(exp)
            report = memo.census(cfg)
            plane = memo.census(cfg._replace(construction=FULL))
            rows.append(
                f"{variable},{value},{seed},{report.set_size},{report.total_classes},"
                f"{plane.total_classes},{Fraction(report.total_classes, plane.total_classes)}"
            )
    _emit("\n".join(rows) + "\n", path)
    return EXIT_OK


MATRIX_RINGS = {
    "F3": {"family": "prime-field", "p": 3},
    "F5": {"family": "prime-field", "p": 5},
    "F7": {"family": "prime-field", "p": 7},
    "F9": {"family": "galois-field", "p": 3, "e": 2},
    "Z9": {"family": "mod-prime-power", "p": 3, "ell": 2},
    "Z27": {"family": "mod-prime-power", "p": 3, "ell": 3},
    "Z25": {"family": "mod-prime-power", "p": 5, "ell": 2},
}


FULL = {"kind": "full-plane"}
SAMPLE20 = {"kind": "random-subset", "size": 20, "seed": 1}


def canonical_matrix(budget: int) -> list[ExperimentConfig]:
    """The documented verify-all matrix: every (ring, k) cell of
    {F3,F5,F7,F9,Z9,Z27,Z25} x {1,2,3} runs at least one check, with the
    heavyweight full-plane censuses confined to cells where the tuple
    stream stays at desk scale; large rings get seeded random subsets."""
    R = MATRIX_RINGS
    cells = [(ring, 1, FULL, ["lemma-4.2", "nu", "census"]) for ring in R.values()]
    cells += [
        (R["F3"], 1, FULL, ["lemma-4.1", "f-moments", "lemma-3.1", "lemma-2.2",
                            "lemma-2.3", "lemma-2.4"]),
        (R["F5"], 1, FULL, ["lemma-4.1", "lemma-3.1", "lemma-2.3", "lemma-2.4"]),
        (R["F7"], 1, FULL, ["lemma-3.1"]),
        (R["F9"], 1, FULL, ["lemma-3.1"]),
        (R["Z9"], 1, FULL, ["lemma-3.1", "lemma-2.3", "theorem-6.1"]),
        (R["Z27"], 1, FULL, ["theorem-6.1"]),
        (R["Z25"], 1, FULL, ["theorem-6.1"]),
        # k = 2
        (R["F3"], 2, FULL, ["census", "lemma-2.2", "lemma-2.3", "lemma-2.4"]),
        (R["F5"], 2, FULL, ["census", "lemma-2.3", "lemma-2.4"]),
        (R["F7"], 2, FULL, ["census"]),
        (R["F9"], 2, FULL, ["census"]),
        (R["Z9"], 2, FULL, ["census", "lemma-2.3", "theorem-6.1"]),
        (R["Z27"], 2, SAMPLE20, ["census", "lemma-2.4"]),
        (R["Z25"], 2, SAMPLE20, ["census", "lemma-2.4"]),
        # k = 3
        (R["F3"], 3, FULL, ["census", "lemma-2.3"]),
        (R["F5"], 3, FULL, ["census", "lemma-2.3"]),
        (R["F7"], 3, SAMPLE20, ["census", "lemma-2.4"]),
        (R["F9"], 3, SAMPLE20, ["census", "lemma-2.4"]),
        (R["Z9"], 3, SAMPLE20, ["census", "lemma-2.4"]),
        (R["Z27"], 3, SAMPLE20, ["census"]),
        (R["Z25"], 3, SAMPLE20, ["census"]),
        # sharpness constructions
        (R["F3"], 1, {"kind": "union-circles", "radii": [1]}, ["sharpness"]),
        (R["F5"], 1, {"kind": "union-circles", "radii": [1, 4]}, ["sharpness"]),
        (R["F5"], 2, {"kind": "union-circles", "radii": [1, 4]}, ["sharpness"]),
        (R["Z9"], 1, {"kind": "mod-sharpness"}, ["sharpness"]),
        (R["Z9"], 2, {"kind": "mod-sharpness"}, ["sharpness"]),
    ]
    return [
        ExperimentConfig.from_json(
            {"ring": ring, "k": k, "construction": con, "checks": checks,
             "budget": budget}
        )
        for ring, k, con, checks in cells
    ]


def cmd_verify_all(args) -> int:
    if args.budget <= 0:
        print(f"budget exceeded: no check fits in a budget of {args.budget}", file=sys.stderr)
        return EXIT_BUDGET
    path = _writable(args.output)
    cfgs = canonical_matrix(args.budget)
    memo = Memo()
    results = [run_experiment(cfg, memo=memo) for cfg in cfgs]
    report = {"experiments": results, "ok": all(r["ok"] for r in results)}
    _emit(_report_text(report, "json"), path)
    for cfg, res in zip(cfgs, results):
        label = f"{cfg.spec.label()} k={cfg.k} {cfg.construction['kind']} "
        _print_check_lines(res, label)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="areal",
        description="Area-signature equivalence experiments over finite rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a declarative experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a variable, emit plot-ready CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_all = sub.add_parser("verify-all", help="run the canonical verification matrix")
    p_all.add_argument("--budget", type=int, default=cn.DEFAULT_BUDGET)
    p_all.add_argument("--output", default=None)
    p_all.set_defaults(func=cmd_verify_all)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except cn.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
