"""One benchmark operation, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py {matrix,census,arith,micro} [--seed N]
        [--setup-only] [--trace] [--toy]

Prints one JSON object as its last line of standard output: the setup
time, the outputs run.py checks for correctness, and with --trace the
per-layer metrics of the work it traced.  Only this file imports areal;
run.py never does, so every operation pays interpreter start and import.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

# The three census cells and the arith inputs; sizes are part of the
# benchmark's definition (see NOTES.md for why each was chosen).
CENSUS_CELLS = ("F7-plane-k3", "Z27-s150-k2", "Z27-s29-k3")
ARITH_FUNCS = (
    ("f_profile", "f_profile_ns_per_visit.F9"),
    ("transitivity_constant", "transitivity_ns_per_visit.F9"),
    ("nu_histogram", "nu_ns_per_pair.F81"),
    ("count_bad_tuples", "count_bad_tuples_ns_per_tuple.Z9-k2"),
    ("count_bad_tuples_naive", "count_bad_tuples_naive_ns_per_tuple.Z9-k2"),
)
MATRIX_FUNCS = (
    "count_classes",
    "f_profile",
    "count_bad_tuples",
    "count_bad_tuples_naive",
    "good_class_members",
    "moment_identity_check",
    "nu_histogram",
    "transitivity_constant",
)
# Input identity of the functions whose repeated calls memoisation would save.
REUSE_KEYS = {
    "count_classes": lambda E, k, *rest: (E.spec, E.points, k),
    "f_profile": lambda E, *rest: (E.spec, E.points),
}


def sub_seed(seed: int, tag: str) -> int:
    """A 64-bit construction seed derived from the benchmark seed, stable
    across Python versions."""
    digest = hashlib.sha256(f"areal-bench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def short_label(spec) -> str:
    """F_7 -> F7, F_81 -> F81, Z/27Z -> Z27."""
    label = spec.label()
    return "F" + label[2:] if label.startswith("F_") else "Z" + label[2:-1]


def matrix_cell_names(cfgs) -> list[str]:
    return [
        f"{i:02d}-{short_label(c.spec)}-k{c.k}-{c.construction['kind']}"
        for i, c in enumerate(cfgs)
    ]


def _cfg_key(cfg) -> tuple:
    return (cfg.spec, cfg.k, json.dumps(cfg.construction, sort_keys=True), tuple(cfg.checks))


# ---------------------------------------------------------------------------
# Tracing: spans recorded by wrapping public functions from this file.
# Spans are aggregated in memory by name (calls, total, self time), since
# the hottest wrapped function runs ~700k times per census operation.

class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.inputs: dict[str, set] = {}
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.prefix = ""

    def wrap(self, fn, name, input_key=None):
        """fn with a span named `name` (or name(*args) if callable)."""
        stats, stack = self.stats, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self.prefix + (name(*args) if callable(name) else name)
            if input_key is not None:
                self.inputs.setdefault(span, set()).add(input_key(*args))
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec = stats.get(span)
                if rec is None:
                    rec = stats[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def count_calls(self, fn, name):
        """fn with an untimed call counter keyed by the enclosing span."""
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            key = (stack[-1][0] if stack else "") + "/" + name
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self, module, attr, name=None, input_key=None):
        setattr(module, attr, self.wrap(getattr(module, attr), name or attr, input_key))

    def total(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def wrapped_calls(self) -> int:
        return sum(rec[0] for rec in self.stats.values()) + sum(self.counts.values())


def wrapper_cost_s() -> float:
    """Measured cost of one traced call over a bare call, in seconds."""
    tracer = Tracer()

    def bare():
        return None

    traced = tracer.wrap(bare, "noop")
    n = 100_000
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            traced()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / n)
    return max(0.0, statistics.median(diffs))


# ---------------------------------------------------------------------------
# Workload set-up: import, ring specs, constructions, matrix configs.

def setup_matrix(toy: bool, build_points: bool):
    """All matrix configs and the ones to run (the first four when toy).
    verify-all builds its own point sets, so an operation skips them."""
    from areal import cli

    cfgs = cli.canonical_matrix(cli.cn.DEFAULT_BUDGET)
    run = cfgs[:4] if toy else cfgs
    if build_points:
        for cfg in run:
            cfg.point_set()
    return cfgs, run


def setup_census(seed: int, toy: bool):
    from areal import constructions as cons
    from areal.rings import mod_prime_power, prime_field

    if toy:
        field, zmod, sizes = prime_field(3), mod_prime_power(3, 2), (20, 8)
    else:
        field, zmod, sizes = prime_field(7), mod_prime_power(3, 3), (150, 29)
    return [
        (CENSUS_CELLS[0], cons.full_plane(field), 3),
        (CENSUS_CELLS[1], cons.random_subset(zmod, sizes[0], sub_seed(seed, "census-1")), 2),
        (CENSUS_CELLS[2], cons.random_subset(zmod, sizes[1], sub_seed(seed, "census-2")), 3),
    ]


def setup_arith(seed: int, toy: bool):
    from areal import constructions as cons
    from areal.rings import galois_field, mod_prime_power, prime_field

    if toy:
        field, big, nu_size, k = prime_field(3), galois_field(3, 2), 20, 1
    else:
        field, big, nu_size, k = galois_field(3, 2), galois_field(3, 4), 300, 2
    return {
        "field": field,
        "plane": cons.full_plane(field),
        "nu_set": cons.random_subset(big, nu_size, sub_seed(seed, "arith-nu")),
        "bad_set": cons.full_plane(mod_prime_power(3, 2)),
        "k": k,
    }


# ---------------------------------------------------------------------------
# Operations.  Each returns the outputs run.py checks, plus work counts.

def op_matrix(inputs, toy: bool, tracer: Tracer | None) -> dict:
    from areal import cli

    cfgs, run = inputs
    if toy:
        cli.canonical_matrix = lambda budget: run
    report = OUT / f"matrix-report-{os.getpid()}.json"
    if tracer is not None:
        names = dict(zip(map(_cfg_key, cfgs), matrix_cell_names(cfgs)))
        tracer.install(cli, "run_experiment", lambda cfg: "cell:" + names[_cfg_key(cfg)])
        for check, fn in list(cli._CHECKS.items()):
            cli._CHECKS[check] = tracer.wrap(fn, "check:" + check)
        for fn in MATRIX_FUNCS:
            tracer.install(cli.cn, fn, "fn:" + fn, REUSE_KEYS.get(fn))
        cli.apply_config = tracer.count_calls(cli.apply_config, "apply_config")
    with open(os.devnull, "w") as quiet:
        saved, sys.stderr = sys.stderr, quiet
        try:
            code = cli.main(["verify-all", "--output", str(report)])
        finally:
            sys.stderr = saved
    data = report.read_bytes()
    report.unlink()
    result = {"exit_code": code, "sha256": hashlib.sha256(data).hexdigest(), "cells": len(run)}
    parsed = json.loads(data)
    result["checks"] = sum(len(e["checks"]) for e in parsed["experiments"])
    result["checks_ok"] = sum(c["ok"] for e in parsed["experiments"] for c in e["checks"])
    if tracer is not None:
        result["metrics"] = matrix_metrics(tracer, cfgs, parsed)
    return result


def matrix_metrics(tracer: Tracer, cfgs, report: dict) -> dict:
    from areal import cli

    m = {}
    for fn in MATRIX_FUNCS:
        calls, _, self_s = tracer.stats.get("fn:" + fn, [0, 0.0, 0.0])
        m[f"census.{fn}.calls"] = (calls, "count")
        m[f"census.{fn}.self_s"] = (self_s, "s")
    for fn in REUSE_KEYS:
        calls = tracer.stats.get("fn:" + fn, [0])[0]
        distinct = len(tracer.inputs.get("fn:" + fn, ()))
        m[f"census.{fn}.reuse_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    for check in cli.CHECK_NAMES:
        m[f"cli.check_s.{check}"] = (tracer.total("check:" + check), "s")
    for name in matrix_cell_names(cfgs):
        m[f"cli.cell_s.{name}"] = (tracer.total("cell:" + name), "s")
    matches = sum(
        int(c["pairs_checked"])
        for e in report["experiments"]
        for c in e["checks"]
        if c["check"] == "lemma-2.2"
    )
    scanned = tracer.counts.get("check:lemma-2.2/apply_config", 0)
    m["cli.lemma-2.2.scan_hit_ratio"] = (matches / scanned if scanned else 0.0, "ratio")
    return m


def op_census(cells, tracer: Tracer | None) -> dict:
    from areal import census as cn
    from areal.linalg import sl2_order

    if tracer is not None:
        for fn in ("count_classes", "signature_counts", "area_index_table", "key_badness"):
            tracer.install(cn, fn)
    out = {}
    for label, E, k in cells:
        if tracer is not None:
            tracer.prefix = label + "/"
        report = cn.count_classes(E, k)
        out[label] = {
            "set_size": report.set_size,
            "k": k,
            "total_tuples": report.total_tuples,
            "total_classes": report.total_classes,
            "tuples_by_level": {str(m): c for m, c in sorted(report.tuples_by_level.items())},
            "classes_by_level": {str(m): c for m, c in sorted(report.classes_by_level.items())},
            "class_size_sum": sum(report.class_sizes.values()),
            "sl2_order": sl2_order(E.spec),
        }
    result = {"cells": out}
    if tracer is not None:
        m = {}
        for label, _, _ in cells:
            tuples, classes = out[label]["total_tuples"], out[label]["total_classes"]
            table = tracer.total(f"{label}/area_index_table")
            sig = tracer.total(f"{label}/signature_counts") - table
            m[f"census.area_table_s.{label}"] = (table, "s")
            m[f"census.signature_counts_ns_per_tuple.{label}"] = (sig / tuples * 1e9, "ns")
            m[f"census.key_badness_ns_per_class.{label}"] = (
                tracer.total(f"{label}/key_badness") / classes * 1e9, "ns")
            m[f"census.distinct_ratio.{label}"] = (classes / tuples, "ratio")
        result["metrics"] = m
    return result


def op_arith(inp: dict, tracer: Tracer | None) -> dict:
    from areal import census as cn
    from areal.linalg import enumerate_sl2, identity, sl2_order

    if tracer is not None:
        for fn, _ in ARITH_FUNCS:
            tracer.install(cn, fn)
    field, plane, nu_set, bad_set, k = (
        inp["field"], inp["plane"], inp["nu_set"], inp["bad_set"], inp["k"])
    prof = cn.f_profile(plane)
    ident = identity(field)
    f_identity = next(v for g, v in zip(enumerate_sl2(field), prof.values) if g == ident)
    phi = cn.transitivity_constant(field)
    hist = cn.nu_histogram(nu_set)
    rows = sorted((nu_set.spec.index(t), c) for t, c in hist.counts.items())
    fast = cn.count_bad_tuples(bad_set, k)
    naive = cn.count_bad_tuples_naive(bad_set, k)
    order = sl2_order(field)
    visits = {
        "f_profile": order * len(plane),
        "transitivity_constant": order * len(cn.designated_orbit(field)),
        "nu_histogram": len(nu_set) ** 2,
        "count_bad_tuples": len(bad_set) ** (k + 1),
        "count_bad_tuples_naive": len(bad_set) ** (k + 1),
    }
    result = {
        "field_size": field.size(),
        "plane_size": len(plane),
        "f_identity": f_identity,
        "transitivity": phi,
        "group_order": order,
        "nu_set_size": len(nu_set),
        "nu_total": hist.total(),
        "nu_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "bad_fast": {str(m): c for m, c in sorted(fast.items())},
        "bad_naive": {str(m): c for m, c in sorted(naive.items())},
        "visits": visits,
    }
    if tracer is not None:
        result["metrics"] = {
            f"census.{metric}": (tracer.total(fn) / visits[fn] * 1e9, "ns")
            for fn, metric in ARITH_FUNCS
        }
    return result


# ---------------------------------------------------------------------------
# Micro-loops: per-element layer rates that are too fine-grained to trace.

def per_item_ns(pass_fn, items: int, repeats: int = 5, min_s: float = 0.02) -> float:
    """Median time of one item, over repeats of enough passes to last min_s."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            pass_fn()
        if time.perf_counter() - t0 >= min_s:
            break
        reps *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(reps):
            pass_fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / (reps * items) * 1e9


def median_call_s(fn, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def sl2_sample(spec, count: int, rng: random.Random) -> list:
    """count SL_2 elements (a, b, c, a^-1 (1 + bc)) with a a unit."""
    elems = list(spec.elements())
    units = [a for a in elems if spec.is_unit(a)]
    out = []
    for _ in range(count):
        a, b, c = rng.choice(units), rng.choice(elems), rng.choice(elems)
        out.append((a, b, c, spec.mul(spec.inv(a), spec.add(spec.one, spec.mul(b, c)))))
    return out


def op_micro(toy: bool) -> dict:
    from areal import cli, configs, constructions as cons, linalg
    from areal.rings import galois_field, mod_prime_power, prime_field

    rings = {
        "F7": prime_field(7),
        "F9": galois_field(3, 2),
        "F81": galois_field(3, 4),
        "Z27": mod_prime_power(3, 3),
    }
    rng = random.Random(20190611)
    npts = 8 if toy else 32
    m = {}
    ok = True
    for name, R in rings.items():
        elems = list(R.elements())
        pairs = [(a, b) for a in elems for b in elems][: 64 if toy else None]
        units = [a for a in elems if R.is_unit(a)]
        mul, add, inv, index = R.mul, R.add, R.inv, R.index
        m[f"rings.mul_ns.{name}"] = (
            per_item_ns(lambda: [mul(a, b) for a, b in pairs], len(pairs)), "ns")
        m[f"rings.add_ns.{name}"] = (
            per_item_ns(lambda: [add(a, b) for a, b in pairs], len(pairs)), "ns")
        m[f"rings.inv_ns.{name}"] = (per_item_ns(lambda: [inv(a) for a in units], len(units)), "ns")
        m[f"rings.index_ns.{name}"] = (
            per_item_ns(lambda: [index(a) for a in elems], len(elems)), "ns")
        ok &= all(mul(a, inv(a)) == R.one for a in units)

        pts = [(rng.choice(elems), rng.choice(elems)) for _ in range(npts)]
        mats = sl2_sample(R, npts, rng)
        pt_pairs = [(x, y) for x in pts for y in pts]
        mat_pts = [(g, x) for g in mats for x in pts]
        perp, apply = linalg.perp_dot, linalg.apply_mat
        m[f"linalg.perp_dot_ns.{name}"] = (
            per_item_ns(lambda: [perp(R, x, y) for x, y in pt_pairs], len(pt_pairs)), "ns")
        m[f"linalg.apply_mat_ns.{name}"] = (
            per_item_ns(lambda: [apply(R, g, x) for g, x in mat_pts], len(mat_pts)), "ns")
        ok &= all(linalg.det(R, g) == R.one for g in mats)

    for name in ("F9", "Z27"):
        R = rings[name]
        G = prime_field(3) if toy else R
        m[f"linalg.enumerate_sl2_ns_per_elem.{name}"] = (per_item_ns(
            lambda: sum(1 for _ in linalg.enumerate_sl2(G)), linalg.sl2_order(G),
            repeats=3, min_s=0.0), "ns")
        elems = list(R.elements())
        triples = [tuple((rng.choice(elems), rng.choice(elems)) for _ in range(3))
                   for _ in range(4 * npts)]
        good = [xs for xs in triples if configs.first_unit_pair(R, xs) is not None]
        mats = sl2_sample(R, len(good), rng)
        related = [(xs, configs.apply_config(R, g, xs)) for g, xs in zip(mats, good)]
        m[f"configs.signature_us.{name}"] = (per_item_ns(
            lambda: [configs.signature(R, xs) for xs in triples], len(triples)) / 1e3, "us")
        m[f"configs.recover_g_us.{name}"] = (per_item_ns(
            lambda: [configs.recover_g(R, xs, ys) for xs, ys in related], len(related)) / 1e3,
            "us")
        ok &= all(configs.recover_g(R, xs, ys) == g for g, (xs, ys) in zip(mats, related))

    f5 = prime_field(5)
    for key, fn, repeats in (
        ("constructions.full_plane_s.F7", lambda: cons.full_plane(rings["F7"]), 7),
        ("constructions.random_subset_s.Z27", lambda: cons.random_subset(rings["Z27"], 150, 1), 7),
        ("constructions.random_subset_s.F81", lambda: cons.random_subset(rings["F81"], 300, 1), 3),
        ("constructions.union_circles_s.F5", lambda: cons.union_circles(f5, [1, 4]), 7),
        ("cli.canonical_matrix_s", lambda: cli.canonical_matrix(cli.cn.DEFAULT_BUDGET), 7),
    ):
        m[key] = (median_call_s(fn, repeats), "s")
    return {"checks_ok": ok, "metrics": m}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("matrix", "census", "arith", "micro"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    import areal

    if not Path(areal.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"areal imported from {areal.__file__}, not from {SRC}")
    if args.workload == "matrix":
        inputs = setup_matrix(args.toy, build_points=args.setup_only)
    elif args.workload == "census":
        inputs = setup_census(args.seed, args.toy)
    elif args.workload == "arith":
        inputs = setup_arith(args.seed, args.toy)
    else:
        inputs = None
    setup_s = time.perf_counter() - _T_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = Tracer() if args.trace and args.workload != "micro" else None
        t0 = time.perf_counter()
        if args.workload == "matrix":
            result.update(op_matrix(inputs, args.toy, tracer))
        elif args.workload == "census":
            result.update(op_census(inputs, tracer))
        elif args.workload == "arith":
            result.update(op_arith(inputs, tracer))
        else:
            result.update(op_micro(args.toy))
        op_s = time.perf_counter() - t0
        result["op_s"] = op_s
        if tracer is not None:
            overhead = tracer.wrapped_calls() * wrapper_cost_s()
            result["wrapped_calls"] = tracer.wrapped_calls()
            result["metrics"][f"trace.overhead_ratio.{args.workload}"] = (
                op_s / (op_s - overhead), "ratio")
    result["numpy_imported"] = "numpy" in sys.modules
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
