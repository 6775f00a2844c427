"""Acceptance suite: one test per headline claim the package must certify.

Each test prints a single `criterion NN <slug>: PASS` line and enforces
the wall-clock ceiling the claim is expected to meet on desk hardware.
Run with `pytest -v tests/test_acceptance.py` for the per-criterion lines.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from areal.census import (
    count_bad_tuples,
    count_bad_tuples_naive,
    count_classes,
    f_profile,
    flemma_check,
    good_class_members,
    mbad_class_size_check,
    moment_identity_check,
    moment_lift_check,
    nu_histogram,
    transitivity_constant,
)
from areal.cli import rotation_orbits
from areal.configs import apply_config, recover_g
from areal.constructions import (
    full_plane,
    mod_sharpness_set,
    random_subset,
    rotation_group,
    union_circles,
)
from areal.linalg import enumerate_sl2, sl2_order
from areal.rings import galois_field, mod_prime_power, prime_field

F3 = prime_field(3)
F5 = prime_field(5)
Z9 = mod_prime_power(3, 2)


@contextmanager
def criterion(number, slug, limit_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} {slug}: exceeded {limit_seconds}s ({elapsed:.1f}s)"
    )
    print(f"criterion {number:02d} {slug}: PASS ({elapsed:.1f}s)")


def test_criterion_01_group_orders():
    cases = [
        (F3, 24),
        (F5, 120),
        (prime_field(7), 336),
        (galois_field(3, 2), 720),
        (Z9, 648),
        (mod_prime_power(3, 3), 17496),
        (mod_prime_power(5, 2), 15000),
    ]
    with criterion(1, "group-orders", 10):
        for spec, expected in cases:
            assert sl2_order(spec) == expected
            assert sum(1 for _ in enumerate_sl2(spec)) == expected


def test_criterion_02_transitivity_constant():
    with criterion(2, "transitivity-constant", 30):
        assert transitivity_constant(F3) == 3
        assert transitivity_constant(F5) == 5


def test_criterion_03_unique_g_recovery():
    with criterion(3, "unique-g-recovery", 300):
        plane = full_plane(F3)
        group = list(enumerate_sl2(F3))
        for k in (1, 2):
            for members in good_class_members(plane, k).values():
                for xs in members:
                    for ys in members:
                        matches = [
                            g for g in group
                            if apply_config(F3, g, xs) == ys
                        ]
                        assert len(matches) == 1
                        assert recover_g(F3, xs, ys) == matches[0]


def test_criterion_04_bad_tuple_counts():
    with criterion(4, "bad-tuple-counts", 300):
        for spec, ks in ((F3, (1, 2, 3)), (F5, (1, 2, 3)), (Z9, (1, 2))):
            E = full_plane(spec)
            q = spec.size()
            for k in ks:
                fast = count_bad_tuples(E, k)
                assert fast == count_bad_tuples_naive(E, k)
                bad = sum(c for m, c in fast.items() if m >= 1)
                if spec is Z9:
                    p, ell = 3, 2
                    shape = p ** ((2 * ell - 1) * (k + 1) + 1)
                else:
                    shape = q ** k * len(E)
                assert bad <= 4 * shape  # reported constant C <= 4


def test_criterion_05_moment_lift():
    with criterion(5, "moment-lift", 60):
        rng = random.Random(20260823)
        for _ in range(1000):
            size = rng.randint(1, 200)
            k = rng.randint(1, 4)
            table = [rng.randint(0, 100) for _ in range(size)]
            assert all(moment_lift_check(table, k)[1].values())
        for spec in (F3, F5):
            sets = [full_plane(spec)] + [
                random_subset(spec, min(8, spec.size() ** 2 - 1), seed)
                for seed in range(1, 21)
            ]
            for E in sets:
                prof = f_profile(E)
                for k in (1, 2, 3, 4):
                    assert all(moment_lift_check(prof.values, k)[1].values())


def test_criterion_06_flemma_inequality_chain():
    with criterion(6, "flemma-chain", 600):
        for spec in (F3, F5):
            sets = [full_plane(spec)] + [
                random_subset(spec, min(8, spec.size() ** 2 - 1), seed)
                for seed in range(1, 21)
            ]
            for E in sets:
                for k in (1, 2):
                    report, conditions = flemma_check(count_classes(E, k), f_profile(E))
                    assert report["cauchy_schwarz_ok"]
                    assert report["f_bound_ok"]
                    assert all(conditions.values())


def test_criterion_07_mbad_census_z9():
    with criterion(7, "mbad-census-z9", 900):
        report, conditions = mbad_class_size_check(count_classes(full_plane(Z9), 2))
        assert report["good_free_action_ok"]
        assert report["good_classes"] * 648 == report["good_tuples"]
        for lvl in report["levels"]:
            assert lvl["min_class_size"] >= 3 ** (6 - 2 * lvl["m"])
            assert lvl["count_constant"] <= 4
        assert all(conditions.values())


def test_criterion_08_full_plane_structure():
    with criterion(8, "full-plane-structure", 300):
        for spec in (F3, F5):
            E = full_plane(spec)
            order = sl2_order(spec)
            for k in (1, 2, 3):
                report = count_classes(E, k)
                bad_classes = sum(
                    c for m, c in report.classes_by_level.items() if m >= 1
                )
                assert bad_classes == 1  # one shared bad signature
                good_tuples = report.tuples_by_level.get(0, 0)
                good_classes = report.classes_by_level.get(0, 0)
                assert good_tuples == good_classes * order


def test_criterion_09_sharpness_constructions():
    with criterion(9, "sharpness", 300):
        E = mod_sharpness_set(3, 2)
        assert len(E) == 27
        for k in (1, 2):
            report = count_classes(E, k)
            assert report.tuples_by_level.get(0, 0) == 0  # every tuple bad
        circles = union_circles(F5, [1, 4])
        rots = rotation_group(F5)
        budget = 10 ** 9
        for k in (1, 2):
            closed, orbit = rotation_orbits(circles, rots, budget)
            assert closed
            assert 2 * orbit >= len(rots)
            classes = count_classes(circles, k).total_classes
            assert classes * orbit <= len(circles) ** (k + 1)


def test_criterion_10_nu_identities():
    with criterion(10, "nu-identities", 60):
        E = full_plane(F3)
        assert nu_histogram(E).total() == len(E) ** 2
        for seed in range(5):
            S = random_subset(F5, 11, seed + 1)
            assert nu_histogram(S).total() == len(S) ** 2
        report, conditions = moment_identity_check(E, f_profile(E))
        assert report["f_square_sum"] == report["stabilizer_sum"]
        assert all(conditions.values())


# sha256 of the verify-all report bytes, unchanged since the first release
VERIFY_ALL_SHA256 = "5d41d95ffe51360b838550d103e2e32da80c940e4504e06ebe088fb646ff75cb"


def test_criterion_11_verify_all_is_byte_identical(tmp_path):
    with criterion(11, "byte-identical-report", 600):
        outs = []
        for run in ("first", "second"):
            path = tmp_path / f"report-{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "areal.cli", "verify-all", "--output", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["ok"] is True
        assert hashlib.sha256(outs[0]).hexdigest() == VERIFY_ALL_SHA256


def test_the_benchmark_pins_the_same_verify_all_report():
    # perfbench checks its matrix run against its own copy of the hash;
    # reading it here keeps the two pins equal without running perfbench
    expected = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    assert json.loads(expected.read_text())["matrix_sha256"] == VERIFY_ALL_SHA256
