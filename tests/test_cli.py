import hashlib
import itertools
import json
import sys
import time
from fractions import Fraction

import pytest

from areal.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    CHECK_NAMES,
    FULL,
    SAMPLE20,
    ExperimentConfig,
    InvalidConfig,
    Memo,
    canonical_matrix,
    main,
    run_experiment,
)
from areal.rings import galois_field
from traced_child import traced


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


F3_CENSUS = {
    "ring": {"family": "prime-field", "p": 3},
    "construction": {"kind": "full-plane"},
    "k": 1,
    "checks": ["census", "nu", "lemma-4.2"],
}


def test_run_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, F3_CENSUS)
    assert main(["run", cfg]) == EXIT_OK
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["ok"] is True
    assert report["set_size"] == "9"
    census = next(c for c in report["checks"] if c["check"] == "census")
    assert census["total_classes"] == "3"
    # counts travel as decimal strings, never JSON numbers
    assert all(isinstance(v, str) for v in census["tuples_by_level"].values())
    assert "census: PASS" in err


def test_run_writes_output_file(tmp_path):
    cfg = write_config(tmp_path, F3_CENSUS)
    dest = tmp_path / "report.json"
    assert main(["run", cfg, "--output", str(dest)]) == EXIT_OK
    assert json.loads(dest.read_text())["ok"] is True


def test_run_report_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, F3_CENSUS)
    main(["run", cfg])
    first = capsys.readouterr().out
    main(["run", cfg])
    assert capsys.readouterr().out == first


def test_run_csv_format(tmp_path, capsys):
    obj = dict(F3_CENSUS, output={"format": "csv"})
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_OK
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert lines[0] == "check,key,value"
    assert any(line.startswith("census,total_classes,") for line in lines)


def test_run_missing_file_is_invalid(capsys):
    assert main(["run", "/nonexistent/cfg.json"]) == EXIT_INVALID
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch",
    [
        {"checks": []},
        {"checks": ["census", "lemma-9.9"]},
        {"k": 0},
        {"ring": {"family": "prime-field", "p": 4}},
        {"checks": ["theorem-6.1"]},  # needs a mod-prime-power ring
        {"checks": ["sharpness"]},  # needs a circle construction
        {"construction": {"kind": "pentagon"}},
    ],
)
def test_run_rejects_bad_configs(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, dict(F3_CENSUS, **patch))
    assert main(["run", cfg]) == EXIT_INVALID
    assert "invalid config" in capsys.readouterr().err


def test_run_budget_exceeded(tmp_path, capsys):
    obj = dict(F3_CENSUS, budget=5)
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_run_exit_codes_are_distinct():
    assert {EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_BUDGET} == {0, 1, 2, 3}


def test_sweep_rows(tmp_path, capsys, monkeypatch):
    from areal import cli

    built = []
    construction_from_json = cli.cons.construction_from_json

    def counted(spec, obj):
        built.append(obj["kind"])
        return construction_from_json(spec, obj)

    monkeypatch.setattr(cli.cons, "construction_from_json", counted)
    obj = {
        "experiment": {
            "ring": {"family": "prime-field", "p": 3},
            "k": 1,
            "checks": ["census"],
        },
        "variable": "size",
        "values": [4, 6],
        "seeds": [1, 2],
    }
    cfg = write_config(tmp_path, obj)
    assert main(["sweep", cfg]) == EXIT_OK
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert lines[0] == "variable,value,seed,set_size,classes,plane_classes,proportion"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[:4] == ["size", "4", "1", "4"]
    assert int(first[5]) == 3  # plane classes at k=1 over F_3
    # four random subsets and one plane, which every row's census shares
    assert sorted(built) == ["full-plane"] + ["random-subset"] * 4


def test_sweep_bad_variable(tmp_path, capsys):
    obj = {
        "experiment": {"ring": {"family": "prime-field", "p": 3}},
        "variable": "temperature",
        "values": [1],
    }
    cfg = write_config(tmp_path, obj)
    assert main(["sweep", cfg]) == EXIT_INVALID


def test_canonical_matrix_covers_every_cell():
    cfgs = canonical_matrix(10 ** 9)
    seen = {(cfg.spec.label(), cfg.k) for cfg in cfgs}
    rings = ["F_3", "F_5", "F_7", "F_9", "Z/9Z", "Z/27Z", "Z/25Z"]
    for label in rings:
        for k in (1, 2, 3):
            assert (label, k) in seen
    used = {name for cfg in cfgs for name in cfg.checks}
    assert used == {
        "census", "nu", "f-moments", "lemma-2.2", "lemma-2.3", "lemma-2.4",
        "lemma-3.1", "lemma-4.1", "lemma-4.2", "theorem-6.1", "sharpness",
    }


def test_verify_all_zero_budget(capsys):
    assert main(["verify-all", "--budget", "0"]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_experiment_config_validate_direct():
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_json({"ring": {"family": "prime-field", "p": 3}})
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_json(
            dict(F3_CENSUS, output={"format": "xml"})
        )
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_json(dict(F3_CENSUS, budget=0))


def test_experiment_config_replace_keeps_the_other_fields():
    cfg = ExperimentConfig.from_json(dict(
        F3_CENSUS, k=2, construction=SAMPLE20, budget=12345, output={"path": "out.csv", "format": "csv"}
    ))
    full = cfg._replace(construction=FULL)
    assert full.construction == FULL and cfg.construction == SAMPLE20
    assert (full.spec, full.k, full.checks, full.budget, full.output, full.fmt) == (
        cfg.spec, 2, ["census", "nu", "lemma-4.2"], 12345, "out.csv", "csv"
    )


def test_run_experiment_flags_failing_check():
    # a non-rotation-closed circle pair cannot happen, so force a failure by
    # running sharpness on a mod-sharpness set with the wrong expectation:
    # instead assert the happy path and that "ok" aggregates over checks
    cfg = ExperimentConfig.from_json(F3_CENSUS)
    report = run_experiment(cfg)
    assert report["ok"] == all(c["ok"] for c in report["checks"])
    assert [c["check"] for c in report["checks"]] == cfg.checks


@pytest.mark.parametrize(
    "patch", [{"output": "x"}, {"construction": "full-plane"}, {"ring": "F_3"}]
)
def test_run_rejects_non_object_sections(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, dict(F3_CENSUS, **patch))
    assert main(["run", cfg]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "must be a JSON object" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "obj, reason",
    [
        ([1, 2], "experiment config must be a JSON object"),
        (3, "experiment config must be a JSON object"),
        (None, "experiment config must be a JSON object"),
        (dict(F3_CENSUS, output={"path": 3}), "output path must be a string, got 3"),
    ],
    ids=["list", "number", "null", "path-number"],
)
def test_run_rejects_a_config_of_the_wrong_shape(tmp_path, capsys, obj, reason):
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"invalid config: {reason}\n")


@pytest.mark.parametrize(
    "size", [-1, 10, True, 2.0, "4"], ids=["negative", "past-plane", "bool", "float", "string"]
)
def test_run_rejects_bad_random_subset_size(tmp_path, capsys, size):
    obj = dict(F3_CENSUS, construction={"kind": "random-subset", "size": size, "seed": 1})
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_INVALID
    assert "invalid config: bad construction" in capsys.readouterr().err


def test_random_subset_size_bounds_are_inclusive(tmp_path, capsys):
    for size in (0, 9):
        obj = dict(F3_CENSUS, construction={"kind": "random-subset", "size": size, "seed": 1})
        cfg = write_config(tmp_path, obj)
        assert main(["run", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["set_size"] == str(size)


def test_census_of_one_point_at_huge_k_exits_on_its_budget(tmp_path, capsys):
    # one point has one tuple, but its census key holds k(k+1)/2 areas:
    # the census charges at least 2^{k+1}, so it refuses before any key,
    # at the lower bound 2^30 that passes the 30-bit budget
    obj = dict(F3_CENSUS, construction={"kind": "random-subset", "size": 1, "seed": 1},
               k=100_000, checks=["census"])
    start = time.perf_counter()
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err == "budget exceeded: enumeration needs at least 1073741824 tuple visits but the budget is 1000000000\n"


def test_census_of_three_points_at_k_10_to_the_8_refuses_without_building_its_charge(tmp_path, capsys):
    # 3^(10^8 + 1) took 86 s and 93 MiB to build before the census refused it
    obj = dict(F3_CENSUS, construction={"kind": "random-subset", "size": 3, "seed": 1},
               k=10 ** 8, checks=["census"])
    start = time.perf_counter()
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("budget exceeded: enumeration needs at least 1073741824 ")


def test_a_charge_past_the_digit_limit_is_named_by_its_bit_length(tmp_path, capsys):
    # the census charges 3^13287; from bit lengths alone (3 >= 2^1) it is
    # not certainly past 2^13288 > 10^4000, so it is built and charged
    # exactly, but its 6,340 digits pass the limit of 4,300: the refusal
    # names it by its bit length
    obj = dict(F3_CENSUS, construction={"kind": "random-subset", "size": 3, "seed": 1},
               k=13_286, checks=["census"], budget=10 ** 4000)
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: enumeration needs over 2^21059 tuple visits ")


@pytest.mark.parametrize(
    "patch",
    [{"k": True}, {"k": 1.0}, {"k": "2"}, {"budget": 1.5e3}, {"budget": True}, {"budget": "1000"}],
    ids=["k-bool", "k-float", "k-string", "budget-float", "budget-bool", "budget-string"],
)
def test_run_rejects_non_integer_scalars(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, dict(F3_CENSUS, **patch))
    assert main(["run", cfg]) == EXIT_INVALID
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("direction", [[1], [1, 0, 0], 1, "10"])
def test_run_rejects_malformed_direction(tmp_path, capsys, direction):
    obj = dict(F3_CENSUS, construction={"kind": "line-through-origin", "direction": direction})
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_INVALID
    assert "invalid config: bad construction" in capsys.readouterr().err


def test_run_rejects_bool_galois_coefficient(tmp_path, capsys):
    obj = {
        "ring": {"family": "galois-field", "p": 3, "e": 2},
        "construction": {"kind": "circle", "r": [1, True]},
        "checks": ["census"],
    }
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_INVALID
    assert "invalid config: bad construction" in capsys.readouterr().err
    obj["construction"]["r"] = [1, 1]
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_OK


def test_run_rejects_oversized_galois_field(tmp_path, capsys):
    obj = dict(F3_CENSUS, ring={"family": "galois-field", "p": 3, "e": 7})
    cfg = write_config(tmp_path, obj)
    assert main(["run", cfg]) == EXIT_INVALID
    assert "more than 1024 elements" in capsys.readouterr().err


SWEEP_EXPERIMENT = {"ring": {"family": "prime-field", "p": 3}, "k": 1, "checks": ["census"]}


@pytest.mark.parametrize(
    "obj",
    [
        [1],
        {"experiment": 5, "variable": "k", "values": [1]},
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": 3},
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1], "seeds": 0},
        {"experiment": dict(SWEEP_EXPERIMENT, ring=7), "variable": "ell", "values": [1]},
        {"experiment": dict(SWEEP_EXPERIMENT, construction=5), "variable": "size", "values": [2]},
        {"experiment": SWEEP_EXPERIMENT, "variable": "ell", "values": [1, 2, 3]},
        {"experiment": dict(SWEEP_EXPERIMENT, construction={"kind": "full-plane"}),
         "variable": "size", "values": [4, 6]},
        {"experiment": dict(SWEEP_EXPERIMENT, checks=["lemma-2.2"]),
         "variable": "k", "values": [1, 2]},
        {"experiment": dict(SWEEP_EXPERIMENT, output={"path": "sweep.csv", "format": "csv"}),
         "variable": "k", "values": [1, 2]},
        # the full plane ignores its seed, so only the sweep can refuse these
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1], "seeds": [[1, 2]]},
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1], "seeds": [None]},
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1], "seeds": ["x,y"]},
        {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1], "seeds": [True]},
    ],
    ids=[
        "list", "experiment-int", "values-int", "seeds-int", "ring-int", "construction-int",
        "ell-on-a-field", "size-on-the-full-plane", "check-besides-census", "output-section",
        "seed-list", "seed-null", "seed-with-comma", "seed-bool",
    ],
)
def test_sweep_rejects_malformed_configs(tmp_path, capsys, monkeypatch, obj):
    monkeypatch.chdir(tmp_path)  # a relative output path would land here
    cfg = write_config(tmp_path, obj)
    assert main(["sweep", cfg]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("invalid config:")


def test_run_rejects_prime_past_exact_test(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(F3_CENSUS, ring={"family": "prime-field", "p": 10 ** 25}))
    assert main(["run", cfg]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "primality" in err


@pytest.mark.parametrize(
    "ring, k, checks, expected",
    [
        (
            {"family": "prime-field", "p": 3},
            1,
            ["lemma-4.1", "f-moments", "lemma-3.1", "lemma-2.2", "lemma-2.3", "lemma-2.4"],
            {"count_classes": 1, "f_profile": 1, "count_bad_tuples": 0},
        ),
        (
            {"family": "mod-prime-power", "p": 3, "ell": 2},
            2,
            ["census", "lemma-2.3", "theorem-6.1"],
            {"count_classes": 1, "f_profile": 0, "count_bad_tuples": 0},
        ),
    ],
    ids=["F3-k1", "Z9-k2"],
)
def test_run_experiment_computes_each_quantity_once(monkeypatch, ring, k, checks, expected):
    from areal import census as cn

    calls = dict.fromkeys(expected, 0)
    for name in expected:
        def counted(*args, _name=name, _fn=getattr(cn, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cn, name, counted)
    cfg = ExperimentConfig.from_json(
        {"ring": ring, "k": k, "construction": {"kind": "full-plane"}, "checks": checks}
    )
    report = run_experiment(cfg)
    assert report["ok"] is True
    assert calls == expected


def test_sweep_reuses_the_census_of_a_full_plane_set(tmp_path, capsys, monkeypatch):
    from areal import census as cn

    calls = []
    count_classes = cn.count_classes

    def counted(E, k, budget=cn.DEFAULT_BUDGET):
        calls.append((len(E), k))
        return count_classes(E, k, budget)

    monkeypatch.setattr(cn, "count_classes", counted)
    obj = {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1, 2]}
    assert main(["sweep", write_config(tmp_path, obj)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "variable,value,seed,set_size,classes,plane_classes,proportion\n"
        "k,1,0,9,3,3,1\n"
        "k,2,0,9,27,27,1\n"
    )
    assert calls == [(9, 1), (9, 2)]


F9_RING = {"family": "galois-field", "p": 3, "e": 2}
Z9_RING = {"family": "mod-prime-power", "p": 3, "ell": 2}


def test_memo_keys_include_the_ring():
    memo = Memo()
    f9, z9 = (ExperimentConfig.from_json({"ring": ring, "checks": ["census"]}) for ring in (F9_RING, Z9_RING))
    assert memo.points(f9).points == memo.points(z9).points  # the same pairs of ints 0..8
    f9_census, z9_census = memo.census(f9), memo.census(z9)
    assert 2 not in f9_census.tuples_by_level
    assert z9_census.tuples_by_level[2] > 0
    assert (len(memo.profile(f9).values), len(memo.profile(z9).values)) == (720, 648)


def test_verify_all_computes_each_quantity_once(tmp_path, monkeypatch):
    """The F_9 and Z/9Z k=1 full-plane cells share point sets: across
    them every census and f profile is computed once, and the report is
    the one that a memo per cell gives."""
    from areal import census as cn
    from areal import cli

    cells = [
        cfg for cfg in canonical_matrix(cn.DEFAULT_BUDGET)
        if cfg.spec.label() in ("F_9", "Z/9Z") and cfg.k == 1 and cfg.construction == FULL
    ]
    assert len(cells) == 4
    monkeypatch.setattr(cli, "canonical_matrix", lambda budget: cells)
    expected = {"experiments": [run_experiment(cfg) for cfg in cells]}
    keys = {
        "count_classes": lambda E, k, budget: (E.spec, E.points, k),
        "f_profile": lambda E, budget: (E.spec, E.points),
    }
    calls = []
    for name, key in keys.items():
        def counted(*args, _fn=getattr(cn, name), _key=key):
            calls.append(_key(*args))
            return _fn(*args)

        monkeypatch.setattr(cn, name, counted)
    dest = tmp_path / "report.json"
    assert main(["verify-all", "--output", str(dest)]) == EXIT_OK
    assert len(calls) == len(set(calls)) == 4
    report = json.loads(dest.read_text())
    assert report == {**expected, "ok": True}


def test_verify_all_counts_each_point_sets_areas_at_most_once(tmp_path, monkeypatch):
    """nu and the k = 1 census of a cell read one PointSet.area_counts:
    each point set builds it at most once, and a census whose cell's nu
    already ran builds none."""
    import functools

    from areal import census as cn

    built, nu_sets, after_nu = [], [], []  # built keeps each set alive, so ids stay distinct

    def counted(E, _build=cn.PointSet.area_counts.func):
        built.append(E)
        return _build(E)

    area_counts = functools.cached_property(counted)
    area_counts.__set_name__(cn.PointSet, "area_counts")
    monkeypatch.setattr(cn.PointSet, "area_counts", area_counts)

    def nu(E, budget, _nu=cn.nu_histogram):
        nu_sets.append(E)
        return _nu(E, budget)

    def signature_counts(E, k, budget, _counts=cn.signature_counts):
        before = len(built)
        counts = _counts(E, k, budget)
        if k == 1 and any(E is seen for seen in nu_sets):
            after_nu.append(len(built) - before)
        return counts

    monkeypatch.setattr(cn, "nu_histogram", nu)
    monkeypatch.setattr(cn, "signature_counts", signature_counts)
    assert main(["verify-all", "--output", str(tmp_path / "report.json")]) == EXIT_OK
    # the seven plane cells run nu, then the census; the three k = 1
    # sharpness cells census sets of their own
    assert len(built) == len({id(E) for E in built}) == 10
    assert len(nu_sets) == 7 and after_nu == [0] * 7


def test_verify_all_builds_each_point_set_and_area_table_once(capsys, monkeypatch):
    # 33 cells over 15 distinct (ring, construction) pairs, the theorem-6.1
    # planes among them: one construction each, and one area table each
    # but the Z/27Z and Z/25Z planes and the F_3 union of circles, which
    # only nu and the k = 1 census read, from area rows
    from test_acceptance import VERIFY_ALL_SHA256

    from areal import census as cn
    from areal import cli

    built, tables = [], []
    construction_from_json, area_index_table = cli.cons.construction_from_json, cn.area_index_table

    def constructed(spec, obj):
        built.append((spec, json.dumps(obj, sort_keys=True)))
        return construction_from_json(spec, obj)

    def tabled(E):
        tables.append((E.spec, E.points))
        return area_index_table(E)

    monkeypatch.setattr(cli.cons, "construction_from_json", constructed)
    monkeypatch.setattr(cn, "area_index_table", tabled)
    assert main(["verify-all"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_SHA256
    assert len(built) == len(set(built)) == 15
    assert len(tables) == len(set(tables)) == 12


@pytest.mark.parametrize(
    "mutant",
    [
        # q^2 for the q^2 - 1 nonzero vectors of an F_q plane
        lambda orbits, spec: [(r, size + (size == spec.size() ** 2 - 1)) for r, size in orbits],
        # the orbit of p^(l-1) (1, 0) left out of a Z/p^l Z plane
        lambda orbits, spec: orbits[:-1] if spec.max_level > 1 else orbits,
    ],
    ids=["field-weight", "missing-level"],
)
def test_verify_all_fails_with_a_wrong_plane_orbit_table(tmp_path, monkeypatch, mutant):
    # the orbit table weights every plane census and nu: a wrong weight
    # must fail the census's closed forms and lemma-2.3's oracle
    from areal import census as cn

    plane_orbits = cn.plane_orbits
    monkeypatch.setattr(cn, "plane_orbits", lambda spec: mutant(plane_orbits(spec), spec))
    dest = tmp_path / "report.json"
    assert main(["verify-all", "--output", str(dest)]) == EXIT_CHECK_FAILED
    checks = [c for e in json.loads(dest.read_text())["experiments"] for c in e["checks"]]
    own_sums = {"tuples_by_level sums to total_tuples", "classes_by_level sums to total_classes",
                "every level has a class"}
    assert any(set(c.get("failed", ())) - own_sums for c in checks if c["check"] == "census")
    assert any("fast == oracle" in c.get("failed", ()) for c in checks if c["check"] == "lemma-2.3")


@pytest.mark.parametrize(
    "check,required", [("lemma-4.2", 1027242720), ("lemma-4.1", 1045815268377600)], ids=["lemma-4.2", "lemma-4.1"]
)
def test_a_ring_only_refusal_builds_no_point_set(tmp_path, capsys, monkeypatch, check, required):
    # |SL_2(F_1009)| = 1,027,242,720 is past the default budget of 10^9,
    # which the plane's q^2 = 1,018,081 points pass; lemma-4.1 charges
    # |SL_2| |X|, with the q^2 - 1 points of the orbit X
    from areal import cli

    def unbuilt(spec, obj):
        raise AssertionError("a ring-only check built the point set")

    monkeypatch.setattr(cli.cons, "construction_from_json", unbuilt)
    obj = {"ring": {"family": "prime-field", "p": 1009}, "checks": [check]}
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert f"{required} tuple visits" in capsys.readouterr().err


Z27_RING = {"family": "mod-prime-power", "p": 3, "ell": 3}


@pytest.mark.parametrize(
    "ring, k, checks, code",
    [
        ({"family": "prime-field", "p": 1009}, 1, ["lemma-4.2"], EXIT_BUDGET),
        (Z27_RING, 3, ["theorem-6.1", "census"], EXIT_BUDGET),  # the plane's census: 729^4 tuples
        ({"family": "prime-field", "p": 7}, 1, ["lemma-4.2", "nu"], EXIT_INVALID),
        ({"family": "prime-field", "p": 7}, 1, ["lemma-4.2"], EXIT_INVALID),
    ],
    ids=["ring-check-refuses-first", "plane-check-refuses-first", "E-read-next", "E-read-for-set-size"],
)
def test_checks_refuse_in_order_before_a_malformed_construction(tmp_path, capsys, ring, k, checks, code):
    # the circle r = 5000 is no element of the ring: it is refused when the
    # point set is first read, by a check or for the report's set_size,
    # and a check that reads only the ring or the plane, listed first,
    # refuses for budget before that
    obj = {"ring": ring, "k": k, "construction": {"kind": "circle", "r": 5000}, "checks": checks}
    assert main(["run", write_config(tmp_path, obj)]) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("budget exceeded:" if code == EXIT_BUDGET else "invalid config: bad construction")


def test_the_memo_holds_no_class_dict():
    """The Z/27Z k=3 sample has 137,851 classes, a 10 MiB class dict;
    the memo keeps only the census's per-level tallies."""
    obj = {
        "ring": {"family": "mod-prime-power", "p": 3, "ell": 3}, "k": 3,
        "construction": SAMPLE20, "checks": ["census"],
    }
    held, _, classes = traced(
        "from areal.cli import ExperimentConfig, Memo, run_experiment\n"
        f"cfg = ExperimentConfig.from_json({obj!r})\n"
        "memo = Memo()",
        "run_experiment(cfg, memo=memo)",
        "memo.census(cfg).total_classes",
    )
    assert classes == 137_851
    assert held < 2 ** 20


HUGE_RING = {"family": "mod-prime-power", "p": 3, "ell": 10000}


@pytest.mark.parametrize(
    "construction",
    [{"kind": "full-plane"}, {"kind": "random-subset", "size": 3, "seed": 1}],
    ids=["full-plane", "random-subset"],
)
def test_run_budgets_the_plane_before_enumerating_it(tmp_path, capsys, monkeypatch, construction):
    from areal.rings import RingSpec

    def no_scan(self):
        raise AssertionError("the plane was enumerated before the budget check")

    monkeypatch.setattr(RingSpec, "elements", no_scan)
    obj = {"ring": HUGE_RING, "construction": construction, "checks": ["census"]}
    start = time.monotonic()
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert time.monotonic() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("budget exceeded:")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_huge_ell_is_refused_before_p_to_the_ell_is_built(tmp_path, capsys, command):
    # q^2 = 3^(2 * 10^8) passes any budget; building q alone takes minutes.
    # The charge, 2^budget.bit_length(), is a lower bound, and says so
    ring = {"family": "mod-prime-power", "p": 3, "ell": 10 ** 8}
    obj = {"ring": ring, "checks": ["census"]}
    needs = "at least 1073741824 tuple visits but the budget is 1000000000"
    if command == "sweep":
        obj = {"experiment": {"ring": dict(ring, ell=1), "budget": 10 ** 5},
               "variable": "ell", "values": [10 ** 8]}
        needs = "at least 131072 tuple visits but the budget is 100000"
    start = time.monotonic()
    assert main([command, write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert time.monotonic() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget exceeded: enumeration needs {needs}\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "patch, reason",
    [({"budget": 0}, "budget must be > 0"), ({"k": 0}, "k must be >= 1")],
    ids=["budget-0", "k-0"],
)
def test_an_invalid_config_over_a_huge_ell_is_refused_before_any_ring_work(
    tmp_path, capsys, command, patch, reason
):
    # k, the checks and the budget are read before the ring: an invalid
    # one exits 2 at once, not 3 from the huge-ell refusal nor after
    # minutes of building p^ell
    ring = {"family": "mod-prime-power", "p": 3, "ell": 10 ** 8}
    obj = dict({"ring": ring, "checks": ["census"]}, **patch)
    if command == "sweep":
        obj = {"experiment": dict({"ring": dict(ring, ell=1)}, **patch),
               "variable": "ell", "values": [10 ** 8]}
    start = time.monotonic()
    assert main([command, write_config(tmp_path, obj)]) == EXIT_INVALID
    assert time.monotonic() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid config: {reason}\n"


def test_a_huge_ell_over_a_p_that_is_not_prime_is_invalid(tmp_path, capsys):
    obj = {"ring": {"family": "mod-prime-power", "p": 9, "ell": 10 ** 8}, "checks": ["census"]}
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid config: bad ring spec")


@pytest.mark.parametrize(
    "command, budget, needs",
    [("run", 100, 15625), ("verify-all", 100, 625), ("verify-all", 1, 81)],
    ids=["Z125-census", "verify-all-Z25", "verify-all-Z9"],
)
def test_a_modulus_refused_before_it_is_built_is_charged_exactly_when_cheap(
    tmp_path, capsys, command, budget, needs
):
    # q^2 passes these budgets for certain, and is small enough to charge
    # exactly: 5^6 for Z/125Z, then the first matrix ring refused, Z/25Z
    # at budget 100 and Z/9Z at budget 1
    argv = ["verify-all", "--budget", str(budget)]
    if command == "run":
        ring = {"family": "mod-prime-power", "p": 5, "ell": 3}
        argv = ["run", write_config(tmp_path, {"ring": ring, "checks": ["census"], "budget": budget})]
    assert main(argv) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget exceeded: enumeration needs {needs} tuple visits but the budget is {budget}\n"


@pytest.mark.parametrize("k", [1, 2])
def test_lemma_2_2_fails_when_inverses_are_off_by_one(tmp_path, capsys, monkeypatch, k):
    # recover_g checks g only off its base pair, so a wrong base inverse
    # must show in the scan, which compares each g with its move bitsets
    from areal.rings import PrimeField

    inv = PrimeField.inv
    monkeypatch.setattr(PrimeField, "inv", lambda self, a: (inv(self, a) + 1) % self.p)
    obj = dict(F3_CENSUS, k=k, checks=["lemma-2.2"])
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    (check,) = json.loads(out)["checks"]
    assert "scan matches recover_g" in check["failed"]
    assert err == "lemma-2.2: FAIL\n"


def test_lemma_2_2_builds_its_move_table_once_and_applies_nothing_per_tuple(monkeypatch):
    from areal import census as cn
    from areal import cli, configs
    from areal.rings import PrimeField

    applied, config_calls, table_calls, signatures = [], [], [], []
    apply_mat, group_moves, apply_config = PrimeField.apply_mat, cn.group_moves, cli.apply_config
    signature = configs.signature

    def counted_apply(self, m, v):
        applied.append(m)
        return apply_mat(self, m, v)

    def counted_moves(E, group):
        before = len(applied)
        moves = group_moves(E, group)
        table_calls.append(len(applied) - before)
        return moves

    def counted_config(spec, g, points):
        config_calls.append(points)
        return apply_config(spec, g, points)

    def counted_signature(spec, points):
        signatures.append(points)
        return signature(spec, points)

    monkeypatch.setattr(PrimeField, "apply_mat", counted_apply)
    monkeypatch.setattr(cn, "group_moves", counted_moves)
    monkeypatch.setattr(cli, "apply_config", counted_config)
    monkeypatch.setattr(configs, "signature", counted_signature)
    report = run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"], k=2)))
    (check,) = report["checks"]
    assert check == {"check": "lemma-2.2", "good_classes": "26", "pairs_checked": "14976", "ok": True}
    # one table of |SL_2(F_3)| * 9 points; no tuple is sent through the group
    assert table_calls == [24 * 9] and config_calls == []
    # the other applications are recover_g's: two columns, and the one
    # point outside the base pair, per pair; g sends the pair by construction
    assert len(applied) - 24 * 9 == 14976 * 3
    # one signature per tuple, read by its recovery; none per pair, since
    # recover_g compares one area
    assert len(signatures) == 9 ** 3


@pytest.mark.parametrize("case", ["F7-subset4-k1", "Z9-subset12-k1", "F9-subset12-k1"])
def test_lemma_2_2_accepts_exactly_the_equivalent_pairs(monkeypatch, case):
    import itertools

    from areal import cli
    from areal.configs import first_unit_pair, signature

    accepted = []
    recovery = cli.recovery

    def recorded(spec, xs):
        recover = recovery(spec, xs)

        def accept(ys):
            accepted.append((xs, ys))
            return recover(ys)

        return recover and accept

    monkeypatch.setattr(cli, "recovery", recorded)
    ring, construction, k, _, _ = LEMMA_2_2_CASES[case]
    cfg = ExperimentConfig.from_json(
        {"ring": ring, "construction": construction, "k": k, "checks": ["lemma-2.2"]}
    )
    (check,) = run_experiment(cfg)["checks"]
    assert check["ok"] is True
    spec, E = cfg.spec, cfg.point_set()
    assert all(signature(spec, ys) == signature(spec, xs) for xs, ys in accepted)
    # the classes, grouped here through configs.signature
    classes: dict = {}
    for xs in itertools.product(E.points, repeat=k + 1):
        if first_unit_pair(spec, xs) is not None:
            classes[signature(spec, xs)] = classes.get(signature(spec, xs), 0) + 1
    assert len(set(accepted)) == len(accepted) == sum(c * c for c in classes.values())


def test_lemma_2_2_fails_when_a_move_mask_loses_a_bit(monkeypatch):
    # every bit of every mask from a nonzero point is some good pair's element
    from areal import census as cn
    from areal import cli

    cfg = ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"]))
    memo = cli.Memo()
    E, group_moves = memo.points(cfg), cn.group_moves
    moves = group_moves(E, list(cli.enumerate_sl2(cfg.spec)))
    assert cli._check_lemma_2_2(cfg, memo)[0]["pairs_checked"] == 1152
    cleared = 0
    for i, x in enumerate(E.points):
        if x == (0, 0):  # in no good tuple at k=1
            continue
        for j, mask in moves[i]:
            for b in (b for b in range(mask.bit_length()) if mask >> b & 1):
                def dropped(E, group, i=i, j=j, b=b):
                    table = group_moves(E, group)
                    table[i] = [(t, m & ~(1 << b) if t == j else m) for t, m in table[i]]
                    return table

                monkeypatch.setattr(cn, "group_moves", dropped)
                values, conditions = cli._check_lemma_2_2(cfg, memo)
                assert values["pairs_checked"] < 1152
                assert [name for name, holds in conditions.items() if not holds] == [
                    "pairs_checked == equivalent_good_pairs"
                ]
                cleared += 1
    assert cleared == 8 * 24


def test_lemma_2_2_cross_checks_recover_g(monkeypatch):
    from areal import cli

    recovery = cli.recovery

    def negated(spec, xs):  # -g is another element of SL_2, and g != -g
        recover = recovery(spec, xs)
        return recover and (lambda ys: tuple(spec.neg(a) for a in recover(ys)))

    monkeypatch.setattr(cli, "recovery", negated)
    report = run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"])))
    assert report["checks"] == [
        {"check": "lemma-2.2", "good_classes": "2", "pairs_checked": "0", "ok": False,
         "failed": ["scan matches recover_g", "pairs_checked == equivalent_good_pairs"]}
    ]


LEMMA_2_2_CASES = {
    # name: (ring, construction, k, good_classes, pairs_checked)
    "F3-plane-k1": ({"family": "prime-field", "p": 3}, {"kind": "full-plane"}, 1, 2, 1152),
    "F3-plane-k2": ({"family": "prime-field", "p": 3}, {"kind": "full-plane"}, 2, 26, 14976),
    "F5-plane-k1": ({"family": "prime-field", "p": 5}, {"kind": "full-plane"}, 1, 4, 57600),
    "F7-subset4-k1": ({"family": "prime-field", "p": 7},
                      {"kind": "random-subset", "size": 4, "seed": 1}, 1, 4, 36),
    "F5-circles-k2": ({"family": "prime-field", "p": 5},
                      {"kind": "union-circles", "radii": [1, 4]}, 2, 48, 3072),
    "Z9-subset12-k1": (Z9_RING, {"kind": "random-subset", "size": 12, "seed": 1}, 1, 6, 1170),
    "Z27-subset5-k1": ({"family": "mod-prime-power", "p": 3, "ell": 3},
                       {"kind": "random-subset", "size": 5, "seed": 2}, 1, 4, 10),
    "F9-subset12-k1": (F9_RING, {"kind": "random-subset", "size": 12, "seed": 2}, 1, 8, 1460),
}


@pytest.mark.parametrize("case", LEMMA_2_2_CASES, ids=str)
def test_lemma_2_2_reaches_every_equivalent_good_pair(case):
    ring, construction, k, good_classes, pairs_checked = LEMMA_2_2_CASES[case]
    obj = {"ring": ring, "construction": construction, "k": k, "checks": ["lemma-2.2"]}
    (check,) = run_experiment(ExperimentConfig.from_json(obj))["checks"]
    assert check == {"check": "lemma-2.2", "good_classes": str(good_classes),
                     "pairs_checked": str(pairs_checked), "ok": True}


@pytest.mark.parametrize("case", LEMMA_2_2_CASES, ids=str)
def test_lemma_2_2_pairs_are_the_census_sum_of_squares(case):
    from areal import census as cn

    ring, construction, k, _, pairs_checked = LEMMA_2_2_CASES[case]
    obj = {"ring": ring, "construction": construction, "k": k, "checks": ["census"]}
    cfg = ExperimentConfig.from_json(obj)
    assert cn.count_classes(cfg.point_set(), k).equivalent_good_pairs() == pairs_checked


def test_lemma_2_2_holds_one_recovery_per_good_tuple(monkeypatch):
    # each of the 729 tuples of the F_3 plane at k=2 gets one recovery,
    # which is not None for its 26 * 24 good tuples, and the 14,976
    # equivalent pairs are checked through them
    from areal import cli

    recovery = cli.recovery
    made = []

    def counted(spec, xs):
        made.append(recovery(spec, xs))
        return made[-1]

    monkeypatch.setattr(cli, "recovery", counted)
    report = run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"], k=2)))
    assert report["checks"][0]["pairs_checked"] == "14976" and report["ok"] is True
    assert len(made) == 3 ** 6 and sum(r is not None for r in made) == 26 * 24


def test_nu_and_census_build_one_area_table_per_experiment(monkeypatch):
    # nu and the k = 1 census read area rows and build no table; the
    # census at k = 2 builds one
    from areal import census as cn

    calls = []
    area_index_table = cn.area_index_table

    def counted(E):
        calls.append(len(E))
        return area_index_table(E)

    monkeypatch.setattr(cn, "area_index_table", counted)
    subset = {"kind": "random-subset", "size": 200, "seed": 1}
    for construction, k, tables in ((FULL, 1, []), (subset, 1, []), (subset, 2, [200])):
        calls.clear()
        obj = {"ring": {"family": "mod-prime-power", "p": 3, "ell": 3}, "construction": construction,
               "k": k, "checks": ["nu", "census"]}
        assert run_experiment(ExperimentConfig.from_json(obj))["ok"] is True
        assert calls == tables


def test_lemma_2_2_fails_when_the_group_misses_an_element(monkeypatch):
    from areal import cli

    enumerate_sl2 = cli.enumerate_sl2
    monkeypatch.setattr(cli, "enumerate_sl2", lambda spec: list(enumerate_sl2(spec))[:-1])
    report = run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"], k=2)))
    # each of the 26 * 24 good tuples loses the one pair the dropped g gave it
    assert report["checks"] == [
        {"check": "lemma-2.2", "good_classes": "26", "pairs_checked": "14352", "ok": False,
         "failed": ["pairs_checked == equivalent_good_pairs"]}
    ]


def test_lemma_2_2_fails_when_the_census_overcounts_its_pairs(monkeypatch):
    from areal import census as cn

    equivalent_good_pairs = cn.CensusReport.equivalent_good_pairs
    monkeypatch.setattr(
        cn.CensusReport, "equivalent_good_pairs", lambda self: equivalent_good_pairs(self) + 1
    )
    report = run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-2.2"], k=2)))
    assert report["checks"] == [
        {"check": "lemma-2.2", "good_classes": "26", "pairs_checked": "14976", "ok": False,
         "failed": ["pairs_checked == equivalent_good_pairs"]}
    ]


def test_lemma_2_3_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    cfg = ExperimentConfig.from_json(
        {"ring": {"family": "mod-prime-power", "p": 3, "ell": 2},
         "construction": {"kind": "full-plane"}, "checks": ["lemma-2.3"]}
    )
    (passing,) = run_experiment(cfg)["checks"]
    assert passing["ok"] is True and "failed" not in passing
    count_bad_tuples_naive = cn.count_bad_tuples_naive
    monkeypatch.setattr(
        cn, "count_bad_tuples_naive", lambda E, k, budget: {**count_bad_tuples_naive(E, k), 0: 0}
    )
    (report,) = run_experiment(cfg)["checks"]
    assert report["ok"] is False and report["failed"] == ["fast == oracle"]
    # a shape of 1 leaves every bad tuple in the constants
    monkeypatch.setattr(cn, "bad_tuple_shape", lambda spec, k, size, m: 1)
    (report,) = run_experiment(cfg)["checks"]
    assert report["level_constants"] == {"1": "1728", "2": "945"}
    assert report["failed"] == [
        "fast == oracle", "constant <= 4", "level_constants[1] <= 4", "level_constants[2] <= 4"
    ]


def _one_check(obj):
    (report,) = run_experiment(ExperimentConfig.from_json(obj))["checks"]
    return report


def test_lemma_2_4_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    obj = {"ring": {"family": "prime-field", "p": 3}, "k": 2, "checks": ["lemma-2.4"]}
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    monkeypatch.setattr(cn.FProfile, "sum_power", lambda self, exp: 0)
    report = _one_check(obj)
    assert report["ok"] is False and report["failed"] == ["f_bound_ok"]
    # one equivalent pair cannot hold the 1,296 good tuples squared
    monkeypatch.setattr(cn.CensusReport, "equivalent_good_pairs", lambda self: 1)
    report = _one_check(obj)
    assert report["failed"] == ["cauchy_schwarz_ok", "f_bound_ok"]


def test_theorem_6_1_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    obj = {"ring": {"family": "mod-prime-power", "p": 3, "ell": 2}, "checks": ["theorem-6.1"]}
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    monkeypatch.setattr(cn, "sl2_order", lambda spec: 1)
    report = _one_check(obj)
    assert report["ok"] is False and report["failed"] == ["good_free_action_ok"]
    count_classes = cn.count_classes

    def with_lone_bad_tuples(E, k, budget):
        # 4 * shape + 1 more classes of one tuple at every bad level m: too
        # small a class, and too many classes for the shape 3^(2(2k-1) + (2-k)m)
        report = count_classes(E, k, budget)
        for m in (1, 2):
            shape = 3 ** (2 * (2 * k - 1) + (2 - k) * m)
            report.size_tally[m][1] = report.size_tally[m].get(1, 0) + 4 * shape + 1
        return report

    monkeypatch.setattr(cn, "count_classes", with_lone_bad_tuples)
    report = _one_check(obj)
    assert report["failed"] == [
        "good_free_action_ok",
        "levels[m=1].size_ok", "levels[m=1].count_constant <= 4",
        "levels[m=2].size_ok", "levels[m=2].count_constant <= 4",
    ]


def test_sharpness_names_each_failed_condition(monkeypatch):
    from areal import census as cn
    from areal import cli

    mod_sharpness = {"ring": {"family": "mod-prime-power", "p": 3, "ell": 2},
                     "construction": {"kind": "mod-sharpness"}, "checks": ["sharpness"]}
    passing = _one_check(mod_sharpness)
    assert passing["ok"] is True and "failed" not in passing
    point_set = ExperimentConfig.point_set
    monkeypatch.setattr(
        ExperimentConfig, "point_set", lambda cfg: cn.PointSet(cfg.spec, point_set(cfg).points[1:])
    )
    report = _one_check(mod_sharpness)
    assert report["ok"] is False and report["failed"] == ["set_size == expected_size"]
    count_classes = cn.count_classes

    def one_more_tuple(E, k, budget):
        report = count_classes(E, k, budget)
        return report._replace(total_tuples=report.total_tuples + 1)

    monkeypatch.setattr(cn, "count_classes", one_more_tuple)
    report = _one_check(mod_sharpness)
    assert report["failed"] == ["set_size == expected_size", "bad_tuples == total_tuples"]
    monkeypatch.undo()

    circle = {"ring": {"family": "prime-field", "p": 5}, "construction": {"kind": "circle", "r": 1},
              "checks": ["sharpness"]}
    passing = _one_check(circle)
    assert passing["ok"] is True and "failed" not in passing
    # a shear does not keep the circle, and with the orbit forced to 0 or
    # to a huge size, each orbit condition fails in turn
    rotation_group = cli.cons.rotation_group
    monkeypatch.setattr(cli.cons, "rotation_group", lambda spec: rotation_group(spec) + [(1, 1, 0, 1)])
    rotation_orbits = cli.rotation_orbits
    monkeypatch.setattr(cli, "rotation_orbits", lambda E, rotations, budget: (
        rotation_orbits(E, rotations, budget)[0], 0))
    report = _one_check(circle)
    assert report["failed"] == ["rotation_closed", "2 * min_orbit >= rotation_group_size"]
    monkeypatch.setattr(cli, "rotation_orbits", lambda E, rotations, budget: (
        rotation_orbits(E, rotations, budget)[0], 10 ** 6))
    report = _one_check(circle)
    assert report["failed"] == ["rotation_closed", "total_classes * min_orbit <= total_tuples"]


def _rotation_cases():
    from areal import census as cn
    from areal import constructions as cons
    from areal.rings import mod_prime_power, prime_field

    F5, F7, Z9 = prime_field(5), prime_field(7), mod_prime_power(3, 2)
    shear = [(1, 1, 0, 1)]
    return {
        # radius 0 holds the fixed point (0, 0)
        "F5-circle1": (cons.circle(F5, 1), cons.rotation_group(F5)),
        "F5-union14": (cons.union_circles(F5, [1, 4]), cons.rotation_group(F5)),
        "F5-union01": (cons.union_circles(F5, [0, 1]), cons.rotation_group(F5)),
        "F7-circle3": (cons.circle(F7, 3), cons.rotation_group(F7)),
        "F7-union02": (cons.union_circles(F7, [0, 2]), cons.rotation_group(F7)),
        # orbits of 12 and 4: the least point does not have the smallest orbit
        "Z9-two-points": (cn.PointSet(Z9, [(1, 0), (3, 0)]), cons.rotation_group(Z9)),
        "empty": (cn.PointSet(F5, []), cons.rotation_group(F5)),
        # a list that is not a group
        "F5-circle1-shear": (cons.circle(F5, 1), cons.rotation_group(F5) + shear),
        "F7-circle2-shear": (cons.circle(F7, 2), cons.rotation_group(F7) + shear),
    }


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", list(_rotation_cases()))
def test_min_rotation_orbit_matches_the_tuple_orbits(case, k):
    import itertools

    from areal import cli

    E, mats = _rotation_cases()[case]
    reference = min(
        (len({cli.apply_config(E.spec, g, t) for g in mats}) for t in itertools.product(E.points, repeat=k + 1)),
        default=0,
    )
    closed = all(E.spec.apply_mat(g, x) in E for g in mats for x in E.points)
    assert cli.rotation_orbits(E, mats, 10 ** 9) == (closed, reference)


def test_min_rotation_orbit_charges_one_visit_per_point_and_matrix(tmp_path, capsys):
    from areal import census as cn
    from areal import cli

    E, mats = _rotation_cases()["F5-union14"]
    with pytest.raises(cn.BudgetExceeded) as err:
        cli.rotation_orbits(E, mats, 8 * 4 - 1)
    assert err.value.required == 8 * 4
    # the census charges 8^3 = 512 and sharpness 8 * 4 = 32, both within 1000
    obj = {"ring": {"family": "prime-field", "p": 5},
           "construction": {"kind": "union-circles", "radii": [1, 4]},
           "k": 2, "budget": 1000, "checks": ["census", "sharpness"]}
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_OK
    assert capsys.readouterr().err == "census: PASS\nsharpness: PASS\n"


def test_sharpness_charges_its_rotations_before_applying_any(tmp_path, capsys, monkeypatch):
    # the Z/9Z circle r = 0 has 9 points and Z/9Z has 12 rotations: the
    # census's 81 visits fit a budget of 100, the 108 applications do not
    from areal import cli
    from areal.rings import ModPrimePower

    inside, applied = [], []
    sharpness, apply_mat = cli._CHECKS["sharpness"], ModPrimePower.apply_mat

    def marked(cfg, memo):
        inside.append(True)
        try:
            return sharpness(cfg, memo)
        finally:
            inside.pop()

    def counted(self, m, v):
        if inside:
            applied.append(v)
        return apply_mat(self, m, v)

    monkeypatch.setitem(cli._CHECKS, "sharpness", marked)
    monkeypatch.setattr(ModPrimePower, "apply_mat", counted)
    obj = {"ring": {"family": "mod-prime-power", "p": 3, "ell": 2},
           "construction": {"kind": "circle", "r": 0}, "budget": 100, "checks": ["sharpness"]}
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert "needs 108 tuple visits" in capsys.readouterr().err
    assert applied == []
    # within the budget each point goes through each rotation once; the
    # origin is its own orbit, so 2 * min_orbit >= 12 fails
    assert main(["run", write_config(tmp_path, dict(obj, budget=108))]) == EXIT_CHECK_FAILED
    assert len(applied) == 9 * 12
    assert "sharpness: FAIL" in capsys.readouterr().err


def test_f_moments_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    # every point of a circle is in the designated orbit, so the orbit sum is checked
    obj = {"ring": {"family": "prime-field", "p": 5}, "construction": {"kind": "circle", "r": 1},
           "checks": ["f-moments"]}
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    assert "sum_f_times_orbit" in passing and "unique_on_good" in passing["moment_identity"]
    f_profile, moments = cn.f_profile, cn.moments

    def one_more_everywhere(E, budget):
        # f + 1 keeps the excess but breaks every other identity and bound
        return cn.FProfile(tuple(v + 1 for v in f_profile(E, budget).values))

    monkeypatch.setattr(cn, "f_profile", one_more_everywhere)
    report = _one_check(obj)
    # the identity's moves and areas do not read f, so only its first condition fails
    assert report["ok"] is False and report["failed"] == [
        "f_identity == set_size", "max <= set_size",
        "sum_f_times_orbit == order_times_size_sq", "moment_identity.f_square_sum == stabilizer_sum",
    ]
    monkeypatch.setattr(cn, "f_profile", f_profile)
    monkeypatch.setattr(cn, "moments", lambda values: (*moments(values)[:3], Fraction(-1)))
    assert _one_check(obj)["failed"] == ["excess >= 0"]


def test_lemma_2_2_names_each_failed_condition(monkeypatch):
    from areal import census as cn
    from areal import cli

    obj = dict(F3_CENSUS, checks=["lemma-2.2"])
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    monkeypatch.setattr(cn.CensusReport, "equivalent_good_pairs", lambda self: 10 ** 6)
    report = _one_check(obj)
    assert report["ok"] is False and report["failed"] == ["pairs_checked == equivalent_good_pairs"]
    monkeypatch.undo()
    # a scan that stops at its first pair reaches too few pairs as well
    recovery = cli.recovery
    monkeypatch.setattr(cli, "recovery", lambda spec, xs: recovery(spec, xs) and (lambda ys: None))
    assert _one_check(obj)["failed"] == [
        "scan matches recover_g", "pairs_checked == equivalent_good_pairs"
    ]


def test_lemma_3_1_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    obj = {"ring": {"family": "prime-field", "p": 3}, "k": 2, "checks": ["lemma-3.1"]}
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    moment_lift_check = cn.moment_lift_check

    def falsified(values, k, failed):
        values, conditions = moment_lift_check(values, k)
        return values, {**conditions, **dict.fromkeys(failed, False)}

    for failed in (["lhs <= rhs"], ["excess >= 0"], ["lhs <= rhs", "excess >= 0"]):
        monkeypatch.setattr(cn, "moment_lift_check", lambda values, k, failed=failed: falsified(values, k, failed))
        report = _one_check(obj)
        assert report["ok"] is False and report["failed"] == failed
        assert report["lhs"] == passing["lhs"] and report["rhs"] == passing["rhs"]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_returns_its_values_and_named_conditions(name):
    # run_experiment alone sets "ok" and "failed", from the conditions
    from areal import cli

    ring = {"family": "mod-prime-power", "p": 3, "ell": 2} if name == "theorem-6.1" else F3_CENSUS["ring"]
    construction = {"kind": "union-circles", "radii": [1]} if name == "sharpness" else FULL
    cfg = ExperimentConfig.from_json({"ring": ring, "construction": construction, "checks": [name]})
    values, conditions = cli._CHECKS[name](cfg, Memo())
    assert type(values) is dict and not {"ok", "failed"} & values.keys()
    assert type(conditions) is dict and conditions
    assert all(type(cond) is str and type(holds) is bool for cond, holds in conditions.items())
    assert all(conditions.values())


@pytest.mark.parametrize(
    "name", ["flemma_check", "mbad_class_size_check", "moment_lift_check", "moment_identity_check"]
)
def test_every_engine_checker_returns_its_values_and_named_conditions(name):
    # lemma-2.4, theorem-6.1, lemma-3.1 and f-moments report these pairs,
    # so no engine judges itself
    from areal import census as cn
    from areal.constructions import full_plane
    from areal.rings import mod_prime_power, prime_field

    E, plane = full_plane(prime_field(3)), full_plane(mod_prime_power(3, 2))
    calls = {
        "flemma_check": lambda: cn.flemma_check(cn.count_classes(E, 2), cn.f_profile(E)),
        "mbad_class_size_check": lambda: cn.mbad_class_size_check(cn.count_classes(plane, 2)),
        "moment_lift_check": lambda: cn.moment_lift_check(cn.f_profile(E).values, 2),
        "moment_identity_check": lambda: cn.moment_identity_check(E, cn.f_profile(E)),
    }
    values, conditions = calls[name]()
    assert type(values) is dict and not {"ok", "failed"} & values.keys()
    assert type(conditions) is dict and conditions
    assert all(type(cond) is str and type(holds) is bool for cond, holds in conditions.items())
    assert all(conditions.values())


@pytest.mark.parametrize(
    "condition", ["f_square_sum == stabilizer_sum", "unique_on_good", "matched_part == matched_quadruples"]
)
def test_f_moments_names_the_failed_moment_identity_condition(monkeypatch, condition):
    from areal import census as cn

    moment_identity_check = cn.moment_identity_check

    def falsified(E, profile, budget):
        values, conditions = moment_identity_check(E, profile, budget)
        return values, {**conditions, condition: False}

    monkeypatch.setattr(cn, "moment_identity_check", falsified)
    report = _one_check(dict(F3_CENSUS, checks=["f-moments"]))
    assert report["ok"] is False and report["failed"] == [f"moment_identity.{condition}"]


def test_lemma_4_2_names_its_failed_condition(monkeypatch):
    from areal import cli

    obj = dict(F3_CENSUS, checks=["lemma-4.2"])
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    enumerate_sl2 = cli.enumerate_sl2
    monkeypatch.setattr(cli, "enumerate_sl2", lambda spec: list(enumerate_sl2(spec))[1:])
    assert _one_check(obj) == {"check": "lemma-4.2", "formula": "24", "enumerated": "23",
                               "ok": False, "failed": ["formula == enumerated"]}


def test_nu_names_its_failed_condition(monkeypatch):
    from areal import census as cn

    obj = dict(F3_CENSUS, checks=["nu"])
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    nu_histogram = cn.nu_histogram

    def one_pair_dropped(E, budget):
        hist = nu_histogram(E, budget)
        return hist._replace(counts={**hist.counts, 0: hist.counts[0] - 1})

    monkeypatch.setattr(cn, "nu_histogram", one_pair_dropped)
    report = _one_check(obj)
    assert (report["total"], report["expected_total"]) == ("80", "81")
    assert report["ok"] is False and report["failed"] == ["total == expected_total"]


def test_census_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    obj = dict(F3_CENSUS, checks=["census"])
    passing = _one_check(obj)
    assert passing["ok"] is True and "failed" not in passing
    count_classes = cn.count_classes
    for field, change, failed in (
        # one tuple moves out of level 0, then one class, then an empty level 2 appears
        ("tuples_by_level", {0: 47}, "tuples_by_level sums to total_tuples"),
        ("classes_by_level", {0: 1}, "classes_by_level sums to total_classes"),
        ("classes_by_level", {2: 0}, "every level has a class"),
    ):
        def changed(E, k, budget, field=field, change=change):
            report = count_classes(E, k, budget)
            getattr(report, field).update(change)
            return report

        monkeypatch.setattr(cn, "count_classes", changed)
        report = _one_check(obj)
        assert report["ok"] is False and report["failed"] == [failed]
    # the level without a class is the only failure: its zero adds nothing to the sum
    assert report["classes_by_level"] == {"0": "2", "1": "1", "2": "0"}


def test_every_full_plane_census_of_the_matrix_checks_its_closed_forms():
    # 14 full-plane census cells, each with the closed forms of its plane;
    # the subset cells have none
    from areal import census as cn
    from areal import cli

    planes = 0
    for cfg in canonical_matrix(cn.DEFAULT_BUDGET):
        if "census" in cfg.checks:
            memo = Memo()
            _, conditions = cli._check_census(cfg, memo)
            forms = cn.plane_closed_forms(memo.census(cfg))
            full = cfg.construction == FULL
            planes += full
            assert list(conditions)[3:] == (list(forms) if full else [])
            assert all(conditions.values())
    assert planes == 14


def test_census_names_the_closed_form_that_a_wrong_area_count_breaks(monkeypatch):
    # nu loses one pair of area 1 on the F_3 plane: one good class of the
    # k = 1 census is no longer a free orbit
    from areal import census as cn

    area_counts = cn.PointSet.area_counts.func
    lost = property(lambda self: {t: c - (t == 1) for t, c in area_counts(self).items()})
    monkeypatch.setattr(cn.PointSet, "area_counts", lost)
    report = _one_check(dict(F3_CENSUS, checks=["census"]))
    assert report["failed"] == [
        "tuples_by_level sums to total_tuples", "size_tally[0] == {|SL_2|: good classes}",
    ]


def test_census_names_the_closed_forms_that_merged_orbits_break(monkeypatch):
    # two of the 26 good orbits of the F_3 plane at k = 2 become one class;
    # the census's own sums still agree
    from areal import census as cn

    signature_counts = cn.signature_counts

    def merged(E, k, budget):
        counts = signature_counts(E, k, budget)
        good = counts.tally[0]
        good[24] -= 2
        good[48] = 1
        return counts

    monkeypatch.setattr(cn, "signature_counts", merged)
    report = _one_check(dict(F3_CENSUS, k=2, checks=["census"]))
    assert report["failed"] == [
        "size_tally[0] == {|SL_2|: good classes}",
        "good classes == (q^(2(k+1)) - (q+1)(q^(k+1) - 1) - 1) / (q^3 - q)",
        "classes at level 0 == p^(n(l - 0)) - p^(n(l - 0 - 1))",
    ]


def test_census_names_the_closed_forms_that_a_level_read_too_high_breaks(monkeypatch):
    # every level-1 class of the Z/9Z plane at k = 2 is read at level 2
    from areal import census as cn

    key_badness = cn.key_badness
    monkeypatch.setattr(cn, "key_badness", lambda spec, keys: [m + (m == 1) for m in key_badness(spec, keys)])
    report = _one_check({"ring": Z9_RING, "k": 2, "checks": ["census"]})
    assert report["classes_by_level"] == {"0": "702", "2": "27"}
    assert report["failed"] == [
        "top level is one class", "classes at level 1 == p^(n(l - 1)) - p^(n(l - 1 - 1))",
    ]


def test_lemma_4_1_names_each_failed_condition(monkeypatch):
    from areal import census as cn

    obj = dict(F3_CENSUS, checks=["lemma-4.1"])
    passing = _one_check(obj)
    assert passing == {"check": "lemma-4.1", "phi": "3", "group_order": "24", "orbit_size": "8", "ok": True}
    transitivity_constant = cn.transitivity_constant
    monkeypatch.setattr(cn, "transitivity_constant", lambda spec, budget: transitivity_constant(spec, budget) + 1)
    report = _one_check(obj)
    assert report["ok"] is False and report["failed"] == ["phi * orbit_size == group_order"]

    def not_transitive(spec, budget):
        raise cn.NotTransitive(((1, 0), (0, 1)))

    monkeypatch.setattr(cn, "transitivity_constant", not_transitive)
    assert _one_check(obj) == {"check": "lemma-4.1", "counterexample": "((1, 0), (0, 1))",
                               "ok": False, "failed": ["transitive"]}


def test_lemma_4_1_fails_when_the_group_is_listed_twice(monkeypatch):
    # phi is the first count, phi(x_0, x_0), not an assumed q: a group that
    # yields each element twice reaches every pair 2q times, so the orbit
    # is still transitive and orbit-stabilizer fails
    from areal import census as cn

    enumerate_sl2 = cn.enumerate_sl2
    monkeypatch.setattr(cn, "enumerate_sl2", lambda spec: (g for g in enumerate_sl2(spec) for _ in range(2)))
    assert _one_check(dict(F3_CENSUS, checks=["lemma-4.1"])) == {
        "check": "lemma-4.1", "phi": "6", "group_order": "24", "orbit_size": "8",
        "ok": False, "failed": ["phi * orbit_size == group_order"],
    }


def test_lemma_4_1_and_f_moments_list_the_orbit_only_inside_transitivity(monkeypatch):
    # |X| comes from the closed form, and f-moments tests E against X
    # point by point, so only transitivity_constant lists X
    from areal import census as cn

    inside, listed = [], []
    designated_orbit, transitivity_constant = cn.designated_orbit, cn.transitivity_constant

    def marked(spec, budget):
        inside.append(True)
        try:
            return transitivity_constant(spec, budget)
        finally:
            inside.pop()

    def recorded(spec):
        listed.append(bool(inside))
        return designated_orbit(spec)

    monkeypatch.setattr(cn, "transitivity_constant", marked)
    monkeypatch.setattr(cn, "designated_orbit", recorded)
    assert run_experiment(ExperimentConfig.from_json(dict(F3_CENSUS, checks=["lemma-4.1", "f-moments"])))["ok"]
    assert listed == [True]
    # a circle lies in X, so f-moments checks its orbit sum, still without listing X
    (check,) = run_experiment(ExperimentConfig.from_json(
        dict(F3_CENSUS, construction={"kind": "circle", "r": 1}, checks=["f-moments"])))["checks"]
    assert check["ok"] is True and check["sum_f_times_orbit"] == check["order_times_size_sq"]
    assert listed == [True]


def test_f_moments_says_when_the_moment_identity_is_skipped(tmp_path, capsys):
    # f_profile needs |SL_2| * 9 = 216 visits; the identity needs 9^4 = 6561
    obj = dict(F3_CENSUS, checks=["f-moments"], budget=1000)
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_OK
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["moment_identity"] == "skipped: budget"
    assert check["ok"] is True
    obj["budget"] = 6561
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_OK
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["moment_identity"]["unique_on_good"] is True


def test_sweep_size_rows_over_the_f5_plane(tmp_path, capsys):
    obj = {
        "experiment": {"ring": {"family": "prime-field", "p": 5}, "k": 2, "checks": ["census"]},
        "variable": "size",
        "values": [4, 8, 12],
        "seeds": [1, 2, 3],
    }
    assert main(["sweep", write_config(tmp_path, obj)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "variable,value,seed,set_size,classes,plane_classes,proportion\n"
        "size,4,1,4,33,125,33/125\n"
        "size,4,2,4,33,125,33/125\n"
        "size,4,3,4,31,125,31/125\n"
        "size,8,1,8,101,125,101/125\n"
        "size,8,2,8,113,125,113/125\n"
        "size,8,3,8,117,125,117/125\n"
        "size,12,1,12,113,125,113/125\n"
        "size,12,2,12,113,125,113/125\n"
        "size,12,3,12,125,125,1\n"
    )


F5 = {"family": "prime-field", "p": 5}
F9 = {"family": "galois-field", "p": 3, "e": 2}
Z9 = {"family": "mod-prime-power", "p": 3, "ell": 2}
PLANE = {"kind": "full-plane"}
FIELD_CHECKS = [
    "census", "nu", "f-moments", "lemma-2.2", "lemma-2.3", "lemma-2.4",
    "lemma-3.1", "lemma-4.1", "lemma-4.2",
]


# Report shapes that verify-all does not reach, pinned by the sha256 of
# the bytes written to stdout (together, every check name at least once).
@pytest.mark.parametrize(
    "command, obj, code, sha256",
    [
        (
            "run",
            dict(F3_CENSUS, checks=FIELD_CHECKS, output={"format": "csv"}),
            EXIT_OK,
            "c51fa7ca5f355a7f998a1174c5d2f927382c3ddcc09e314e5c246f27257a2dd2",
        ),
        (
            "run",
            {"ring": F5, "construction": {"kind": "circle", "r": 1},
             "checks": ["f-moments", "sharpness", "lemma-3.1"]},
            EXIT_OK,
            "0bc792844eafe24992ae647e0f7f7c9f29b27e29d626da51b2d0c0930cb7d0fe",
        ),
        (
            "run",
            dict(F3_CENSUS, checks=["f-moments"], budget=1000),
            EXIT_OK,
            "22f26eb625f6a80d3e8f819974db1a57b90a07fc0ea4877ea77af14b9fd88cdb",
        ),
        (
            "run",
            {"ring": Z9, "construction": PLANE,
             "checks": ["census", "nu", "lemma-2.3", "lemma-4.1", "theorem-6.1"]},
            EXIT_OK,
            "4aa838259e69c1201aa3a4a1c55eb1b2de91cdea1ccd4757a76ebbb872097c00",
        ),
        (
            "run",
            {"ring": Z9, "k": 2, "construction": {"kind": "mod-sharpness"},
             "checks": ["sharpness", "census"], "output": {"format": "csv"}},
            EXIT_OK,
            "1907f306e9a57f938cf689084dd413033cf37594cac0e840421fbb395867ca64",
        ),
        (
            "run",
            {"ring": F9, "k": 2, "construction": {"kind": "random-subset", "size": 5, "seed": 3},
             "checks": ["nu", "census", "lemma-2.2", "lemma-2.4"]},
            EXIT_OK,
            "b5e0080feaf1bc5167a3764d76019730e2a59f214eeca23a147fd63a75fe7db3",
        ),
        (
            "run",
            dict(F3_CENSUS, construction={"kind": "circle", "r": 0}, checks=["sharpness"]),
            EXIT_CHECK_FAILED,
            "5984eb4dcddf2d4357b41f3f3298ecbcfc5f4940de8f21014d7997a22bb9ddcd",
        ),
        (
            "sweep",
            {"experiment": {"ring": dict(Z9, ell=1), "construction": {"kind": "random-subset", "size": 5}},
             "variable": "ell", "values": [1, 2], "seeds": [1, 2]},
            EXIT_OK,
            "9b5c0425720bb0ab95aa5923cbed0e5c24f9fed298a4d611cf41286e65a610bd",
        ),
    ],
    ids=[
        "f3-every-field-check-csv", "f5-circle-orbit-branch", "f-moments-skipped-budget",
        "z9-plane-theorem-6.1", "z9-mod-sharpness-csv", "f9-subset-galois-keys",
        "sharpness-fails", "sweep-ell",
    ],
)
def test_report_bytes_are_pinned(tmp_path, capsys, command, obj, code, sha256):
    assert main([command, write_config(tmp_path, obj)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("command", ["run", "sweep", "verify-all"])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    from areal import cli
    from areal import census as cn

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "canonical_matrix", no_work)
    monkeypatch.setattr(cn, "count_classes", no_work)
    dest = str(tmp_path / "missing" / "report.json")
    if command == "run":
        argv = ["run", write_config(tmp_path, F3_CENSUS), "--output", dest]
    elif command == "sweep":
        obj = {"experiment": SWEEP_EXPERIMENT, "variable": "k", "values": [1]}
        argv = ["sweep", write_config(tmp_path, obj), "--output", dest]
    else:
        argv = ["verify-all", "--output", dest]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid config: cannot write output")


def test_unwritable_config_output_path_exits_2(tmp_path, capsys):
    obj = dict(F3_CENSUS, output={"path": str(tmp_path)})  # a directory
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid config: cannot write output")


def test_failed_run_leaves_an_existing_output_untouched(tmp_path, capsys):
    dest = tmp_path / "report.json"
    dest.write_text("previous report\n")
    cfg = write_config(tmp_path, dict(F3_CENSUS, budget=5))
    assert main(["run", cfg, "--output", str(dest)]) == EXIT_BUDGET
    assert dest.read_text() == "previous report\n"
    fresh = tmp_path / "fresh.json"
    assert main(["run", cfg, "--output", str(fresh)]) == EXIT_BUDGET
    assert not fresh.exists()


def test_lemma_2_2_refuses_its_budget_before_enumerating(tmp_path, capsys, monkeypatch):
    from areal import census as cn
    from areal import cli

    def no_enumeration(*args, **kwargs):
        raise AssertionError("good classes were enumerated before the budget check")

    monkeypatch.setattr(cn, "good_class_members", no_enumeration)
    monkeypatch.setattr(cli, "apply_config", no_enumeration)
    monkeypatch.setattr(cli, "enumerate_sl2", no_enumeration)
    # the census has 9^6 tuples; the scan needs |SL_2(F_3)| * sum c^2 = 304,432,128
    obj = dict(F3_CENSUS, k=5, checks=["lemma-2.2"], budget=10 ** 6)
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "budget exceeded: enumeration needs 304432128 tuple visits but the budget is 1000000\n"


def test_lemma_2_2_charges_the_move_table_before_building_it(monkeypatch):
    # over Z/9Z, the nine points of (3Z/9Z)^2 with (1, 0) and (0, 1) have
    # one good class of one tuple per unit area, so sum |c|^2 = 2; the move
    # table still takes |SL_2| |E| = 648 * 11 images, which a charge of
    # 648 * 2 = 1,296 let through
    from areal import census as cn
    from areal import cli
    from areal.rings import ModPrimePower

    cfg = ExperimentConfig.from_json({"ring": {"family": "mod-prime-power", "p": 3, "ell": 2},
                                      "checks": ["lemma-2.2"], "budget": 648 * 2})
    nine = [(3 * a, 3 * b) for a in range(3) for b in range(3)]
    E = cn.PointSet(cfg.spec, nine + [(1, 0), (0, 1)])
    monkeypatch.setattr(ExperimentConfig, "point_set", lambda self: E)  # the memo's one build of E
    memo = Memo()
    assert memo.points(cfg) is E and memo.census(cfg).equivalent_good_pairs() == 2
    applied, apply_mat = [], ModPrimePower.apply_mat

    def counted(self, m, v):
        applied.append(v)
        return apply_mat(self, m, v)

    monkeypatch.setattr(ModPrimePower, "apply_mat", counted)
    with pytest.raises(cn.BudgetExceeded) as err:
        cli._check_lemma_2_2(cfg, memo)
    assert err.value.required == 648 * 11 and applied == []
    values, conditions = cli._check_lemma_2_2(cfg._replace(budget=648 * 11), memo)
    assert values["pairs_checked"] == 2 and all(conditions.values())
    # without (1, 0) and (0, 1) no tuple is good: no group, and no charge past the census's 81
    bare = cfg._replace(budget=81)
    monkeypatch.setattr(ExperimentConfig, "point_set", lambda self: cn.PointSet(cfg.spec, nine))
    values, conditions = cli._check_lemma_2_2(bare, Memo())
    assert values["pairs_checked"] == 0 and all(conditions.values())


def test_lemma_3_1_charges_k_squared(tmp_path, capsys):
    obj = dict(F3_CENSUS, k=2000, checks=["lemma-3.1"], budget=10 ** 6)
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_BUDGET
    assert "needs 4000000 tuple visits" in capsys.readouterr().err


DIGIT_LIMIT_MESSAGE = "invalid config: a report value has more than 4300 decimal digits\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default digit limit")
def test_lemma_3_1_refuses_a_c_k_past_the_digit_limit_before_computing(
    tmp_path, capsys, monkeypatch
):
    from areal import census as cn

    def no_computation(*args, **kwargs):
        raise AssertionError("the lifting inequality was computed before the refusal")

    monkeypatch.setattr(cn, "moment_lift_check", no_computation)
    # k^2 = 256,000,000 fits the default budget; c_k = 2^{k^2} alone is 32 MB
    obj = dict(F3_CENSUS, k=16000, checks=["lemma-3.1"])
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_INVALID
    assert capsys.readouterr() == ("", DIGIT_LIMIT_MESSAGE)


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default digit limit")
@pytest.mark.parametrize("k, code", [(117, EXIT_OK), (119, EXIT_INVALID)])
def test_lemma_3_1_below_the_c_k_bound_reaches_the_serializer(
    tmp_path, capsys, monkeypatch, k, code
):
    from areal import census as cn

    calls = []
    moment_lift_check = cn.moment_lift_check

    def counted(values, k):
        calls.append(k)
        return moment_lift_check(values, k)

    monkeypatch.setattr(cn, "moment_lift_check", counted)
    # c_k = 2^{k^2} has 4,263 digits at k = 119, but lhs and rhs have more
    obj = dict(F3_CENSUS, k=k, checks=["lemma-3.1"])
    assert main(["run", write_config(tmp_path, obj)]) == code
    assert calls == [k]
    if code == EXIT_INVALID:
        assert capsys.readouterr() == ("", DIGIT_LIMIT_MESSAGE)


def test_lemma_3_1_computes_every_k_without_a_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        obj = dict(F3_CENSUS, k=120, checks=["lemma-3.1"])
        assert main(["run", write_config(tmp_path, obj)]) == EXIT_OK
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["c_k"] == str(2 ** 14400)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_value_past_the_digit_limit_is_refused_in_one_line(tmp_path, capsys):
    # c_k = 2^40000 fits the budget but not the interpreter's decimal conversion
    obj = dict(F3_CENSUS, k=200, checks=["lemma-3.1"])
    assert main(["run", write_config(tmp_path, obj)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid config: a report value has more than")
    assert len(err.splitlines()) == 1


def _moduli(p: int, e: int) -> list[tuple[int, ...]]:
    """Every monic irreducible modulus of degree e over F_p, ascending
    coefficients: the ones galois_field accepts."""
    moduli = []
    for low in itertools.product(range(p), repeat=e):
        try:
            moduli.append(galois_field(p, e, (*low, 1)).modulus)
        except ValueError:  # reducible
            pass
    return moduli


@pytest.mark.parametrize("p, count", [(3, 3), (5, 10)], ids=["F9", "F25"])
def test_full_plane_reports_do_not_depend_on_the_modulus(p, count):
    # F_{p^2} is one field under each of its moduli, so every full-plane
    # report is the same once the ring it names is removed; a table that
    # only one modulus builds wrong shows up here
    moduli = _moduli(p, 2)
    assert len(moduli) == count
    runs = [(1, ["census", "nu", "lemma-4.2", "lemma-3.1"] + ["lemma-4.1"] * (p == 3)), (2, ["census", "nu"])]
    for k, checks in runs:
        reports = set()
        for modulus in moduli:
            ring = {"family": "galois-field", "p": p, "e": 2, "modulus": list(modulus)}
            report = run_experiment(ExperimentConfig.from_json({"ring": ring, "k": k, "checks": checks}))
            assert report.pop("ring") == ring
            census, *_ = report["checks"]
            assert census.pop("ring") == ring
            reports.add(json.dumps(report, sort_keys=True))
        assert len(reports) == 1, (k, checks)
