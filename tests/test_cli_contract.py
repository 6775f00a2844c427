"""The exit-code contract of `areal run` and `areal sweep` over arbitrary
configs: the exit code is one of 0, 1, 2, 3; a refusal (2 or 3) prints
exactly one line; a finished run prints only `<check>: PASS|FAIL` lines;
nothing escapes main as an exception."""

import contextlib
import io
import itertools
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from areal.cli import CHECK_NAMES, main

LEAF = st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
NESTED = st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
# numbers as bools and strings, and values nested in lists and objects
ODD = st.sampled_from([True, False, "3", "1", 1.0, None, [3], {"p": 3}]) | NESTED


RINGS = [
    {"family": "prime-field", "p": 3},
    {"family": "prime-field", "p": 5},
    {"family": "galois-field", "p": 3, "e": 1},
    {"family": "galois-field", "p": 3, "e": 2},
    {"family": "mod-prime-power", "p": 5, "ell": 1},
    {"family": "mod-prime-power", "p": 3, "ell": 1},
    {"family": "mod-prime-power", "p": 3, "ell": 2},
]
ELEMENT = st.integers(0, 4) | st.lists(st.integers(0, 2), min_size=2, max_size=2)
CONSTRUCTION = st.one_of(
    st.just({"kind": "full-plane"}),
    st.just({"kind": "mod-sharpness"}),
    st.builds(lambda r: {"kind": "circle", "r": r}, ELEMENT),
    st.builds(lambda radii: {"kind": "union-circles", "radii": radii}, st.lists(ELEMENT, max_size=3)),
    st.builds(lambda d: {"kind": "line-through-origin", "direction": d}, st.lists(ELEMENT, max_size=3)),
    st.builds(
        lambda size, seed: {"kind": "random-subset", "size": size, "seed": seed},
        st.integers(-1, 12), st.integers(0, 3),
    ),
)
CHECKS = st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=3)
# names the test turns into paths inside its temporary directory
PATH = st.sampled_from(["<file>", "<missing-dir>", "<dir>"])
OUTPUT = st.fixed_dictionaries({}, optional={"path": PATH, "format": st.sampled_from(["json", "csv"])})


@st.composite
def experiments(draw):
    """A config of small rings and plausible fields, with at most one
    field replaced by an odd value.  It always sets a budget: a missing
    one would default to 10^9."""
    config = {
        "ring": draw(st.sampled_from(RINGS)),
        "construction": draw(CONSTRUCTION),
        "k": draw(st.integers(1, 3)),
        "checks": draw(CHECKS),
        "budget": draw(st.sampled_from([100, 10 ** 4, 10 ** 5]) | st.integers(1, 10 ** 5)),
        "output": draw(OUTPUT),
    }
    odd = draw(st.sampled_from([None, None, None, *config, "ring.p", "construction.kind"]))
    if odd in config:
        config[odd] = draw(ODD)
    elif odd is not None:
        outer, inner = odd.split(".")
        config[outer] = dict(config[outer], **{inner: draw(ODD)})
    return config


@st.composite
def sweeps(draw):
    experiment = draw(experiments())
    # a sweep refuses any check but the census and any output section, so
    # most drawn sweeps leave both out and reach the refusals after them
    for key in ("checks", "output"):
        if draw(st.integers(0, 3)):
            del experiment[key]
    config = {
        "experiment": experiment,
        "variable": draw(st.sampled_from(["size", "k", "ell", "temperature"])),
        "values": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
        "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)),
    }
    odd = draw(st.sampled_from([None, None, "variable", "values", "seeds", "a seed"]))
    if odd == "a seed":
        seeds = config["seeds"]
        seeds.insert(draw(st.integers(0, len(seeds))), draw(ODD))
    elif odd is not None:
        config[odd] = draw(ODD)
    return config


# (ring, size of its plane's side) for the sweeps that run
SWEEP_RINGS = [
    ({"family": "prime-field", "p": 3}, 3),
    ({"family": "prime-field", "p": 5}, 5),
    ({"family": "galois-field", "p": 3, "e": 2}, 9),
    ({"family": "mod-prime-power", "p": 3, "ell": 1}, 3),
    ({"family": "mod-prime-power", "p": 3, "ell": 2}, 9),
    ({"family": "mod-prime-power", "p": 5, "ell": 1}, 5),
]


@st.composite
def valid_sweeps(draw):
    """A sweep that no refusal stops: its variable is one the experiment
    reads, every value and seed is in range, and the budget is at most
    10^5, so it either writes its rows or runs out of budget."""
    variable = draw(st.sampled_from(["size", "k", "ell"]))
    rings = [r for r in SWEEP_RINGS if variable != "ell" or r[0]["family"] == "mod-prime-power"]
    ring, q = draw(st.sampled_from(rings))
    if variable == "ell":
        q = ring["p"]  # ell = 1 has the smallest plane
    experiment = {
        "ring": ring,
        "k": draw(st.integers(1, 3)),
        "budget": draw(st.sampled_from([10 ** 4, 10 ** 5]) | st.integers(1, 10 ** 5)),
    }
    if variable != "size" and draw(st.booleans()):
        experiment["construction"] = {"kind": "random-subset", "size": draw(st.integers(0, q * q))}
    values = {
        "size": st.integers(0, q * q),
        "k": st.integers(1, 3),
        "ell": st.integers(1, 3),
    }[variable]
    return {
        "experiment": experiment,
        "variable": variable,
        "values": draw(st.lists(values, min_size=1, max_size=3)),
        "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)),
    }


FLAG = st.none() | PATH

F3 = {"family": "prime-field", "p": 3}
SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
CHECK_LINE = re.compile(r"[a-z0-9.-]+: (PASS|FAIL)")


def _paths(value, tmp):
    """The config with every path name replaced by a path under tmp."""
    real = {
        "<file>": os.path.join(tmp, "out.txt"),
        "<missing-dir>": os.path.join(tmp, "missing", "out.txt"),
        "<dir>": tmp,
    }
    if isinstance(value, dict):
        return {k: _paths(v, tmp) for k, v in value.items()}
    if isinstance(value, list):
        return [_paths(v, tmp) for v in value]
    return real.get(value, value) if isinstance(value, str) else value


def _invoke(command, config, flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(_paths(config, tmp), fh)
        argv = [command, path]
        if flag is not None:
            argv += ["--output", _paths(flag, tmp)]
        out, err = io.StringIO(), io.StringIO()
        # a relative output path drawn as text lands in the temporary directory
        with contextlib.chdir(tmp), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue(), out.getvalue()


def _assert_contract(code, err, budget):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code in (2, 3):
        assert len(lines) == 1 and err.endswith("\n"), err
        assert lines[0].startswith("invalid config: " if code == 2 else "budget exceeded: ")
    else:
        assert all(CHECK_LINE.fullmatch(line) for line in lines), err
    if not isinstance(budget, int) or isinstance(budget, bool):
        assert code == 2, err


@SETTINGS
@given(config=experiments(), flag=FLAG)
@example(
    config={"ring": {"family": [F3]}, "construction": {"kind": {"k": [1]}}, "k": [[1]],
            "checks": [["census"]], "budget": {"b": [1]}, "output": {"path": [["x"]]}},
    flag=None,
)
@example(config={"ring": {"family": "prime-field", "p": True}, "budget": 100}, flag=None)
@example(config={"ring": {"family": "prime-field", "p": "3"}, "k": "2", "budget": "100"}, flag=None)
@example(config={"ring": F3, "checks": ["census"], "budget": True}, flag=None)
@example(
    config={"ring": {"family": "mod-prime-power", "p": 3, "ell": 10 ** 6},
            "checks": ["census", "lemma-4.2"], "budget": 10 ** 5},
    flag=None,
)
@example(
    config={"ring": {"family": "mod-prime-power", "p": 3, "ell": 10 ** 8}, "checks": ["census"],
            "budget": 10 ** 9},
    flag=None,
)
@example(
    config={"ring": {"family": "mod-prime-power", "p": 3, "ell": 10 ** 8}, "checks": ["census"],
            "budget": 0},
    flag=None,
)
@example(
    config={"ring": {"family": "mod-prime-power", "p": 3, "ell": 10 ** 8}, "checks": ["census"],
            "k": 0, "budget": 10 ** 9},
    flag=None,
)
@example(config={"ring": F3, "k": 10 ** 6, "checks": ["lemma-3.1"], "budget": 10 ** 5}, flag=None)
@example(config={"ring": F3, "k": 300, "checks": ["lemma-3.1"], "budget": 10 ** 5}, flag=None)
@example(config={"ring": F3, "checks": ["census"], "budget": 100}, flag="<missing-dir>")
@example(
    config={"ring": F3, "checks": ["nu"], "budget": 100, "output": {"path": "<dir>"}}, flag=None
)
@example(
    config={"ring": F3, "construction": {"kind": "random-subset", "size": 0, "seed": 1},
            "checks": ["lemma-2.3", "lemma-2.2"], "budget": 100},
    flag=None,
)
def test_run_exit_contract(config, flag):
    code, err, _ = _invoke("run", config, flag)
    _assert_contract(code, err, config["budget"])


@SETTINGS
@given(config=sweeps(), flag=FLAG)
@example(
    config={"experiment": {"ring": F3, "budget": 10 ** 5}, "variable": "size",
            "values": [[4]], "seeds": [{"s": 1}]},
    flag=None,
)
@example(
    config={"experiment": {"ring": {"family": "mod-prime-power", "p": 3, "ell": 1},
                           "budget": 10 ** 5},
            "variable": "ell", "values": [10 ** 6]},
    flag=None,
)
@example(
    config={"experiment": {"ring": {"family": "mod-prime-power", "p": 3, "ell": 1},
                           "budget": 10 ** 5},
            "variable": "ell", "values": [10 ** 8]},
    flag=None,
)
@example(
    config={"experiment": {"ring": {"family": "mod-prime-power", "p": 3, "ell": 1},
                           "budget": 0},
            "variable": "ell", "values": [10 ** 8]},
    flag=None,
)
@example(
    config={"experiment": {"ring": {"family": "mod-prime-power", "p": 3, "ell": 1},
                           "k": 0, "budget": 10 ** 5},
            "variable": "ell", "values": [10 ** 8]},
    flag=None,
)
@example(
    config={"experiment": {"ring": F3, "budget": 10 ** 5}, "variable": "k",
            "values": [10 ** 6, True, "2"]},
    flag=None,
)
@example(
    config={"experiment": {"ring": F3, "budget": 10 ** 5}, "variable": "k", "values": [1]},
    flag="<missing-dir>",
)
@example(
    config={"experiment": {"ring": F3, "budget": 10 ** 5}, "variable": "k", "values": [1],
            "seeds": [0, True]},
    flag=None,
)
@example(
    config={"experiment": {"ring": F3, "checks": ["lemma-2.2"], "budget": 10 ** 5},
            "variable": "k", "values": [1, 2]},
    flag=None,
)
@example(
    config={"experiment": {"ring": F3, "output": {"path": "<file>", "format": "csv"},
                           "budget": 10 ** 5},
            "variable": "k", "values": [1, 2]},
    flag=None,
)
def test_sweep_exit_contract(config, flag):
    code, err, _ = _invoke("sweep", config, flag)
    _assert_contract(code, err, config["experiment"]["budget"])
    seeds = config.get("seeds", [0])
    if isinstance(seeds, list) and any(type(seed) is not int for seed in seeds):
        assert code == 2, err  # a seed that is not an integer is refused before any work


@SETTINGS
@given(config=valid_sweeps())
def test_valid_sweep_writes_one_row_per_value_and_seed(config):
    code, err, out = _invoke("sweep", config, None)
    _assert_contract(code, err, config["experiment"]["budget"])
    assert code in (0, 3), err
    if code == 0:
        header, *rows = out.splitlines()
        assert header == "variable,value,seed,set_size,classes,plane_classes,proportion"
        assert all(len(row.split(",")) == 7 for row in rows)
        expected = itertools.product([config["variable"]], config["values"], config["seeds"])
        assert [row.split(",")[:3] for row in rows] == [[str(v) for v in e] for e in expected]
