"""A smoke run of the benchmark in perfbench/: it still runs against the
package, passes its own correctness checks, and emits exactly the
per-layer metrics that BENCHMARK.json declares.  The benchmark patches
and traces package functions by name, so this catches a rename or
deletion that would break it."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_toy_benchmark_emits_every_per_layer_metric():
    run = load_run_module()
    res = run.measure("census", seed=0, seconds=0, trace=True, toy=True)["result"]
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert set(res["metrics"]) == per_layer
