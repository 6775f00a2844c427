"""Quick self-test of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that every workload runs and
passes its checks at toy size, that an untraced run emits exactly the
end-to-end metrics and a traced run exactly the per-layer metrics named
in BENCHMARK.json, that a wrong report digest is counted as a failed
operation, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    for workload in run.WORKLOADS:
        res = run.measure(workload, seed=0, seconds=0, trace=False, toy=True)["result"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        assert set(res["metrics"]) == end_to_end, sorted(res["metrics"])
        assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]
        print(f"ok: {workload} toy run, end-to-end metrics complete")

    res = run.measure("census", seed=0, seconds=0, trace=True, toy=True)["result"]
    assert res["correct"] and res["attempted"] == 4, res
    missing, extra = per_layer - set(res["metrics"]), set(res["metrics"]) - per_layer
    assert not missing and not extra, (sorted(missing), sorted(extra))
    print(f"ok: traced toy run emits all {len(per_layer)} per-layer metrics")

    saved = run.EXPECTED["matrix_toy_sha256"]
    run.EXPECTED["matrix_toy_sha256"] = "0" * 64
    try:
        res = run.measure("matrix", seed=0, seconds=0, trace=False, toy=True)["result"]
    finally:
        run.EXPECTED["matrix_toy_sha256"] = saved
    assert not res["correct"] and res["failed"] == res["attempted"] >= 1, res
    print("ok: a wrong report digest counts as a failed operation")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "arith", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print("ok: without the sources the benchmark exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
