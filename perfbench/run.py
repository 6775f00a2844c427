"""The areal benchmark.

    python3 perfbench/run.py --workload {matrix,census,arith} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout.  A single parent process (this one)
starts one fresh interpreter per operation and waits for it before
starting the next: a closed loop with one client, like a user re-running
the verifier.  With --trace 0 it repeats the workload's operation until
S seconds have passed, samples set-up time before and after, and
reports the end-to-end metrics.  With --trace 1 it runs rounds of the
micro-loops for the per-element layers plus every workload with spans
around the public functions of areal's modules, until S seconds have
passed, and reports the per-layer metrics.

Every operation's output is checked (NOTES.md lists the checks).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric's
median, tail percentile and sample count, the work counts behind each
rate, and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("matrix", "census", "arith")
SETUP_SAMPLES = 24
EXPECTED = json.loads((HERE / "expected.json").read_text())
# verify-all reads its default thread count from AREAL_THREADS; without
# it the matrix workload runs serially, as its definition says.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "AREAL_THREADS"}


class SetupFailed(Exception):
    """A set-up-only worker failed, so no operation can run."""


class Child:
    """One finished worker process: wall time, exit code, peak RSS and
    its parsed last output line (None if it printed none)."""

    def __init__(self, args: list[str]):
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        self.start = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=WORKER_ENV)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.rss_mib = usage.ru_maxrss / 1024
        lines = out_path.read_text().splitlines()
        self.stderr_tail = err_path.read_text()[-2000:]
        self.result = None
        if self.exit_code == 0 and lines:
            try:
                self.result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass


# ---------------------------------------------------------------------------
# Correctness checks.  Each returns a list of failure descriptions.

def check_matrix(res: dict, toy: bool) -> list[str]:
    errors = []
    if res["exit_code"] != 0:
        errors.append(f"verify-all exit code {res['exit_code']}")
    if res["checks_ok"] != res["checks"]:
        errors.append(f"{res['checks'] - res['checks_ok']} of {res['checks']} checks not ok")
    if not toy and (res["cells"], res["checks"]) != (33, 71):
        errors.append(f"matrix ran {res['cells']} cells and {res['checks']} checks, not 33 and 71")
    expected = EXPECTED["matrix_toy_sha256" if toy else "matrix_sha256"]
    if res["sha256"] != expected:
        errors.append(f"report sha256 {res['sha256']} != recorded {expected}")
    return errors


def check_census(res: dict, seed: int, toy: bool) -> list[str]:
    errors = []
    cells = res["cells"]
    for label, c in cells.items():
        n, k = c["set_size"], c["k"]
        if not (c["total_tuples"] == n ** (k + 1) == sum(c["tuples_by_level"].values())
                == c["class_size_sum"]):
            errors.append(f"{label}: per-level tuple sums do not equal n^(k+1) = {n ** (k + 1)}")
        if sum(c["classes_by_level"].values()) != c["total_classes"]:
            errors.append(f"{label}: per-level class sums do not equal the class total")
    plane = cells["F7-plane-k3"]
    good_classes, good_tuples = plane["classes_by_level"]["0"], plane["tuples_by_level"]["0"]
    if good_classes * plane["sl2_order"] != good_tuples:
        errors.append(f"plane: {good_classes} good classes x |SL_2| != {good_tuples} good tuples")
    if not toy:
        if [c["set_size"] for c in cells.values()] != [49, 150, 29] or plane["sl2_order"] != 336:
            errors.append("census inputs are not the F_7 plane and 150- and 29-point Z/27Z subsets")
        pins = dict(EXPECTED["census_plane"], **EXPECTED["census_subsets"].get(str(seed), {}))
        for label, pin in pins.items():
            got = {key: cells[label][key] for key in pin}
            if got != pin:
                errors.append(f"{label}: {got} != pinned {pin}")
    return errors


def check_arith(res: dict, seed: int, toy: bool) -> list[str]:
    errors = []
    q = res["field_size"]
    if res["f_identity"] != res["plane_size"] or res["plane_size"] != q * q:
        errors.append(f"f(identity) = {res['f_identity']}, not |E| = {q * q}")
    if res["transitivity"] * (q * q - 1) != res["group_order"] or res["transitivity"] != q:
        errors.append(f"transitivity constant {res['transitivity']} != |SL_2| / |orbit| = {q}")
    if res["nu_total"] != res["nu_set_size"] ** 2:
        errors.append(f"nu sums to {res['nu_total']}, not |E|^2 = {res['nu_set_size'] ** 2}")
    if res["bad_fast"] != res["bad_naive"]:
        errors.append(f"count_bad_tuples {res['bad_fast']} != naive oracle {res['bad_naive']}")
    if not toy:
        if (q, res["nu_set_size"]) != (9, 300) or res["bad_fast"] != EXPECTED["arith_bad_z9_k2"]:
            errors.append("arith inputs or bad-tuple counts differ from the recorded ones")
        pinned = EXPECTED["arith_nu_sha256"].get(str(seed))
        if pinned is not None and res["nu_sha256"] != pinned:
            errors.append(f"nu histogram sha256 {res['nu_sha256']} != pinned {pinned}")
    return errors


def check(kind: str, child: Child, seed: int, toy: bool) -> list[str]:
    if child.result is None:
        return [f"{kind} worker exited {child.exit_code}: {child.stderr_tail.strip()[-300:]}"]
    res = child.result
    try:
        if kind == "matrix":
            return check_matrix(res, toy)
        if kind == "census":
            return check_census(res, seed, toy)
        if kind == "arith":
            return check_arith(res, seed, toy)
        return [] if res["checks_ok"] else ["micro-loop results are inconsistent"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {kind} output: {exc!r}"]


# ---------------------------------------------------------------------------
# Statistics and machine record.

def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples above
    it, when that percentile is above the median."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) > 20:
        out[f"p{100 * (len(s) - 10) / len(s):.0f}"] = s[len(s) - 11]
    return out


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run the benchmark and return the result line plus details."""
    OUT.mkdir(exist_ok=True)
    machine = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg_start": loadavg(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    toy_flag = ["--toy"] if toy else []
    seed_flag = ["--seed", str(seed)]
    counts = {"attempted": 0, "failed": 0}
    failures: list[str] = []
    numpy_seen = False
    details: dict = {"workload": workload, "seed": seed, "trace": int(trace)}

    def run(kind: str, extra: list[str]) -> Child:
        """One checked operation."""
        nonlocal numpy_seen
        child = Child([kind, *seed_flag, *toy_flag, *extra])
        errors = check(kind, child, seed, toy)
        counts["attempted"] += 1
        counts["failed"] += bool(errors)
        failures.extend(f"{kind}: {e}" for e in errors)
        if child.result is not None:
            numpy_seen |= child.result["numpy_imported"]
        return child

    if not trace:
        setups: list[float] = []

        def sample_setup(count: int) -> None:
            for _ in range(count):
                child = Child([workload, *seed_flag, *toy_flag, "--setup-only"])
                if child.result is None:
                    raise SetupFailed(child.stderr_tail.strip()[-500:])
                setups.append(child.result["setup_s"])

        # Half the set-up samples before the operations and half after, so
        # that they see the same stretch of machine time as wall_s.
        sample_setup(SETUP_SAMPLES // 2)
        walls, rss = [], []
        t_start = time.perf_counter()
        while not walls or time.perf_counter() - t_start < seconds:
            child = run(workload, [])
            walls.append(time.perf_counter() - child.start)
            rss.append(child.rss_mib)
            if child.result is not None:
                details["work"] = {k: v for k, v in child.result.items()
                                   if k in ("cells", "checks", "visits", "sha256")}
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        samples = {"wall_s": (walls, "s"), "setup_s": (setups, "s"),
                   "peak_rss_mib": (rss, "MiB")}
        metrics = {name: {"value": statistics.median(v), "unit": unit}
                   for name, (v, unit) in samples.items()}
        details["summary"] = {name: dict(summary(v), unit=unit)
                              for name, (v, unit) in samples.items()}
    else:
        rounds: list[dict] = []
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start < seconds:
            merged = {}
            for kind in ("micro", *WORKLOADS):
                child = run(kind, ["--trace"])
                if child.result is not None:
                    merged.update(child.result.get("metrics", {}))
                    if kind == "census":
                        details["census_work"] = {
                            label: {"tuples": c["total_tuples"], "classes": c["total_classes"]}
                            for label, c in child.result["cells"].items()}
                    elif kind == "arith":
                        details["arith_visits"] = child.result["visits"]
                    if kind != "micro":
                        details.setdefault("wrapped_calls", {})[kind] = \
                            child.result["wrapped_calls"]
            rounds.append(merged)
        names = sorted(set().union(*rounds))
        metrics = {}
        for name in names:
            values = [r[name][0] for r in rounds if name in r]
            unit = next(r[name][1] for r in rounds if name in r)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        details["rounds"] = len(rounds)

    machine["loadavg_end"] = loadavg()
    machine["numpy_imported"] = numpy_seen
    details["machine"] = machine
    details["failed_ratio"] = {
        "value": counts["failed"] / counts["attempted"], "unit": "ratio", "n": counts["attempted"]}
    details["failures"] = failures
    return {
        "details": details,
        "result": {"correct": counts["failed"] == 0, **counts, "metrics": metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="areal benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "areal" / "__init__.py").is_file():
        print(f"no areal sources under {ROOT / 'src'}; perfbench/ must sit in an areal checkout",
              file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    details = out["details"]
    for name, s in details.get("summary", {}).items():
        tail = "".join(f" {k}={v:.6g}" for k, v in s.items() if k[0] == "p")
        print(f"{name}: median={s['median']:.6g}{tail} n={s['n']} {s['unit']}")
    ratio = details["failed_ratio"]
    print(f"failed_ratio: {ratio['value']:.6g} n={ratio['n']} ratio")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
