"""Memory measured in a fresh interpreter.  tracemalloc's held bytes count
what CPython parks on its free lists, so in the test process they move
with whatever earlier tests freed; a child interpreter that imports only
areal starts every measurement from the same state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced(setup: str, call: str, result: str = "None") -> tuple[int, int, object]:
    """Runs the statements `setup`, then the statement `call` under
    tracemalloc, in a child sys.executable with src on its path.  Returns
    the bytes still held when the call returns, the peak during it, and
    the value of the expression `result` (a literal), read after the trace
    stops."""
    code = "\n".join([
        "import tracemalloc",
        setup,
        "tracemalloc.start()",
        call,
        "held, peak = tracemalloc.get_traced_memory()",
        "tracemalloc.stop()",
        f"print(repr((held, peak, {result})))",
    ])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)
