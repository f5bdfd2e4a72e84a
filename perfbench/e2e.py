"""End-to-end measurement: fresh ``volcd run`` child processes, one at a time."""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


# The child runs the real ``volcd run`` command line with one addition: it
# times the reference kernel (``refkernel.py``) just before every solver run
# and once after the last, and writes those times to a side file, so that
# each cell's time can be scaled by the machine's speed around it.
_BOOTSTRAP = """
import json, sys
import refkernel
import volcd.benchmark as bench
from volcd.cli import main

kernel_s = []
solver_run = bench.run

def run_after_kernel(*args, **kwargs):
    kernel_s.append(refkernel.kernel_s())
    return solver_run(*args, **kwargs)

bench.run = run_after_kernel
try:
    code = main(sys.argv[2:])
    kernel_s.append(refkernel.kernel_s())
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(kernel_s, fh)
sys.exit(code)
"""


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


@dataclass
class ChildResult:
    wall_s: float
    max_rss_mb: float
    exit_code: int | None  # None when killed on timeout
    table: dict | None  # parsed ``--output json`` payload
    kernel_s: list  # reference-kernel time before each solver run and after the last
    stderr: str


def child_env(root: str) -> dict:
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(root: str, args: list[str], workdir: str, timeout_s: float) -> ChildResult:
    """Run ``volcd run <args>`` in a fresh interpreter, timed from start to exit.

    The table goes to a file (``--out``) and the child is reaped with
    ``os.wait4`` so that its own peak resident set size is known.  A child
    that outlives ``timeout_s``, or is still running when the benchmark is
    interrupted, is killed and reaped.
    """
    out_path = os.path.join(workdir, "table.json")
    err_path = os.path.join(workdir, "stderr.txt")
    kernel_path = os.path.join(workdir, "kernel.json")
    cmd = [sys.executable, "-c", _BOOTSTRAP, kernel_path, "run", *args, "--out", out_path]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1.0))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            code = os.waitstatus_to_exitcode(status)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            code = None
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = code if code is not None else -signal.SIGKILL
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    table, kernel = None, []
    if code == 0:
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                table = json.load(fh)
            with open(kernel_path, "r", encoding="utf-8") as fh:
                kernel = json.load(fh)
        except (OSError, ValueError):
            table = None
    return ChildResult(wall, usage.ru_maxrss / 1024.0, code, table, kernel, stderr)


def warm_up(root: str) -> None:
    """Import the package once so every timed child finds compiled bytecode."""
    subprocess.run([sys.executable, "-c", "import volcd.cli"], cwd=root,
                   env=child_env(root), stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60, check=False)


def cell_failures(workload, child: ChildResult, reps: int) -> list:
    """``((rep, "method:tau"), reason)`` for every failed cell of a child.

    A cell fails if the child exited nonzero or produced no table, if the
    cell is missing or ``capped``, if its time is not finite, or if its
    iteration count equals the budget ``max(1, max_updates // tau)``: a run
    that diverged to NaN never meets the gap test and so ends there without
    being flagged ``capped``.
    """
    cells = [(rep, f"{m}:{t}", t) for rep in range(reps) for m, t in workload.cells()]
    if child.table is None:
        why = "timeout" if child.exit_code is None else f"exit {child.exit_code}"
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return [((rep, key), f"child failed ({why}): {tail[0]}") for rep, key, _ in cells]
    raw = child.table.get("raw", [])
    failures = []
    for rep, key, tau in cells:
        cell = raw[rep].get(key) if rep < len(raw) else None
        budget = max(1, workload.max_updates // tau)
        if cell is None:
            failures.append(((rep, key), "missing"))
        elif cell["capped"]:
            failures.append(((rep, key), "capped"))
        elif cell["it"] >= budget:
            failures.append(((rep, key), f"reached the budget {budget}"))
        elif not math.isfinite(cell["time"]):
            failures.append(((rep, key), f"time {cell['time']}"))
    return failures


def table_consistent(table: dict) -> list[str]:
    """The aggregated rows must be the medians of the raw records."""
    problems = []
    for row in table.get("rows", []):
        key = f"{row['method']}:{row['tau']}"
        its = [r[key]["it"] for r in table["raw"] if not r[key]["capped"]]
        if its and statistics.median(its) != row["median_it"]:
            problems.append(f"{key}: median_it {row['median_it']} is not the raw median")
    return problems


def median_or_none(values):
    return float(statistics.median(values)) if values else None
