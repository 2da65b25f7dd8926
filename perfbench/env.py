"""Process environment of a benchmark run (R4).

Every measuring process runs with ``PYTHONHASHSEED=0`` (set iteration order
and with it allocation patterns repeat from run to run), with ``src`` on
``PYTHONPATH`` (``repro`` is not installed) and on one CPU; the ``repro
serve`` child inherits all three.  ``PERFBENCH_T0`` stamps the moment just
before the measuring interpreter was started, so set-up time includes
interpreter start and imports.
"""

from __future__ import annotations

import os
import sys
import time

T0_VARIABLE = "PERFBENCH_T0"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Committed results (baseline.json, aa.json) and, ignored by git, traces/.
RESULTS = os.path.join(ROOT, "perfbench", "results")


def measuring_environment() -> dict:
    """``os.environ`` plus the pins, with a fresh ``PERFBENCH_T0``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env[T0_VARIABLE] = str(time.time_ns())
    return env


def pin_to_one_cpu() -> None:
    """Confine this process, and every child it starts, to the lowest CPU
    it may run on.

    Otherwise placement is the scheduler's choice, made anew in every run:
    it usually keeps the socket workload's client and its ``repro serve``
    child on one CPU (they alternate), and when it splits them the workload
    runs 50 % faster with three times the spread -- a second mode of the
    same code that no median over passes removes.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ensure_measuring_process() -> None:
    """Pin the CPU, then re-exec ``python -m perfbench ...`` under the
    pinned environment unless this process already runs under it."""
    pin_to_one_cpu()
    if os.environ.get("PYTHONHASHSEED") == "0" and T0_VARIABLE in os.environ:
        return
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program to measure: {ROOT}/src/repro is missing")
    sys.stdout.flush()
    os.execve(
        sys.executable,
        [sys.executable, "-m", "perfbench", *sys.argv[1:]],
        measuring_environment(),
    )


def seconds_since_start() -> float:
    """Wall seconds since the measuring interpreter was started."""
    return (time.time_ns() - int(os.environ[T0_VARIABLE])) / 1e9
