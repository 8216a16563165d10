"""Host-side measurement helpers shared by the workloads.

Everything here measures the processes the benchmark itself starts:
CPU seconds and peak resident memory come from ``getrusage`` (this
process and its reaped children) and, for a child that is still
running, from its own ``/proc/<pid>`` files.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: The paper's timing constants (section 3): flit time and start-up.
BETA_US = 0.003
TS_US = 1.5


def require_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {SRC}; run from a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that runs the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def run_dir(workload: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    path = SCRATCH / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Highest resident set of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a running child, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running child, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reap_pool_workers(timeout_s: float = 30.0) -> None:
    """Wait until every multiprocessing child has exited and been reaped.

    ``run_campaign`` shuts its process pool down without waiting, so a
    round's worker CPU only reaches ``RUSAGE_CHILDREN`` once they are
    joined; the CPU of a round must include them.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.005)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def time_child(code: str, repeats: int, cwd: Path) -> List[float]:
    """Wall seconds of ``repeats`` fresh interpreters running ``code``.

    One extra warm-up run goes first and is discarded: the first
    interpreter in a fresh checkout also writes the bytecode caches.
    """
    times = []
    for i in range(repeats + 1):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=cwd,
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        if i:
            times.append(time.perf_counter() - started)
    return times


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
    counts: Dict[str, int],
) -> None:
    """Print the counts line, the metric table and the result line."""
    print("counts " + json.dumps(counts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def check(failures: List[str], condition: bool, message: str) -> None:
    """Record ``message`` when ``condition`` does not hold."""
    if not condition:
        failures.append(message)


def rounds_until(seconds: float, started: float, durations: Iterable[float]) -> bool:
    """True while another whole round fits in the run's ``seconds``.

    A run always does at least one round; after that it starts another
    only if the mean round so far would still end within ``seconds``.
    """
    durations = list(durations)
    if not durations:
        return True
    mean = sum(durations) / len(durations)
    return time.perf_counter() - started + mean <= seconds
