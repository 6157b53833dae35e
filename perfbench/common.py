"""Harness plumbing shared by every perfbench workload.

Nothing here is part of the program under test: it locates the checkout,
starts child processes with BLAS and OpenMP pinned to one thread, measures
cold starts and resident memory, computes order statistics and prints the
result line.  This module must not import numpy at import time, because
:func:`prepare_environment` has to run before numpy loads its BLAS.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
"""Scratch output of traced runs (span dumps); ignored by git."""

# OpenBLAS on the reference host is built for 64 threads and an unpinned
# process on a 2-core host runs two, so its timings would depend on
# whatever else shares the host.  Every process the benchmark starts gets
# one BLAS/OpenMP thread.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The quick profile the repository's experiments cache in artifacts/
# (``get_trained_policies`` defaults).  The benchmark only ever loads it.
QUICK_PROFILE = {"demos_per_task": 24, "epochs": 12, "seed": 7, "hidden_dim": 96, "token_dim": 48}


STOP_TIMEOUT_S = 30.0
"""How long a child the benchmark stops may take to exit before it is killed."""

READY = "READY"
"""What a cold start (``coldstart.py``) prints once it is ready for work."""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or policies)."""


def prepare_environment() -> None:
    """Pin BLAS/OpenMP to one thread here and in every child, expose ``src``,
    and let Python cache bytecode, so that after one warm start a cold start
    reads ``.pyc`` files instead of compiling the program again."""
    os.environ.update(PINNED_THREADS)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")


def require_checkout() -> None:
    """Fail fast unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")


@contextlib.contextmanager
def policies_from_cache_only():
    """While active, a miss in ``get_trained_policies``' cache raises
    :class:`SetupError`.

    On a miss, ``get_trained_policies`` collects demonstrations, trains for
    about ten minutes and writes into ``artifacts/``; the benchmark must
    never do that.  Collecting is its first step, so refusing it stops a
    miss before anything is trained or written, wherever the cache key is
    decided.
    """
    import repro.analysis.evaluation as evaluation

    original = evaluation.collect_demonstrations

    def refuse(*args, **kwargs):
        raise SetupError("the quick-profile policies are not cached in artifacts/ "
                         "(the benchmark never trains them)")

    evaluation.collect_demonstrations = refuse
    try:
        yield
    finally:
        evaluation.collect_demonstrations = original


def load_policies():
    """The quick-profile policies, loaded from ``artifacts/`` (never trained)."""
    require_checkout()
    from repro.analysis.evaluation import get_trained_policies

    with policies_from_cache_only():
        return get_trained_policies(**QUICK_PROFILE)


@dataclass
class Outcome:
    """What a workload run hands back: output checks, attempted and failed
    operations, and every metric it measured by name."""

    checks: Checks
    attempted: int
    failed: int
    metrics: dict[str, float]


def say(*parts) -> None:
    print(*parts, flush=True)


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf if rank > low or ordered[low] == math.inf else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(value > threshold for value in values)


# -- processes and memory ------------------------------------------------------


def python_command(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def time_cold_start(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until it prints :data:`READY`; the
    child is stopped and reaped before this returns."""
    started = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = any(READY in line for line in child.stdout)
        elapsed = time.perf_counter() - started
        if not ready:
            raise SetupError(f"{argv[1:]} exited before reporting {READY!r}")
        if child.wait(timeout=60) != 0:
            raise SetupError(f"{argv[1:]} exited with {child.returncode}")
    finally:
        stop_process(child)
    return elapsed


def stop_process(child: subprocess.Popen) -> None:
    """Make sure ``child`` has ended and is reaped (kill after :data:`STOP_TIMEOUT_S`)."""
    if child.poll() is None:
        try:
            child.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=STOP_TIMEOUT_S)
    for pipe in (child.stdout, child.stderr):
        if pipe is not None:
            pipe.close()


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


def child_pids() -> list[int]:
    """Live child processes of this process (pool workers, servers); exited
    children not yet reaped are left out."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant (Linux
    ``prctl(PR_SET_CHILD_SUBREAPER)``), so that :func:`reap_children` can
    wait for grandchildren whose own parent has already exited."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise SetupError(f"prctl(PR_SET_CHILD_SUBREAPER) failed: {os.strerror(ctypes.get_errno())}")


def reap_children() -> None:
    """Stop and reap every child of this process before it exits.

    Pools a failed run left leased are terminated first, because their
    workers hold ``multiprocessing``'s resource tracker open.  The tracker,
    started by the first spawn-pool lock, is built to outlive the process
    that started it; it is stopped here and waited for.  Any other child
    still running after :data:`STOP_TIMEOUT_S` is killed, and every child is
    reaped.
    """
    parallel = sys.modules.get("repro.analysis.parallel")
    if parallel is not None:
        parallel.shutdown_pools()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


# -- result line ---------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last stdout line; ``metrics`` maps name -> (value, unit)."""
    payload = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        payload[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": payload,
        }
    )


# -- correctness ---------------------------------------------------------------


class Checks:
    """Byte-for-byte comparisons of sampled outputs with the reference path."""

    def __init__(self):
        self.passed = 0
        self.total = 0
        self.mismatches: list[str] = []

    def compare(self, label: str, output: bytes, reference: bytes) -> None:
        self.check(label, output == reference)

    def check(self, label: str, ok: bool) -> None:
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.mismatches.append(label)

    @property
    def fraction(self) -> float:
        return self.passed / self.total if self.total else 0.0


def lane_output_bytes(traces, estimate) -> bytes:
    """One lane's outputs as bytes: its traces (the result cache's npz
    encoding) followed by its latency/energy estimate."""
    from repro.serving.cache import encode_traces

    estimate_json = json.dumps(None if estimate is None else estimate.to_json(), sort_keys=True)
    return encode_traces(traces) + estimate_json.encode()
