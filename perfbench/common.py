"""Helpers shared by the benchmark entry point (run.py) and its child processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")


def digest(record: Mapping[str, Any]) -> str:
    """sha256 of the canonical encoding of a record's pure (cacheable) part."""
    from repro.scenarios import encode_record, pure_record

    return hashlib.sha256(encode_record(pure_record(record)).encode("utf-8")).hexdigest()


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest of p99/p90 with at least ten samples beyond it, else p50.

    Returns ``(value, label)``: the median when the sample is too small for
    any higher percentile to be supported.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 90):
        index = -(-pct * n // 100) - 1  # nearest-rank percentile
        if n - 1 - index >= 10:
            return ordered[index], f"p{pct}"
    return statistics.median(ordered), "p50"


#: Loop turns of one reference-kernel timing (about 5 ms on a current x86 core).
KERNEL_ITERATIONS = 20_000
#: Kernel score (Mops) of the reference host the gated times are expressed on.
REF_MOPS = 5.0


def kernel_seconds(iterations: int = KERNEL_ITERATIONS) -> float:
    """Seconds a short pure-Python reference kernel takes now.

    Integer arithmetic, dict updates and attribute-free calls: the mix an
    event-driven simulator spends its time on.
    """
    table: Dict[int, int] = {}
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + (i & 7)
        acc ^= key
    elapsed = time.perf_counter() - started
    if acc < 0:  # never true; keeps the loop's result observable
        raise AssertionError
    return elapsed


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, on the reference host.

    The shared host's speed changes within seconds and drifts over minutes
    (by up to 2x), and it slows the program and the kernel alike: the ratio
    of the two is the work's cost in kernel runs, steady across those
    changes.  Times the kernel's duration at ``REF_MOPS`` it reads as
    seconds on a host where the kernel scores ``REF_MOPS``.
    """
    return seconds * (KERNEL_ITERATIONS / (REF_MOPS * 1e6)) / kernel_s


def reference_span(marks: Sequence[Sequence[float]]) -> float:
    """Reference seconds from the first to the last of ``marks``, kernels left out.

    Each mark is ``(started, seconds)``: the reference kernel was timed at
    monotonic time ``started`` and took ``seconds``.  Each stretch between
    one kernel's end and the next one's start is scaled by the mean of the
    two, so the host's speed is followed stretch by stretch.
    """
    return sum(
        to_reference(b_at - (a_at + a_s), (a_s + b_s) / 2)
        for (a_at, a_s), (b_at, b_s) in zip(marks, marks[1:])
    )


def environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def child_env(src: str, extra: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TELEMETRY", None)
    env.update(extra or {})
    return env


class Child:
    """One child process of the benchmark, timed from spawn to exit."""

    def __init__(self, task: str, args: Mapping[str, Any], env: Mapping[str, str]):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, task, json.dumps(args)],
            env=dict(env),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.ended: Optional[float] = None
        self.returncode: Optional[int] = None
        self.stderr = b""

    def wait(self, timeout: float = 170.0) -> int:
        """Reap the child; on timeout kill it and report failure."""
        try:
            _out, self.stderr = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _out, self.stderr = self.proc.communicate()
        self.ended = time.monotonic()
        self.returncode = self.proc.returncode
        return self.returncode

    @property
    def wall(self) -> float:
        assert self.ended is not None
        return self.ended - self.started


def run_child(task: str, args: Mapping[str, Any], env: Mapping[str, str],
              timeout: float = 170.0) -> Tuple["Child", Dict[str, Any]]:
    """Run one child task to completion; returns it with its JSON result."""
    out = args["out"]
    child = Child(task, args, env)
    child.wait(timeout)
    result: Dict[str, Any] = {}
    if child.returncode == 0 and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    elif child.stderr:
        sys.stderr.write(child.stderr.decode("utf-8", errors="replace")[-4000:])
    return child, result


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped child process (Linux: KiB units)."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
