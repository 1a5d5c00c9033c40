"""Shared pieces of the benchmark: source location, thread caps, the
operation ledger, timing statistics and the environment record."""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread per process, at or below any core count, so that
# timings do not depend on how many cores happen to be idle.
THREAD_CAP = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0


def use_checkout_source() -> None:
    """Import hyptiling from this checkout's src/ only; exit 2 when absent."""
    if not (SRC / "hyptiling" / "__init__.py").is_file():
        print(f"error: no hyptiling sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: checkout sources, capped threads,
    and Python's default integer string-conversion limit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools of this process; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


def run_child(argv, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one interpreter from the checkout root and wait for it.

    Output goes to files, so large outputs cannot fill a pipe, and the child
    is reaped with os.wait4 to read its own peak RSS.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


# ---------------------------------------------------------------------------
# Statistics


def median(samples) -> float:
    return float(statistics.median(samples))


def tail(samples) -> tuple:
    """(value, percentile, n): the highest percentile of the samples with at
    least TAIL_BEYOND samples strictly beyond it.

    With n samples that is the (n - TAIL_BEYOND)-th smallest, at percentile
    100 * (n - TAIL_BEYOND) / n.  Fewer than TAIL_BEYOND + 1 samples have no
    such percentile; the median is returned with percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return median(ordered), 50.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return float(ordered[rank - 1]), 100.0 * rank / n, n


# ---------------------------------------------------------------------------
# Operations and their checks


class CheckFailed(Exception):
    """An output check did not hold.

    exact=False marks a statistical check, which a correct program fails on
    a small share of seeds; it counts as a failed operation but does not by
    itself mark the run's outputs incorrect.
    """

    def __init__(self, message: str, exact: bool = True):
        super().__init__(message)
        self.exact = exact


def expect(condition: bool, message: str, exact: bool = True) -> None:
    if not condition:
        raise CheckFailed(message, exact)


class Ledger:
    """Runs operations, times them and counts failures.

    A failure is recorded and the run goes on.  Every failure marks the run
    incorrect, except a statistical miss (CheckFailed with exact=False) and
    an error that the operation's `known_failure` predicate recognises as a
    documented defect of the program; those two count in `failed` only.

    Each pass keeps (name, seconds) of every operation in order (`times`,
    failures included) and the times of successful requests (`samples`).  In a traced
    pass each operation runs inside an `op:<name>` span, and its check runs
    untimed with the tracer paused.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.times = []
        self.samples = []
        self._tracer = None

    def begin_pass(self, tracer=None) -> None:
        self.times = []
        self.samples = []
        self._tracer = tracer

    def run(self, name: str, call, check=None, request: bool = False,
            known_failure=None):
        """Time call(); then check(result) untimed.  None on failure."""
        tracer = self._tracer
        span = tracer.span(f"op:{name}") if tracer else contextlib.nullcontext()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with span:
                result = call()
        except Exception as err:  # keep running; the failure is counted
            self.times.append((name, time.perf_counter() - start))
            known = known_failure is not None and known_failure(err)
            self._fail(name, f"{'known defect: ' if known else ''}"
                             f"{type(err).__name__}: {err}", wrong=not known)
            return None
        elapsed = time.perf_counter() - start
        self.times.append((name, elapsed))
        if check is not None:
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    check(result)
            except CheckFailed as err:
                self._fail(name, str(err), wrong=err.exact)
                return None
            except Exception as err:  # a check that cannot read the output
                self._fail(name, f"unreadable output: {type(err).__name__}: "
                                 f"{err}", wrong=True)
                return None
        if request:
            self.samples.append(elapsed)
        return result

    def _fail(self, name: str, detail: str, wrong: bool) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.failures.append(f"{name}: {detail[:300]}")

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Environment record


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }
