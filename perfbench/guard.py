"""Per-operation time limit and memory guard, acting on this process only.

The time limit is a real-time interval timer whose signal handler raises
`OpTimeout`, a BaseException so that no `except Exception` in the program
can swallow it. The memory guard is an address-space rlimit, so an
allocation past it raises MemoryError inside the operation.
"""

from __future__ import annotations

import contextlib
import io
import resource
import signal
import time
from dataclasses import dataclass
from typing import Callable

TIME_LIMIT_S = 10.0
MEMORY_LIMIT_BYTES = 2 << 30


class OpTimeout(BaseException):
    """The operation ran past the per-operation time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def install_memory_guard() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@dataclass
class Outcome:
    seconds: float  # wall time, also when the operation failed
    code: int | None
    out: str
    error: str | None  # "RecursionError", "timeout", "memory", ...; None if it ran


def run_guarded(call: Callable[[], int]) -> Outcome:
    """Run `call` (a CLI invocation returning an exit code) with stdout and
    stderr captured, under the time limit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    code: int | None = None
    error: str | None = None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
    except OpTimeout:
        error = "timeout"
    except MemoryError:
        error = "memory"
    except Exception as exc:  # any crash of the program is a failed operation
        error = type(exc).__name__
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(time.perf_counter() - t0 if error else elapsed, code,
                   out.getvalue(), error)
