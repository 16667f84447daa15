"""Deterministic fault injection for the chaos suite.

The runner has no injection hook: a test faults a sweep by re-registering
its suite with a wrapped ``run_point`` (:func:`faulted`). The wrapper runs
exactly where a task's own work runs, in the executing process, after the
counters reset and inside the task timeout, so every failure it raises is
one the runner meets in production.

A *schedule* maps a task's seed (``Task.seed``) to one entry per attempt:
attempt 1 takes the first entry, attempt 2 the second, and ``None`` entries
and attempts past the end run clean. Attempts are counted in one file per
seed under ``attempts_dir``, so the count survives SIGKILLed and respawned
workers. Because seeds and attempt numbers are deterministic, the same
schedule always fails the same tasks at the same attempts, however the
scheduler interleaves workers.

Not a test module (pytest does not collect it). Tests import it as
``from chaos import ...``; benches put ``tests/`` on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from repro.experiments import get_suite, register_suite

#: ``raise``: an ``InjectedFault`` the runner retries. ``interrupt``: a
#: ``KeyboardInterrupt``, which stops a serial sweep and kills a worker.
#: ``kill``: SIGKILL of the executing process. ``sleep``: sleep ``seconds``,
#: then run the point (to overrun the task timeout).
FAULT_KINDS = ("raise", "interrupt", "kill", "sleep")

RunPoint = Callable[[Mapping[str, object], int], Dict[str, object]]
Schedule = Mapping[int, Sequence[Optional["Fault"]]]


class InjectedFault(RuntimeError):
    """The deliberate task failure of the ``raise`` fault."""


@dataclass(frozen=True)
class Fault:
    """What goes wrong on one attempt of one task."""

    kind: str
    seconds: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")


def faulty(run_point: RunPoint, schedule: Schedule, attempts_dir: Path | str) -> RunPoint:
    """``run_point`` wrapped to inject the schedule's fault on each attempt."""
    attempts_dir = Path(attempts_dir)
    attempts_dir.mkdir(parents=True, exist_ok=True)

    def run(point: Mapping[str, object], seed: int) -> Dict[str, object]:
        counter = attempts_dir / f"{seed}.attempts"
        with counter.open("ab") as handle:  # one byte per attempt
            handle.write(b".")
        attempt = counter.stat().st_size
        entries = schedule.get(seed, ())
        fault = entries[attempt - 1] if attempt <= len(entries) else None
        kind = fault.kind if fault is not None else None
        if kind == "raise":
            raise InjectedFault(fault.message or f"injected failure (attempt {attempt})")
        if kind == "interrupt":
            raise KeyboardInterrupt(fault.message or "injected interrupt")
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "sleep":
            time.sleep(fault.seconds)
        return run_point(point, seed)

    return run


@contextmanager
def faulted(scenario_id: str, schedule: Schedule, attempts_dir: Path | str) -> Iterator[None]:
    """Run the block with ``scenario_id``'s suite faulted, then restore it.

    Parallel sweeps need the ``fork`` start method, so that workers inherit
    the faulted registration.
    """
    clean = get_suite(scenario_id)
    register_suite(
        dataclasses.replace(clean, run_point=faulty(clean.run_point, schedule, attempts_dir))
    )
    try:
        yield
    finally:
        register_suite(clean)
