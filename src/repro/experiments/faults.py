"""Deterministic fault injection for the sweep runner.

The chaos harness the fault-tolerance contract is tested against: a
:class:`FaultPlan` maps task digests to an ordered *schedule* of faults, one
per attempt — attempt 1 consumes the first entry, attempt 2 the second, and
attempts beyond the schedule run clean.  Because the schedule is keyed by the
task's content address and indexed by the attempt number (both deterministic),
an injected run is exactly reproducible: the same plan always fails the same
tasks at the same attempts, no matter how the scheduler interleaves workers.

Fault kinds:

``raise``
    Raise :class:`InjectedFault` inside task execution (a recoverable task
    error; the runner retries it).
``interrupt``
    Raise :class:`KeyboardInterrupt` inside task execution — a deterministic
    stand-in for Ctrl-C.  The serial runner propagates it (the sweep stops
    mid-run, already-completed records stay in the store); a parallel worker
    dies with it, which the parent treats as worker death.
``kill``
    ``SIGKILL`` the executing process from inside task execution — a worker
    crash with no chance to report back.  The parent detects the dead worker
    and re-dispatches the lost task.
``sleep``
    Sleep ``seconds`` before running the point — used to exceed the runner's
    per-task wall-clock timeout (the task still completes if no timeout is
    set or the sleep is shorter).
``corrupt``
    No effect during execution; after the record is persisted the runner
    truncates the store file to ``keep_bytes`` bytes.  A later run's
    :meth:`ResultStore.load` quarantines the torn file to
    ``<digest>.json.corrupt`` and recomputes the task.

Activation: pass a plan to ``run_tasks(..., fault_plan=...)`` directly, or
set ``REPRO_FAULTS`` to either inline JSON (starts with ``{``) or a path to
a JSON plan file — :func:`active_fault_plan` reads it, so CLI sweeps can be
chaos-tested without code changes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The recognised fault kinds, in documentation order.
FAULT_KINDS = ("raise", "interrupt", "kill", "sleep", "corrupt")

#: Environment variable holding an inline JSON plan or a plan-file path.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """The deliberate task failure raised by the ``raise`` fault kind."""


@dataclass(frozen=True)
class Fault:
    """One injected fault: what goes wrong on one attempt of one task."""

    kind: str
    seconds: float = 0.0
    keep_bytes: int = 12
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")

    def to_json(self) -> Dict[str, object]:
        """JSON form (all fields, so plans round-trip exactly)."""
        return {
            "kind": self.kind,
            "seconds": self.seconds,
            "keep_bytes": self.keep_bytes,
            "message": self.message,
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "Fault":
        """Rebuild a fault from its JSON form (missing fields take defaults)."""
        return Fault(
            kind=str(data["kind"]),
            seconds=float(data.get("seconds", 0.0)),
            keep_bytes=int(data.get("keep_bytes", 12)),
            message=str(data.get("message", "")),
        )


class FaultPlan:
    """A deterministic injection schedule keyed by task digest.

    ``faults[digest][attempt - 1]`` is the fault injected on that attempt;
    attempts past the end of the schedule (and digests not in the plan) run
    clean.  ``None`` entries mean "this attempt runs clean" and let a plan
    fault a later attempt only.
    """

    def __init__(self, faults: Mapping[str, Sequence[Optional[Fault]]]) -> None:
        self._faults: Dict[str, Tuple[Optional[Fault], ...]] = {
            digest: tuple(schedule) for digest, schedule in faults.items()
        }

    def fault_for(self, digest: str, attempt: int) -> Optional[Fault]:
        """The fault injected on the given (1-based) attempt, if any."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        schedule = self._faults.get(digest, ())
        return schedule[attempt - 1] if attempt <= len(schedule) else None

    def to_json(self) -> Dict[str, object]:
        """JSON form, suitable for ``REPRO_FAULTS`` inline or file content."""
        tasks: Dict[str, List[Optional[Dict[str, object]]]] = {
            digest: [fault.to_json() if fault is not None else None for fault in schedule]
            for digest, schedule in sorted(self._faults.items())
        }
        return {"version": 1, "tasks": tasks}

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a plan from its JSON form."""
        tasks = data.get("tasks", {})
        if not isinstance(tasks, Mapping):
            raise ValueError("fault plan 'tasks' must be a mapping of digest -> fault list")
        return FaultPlan(
            {
                str(digest): [
                    Fault.from_json(entry) if entry is not None else None for entry in schedule
                ]
                for digest, schedule in tasks.items()
            }
        )


def apply_execution_fault(plan: Optional[FaultPlan], digest: str, attempt: int) -> None:
    """Inject the plan's execution-time fault for this attempt, if any.

    Called from inside task execution; ``corrupt`` is a store-time fault and
    is a no-op here (the runner applies it after persisting the record).
    """
    fault = plan.fault_for(digest, attempt) if plan is not None else None
    if fault is None or fault.kind == "corrupt":
        return
    if fault.kind == "raise":
        raise InjectedFault(fault.message or f"injected failure ({digest[:12]}, attempt {attempt})")
    if fault.kind == "interrupt":
        raise KeyboardInterrupt(fault.message or "injected interrupt")
    if fault.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault.kind == "sleep":
        time.sleep(fault.seconds)


def corrupt_record_file(path: Path, keep_bytes: int) -> None:
    """Truncate a store file in place (simulates a torn write / disk fault)."""
    data = path.read_bytes()
    path.write_bytes(data[: max(0, keep_bytes)])


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULTS`` (inline JSON or a file path)."""
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    text = raw if raw.startswith("{") else Path(raw).read_text()
    return FaultPlan.from_json(json.loads(text))
