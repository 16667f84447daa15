"""Registry of experiment suites.

An :class:`ExperimentSuite` defines one of the paper's experiments: its claim,
its sweep grid, and everything the runner needs to execute it end to end:

* ``parameters`` is the full-size grid, including the sweep ``seed``, and
  ``smoke`` holds the values a smoke run replaces; ``grid(smoke)`` merges
  them;
* ``expand(smoke)`` turns ``grid(smoke)`` into
  :class:`~repro.experiments.task.Task`s;
* ``run_point(point, seed)`` computes one point — a **pure** function of its
  arguments (module-level, so worker processes can resolve it by scenario id);
* ``aggregate(records)`` folds the per-task payloads into named report tables;
* ``check(tables, smoke)`` asserts the experiment's acceptance gates.

Suites self-register at import time via :func:`register_suite`; importing
:mod:`repro.experiments.suites` loads all built-ins.  Worker processes call
:func:`get_suite` after :func:`load_builtin_suites`, so the registry works
under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .manifest import TaskRecord
from .task import Task

#: table name -> rows, the common output shape of ``aggregate``.
Tables = Dict[str, List[Dict[str, object]]]


@dataclass(frozen=True)
class ExperimentSuite:
    """One experiment wired into the orchestration engine."""

    scenario_id: str
    title: str
    expand: Callable[[bool], List[Task]]
    run_point: Callable[[Mapping[str, object], int], Dict[str, object]]
    aggregate: Callable[[List[TaskRecord]], Tables]
    check: Optional[Callable[[Tables, bool], None]] = None
    #: The claim from the paper the experiment reproduces.
    claim: str = ""
    #: The full-size sweep grid; ``seed`` is the sweep-level seed.
    parameters: Mapping[str, object] = field(default_factory=dict)
    #: Smaller values for the grid's size axes, so a smoke run finishes in
    #: seconds while still exercising the experiment's full code path.
    smoke: Mapping[str, object] = field(default_factory=dict)

    @property
    def base_seed(self) -> int:
        """The sweep-level seed every task seed is derived from."""
        return self.parameters["seed"]

    def grid(self, smoke: bool) -> Dict[str, object]:
        """The sweep grid, with the smoke values in place when ``smoke``."""
        return {**self.parameters, **self.smoke} if smoke else dict(self.parameters)


_SUITES: Dict[str, ExperimentSuite] = {}


def register_suite(suite: ExperimentSuite) -> ExperimentSuite:
    """Add a suite to the registry (later registrations win, for tests)."""
    _SUITES[suite.scenario_id] = suite
    return suite


def load_builtin_suites() -> None:
    """Import the built-in suite modules (idempotent)."""
    from . import suites  # noqa: F401  (import side effect registers suites)


def get_suite(scenario_id: str) -> ExperimentSuite:
    """Look up a suite by scenario id, loading built-ins on first use."""
    if scenario_id not in _SUITES:
        load_builtin_suites()
    try:
        return _SUITES[scenario_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {scenario_id!r}; known: {available_experiments()}"
        ) from None


def available_experiments() -> List[str]:
    """Registered scenario ids, sorted."""
    load_builtin_suites()
    return sorted(_SUITES)
