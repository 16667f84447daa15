#!/usr/bin/env python
"""List the functions in ``src/repro`` that no entry point CI runs ever executes.

Runs every entry point that CI runs outside pytest as a subprocess, each under
a call tracer that records every code object executed under ``src/repro``:

* every command-line subcommand: each ``generate`` model, every access
  algorithm and baseline generator, ``metrics --spectrum``, ``validate`` for
  each target, ``growth``, ``render`` with and without ``--ccdf``, and
  ``scenarios``;
* ``run all --smoke --jobs 2`` under both kernel backends;
* every ``bench-smoke`` row of ``.github/workflows/ci.yml``;
* every script under ``examples/``;
* every ``perfbench-check`` workload of ``ci.yml``, once as a traced smoke run
  and once untraced at full size with ``--seconds 0``.

It then lists every function and method under ``src/repro`` from the AST and
matches the recorded code objects to them by file and first line (a decorated
function's code starts at its first decorator).  It prints the functions that
no run executed and that ``benchmarks/reachability_allowlist.txt`` does not
list, and the allowlist entries that were executed or no longer exist.  Either
list being non-empty exits 1; an entry point that fails exits 2.

Each allowlist line is ``path:qualname  reason``, with ``path`` relative to
the repository root; ``#`` starts a comment.

Usage::

    python benchmarks/reachability.py

Standard library only, no flags.  Every run works in a temporary directory, so
the ``BENCH_*.json``, ``RESULTS/`` and ``benchmarks/results/`` files the
benches write never touch the checkout.  The tracer reaches the subprocesses
through a generated ``sitecustomize.py`` on ``PYTHONPATH``; it also wraps
``os._exit``, so forked sweep workers report what they ran.  About 4 minutes
on 2 CPUs.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"
#: Subprocesses run at once; the sweeps start two workers of their own.
PARALLEL_RUNS = 2

#: Written into the traced interpreters as ``sitecustomize.py``.  Records the
#: code object of every Python call (``settrace`` without a local tracer, so
#: no line events) and dumps those under the package when the process ends.
TRACER = '''\
import atexit
import os
import sys
import threading

_PACKAGE = {package!r}
_RECORDS = {records!r}
_seen = set()
_add = _seen.add


def _trace(frame, event, arg):
    _add(frame.f_code)


def _dump():
    lines = {{
        f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n"
        for code in list(_seen)
        if code.co_filename.startswith(_PACKAGE)
    }}
    name = f"{{os.getpid()}}-{{os.urandom(4).hex()}}.txt"
    with open(os.path.join(_RECORDS, name), "w") as handle:
        handle.writelines(lines)


def _exit(code, _real_exit=os._exit):
    # Forked workers leave through os._exit, which skips atexit.
    _dump()
    _real_exit(code)


os._exit = _exit
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
'''


class Run(NamedTuple):
    """One entry point: its command, backend and accepted exit codes."""

    name: str
    argv: List[str]
    backend: str = "auto"
    exit_codes: Tuple[int, ...] = (0,)


class Function(NamedTuple):
    """A function or method definition found in the package's AST."""

    path: str
    qualname: str
    first_line: int
    lines: int

    @property
    def key(self) -> str:
        """The allowlist key, ``path:qualname``."""
        return f"{self.path}:{self.qualname}"


# ----------------------------------------------------------------------
# What CI runs
# ----------------------------------------------------------------------
def ci_bench_rows() -> List[Tuple[str, str, str]]:
    """``(bench, args, backend)`` for every ``bench-smoke`` row of ``ci.yml``."""
    text = CI_FILE.read_text()
    block = text[text.index("bench-smoke:") : text.index("bench-merge:")]
    rows = []
    for entry in re.findall(r"-\s*\{([^}]*)\}", block):
        fields = dict(re.findall(r'(\w+):\s*("[^"]*"|[^,\s]+)', entry))
        fields = {key: value.strip('"') for key, value in fields.items()}
        rows.append((fields["bench"], fields.get("args", ""), fields.get("backend", "auto")))
    if not rows:
        raise SystemExit(f"no bench-smoke rows found in {CI_FILE}")
    return rows


def ci_perfbench_workloads() -> List[str]:
    """The ``perfbench-check`` workload matrix of ``ci.yml``."""
    text = CI_FILE.read_text()
    block = text[text.index("perfbench-check:") : text.index("bench-smoke:")]
    match = re.search(r"workload:\s*\[([^\]]*)\]", block)
    if match is None:
        raise SystemExit(f"no perfbench-check workloads found in {CI_FILE}")
    return [name.strip() for name in match.group(1).split(",")]


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def generate_runs() -> List[Run]:
    """Command-line runs that write the topologies the later runs read."""
    runs = [
        Run(
            "generate fkp",
            cli("generate", "fkp", "--nodes", "300", "--seed", "1", "-o", "fkp.json"),
        ),
        Run(
            "generate isp",
            cli("generate", "isp", "--cities", "8", "--seed", "1", "-o", "isp.json"),
        ),
        Run(
            "generate isp profit",
            cli("generate", "isp", "--cities", "6", "--objective", "profit", "--seed", "2",
                "-o", "isp-profit.json"),
        ),
        Run(
            "generate internet",
            cli("generate", "internet", "--isps", "6", "--cities", "12", "--seed", "1",
                "-o", "internet.json"),
        ),
        Run(
            "generate access clustered",
            cli("generate", "access", "--customers", "100", "--clustered", "--seed", "1",
                "-o", "access-clustered.json"),
        ),
    ]
    for algorithm in ("greedy", "meyerson", "mst", "star"):
        runs.append(
            Run(
                f"generate access {algorithm}",
                cli("generate", "access", "--customers", "120", "--algorithm", algorithm,
                    "--seed", "1", "-o", f"access-{algorithm}.json"),
            )
        )
    for generator in ("barabasi-albert", "erdos-renyi", "glp", "inet", "plrg",
                      "transit-stub", "waxman"):
        runs.append(
            Run(
                f"generate baseline {generator}",
                cli("generate", "baseline", "--generator", generator, "--nodes", "300",
                    "--seed", "1", "-o", f"{generator}.json"),
            )
        )
    return runs


def other_runs() -> List[Run]:
    """Every other entry point; they read the generated topologies."""
    runs = [
        Run(
            "metrics --spectrum",
            cli("metrics", "fkp.json", "access-meyerson.json", "isp.json", "internet.json",
                "glp.json", "--sample-size", "30", "--spectrum"),
        ),
        Run("growth", cli("growth", "--periods", "3", "--seed", "2", "-o", "growth.json")),
        Run("render", cli("render", "access-meyerson.json", "-o", "layout.svg")),
        Run("render --ccdf", cli("render", "glp.json", "--ccdf", "-o", "ccdf.svg")),
        Run("scenarios", cli("scenarios")),
    ]
    for target in ("as-graph", "backbone", "router-access"):
        # A FAIL verdict exits 1; only a crash is a failed run.
        runs.append(
            Run(
                f"validate {target}",
                cli("validate", "access-meyerson.json", "--target", target),
                exit_codes=(0, 1),
            )
        )
    for backend in ("auto", "python"):
        runs.append(
            Run(
                f"run all --smoke ({backend})",
                cli("run", "all", "--smoke", "--jobs", "2", "--results-dir", f"RESULTS-{backend}"),
                backend=backend,
            )
        )
    for bench, args, backend in ci_bench_rows():
        runs.append(
            Run(
                f"bench_{bench} --smoke {args} ({backend})".replace("  ", " "),
                [sys.executable, str(ROOT / "benchmarks" / f"bench_{bench}.py"), "--smoke",
                 *args.split()],
                backend=backend,
            )
        )
    for example in sorted((ROOT / "examples").glob("*.py")):
        extra = ["gallery"] if example.name == "render_gallery.py" else []
        runs.append(Run(f"examples/{example.name}", [sys.executable, str(example), *extra]))
    perfbench = str(ROOT / "perfbench" / "run.py")
    for workload in ci_perfbench_workloads():
        common = [sys.executable, perfbench, "--workload", workload, "--seed", "7"]
        common += ["--seconds", "0"]
        runs.append(Run(f"perfbench {workload} smoke traced", [*common, "--trace", "1", "--smoke"]))
        runs.append(Run(f"perfbench {workload} full untraced", [*common, "--trace", "0"]))
    return runs


# ----------------------------------------------------------------------
# Running under the tracer
# ----------------------------------------------------------------------
def execute(run: Run, workdir: Path, tracer_dir: Path) -> Optional[str]:
    """Run one entry point; an error message when it failed, else ``None``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tracer_dir), str(ROOT / "src")])
    env["REPRO_BACKEND"] = run.backend
    log = workdir / "logs" / (re.sub(r"[^\w.-]+", "_", run.name) + ".log")
    start = time.perf_counter()
    with open(log, "w") as handle:
        done = subprocess.run(
            run.argv, cwd=workdir, env=env, stdout=handle, stderr=subprocess.STDOUT
        )
    print(f"  {time.perf_counter() - start:7.1f} s  {run.name}", flush=True)
    if done.returncode in run.exit_codes:
        return None
    tail = "".join(log.read_text().splitlines(keepends=True)[-20:])
    return f"{run.name} exited {done.returncode}:\n{tail}"


def run_all(runs: Sequence[Run], workdir: Path, tracer_dir: Path) -> List[str]:
    with ThreadPoolExecutor(max_workers=PARALLEL_RUNS) as pool:
        results = list(pool.map(lambda run: execute(run, workdir, tracer_dir), runs))
    return [error for error in results if error is not None]


def executed_lines(records: Path) -> Set[Tuple[str, int]]:
    """``(path, first_line)`` of every code object any traced process ran."""
    executed = set()
    for record in records.iterdir():
        for line in record.read_text().splitlines():
            filename, first_line = line.rsplit("\t", 1)
            path = Path(filename).resolve()
            if PACKAGE in path.parents:
                executed.add((path.relative_to(ROOT).as_posix(), int(first_line)))
    return executed


# ----------------------------------------------------------------------
# Matching against the AST
# ----------------------------------------------------------------------
def package_functions() -> List[Function]:
    """Every function and method defined under ``src/repro``, nested ones too."""
    functions = []

    def visit(body, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                qualname = prefix + node.name
                functions.append(
                    Function(path, qualname, first, node.end_lineno - first + 1)
                )
                visit(node.body, path, qualname + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, path, prefix + node.name + ".")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []), path, prefix)

    for source in sorted(PACKAGE.rglob("*.py")):
        path = source.relative_to(ROOT).as_posix()
        visit(ast.parse(source.read_text(), str(source)).body, path, "")
    return functions


def read_allowlist() -> Dict[str, str]:
    """``path:qualname`` -> reason; a line without a reason is an error."""
    entries: Dict[str, str] = {}
    for number, raw in enumerate(ALLOWLIST.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise SystemExit(f"{ALLOWLIST.name}:{number}: {parts[0]} gives no reason")
        entries[parts[0]] = parts[1]
    return entries


def main() -> int:
    start = time.perf_counter()
    allowlist = read_allowlist()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        workdir = Path(scratch)
        tracer_dir = workdir / "tracer"
        records = workdir / "records"
        for directory in (tracer_dir, records, workdir / "logs"):
            directory.mkdir()
        (tracer_dir / "sitecustomize.py").write_text(
            TRACER.format(package=str(PACKAGE) + os.sep, records=str(records))
        )
        errors: List[str] = []
        for phase in (generate_runs(), other_runs()):
            print(f"running {len(phase)} entry points", flush=True)
            errors += run_all(phase, workdir, tracer_dir)
        executed = executed_lines(records)
    if errors:
        print("\n".join(["", "entry points that failed (the trace is incomplete):", *errors]))
        return 2

    functions = package_functions()
    known = {f.key for f in functions}
    unexecuted = [f for f in functions if (f.path, f.first_line) not in executed]
    unexecuted_keys = {f.key for f in unexecuted}
    missing = [f for f in unexecuted if f.key not in allowlist]
    stale = sorted(
        f"{key}  ({'no longer exists' if key not in known else 'was executed'})"
        for key in allowlist
        if key not in unexecuted_keys
    )

    print(
        f"\n{len(functions)} functions in src/repro; {len(unexecuted)} never executed "
        f"({sum(f.lines for f in unexecuted)} lines), "
        f"{len(unexecuted) - len(missing)} of them allowlisted; "
        f"{time.perf_counter() - start:.0f} s"
    )
    if missing:
        print(f"\nnever executed and not in {ALLOWLIST.name} "
              f"({len(missing)} functions, {sum(f.lines for f in missing)} lines):")
        for f in missing:
            print(f"  {f.key}  (line {f.first_line}, {f.lines} lines)")
    if stale:
        print(f"\n{ALLOWLIST.name} entries that were executed or no longer exist:")
        for entry in stale:
            print(f"  {entry}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
