"""Command-line interface for the topology generation framework.

Exposes the main generators and the metric/validation suites without writing
any Python::

    python -m repro.cli generate fkp --nodes 500 --alpha 4.0 -o fkp.json
    python -m repro.cli generate access --customers 300 --algorithm meyerson -o metro.json
    python -m repro.cli generate isp --cities 20 -o isp.json
    python -m repro.cli generate baseline --model barabasi-albert --nodes 500 -o ba.json
    python -m repro.cli metrics fkp.json metro.json ba.json
    python -m repro.cli validate metro.json --target router-access
    python -m repro.cli scenarios
    python -m repro.cli run E1 --jobs 4 --smoke
    python -m repro.cli run all --jobs 8

Topologies are written/read as the JSON format of
:mod:`repro.topology.serialization`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core import (
    BUY_AT_BULK_ALGORITHMS,
    generate_fkp_tree,
    generate_internet,
    generate_isp,
    random_instance,
    solve_buy_at_bulk,
)
from .generators import available_generators, make_generator
from .metrics.comparison import compare_topologies, report_table
from .metrics.validation import BUILTIN_TARGETS, validate_topology
from .topology.serialization import load_json, save_json


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimization-driven Internet topology generation (HotNets 2003 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a topology and save it as JSON")
    generate_sub = generate.add_subparsers(dest="model", required=True)

    fkp = generate_sub.add_parser("fkp", help="FKP tradeoff tree (paper §3.1)")
    fkp.add_argument("--nodes", type=int, default=1000)
    fkp.add_argument("--alpha", type=float, default=4.0)
    fkp.add_argument("--seed", type=int, default=None)
    fkp.add_argument("-o", "--output", required=True)

    access = generate_sub.add_parser("access", help="buy-at-bulk access tree (paper §4)")
    access.add_argument("--customers", type=int, default=200)
    access.add_argument("--algorithm", choices=BUY_AT_BULK_ALGORITHMS, default="meyerson")
    access.add_argument("--clustered", action="store_true")
    access.add_argument("--seed", type=int, default=None)
    access.add_argument("-o", "--output", required=True)

    isp = generate_sub.add_parser("isp", help="single-ISP router-level topology (paper §2.2)")
    isp.add_argument("--cities", type=int, default=20)
    isp.add_argument("--objective", choices=["cost", "profit"], default="cost")
    isp.add_argument("--customers-per-city", type=float, default=6.0)
    isp.add_argument("--seed", type=int, default=None)
    isp.add_argument("-o", "--output", required=True)

    internet = generate_sub.add_parser("internet", help="multi-ISP AS graph (paper §2.3)")
    internet.add_argument("--isps", type=int, default=30)
    internet.add_argument("--cities", type=int, default=40)
    internet.add_argument("--seed", type=int, default=None)
    internet.add_argument("-o", "--output", required=True)

    baseline = generate_sub.add_parser("baseline", help="descriptive baseline generator")
    baseline.add_argument("--generator", choices=available_generators(), required=True)
    baseline.add_argument("--nodes", type=int, default=1000)
    baseline.add_argument("--seed", type=int, default=None)
    baseline.add_argument("-o", "--output", required=True)

    metrics = subparsers.add_parser("metrics", help="evaluate the metric suite on saved topologies")
    metrics.add_argument("paths", nargs="+", help="topology JSON files")
    metrics.add_argument("--sample-size", type=int, default=50)
    metrics.add_argument("--spectrum", action="store_true", help="include eigenvalue summaries")

    validate = subparsers.add_parser("validate", help="validate a topology against a reference target")
    validate.add_argument("path", help="topology JSON file")
    validate.add_argument("--target", choices=sorted(BUILTIN_TARGETS), required=True)
    validate.add_argument("--sample-size", type=int, default=50)

    growth = subparsers.add_parser("growth", help="simulate incremental multi-period build-out")
    growth.add_argument("--periods", type=int, default=8)
    growth.add_argument("--initial-customers", type=int, default=40)
    growth.add_argument("--customers-per-period", type=int, default=20)
    growth.add_argument("--budget", type=float, default=float("inf"))
    growth.add_argument("--seed", type=int, default=None)
    growth.add_argument("-o", "--output", default=None, help="optionally save the final topology as JSON")

    render = subparsers.add_parser("render", help="render a saved topology (or its degree CCDF) as SVG")
    render.add_argument("path", help="topology JSON file")
    render.add_argument("-o", "--output", required=True, help="output SVG file")
    render.add_argument("--ccdf", action="store_true", help="render the degree CCDF instead of the layout")
    render.add_argument("--linear-x", action="store_true", help="linear (not log) degree axis for the CCDF")

    subparsers.add_parser("scenarios", help="list the paper's experiments (E1–E13)")

    run = subparsers.add_parser(
        "run",
        help="run experiment sweeps through the orchestration engine",
        description=(
            "Expand a scenario's sweep grid into tasks, fan them out over worker "
            "processes with deterministic per-task seeds (parallel and serial runs "
            "are bit-identical), cache completed points content-addressed under "
            "RESULTS/<scenario>/, and print the experiment's report tables."
        ),
    )
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (E1..E13) or 'all'",
    )
    run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    run.add_argument(
        "--smoke", action="store_true", help="reduced sweep sizes for quick CI runs"
    )
    run.add_argument(
        "--force", action="store_true", help="recompute every point, ignoring the cache"
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted sweep: completed points load from the store "
            "as cache hits (reported as resumed); incompatible with --force"
        ),
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per task after a failure/worker death/timeout (default 2)",
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-task wall-clock budget in seconds; an overrunning attempt is "
            "killed and retried (default: no timeout)"
        ),
    )
    run.add_argument(
        "--results-dir",
        default="RESULTS",
        help="result store root (default RESULTS/); per-task records and manifests",
    )
    run.add_argument(
        "--no-check", action="store_true", help="skip the experiment acceptance gates"
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "fkp":
        topology = generate_fkp_tree(args.nodes, args.alpha, seed=args.seed)
    elif args.model == "access":
        instance = random_instance(args.customers, seed=args.seed, clustered=args.clustered)
        topology = solve_buy_at_bulk(instance, args.algorithm, seed=args.seed).topology
    elif args.model == "isp":
        topology = generate_isp(
            num_cities=args.cities,
            seed=args.seed,
            objective=args.objective,
            customers_per_city_scale=args.customers_per_city,
        ).topology
    elif args.model == "internet":
        topology = generate_internet(
            num_isps=args.isps, num_cities=args.cities, seed=args.seed
        ).as_graph
    elif args.model == "baseline":
        topology = make_generator(args.generator).generate(args.nodes, seed=args.seed)
    else:  # pragma: no cover - argparse prevents this
        raise ValueError(f"unknown model {args.model!r}")
    save_json(topology, args.output)
    print(f"wrote {topology.num_nodes} nodes / {topology.num_links} links to {args.output}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    topologies = {path: load_json(path) for path in args.paths}
    reports = compare_topologies(
        topologies, include_spectrum=args.spectrum, sample_size=args.sample_size
    )
    print(report_table(reports))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    topology = load_json(args.path)
    target = BUILTIN_TARGETS[args.target]
    report = validate_topology(topology, target, sample_size=args.sample_size)
    print("\n".join(report.summary_lines()))
    print(f"overall: {'PASS' if report.passed else 'FAIL'} ({report.pass_fraction:.0%} of checks)")
    return 0 if report.passed else 1


def _cmd_growth(args: argparse.Namespace) -> int:
    from .core.evolution import simulate_growth

    trace = simulate_growth(
        periods=args.periods,
        initial_customers=args.initial_customers,
        customers_per_period=args.customers_per_period,
        seed=args.seed,
        budget_per_period=args.budget,
    )
    columns = [
        "period", "num_customers", "deferred_customers", "num_links",
        "capital_spent", "upgrade_count", "max_degree", "tail_verdict",
    ]
    print("  ".join(f"{c:>18}" for c in columns))
    for row in trace.as_rows():
        print("  ".join(f"{str(round(row[c], 1) if isinstance(row[c], float) else row[c]):>18}" for c in columns))
    print(f"total capital spent: {trace.total_capital():.1f}")
    if args.output:
        save_json(trace.topology, args.output)
        print(f"wrote final topology to {args.output}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .visualization import save_ccdf_svg, save_topology_svg

    topology = load_json(args.path)
    if args.ccdf:
        save_ccdf_svg({topology.name: topology}, args.output, log_x=not args.linear_x)
    else:
        save_topology_svg(topology, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import available_experiments, get_suite, run_experiment
    from .experiments.reporting import print_experiment

    known = available_experiments()
    if not args.experiments:
        print("no experiments given (try 'all', or 'scenarios' to list them)", file=sys.stderr)
        return 2
    if args.resume and args.force:
        print("--resume and --force are mutually exclusive", file=sys.stderr)
        return 2
    requested: List[str] = []
    for name in args.experiments:
        if name.lower() == "all":
            requested.extend(known)
        elif name in known:
            requested.append(name)
        else:
            print(f"unknown experiment {name!r}; known: {', '.join(known)}", file=sys.stderr)
            return 2
    failed: List[str] = []
    degraded: List[str] = []
    for experiment_id in dict.fromkeys(requested):  # de-dup, keep order
        # Gates run after the tables are printed (check=False here), so a
        # failing experiment still shows its report before the FAIL verdict.
        # strict=False: a degraded sweep (quarantined tasks) still writes its
        # partial manifest and prints its accounting; the CLI maps it to a
        # distinct exit code instead of a traceback.
        result = run_experiment(
            experiment_id,
            smoke=args.smoke,
            jobs=args.jobs,
            results_dir=args.results_dir,
            force=args.force,
            check=False,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            resume=args.resume,
            strict=False,
        )
        # emit=False: the CLI prints tables but leaves the benchmarks/results/
        # text artifacts to the benchmark scripts.
        print_experiment(result, emit=False)
        if result.manifest_path is not None:
            print(f"[{experiment_id}] manifest: {result.manifest_path}")
        if result.degraded:
            degraded.append(experiment_id)
            for digest, error in sorted(result.report.quarantined.items()):
                print(f"[{experiment_id}] quarantined {digest[:16]}: {error}", file=sys.stderr)
            print(
                f"[{experiment_id}] DEGRADED: {len(result.report.quarantined)} task(s) "
                "quarantined; manifest flagged, gates skipped",
                file=sys.stderr,
            )
            continue
        if not args.no_check:
            suite = get_suite(experiment_id)
            if suite.check is not None:
                try:
                    suite.check(result.tables, args.smoke)
                    result.gates_checked = True
                    print(f"[{experiment_id}] gates: PASS")
                except AssertionError as error:
                    failed.append(experiment_id)
                    detail = f": {error}" if str(error) else ""
                    print(f"[{experiment_id}] gates: FAIL{detail}", file=sys.stderr)
    if degraded:
        # Distinct from gate failures (1) and usage errors (2): the sweep
        # finished, but without its quarantined tasks.
        print(f"degraded sweeps: {', '.join(degraded)}", file=sys.stderr)
        return 3
    if failed:
        print(f"gate failures: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_scenarios() -> int:
    from .experiments import available_experiments, get_suite

    for experiment_id in available_experiments():
        suite = get_suite(experiment_id)
        print(f"{experiment_id}: {suite.title}")
        print(f"    claim: {suite.claim}")
        print(f"    parameters: {suite.parameters}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "growth":
        return _cmd_growth(args)
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "scenarios":
        return _cmd_scenarios()
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
