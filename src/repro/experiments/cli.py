"""Command-line entry points for the experiment harness.

Figure drivers (``repro-experiments <figure> [options]``)::

    repro-experiments fig4 --scale 100000 --seed 1
    repro-experiments fig8 --dataset cloud
    repro-experiments all --scale 20000

``all`` runs every figure at the given scale (slow at large scales).

The experiment matrix (also reachable as ``repro matrix ...`` from the
operations CLI)::

    repro-experiments matrix run --config benchmarks/matrix/smoke.json
    repro-experiments matrix report --out matrix_report.md --html out.html
    repro-experiments matrix gate            # exit 1 on regression

``matrix run`` executes every configured cell and persists one
schema-versioned record per cell under the run directory
(``benchmarks/results/runs/<run_id>/`` by default); ``report`` renders
the cross-run trend document; ``gate`` compares the newest run against
a baseline run and fails the process on regression (see
:mod:`repro.experiments.trend`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.common.errors import ParameterError
from repro.experiments import figures
from repro.experiments.harness import FigureResult, format_rows
from repro.experiments.scaling import parallel_scaling_study, scaling_study
from repro.observability.cli import exit_quietly_on_broken_pipe

#: Figure name -> (driver, whether it takes a dataset argument).
_DRIVERS: Dict[str, Callable[..., FigureResult]] = {
    "fig4": figures.fig4_accuracy_internet,
    "fig5": figures.fig5_accuracy_cloud,
    "fig6": figures.fig6_threshold_sweep,
    "fig7": figures.fig7_delta_sweep,
    "fig8": figures.fig8_throughput,
    "fig9": figures.fig9_fig10_parameter_sweeps,
    "fig10": figures.fig9_fig10_parameter_sweeps,
    "fig11": figures.fig11_memory_ratio,
    "fig12": figures.fig12_variants,
    "fig13": figures.fig13_modify_epsilon,
    "fig14": figures.fig14_modify_delta,
    "fig15": figures.fig15_modify_threshold,
    "scaling": scaling_study,
    "parallel": parallel_scaling_study,
}

_DATASET_AWARE = {
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "scaling", "parallel",
}

#: Drivers that do not take the per-figure ``scale`` parameter.
_NO_SCALE = {"scaling"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the QuantileFilter paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(_DRIVERS) + ["all", "report"],
        help="which paper figure to regenerate ('report' writes all of "
        "them to one Markdown file)",
    )
    parser.add_argument(
        "--out", default="REPORT.md",
        help="output path for the 'report' command (default REPORT.md)",
    )
    parser.add_argument(
        "--matrix-runs", default=None, metavar="DIR",
        help="for 'report': also append the matrix trend history from "
        "this run store (see 'repro matrix run')",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="stream length (default: the driver's CI-friendly default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--dataset", default=None,
        help="dataset name for dataset-aware figures (internet/cloud/zipf-*)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit rows as JSON instead of a text table",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="max shard count for the 'parallel' scaling study "
        "(sweeps powers of two up to this value; default 4)",
    )
    parser.add_argument(
        "--processes", action="store_true",
        help="back the 'parallel' study with worker processes "
        "(ParallelPipeline) instead of in-process sharding",
    )
    return parser


def _run_one(name: str, args: argparse.Namespace) -> FigureResult:
    driver = _DRIVERS[name]
    kwargs = {"seed": args.seed}
    if args.scale is not None and name not in _NO_SCALE:
        kwargs["scale"] = args.scale
    if args.dataset is not None and name in _DATASET_AWARE:
        kwargs["dataset"] = args.dataset
    if name == "parallel":
        if args.shards is not None:
            kwargs["max_shards"] = args.shards
        if args.processes:
            kwargs["processes"] = True
    return driver(**kwargs)


# ----------------------------------------------------------------------
# the matrix subcommand family (repro matrix run|report|gate)
# ----------------------------------------------------------------------
def build_matrix_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro matrix",
        description="Run, report and gate the config-driven experiment "
        "matrix (persisted runs under --runs).",
    )
    sub = parser.add_subparsers(dest="matrix_command", required=True)

    run = sub.add_parser(
        "run", help="execute every configured cell and persist one run"
    )
    run.add_argument(
        "--config", required=True,
        help="matrix config file (.toml on Python >= 3.11, or .json)",
    )
    run.add_argument(
        "--runs", default=None,
        help="run-store root (default: the config's [matrix].runs_root, "
        "else benchmarks/results/runs)",
    )
    run.add_argument(
        "--run-id", default=None,
        help="explicit run id (default: UTC timestamp + config hash)",
    )
    run.add_argument(
        "--revision", default=None,
        help="revision label to record (default: git rev-parse HEAD)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress",
    )

    report = sub.add_parser(
        "report", help="render the cross-run trend report"
    )
    report.add_argument("--runs", default=None, help="run-store root")
    report.add_argument(
        "--out", default="matrix_report.md",
        help="Markdown output path (default matrix_report.md)",
    )
    report.add_argument(
        "--html", default=None, help="also write a standalone HTML report",
    )
    report.add_argument(
        "--last", type=int, default=None,
        help="only include the newest N runs",
    )

    gate = sub.add_parser(
        "gate",
        help="compare two runs under the ratio gates; exit 1 on regression",
    )
    gate.add_argument("--runs", default=None, help="run-store root")
    gate.add_argument(
        "--baseline", default=None,
        help="baseline run id (default: second-newest run)",
    )
    gate.add_argument(
        "--candidate", default=None,
        help="candidate run id (default: newest run)",
    )
    gate.add_argument(
        "--min-throughput-ratio", type=float, default=None,
        help="override the policy's minimum candidate/baseline items/s",
    )
    gate.add_argument(
        "--max-f1-drop", type=float, default=None,
        help="override the policy's maximum absolute overall-F1 drop",
    )
    return parser


def _matrix_store(args, config: dict = None):
    from repro.experiments.matrix import DEFAULT_RUNS_ROOT
    from repro.experiments.runstore import RunStore

    root = args.runs
    if root is None and config:
        root = config.get("matrix", {}).get("runs_root")
    return RunStore(Path(root or DEFAULT_RUNS_ROOT))


def _cmd_matrix_run(args) -> int:
    from repro.experiments.matrix import load_matrix_config, run_matrix

    config = load_matrix_config(args.config)
    store = _matrix_store(args, config)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    run_id = run_matrix(
        config, store,
        run_id=args.run_id, revision=args.revision, progress=progress,
    )
    print(f"persisted run {run_id} under {store.root}")
    return 0


def _cmd_matrix_report(args) -> int:
    from repro.experiments.trend import (
        GatePolicy, evaluate_gates, render_html, render_markdown,
    )

    store = _matrix_store(args)
    runs = store.load_all()
    if args.last:
        runs = runs[-args.last:]
    gate = None
    if len(runs) >= 2:
        policy = GatePolicy.from_config(runs[-1].manifest.get("config", {}))
        gate = evaluate_gates(runs[-2], runs[-1], policy)
    out = Path(args.out)
    out.write_text(render_markdown(runs, gate=gate))
    print(f"trend report over {len(runs)} run(s) written to {out}")
    if args.html:
        Path(args.html).write_text(render_html(runs, gate=gate))
        print(f"HTML report written to {args.html}")
    return 0


def _cmd_matrix_gate(args) -> int:
    from repro.experiments.trend import GatePolicy, evaluate_gates

    store = _matrix_store(args)
    runs = store.load_all()
    by_id = {run.run_id: run for run in runs}

    def pick(run_id, default_index, role):
        if run_id is None:
            if len(runs) < 2:
                print(
                    "gate needs two persisted runs (or explicit "
                    "--baseline/--candidate); found "
                    f"{len(runs)} under {store.root}",
                    file=sys.stderr,
                )
                raise SystemExit(2)
            return runs[default_index]
        try:
            return by_id[run_id]
        except KeyError:
            print(f"no such {role} run: {run_id!r}", file=sys.stderr)
            raise SystemExit(2) from None

    candidate = pick(args.candidate, -1, "candidate")
    baseline = pick(args.baseline, -2, "baseline")
    policy = GatePolicy.from_config(candidate.manifest.get("config", {}))
    overrides = {}
    if args.min_throughput_ratio is not None:
        overrides["min_throughput_ratio"] = args.min_throughput_ratio
    if args.max_f1_drop is not None:
        overrides["max_f1_drop"] = args.max_f1_drop
    if overrides:
        from dataclasses import replace

        policy = replace(policy, **overrides)
    result = evaluate_gates(baseline, candidate, policy)
    for note in result.notes:
        print(f"note: {note}")
    if result.passed:
        print(
            f"gate PASS: {candidate.run_id} vs {baseline.run_id} "
            f"({len(candidate.records)} cells)"
        )
        return 0
    print(
        f"gate FAIL: {len(result.violations)} violation(s), "
        f"{candidate.run_id} vs {baseline.run_id}",
        file=sys.stderr,
    )
    for violation in result.violations:
        print(f"  {violation}", file=sys.stderr)
    return 1


def matrix_main(argv=None) -> int:
    """Entry point for ``repro matrix ...`` / ``repro-experiments matrix``."""
    args = build_matrix_parser().parse_args(argv)
    try:
        if args.matrix_command == "run":
            return _cmd_matrix_run(args)
        if args.matrix_command == "report":
            return _cmd_matrix_report(args)
        return _cmd_matrix_gate(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@exit_quietly_on_broken_pipe
def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "matrix":
        return matrix_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.figure == "report":
        from repro.experiments.report import write_report

        kwargs = {"seed": args.seed}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if args.matrix_runs is not None:
            kwargs["matrix_runs"] = args.matrix_runs
        path = write_report(args.out, **kwargs)
        print(f"report written to {path}")
        return 0
    names = sorted(_DRIVERS) if args.figure == "all" else [args.figure]
    # fig9 and fig10 share one driver; don't run it twice under "all".
    if args.figure == "all":
        names.remove("fig10")
    for name in names:
        result = _run_one(name, args)
        if args.json:
            print(json.dumps({"figure": result.figure, "rows": result.rows()}))
        else:
            print(result)
            print()
        if name == "fig4":
            print("-- key result 2: space saving at equal F1 --")
            print(format_rows(figures.space_saving_table(result.records)))
            print()
        if name == "fig8":
            print("-- key result 1: speed ratio at F1 >= 0.5 --")
            print(format_rows(figures.speed_ratio_table(result.records)))
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
