"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    # laptop-scale ERR sweep, two workers
    python -m repro.experiments --benchmark err --steps 5 --tables-per-step 3 --jobs 2

    # the full-paper configuration (same code path, bigger grid)
    python -m repro.experiments --benchmark err --steps 50 --tables-per-step 50 \
        --max-rows 10000 --jobs 8

    # multi-attribute lattice discovery over the RWD benchmark
    python -m repro.experiments --benchmark discovery --max-lhs-size 2

    # the Table V runtime protocol (writes BENCH_runtime.json)
    python -m repro.experiments --benchmark runtime

    # render results/*/curves.csv to PNG (requires matplotlib)
    python -m repro.experiments --plot

    # everything: ERR + UNIQ + SKEW + RWDe + discovery + Table III
    python -m repro.experiments --benchmark all
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.cli import comma_list, positive_float, positive_int, unit_fraction
from repro.core.registry import paper_label
from repro.errors.channels import ErrorType
from repro.experiments.discovery import DiscoveryConfig, run_discovery
from repro.experiments.plotting import PLOT_FORMATS, run_plot
from repro.experiments.properties import PropertiesConfig, run_properties
from repro.experiments.runtime import RuntimeConfig, run_runtime
from repro.experiments.rwde import RwdeConfig, run_rwde
from repro.experiments.sensitivity import SensitivityConfig, run_sensitivity

SENSITIVITY_BENCHMARKS = ("err", "uniq", "skew")
BENCHMARK_CHOICES = SENSITIVITY_BENCHMARKS + (
    "rwde",
    "discovery",
    "properties",
    "runtime",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's comparative AFD-measure experiments.",
    )
    parser.add_argument(
        "--benchmark",
        choices=BENCHMARK_CHOICES,
        default="err",
        help="which experiment to run (default: err)",
    )
    parser.add_argument("--steps", type=positive_int, default=5, help="sweep steps (default: 5)")
    parser.add_argument(
        "--tables-per-step",
        type=positive_int,
        default=3,
        help="B+/B- tables per step and subset (default: 3)",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, help="worker processes (default: 1)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed (default: the benchmark's classical seed)",
    )
    parser.add_argument("--min-rows", type=positive_int, default=100, help="minimum table size")
    parser.add_argument(
        "--max-rows",
        type=positive_int,
        default=1000,
        help="maximum table size (paper: 10000; default: 1000 for laptop runs)",
    )
    parser.add_argument(
        "--sfi-alpha",
        type=positive_float,
        default=0.5,
        help="SFI smoothing parameter (default: 0.5)",
    )
    parser.add_argument(
        "--output-dir",
        default="results",
        help="artifact directory (default: results/); use '-' to skip writing",
    )
    parser.add_argument(
        "--rwde-num-rows",
        type=positive_int,
        default=400,
        help="rows per RWD stand-in relation in the RWDe sweep (default: 400)",
    )
    parser.add_argument(
        "--rwde-error-levels",
        type=comma_list(unit_fraction),
        default="0.01,0.02,0.05",
        help="comma-separated RWDe error levels, each in (0, 1] (default: 0.01,0.02,0.05)",
    )
    parser.add_argument(
        "--rwde-error-types",
        type=comma_list(lambda name: ErrorType(name).value),
        default="copy,typo,bogus",
        help="comma-separated RWDe error types out of copy, typo and bogus "
        "(default: copy,typo,bogus)",
    )
    parser.add_argument(
        "--max-lhs-size",
        type=positive_int,
        default=2,
        help="LHS lattice depth of the discovery experiment (default: 2)",
    )
    parser.add_argument(
        "--discovery-threshold",
        type=float,
        default=0.9,
        help="acceptance threshold of the discovery experiment (default: 0.9)",
    )
    parser.add_argument(
        "--discovery-num-rows",
        type=positive_int,
        default=400,
        help="rows per RWD relation in the discovery experiment (default: 400)",
    )
    parser.add_argument(
        "--runtime-sizes",
        type=comma_list(positive_int),
        default="1000,5000,20000",
        help="comma-separated fixed relation sizes of the runtime benchmark "
        "(default: 1000,5000,20000)",
    )
    parser.add_argument(
        "--runtime-repeats",
        type=positive_int,
        default=RuntimeConfig.repeats,
        help="timed repetitions per relation (default: %(default)s)",
    )
    parser.add_argument(
        "--bench-path",
        default="BENCH_runtime.json",
        help="where the runtime benchmark record is written "
        "(default: %(default)s; '-' to skip)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="instead of running a benchmark, render every "
        "<output-dir>/*/curves.csv to a figure (clean skip when matplotlib "
        "is not installed)",
    )
    parser.add_argument(
        "--plot-format",
        choices=PLOT_FORMATS,
        default="png",
        help="figure format for --plot (default: png)",
    )
    return parser


def _print_summary(title: str, summary: Dict[str, Dict[str, float]]) -> None:
    print(f"\n{title}")
    header = f"{'measure':<16} {'PR-AUC':>8} {'rank@maxR':>10} {'separation':>11} {'total s':>9}"
    print(header)
    print("-" * len(header))
    for name, metrics in summary.items():
        print(
            f"{paper_label(name):<16} "
            f"{metrics['pr_auc']:>8.3f} "
            f"{metrics['rank_at_max_recall']:>10.0f} "
            f"{metrics['separation']:>11.3f} "
            f"{metrics.get('total_seconds', 0.0):>9.3f}"
        )


def _run_sensitivity(
    args: argparse.Namespace, benchmark: str, output_dir: Optional[str]
) -> Dict[str, object]:
    config = SensitivityConfig(
        benchmark=benchmark,
        steps=args.steps,
        tables_per_step=args.tables_per_step,
        jobs=args.jobs,
        seed=args.seed,
        min_rows=args.min_rows,
        max_rows=args.max_rows,
        sfi_alpha=args.sfi_alpha,
    )
    started = time.perf_counter()
    payload = run_sensitivity(config, output_dir=output_dir)
    elapsed = time.perf_counter() - started
    _print_summary(
        f"{payload['benchmark']} ({payload['num_tables']} tables, {elapsed:.1f}s)",
        payload["summary"],  # type: ignore[arg-type]
    )
    if output_dir is not None:
        print(f"artifacts: {output_dir}/{benchmark}/{{summary.json,summary.csv,scores.csv,curves.csv}}")
    return payload


def _run_rwde(args: argparse.Namespace, output_dir: Optional[str]) -> None:
    config = RwdeConfig(
        error_types=args.rwde_error_types,
        error_levels=args.rwde_error_levels,
        num_rows=args.rwde_num_rows,
        seed=args.seed if args.seed is not None else 0,
        jobs=args.jobs,
        sfi_alpha=args.sfi_alpha,
    )
    started = time.perf_counter()
    payload = run_rwde(config, output_dir=output_dir)
    elapsed = time.perf_counter() - started
    print(f"\nRWDe grid ({len(payload['cells'])} cells, {elapsed:.1f}s)")
    for cell in payload["cells"]:  # type: ignore[union-attr]
        best = max(cell["measures"].items(), key=lambda item: item[1]["pr_auc"])
        print(
            f"  {cell['error_type']:<6} eta={cell['error_level']:<5g} "
            f"candidates={cell['candidates']:<4} positives={cell['positives']:<3} "
            f"best={paper_label(best[0])} (PR-AUC {best[1]['pr_auc']:.3f})"
        )
    if output_dir is not None:
        print(f"artifacts: {output_dir}/rwde/{{summary.json,summary.csv}}")


def _run_discovery(args: argparse.Namespace, output_dir: Optional[str]) -> None:
    config = DiscoveryConfig(
        num_rows=args.discovery_num_rows,
        seed=args.seed if args.seed is not None else 0,
        max_lhs_size=args.max_lhs_size,
        threshold=args.discovery_threshold,
        sfi_alpha=args.sfi_alpha,
    )
    started = time.perf_counter()
    payload = run_discovery(config, output_dir=output_dir)
    elapsed = time.perf_counter() - started
    print(
        f"\nLattice discovery (max_lhs_size={config.max_lhs_size}, "
        f"{len(payload['relations'])} relations, {elapsed:.1f}s)"
    )
    for entry in payload["relations"]:  # type: ignore[union-attr]
        ranked = {
            name: metrics
            for name, metrics in entry["measures"].items()
            if metrics["pr_auc"] == metrics["pr_auc"]  # drop NaN (degenerate pools)
        }
        best = (
            f"best={paper_label(max(ranked, key=lambda name: ranked[name]['pr_auc']))} "
            f"(PR-AUC {max(m['pr_auc'] for m in ranked.values()):.3f})"
            if ranked
            else "no positives in candidate pool"
        )
        print(
            f"  {entry['key']:<3} candidates={entry['candidates']:<4} "
            f"stats={entry['statistics_computed']}/{entry['brute_force_statistics']} "
            f"(pruned {entry['pruned_exact']} exact, {entry['pruned_key']} key) {best}"
        )
    if output_dir is not None:
        print(f"artifacts: {output_dir}/discovery/{{summary.json,summary.csv}}")


def _run_runtime(args: argparse.Namespace, output_dir: Optional[str]) -> None:
    config = RuntimeConfig(
        sizes=args.runtime_sizes, repeats=args.runtime_repeats, sfi_alpha=args.sfi_alpha
    )
    bench_path = None if args.bench_path == "-" else args.bench_path
    started = time.perf_counter()
    payload = run_runtime(config, output_dir=output_dir, bench_path=bench_path)
    elapsed = time.perf_counter() - started
    print(f"\nRuntime benchmark (Table V protocol, {elapsed:.1f}s)")
    header = f"{'relation':<16} {'stats ms':>9} {'total ms':>9}"
    print(header)
    print("-" * len(header))
    for entry in payload["relations"]:  # type: ignore[union-attr]
        print(
            f"{entry['name']:<16} "
            f"{entry['statistics_seconds_median'] * 1000:>9.2f} "
            f"{entry['total_seconds_median'] * 1000:>9.2f}"
        )
    if output_dir is not None:
        print(f"artifacts: {output_dir}/runtime/{{summary.json,summary.csv}}")
    if bench_path is not None:
        print(f"benchmark record: {bench_path}")


def _run_plot(args: argparse.Namespace, output_dir: Optional[str]) -> None:
    results_dir = output_dir if output_dir is not None else "results"
    payload = run_plot(results_dir=results_dir, image_format=args.plot_format)
    if not payload["sources"]:
        print(
            f"no curves.csv artifacts under {results_dir}/ — run a sensitivity "
            f"benchmark first (e.g. --benchmark err)"
        )
        return
    for path in payload["rendered"]:  # type: ignore[union-attr]
        print(f"rendered: {path}")
    if payload["skipped"]:
        print(f"skipped (no matplotlib): {', '.join(payload['skipped'])}")


def _run_properties(
    args: argparse.Namespace,
    output_dir: Optional[str],
    precomputed_curves: Optional[Dict[str, object]] = None,
) -> None:
    config = PropertiesConfig(
        steps=args.steps,
        tables_per_step=args.tables_per_step,
        jobs=args.jobs,
        seed=args.seed,
        min_rows=args.min_rows,
        max_rows=args.max_rows,
        sfi_alpha=args.sfi_alpha,
    )
    started = time.perf_counter()
    payload = run_properties(config, output_dir=output_dir, precomputed_curves=precomputed_curves)
    elapsed = time.perf_counter() - started
    consistent = payload["static_catalogue_consistent"]
    print(f"\nTable III property check ({elapsed:.1f}s)")
    print(f"  static catalogue consistency: {'OK' if consistent else 'MISMATCH'}")
    for row in payload["rows"]:  # type: ignore[union-attr]
        print(
            f"  {row['label']:<8} err-corr={row['observed_error_correlation']:+.2f} "
            f"uniq-corr={row['observed_uniq_correlation']:+.2f} "
            f"skew-corr={row['observed_skew_correlation']:+.2f}"
        )
    if output_dir is not None:
        print(f"artifacts: {output_dir}/properties/{{table3.json,table3.csv}}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.min_rows > args.max_rows:
        parser.error(f"--min-rows {args.min_rows} exceeds --max-rows {args.max_rows}")
    output_dir = None if args.output_dir == "-" else args.output_dir
    if args.plot:
        _run_plot(args, output_dir)
    elif args.benchmark in SENSITIVITY_BENCHMARKS:
        _run_sensitivity(args, args.benchmark, output_dir)
    elif args.benchmark == "rwde":
        _run_rwde(args, output_dir)
    elif args.benchmark == "discovery":
        _run_discovery(args, output_dir)
    elif args.benchmark == "runtime":
        _run_runtime(args, output_dir)
    elif args.benchmark == "properties":
        _run_properties(args, output_dir)
    else:  # all
        curves = {}
        for benchmark in SENSITIVITY_BENCHMARKS:
            payload = _run_sensitivity(args, benchmark, output_dir)
            curves[benchmark] = payload["curves"]
        _run_rwde(args, output_dir)
        _run_discovery(args, output_dir)
        # The property check reuses the curves computed above instead of
        # re-evaluating the three sweeps.
        _run_properties(args, output_dir, precomputed_curves=curves)
    return 0


if __name__ == "__main__":
    sys.exit(main())
