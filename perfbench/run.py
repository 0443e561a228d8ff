"""Benchmark of the AFD stack: ``profile``, ``scan`` and ``serve`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric plus the tracing overhead (how each workload traces is in
``perfbench/README.md``).  Every answer is checked; the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import sys

from common import emit, end_to_end, import_repro, per_layer, provenance

WORKLOADS = ("profile", "scan", "serve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="input-size multiplier (self-tests run tiny scales; default 1)",
    )
    return parser


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns ``(record, correct, attempted, failed, metrics)``."""
    if workload == "profile":
        import profile_workload as module
    elif workload == "scan":
        import scan_workload as module
    else:
        import serve_workload as module
    counts, correct, attempted, failed, values = module.run(seed, seconds, trace, scale)
    metrics = per_layer(values) if trace else end_to_end(values)
    return provenance(workload, seed, trace, counts), correct, attempted, failed, metrics


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        print("--seconds and --scale must be positive", file=sys.stderr)
        return 2
    try:
        import_repro()
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    record, correct, attempted, failed, metrics = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    emit(record, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
