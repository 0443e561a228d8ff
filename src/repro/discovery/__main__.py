"""Command-line entry point: ``python -m repro.discovery``.

Runs measure-based AFD discovery (lattice traversal up to
``--max-lhs-size``) on a relation loaded from a CSV file or on one of
the named RWD stand-in datasets, and emits the accepted FDs as JSON or
CSV.

Examples::

    # multi-attribute discovery on your own data, JSON to stdout
    python -m repro.discovery data.csv --max-lhs-size 2 --threshold 0.9

    # a named RWD dataset, two measures, CSV artifact
    python -m repro.discovery --dataset R1 --rows 300 \\
        --measures g3,mu_plus --format csv --output accepted.csv
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.cli import add_source_arguments, load_source, positive_float, positive_int
from repro.core.registry import all_measures, select_measures
from repro.relation.attribute import attribute_label
from repro.relation.relation import Relation
from repro.service.model import DiscoveryResult
from repro.service.session import AfdSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.discovery",
        description="Discover approximate functional dependencies with every "
        "registered AFD measure.",
    )
    add_source_arguments(parser, rows=400)
    parser.add_argument(
        "--max-lhs-size",
        type=positive_int,
        default=1,
        help="maximum LHS attribute count of a candidate (default: 1)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.9,
        help="acceptance threshold applied to every measure (default: 0.9)",
    )
    parser.add_argument(
        "--measures",
        default=None,
        help="comma-separated measure names (default: all fourteen)",
    )
    parser.add_argument(
        "--minimal-cover",
        action="store_true",
        help="drop candidates implied by an accepted exact FD with a "
        "proper-subset LHS (minimal-cover reduction of the result)",
    )
    parser.add_argument(
        "--sfi-alpha",
        type=positive_float,
        default=0.5,
        help="SFI smoothing parameter (default: 0.5)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--output",
        default="-",
        help="output file (default: '-' for stdout)",
    )
    return parser


def _accepted_records(result: DiscoveryResult) -> List[Dict[str, object]]:
    """Flat ``measure, lhs, rhs, score, exact`` rows, best score first."""
    records: List[Dict[str, object]] = []
    for measure in result.measure_names:
        for scored in result.accepted(measure):
            records.append(
                {
                    "measure": measure,
                    "lhs": attribute_label(scored.lhs),
                    "rhs": attribute_label(scored.rhs),
                    "score": scored.scores[measure],
                    "exact": scored.exact,
                }
            )
    return records


def _json_payload(
    relation: Relation, result: DiscoveryResult, elapsed_seconds: float
) -> Dict[str, object]:
    return {
        "relation": relation.name,
        "num_rows": relation.num_rows,
        "num_attributes": relation.num_attributes,
        "max_lhs_size": result.max_lhs_size,
        "thresholds": result.thresholds,
        "counters": dict(result.counters),
        "elapsed_seconds": elapsed_seconds,
        "accepted": {
            measure: [
                {
                    "lhs": list(scored.lhs),
                    "rhs": list(scored.rhs),
                    "score": scored.scores[measure],
                    "exact": scored.exact,
                }
                for scored in result.accepted(measure)
            ]
            for measure in result.measure_names
        },
    }


def _write_output(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        target = Path(output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relation = load_source(args)
    if relation is None:
        return 2
    try:
        measures = select_measures(all_measures(sfi_alpha=args.sfi_alpha), args.measures)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    # One front door: the CLI is a thin client of the session facade.
    session = AfdSession(relation, measures=measures)
    started = time.perf_counter()
    result = session.discover(
        threshold=args.threshold,
        max_lhs_size=args.max_lhs_size,
        minimal_cover=args.minimal_cover,
    )
    elapsed = time.perf_counter() - started
    if args.format == "json":
        text = json.dumps(_json_payload(relation, result, elapsed), indent=2, sort_keys=True)
    else:
        records = _accepted_records(result)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=["measure", "lhs", "rhs", "score", "exact"])
        writer.writeheader()
        for record in records:
            writer.writerow(record)
        text = buffer.getvalue()
    _write_output(text, args.output)
    counters = result.counters
    cover_note = (
        f", minimal cover dropped {counters['dropped_non_minimal']}"
        if args.minimal_cover
        else ""
    )
    print(
        f"{relation.name or 'relation'}: {relation.num_rows} rows, "
        f"{relation.num_attributes} attributes, max_lhs_size={result.max_lhs_size} — "
        f"{counters['candidates']} candidates, "
        f"{counters['statistics_computed']} statistics passes "
        f"(pruned: {counters['pruned_exact']} exact, {counters['pruned_key']} key"
        f"{cover_note}) in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
