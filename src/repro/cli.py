"""argparse value types and the relation source shared by the command-line tools.

A value that would make a run meaningless (no rows, a zero smoothing
parameter, an empty window or list) is rejected while the arguments are
parsed, so the tool exits with a usage error (status 2) instead of a
traceback.  So is a CSV file that cannot be read (:func:`load_source`).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Callable, Optional, Tuple, TypeVar

from repro.relation.io import read_csv
from repro.relation.relation import Relation

T = TypeVar("T")


def positive_int(text: str) -> int:
    """argparse type: an ``int`` of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def non_negative_int(text: str) -> int:
    """argparse type: an ``int`` of at least 0 (for counts where 0 disables)."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def positive_float(text: str) -> float:
    """argparse type: a finite ``float`` greater than 0."""
    value = _float_or_nan(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def unit_fraction(text: str) -> float:
    """argparse type: a ``float`` in ``(0, 1]``."""
    value = _float_or_nan(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def comma_list(item: Callable[[str], T]) -> Callable[[str], Tuple[T, ...]]:
    """argparse type factory: a non-empty comma-separated list of ``item`` values.

    Blank parts are skipped; each other part is stripped and parsed by
    ``item`` (an argparse type, or any callable that raises ``ValueError``
    on a bad value).  A list with no part left is rejected.
    """

    def parse(text: str) -> Tuple[T, ...]:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise argparse.ArgumentTypeError(
                f"must be a non-empty comma-separated list, got {text!r}"
            )
        values = []
        for part in parts:
            try:
                values.append(item(part))
            except (argparse.ArgumentTypeError, ValueError) as error:
                raise argparse.ArgumentTypeError(f"{error} (in {text!r})") from None
        return tuple(values)

    return parse


def _dataset_keys() -> Tuple[str, ...]:
    try:  # The named RWD datasets need numpy; a CSV file does not.
        from repro.rwd.datasets import dataset_keys
    except ImportError:
        return ()
    return tuple(dataset_keys())


def add_source_arguments(parser: argparse.ArgumentParser, rows: int) -> None:
    """Add the relation source: a CSV file, or ``--dataset`` with ``--rows`` and ``--seed``.

    ``rows`` is the tool's default ``--rows``.  Without numpy no RWD
    dataset can be built, so ``--dataset`` accepts no name and only a
    CSV file is read.
    """
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "csv",
        nargs="?",
        default=None,
        help="relation CSV file (header row; empty/NULL/NA cells become NULL)",
    )
    source.add_argument(
        "--dataset",
        choices=_dataset_keys(),
        help="named RWD stand-in dataset instead of a CSV file (needs numpy)",
    )
    parser.add_argument(
        "--rows",
        type=positive_int,
        default=rows,
        help=f"rows for --dataset relations (default: {rows})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --dataset relations (default: 0)"
    )


def load_source(args: argparse.Namespace) -> Optional[Relation]:
    """The relation :func:`add_source_arguments` named in ``args``.

    ``None`` when the CSV file cannot be read (missing, empty, ragged,
    not UTF-8, a truncated or corrupt gzip); one line naming the file
    has then gone to stderr, and the tool exits 2.
    """
    if args.dataset is not None:
        from repro.rwd.datasets import build_dataset

        return build_dataset(args.dataset, num_rows=args.rows, seed=args.seed).relation
    try:
        return read_csv(args.csv)
    except (OSError, ValueError, csv.Error) as error:
        print(f"cannot read {args.csv}: {error}", file=sys.stderr)
        return None
