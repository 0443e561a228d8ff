"""argparse value types shared by the command-line tools.

A value that would make a run meaningless (no rows, a zero smoothing
parameter, an empty window or list) is rejected while the arguments are
parsed, so the tool exits with a usage error (status 2) instead of a
traceback.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, Tuple, TypeVar

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
