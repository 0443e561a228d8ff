"""argparse value types shared by the command-line tools.

A value that would make a run meaningless (no rows, a zero smoothing
parameter, an empty window) is rejected while the arguments are parsed,
so the tool exits with a usage error (status 2) instead of a traceback.
"""

from __future__ import annotations

import argparse
import math


def positive_int(text: str) -> int:
    """argparse type: an ``int`` of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def positive_float(text: str) -> float:
    """argparse type: a finite ``float`` greater than 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value
