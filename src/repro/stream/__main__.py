"""Command-line entry point: ``python -m repro.stream``.

Replays a relation — a CSV file or a named RWD stand-in dataset — as a
stream and monitors the AFD scores of one FD over it: an initial prefix
seeds a :class:`DynamicRelation`, the remaining rows arrive in batches,
and after every batch the incrementally maintained statistics are
re-scored by the selected measures.  One JSON line per batch goes to
stdout (machine-readable monitoring feed); a human summary goes to
stderr.

Examples::

    # monitor zip -> city over your CSV, 100-row batches
    python -m repro.stream data.csv --fd "zip -> city" --batch-size 100

    # sliding 1000-row window over a named dataset, two measures
    python -m repro.stream --dataset R1 --rows 5000 --fd "icd_code -> icd_block" \\
        --window 1000 --measures g3,mu_plus

    # cross-check every batch against a full recompute (both backends agree)
    python -m repro.stream data.csv --fd "A -> B" --verify --backend numpy
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Iterator, List, Optional

from repro.cli import positive_float, positive_int
from repro.core.registry import all_measures, select_measures
from repro.core.statistics import FdStatistics
from repro.relation.fd import FunctionalDependency
from repro.relation.io import read_csv
from repro.service.session import AfdSession
from repro.stream.dynamic import DynamicRelation
from repro.stream.statistics import assert_scores_identical, assert_statistics_identical

try:  # The named RWD datasets need numpy; CSV monitoring does not.
    from repro.rwd.datasets import build_dataset, dataset_keys
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    build_dataset = None  # type: ignore[assignment]

    def dataset_keys():
        return ()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Monitor AFD measure scores over a streamed relation.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "csv",
        nargs="?",
        default=None,
        help="relation CSV file (header row; empty/NULL/NA cells become NULL)",
    )
    source.add_argument(
        "--dataset",
        choices=dataset_keys(),
        help="named RWD stand-in dataset instead of a CSV file",
    )
    parser.add_argument(
        "--rows",
        type=positive_int,
        default=2000,
        help="rows for --dataset relations (default: 2000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --dataset relations (default: 0)"
    )
    parser.add_argument(
        "--fd",
        required=True,
        help="the monitored FD, e.g. 'A,B -> C' (LHS/RHS must exist in the relation)",
    )
    parser.add_argument(
        "--initial",
        type=int,
        default=None,
        help="rows seeding the stream before the first batch "
        "(default: one batch worth)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=100,
        help="rows appended per monitoring batch (default: 100)",
    )
    parser.add_argument(
        "--window",
        type=positive_int,
        default=None,
        help="sliding-window size: older rows are evicted once the live "
        "relation exceeds this many rows (default: unbounded)",
    )
    parser.add_argument(
        "--measures",
        default=None,
        help="comma-separated measure names (default: all fourteen)",
    )
    parser.add_argument(
        "--sfi-alpha",
        type=positive_float,
        default=0.5,
        help="SFI smoothing parameter (default: 0.5)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every batch's statistics and scores against a full "
        "recompute on the snapshot (exits non-zero on any divergence)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="statistics backend used by --verify recomputes "
        "(default: process default)",
    )
    return parser


def monitor(
    relation,
    fd: FunctionalDependency,
    measures,
    batch_size: int,
    initial: Optional[int] = None,
    window: Optional[int] = None,
    verify: bool = False,
    backend: Optional[str] = None,
) -> Iterator[Dict[str, object]]:
    """Replay ``relation`` as a stream, scoring ``fd`` after every batch.

    A generator yielding one record per batch *as it is scored*, so the
    CLI's JSON-line feed is live rather than buffered until the end of
    the replay.  The replay is served by an
    :class:`~repro.service.AfdSession` over a
    :class:`DynamicRelation` — batch 0 snapshots the seeded prefix, each
    later batch is one :meth:`~repro.service.AfdSession.apply_delta` —
    and each yielded record is the flattened
    :class:`~repro.service.model.StreamUpdate` of that batch (the same
    JSON schema as before the service refactor).  Raises
    :class:`RuntimeError` when ``verify`` is set and the tracked
    statistics (any field) or any selected score diverge from the
    from-scratch recompute.
    """
    rows = relation.rows()
    seed_count = min(batch_size if initial is None else initial, len(rows))
    dynamic = DynamicRelation(
        relation.attributes, rows[:seed_count], name=relation.name, window=window
    )
    session = AfdSession(dynamic, measures=dict(measures), backend=backend)
    fd_key = str(fd)
    # Batch 0 scores the seeded prefix; each later batch appends one chunk.
    batches: List[List] = [[]] + [
        rows[offset : offset + batch_size]
        for offset in range(seed_count, len(rows), batch_size)
    ]
    streamed = seed_count
    for batch_index, batch in enumerate(batches):
        if batch:
            update = session.apply_delta(inserts=batch)
            streamed += len(batch)
        else:
            update = session.snapshot_scores(fds=[fd])
        scores = update.scores[fd_key]
        record: Dict[str, object] = {
            "batch": batch_index,
            "streamed_rows": streamed,
            "live_rows": update.live_rows,
            "restricted_rows": update.restricted_rows[fd_key],
            "scores": scores,
            "incremental_seconds": update.seconds,
        }
        if verify:
            started = time.perf_counter()
            recomputed = FdStatistics.compute(dynamic.snapshot(), fd, backend=backend)
            reference = {
                name: measure.score_from_statistics(recomputed)
                for name, measure in measures.items()
            }
            record["recompute_seconds"] = time.perf_counter() - started
            context = f"batch {batch_index}"
            # Every field, not just those the selected measures read.
            assert_statistics_identical(session.track(fd).statistics(), recomputed, context)
            assert_scores_identical(scores, reference, context)
            record["verified"] = True
        yield record


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.batch_size < 1:
        print(f"--batch-size must be >= 1, got {args.batch_size}", file=sys.stderr)
        return 2
    if args.initial is not None and args.initial < 0:
        print(f"--initial must be >= 0, got {args.initial}", file=sys.stderr)
        return 2
    if args.dataset is not None:
        relation = build_dataset(args.dataset, num_rows=args.rows, seed=args.seed).relation
    else:
        relation = read_csv(args.csv)
    try:
        fd = FunctionalDependency.parse(args.fd)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    missing = [a for a in fd.attributes if a not in relation.attributes]
    if missing:
        print(
            f"FD refers to unknown attribute(s) {missing}; "
            f"available: {list(relation.attributes)}",
            file=sys.stderr,
        )
        return 2
    try:
        measures = select_measures(all_measures(sfi_alpha=args.sfi_alpha), args.measures)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    started = time.perf_counter()
    batches = 0
    try:
        for record in monitor(
            relation,
            fd,
            measures,
            batch_size=args.batch_size,
            initial=args.initial,
            window=args.window,
            verify=args.verify,
            backend=args.backend,
        ):
            # Live feed: one JSON line per batch, flushed as it is scored.
            print(json.dumps(record, sort_keys=True), flush=True)
            batches += 1
    except RuntimeError as error:
        print(error, file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    verified = " (verified against recompute)" if args.verify else ""
    print(
        f"{relation.name or 'relation'}: monitored {fd} over {batches} batches "
        f"of {args.batch_size} rows"
        + (f", window {args.window}" if args.window else "")
        + f" in {elapsed:.2f}s{verified}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
