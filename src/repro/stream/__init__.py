"""``repro.stream`` — incremental AFD maintenance over changing relations.

The static pipeline pays one O(rows) sufficient-statistics pass per
candidate FD; this subsystem serves relations that *change* — appends,
deletes, sliding windows — without re-paying that pass per batch:

* :class:`DynamicRelation` — the mutable row store: stable row ids,
  tombstone deletes, optional sliding window, and delta notification to
  trackers;
* :class:`IncrementalFdStatistics` — count histograms and exact
  integer facts kept current in O(1) per inserted or deleted row; a
  refresh copies them into an :class:`~repro.core.statistics.FdStatistics`
  bit-identical to a from-scratch ``compute()``.

Discovery on a dynamic session runs on the current snapshot, a plain
:class:`~repro.relation.relation.Relation` encoded on its first
statistics pass.

``python -m repro.stream`` is the monitoring front end: it replays a CSV
file or a named RWD dataset as a stream and emits per-batch measure
scores as JSON lines (``--verify`` checks each batch against a full
recompute).
"""

from repro.stream.dynamic import DynamicRelation
from repro.stream.statistics import IncrementalFdStatistics

__all__ = [
    "DynamicRelation",
    "IncrementalFdStatistics",
]
