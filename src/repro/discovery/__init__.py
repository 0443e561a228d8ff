"""Measure-based AFD discovery (single- and multi-attribute LHS).

:func:`discover_afds` is the unified facade: ``max_lhs_size=1`` (the
default) gives the exhaustive linear-candidate search, larger values
extend the search over the LHS lattice.  One level-wise engine
(:mod:`repro.discovery.lattice`) serves every source — a ``Relation``, a
``ChunkedRelation`` (never materialised) or a dynamic snapshot — and
prunes only through the statistics the measures read and an exact key
check, so chunked and in-memory sources give ``==`` results.
``python -m repro.discovery`` exposes the same search on CSV files and
the named RWD datasets.
"""

from repro.discovery.cover import minimal_cover
from repro.discovery.lattice import brute_force_afds, lattice_discover
from repro.discovery.single import (
    CandidateScore,
    DiscoveryResult,
    discover_afds,
)

__all__ = [
    "CandidateScore",
    "DiscoveryResult",
    "brute_force_afds",
    "discover_afds",
    "lattice_discover",
    "minimal_cover",
]
