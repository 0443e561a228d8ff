"""Measure-based AFD discovery (single- and multi-attribute LHS).

:func:`discover_afds` is the one engine: ``max_lhs_size=1`` (the
default) gives the exhaustive linear-candidate search, larger values
extend the search level by level over the LHS lattice
(:mod:`repro.discovery.lattice`).  It serves every source — a
``Relation``, a ``ChunkedRelation`` (never materialised) or a dynamic
snapshot — and prunes only through the statistics the measures read and
an exact key check, so chunked and in-memory sources give ``==``
results.  It returns the service model's
:class:`~repro.service.model.DiscoveryResult` (one
:class:`~repro.service.model.ScoredFd` per candidate, a ``counters``
mapping), the same record :meth:`repro.service.AfdSession.discover`,
the HTTP API and the CLI emit; :func:`brute_force_afds` and
:func:`minimal_cover` take and return it too.
``python -m repro.discovery`` exposes the same search on CSV files and
the named RWD datasets.
"""

from repro.discovery.cover import minimal_cover
from repro.discovery.lattice import brute_force_afds, discover_afds
from repro.service.model import DiscoveryResult

__all__ = [
    "DiscoveryResult",
    "brute_force_afds",
    "discover_afds",
    "minimal_cover",
]
