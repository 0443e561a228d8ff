"""Pluggable statistics backends: one partial kernel each.

The sufficient-statistics pass (:meth:`FdStatistics.compute`) is the hot
loop of every experiment in the paper: the 50x50 sensitivity grids, the
RWDe sweep, lattice discovery and — most directly — the runtime
experiment of Table V all compute one :class:`FdStatistics` per candidate
FD.  The pass is one chunked map-merge (:mod:`repro.core.chunked`); a
backend contributes exactly one kernel, which turns one
:class:`~repro.relation.chunked.CodeChunk` of dictionary codes into
mergeable partial counts:

* :class:`PythonBackend` (``"python"``) — the portable reference kernel:
  code tuples counted into dicts
  (:class:`~repro.core.partial.PartialFdCounts`), no dependencies, always
  available.  It also serves the numpy backend when the radix product of
  ``X ∪ Y`` would pass the ``int64`` packing limit;
* :class:`NumpyBackend` (``"numpy"``) — the vectorised kernel: NULL
  restriction, mixed-radix row packing and grouping are array operations
  (:class:`~repro.core.partial.ArrayFdCounts`), and the merged arrays
  reduce to the statistics' histograms and integer facts vectorised.

Both kernels read only the columns of ``X ∪ Y`` and mask NULLs only on
the attributes that hold one.  ``Σ_w R(w)²``, the one statistic that
reads the full tuples, is computed once per relation and NULL pattern by
:func:`repro.core.chunked.tuple_square_sum`, which packs with
:func:`~repro.core.partial.pack_rows` too; when ``X ∪ Y`` is the whole
schema it is read off the merged joint counts instead.

**Identity contract.**  Both backends produce ``==`` ``FdStatistics``:
the same count histograms and the same exact integer facts, whatever
the backend, the chunking or the order of the rows.  The kernels only
ever produce integers; every float a measure reads is computed from
them in shared Python code as one correctly rounded ``math.fsum`` (see
:mod:`repro.core.statistics`), so every measure scores bit-identically
on both backends — enforced by the parity tests in
``tests/test_backends.py`` and the oracle tests in
``tests/test_oracle.py``.

Backend selection (first match wins):

1. the explicit ``backend=`` argument of :meth:`FdStatistics.compute`;
2. the process-wide default set via :func:`set_default_backend`;
3. the ``REPRO_STATS_BACKEND`` environment variable;
4. ``"auto"``: ``numpy`` when importable, else ``python``.

Requesting ``numpy`` when numpy is absent falls back to ``python``
automatically — scores are identical either way, only slower.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import compress
from typing import Dict, Optional, Sequence, Tuple

from repro.core.partial import ArrayFdCounts, PartialFdCounts, pack_rows
from repro.relation.chunked import NULL_CODE, CodeChunk
from repro.relation.fd import FunctionalDependency

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Environment variable overriding the default backend.
BACKEND_ENV_VAR = "REPRO_STATS_BACKEND"

_BACKEND_NAMES = ("python", "numpy")

#: Process-wide default set via :func:`set_default_backend` (None = unset).
_DEFAULT_BACKEND: Optional[str] = None


class PythonBackend:
    """Dict-based reference kernel (always available)."""

    name = "python"

    @staticmethod
    def available() -> bool:
        return True

    def partial(
        self, chunk: CodeChunk, fd: FunctionalDependency, non_null: Sequence[str]
    ) -> PartialFdCounts:
        """Code-keyed joint counts of one chunk (scalar scan).

        Keyed by ``(x_codes, y_codes)``; rows NULL on an attribute of
        ``non_null`` (the attributes of ``X ∪ Y`` that hold a NULL) are
        dropped.
        """
        lists = {a: chunk.column_list(a) for a in fd.attributes}
        pairs = zip(zip(*(lists[a] for a in fd.lhs)), zip(*(lists[a] for a in fd.rhs)))
        if non_null:
            codes = zip(*(lists[a] for a in non_null))
            pairs = compress(pairs, (NULL_CODE not in row for row in codes))
        # Counter counts at C level: the pairs are the kernel's only
        # per-row Python objects.
        xy_counts = Counter(pairs)
        return PartialFdCounts(sum(xy_counts.values()), xy_counts)


class NumpyBackend:
    """Vectorised kernel over packed ``int64`` keys."""

    name = "numpy"

    @staticmethod
    def available() -> bool:
        return np is not None

    def partial(
        self,
        chunk: CodeChunk,
        fd: FunctionalDependency,
        radices: Dict[str, int],
        non_null: Sequence[str],
    ) -> ArrayFdCounts:
        """Array-keyed joint counts of one chunk — no Python tuples.

        ``radices`` is the *global* radix of each attribute of ``X ∪ Y``
        (see :func:`~repro.core.partial.pack_rows`) and ``non_null`` the
        attributes of ``X ∪ Y`` that hold a NULL.  The caller guarantees
        the radix product fits the packing limit (see
        ``repro.core.chunked._pack_radices``).
        """
        return ArrayFdCounts.from_raw_keys(pack_rows(chunk, fd.lhs + fd.rhs, radices, non_null))


_BACKENDS = {
    "python": PythonBackend(),
    "numpy": NumpyBackend(),
}


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this process, ``python`` first."""
    return tuple(name for name in _BACKEND_NAMES if _BACKENDS[name].available())


def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide default backend (``None`` resets to auto).

    The default applies to every :meth:`FdStatistics.compute` call that
    does not pass an explicit ``backend=``; it takes precedence over the
    ``REPRO_STATS_BACKEND`` environment variable.
    """
    global _DEFAULT_BACKEND
    if name is not None:
        _validate_name(name)
    _DEFAULT_BACKEND = name


def get_default_backend() -> str:
    """The backend name :func:`resolve_backend` would pick with no argument."""
    return resolve_backend(None).name


def _validate_name(name: str) -> None:
    if name not in _BACKEND_NAMES and name != "auto":
        raise ValueError(
            f"unknown statistics backend {name!r}; "
            f"known backends: {list(_BACKEND_NAMES) + ['auto']}"
        )


def resolve_backend(name: Optional[str] = None):
    """Resolve a backend name (or ``None``/``"auto"``) to a backend object.

    Resolution order: explicit argument > :func:`set_default_backend` >
    ``REPRO_STATS_BACKEND`` > auto (numpy when available).  A resolved
    ``numpy`` request degrades to ``python`` when numpy is absent — the
    documented automatic fallback; scores are identical either way.
    """
    if name is None:
        name = _DEFAULT_BACKEND
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "auto"
    _validate_name(name)
    if name == "auto":
        name = "numpy" if _BACKENDS["numpy"].available() else "python"
    backend = _BACKENDS[name]
    if not backend.available():
        return _BACKENDS["python"]
    return backend
