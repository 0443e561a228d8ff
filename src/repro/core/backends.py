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
  available.  It also serves the numpy backend when the relation's
  global radix product would pass the ``int64`` packing limit;
* :class:`NumpyBackend` (``"numpy"``) — the vectorised kernel: NULL
  restriction, mixed-radix row packing and grouping are array operations
  (:class:`~repro.core.partial.ArrayFdCounts`), and the merged arrays
  reduce to the statistics' histograms and integer facts vectorised.

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
from typing import Dict, Optional, Sequence, Tuple

from repro.core.partial import ArrayFdCounts, PartialFdCounts
from repro.relation.chunked import CodeChunk
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


def covers_schema(attributes: Sequence[str], fd: FunctionalDependency) -> bool:
    """True when ``X ∪ Y`` is every attribute of the schema.

    Then a full tuple is determined by its ``(x, y)`` pair and vice
    versa, so the kernels skip the full-tuple counts and ``Σ_w R(w)²``
    is read off the joint counts.
    """
    return set(fd.attributes) == set(attributes)


class PythonBackend:
    """Dict-based reference kernel (always available)."""

    name = "python"

    @staticmethod
    def available() -> bool:
        return True

    def partial(self, chunk: CodeChunk, fd: FunctionalDependency) -> PartialFdCounts:
        """Code-keyed partial counts of one chunk (scalar scan).

        Joint counts are keyed by ``(x_codes, y_codes)``; full-tuple
        counts by the full code tuple (NULL stays ``-1`` there; rows NULL
        on ``X ∪ Y`` are dropped entirely).
        """
        lists = {a: chunk.column_list(a) for a in chunk.attributes}
        lhs_columns = [lists[a] for a in fd.lhs]
        rhs_columns = [lists[a] for a in fd.rhs]
        partial = PartialFdCounts()
        xy_counts = partial.xy_counts
        kept = 0
        if covers_schema(chunk.attributes, fd):
            for xy_key in zip(zip(*lhs_columns), zip(*rhs_columns)):
                if -1 in xy_key[0] or -1 in xy_key[1]:
                    continue
                kept += 1
                previous = xy_counts.get(xy_key)
                xy_counts[xy_key] = 1 if previous is None else previous + 1
            partial.num_rows = kept
            return partial
        tuple_counts: Dict[Tuple, int] = {}
        all_columns = [lists[a] for a in chunk.attributes]
        # One zip-of-zips scan: all three key tuples per row are built at
        # C level — this loop is the kernel's entire per-row cost.
        for x_key, y_key, w_key in zip(
            zip(*lhs_columns), zip(*rhs_columns), zip(*all_columns)
        ):
            if -1 in x_key or -1 in y_key:
                continue
            kept += 1
            xy_key = (x_key, y_key)
            previous = xy_counts.get(xy_key)
            xy_counts[xy_key] = 1 if previous is None else previous + 1
            previous = tuple_counts.get(w_key)
            tuple_counts[w_key] = 1 if previous is None else previous + 1
        partial.num_rows = kept
        partial.tuple_counts = tuple_counts
        return partial


class NumpyBackend:
    """Vectorised kernel over packed ``int64`` keys."""

    name = "numpy"

    @staticmethod
    def available() -> bool:
        return np is not None

    def partial(
        self, chunk: CodeChunk, fd: FunctionalDependency, radices: Dict[str, int]
    ) -> ArrayFdCounts:
        """Array-keyed partial counts of one chunk — no Python tuples.

        ``radices`` is the *global* mixed-radix scheme of the whole
        relation (radix per attribute = cardinality + 1, codes shifted
        by +1 so ``-1``-NULL packs as 0), so the packed keys mean the
        same code tuple in every chunk.  The caller guarantees the radix
        products fit the packing limit (see
        ``repro.core.chunked._pack_radices``).
        """
        arrays = {a: np.asarray(chunk.column(a)) for a in chunk.attributes}
        mask = None
        for attribute in fd.attributes:
            column_mask = arrays[attribute] >= 0
            if not column_mask.all():
                mask = column_mask if mask is None else mask & column_mask
        if mask is not None:
            arrays = {a: codes[mask] for a, codes in arrays.items()}
        num_rows = int(arrays[fd.rhs[0]].shape[0])
        fd_attributes = fd.lhs + fd.rhs
        xy_raw = _pack(arrays, fd_attributes, radices)
        if covers_schema(chunk.attributes, fd):
            return ArrayFdCounts.from_raw_keys(num_rows, xy_raw)
        w_raw = _pack(arrays, chunk.attributes, radices)
        return ArrayFdCounts.from_raw_keys(num_rows, xy_raw, w_raw)


def _pack(
    arrays: Dict[str, "np.ndarray"], attributes: Sequence[str], radices: Dict[str, int]
) -> "np.ndarray":
    """Mixed-radix packing under a fixed global radix per attribute.

    Cross-chunk stable and X-major (the first attribute is the most
    significant digit), so ascending joint keys keep equal X keys
    adjacent; the caller has proven the radix product fits the packing
    limit.
    """
    accumulator = arrays[attributes[0]].astype(np.int64) + 1
    for attribute in attributes[1:]:
        accumulator = accumulator * radices[attribute] + (
            arrays[attribute].astype(np.int64) + 1
        )
    return accumulator


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
