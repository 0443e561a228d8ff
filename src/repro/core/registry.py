"""Registry of all AFD measures.

Provides canonical instances of every measure studied by the paper, keyed
by name, so that the evaluation harness, experiments and examples can
iterate over "all measures" consistently.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.logical import (
    G1Measure,
    G1PrimeMeasure,
    MuPlusMeasure,
    PdepMeasure,
    TauMeasure,
)
from repro.core.shannon import (
    FIMeasure,
    GS1Measure,
    RfiPlusMeasure,
    RfiPrimePlusMeasure,
    SfiMeasure,
)
from repro.core.violation import G2Measure, G3Measure, G3PrimeMeasure, RhoMeasure

#: Canonical measure order used in the paper's tables and figures.
MEASURE_ORDER = (
    "rho",
    "g2",
    "g3",
    "g3_prime",
    "gS1",
    "fi",
    "rfi_plus",
    "rfi_prime_plus",
    "sfi",
    "g1",
    "g1_prime",
    "pdep",
    "tau",
    "mu_plus",
)

#: Pretty labels matching the paper's notation.
PAPER_LABELS = {
    "rho": "ρ",
    "g2": "g2",
    "g3": "g3",
    "g3_prime": "g3'",
    "gS1": "gS1",
    "fi": "FI",
    "rfi_plus": "RFI+",
    "rfi_prime_plus": "RFI'+",
    "sfi": "SFI",
    "g1": "g1",
    "g1_prime": "g1'",
    "pdep": "pdep",
    "tau": "τ",
    "mu_plus": "μ+",
}


#: Zero-argument factories of measures registered beyond the paper's
#: fourteen (extension hook used by the evaluation harness).
_EXTRA_MEASURES: Dict[str, Callable[[], AfdMeasure]] = {}


def register_measure(
    name: str, factory: Callable[[], AfdMeasure], overwrite: bool = False
) -> None:
    """Register an additional measure under ``name``.

    ``factory`` is a zero-argument callable returning a fresh
    :class:`AfdMeasure`.  Registered measures are appended (in registration
    order) to everything that iterates over "all measures":
    :func:`all_measures`, :func:`iter_measures` and therefore the
    evaluation harness and the experiment drivers.  The fourteen canonical
    names cannot be overridden.
    """
    if name in MEASURE_ORDER:
        raise ValueError(f"cannot override the canonical measure {name!r}")
    if name in _EXTRA_MEASURES and not overwrite:
        raise ValueError(f"measure {name!r} is already registered (use overwrite=True)")
    _EXTRA_MEASURES[name] = factory


def unregister_measure(name: str) -> None:
    """Remove a previously registered extra measure (no-op if absent)."""
    _EXTRA_MEASURES.pop(name, None)


def extra_measure_factories() -> Dict[str, Callable[[], AfdMeasure]]:
    """Snapshot of the registered extra-measure factories, by name.

    This is the worker-initializer contract of the evaluation harness: a
    process pool ships this mapping to every worker, which re-registers
    each factory so that ``spawn``/``forkserver`` workers see the same
    measure set as the parent.  The returned dict is a copy — mutating it
    does not affect the registry.
    """
    return dict(_EXTRA_MEASURES)


def iter_measures(**kwargs) -> Iterator[Tuple[str, AfdMeasure]]:
    """Iterate over ``(name, measure)`` pairs in canonical order, extras last.

    This is the iteration hook the evaluation harness drives (via
    ``MeasureConfig.build``): scoring code never hard-codes the measure
    list, so measures added with :func:`register_measure` are evaluated
    alongside the paper's fourteen.
    """
    yield from all_measures(**kwargs).items()


def all_measures(sfi_alpha: float = 0.5) -> Dict[str, AfdMeasure]:
    """Fresh instances of all fourteen measures, keyed by name.

    ``sfi_alpha`` is SFI's smoothing pseudo-count (the paper evaluates
    α ∈ {0.5, 1, 2}).  Measures added via :func:`register_measure` are
    appended after the canonical fourteen.
    """
    measures: List[AfdMeasure] = [
        RhoMeasure(),
        G2Measure(),
        G3Measure(),
        G3PrimeMeasure(),
        GS1Measure(),
        FIMeasure(),
        RfiPlusMeasure(),
        RfiPrimePlusMeasure(),
        SfiMeasure(alpha=sfi_alpha),
        G1Measure(),
        G1PrimeMeasure(),
        PdepMeasure(),
        TauMeasure(),
        MuPlusMeasure(),
    ]
    by_name = {measure.name: measure for measure in measures}
    sfi = next(measure for measure in measures if isinstance(measure, SfiMeasure))
    result: Dict[str, AfdMeasure] = {}
    for name in MEASURE_ORDER:
        if name in by_name:
            result[name] = by_name[name]
        elif name == "sfi":
            # SFI renames itself when a non-default alpha is requested
            # (e.g. "sfi_1"); keep the customised name as the key.
            result[sfi.name] = sfi
    for name, factory in _EXTRA_MEASURES.items():
        result[name] = factory()
    return result


def default_measures(**kwargs) -> Dict[str, AfdMeasure]:
    """Alias of :func:`all_measures` with default parameters."""
    return all_measures(**kwargs)


def get_measure(name: str, **kwargs) -> AfdMeasure:
    """A single measure instance by name (raises ``KeyError`` if unknown)."""
    measures = all_measures(**kwargs)
    if name not in measures:
        raise KeyError(f"unknown measure {name!r}; known measures: {sorted(measures)}")
    return measures[name]


def select_measures(
    measures: Dict[str, AfdMeasure], spec: Optional[str]
) -> Dict[str, AfdMeasure]:
    """Subset a measure mapping by a comma-separated name list.

    The shared ``--measures`` parser of the CLIs: ``spec=None`` keeps the
    full mapping, otherwise the named measures are returned in the
    requested order; unknown names raise :class:`KeyError` with a
    message naming them and the known set.
    """
    if spec is None:
        return measures
    wanted = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in measures]
    if unknown:
        raise KeyError(f"unknown measures {unknown}; known: {sorted(measures)}")
    return {name: measures[name] for name in wanted}


def measure_names() -> List[str]:
    """Canonical measure names in paper order."""
    return list(MEASURE_ORDER)


def measures_by_class(
    measure_class: MeasureClass, measures: Optional[Dict[str, AfdMeasure]] = None
) -> Dict[str, AfdMeasure]:
    """Subset of measures belonging to a given class."""
    measures = measures if measures is not None else all_measures()
    return {
        name: measure
        for name, measure in measures.items()
        if measure.measure_class == measure_class
    }


def paper_label(name: str) -> str:
    """The paper's symbol for a measure name (falls back to the name itself)."""
    return PAPER_LABELS.get(name, name)


def subset(names: Iterable[str], **kwargs) -> Dict[str, AfdMeasure]:
    """A selection of measures by name, preserving the paper order."""
    wanted = set(names)
    return {
        name: measure for name, measure in all_measures(**kwargs).items() if name in wanted
    }
