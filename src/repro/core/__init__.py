"""AFD measures — the paper's primary contribution.

This subpackage implements all fourteen AFD measures surveyed in Section
IV of the paper, grouped into the three classes of Section IV-E:

* VIOLATION — ρ, g2, g3, g3'
* SHANNON   — gS1, FI, RFI+, RFI'+, SFIα
* LOGICAL   — g1, g1', pdep, τ, μ+

together with the shared sufficient statistics, the permutation-model
expectations used by RFI+/RFI'+/μ+, a measure registry and the Table III
property catalogue.
"""

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.backends import (
    available_backends,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.core.partial import PartialFdCounts
from repro.core.statistics import FdStatistics
from repro.core.violation import G2Measure, G3Measure, G3PrimeMeasure, RhoMeasure
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
from repro.core.registry import (
    all_measures,
    get_measure,
    measure_names,
    measures_by_class,
)
from repro.core.properties import MeasureProperties, property_table

__all__ = [
    "AfdMeasure",
    "FdStatistics",
    "FIMeasure",
    "G1Measure",
    "G1PrimeMeasure",
    "G2Measure",
    "G3Measure",
    "G3PrimeMeasure",
    "GS1Measure",
    "MeasureClass",
    "MeasureProperties",
    "MuPlusMeasure",
    "PartialFdCounts",
    "PdepMeasure",
    "RfiPlusMeasure",
    "RfiPrimePlusMeasure",
    "RhoMeasure",
    "SfiMeasure",
    "TauMeasure",
    "all_measures",
    "available_backends",
    "get_default_backend",
    "get_measure",
    "measure_names",
    "measures_by_class",
    "property_table",
    "resolve_backend",
    "set_default_backend",
]
