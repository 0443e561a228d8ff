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
from repro.core.statistics import DEFAULT_LOG_BASE, FdStatistics
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
    "DEFAULT_LOG_BASE",
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
    "PdepMeasure",
    "RfiPlusMeasure",
    "RfiPrimePlusMeasure",
    "RhoMeasure",
    "SfiMeasure",
    "TauMeasure",
    "all_measures",
    "get_measure",
    "measure_names",
    "measures_by_class",
    "property_table",
]
