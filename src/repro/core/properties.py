"""Qualitative property catalogue of the measures (Table III of the paper).

Each measure is annotated with the properties the paper derives from its
formal analysis (Section IV) and the sensitivity analysis (Section V):
measure class, having baselines, efficient computability, inverse
proportionality to the error level, and insensitivity to LHS-uniqueness
and RHS-skew.  Properties marked "not applicable" in the paper (for
measures with no distinguishing power on a benchmark) are encoded as
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.base import MeasureClass
from repro.core.registry import MEASURE_ORDER, paper_label


@dataclass(frozen=True)
class MeasureProperties:
    """Qualitative properties of one measure as reported in Table III."""

    name: str
    measure_class: MeasureClass
    considered_in: str
    has_baselines: bool
    efficiently_computable: bool
    inversely_proportional_to_error: Optional[bool]
    insensitive_to_lhs_uniqueness: Optional[bool]
    insensitive_to_rhs_skew: Optional[bool]
    auc_on_rwd_paper: float

    @property
    def label(self) -> str:
        return paper_label(self.name)


#: Table III of the paper, transcribed.  ``None`` encodes the paper's
#: "not applicable" symbol (the measure has no distinguishing power on the
#: corresponding synthetic benchmark, so sensitivity is meaningless).
PAPER_PROPERTIES: Dict[str, MeasureProperties] = {
    "rho": MeasureProperties(
        "rho", MeasureClass.VIOLATION, "Ilyas et al. [17]", False, True, True, False, False, 0.417
    ),
    "g2": MeasureProperties(
        "g2", MeasureClass.VIOLATION, "Kivinen & Mannila [11], UNI-DETECT [31]",
        True, True, True, False, False, 0.504,
    ),
    "g3": MeasureProperties(
        "g3", MeasureClass.VIOLATION, "TANE [32], Berti-Equille et al. [9], Berzal et al. [18]",
        False, True, True, False, False, 0.674,
    ),
    "g3_prime": MeasureProperties(
        "g3_prime", MeasureClass.VIOLATION, "Giannella & Robertson [12]",
        True, True, True, True, False, 0.901,
    ),
    "gS1": MeasureProperties(
        "gS1", MeasureClass.SHANNON, "new (this paper)", True, True, True, False, False, 0.109
    ),
    "fi": MeasureProperties(
        "fi", MeasureClass.SHANNON, "Cavallo & Pittarelli [39], Giannella & Robertson [12]",
        True, True, True, False, True, 0.415,
    ),
    "rfi_plus": MeasureProperties(
        "rfi_plus", MeasureClass.SHANNON, "Mandros et al. [13, 14]",
        True, False, True, False, True, 0.494,
    ),
    "rfi_prime_plus": MeasureProperties(
        "rfi_prime_plus", MeasureClass.SHANNON, "new (this paper)",
        True, False, True, True, True, 0.971,
    ),
    "sfi": MeasureProperties(
        "sfi", MeasureClass.SHANNON, "Pennerath et al. [15]", True, False, None, None, None, 0.320
    ),
    "g1": MeasureProperties(
        "g1", MeasureClass.LOGICAL, "Kivinen & Mannila [11], FDX [23]",
        False, True, None, None, None, 0.425,
    ),
    "g1_prime": MeasureProperties(
        "g1_prime", MeasureClass.LOGICAL, "PYRO [22]", True, True, None, None, None, 0.425
    ),
    "pdep": MeasureProperties(
        "pdep", MeasureClass.LOGICAL, "Piatetsky-Shapiro & Matheus [16]",
        False, True, True, False, False, 0.647,
    ),
    "tau": MeasureProperties(
        "tau", MeasureClass.LOGICAL, "Goodman & Kruskal [41], [16]",
        True, True, True, False, True, 0.630,
    ),
    "mu_plus": MeasureProperties(
        "mu_plus", MeasureClass.LOGICAL, "Piatetsky-Shapiro & Matheus [16]",
        True, True, True, True, True, 0.946,
    ),
}


def property_table() -> List[MeasureProperties]:
    """All measure properties in the paper's canonical order."""
    return [PAPER_PROPERTIES[name] for name in MEASURE_ORDER]
