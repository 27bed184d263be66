"""Codes that mask partially-stuck-at-1 memory cells and correct errors."""

from .alphabet import Alphabet, Polynomial, make_field
from .constructions import (
    DecodingFailure,
    MaskingImpossible,
    MaskingOutcome,
    PsmcCyclicCode,
    PsmcExtendedCode,
    PsmcMatrixCode,
    StuckCellProfile,
    masking_probability,
    redundancy_gain,
    stuck_redundancy_lower_bound,
)
from .cyclic import (
    CyclicCodeSpec,
    all_cosets,
    bch_bound_from_defining_set,
    build_cyclic_code,
    cyclotomic_coset,
    minimal_polynomial,
)
from .linear import BudgetExceeded, DistanceReport, LinearCode, min_distance
from .presets import PRESETS, get_preset
from .sim import CampaignReport, ChannelConfig, inject, run_campaign

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceeded",
    "CampaignReport",
    "ChannelConfig",
    "CyclicCodeSpec",
    "DecodingFailure",
    "DistanceReport",
    "LinearCode",
    "MaskingImpossible",
    "MaskingOutcome",
    "Polynomial",
    "PsmcCyclicCode",
    "PsmcExtendedCode",
    "PsmcMatrixCode",
    "PRESETS",
    "StuckCellProfile",
    "all_cosets",
    "bch_bound_from_defining_set",
    "build_cyclic_code",
    "cyclotomic_coset",
    "get_preset",
    "inject",
    "make_field",
    "masking_probability",
    "min_distance",
    "minimal_polynomial",
    "redundancy_gain",
    "run_campaign",
    "stuck_redundancy_lower_bound",
]
