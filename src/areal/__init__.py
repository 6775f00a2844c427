"""Area-signature equivalence of planar point configurations over F_q
and Z/p^l Z, with exact desk-scale verification of every counting step."""

from .census import (
    BudgetExceeded,
    CensusReport,
    FProfile,
    NuHistogram,
    PointSet,
    count_bad_tuples,
    count_classes,
    f_profile,
    flemma_check,
    mbad_class_size_check,
    moment_identity_check,
    moment_lift_check,
    nu_histogram,
    transitivity_constant,
)
from .configs import BothBad, NotEquivalent, badness_level, recover_g, signature
from .linalg import enumerate_sl2, perp_dot, sl2_order
from .rings import galois_field, mod_prime_power, prime_field, ring_from_json

__all__ = [
    "BothBad",
    "BudgetExceeded",
    "CensusReport",
    "FProfile",
    "NotEquivalent",
    "NuHistogram",
    "PointSet",
    "badness_level",
    "count_bad_tuples",
    "count_classes",
    "enumerate_sl2",
    "f_profile",
    "flemma_check",
    "galois_field",
    "mbad_class_size_check",
    "mod_prime_power",
    "moment_identity_check",
    "moment_lift_check",
    "nu_histogram",
    "perp_dot",
    "prime_field",
    "recover_g",
    "ring_from_json",
    "signature",
    "sl2_order",
    "transitivity_constant",
]
