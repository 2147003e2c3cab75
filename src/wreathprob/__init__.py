"""Exact asymptotics for random partition tuples over wreath products.

The package computes, in exact rational (and where needed cyclotomic)
arithmetic, the character theory of G wr S_q: conjugacy-class indicators
and their structure constants, transition measures and free cumulants of
Young diagrams, canonical probability measures of representation
families, the cumulant scalings whose limits drive Gaussian fluctuation
results, and a growth-process sampler to observe those fluctuations.

Most day-to-day entry points are re-exported here; the topical modules
(`diagrams`, `indicators`, `groups`, `bruteforce`, `wreath`,
`asymptotics`, `sampling`, `cli`) carry the rest.
"""

from .asymptotics import (
    LimitParameters,
    convergence_report,
    disjoint_cumulant,
    natural_cumulant,
    r_cumulant,
    scaled_quantity,
)
from .diagrams import (
    TransitionMeasure,
    dilate,
    free_cumulants,
    profile_moment,
    transition_measure,
)
from .groups import builtin_group, character_table_from_json, character_table_to_json
from .indicators import IndicatorSum, expand_indicator, indicator_scalar, product_coefficients
from .partitions import character, dimension, partitions_of
from .sampling import (
    fluctuation_statistics,
    normality_check,
    sample_canonical,
    sample_plancherel,
    sample_shapes,
)
from .wreath import (
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RestrictedFamily,
    TensorFamily,
    factorized_character,
    family_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "Example1Family",
    "IndicatorSum",
    "InducedFamily",
    "IrreducibleFamily",
    "LimitParameters",
    "OuterFamily",
    "RestrictedFamily",
    "TensorFamily",
    "TransitionMeasure",
    "builtin_group",
    "character",
    "character_table_from_json",
    "character_table_to_json",
    "convergence_report",
    "dilate",
    "dimension",
    "disjoint_cumulant",
    "expand_indicator",
    "factorized_character",
    "family_from_json",
    "fluctuation_statistics",
    "free_cumulants",
    "indicator_scalar",
    "natural_cumulant",
    "normality_check",
    "partitions_of",
    "product_coefficients",
    "profile_moment",
    "r_cumulant",
    "sample_canonical",
    "sample_plancherel",
    "sample_shapes",
    "scaled_quantity",
    "transition_measure",
    "__version__",
]
