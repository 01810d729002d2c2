"""Pattern-forcing and strongly pattern-forcing (0,1)-matrices.

A matrix A is Q-forcing when every submatrix of A with the pattern's shape
can be turned into Q by flipping 1s to 0s, and strongly Q-forcing when every
1-entry of A sits inside a submatrix equal to Q. The package computes the
associated extremal counts exactly: minimum ones for forcing via closed
formulas with a brute-force fallback, maximum ones for strong forcing via
a certified branch-and-bound search, plus the constructions that attain them.
"""

from .bitmatrix import (
    BitMatrix,
    MatrixFormatError,
    Position,
    direct_sum,
    entrywise_leq,
    hankel,
    identity,
    make,
    parse,
    serialize,
)
from .forcing import (
    CoreDecomposition,
    CornerReport,
    MinOnesResult,
    core,
    corner_functions,
    is_forcing,
    min_ones,
    min_ones_boundary,
    min_ones_core,
    min_ones_general,
    minimal_forcing,
    perm_max_extremal,
    perm_max_m,
    perm_min_bound,
    perm_min_equality,
)
from .oracle import (
    EnumerationCapError,
    oracle_is_strongly_forcing,
    oracle_max_strong,
    oracle_minimal_forcing,
)
from .patterns import (
    all_permutation_matrices,
    is_permutation_matrix,
    named,
    permutation_matrix,
    permutation_of,
)
from .strong_forcing import (
    ResultsCache,
    SearchConfig,
    SearchOutcome,
    WitnessEmbedding,
    apply_symmetry,
    canonical_with_ops,
    conjectured_max_identity,
    extremal_132_witness,
    extremal_identity_witness,
    find_witness,
    is_strongly_forcing,
    linear_zero_construction,
    search_max,
    split_witness,
    upper_bound_simple,
)

__all__ = [
    "BitMatrix",
    "CoreDecomposition",
    "CornerReport",
    "EnumerationCapError",
    "MatrixFormatError",
    "MinOnesResult",
    "Position",
    "ResultsCache",
    "SearchConfig",
    "SearchOutcome",
    "WitnessEmbedding",
    "all_permutation_matrices",
    "apply_symmetry",
    "canonical_with_ops",
    "conjectured_max_identity",
    "core",
    "corner_functions",
    "direct_sum",
    "entrywise_leq",
    "extremal_132_witness",
    "extremal_identity_witness",
    "find_witness",
    "hankel",
    "identity",
    "is_forcing",
    "is_permutation_matrix",
    "is_strongly_forcing",
    "linear_zero_construction",
    "make",
    "min_ones",
    "min_ones_boundary",
    "min_ones_core",
    "min_ones_general",
    "minimal_forcing",
    "named",
    "oracle_is_strongly_forcing",
    "oracle_max_strong",
    "oracle_minimal_forcing",
    "parse",
    "perm_max_extremal",
    "perm_max_m",
    "perm_min_bound",
    "perm_min_equality",
    "permutation_matrix",
    "permutation_of",
    "search_max",
    "serialize",
    "split_witness",
    "upper_bound_simple",
]

__version__ = "0.1.0"
