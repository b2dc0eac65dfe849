"""Exact tools for the Lagrangian Grassmannian's linear relation matrix.

Builds the sparse 0/1 matrix of the contraction relations in grade-n
exterior coordinates, decomposes it into regular incidence blocks,
computes exact ranks over the rationals and prime fields, verifies the
desk-scale geometry (point counts, annihilation, minimality) against
brute-force oracles, and exports parity-check matrices in alist form.
"""

from .blocks import (
    Block,
    BlockDecomposition,
    BlockEquivalenceError,
    DecompositionError,
    IncidenceMatrix,
    RegularityReport,
    atlas,
    check_regularity,
    decompose,
    incidence_matrix,
    r_value,
)
from .combinatorics import (
    FreePairSplit,
    Pair,
    index_tuples,
    pair_of,
    sorting_sign,
    split_free_pairs,
    tuple_rank,
)
from .errors import ResourceCapError
from .fields import GF, QQ, Field, PrimeField, RationalField
from .frlc import (
    LinearFunctional,
    PlueckerMatrix,
    build_plucker_matrix,
    vanishing_space,
)
from .linalg import (
    BinaryMatrix,
    ExactMatrix,
    RankCriterionViolation,
    RankReport,
    embedding_rank,
    nullspace,
    rank,
    rank_report,
    row_space_equal,
)
from .symplectic import (
    ExteriorVector,
    SubspaceBasis,
    arranged_coordinates,
    basis_pairing,
    contract,
    contract_vectors,
    coordinate_vector,
    is_isotropic,
    lagrangian_cells,
    lagrangian_count,
    lagrangian_subspaces,
    pair_adjacent_sign,
    pairing,
    plucker_vector,
    random_lagrangian,
    satisfies_plucker_relations,
    wedge,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "Block",
    "BlockDecomposition",
    "BlockEquivalenceError",
    "DecompositionError",
    "ExactMatrix",
    "ExteriorVector",
    "Field",
    "FreePairSplit",
    "GF",
    "IncidenceMatrix",
    "LinearFunctional",
    "Pair",
    "PlueckerMatrix",
    "PrimeField",
    "QQ",
    "RankCriterionViolation",
    "RankReport",
    "RationalField",
    "RegularityReport",
    "ResourceCapError",
    "SubspaceBasis",
    "arranged_coordinates",
    "atlas",
    "basis_pairing",
    "build_plucker_matrix",
    "check_regularity",
    "contract",
    "contract_vectors",
    "coordinate_vector",
    "decompose",
    "embedding_rank",
    "incidence_matrix",
    "index_tuples",
    "is_isotropic",
    "lagrangian_cells",
    "lagrangian_count",
    "lagrangian_subspaces",
    "nullspace",
    "pair_adjacent_sign",
    "pair_of",
    "pairing",
    "plucker_vector",
    "r_value",
    "random_lagrangian",
    "rank",
    "rank_report",
    "row_space_equal",
    "satisfies_plucker_relations",
    "sorting_sign",
    "split_free_pairs",
    "tuple_rank",
    "vanishing_space",
    "wedge",
]
