"""Combinatorial invariants of complexity-one torus actions.

Exact integer linear algebra, weight systems with their Cramer
coefficients, sponge complexes, characteristic data, quasitoric reductions
and the cellular equivalence comparator.
"""

from .chardata import (
    Ambient,
    CharacteristicData,
    Chart,
    cocycle_check,
    compatibility_check,
    data_from_charts,
    local_model_data,
    solve_euler_signs,
    validate_mu,
)
from .classify import (
    ComparisonResult,
    EquivalenceWitness,
    Fingerprint,
    canonical_invariants,
    compare,
    verify_witness,
)
from .lattice import (
    IntMatrix,
    IntVector,
    SmithDecomposition,
    determinant,
    hermite_normal_form,
    integer_kernel,
    is_unimodular_extension,
    kernel_complement,
    primitive,
    smith_normal_form,
    vec,
)
from .quasitoric import (
    CellManifold,
    CharacteristicFunction,
    SimplePolytope,
    cell_manifold_data,
    coloring_pullback,
    find_strict_subtorus,
    induced_mu,
    polytope_sponge,
    reduce,
    validate_star,
)
from .sponge import (
    Cell,
    HomologyResult,
    SpongeComplex,
    ValidationReport,
    face_star,
    homology,
    local_model_sponge,
    signed_incidence,
    validate_sponge,
)
from .weights import (
    CramerCoefficients,
    StabilizerStructure,
    SubtorusChoice,
    WeightSystem,
    cramer_coefficients,
    induced_weights,
    is_general_position,
    is_strictly_appropriate,
    stabilizer_structure,
)

__version__ = "0.1.0"
