"""Exact quantum homology presentations and Seidel elements for Fano
toric manifolds and their real Lagrangians, from moment polytope data."""

from .errors import (
    CrosscheckFailedError,
    DelzantError,
    FanoViolationError,
    InfiniteDimensionalError,
    NoBatyrevVectorError,
    NonGenericXiError,
    NonHomogeneousGeneratorError,
    NonUniqueBatyrevVectorError,
    NotInvertibleError,
    ParseError,
    SchemaError,
    ToricQHError,
)
from .exact_linalg import det, hermite_normal_form, kernel_lattice_basis, solve_rational
from .f2ring import (
    GroebnerBasis,
    QHElement,
    QuotientRing,
    buchberger,
    hilbert_function,
    rehomogenize,
    saturate_t,
)
from .polytope import (
    DelzantReport,
    Polytope,
    PrimitiveCollection,
    Vertex,
    batyrev_vector,
    betti_numbers_L,
    enumerate_vertices,
    generic_xi,
    morse_index_L,
    primitive_collection_data,
    primitive_collections,
    quantum_degree,
    require_delzant,
    validate_delzant,
)
from .qh import (
    CrosscheckReport,
    Presentation,
    SeidelElement,
    UniruledCertificate,
    betti_crosscheck,
    build_ring,
    classical_sr,
    invert,
    linear_relations,
    min_quantum_degree,
    multiply,
    quantum_sr,
    seidel_composite,
    seidel_facet,
    seidel_inverse,
    uniruled_certificate,
    unit,
    verify_psi,
    verify_seidel_relation,
)
from .cli import builtin_polytope, load_polytope, polytope_to_json, run_command

__version__ = "0.1.0"
