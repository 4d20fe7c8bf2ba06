"""Cone Morse cohomology toolkit.

Exact side: rational linear algebra, cochain complexes with even-shift chain
maps, mapping cones, Morse data with a cone map, and the cone Morse inequality
suite with its polynomial certificate.  Numerical side: Fourier-Galerkin
spectra of the Witten-deformed cone Laplacian on the flat two-torus.
"""

from .complexes import (
    CochainComplex,
    CohomologyData,
    DegreeChainMap,
    chain_ranks,
    cohomology,
    cone_cohomology_by_decomposition,
    induced_map_ranks,
    mapping_cone,
    validate_chain_map,
    validate_complex,
)
from .families import (
    TorusConvention,
    minimal_model,
    projective_space,
    s2_bundle_over_k3,
    synthetic_from_rank_profile,
    synthetic_from_ranks,
    torus,
)
from .inequalities import (
    InequalityReport,
    cone_report,
    machon_check,
    morse_bott_bounds,
    q_polynomial,
)
from .morse import (
    CriticalPoint,
    MorseDatum,
    betti,
    cone_morse_complex,
    datum_from_chain_map,
    morse_complex,
    product,
    relabel,
    stabilize,
    validate_datum,
)
from .ratlinalg import (
    Rational,
    RationalMatrix,
    nullspace_basis,
    quotient_map,
    rank,
    rat,
)
from .spectral import (
    GapGrowthResult,
    SpectralProblem,
    SpectralReport,
    assemble_quadratic_form,
    cluster_counts,
    gap_growth,
    low_spectrum,
    quasimode,
    spectral_report,
)

__version__ = "0.1.0"
