"""Cone Morse cohomology toolkit.

Exact side: rational linear algebra, cochain complexes with even-shift chain
maps, mapping cones, Morse data with a cone map, and the cone Morse inequality
suite with its polynomial certificate.  Numerical side: Fourier-Galerkin
spectra of the Witten-deformed cone Laplacian on the flat two-torus, in
``conemorse.spectral``; only that side imports numpy and scipy.
"""

from .complexes import (
    CochainComplex,
    DegreeChainMap,
    chain_ranks,
    cohomology,
    induced_map_ranks,
    mapping_cone,
    validate_chain_map,
    validate_complex,
)
from .families import (
    projective_space,
    s2_bundle_over_k3,
    synthetic_from_rank_profile,
    synthetic_from_ranks,
    torus,
)
from .inequalities import (
    InequalityReport,
    cone_report,
    morse_bott_bounds,
    q_polynomial,
)
from .morse import (
    CriticalPoint,
    MorseDatum,
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
    rank,
    rat,
)
# the spectral names load on first use (PEP 562), so the exact side runs
# without importing numpy
_SPECTRAL_NAMES = frozenset({
    "GapGrowthResult",
    "SpectralProblem",
    "SpectralReport",
    "assemble_quadratic_form",
    "gap_growth",
    "low_spectrum",
    "quasimode",
    "spectral_report",
    "spectral_reports",
})


def __getattr__(name):
    if name in _SPECTRAL_NAMES:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
