import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse.complexes import (
    CochainComplex,
    ComplexViolation,
    DegreeChainMap,
    chain_ranks,
    cohomology,
    cone_cohomology_by_decomposition,
    induced_map_ranks,
    mapping_cone,
    validate_chain_map,
    validate_complex,
)
from conemorse.errors import ChainMapError, ShapeError
from conemorse.families import projective_space, torus
from conemorse.fuzz import random_complex_with_chain_map
from conemorse.morse import morse_complex
from conemorse.ratlinalg import RationalMatrix


def M(rows):
    return RationalMatrix.from_rows(rows)


def exterior_torus_model(n):
    """Zero-differential model with the monomial basis of torus(n)."""
    return morse_complex(torus(n))


class TestValidateComplex:
    def test_zero_differentials_ok(self):
        c = CochainComplex((2, 3, 1))
        assert validate_complex(c) is None

    def test_nonzero_composite_reported(self):
        c = CochainComplex((1, 1, 1), [M([[1]]), M([[1]])])
        violation = validate_complex(c)
        assert violation is not None
        assert violation.degree == 0
        assert violation.value == 1

    def test_witness_is_first_entry_in_row_order(self):
        # d1 d0 = [[0, 5], [6, 0]]: the row-major first entry, not the lowest column
        c = CochainComplex((2, 2, 2), [M([[2, 0], [0, 1]]), M([[0, 5], [3, 0]])])
        assert validate_complex(c) == ComplexViolation(0, 0, 1, Fraction(5))

    def test_chain_map_witness_is_first_entry_in_row_order(self):
        # d2 phi0 - phi1 d0 = [[0, 5], [6, 0]] at degree 0
        c = CochainComplex((2, 2, 2, 2), [M([[0, 0], [0, 0]])] * 2 + [M([[0, 5], [3, 0]])])
        phi = DegreeChainMap(c, c, 2, [M([[2, 0], [0, 1]])])
        assert validate_chain_map(phi) == ComplexViolation(0, 0, 1, Fraction(5))

    def test_torus_morse_complex_ok(self):
        complex_, _ = exterior_torus_model(2)
        assert validate_complex(complex_) is None

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            CochainComplex((1, 2), [M([[1]])])


class TestCohomology:
    def test_zero_differential_gives_dims(self):
        c = CochainComplex((1, 2, 1))
        assert cohomology(c).dims == (1, 2, 1)

    def test_one_cancelling_pair(self):
        # dims (2, 3, 1): a single boundary pair at degrees 0-1
        d0 = M([[0, 1], [0, 0], [0, 0]])
        c = CochainComplex((2, 3, 1), [d0])
        assert cohomology(c).dims == (1, 2, 1)

    def test_four_torus_model(self):
        complex_, _ = exterior_torus_model(2)
        assert cohomology(complex_).dims == (1, 4, 6, 4, 1)

    def test_euler_characteristic_matches(self):
        complex_, _ = exterior_torus_model(2)
        data = cohomology(complex_)
        chi_dims = complex_.euler_characteristic()
        chi_betti = sum((-1) ** k * b for k, b in enumerate(data.dims))
        assert chi_dims == chi_betti


class TestInducedRanks:
    def test_zero_map(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, c, 2)
        assert induced_map_ranks(phi) == [0, 0, 0]

    def test_four_torus_wedge(self):
        _, phi = exterior_torus_model(2)
        assert induced_map_ranks(phi) == [1, 4, 1, 0, 0]

    def test_cp2_wedge(self):
        _, phi = morse_complex(projective_space(2))
        assert induced_map_ranks(phi) == [1, 0, 1, 0, 0]

    def test_broken_chain_map_rejected(self):
        zero = RationalMatrix.zeros(1, 1)
        c = CochainComplex((1, 1, 1, 1), [zero, zero, M([[1]])])
        phi = DegreeChainMap(c, c, 2, [M([[1]])])  # d phi != phi d at degree 0
        assert validate_chain_map(phi) is not None
        with pytest.raises(ChainMapError):
            induced_map_ranks(phi)
        with pytest.raises(ChainMapError):
            mapping_cone(phi)


class TestMappingCone:
    def test_zero_map_gives_sum_of_shifted(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, c, 2)
        cone = mapping_cone(phi)
        b = (1, 2, 1)
        data = cohomology(cone)
        for k in cone.degrees():
            b_k = b[k] if 0 <= k < 3 else 0
            b_prev = b[k - 1] if 0 <= k - 1 < 3 else 0
            assert data.b(k) == b_k + b_prev

    def test_two_torus_cone(self):
        _, phi = exterior_torus_model(1)
        cone = mapping_cone(phi)
        assert cone.dims == (1, 3, 3, 1)
        assert cohomology(cone).dims == (1, 2, 2, 1)

    def test_four_torus_cone(self):
        _, phi = exterior_torus_model(2)
        assert cohomology(mapping_cone(phi)).dims == (1, 4, 5, 5, 4, 1)

    def test_cone_passes_validation(self):
        _, phi = exterior_torus_model(2)
        assert validate_complex(mapping_cone(phi)) is None

    def test_cone_euler_characteristic(self):
        _, phi = exterior_torus_model(2)
        cone = mapping_cone(phi)
        source = phi.source
        expected = sum(
            (-1) ** k * (source.dim(k) + source.dim(k - phi.shift + 1))
            for k in cone.degrees()
        )
        assert cone.euler_characteristic() == expected
        chi_coh = sum((-1) ** k * b for k, b in zip(cone.degrees(), cohomology(cone).dims))
        assert chi_coh == expected


class TestDecomposition:
    def test_zero_map(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, c, 2)
        assert cone_cohomology_by_decomposition(phi) == [1, 3, 3, 1]

    def test_four_torus(self):
        _, phi = exterior_torus_model(2)
        assert cone_cohomology_by_decomposition(phi) == [1, 4, 5, 5, 4, 1]

    def test_cp3_power_two_shift_four(self):
        _, phi = morse_complex(projective_space(3, p=1))
        direct = list(cohomology(mapping_cone(phi)).dims)
        assert cone_cohomology_by_decomposition(phi) == direct

    def test_scaling_invariance(self):
        _, phi = exterior_torus_model(2)
        scaled = phi.scaled(Fraction(-7, 3))
        assert induced_map_ranks(scaled) == induced_map_ranks(phi)
        assert cone_cohomology_by_decomposition(scaled) == cone_cohomology_by_decomposition(phi)
        assert cohomology(mapping_cone(scaled)).dims == cohomology(mapping_cone(phi)).dims


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([2, 4]))
@settings(max_examples=40, deadline=None)
def test_decomposition_identity_on_fuzzed_pairs(seed, shift):
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=6, max_dim=8, shift=shift)
    direct = list(cohomology(mapping_cone(phi)).dims)
    assert cone_cohomology_by_decomposition(phi) == direct


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_chain_rank_dominates_induced_rank(seed):
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=5, max_dim=6)
    for r, v in zip(induced_map_ranks(phi), chain_ranks(phi)):
        assert r <= v
