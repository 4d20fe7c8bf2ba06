import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse import complexes
from conemorse.complexes import (
    CochainComplex,
    ComplexViolation,
    DegreeChainMap,
    chain_ranks,
    cohomology,
    decomposition_dims,
    induced_cohomology_maps,
    induced_map_ranks,
    mapping_cone,
    validate_chain_map,
    validate_complex,
)
from conemorse.errors import ChainMapError, ShapeError
from conemorse.families import projective_space, torus
from conemorse.fuzz import random_complex_with_chain_map
from conemorse.morse import morse_complex, stabilize
from conemorse.ratlinalg import RationalMatrix, rank


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

    def test_witness_is_lowest_column_then_lowest_row(self):
        # d1 d0 = [[0, 5], [6, 0]]: the lowest nonzero column, not the row-major first entry
        c = CochainComplex((2, 2, 2), [M([[2, 0], [0, 1]]), M([[0, 5], [3, 0]])])
        assert validate_complex(c) == ComplexViolation(0, 1, 0, Fraction(6))

    def test_chain_map_witness_is_lowest_column_then_lowest_row(self):
        # d2 phi0 - phi1 d0 = [[0, 5], [6, 0]] at degree 0
        c = CochainComplex((2, 2, 2, 2), [M([[0, 0], [0, 0]])] * 2 + [M([[0, 5], [3, 0]])])
        phi = DegreeChainMap(c, 2, [M([[2, 0], [0, 1]])])
        assert validate_chain_map(phi) == ComplexViolation(0, 1, 0, Fraction(6))

    def test_torus_morse_complex_ok(self):
        complex_, _ = exterior_torus_model(2)
        assert validate_complex(complex_) is None

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            CochainComplex((1, 2), [M([[1]])])


class TestCohomology:
    def test_zero_differential_gives_dims(self):
        c = CochainComplex((1, 2, 1))
        assert cohomology(c) == (1, 2, 1)

    def test_one_cancelling_pair(self):
        # dims (2, 3, 1): a single boundary pair at degrees 0-1
        d0 = M([[0, 1], [0, 0], [0, 0]])
        c = CochainComplex((2, 3, 1), [d0])
        assert cohomology(c) == (1, 2, 1)

    def test_four_torus_model(self):
        complex_, _ = exterior_torus_model(2)
        assert cohomology(complex_) == (1, 4, 6, 4, 1)

    def test_euler_characteristic_matches(self):
        complex_, _ = exterior_torus_model(2)
        data = cohomology(complex_)
        chi_dims = sum((-1) ** k * d for k, d in enumerate(complex_.dims))
        chi_betti = sum((-1) ** k * b for k, b in enumerate(data))
        assert chi_dims == chi_betti


class TestInducedRanks:
    def test_zero_map(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, 2)
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
        phi = DegreeChainMap(c, 2, [M([[1]])])  # d phi != phi d at degree 0
        assert validate_chain_map(phi) is not None
        with pytest.raises(ChainMapError):
            induced_map_ranks(phi)
        with pytest.raises(ChainMapError):
            mapping_cone(phi)


class TestMappingCone:
    def test_zero_map_gives_sum_of_shifted(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, 2)
        cone = mapping_cone(phi)
        b = (1, 2, 1)
        data = cohomology(cone)
        for k in cone.degrees():
            b_k = b[k] if 0 <= k < 3 else 0
            b_prev = b[k - 1] if 0 <= k - 1 < 3 else 0
            assert data[k] == b_k + b_prev

    def test_two_torus_cone(self):
        _, phi = exterior_torus_model(1)
        cone = mapping_cone(phi)
        assert cone.dims == (1, 3, 3, 1)
        assert cohomology(cone) == (1, 2, 2, 1)

    def test_four_torus_cone(self):
        _, phi = exterior_torus_model(2)
        assert cohomology(mapping_cone(phi)) == (1, 4, 5, 5, 4, 1)

    def test_cone_of_a_non_complex_rejected(self):
        # d1 d0 = [1] != 0: the complex is checked before the chain-map identity
        c = CochainComplex((1, 1, 1, 1), [M([[1]]), M([[1]])])
        phi = DegreeChainMap(c, 2, [M([[0]])])
        with pytest.raises(ShapeError, match="not a complex"):
            mapping_cone(phi)

    def test_cone_passes_validation(self):
        _, phi = exterior_torus_model(2)
        assert validate_complex(mapping_cone(phi)) is None

    def test_cone_euler_characteristic(self):
        _, phi = exterior_torus_model(2)
        cone = mapping_cone(phi)
        c = phi.complex
        expected = sum(
            (-1) ** k * (c.dim(k) + c.dim(k - phi.shift + 1))
            for k in cone.degrees()
        )
        assert sum((-1) ** k * d for k, d in enumerate(cone.dims)) == expected
        chi_coh = sum((-1) ** k * b for k, b in zip(cone.degrees(), cohomology(cone)))
        assert chi_coh == expected


class TestDecomposition:
    def test_zero_map(self):
        c = CochainComplex((1, 2, 1))
        phi = DegreeChainMap(c, 2)
        b = cohomology(c)
        assert decomposition_dims(phi, b, induced_map_ranks(phi)) == [1, 3, 3, 1]

    def test_four_torus(self):
        _, phi = exterior_torus_model(2)
        b = cohomology(phi.complex)
        assert decomposition_dims(phi, b, induced_map_ranks(phi)) == [1, 4, 5, 5, 4, 1]

    def test_cp3_power_two_shift_four(self):
        _, phi = morse_complex(projective_space(3, p=1))
        direct = list(cohomology(mapping_cone(phi)))
        b = cohomology(phi.complex)
        assert decomposition_dims(phi, b, induced_map_ranks(phi)) == direct

    def test_scaling_invariance(self):
        _, phi = exterior_torus_model(2)
        factor = Fraction(-7, 3)
        scaled = DegreeChainMap(phi.complex, phi.shift, [m.scaled(factor) for m in phi.matrices])
        b = cohomology(phi.complex)
        assert induced_map_ranks(scaled) == induced_map_ranks(phi)
        assert decomposition_dims(scaled, b, induced_map_ranks(scaled)) == decomposition_dims(
            phi, b, induced_map_ranks(phi)
        )
        assert cohomology(mapping_cone(scaled)) == cohomology(mapping_cone(phi))


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([2, 4]))
@settings(max_examples=40, deadline=None)
def test_decomposition_identity_on_fuzzed_pairs(seed, shift):
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=6, max_dim=8, shift=shift)
    direct = list(cohomology(mapping_cone(phi)))
    b = cohomology(phi.complex)
    assert decomposition_dims(phi, b, induced_map_ranks(phi)) == direct


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_chain_rank_dominates_induced_rank(seed):
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=5, max_dim=6)
    for r, v in zip(induced_map_ranks(phi), chain_ranks(phi)):
        assert r <= v


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([2, 4]))
@settings(max_examples=40, deadline=None)
def test_rank_formula_matches_the_induced_maps(seed, shift):
    # r_k = rank [[d_k, 0], [phi_k, d_j]] - rank d_k - rank d_j against the
    # rank of the matrix of [phi_k], whose class bases induced_cohomology_maps builds
    rng = random.Random(seed)
    _, phi = random_complex_with_chain_map(rng, max_degrees=6, max_dim=8, shift=shift)
    maps = induced_cohomology_maps(phi)
    assert induced_map_ranks(phi) == [rank(m) for m in maps.values()]


def test_rank_formula_matches_the_induced_maps_on_a_seed_sweep(monkeypatch):
    # the hypothesis draws above may miss the block rank; this fixed sweep
    # must reach it often, where d_k and d_{k+shift-1} are both nonzero.  A
    # zero phi_k gives r_k = 0 without the block: of the 1357 degrees where a
    # differential is nonzero, 678 have a zero phi_k and build no block.
    # induced_cohomology_maps calls block too, so only induced_map_ranks's
    # calls are counted
    blocks = []
    real = complexes.block

    def counted(grid):
        blocks.append(1)
        return real(grid)

    monkeypatch.setattr(complexes, "block", counted)
    both_nonzero = with_differential = zero_phi = ranked_blocks = 0
    for seed in range(300):
        for shift in (2, 4):
            rng = random.Random(seed)
            _, phi = random_complex_with_chain_map(rng, shift=shift)
            maps = induced_cohomology_maps(phi)
            before = len(blocks)
            assert induced_map_ranks(phi) == [rank(m) for m in maps.values()], (seed, shift)
            ranked_blocks += len(blocks) - before
            c = phi.complex
            for k in c.degrees():
                d_k, d_j = c.d(k), c.d(k + shift - 1)
                if c.dim(k) and not (d_k.is_zero() and d_j.is_zero()):
                    with_differential += 1
                    zero_phi += phi.matrix(k).is_zero()
                    both_nonzero += not d_k.is_zero() and not d_j.is_zero()
    assert (with_differential, zero_phi) == (1357, 678)
    assert ranked_blocks == with_differential - zero_phi
    assert both_nonzero >= 100


def test_induced_map_ranks_keeps_its_block_order_apart_from_the_cone(monkeypatch):
    # at k = 1 of T^4 stabilized at degrees 1 and 2, d_1, d_2 and phi_1 are
    # nonzero.  r_1 ranks M_1 = [[d_1, 0], [phi_1, d_2]], and the cone's
    # D_2 = [[d_2, phi_1], [0, -d_1]] is M_1 with its block rows and columns
    # swapped: equal ranks, found by two different eliminations.  Were the two
    # orders made equal, the b^w cross-check would repeat one elimination
    c, phi = morse_complex(stabilize(stabilize(torus(2), 1, "stab"), 2, "st2"))
    d_1, d_2, phi_1 = c.d(1), c.d(2), phi.matrix(1)
    assert not (d_1.is_zero() or d_2.is_zero() or phi_1.is_zero())
    m_1 = M(
        [row + [0] * d_2.cols for row in d_1.to_rows()]
        + [a + b for a, b in zip(phi_1.to_rows(), d_2.to_rows())]
    )
    cone_d_2 = M(
        [a + b for a, b in zip(d_2.to_rows(), phi_1.to_rows())]
        + [[0] * d_2.cols + [-x for x in row] for row in d_1.to_rows()]
    )
    assert mapping_cone(phi).d(2) == cone_d_2
    ranked = []
    real = complexes.rank

    def recorded(m):
        ranked.append(m)
        return real(m)

    monkeypatch.setattr(complexes, "rank", recorded)
    r = induced_map_ranks(phi)
    assert m_1 in ranked
    assert cone_d_2 not in ranked and -cone_d_2 not in ranked
    assert r[1] == rank(cone_d_2) - rank(d_1) - rank(d_2)
