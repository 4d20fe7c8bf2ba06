import math

import numpy as np
import pytest

from conemorse.errors import AdequacyError, DegreeError, DegreeMismatchError
from conemorse.spectral import (
    SpectralProblem,
    assemble_quadratic_form,
    basis_size,
    cluster_counts,
    cone_differential_matrix,
    eigenvalues_to_csv,
    gap_growth,
    gap_growth_to_csv,
    low_spectrum,
    matrix_size,
    quasimode,
    spectral_report,
    suggested_cutoff,
)


class TestAssembly:
    def test_matrix_sizes(self):
        assert basis_size(14) == 29
        assert matrix_size(1, 14) == 3 * 29**2
        assert matrix_size(0, 14) == 29**2
        for k in range(4):
            prob = SpectralProblem(5, 4, k)
            assert assemble_quadratic_form(prob).shape[0] == matrix_size(k, 4)

    def test_sine_multiplication_is_exact_one_band_up(self):
        # the whole assembly rests on this: multiplying a band-N function by
        # sin(2 pi x) is reproduced exactly by the band-(N+1) matrix
        from conemorse.spectral import _basis_values_1d, _sin_mult_1d

        rng = np.random.default_rng(0)
        cutoff, npts = 7, 512
        grid = np.arange(npts) / npts
        coeff = rng.standard_normal(basis_size(cutoff))
        sampled = coeff @ _basis_values_1d(cutoff, grid)
        lifted = (_sin_mult_1d(cutoff) @ coeff) @ _basis_values_1d(cutoff + 1, grid)
        assert np.abs(np.sin(2 * np.pi * grid) * sampled - lifted).max() < 1e-12

    def test_flat_limit_recovers_torus_spectrum(self):
        # vanishing deformation at degree 0: eigenvalues 4 pi^2 (m^2 + n^2)
        prob = SpectralProblem(1e-12, 4, 0)
        vals = low_spectrum(prob, 9)
        expected = sorted(
            4 * math.pi**2 * (m * m + n * n) for m in range(-4, 5) for n in range(-4, 5)
        )[:9]
        assert np.allclose(vals, expected, atol=1e-6)

    def test_wedge_block_is_identity_embedding(self):
        # at degree 1 the theta coefficient feeds the two-form component
        # through the band embedding, the matrix realization of the wedge map
        n = 5
        mat = cone_differential_matrix(1, n, 0.0).toarray()
        n0 = basis_size(n) ** 2
        n1 = basis_size(n + 1) ** 2
        wedge_block = mat[:n1, 2 * n0 :]
        for i in range(basis_size(n)):
            for j in range(basis_size(n)):
                row = i * basis_size(n + 1) + j
                col = i * basis_size(n) + j
                assert wedge_block[row, col] == 1.0
        assert wedge_block.sum() == basis_size(n) ** 2  # nothing else

    def test_interior_product_block_is_adjoint_of_wedge(self):
        # the adjoint differential out of degree 2 carries the interior
        # product from the two-form field to the theta coefficient; built via
        # transposition it must be exactly the transpose of the wedge block
        n = 5
        lower = cone_differential_matrix(1, n + 1, 0.0)
        n_small = basis_size(n) ** 2
        n_mid = basis_size(n + 1) ** 2
        n_big = basis_size(n + 2) ** 2
        down = lower.T.toarray()
        block = down[2 * n_mid :, :n_big]  # theta rows x two-form columns
        for i in range(basis_size(n + 1)):
            for j in range(basis_size(n + 1)):
                row = i * basis_size(n + 1) + j
                col = i * basis_size(n + 2) + j
                assert block[row, col] == 1.0
        assert block.sum() == n_mid
        prob = SpectralProblem(3, 4, 2)
        mat = assemble_quadratic_form(prob)
        assert np.abs(mat - mat.T).max() < 1e-12 * max(1.0, np.abs(mat).max())

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_positive_semidefinite(self, degree, cached_low_spectrum):
        vals = cached_low_spectrum(8.0, 8, degree, 6)
        assert vals[0] >= -1e-8

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            SpectralProblem(-1, 8, 0)
        with pytest.raises(ValueError):
            SpectralProblem(5, 1, 0)
        with pytest.raises(DegreeError):
            SpectralProblem(5, 8, 5)


class TestClusters:
    def test_counts_match_critical_point_sums(self, cached_low_spectrum):
        # m = (1, 2, 1) on the torus: cone degree k holds m_k + m_{k-1}
        counts = cluster_counts(10, 10)
        assert counts == [1, 3, 3, 1]

    def test_report_fields(self):
        rep = spectral_report(SpectralProblem(10, 10, 1))
        assert rep.low_count == 3
        assert rep.gap > 100
        assert rep.cluster_ratio >= 10
        assert np.all(np.diff(rep.eigenvalues) >= -1e-9)

    def test_monotone_refinement(self, cached_low_spectrum):
        coarse = cached_low_spectrum(8.0, 8, 1, 5)
        fine = cached_low_spectrum(8.0, 10, 1, 5)
        assert np.all(fine <= coarse + 1e-9)

    def test_count_stability_across_refinement(self):
        assert cluster_counts(8, 8) == cluster_counts(8, 10)

    def test_adequacy_error_when_unresolvable(self):
        with pytest.raises(AdequacyError) as info:
            cluster_counts(80, 6)
        assert info.value.suggested_cutoff >= suggested_cutoff(80)

    def test_duality(self, cached_low_spectrum):
        # degree k for f against degree 3-k for -f, matched low clusters
        for k in range(4):
            direct = cached_low_spectrum(10.0, 9, k, 6)
            mirrored = cached_low_spectrum(10.0, 9, 3 - k, 6, -1.0)
            assert np.allclose(direct, mirrored, rtol=1e-6, atol=1e-9)

    def test_signed_morse_scale(self):
        with pytest.raises(ValueError, match="nonzero"):
            SpectralProblem(10.0, 8, 1, 0.0)
        with pytest.raises(ValueError, match="built for \\+f"):
            quasimode(SpectralProblem(20.0, 12, 1, -1.0), "q1", 1)


class TestGapGrowth:
    def test_needs_three_values(self):
        with pytest.raises(ValueError):
            gap_growth([10.0])

    def test_degenerate_fit_flagged(self):
        result = gap_growth([6.0, 6.0, 6.0], cutoff_rule=lambda t: 8, degree=1)
        assert result.degenerate and result.slope == 0.0

    def test_small_ramp_has_positive_slope(self):
        result = gap_growth([5.0, 7.0, 9.0], cutoff_rule=lambda t: 9, degree=1)
        assert not result.degenerate
        assert result.slope > 0
        assert result.gaps[-1] > result.gaps[0]

    def test_csv_formats(self):
        result = gap_growth([5.0, 7.0, 9.0], cutoff_rule=lambda t: 9, degree=1)
        csv_text = gap_growth_to_csv(result)
        assert csv_text.splitlines()[0] == "t,gap"
        rep = spectral_report(SpectralProblem(8, 8, 0))
        table = eigenvalues_to_csv([rep])
        assert table.splitlines()[0] == "degree,index,eigenvalue"
        assert table.count("\n") == len(rep.eigenvalues) + 1


class TestQuasimodes:
    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            quasimode(SpectralProblem(10, 8, 1), "q0", 1)
        with pytest.raises(DegreeMismatchError):
            quasimode(SpectralProblem(10, 8, 3), "q12", 1)

    def test_unknown_point(self):
        with pytest.raises(KeyError):
            quasimode(SpectralProblem(10, 8, 0), "q3", 1)

    def test_saddle_mode_is_small(self):
        qm = quasimode(SpectralProblem(20, 12, 1), "q1", 1)
        assert qm.rayleigh < 0.1
        assert abs(np.linalg.norm(qm.coefficients) - 1.0) < 1e-9

    def test_interior_product_partner_is_small(self):
        # the one mode whose second component is forced by the adjoint equation
        qm = quasimode(SpectralProblem(20, 12, 2), "q12", 1)
        assert qm.rayleigh < 0.1


class TestSolver:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_dense_oracle(self, degree):
        prob = SpectralProblem(8.0, 6, degree)
        vals = low_spectrum(prob, 8)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())[:8]
        assert np.abs(vals - dense).max() <= 1e-9 * max(1.0, dense[-1])

    def test_count_near_size_uses_dense_branch(self):
        # a threshold above the whole spectrum makes the report double its
        # batch until it asks for size - 1 and then all 25 eigenvalues
        prob = SpectralProblem(1.0, 2, 0)
        rep = spectral_report(prob, threshold=1e9)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())
        assert len(rep.eigenvalues) == matrix_size(0, 2) == 25
        assert np.abs(rep.eigenvalues - dense).max() <= 1e-9 * max(1.0, dense[-1])
        assert rep.low_count == 25 and rep.gap == math.inf

    def test_repeated_solves_are_bitwise_identical(self):
        prob = SpectralProblem(20.0, 10, 1)
        first = low_spectrum(prob, 6)
        for _ in range(3):
            assert np.array_equal(low_spectrum(prob, 6), first)
