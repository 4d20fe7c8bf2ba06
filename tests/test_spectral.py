import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conemorse
from conemorse import cli, spectral
from conemorse.errors import AdequacyError, DegreeError, DegreeMismatchError, SolverError
from conemorse.spectral import (
    COMPONENTS,
    DIFFERENTIAL,
    DUAL_PAIR,
    LOW_THRESHOLD,
    MAX_CUTOFF,
    PARITY_OFFSETS,
    REPORT_COUNT,
    SECTORS,
    SpectralProblem,
    _adjoint,
    _apply,
    _differential,
    _factor,
    _form_value,
    _grad_1d,
    _kron_matrix,
    _sector_indices,
    _sector_spectrum,
    assemble_quadratic_form,
    basis_size,
    eigenvalues_to_csv,
    gap_growth,
    gap_growth_to_csv,
    low_spectrum,
    matrix_size,
    quasimode,
    spectral_report,
    spectral_reports,
    suggested_cutoff,
)


def d_c_matrix(degree, cutoff, deform):
    """Matrix of d_C from cone degree `degree` in band N to degree+1 in band N+1."""
    return _kron_matrix(*_differential(degree, _grad_1d(cutoff, deform)), COMPONENTS[degree])


def low_counts(t, cutoff=None, degrees=(0, 1, 2, 3)):
    """Per-degree counts of eigenvalues <= 1, read from spectral_reports."""
    return [rep.low_count for rep in spectral_reports(t, cutoff, degrees).values()]


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
        from conemorse.spectral import _basis_values_1d

        rng = np.random.default_rng(0)
        cutoff, npts = 7, 512
        grid = np.arange(npts) / npts
        coeff = rng.standard_normal(basis_size(cutoff))
        sampled = coeff @ _basis_values_1d(cutoff, grid)
        sin_mult = spectral._band_tables()[1][: basis_size(cutoff + 1), : basis_size(cutoff)]
        lifted = (sin_mult @ coeff) @ _basis_values_1d(cutoff + 1, grid)
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
        mat = d_c_matrix(1, n, 0.0).toarray()
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
        lower = d_c_matrix(1, n + 1, 0.0)
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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SpectralProblem(bad, 8, 0)
            with pytest.raises(ValueError, match="finite"):
                SpectralProblem(5, 8, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            suggested_cutoff(math.inf)
        for bad in (-4.0, 0.0):  # refused as SpectralProblem refuses it, not by math.sqrt
            with pytest.raises(ValueError, match=f"t must be positive, got {bad}"):
                suggested_cutoff(bad)
        # the form's entries grow like (t * a * pi)^2
        for t, a in ((1e160, 1.0), (2.0, 1e308), (1e76, -1e77)):
            with pytest.raises(ValueError, match="overflow"):
                SpectralProblem(t, 8, 0, a)
        SpectralProblem(1e150, 8, 0, -1.0)
        for kind in (True, 1.0, 0, 3):  # True == 1 and 1.0 == 1, but neither is a kind
            with pytest.raises(ValueError, match=f"kind must be 1 or 2, got {kind!r}"):
                quasimode(SpectralProblem(20.0, 12, 0), "q0", kind)

    @pytest.mark.parametrize(
        "cutoff, degree, error, shown",
        [
            (10.5, 1, ValueError, "cutoff must be an integer, got 10.5"),
            ("10", 1, ValueError, "cutoff must be an integer, got '10'"),
            (True, 1, ValueError, "cutoff must be an integer, got True"),
            (10, 1.0, DegreeError, "cone degree must be 0..3, got 1.0"),
            (10, True, DegreeError, "cone degree must be 0..3, got True"),
        ],
        ids=["float-cutoff", "str-cutoff", "bool-cutoff", "float-degree", "bool-degree"],
    )
    def test_non_integral_field_refused(self, cutoff, degree, error, shown):
        # numpy would refuse these later with a bare TypeError
        with pytest.raises(ValueError) as info:
            SpectralProblem(10, cutoff, degree)
        assert info.type is error and str(info.value) == shown

    @pytest.mark.parametrize(
        "t, morse_scale, shown",
        [
            ("10", 1.0, "t must be a real number, got '10'"),
            (10, "1", "morse_scale must be a real number, got '1'"),
            (True, 1.0, "t must be a real number, got True"),
            (10, True, "morse_scale must be a real number, got True"),
            (10, None, "morse_scale must be a real number, got None"),
        ],
        ids=["str-t", "str-morse_scale", "bool-t", "bool-morse_scale", "none-morse_scale"],
    )
    def test_non_real_deformation_refused(self, t, morse_scale, shown):
        # math.isfinite would refuse a string with a bare TypeError and take True as 1
        with pytest.raises(ValueError) as info:
            SpectralProblem(t, 10, 1, morse_scale)
        assert info.type is ValueError and str(info.value) == shown

    def test_numpy_floats_accepted(self):
        prob = SpectralProblem(np.float64(10.0), 10, 1, np.float64(-1.0))
        assert np.array_equal(low_spectrum(prob, 4), low_spectrum(SpectralProblem(10.0, 10, 1, -1.0), 4))

    def test_numpy_integers_accepted(self):
        prob = SpectralProblem(10, np.int64(10), np.int64(0))
        assert np.array_equal(low_spectrum(prob, 4), low_spectrum(SpectralProblem(10, 10, 0), 4))

    def test_quasimode_on_non_integral_cutoff_refused(self):
        with pytest.raises(ValueError, match="cutoff must be an integer, got 14.0"):
            quasimode(SpectralProblem(20.0, 14.0, 1), "q1", 1)

    def test_cutoff_cap(self):
        # a degree-1 form has 3 (2N+1)^2 unknowns; nothing above the cap is sized
        with pytest.raises(ValueError, match=f"at most {MAX_CUTOFF}"):
            SpectralProblem(5, MAX_CUTOFF + 1, 1)
        with pytest.raises(ValueError, match=f"at most {MAX_CUTOFF}"):
            SpectralProblem(1e6, suggested_cutoff(1e6), 0)
        assert SpectralProblem(5, MAX_CUTOFF, 1).cutoff == MAX_CUTOFF


# the eight quasimodes by the cone degree they live at: (point, kind)
QUASIMODES = {
    0: [("q0", 1)],
    1: [("q0", 2), ("q1", 1), ("q2", 1)],
    2: [("q1", 2), ("q2", 2), ("q12", 1)],
    3: [("q12", 2)],
}


class TestSharedTable:
    """d_C is one block table, read by the sparse assembly and the matrix-free apply."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matrix_free_form_equals_assembled(self, degree):
        rng = np.random.default_rng(degree)
        for t, n in ((2.0, 4), (10.0, 10), (20.0, 14)):
            prob = SpectralProblem(t, n, degree)
            form = assemble_quadratic_form(prob)
            for _ in range(3):
                vec = rng.standard_normal(matrix_size(degree, n))
                vec /= np.linalg.norm(vec)
                assembled = vec @ (form @ vec)
                assert abs(_form_value(prob, vec) - assembled) <= 1e-12 * assembled

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_apply_matches_matrix_columns(self, degree):
        n, deform = 5, 3.7 * math.pi
        size, big = basis_size(n), basis_size(n + 2)
        up = d_c_matrix(degree, n, deform)
        # the adjoint built without the transposed table: the transpose of d_C
        # one degree lower and one band higher, on forms padded to band N+2
        lower = d_c_matrix(degree - 1, n + 1, deform) if degree else None
        for j in (0, 7, matrix_size(degree, n) // 2, matrix_size(degree, n) - 1):
            unit = np.zeros(matrix_size(degree, n))
            unit[j] = 1.0
            grids = unit.reshape(-1, size, size)
            applied = _apply(*_differential(degree, _grad_1d(n, deform)), grids).reshape(-1)
            assert np.array_equal(applied, up[:, [j]].toarray().ravel())
            if lower is not None:
                padded = np.zeros((COMPONENTS[degree], big, big))
                padded[:, :size, :size] = grids
                expected = lower.T @ padded.reshape(-1)
                applied = _apply(*_adjoint(degree, _grad_1d(n + 1, deform)), grids).reshape(-1)
                assert np.array_equal(applied, expected)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_quasimode_rayleigh_equals_assembled(self, degree):
        prob = SpectralProblem(20.0, 14, degree)
        form = assemble_quadratic_form(prob)
        for point, kind in QUASIMODES[degree]:
            mode = quasimode(prob, point, kind)
            vec = mode.coefficients
            assert abs(mode.rayleigh - vec @ (form @ vec)) <= 1e-12


def factor_pairs(grad):
    """The two 1D factors of each block kind, with the band embedding E stored densely."""
    embed = np.eye(*grad.shape)
    return {"x": (grad, embed), "y": (embed, grad), "w": (embed, embed)}


def kron_matrix_oracle(blocks, grad, out_components, in_components):
    """A block operator with each block built by scipy.sparse.kron."""
    import scipy.sparse as sp

    pairs = factor_pairs(grad)
    rows_1d, cols_1d = grad.shape
    height, width = rows_1d**2, cols_1d**2
    rows, cols, data = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for out, inp, sign, kind in blocks:
        a, b = pairs[kind]
        block = sp.kron(sign * a, b, format="coo")
        rows.append(block.row + out * height)
        cols.append(block.col + inp * width)
        data.append(block.data)
    shape = (out_components * height, in_components * width)
    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(entries, shape=shape)


class TestKroneckerAssembly:
    """Index arithmetic lists the entries scipy.sparse.kron lists, and padding applies E."""

    @pytest.mark.parametrize("t, cutoff, a", [(7.3, 5, 1.0), (2.0, 6, -0.3), (40.0, 19, 1.0)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_form_equals_kron_oracle_bitwise(self, t, cutoff, a, degree):
        prob = SpectralProblem(t, cutoff, degree, a)
        up, *down = [
            kron_matrix_oracle(*op, COMPONENTS[degree]) for op in spectral._operators(prob)
        ]
        oracle = sum((mat.T @ mat for mat in down), up.T @ up).tocsr()
        form = assemble_quadratic_form(prob)
        assert form.shape == oracle.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(form, name), getattr(oracle, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert form.nbytes == oracle.data.nbytes + oracle.indices.nbytes + oracle.indptr.nbytes

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_padded_apply_equals_dense_kron_per_block(self, degree):
        n, deform = 5, 3.7 * math.pi
        grids = np.random.default_rng(degree).standard_normal(
            (COMPONENTS[degree], basis_size(n), basis_size(n))
        )
        ops = [_differential(degree, _grad_1d(n, deform))]
        if degree:
            ops.append(_adjoint(degree, _grad_1d(n + 1, deform)))
        blocks_seen = 0
        for blocks, grad, out_components in ops:
            size, pairs = grad.shape[0], factor_pairs(grad)
            for block in blocks:
                o, i, sign, kind = block
                applied = _apply((block,), grad, out_components, grids)
                expected = np.zeros((out_components, size * size))
                expected[o] = sign * np.kron(*pairs[kind]) @ grids[i].ravel()
                err = np.abs(applied.reshape(out_components, -1) - expected).max()
                assert err <= 1e-13 * np.abs(expected).max(), block
                blocks_seen += 1
        adjoint_blocks = len(DIFFERENTIAL[degree - 1]) if degree else 0
        assert blocks_seen == len(DIFFERENTIAL[degree]) + adjoint_blocks


def deriv_oracle(cutoff):
    """d/dx: band N -> band N+1, built at its own band (the top band stays empty)."""
    mat = np.zeros((basis_size(cutoff + 1), basis_size(cutoff)))
    m = np.arange(1, cutoff + 1)
    mat[2 * m, 2 * m - 1] = -2.0 * math.pi * m  # d/dx cos -> sin
    mat[2 * m - 1, 2 * m] = 2.0 * math.pi * m  # d/dx sin -> cos
    return mat


def sin_mult_oracle(cutoff):
    """Multiplication by sin(2 pi x): band N -> band N+1, built at its own band."""
    mat = np.zeros((basis_size(cutoff + 1), basis_size(cutoff)))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    mat[2, 0] = mat[0, 2] = inv_sqrt2  # sin * 1 -> sin_1, sin * sin_1 -> constant
    m = np.arange(1, cutoff + 1)
    mat[2 * (m + 1), 2 * m - 1] = 0.5  # sin * cos_m -> sin_{m+1}
    mat[2 * (m + 1) - 1, 2 * m] = -0.5  # sin * sin_m -> -cos_{m+1}
    m = np.arange(2, cutoff + 1)
    mat[2 * (m - 1), 2 * m - 1] = -0.5  # sin * cos_m -> -sin_{m-1}
    mat[2 * (m - 1) - 1, 2 * m] = 0.5  # sin * sin_m -> cos_{m-1}
    return mat


def grad_oracle(cutoff, deform):
    """G at band N from the two factors built at band N, as before the table at the cap."""
    return deriv_oracle(cutoff) + deform * sin_mult_oracle(cutoff)


def counted_cache(monkeypatch, name, built):
    """Replace spectral.<name> by its builder under a fresh cache of the same bound, logging each build."""
    table = getattr(spectral, name)
    build = table.__wrapped__  # the table function without its cache

    def counted(*key):
        built.append((name, *key))
        return build(*key)

    monkeypatch.setattr(spectral, name, functools.lru_cache(maxsize=table.cache_info().maxsize)(counted))


class TestTables:
    """The t-independent tables cannot be written; d/dx and the sine multiplication are built once per process."""

    def test_cached_tables_raise_on_write(self):
        deriv, sin_mult = spectral._band_tables()
        assert deriv.shape == sin_mult.shape == (basis_size(MAX_CUTOFF + 2), basis_size(MAX_CUTOFF + 1))
        for table in (deriv, sin_mult, spectral._quasimode_basis(7)):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        assert _grad_1d(7, 2.0).flags.writeable  # G depends on t: a fresh array

    def test_band_tables_built_once_for_every_band(self, monkeypatch):
        assert spectral._band_tables.cache_info().maxsize is None  # never evicted
        built = []
        counted_cache(monkeypatch, "_band_tables", built)
        for n in range(2, MAX_CUTOFF + 1):
            _grad_1d(n, 1.0)
        low_spectrum(SpectralProblem(2.0, MAX_CUTOFF, 0), 4)
        quasimode(SpectralProblem(20.0, 14, 1), "q1", 1)
        assert built == [("_band_tables",)]

    def test_grad_equals_per_band_oracle_bitwise(self):
        for n in range(2, MAX_CUTOFF + 2):
            for deform in (0.0, 3.7 * math.pi, -1e150):
                got, want = _grad_1d(n, deform), grad_oracle(n, deform)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, deform)

    def test_band_above_the_table_refused(self):
        with pytest.raises(ValueError, match=f"band limit must be at most {MAX_CUTOFF + 1}"):
            _grad_1d(MAX_CUTOFF + 2, 1.0)
        with pytest.raises(ValueError, match=f"band limit must be at most {MAX_CUTOFF + 1}"):
            d_c_matrix(0, MAX_CUTOFF + 2, 1.0)

    def test_second_quasimode_at_a_band_builds_no_table(self, monkeypatch):
        built = []
        for name in ("_band_tables", "_quasimode_basis"):
            counted_cache(monkeypatch, name, built)
        quasimode(SpectralProblem(20.0, 14, 1), "q1", 1)
        assert sorted(built) == [("_band_tables",), ("_quasimode_basis", 14)]
        built.clear()
        for degree, modes in QUASIMODES.items():
            for point, kind in modes:
                quasimode(SpectralProblem(20.0 + degree, 14, degree), point, kind)
        assert built == []

    def test_quasimode_grid_raises_on_write(self):
        tables = spectral._quasimode_grid(7, "q1")
        assert len(tables) == 5
        for table in tables:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0

    def test_quasimode_grid_cache_bound(self):
        # every point at one band limit, as the module docstring states
        assert spectral._quasimode_grid.cache_info().maxsize == len(spectral.CRITICAL_POINTS)
        build = spectral._quasimode_grid.__wrapped__  # uncached: the big grids are dropped
        sizes = [sum(table.nbytes for table in build(MAX_CUTOFF, point)) for point in spectral.CRITICAL_POINTS]
        assert build(MAX_CUTOFF, "q12")[-1].nbytes == 2 * 2**20  # the bump
        assert sum(sizes) <= 8.1 * 2**20

    def test_second_t_at_a_band_builds_no_grid(self, monkeypatch):
        built = []
        counted_cache(monkeypatch, "_quasimode_grid", built)
        for t in (20.0, 21.0):
            for degree, modes in QUASIMODES.items():
                for point, kind in modes:
                    quasimode(SpectralProblem(t, 14, degree), point, kind)
        assert sorted(built) == sorted(("_quasimode_grid", 14, point) for point in spectral.CRITICAL_POINTS)


# the values before the tables were cached (quasimodes at t = 20, N = 14, and
# `spectral --t 10 --cutoff 10 --emit -`), reproduced to 1e-12 relative
PINNED_RAYLEIGH = {
    (0, "q0", 1): 0.00015821404879414833,
    (1, "q0", 2): 0.00039818312306469036,
    (1, "q1", 1): 0.00015821404879461884,
    (1, "q2", 1): 0.00015821404879459412,
    (2, "q1", 2): 0.00015821404879461882,
    (2, "q2", 2): 0.00015821404879459415,
    (2, "q12", 1): 0.0003981831230656476,
    (3, "q12", 2): 0.00015821404879507334,
}
PINNED_SPECTRUM = {
    0: [7.669044306547984e-06, 373.12928418171253, 373.12928418171253, 373.129337297254],
    1: [7.668997826597948e-06, 7.668997826597948e-06, 7.789295837428176e-06, 354.3461002244759],
    2: [7.66899782659795e-06, 7.66899782659795e-06, 7.789295837428174e-06, 354.34610022447606],
    3: [7.669044306547984e-06, 373.12928418171253, 373.12928418171253, 373.129337297254],
}

# `spectral --t 40 --degrees 1 --emit -` (N = 19, the benchmark's operation)
# before sectors (0, 0) and (1, 1) were folded, reproduced to 1e-12 relative
PINNED_T40 = {1: [7.025986573161574e-05, 7.025986573161574e-05, 7.059590298241356e-05, 1520.023812438926]}


class TestPinnedResults:
    def test_quasimode_rayleigh_quotients(self):
        for (degree, point, kind), pinned in PINNED_RAYLEIGH.items():
            rayleigh = quasimode(SpectralProblem(20.0, 14, degree), point, kind).rayleigh
            assert abs(rayleigh - pinned) <= 1e-12 * pinned, (degree, point, kind)

    def test_emitted_spectrum(self, capsys):
        assert cli.main(["spectral", "--t", "10", "--cutoff", "10", "--emit", "-"]) == 0
        emitted = capsys.readouterr().out.split("degree,index,eigenvalue\n")[1]
        pinned_rows = [
            f"{k},{i},{val:.9e}"
            for k, vals in PINNED_SPECTRUM.items()
            for i, val in enumerate(vals)
        ]
        assert emitted.splitlines() == pinned_rows
        reports = spectral_reports(10.0, 10)
        for k, pinned in PINNED_SPECTRUM.items():
            err = np.abs(reports[k].eigenvalues - pinned)
            assert np.all(err <= 1e-12 * np.array(pinned)), k

    def test_emitted_benchmark_spectrum(self, capsys):
        assert cli.main(["spectral", "--t", "40", "--degrees", "1", "--emit", "-"]) == 0
        emitted = capsys.readouterr().out.split("degree,index,eigenvalue\n")[1]
        assert emitted.splitlines() == [f"1,{i},{val:.9e}" for i, val in enumerate(PINNED_T40[1])]
        vals = spectral_reports(40.0, degrees=(1,))[1].eigenvalues
        assert np.all(np.abs(vals - PINNED_T40[1]) <= 1e-12 * np.array(PINNED_T40[1]))


LOADS_SCIPY_SPARSE = """
import json, os, sys
from conemorse import cli, families, spectral

path = os.path.join(sys.argv[1], "t4.json")
with open(path, "w") as fh:
    fh.write(cli.emit_datum(families.torus(2)))
code = cli.main(["analyze", path, "--format", "json"])
after_analyze = "scipy.sparse" in sys.modules
spectral.quasimode(spectral.SpectralProblem(20.0, 12, 1), "q1", 1)
print(json.dumps([code, after_analyze, "scipy.sparse" in sys.modules]))
"""


def fresh_process(script, *argv):
    """Run `script` in a new interpreter on this source tree; its last stdout line, as JSON."""
    src = str(Path(conemorse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_side_and_quasimodes_leave_scipy_sparse_unloaded(tmp_path):
    # scipy.sparse costs about 3.5 MB of resident memory; only the eigensolve
    # and the assembled form need it
    code, after_analyze, after_quasimode = fresh_process(LOADS_SCIPY_SPARSE, str(tmp_path))
    assert code == 0
    assert not after_analyze
    assert not after_quasimode


DEGREES_0_3 = """
import json, sys
from conemorse import cli

code = cli.main(["spectral", "--t", "10", "--cutoff", "10", "--degrees", "0,3"])
print(json.dumps([code, "scipy.sparse" in sys.modules]))
"""


def test_degrees_0_and_3_leave_scipy_sparse_unloaded():
    code, loaded = fresh_process(DEGREES_0_3)
    assert code == 0
    assert not loaded


EXACT_COMMANDS = """
import json, os, sys
from conemorse import cli

path = os.path.join(sys.argv[1], "t4.json")
codes = [cli.main(["example", "torus", "--n", "2", "-o", path, "--quiet"])]
codes += [cli.main([command, path]) for command in ("validate", "analyze", "cone")]
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    # no exact step uses numpy, and its import costs more than a T^10 analyze
    codes, loaded = fresh_process(EXACT_COMMANDS, str(tmp_path))
    assert codes == [0, 0, 0, 0]
    assert not loaded


def test_spectral_names_load_through_the_package():
    from conemorse import low_spectrum as lazy

    assert lazy is low_spectrum and conemorse.SpectralProblem is SpectralProblem
    with pytest.raises(AttributeError):
        conemorse.no_such_name


class TestClusters:
    def test_counts_match_critical_point_sums(self, cached_low_spectrum):
        # m = (1, 2, 1) on the torus: cone degree k holds m_k + m_{k-1}
        counts = low_counts(10, 10)
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
        assert low_counts(8, 8) == low_counts(8, 10)

    def test_adequacy_error_when_unresolvable(self):
        with pytest.raises(AdequacyError) as info:
            low_counts(80, 6)
        assert info.value.suggested_cutoff >= suggested_cutoff(80)

    def test_duality(self, cached_low_spectrum):
        # degree k for f against degree 3-k for -f, matched low clusters
        for k in range(4):
            direct = cached_low_spectrum(10.0, 9, k, 6)
            mirrored = cached_low_spectrum(10.0, 9, 3 - k, 6, -1.0)
            assert np.all(np.abs(direct - mirrored) <= 1e-10 * np.maximum(1.0, np.abs(mirrored)))

    def test_one_solve_per_dual_pair(self, monkeypatch):
        solved = []
        monkeypatch.setattr(
            spectral, "low_spectrum",
            lambda prob, count: solved.append(prob.degree) or low_spectrum(prob, count),
        )
        reports = spectral_reports(10, 10, degrees=(0, 1, 2, 3))
        assert [rep.low_count for rep in reports.values()] == [1, 3, 3, 1]
        assert solved == [0, 1]
        assert [reports[k].degree for k in range(4)] == [0, 1, 2, 3]
        assert np.array_equal(reports[3].eigenvalues, reports[0].eigenvalues)
        # a lone degree is solved as itself
        solved.clear()
        assert low_counts(10, 10, degrees=(3,)) == [1]
        assert solved == [3]

    def test_inadequate_lone_partner_is_named(self):
        with pytest.raises(AdequacyError, match="at degree 3 "):
            low_counts(80, 6, degrees=(3,))

    def test_suggested_cutoff_above_cap_builds_nothing(self, monkeypatch):
        def fail(cutoff, deform):
            raise AssertionError(f"a band-{cutoff} operator was built")

        monkeypatch.setattr(spectral, "_grad_1d", fail)
        with pytest.raises(ValueError, match=f"t = 1e\\+06 needs a cutoff above the cap {MAX_CUTOFF}"):
            spectral_reports(1e6)

    def test_repeated_degree_refused_before_any_solve(self, monkeypatch):
        def fail(prob, count):
            raise AssertionError(f"degree {prob.degree} was solved")

        monkeypatch.setattr(spectral, "low_spectrum", fail)
        for solve in (
            lambda: spectral_reports(10, 10, degrees=(0, 1, 1)),
            lambda: low_counts(10, 10, degrees=(3, 3)),
            lambda: gap_growth([2, 3, 4], 6, degrees=(2, 2)),
        ):
            with pytest.raises(ValueError, match="repeat a degree"):
                solve()

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
        result = gap_growth([6.0, 6.0, 6.0], 8, degrees=(1,))[1]
        assert result.degenerate and result.slope == 0.0

    def test_small_ramp_has_positive_slope(self):
        result = gap_growth([5.0, 7.0, 9.0], 9, degrees=(1,))[1]
        assert not result.degenerate
        assert result.slope > 0
        assert result.gaps[-1] > result.gaps[0]

    def test_one_solve_per_dual_pair_and_t(self, monkeypatch):
        solved = []
        monkeypatch.setattr(
            spectral, "low_spectrum",
            lambda prob, count: solved.append((prob.t, prob.degree)) or low_spectrum(prob, count),
        )
        fits = gap_growth([2, 3, 4], 6, degrees=(0, 1, 2, 3))
        assert solved == [(t, k) for t in (2.0, 3.0, 4.0) for k in (0, 1)]
        assert list(fits) == [0, 1, 2, 3]
        for k in (0, 1):
            assert fits[3 - k].gaps == fits[k].gaps and fits[3 - k].slope == fits[k].slope
            assert fits[k].t_values == [2.0, 3.0, 4.0] and fits[k].cutoffs == [6, 6, 6]

    def test_cutoffs_settled_before_any_solve(self, monkeypatch):
        fit = gap_growth([2, 3, 4], degrees=(0,))[0]
        assert fit.cutoffs == [suggested_cutoff(t) for t in (2, 3, 4)]

        def fail(prob, count):
            raise AssertionError(f"t = {prob.t} was solved")

        monkeypatch.setattr(spectral, "low_spectrum", fail)
        with pytest.raises(ValueError, match=f"t = 1e\\+06 needs a cutoff above the cap {MAX_CUTOFF}"):
            gap_growth([2, 1e6, 3])

    @pytest.mark.parametrize(
        "ts, cutoff, match",
        [
            ([30, 40, float("nan")], 40, "must be finite"),
            ([2, 3, -4], 6, "t must be positive, got -4.0"),
            ([2, 3, -4], None, "t must be positive, got -4.0"),
        ],
        ids=["nan-given-cutoff", "negative-given-cutoff", "negative-suggested-cutoff"],
    )
    def test_every_problem_checked_before_any_solve(self, monkeypatch, ts, cutoff, match):
        solved = []
        monkeypatch.setattr(spectral, "low_spectrum", lambda prob, count: solved.append(prob.t))
        with pytest.raises(ValueError, match=match):
            gap_growth(ts, cutoff, degrees=(1,))
        assert solved == []

    @pytest.mark.parametrize("ts", [[True, 2.0, 3.0], ["2", 3.0, 4.0]], ids=["bool", "str"])
    @pytest.mark.parametrize("cutoff", [6, None], ids=["given-cutoff", "suggested-cutoff"])
    def test_every_t_must_be_a_real_number(self, monkeypatch, ts, cutoff):
        # float(True) is 1.0 and float("2") is 2.0: each is refused, as
        # spectral_reports refuses it, before it is taken as a float
        solved = []
        monkeypatch.setattr(spectral, "low_spectrum", lambda prob, count: solved.append(prob.t))
        with pytest.raises(ValueError, match=f"t must be a real number, got {ts[0]!r}"):
            spectral_reports(ts[0], cutoff, degrees=(1,))
        with pytest.raises(ValueError, match=f"t must be a real number, got {ts[0]!r}"):
            gap_growth(ts, cutoff, degrees=(1,))
        assert solved == []

    def test_csv_formats(self):
        result = gap_growth([5.0, 7.0, 9.0], 9, degrees=(1,))[1]
        csv_text = gap_growth_to_csv(result)
        assert csv_text.splitlines()[0] == "t,gap"
        assert csv_text.splitlines()[1:] == [
            f"{t:.9e},{g:.9e}" for t, g in zip([5.0, 7.0, 9.0], result.gaps)
        ]
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

    def test_non_finite_deformation_never_rated(self):
        with pytest.raises(ValueError, match="finite"):
            quasimode(SpectralProblem(math.nan, 12, 1), "q1", 1)

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


def reference_quasimode(prob, point, kind):
    """Oracle: a quasimode built on 2D fields, its coefficients and assembled Rayleigh quotient.

    The 2D cos and exp profile, the bump's two ramps over the whole grid, a
    basis built row by row and one projection per component; the quotient is
    |d_C v|^2 + |d_C* v|^2 with each map building its own 1D factor.
    """

    def ramp(u):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)

    def basis_values(cutoff, grid):
        rows = [np.ones_like(grid)]
        for m in range(1, cutoff + 1):
            rows.append(math.sqrt(2.0) * np.cos(2.0 * math.pi * m * grid))
            rows.append(math.sqrt(2.0) * np.sin(2.0 * math.pi * m * grid))
        return np.stack(rows)

    px, py = spectral.CRITICAL_POINTS[point]
    descending = (px == 0.5, py == 0.5)
    index = sum(descending)
    npts = 4 * prob.cutoff
    grid = np.arange(npts) / npts
    xs = ((grid - px + 0.5) % 1.0) - 0.5
    ys = ((grid - py + 0.5) % 1.0) - 0.5
    x1 = xs[:, None] * np.ones_like(ys)[None, :]
    x2 = np.ones_like(xs)[:, None] * ys[None, :]
    u = (0.25 - np.sqrt(x1**2 + x2**2)) / 0.05
    bump = ramp(u) / (ramp(u) + ramp(1.0 - u))
    climb = 1.0 - 0.5 * np.cos(2.0 * math.pi * x1) - 0.5 * np.cos(2.0 * math.pi * x2)
    gauss = bump * np.exp(-prob.t * prob.morse_scale * climb)
    zero = np.zeros_like(gauss)
    components = {
        (1, 0): [gauss],
        (2, 0): [0.5 * x2 * gauss, -0.5 * x1 * gauss, gauss],
        (1, 1): [gauss, zero, zero] if descending[0] else [zero, gauss, zero],
        (2, 1): [zero, gauss, zero] if descending[0] else [zero, zero, gauss],
        (1, 2): [gauss, -0.5 * x1 * gauss, -0.5 * x2 * gauss],
        (2, 2): [gauss],
    }[kind, index]
    basis = basis_values(prob.cutoff, grid)
    vec = np.concatenate([(basis @ c @ basis.T / npts**2).reshape(-1) for c in components])
    vec /= np.linalg.norm(vec)
    grids = vec.reshape(-1, basis_size(prob.cutoff), basis_size(prob.cutoff))
    return vec, sum(np.sum(_apply(*op, grids) ** 2) for op in oracle_maps(prob))


def oracle_maps(prob):
    """d_C, and d_C* above degree 0, each on its own G from the per-band oracle factors."""
    deform = prob.t * prob.morse_scale * math.pi
    maps = [_differential(prob.degree, grad_oracle(prob.cutoff, deform))]
    if prob.degree:
        maps.append(_adjoint(prob.degree, grad_oracle(prob.cutoff + 1, deform)))
    return maps


def signed_apply(blocks, grad, out_components, grids):
    """Oracle: the block apply on one form, each block added as sign * (its product)."""
    size, inner = grad.shape[0], grids.shape[-1]
    out = np.zeros((out_components, size, size))
    for o, i, sign, kind in blocks:
        if kind == "x":
            out[o, :, :inner] += sign * (grad @ grids[i])
        elif kind == "y":
            out[o, :inner, :] += sign * (grids[i] @ grad.T)
        else:
            out[o, :inner, :inner] += sign * grids[i]
    return out


def uncached_quasimode(prob, point, kind):
    """Oracle: a quasimode with its whole grid built at the call and every component projected.

    The construction before the grid table: displacements, cosines and bump
    on every call, zero components projected too, signed_apply, and G built
    from the per-band oracle factors.
    """
    px, py = spectral.CRITICAL_POINTS[point]
    descending = (px == 0.5, py == 0.5)
    index = int(descending[0]) + int(descending[1])
    npts = 4 * prob.cutoff
    grid = np.arange(npts) / npts
    xs = ((grid - px + 0.5) % 1.0) - 0.5
    ys = ((grid - py + 0.5) % 1.0) - 0.5
    x1, x2 = xs[:, None], ys[None, :]
    ta = prob.t * prob.morse_scale
    gx, gy = (np.exp(-ta * (0.5 - 0.5 * np.cos(2.0 * math.pi * d))) for d in (xs, ys))
    gauss = spectral._bump(np.sqrt(x1**2 + x2**2)) * np.outer(gx, gy)
    zero = np.zeros_like(gauss)
    components = {
        (1, 0): [gauss],
        (2, 0): [0.5 * x2 * gauss, -0.5 * x1 * gauss, gauss],
        (1, 1): [gauss, zero, zero] if descending[0] else [zero, gauss, zero],
        (2, 1): [zero, gauss, zero] if descending[0] else [zero, zero, gauss],
        (1, 2): [gauss, -0.5 * x1 * gauss, -0.5 * x2 * gauss],
        (2, 2): [gauss],
    }[kind, index]
    basis = spectral._basis_values_1d(prob.cutoff, grid)
    vec = (basis @ np.array(components) @ basis.T / npts**2).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    size = basis_size(prob.cutoff)
    grids = vec.reshape(-1, size, size)
    return vec, float(sum(np.sum(signed_apply(*op, grids) ** 2) for op in oracle_maps(prob)))


class TestQuasimodeTables:
    """The grid table, the nonzero-only projection and the sign-free, stackable apply change no bit."""

    @pytest.mark.parametrize(
        "t, cutoff, a",
        # N = 2 and N = MAX_CUTOFF, where d_C* reads the last band of the table
        [(20.0, 14, 1.0), (3.0, 6, 0.5), (40.0, 19, 1.0), (7.3, 5, 2.0), (20.0, 2, 1.0), (20.0, MAX_CUTOFF, 1.0)],
    )
    def test_equals_uncached_construction_bitwise(self, t, cutoff, a):
        for degree, modes in QUASIMODES.items():
            prob = SpectralProblem(t, cutoff, degree, a)
            for point, kind in modes:
                mode = quasimode(prob, point, kind)
                coeffs, rayleigh = uncached_quasimode(prob, point, kind)
                assert mode.coefficients.tobytes() == coeffs.tobytes(), (point, kind)
                assert mode.rayleigh == rayleigh, (point, kind)

    @pytest.mark.parametrize("stack", [(4,), (2, 3)], ids=["one-axis", "two-axes"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_stacked_apply_equals_per_form_calls_bitwise(self, degree, stack):
        n, deform = 6, 5.1 * math.pi
        size = basis_size(n)
        grids = np.random.default_rng(degree).standard_normal(stack + (COMPONENTS[degree], size, size))
        ops = [_differential(degree, _grad_1d(n, deform))]
        if degree:
            ops.append(_adjoint(degree, _grad_1d(n + 1, deform)))
        for op in ops:
            stacked = _apply(*op, grids)
            assert stacked.shape == stack + (op[2], size + 2, size + 2)
            for at in np.ndindex(*stack):
                one = _apply(*op, grids[at])
                assert stacked[at].tobytes() == one.tobytes(), at
                assert one.tobytes() == signed_apply(*op, grids[at]).tobytes(), at

    @pytest.mark.parametrize("t", [40.0, 10.0])
    def test_cluster_values_equal_per_vector_oracle(self, t):
        prob = SpectralProblem(t, suggested_cutoff(t), 1)
        form, ops = assemble_quadratic_form(prob), spectral._operators(prob)
        size = basis_size(prob.cutoff)
        known = 0
        for sector, weight in SECTORS:
            idx = _sector_indices(1, prob.cutoff, sector)
            _, vecs, below = _sector_spectrum(form[idx][:, idx], weight, REPORT_COUNT - known)
            known += weight * below
            # the cluster vectors low_spectrum passes, and every returned vector: a stack of several
            for count in sorted({below, vecs.shape[1]} - {0}):
                grids = np.zeros((count, matrix_size(1, prob.cutoff)))
                grids[:, idx] = vecs[:, :count].T
                images = np.array([
                    np.concatenate([signed_apply(*op, g.reshape(-1, size, size)).ravel() for op in ops])
                    for g in grids
                ])
                want = np.minimum(np.sort(np.linalg.svd(images, compute_uv=False) ** 2), LOW_THRESHOLD)
                got = spectral._cluster_values(prob, ops, idx, vecs[:, :count])
                assert got.tobytes() == want.tobytes(), (sector, count)
        assert known == 3  # m_1 + m_0 on the torus


class TestQuasimodeConstruction:
    """Per-axis tables build the same quasimodes as 2D fields, from one 1D factor build."""

    @pytest.mark.parametrize("t, cutoff", [(20.0, 14), (10.0, 8), (40.0, 19)])
    def test_matches_2d_reference(self, t, cutoff):
        for degree, modes in QUASIMODES.items():
            prob = SpectralProblem(t, cutoff, degree)
            for point, kind in modes:
                mode = quasimode(prob, point, kind)
                coeffs, rayleigh = reference_quasimode(prob, point, kind)
                err = np.abs(mode.coefficients - coeffs).max()
                assert err <= 1e-10 * np.abs(coeffs).max(), (point, kind)
                assert abs(mode.rayleigh - rayleigh) <= 1e-10 * rayleigh, (point, kind)

    @pytest.mark.parametrize("cutoff", [2, 14, 127])
    def test_band_n_factors_are_blocks_of_band_n_plus_1(self, cutoff):
        rows, cols = basis_size(cutoff + 1), basis_size(cutoff)
        for deform in (0.0, 3.7 * math.pi):
            above, grad = _grad_1d(cutoff + 1, deform), _grad_1d(cutoff, deform)
            assert above[:rows, :cols].tobytes() == grad.tobytes()

    def test_one_factor_build_per_quasimode(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            spectral, "_grad_1d", lambda cutoff, deform: built.append(cutoff) or _grad_1d(cutoff, deform)
        )
        for degree, modes in QUASIMODES.items():
            for point, kind in modes:
                built.clear()
                quasimode(SpectralProblem(20.0, 14, degree), point, kind)
                assert built == [15], (point, kind)


class TestSolver:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_dense_oracle(self, degree):
        prob = SpectralProblem(8.0, 6, degree)
        vals = low_spectrum(prob, 8)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())[:8]
        assert np.abs(vals - dense).max() <= 1e-9 * max(1.0, dense[-1])

    def test_count_near_size_uses_dense_branch(self, monkeypatch):
        # a threshold above the whole spectrum puts every eigenvalue of every
        # sector below it, which leaves ARPACK no room: each sector is solved
        # densely, and the cluster fills the report
        import scipy.sparse.linalg

        def unused(*args, **kwargs):
            raise AssertionError("ARPACK was called")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unused)
        monkeypatch.setattr(spectral, "LOW_THRESHOLD", 1e9)
        prob = SpectralProblem(1.0, 2, 1)
        rep = spectral_report(prob)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())
        assert len(rep.eigenvalues) == REPORT_COUNT
        assert np.abs(rep.eigenvalues - dense[:REPORT_COUNT]).max() <= 1e-9 * max(1.0, dense[-1])
        assert rep.low_count == REPORT_COUNT
        assert rep.gap == math.inf and rep.cluster_ratio == 0.0

    @pytest.mark.parametrize("degree, size", [(1, 75), (3, 25)])
    def test_more_values_than_unknowns_rejected(self, monkeypatch, degree, size):
        prob = SpectralProblem(2.0, 2, degree)
        assert len(low_spectrum(prob, size)) == size

        def work(*args):
            raise AssertionError("a count out of range reached the solve")

        # every path starts from the 1D factor G; a bad count is refused before it
        monkeypatch.setattr(spectral, "_grad_1d", work)
        for bad in (size + 1, 0, -1, 2.5, True):
            with pytest.raises(ValueError, match=f"{bad!r} eigenvalues of a {size}-dim form"):
                low_spectrum(prob, bad)

    def test_repeated_solves_are_bitwise_identical(self):
        prob = SpectralProblem(20.0, 10, 1)
        first = low_spectrum(prob, 6)
        for _ in range(3):
            assert np.array_equal(low_spectrum(prob, 6), first)


# the whole-form oracle's shift-invert target: strictly below the spectrum of
# the positive semidefinite form, so the eigenvalues nearest it are the lowest
SHIFT = -1e-3


def whole_form_spectrum(prob, count):
    """Oracle: shift-invert Lanczos on the whole assembled form, no sectors.

    Lanczos from one start vector may return a multiple eigenvalue too few
    times; with these factorization options it does not on the tested forms.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    form = assemble_quadratic_form(prob)
    size = form.shape[0]
    factor = splu(
        (form - SHIFT * sp.identity(size, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    vals = eigsh(
        form,
        k=count,
        sigma=SHIFT,
        v0=np.random.default_rng(0).standard_normal(size),
        OPinv=LinearOperator((size, size), matvec=factor.solve, dtype=form.dtype),
        return_eigenvectors=False,
    )
    return np.sort(vals)


# the swap s(x, y) = (y, x) as (eta, xi) -> (s* eta, -s* xi) on each cone
# degree's components: (source component, sign) per target component.  On
# coefficient grids s* transposes; it swaps dx and dy and negates dx^dy.
MIRROR = (
    ((0, 1),),
    ((1, 1), (0, 1), (2, -1)),
    ((0, -1), (2, -1), (1, -1)),
    ((0, 1),),
)


def mirror_map(degree, cutoff):
    """The mirror as a signed permutation: it sends unit vector j to sign[j] * e_dest[j]."""
    size = basis_size(cutoff)
    cells = size * size
    grid = np.arange(cells).reshape(size, size)
    dest = np.empty(matrix_size(degree, cutoff), dtype=int)
    sign = np.empty(matrix_size(degree, cutoff))
    for target, (source, factor) in enumerate(MIRROR[degree]):
        dest[source * cells + grid.T.ravel()] = target * cells + grid.ravel()
        sign[source * cells + grid.T.ravel()] = factor
    return dest, sign


def translation_signs(degree, cutoff):
    """Translation by (1/2, 1/2) on the unknowns: (-1)^(m_x + m_y) at frequency (m_x, m_y)."""
    freq = (np.arange(basis_size(cutoff)) + 1) // 2  # 1, cos_m, sin_m -> 0, m, m
    grid = (-1.0) ** (freq[:, None] + freq[None, :])
    return np.tile(grid.ravel(), COMPONENTS[degree])


# the duality from cone degree 3 - k onto degree k, translation composed with
# the cone Hodge star: (component of degree 3 - k, sign) per component of
# degree k.  [u] <-> [V]; (P, Q, u) <-> (T, -S, -R).
DUAL = (
    ((0, 1),),
    ((2, 1), (1, -1), (0, -1)),
    ((2, -1), (1, -1), (0, 1)),
    ((0, 1),),
)


def dual_map(degree, cutoff):
    """Unit vector j of degree k goes to sign[j] * e_dest[j] of degree 3 - k."""
    cells = basis_size(cutoff) ** 2
    dest = np.concatenate([source * cells + np.arange(cells) for source, _ in DUAL[degree]])
    factors = np.repeat([factor for _, factor in DUAL[degree]], cells)
    return dest, factors * translation_signs(degree, cutoff)


def signed_image(form, dest, sign):
    """sign * form[dest, dest] * sign, kept sparse."""
    import scipy.sparse as sp

    scale = sp.diags(sign)
    return (scale @ form[dest][:, dest] @ scale).tocsr()


SYMMETRY_CASES = ((7.3, 5, 1.0), (3.0, 4, -0.3), (40.0, 10, 1.0))


class TestDualPairs:
    """Translation by (1/2, 1/2) negates a; with the cone Hodge star it maps degree 3 - k onto k."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_translation_negates_morse_scale_exactly(self, degree):
        for t, n, a in SYMMETRY_CASES:
            form = assemble_quadratic_form(SpectralProblem(t, n, degree, a))
            negated = assemble_quadratic_form(SpectralProblem(t, n, degree, -a))
            image = signed_image(form, np.arange(form.shape[0]), translation_signs(degree, n))
            assert (image != negated).nnz == 0

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_dual_degree_has_the_same_form(self, degree):
        assert DUAL_PAIR[degree] == DUAL_PAIR[3 - degree]
        for t, n, a in SYMMETRY_CASES:
            form = assemble_quadratic_form(SpectralProblem(t, n, degree, a))
            dual = assemble_quadratic_form(SpectralProblem(t, n, 3 - degree, a))
            dest, sign = dual_map(degree, n)
            assert np.array_equal(np.sort(dest), np.arange(dual.shape[0]))
            scale = abs(form).max()
            assert abs(signed_image(dual, dest, sign) - form).max() <= 1e-12 * scale

    @pytest.mark.parametrize("t, cutoff", [(10.0, 10), (80.0, 24)])
    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_dual_degree_gives_the_same_bits(self, t, cutoff, a):
        # on both sides of SCHUR_MAX_CUTOFF: each dual pair is solved once, so
        # degree 2 cannot differ from degree 1 in its last bits on SuperLU's side
        for degree in (2, 3):
            vals = low_spectrum(SpectralProblem(t, cutoff, degree, a), REPORT_COUNT)
            dual = low_spectrum(SpectralProblem(t, cutoff, 3 - degree, a), REPORT_COUNT)
            assert np.array_equal(vals, dual), degree


class TestSectors:
    """The form splits into four parity sectors; the mirror pairs (1, 0) with (0, 1)."""

    def test_offsets_follow_the_table(self):
        flips = {"x": (1, 0), "y": (0, 1), "w": (0, 0)}
        for degree, blocks in enumerate(DIFFERENTIAL):
            assert len(PARITY_OFFSETS[degree]) == COMPONENTS[degree]
            for out, inp, _, kind in blocks:
                ox, oy = PARITY_OFFSETS[degree][inp]
                fx, fy = flips[kind]
                assert PARITY_OFFSETS[degree + 1][out] == (ox ^ fx, oy ^ fy)

    @pytest.mark.parametrize("cutoff", [2, 3, 7])
    def test_sectors_partition_the_unknowns(self, cutoff):
        for degree in range(4):
            parts = [_sector_indices(degree, cutoff, (a, b)) for a in (0, 1) for b in (0, 1)]
            joined = np.sort(np.concatenate(parts))
            assert np.array_equal(joined, np.arange(matrix_size(degree, cutoff)))
            assert len(parts[1]) == len(parts[2])  # (0, 1) and its mirror (1, 0)
            solved = [w * len(_sector_indices(degree, cutoff, s)) for s, w in SECTORS]
            assert sum(solved) == len(joined)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_no_entries_between_sectors(self, degree):
        for t, n, a in ((7.3, 5, 1.0), (2.0, 6, -0.3)):
            form = assemble_quadratic_form(SpectralProblem(t, n, degree, a)).tocoo()
            label = np.empty(form.shape[0], dtype=int)
            for number, (x, y) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                label[_sector_indices(degree, n, (x, y))] = number
            assert form.nnz > 0
            assert np.array_equal(label[form.row], label[form.col])

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_mirror_maps_sector_10_onto_01(self, degree):
        for t, n, a in ((7.3, 5, 1.0), (3.0, 4, -0.3)):
            form = assemble_quadratic_form(SpectralProblem(t, n, degree, a)).toarray()
            dest, sign = mirror_map(degree, n)
            source = _sector_indices(degree, n, (1, 0))
            target = dest[source]
            assert np.array_equal(np.sort(target), _sector_indices(degree, n, (0, 1)))
            image = sign[source, None] * form[np.ix_(target, target)] * sign[None, source]
            scale = np.abs(form).max()
            assert np.abs(image - form[np.ix_(source, source)]).max() <= 1e-12 * scale
            # the whole form commutes with the mirror, not just this block
            whole = sign[:, None] * form[np.ix_(dest, dest)] * sign[None, :]
            assert np.abs(whole - form).max() <= 1e-12 * scale

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_every_multiple_eigenvalue_found(self, degree):
        # a single-start Lanczos solve of the whole form returned 65.035... three
        # times at degree 1 where the form holds it four times
        prob = SpectralProblem(2.0, 9, degree)
        vals = low_spectrum(prob, 12)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())[:12]
        assert np.all(np.abs(vals - dense) <= 1e-9 * np.maximum(1.0, dense))
        if degree == 1:
            assert np.sum(np.abs(vals - 65.035379) < 1e-5) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_dense_oracle_on_small_forms(self, n):
        for t, a, degree in itertools.product((0.5, 2.0, 10.0), (1.0, -1.0, 0.3), range(4)):
            prob = SpectralProblem(t, n, degree, a)
            dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())
            size = len(dense)
            for count in (1, 2, 12, size - 1, size):
                vals = low_spectrum(prob, count)
                assert len(vals) == count
                err = np.abs(vals - dense[:count]).max()
                assert err <= 1e-9 * max(1.0, dense[count - 1]), (t, a, degree, count)

    @pytest.mark.parametrize("t", [2.0, 10.0, 20.0, 40.0, 80.0])
    def test_matches_whole_form_solve(self, t):
        for degree in range(4):
            prob = SpectralProblem(t, suggested_cutoff(t), degree)
            vals = low_spectrum(prob, 12)
            oracle = whole_form_spectrum(prob, 12)
            assert np.all(np.abs(vals - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle)))

    def test_factorization_failure_is_a_solver_error(self, monkeypatch):
        import scipy.sparse.linalg

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        superlu_path(monkeypatch)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        with pytest.raises(SolverError, match="exactly singular"):
            low_spectrum(SpectralProblem(10.0, 10, 1), 12)


def superlu_path(monkeypatch):
    """Put every band limit above the crossover, so degrees 1 and 2 factor with SuperLU."""
    monkeypatch.setattr(spectral, "SCHUR_MAX_CUTOFF", 1)


def sector_blocks(prob):
    """(block, weight) of each solved parity sector of the assembled form."""
    form = assemble_quadratic_form(prob)
    for sector, weight in SECTORS:
        idx = _sector_indices(prob.degree, prob.cutoff, sector)
        yield form[idx][:, idx], weight


def patched_eigsh(monkeypatch, edit):
    """Route ARPACK's pairs through edit(ascending values, their vectors) before the program sees them."""
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh

    def patched(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        order = np.argsort(vals)
        return edit(vals[order], vecs[:, order])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", patched)


def kronecker_sectors(prob):
    """(sector operator, weight) of each solved sector of the degree-1 structure at prob's t, N and a."""
    prob = SpectralProblem(prob.t, prob.cutoff, 1, prob.morse_scale)
    factors = spectral._parity_factors(spectral._operators(prob), prob.cutoff)
    for sector, weight in SECTORS:
        yield spectral._KroneckerSector(factors, sector), weight


def separating_shifts(values):
    """The threshold, and the midpoints between the lowest 16 values where they are well separated."""
    low = values[:16]
    split = np.flatnonzero(np.diff(low) > 1e-6 * np.maximum(1.0, low[1:]))
    return (LOW_THRESHOLD, *((low[split] + low[split + 1]) / 2))


def record_factors(monkeypatch):
    """(shift, inertia) of every sector factorization low_spectrum makes, in order."""
    factor = spectral._factor
    factored = []

    def recorded(block, shift):
        result = factor(block, shift)
        factored.append((shift, result[1]))
        return result

    monkeypatch.setattr(spectral, "_factor", recorded)
    return factored


class TestInertia:
    """Each sector's cluster count is the inertia of its one factorization, and Lanczos must agree."""

    # (t, N, a): the fourfold 65.035 at degree 1, and t * a = 0.003 and 0.15,
    # where a tunnelling value sits at 0.99999 and 0.977, just under the threshold
    @pytest.mark.parametrize("t, cutoff, a", [(2.0, 9, 1.0), (1.0, 7, 0.003), (1.0, 7, 0.15)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_counts_equal_dense_counts(self, t, cutoff, a, degree):
        for block, _ in sector_blocks(SpectralProblem(t, cutoff, degree, a)):
            dense = np.linalg.eigvalsh(block.toarray())
            for shift in separating_shifts(dense):
                assert _factor(block, shift)[1] == np.count_nonzero(dense < shift), shift

    def test_fourfold_eigenvalue_counted_four_times(self):
        blocks = sector_blocks(SpectralProblem(2.0, 9, 1))
        assert sum(w * (_factor(b, 65.04)[1] - _factor(b, 65.03)[1]) for b, w in blocks) == 4

    def test_lanczos_missing_a_low_value_is_a_solver_error(self, monkeypatch, capsys):
        def drop_one_low(vals, vecs):
            low = np.flatnonzero(vals <= LOW_THRESHOLD)
            return np.delete(vals, low[:1]), np.delete(vecs, low[:1], axis=1)

        patched_eigsh(monkeypatch, drop_one_low)
        with pytest.raises(SolverError, match="inertia counts"):
            low_spectrum(SpectralProblem(10.0, 10, 1), 4)
        assert cli.main(["spectral", "--t", "10", "--cutoff", "10", "--degrees", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spectral solve failed: eigensolver found ")

    def test_arpack_failure_is_a_solver_error(self, monkeypatch, capsys):
        import scipy.sparse.linalg

        def failed(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failed)
        assert cli.main(["spectral", "--t", "10", "--cutoff", "10", "--degrees", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spectral solve failed: eigensolver failed: ARPACK error -9999")

    def test_value_at_the_threshold_is_low(self, monkeypatch):
        def top_low_to_threshold(vals, vecs):
            low = np.flatnonzero(vals <= LOW_THRESHOLD)
            vals[low[-1:]] = LOW_THRESHOLD
            # a vector whose Rayleigh quotient is far above the threshold: the
            # value taken from it stays at the threshold the inertia allows
            rng = np.random.default_rng(1)
            vecs[:, low[-1:]] = rng.standard_normal((vecs.shape[0], 1)) / math.sqrt(vecs.shape[0])
            return vals, vecs

        patched_eigsh(monkeypatch, top_low_to_threshold)
        rep = spectral_report(SpectralProblem(10.0, 10, 1))
        assert rep.low_count == 3 and rep.eigenvalues[2] == LOW_THRESHOLD
        assert rep.cluster_ratio == rep.gap > 100

    @pytest.mark.parametrize("t", [2, 10, 40])
    def test_no_emitted_value_is_negative(self, capsys, t):
        # cluster values of degrees 1 and 2 are squared singular values of
        # [d_C; d_C*] on their Ritz vectors: at t = 2 shift-invert Lanczos
        # alone gave -5.3e-15 for a value near 5.3e-16
        assert cli.main(["spectral", "--t", str(t), "--emit", "-"]) == 0
        rows = capsys.readouterr().out.splitlines()
        table = rows[rows.index("degree,index,eigenvalue") + 1 :]
        values = [float(row.split(",")[2]) for row in table]
        assert len(values) == 4 * REPORT_COUNT and min(values) >= 0.0

    def test_off_diagonal_pivots_are_a_solver_error(self, monkeypatch):
        import types

        import scipy.sparse.linalg

        splu = scipy.sparse.linalg.splu

        def pivoted(*args, **kwargs):
            factor = splu(*args, **kwargs)
            return types.SimpleNamespace(perm_r=np.roll(factor.perm_r, 1), perm_c=factor.perm_c)

        superlu_path(monkeypatch)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", pivoted)
        with pytest.raises(SolverError, match="pivoted off the diagonal"):
            low_spectrum(SpectralProblem(10.0, 10, 1), 4)

    def test_one_factorization_and_one_lanczos_solve_per_sector(self, monkeypatch):
        import scipy.sparse.linalg

        superlu_path(monkeypatch)
        calls = []
        for name in ("splu", "eigsh"):
            solve = getattr(scipy.sparse.linalg, name)
            monkeypatch.setattr(
                scipy.sparse.linalg, name,
                lambda *args, _solve=solve, _name=name, **kwargs: (
                    calls.append((_name, kwargs.get("k"))) or _solve(*args, **kwargs)
                ),
            )
        assert low_counts(10, 10) == [1, 3, 3, 1]
        # only the pair (1, 2) is solved sparse, one sector at a time: (0, 1)
        # (weight 2) and (1, 1) hold one cluster value each and the gap, so
        # the clusterless (0, 0) is settled by its inertia at the fourth value
        # found, one factorization and no Lanczos solve
        assert [name for name, _ in calls].count("splu") == 3
        assert [k for name, k in calls if name == "eigsh"] == [2, 2]
        # degrees 0 and 3 come from the 1D factor: no form, factor or Lanczos
        calls.clear()
        monkeypatch.setattr(
            spectral, "assemble_quadratic_form",
            lambda prob: calls.append(("assemble", None)) or assemble_quadratic_form(prob),
        )
        assert low_counts(10, 10, degrees=(0, 3)) == [1, 1]
        assert calls == []


class TestKroneckerSectors:
    """Up to the crossover a sector is factored through its 1D matrices: exact counts for K_P
    and K_Q, and Bunch-Kaufman on the Schur complement on u."""

    @pytest.mark.parametrize("t, cutoff, a", [(2.0, 9, 1.0), (1.0, 7, 0.003), (1.0, 7, 0.15)])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_counts_equal_dense_counts(self, t, cutoff, a, degree):
        # degree 2, (t, N, a) = (1, 7, 0.15), sector (1, 1) is where an LDL'
        # without pivoting in grid order counts 2 below the threshold, not 1
        prob = SpectralProblem(t, cutoff, degree, a)
        for (block, _), (sector, _) in zip(sector_blocks(prob), kronecker_sectors(prob)):
            dense = np.linalg.eigvalsh(block.toarray())
            for shift in separating_shifts(dense):
                assert _factor(sector, shift)[1] == np.count_nonzero(dense < shift), shift

    def test_fourfold_eigenvalue_counted_four_times(self):
        sectors = list(kronecker_sectors(SpectralProblem(2.0, 9, 1)))
        assert sum(w * (_factor(s, 65.04)[1] - _factor(s, 65.03)[1]) for s, w in sectors) == 4

    @pytest.mark.parametrize("t, cutoff, a", [(40.0, 19, 1.0), (1.0, 7, 0.15), (10.0, 10, -0.3), (3.0, 2, 1.0)])
    def test_apply_and_solve_agree_with_the_assembled_block(self, t, cutoff, a):
        # the sector works in (P^, Q^, u), P and Q in their 1D eigenbases:
        # to_grid maps to the grid order of the block, and its transpose back
        prob = SpectralProblem(t, cutoff, 1, a)
        rng = np.random.default_rng(3)
        for (block, _), (sector, _) in zip(sector_blocks(prob), kronecker_sectors(prob)):
            size = block.shape[0]
            assert sector.shape == block.shape
            scale = abs(block).max()
            # K_P and K_Q are exactly the diagonals of 1D eigenvalue sums; every
            # other entry passes through one eigenbasis at most, and is the block's
            own = sector.toarray()
            grid = sector.to_grid(np.eye(size))
            mapped = grid.T @ block.toarray().T @ grid
            diagonal = np.zeros((size, size), dtype=bool)
            for part, sums in zip(sector._slices, sector._sums):
                assert np.array_equal(own[part, part], np.diag(sums.ravel()))
                diagonal[part, part] = True
            assert np.abs(own - mapped)[~diagonal].max() <= 1e-15 * scale
            vecs = rng.standard_normal((size, 3))
            applied = sector.to_grid(sector @ (grid.T @ vecs))
            assert np.abs(applied - block @ vecs).max() <= 1e-14 * scale
            assert np.array_equal(sector @ vecs[:, 0], (sector @ vecs)[:, 0])
            assert np.array_equal(sector.to_grid(vecs[:, 0]), sector.to_grid(vecs)[:, 0])
            assert np.abs(grid.T @ grid - np.eye(size)).max() <= 1e-14  # the transpose maps back
            solve, _ = _factor(sector, LOW_THRESHOLD)
            x = sector.to_grid(solve(grid.T @ vecs[:, 0]))
            residual = block @ x - LOW_THRESHOLD * x - vecs[:, 0]
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(vecs[:, 0])

    def test_a_one_dimensional_sum_at_the_shift_is_a_solver_error(self):
        sector, _ = next(kronecker_sectors(SpectralProblem(10.0, 10, 1)))
        with pytest.raises(SolverError, match="sum of 1D eigenvalues equals the shift"):
            _factor(sector, sector._sums[0][2, 3])

    def test_singular_schur_pivot_is_a_solver_error(self, monkeypatch, capsys):
        import scipy.linalg.lapack

        dsytrf = scipy.linalg.lapack.dsytrf

        def singular(*args, **kwargs):
            ldu, piv, _ = dsytrf(*args, **kwargs)
            return ldu, piv, 5

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", singular)
        with pytest.raises(SolverError, match="Schur complement exactly singular at pivot 5"):
            low_spectrum(SpectralProblem(10.0, 10, 1), 4)
        assert cli.main(["spectral", "--t", "10", "--cutoff", "10", "--degrees", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spectral solve failed: Schur complement exactly singular")

    def test_one_factorization_and_one_lanczos_solve_per_sector(self, monkeypatch):
        import scipy.sparse.linalg

        calls = []
        for name in ("splu", "eigsh"):
            solve = getattr(scipy.sparse.linalg, name)
            monkeypatch.setattr(
                scipy.sparse.linalg, name,
                lambda *args, _solve=solve, _name=name, **kwargs: (
                    calls.append((_name, kwargs.get("k"))) or _solve(*args, **kwargs)
                ),
            )
        factor = spectral._KroneckerSector.factor
        monkeypatch.setattr(
            spectral._KroneckerSector, "factor",
            lambda self, shift: calls.append(("schur", shift)) or factor(self, shift),
        )
        monkeypatch.setattr(
            spectral, "assemble_quadratic_form",
            lambda prob: calls.append(("assemble", None)) or assemble_quadratic_form(prob),
        )
        assert low_counts(10, 10) == [1, 3, 3, 1]
        # as on the SuperLU path: three factorizations, two Lanczos solves, and
        # the clusterless (0, 0) settled by its inertia; but no form and no splu
        assert [name for name, _ in calls].count("schur") == 3
        assert [k for name, k in calls if name == "eigsh"] == [2, 2]
        assert [name for name, _ in calls if name not in ("schur", "eigsh")] == []

    def test_both_factorizations_agree_at_the_crossover(self):
        import scipy.linalg

        prob = SpectralProblem(40.0, spectral.SCHUR_MAX_CUTOFF, 1)
        rng = np.random.default_rng(5)
        for (block, _), (sector, _) in zip(sector_blocks(prob), kronecker_sectors(prob)):
            vec = rng.standard_normal(block.shape[0])
            low = scipy.linalg.eigh(block.toarray(), eigvals_only=True, subset_by_index=[0, 7])
            for shift in separating_shifts(low):
                assert _factor(sector, shift)[1] == _factor(block, shift)[1], shift
            # at the threshold, the shift of every Lanczos solve
            want = _factor(block, LOW_THRESHOLD)[0](vec)
            back = sector.to_grid(np.eye(block.shape[0])).T
            got = sector.to_grid(_factor(sector, LOW_THRESHOLD)[0](back @ vec))
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestSchurBuffer:
    """Every sector factorization writes its Schur complement into one buffer kept for the
    process: one live factorization, and no large allocation once the buffer has grown."""

    def test_a_solver_of_an_earlier_factorization_is_refused(self):
        (first, _), (second, _), _ = kronecker_sectors(SpectralProblem(10.0, 10, 1))
        vec = np.random.default_rng(2).standard_normal(first.shape[0])
        solve, _ = _factor(first, LOW_THRESHOLD)
        x = solve(vec)
        _factor(second, LOW_THRESHOLD)
        with pytest.raises(SolverError, match="Schur buffer was factored again"):
            solve(vec)
        # the same sector factored again solves again, to the same bits
        solve, _ = _factor(first, LOW_THRESHOLD)
        assert np.array_equal(solve(vec), x)

    def test_a_warm_factorization_allocates_under_256_kib(self):
        import tracemalloc

        sectors = [sector for sector, _ in kronecker_sectors(SpectralProblem(40.0, 19, 1))]
        for sector in sectors:
            _factor(sector, LOW_THRESHOLD)  # the buffer grows to the largest sector
        tracemalloc.start()
        try:
            for sector in sectors:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _factor(sector, LOW_THRESHOLD)
                # the buffer and chunk are reused: what is left is mostly dsytrf's workspace
                assert tracemalloc.get_traced_memory()[1] - base < 256 * 1024, sector.shape
        finally:
            tracemalloc.stop()

    def test_the_three_sectors_factor_in_one_buffer(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(spectral, "_SCHUR", spectral._SchurBuffer())
        prob = SpectralProblem(40.0, 19, 1)
        low_spectrum(prob, REPORT_COUNT)  # grows the buffer to the largest sector
        dsytrf, factored = scipy.linalg.lapack.dsytrf, []

        def recorded(*args, **kwargs):
            result = dsytrf(*args, **kwargs)
            factored.append(result[0])
            return result

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", recorded)
        low_spectrum(prob, REPORT_COUNT)
        # (0, 1) factors its Schur complement, (1, 1) and (0, 0) their two halves each
        assert [len(ldu) for ldu in factored] == [380, 190, 210, 171, 190]
        assert all(np.shares_memory(ldu, spectral._SCHUR.storage) for ldu in factored)

    def test_a_raised_crossover_grows_the_chunk(self, monkeypatch):
        # the chunk is sized by each factorization, not by the crossover at
        # import: N = 24 needs 25^3 doubles after N = 10 took 11^3
        prob = SpectralProblem(80.0, 24, 1)
        superlu = low_spectrum(prob, REPORT_COUNT)
        monkeypatch.setattr(spectral, "SCHUR_MAX_CUTOFF", 24)
        monkeypatch.setattr(spectral, "_SCHUR", spectral._SchurBuffer())
        low_spectrum(SpectralProblem(10.0, 10, 1), REPORT_COUNT)
        kronecker = low_spectrum(prob, REPORT_COUNT)
        assert spectral._SCHUR.chunk.size == 25**3
        low = superlu <= LOW_THRESHOLD
        assert np.array_equal(kronecker <= LOW_THRESHOLD, low) and np.count_nonzero(low) == 3
        assert np.all(np.abs(kronecker - superlu) <= 1e-10 * superlu)

    def test_a_buffer_grown_and_reused_smaller_changes_no_bit(self, monkeypatch):
        probs = [SpectralProblem(t, cutoff, 1) for t, cutoff in ((70.0, 23), (10.0, 10), (40.0, 19))]
        monkeypatch.setattr(spectral, "_SCHUR", spectral._SchurBuffer())
        reused = [low_spectrum(prob, REPORT_COUNT) for prob in probs]
        for prob, vals in zip(probs, reused):
            # dsytrf reads one triangle of the Schur complement, and only that
            # triangle is written: NaN in a fresh buffer must reach no value
            fresh = spectral._SchurBuffer()
            fresh.storage = np.full((spectral.SCHUR_MAX_CUTOFF + 1) ** 4, np.nan)
            monkeypatch.setattr(spectral, "_SCHUR", fresh)
            assert np.array_equal(low_spectrum(prob, REPORT_COUNT), vals), prob.cutoff


def recorded_dsytrf(monkeypatch):
    """(factor, pivots) of every matrix dsytrf factors from now on, copied as it returns them."""
    import scipy.linalg.lapack

    dsytrf, factored = scipy.linalg.lapack.dsytrf, []

    def recorded(*args, **kwargs):
        ldu, piv, info = dsytrf(*args, **kwargs)
        factored.append((ldu.copy(), piv.copy()))
        return ldu, piv, info

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", recorded)
    return factored


def unfolded_factor(sector, shift):
    """Oracle: the Schur complement on u of any sector factored whole, as every sector was before
    (1, 1) and (0, 0) were folded: left @ right one x index of u at a time, its lower triangle
    copied into a matrix, and dsytrf.  Returns the factor, the pivots and the 1D weights."""
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dsytrf

    w_p, w_q = (1.0 / (sums - shift) for sums in sector._sums)
    vpx, _, _, vqy = sector._bases
    yp, xq = sector._yp, sector._xq
    (npx, _), _, (nux, nuy) = sector._shapes
    left, right = np.empty((nux * nux, npx + nuy + 2)), np.empty((npx + nuy + 2, nuy * nuy))
    left[:, :npx] = (vpx[:, None, :] * vpx[None, :, :]).reshape(nux * nux, npx)
    left[:, npx:-2] = np.matmul(xq.T[:, :, None], xq.T[:, None, :]).reshape(-1, nux * nux).T @ -w_q
    left[:, -2], left[:, -1] = np.eye(nux).reshape(-1), sector._hux.reshape(-1)
    right[:npx] = -w_p @ np.matmul(yp.T[:, :, None], yp.T[:, None, :]).reshape(-1, nuy * nuy)
    right[npx:-2] = (vqy.T[:, :, None] * vqy.T[:, None, :]).reshape(nuy, nuy * nuy)
    right[-2] = (sector._huy + (1.0 - shift) * np.eye(nuy)).reshape(-1)
    right[-1] = np.eye(nuy).reshape(-1)
    schur = np.zeros((nux * nuy, nux * nuy))
    for i in range(nux):
        prod = dgemm(1.0, right.T, left[i * nux : i * nux + i + 1].T).T
        schur[i * nuy : (i + 1) * nuy, : (i + 1) * nuy].reshape(nuy, i + 1, nuy)[...] = (
            prod.reshape(i + 1, nuy, nuy).transpose(1, 0, 2)
        )
    ldu, piv, info = dsytrf(schur.T, lwork=32 * len(schur))
    assert info == 0
    return ldu, piv, w_p, w_q


def unfolded_solve(sector, shift, vec):
    """Oracle: (B - shift) x = vec through unfolded_factor, by the block elimination of factor."""
    ldu, piv, w_p, w_q = unfolded_factor(sector, shift)
    schur_solve, _ = spectral._bunch_kaufman_solver(ldu, piv)
    vpx, _, _, vqy = sector._bases
    yp, xq = sector._yp, sector._xq
    (at_p, at_q, at_u), (shape_p, shape_q, shape_u) = sector._slices, sector._shapes
    p, q = vec[at_p].reshape(shape_p), vec[at_q].reshape(shape_q)
    rhs = vec[at_u].reshape(shape_u) + vpx @ (w_p * p) @ yp.T - xq @ (w_q * q) @ vqy.T
    u = schur_solve(rhs.reshape(-1)).reshape(shape_u)
    return np.concatenate([
        ((p + vpx.T @ u @ yp) * w_p).reshape(-1), ((q - xq.T @ u @ vqy) * w_q).reshape(-1), u.reshape(-1),
    ])


# TestKroneckerSectors' (t, N, a), and N = 2 and 3, where the antisymmetric half
# of sector (0, 0), on the N x N sine grid of u, has 1 and 3 rows
FOLD_CASES = [(2.0, 9, 1.0), (1.0, 7, 0.003), (1.0, 7, 0.15), (3.0, 2, 1.0), (1.0, 3, 1.0)]


class TestFoldedSchur:
    """In sectors (0, 0) and (1, 1) the swap u -> u' splits the Schur complement on the n x n
    matrices u into its antisymmetric and symmetric halves, n (n -+ 1) / 2 rows each factored
    by its own dsytrf; sector (0, 1) factors its Schur complement whole, as before."""

    @pytest.mark.parametrize("t, cutoff, a", FOLD_CASES + [(40.0, 19, 1.0)])
    def test_only_sectors_00_and_11_fold(self, monkeypatch, t, cutoff, a):
        factored = recorded_dsytrf(monkeypatch)
        axis = {0: cutoff + 1, 1: cutoff}  # basis functions of each parity: 1 and cosines, sines
        for (sector, _), ((x, y), _) in zip(kronecker_sectors(SpectralProblem(t, cutoff, 1, a)), SECTORS):
            factored.clear()
            _factor(sector, LOW_THRESHOLD)
            n, m = axis[1 - x], axis[1 - y]  # u has the sector's parities flipped
            want = [n * (n - 1) // 2, n * (n + 1) // 2] if x == y else [n * m]
            assert [len(ldu) for ldu, _ in factored] == want, (x, y)

    @pytest.mark.parametrize("t, cutoff, a", FOLD_CASES)
    @pytest.mark.parametrize("degree", [1, 2])
    def test_half_inertias_add_up_to_the_dense_count(self, monkeypatch, t, cutoff, a, degree):
        # degree 2, (1, 7, 0.15) is the case where the count depends on the
        # elimination order (see TestKroneckerSectors)
        solver, halves = spectral._bunch_kaufman_solver, []
        monkeypatch.setattr(
            spectral, "_bunch_kaufman_solver",
            lambda ldu, piv: (lambda result: halves.append(result[1]) or result)(solver(ldu, piv)),
        )
        prob = SpectralProblem(t, cutoff, degree, a)
        for (block, _), (sector, _), ((x, y), _) in zip(sector_blocks(prob), kronecker_sectors(prob), SECTORS):
            if x != y:
                continue
            dense = np.linalg.eigvalsh(block.toarray())
            for shift in separating_shifts(dense):
                halves.clear()
                below = _factor(sector, shift)[1]
                one_d = sum(int(np.count_nonzero(sums < shift)) for sums in sector._sums)
                assert len(halves) == 2
                assert one_d + sum(halves) == below == np.count_nonzero(dense < shift), (x, shift)

    def test_fourfold_eigenvalue_counted_four_times(self, monkeypatch):
        factored = recorded_dsytrf(monkeypatch)
        sectors = list(kronecker_sectors(SpectralProblem(2.0, 9, 1)))
        assert sum(w * (_factor(s, 65.04)[1] - _factor(s, 65.03)[1]) for s, w in sectors) == 4
        assert len(factored) == 2 * 5  # two shifts, one dsytrf for (0, 1) and two each for the others

    @pytest.mark.parametrize("t, cutoff, a", FOLD_CASES + [(40.0, 19, 1.0), (10.0, 10, -0.3)])
    def test_folded_solve_matches_the_unfolded_one(self, t, cutoff, a):
        rng = np.random.default_rng(7)
        for (sector, _), ((x, y), _) in zip(kronecker_sectors(SpectralProblem(t, cutoff, 1, a)), SECTORS):
            vec = rng.standard_normal(sector.shape[0])
            want = unfolded_solve(sector, LOW_THRESHOLD, vec)
            got = _factor(sector, LOW_THRESHOLD)[0](vec)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (x, y)

    @pytest.mark.parametrize("t, cutoff, a", FOLD_CASES + [(40.0, 19, 1.0), (80.0, 23, 1.0)])
    def test_sector_01_factor_is_unchanged_bit_for_bit(self, monkeypatch, t, cutoff, a):
        factored = recorded_dsytrf(monkeypatch)
        sector, _ = next(kronecker_sectors(SpectralProblem(t, cutoff, 1, a)))
        assert SECTORS[0][0] == (0, 1)
        for shift in (LOW_THRESHOLD, 37.5):
            want_ldu, want_piv, _, _ = unfolded_factor(sector, shift)
            factored.clear()
            _factor(sector, shift)
            ((ldu, piv),) = factored
            # dsytrf reads and writes the upper triangle of the Fortran-ordered matrix
            assert np.array_equal(np.triu(ldu), np.triu(want_ldu)) and np.array_equal(piv, want_piv), shift


class TestBunchKaufmanSolver:
    """A Schur solve runs through dsytrf's factor: two dtrsv around 1/D when it has no interchange
    and no 2x2 pivot, as every sector factorization has had, and LAPACK's dsytrs otherwise."""

    def test_interchanges_and_two_by_two_pivots(self, monkeypatch):
        # zero diagonals force 2x2 pivots and interchanges, which no sector
        # factorization has met; each such factor is solved by dsytrs, which
        # leaves it unchanged, the solve is backward stable and the pivots
        # count the negative eigenvalues
        import scipy.linalg.lapack
        from scipy.linalg.lapack import dsytrf

        dsytrs, calls = scipy.linalg.lapack.dsytrs, []
        monkeypatch.setattr(
            scipy.linalg.lapack, "dsytrs",
            lambda *args, **kwargs: calls.append(1) or dsytrs(*args, **kwargs),
        )
        rng = np.random.default_rng(11)
        interchanges = pairs = pivoted = 0
        for _ in range(200):
            size = int(rng.integers(2, 60))
            mat = rng.standard_normal((size, size))
            mat += mat.T
            zero = rng.random(size) < 0.5
            mat[zero, zero] = 0.0
            ldu, piv, info = dsytrf(np.asfortranarray(mat), lwork=32 * size)
            assert info == 0
            interchanges += int(np.count_nonzero(np.abs(piv) != np.arange(1, size + 1)))
            pairs += int(np.count_nonzero(piv < 0)) // 2
            pivoted += not np.array_equal(piv, np.arange(1, size + 1))
            factor = ldu.copy()
            solve, below = spectral._bunch_kaufman_solver(ldu, piv)
            assert below == np.count_nonzero(np.linalg.eigvalsh(mat) < 0)
            rhs = rng.standard_normal(size)
            x = solve(rhs.copy())
            scale = np.linalg.norm(mat, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
            assert np.linalg.norm(mat @ x - rhs, np.inf) <= 1e-15 * scale
            assert np.array_equal(ldu, factor) and len(calls) == pivoted
        assert interchanges > 0 and pairs > 0 and pivoted > 0

    @pytest.mark.parametrize("pivoted", [False, True], ids=["dtrsv", "dsytrs"])
    def test_a_solve_writes_over_its_right_side(self, pivoted):
        # a folded Schur solve runs each half in place, on a slice of one vector
        from scipy.linalg.lapack import dsytrf

        rng = np.random.default_rng(5)
        mat = rng.standard_normal((9, 9))
        mat += mat.T
        mat[np.diag_indices(9)] = 0.0 if pivoted else 20.0
        ldu, piv, info = dsytrf(np.asfortranarray(mat), lwork=32 * 9)
        assert info == 0 and np.array_equal(piv, np.arange(1, 10)) != pivoted
        solve, _ = spectral._bunch_kaufman_solver(ldu, piv)
        vec = rng.standard_normal(13)
        kept = vec.copy()
        x = solve(vec[2:11])
        assert np.shares_memory(x, vec) and np.array_equal(vec[2:11], x)
        assert np.allclose(mat @ x, kept[2:11], rtol=0, atol=1e-13)
        assert np.array_equal(vec[[0, 1, 11, 12]], kept[[0, 1, 11, 12]])

    def test_a_kronecker_solve_never_calls_dsytrs(self, monkeypatch):
        import scipy.linalg.lapack

        def unused(*args, **kwargs):
            raise AssertionError("dsytrs was called")

        prob = SpectralProblem(10.0, 10, 1)
        vals = low_spectrum(prob, REPORT_COUNT)
        monkeypatch.setattr(scipy.linalg.lapack, "dsytrs", unused)
        assert np.array_equal(low_spectrum(prob, REPORT_COUNT), vals)


# (t, a): a strong and a negative deformation; t = 10, a = 0.3, where sector
# (0, 0), which holds no cluster value, alone holds the tenth value at N = 4;
# and t * a = 0.003, where a tunnelling value sits at 0.99999, just under the
# threshold
BUDGET_CASES = ((0.5, 1.0), (2.0, -1.0), (10.0, 0.3), (1.0, 0.003))


class TestSectorBudget:
    """Each sector asks Lanczos for its cluster and only the values above it that can reach the count."""

    @pytest.mark.parametrize("t, a", BUDGET_CASES)
    @pytest.mark.parametrize("degree", [1, 2])
    def test_every_count_matches_dense(self, t, a, degree):
        for cutoff in (3, 4, 6):
            prob = SpectralProblem(t, cutoff, degree, a)
            dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())[:12]
            for count in range(1, 13):
                vals = low_spectrum(prob, count)
                err = np.abs(vals - dense[:count])
                assert np.all(err <= 1e-9 * np.maximum(1.0, dense[:count])), (cutoff, count)

    def test_a_failed_settle_solves_the_last_sector(self, monkeypatch):
        # a factorization that fails at beta settles nothing: (0, 0) is then
        # solved by Lanczos, and the values do not move
        prob = SpectralProblem(40.0, 19, 1)
        factor, sector_spectrum, solved = spectral._factor, spectral._sector_spectrum, []
        monkeypatch.setattr(
            spectral, "_sector_spectrum", lambda *args: solved.append(args[1]) or sector_spectrum(*args)
        )
        vals = low_spectrum(prob, REPORT_COUNT)
        assert solved == [weight for _, weight in SECTORS[:-1]]

        def fail_off_threshold(block, shift):
            if shift != LOW_THRESHOLD:
                raise SolverError(f"factorization singular at {shift}")
            return factor(block, shift)

        solved.clear()
        monkeypatch.setattr(spectral, "_factor", fail_off_threshold)
        assert np.array_equal(low_spectrum(prob, REPORT_COUNT), vals)
        assert solved == [weight for _, weight in SECTORS]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_clusterless_sector_supplies_a_value(self, monkeypatch, degree):
        prob = SpectralProblem(10.0, 4, degree, 0.3)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())
        *_, (last, _) = sector_blocks(prob)
        own = np.linalg.eigvalsh(last.toarray())
        assert SECTORS[-1] == ((0, 0), 1) and own[0] > LOW_THRESHOLD
        # every copy of the form's tenth value lies in (0, 0)
        near = 1e-6 * own[0]
        assert dense[8] < own[0] - near and abs(dense[9] - own[0]) < near
        assert np.sum(np.abs(dense - own[0]) < near) == np.sum(np.abs(own - own[0]) < near)
        factored = record_factors(monkeypatch)
        for count in (10, 11, 12):
            factored.clear()
            vals = low_spectrum(prob, count)
            assert np.all(np.abs(vals - dense[:count]) <= 1e-9 * np.maximum(1.0, dense[:count]))
            # (0, 0) holds values below beta, the count-th value the sectors
            # before it hold, so its inertia there is positive and it is
            # factored again at the threshold and solved by Lanczos
            (beta, inertia), last = factored[2], factored[3]
            assert len(factored) == 4 and beta >= dense[count - 1] * (1 - 1e-9)
            assert beta > LOW_THRESHOLD and inertia > 0 and last == (LOW_THRESHOLD, 0)

    # k per sector at t = 10, N = 10, degree 1: (0, 1) of weight 2 and (1, 1)
    # hold one cluster value each, (0, 0) none; each asks for its cluster plus
    # ceil((count - known - weight * n) / weight) values, one at least.  At
    # count 5 the fifth value found is below every value of (0, 0), whose
    # inertia there settles it without a Lanczos solve
    @pytest.mark.parametrize(
        "count, ks", [(1, [2, 2, 1]), (5, [3, 3]), (12, [6, 10, 9])]
    )
    def test_lanczos_asks_only_for_reachable_values(self, monkeypatch, count, ks):
        import scipy.sparse.linalg

        asked = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(
            scipy.sparse.linalg, "eigsh",
            lambda *args, **kwargs: asked.append(kwargs["k"]) or eigsh(*args, **kwargs),
        )
        low_spectrum(SpectralProblem(10.0, 10, 1), count)
        assert asked == ks


class TestResidualGate:
    """Each value theta above the threshold has |(B - theta) v| <= RESIDUAL_TOL * max(1, theta)."""

    def test_perturbed_ritz_vector_is_a_solver_error(self, monkeypatch, capsys):
        def perturb_top(vals, vecs):
            vecs[:, -1] += 1e-6 * np.random.default_rng(1).standard_normal(vecs.shape[0])
            vecs[:, -1] /= np.linalg.norm(vecs[:, -1])
            return vals, vecs

        patched_eigsh(monkeypatch, perturb_top)
        with pytest.raises(SolverError, match="eigensolver residual .* exceeds"):
            low_spectrum(SpectralProblem(10.0, 10, 1), REPORT_COUNT)
        assert cli.main(["spectral", "--t", "10", "--cutoff", "10", "--degrees", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spectral solve failed: eigensolver residual ")

    def test_a_refined_superlu_solve_passes_the_gate_at_n_30(self, monkeypatch):
        # unrefined, SuperLU's solves left Lanczos a residual at 1.03 of the
        # gate here; the Kronecker factorization, raised to N = 30, is the oracle
        prob = SpectralProblem(40.0, 30, 1)
        superlu = low_spectrum(prob, REPORT_COUNT)
        monkeypatch.setattr(spectral, "SCHUR_MAX_CUTOFF", 30)
        monkeypatch.setattr(spectral, "_SCHUR", spectral._SchurBuffer())
        kronecker = low_spectrum(prob, REPORT_COUNT)
        assert np.count_nonzero(superlu <= LOW_THRESHOLD) == np.count_nonzero(kronecker <= LOW_THRESHOLD) == 3
        assert np.all(np.abs(superlu - kronecker) <= 1e-10 * kronecker)

    def test_residuals_bound_the_error_against_dense(self):
        prob = SpectralProblem(7.3, 6, 2, -0.6)
        dense = np.linalg.eigvalsh(assemble_quadratic_form(prob).toarray())[:12]
        vals = low_spectrum(prob, 12)
        high = dense > LOW_THRESHOLD
        assert np.all(np.abs(vals - dense)[high] <= spectral.RESIDUAL_TOL * dense[high])


def parent_path_spectrum(prob, count):
    """Oracle for degrees 1 and 2: every sector in grid order, factored with MMD, solved by
    Lanczos to machine precision (tol = 0), none settled by inertia alone."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    form = assemble_quadratic_form(prob)
    ops = spectral._operators(prob)
    merged, known = [], 0
    for sector, weight in SECTORS:
        idx = _sector_indices(prob.degree, prob.cutoff, sector)
        block = form[idx][:, idx]
        size = block.shape[0]
        factor = splu(
            (block - LOW_THRESHOLD * sp.identity(size, format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        below = int(np.count_nonzero(factor.U.diagonal() < 0))
        k = below + max(1, -(-(count - known - weight * below) // weight))
        vals, vecs = eigsh(
            block,
            k=k,
            sigma=LOW_THRESHOLD,
            v0=np.random.default_rng(0).standard_normal(size),
            OPinv=LinearOperator((size, size), matvec=factor.solve, dtype=block.dtype),
            tol=0,
        )
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if below:
            vals[:below] = spectral._cluster_values(prob, ops, idx, vecs[:, :below])
        known += weight * below
        merged.append(np.repeat(vals, weight))
    return np.sort(np.concatenate(merged))[:count]


class TestAgainstParentPath:
    """The Lanczos tolerance and the settled last sector move no printed digit."""

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 5.0, 7.3, 10.0, 20.0, 40.0, 80.0])
    def test_values_match_the_parent_path(self, monkeypatch, t):
        import scipy.sparse.linalg

        eigsh = scipy.sparse.linalg.eigsh
        for a, degree in itertools.product((1.0, -0.6, 2.0), (1, 2)):
            prob = SpectralProblem(t, suggested_cutoff(t), degree, a)
            oracle = parent_path_spectrum(prob, REPORT_COUNT)
            solves = []
            monkeypatch.setattr(
                scipy.sparse.linalg, "eigsh",
                lambda *args, **kwargs: solves.append(kwargs["k"]) or eigsh(*args, **kwargs),
            )
            vals = low_spectrum(prob, REPORT_COUNT)
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
            # the clusterless (0, 0) is settled by its inertia in every case
            assert len(solves) == len(SECTORS) - 1, (a, degree)
            high = oracle > LOW_THRESHOLD
            rel = np.abs(vals - oracle) / np.abs(oracle)
            assert np.all(rel[high] <= 1e-12), (a, degree)
            # cluster values below 1e-18 sit at the rounding floor of the singular values
            floor = (vals < 1e-18) & (oracle < 1e-18)
            assert np.all((rel <= 1e-9) | floor), (a, degree)


# (t, N, count) -> {sector: the values it holds twice among the lowest count}
DOUBLE_EIGENVALUES = {
    (10.0, 10, 20): {(0, 0): [373.129337297]},
    (40.0, 19, 12): {(1, 1): [1520.023812439], (0, 0): [1559.008380841]},
}


class TestDoubleEigenvalues:
    """A value a sector holds twice (its x<->y swap splits the pair into its
    +- halves) must come out of the sector's single-vector Lanczos solve twice."""

    @pytest.mark.parametrize("t, cutoff, count", list(DOUBLE_EIGENVALUES))
    def test_both_copies_found(self, cached_low_spectrum, t, cutoff, count):
        prob = SpectralProblem(t, cutoff, 1)
        merged = []
        for (sector, weight), (block, _) in zip(SECTORS, sector_blocks(prob)):
            own = np.linalg.eigvalsh(block.toarray())
            for value in DOUBLE_EIGENVALUES[t, cutoff, count].get(sector, []):
                assert np.sum(np.abs(own - value) < 1e-8 * value) == 2, (sector, value)
            merged.append(np.repeat(own, weight))
        dense = np.sort(np.concatenate(merged))[:count]
        for doubles in DOUBLE_EIGENVALUES[t, cutoff, count].values():
            assert all(value < dense[-1] for value in doubles)  # both copies are wanted
        vals = cached_low_spectrum(t, cutoff, 1, count)
        assert np.all(np.abs(vals - dense) <= 1e-10 * np.maximum(1.0, dense))


class TestKroneckerSum:
    """Degrees 0 and 3: sums of two squared singular values of the 1D factor G."""

    @pytest.mark.parametrize("t", [2.0, 10.0, 40.0, 80.0])
    def test_equals_sector_and_whole_form_solves(self, monkeypatch, t):
        # the sector oracle runs Lanczos to machine precision: at LANCZOS_TOL
        # sector (0, 0) of degree 0 at t = 10, a = 0.3 fails the residual gate
        monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
        for a, degree in itertools.product((1.0, -1.0, 0.3), (0, 3)):
            prob = SpectralProblem(t, suggested_cutoff(t), degree, a)
            vals = low_spectrum(prob, 12)
            sectors = np.sort(np.concatenate([
                np.repeat(_sector_spectrum(block, weight, 12)[0], weight)
                for block, weight in sector_blocks(prob)
            ]))[:12]
            for oracle in (sectors, whole_form_spectrum(prob, 12)):
                err = np.abs(vals - oracle)
                assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(oracle))), (a, degree)

    def test_cluster_top_matches_30_digit_value(self):
        # shift-invert Lanczos on the form gets this 5e-10 value to about 1e-5
        mpmath = pytest.importorskip("mpmath")
        rep = spectral_report(SpectralProblem(10.0, 13, 0))
        assert rep.low_count == 1
        with mpmath.workdps(30):
            grad = mpmath.matrix(_grad_1d(13, 10.0 * math.pi).tolist())
            exact = float(2 * min(mpmath.eigsy(grad.T * grad, eigvals_only=True)))
        assert abs(rep.eigenvalues[0] - exact) <= 1e-8 * exact
