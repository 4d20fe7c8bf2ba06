"""Witten deformation of the cone Laplacian on the flat two-torus.

The torus carries omega = dx^dy, the flat metric, and the Morse function
f = a*(2 - (cos 2 pi x + cos 2 pi y)/2).  Cone forms of degree k pair a
k-form with a (k-1)-form; the deformed differential and its adjoint are

    d_C = [[d_t, w], [0, -d_t]],      d_C* = [[d_t*, 0], [L, -d_t*]],

with d_t = d + t df^ and L the pointwise adjoint of the wedge map w.  d_C is
written once, in the block table DIFFERENTIAL: each block is a Kronecker
product of two 1D operators on the real trigonometric basis, so images of
band-N forms are computed exactly in band N+1 (multiplying by sin(2 pi x)
raises the band limit by exactly one) and inner products taken on the
orthonormal basis.  The table is read twice: the sparse assembly of the
quadratic form |d_C s|^2 + |d_C* s|^2, symmetric positive semidefinite by
construction; and a matrix-free apply on the grid of coefficients,
(A(x)B) vec(U) = vec(A U B'), which rates quasimodes as |d_C v|^2 + |d_C* v|^2
without assembling the form, and reads cluster values off Ritz vectors.  The
1D factors are G = d/dx + t a pi sin(2 pi x) and the band embedding E,
which is never stored: the assembly lists each block's COO entries by index
arithmetic on the nonzeros of G and E's diagonal of ones, and the apply uses
that E only pads with zeros, so a block multiplies by G or by nothing and
adds into a corner of the output.  d/dx and the sine multiplication are one
read-only table at band MAX_CUTOFF + 1, about 1 MiB, built once per process;
G at any band is its top-left block plus one axpy.  The quasimode's basis on
its 4N grid and the t-independent fields of each critical point's quasimode
on its 4N x 4N grid (displacements, well profiles and radial bump) are
read-only tables kept for the last band limit only, the fields at most
8.1 MiB at MAX_CUTOFF (the bump is 2 MiB per point at N = 128).  These pay off
only when quasimodes are rated again at the same band limit and point, as
in a t-sweep at fixed N: such a rating computes only its two 1D
exponentials, the projection and the matrix-free apply.  A first rating
at a band limit builds them and gains nothing from them.

The degree-0 form is the Kronecker sum H(x)I + I(x)H of the 1D operator
H = G'G, G = d/dx + t a pi sin(2 pi x) (its two blocks write different
components and E'E = I), so its eigenvalues are the pairwise sums of the
squared singular values s^2 of G: numpy only, and s^2 errs by about
eps |G| s where an eigenvalue of the form errs by eps |G|^2, so the tiny
cluster keeps its digits.  For degrees 1 and 2 the reflections x -> -x and
y -> -y fix all four critical points, so the form splits exactly into four
parity sectors, and the mirror (x, y) -> (y, x) maps sector (1, 0) onto
(0, 1).  Each of three sectors is factored once at the cluster threshold.
Up to band limit SCHUR_MAX_CUTOFF a sector is an operator on 1D matrices
(see _KroneckerSector) and no form is assembled: its P and Q blocks are
Kronecker sums, diagonal in the 1D eigenbases in which the sector holds P
and Q (Lanczos runs in these coordinates, and only cluster vectors are
mapped back to the grid), and block elimination leaves a dense Schur
complement on u of about (N+1)^2 rows, factored by Bunch-Kaufman in one
buffer kept for the process (_SchurBuffer), so only one factorization is
live at a time; the inertia is the count of 1D eigenvalue sums below the
threshold plus that of the Schur complement (Haynsworth), and a Lanczos
solve runs through that factor (_bunch_kaufman_solver).  Above the cutoff,
where the Schur complement would grow like (N+1)^4, the sector is sliced
from the sparse form and factored by SuperLU, each solve refined by one
step.  Either way the inertia counts the sector's low cluster, and
shift-invert Lanczos on the same factorization, stopped at ARPACK tolerance
LANCZOS_TOL, must find as many, plus only as many values above it as can
still reach the requested count.  Each value theta above the threshold must
have |(B - theta) v| <= RESIDUAL_TOL * max(1, theta) on its sector block B,
which by Weyl's bound caps its error, or the solve fails.  The last sector is settled by one
inertia when the sectors before it already hold the requested count with
its count-th value beta above the threshold: factored at beta, an inertia
of 0 proves it holds no value the count can use, and it is not solved; a
factorization singular at beta settles nothing.  The cluster values are
then the squared singular values of [d_C; d_C*] on their Lanczos vectors,
never negative.
Translation by (1/2, 1/2) and the cone Hodge star map the form of degree
3 - k onto that of degree k, so degrees 2 and 3 are solved as degrees 1
and 0, to the same bits, and cluster counts and gap fits solve each dual
pair of degrees once and report the partner from the same solve.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import AdequacyError, DegreeError, DegreeMismatchError, SolverError

# scipy.sparse and its ARPACK solver are imported inside the functions that use
# them, so the exact side, quasimode rating and cone degrees 0 and 3, which
# never build a form, do not load them (about 3.5 MB of resident memory in an
# `analyze` process)
if TYPE_CHECKING:
    import scipy.sparse as sp

LOW_THRESHOLD = 1.0  # eigenvalues in [0, 1] count as the low cluster
ADEQUACY_RATIO = 10.0  # gap must exceed the cluster top by this factor
REPORT_COUNT = 4  # eigenvalues per report: the largest T^2 cluster (3) and the gap
COMPONENTS = (1, 3, 3, 1, 0)  # coefficient fields per cone degree on T^2; none in 4
# largest accepted |t * a| * pi, the multiplier of the sine factors of df: the
# form's entries grow like its square, about 1e304 here, and floats overflow
# at 1.8e308 (where SuperLU then finds the factor exactly singular)
MAX_DEFORMATION = 1e152
# largest accepted band limit N: a cone degree 1 or 2 form has 3 (2N+1)^2
# unknowns, 198,147 at the cap
MAX_CUTOFF = 128
# shift-invert Lanczos stops at this ARPACK tolerance; every value it returns
# above the threshold must then have |(B - theta) v| <= RESIDUAL_TOL * max(1, theta)
LANCZOS_TOL = 1e-12
RESIDUAL_TOL = 1e-9
# degree-1/2 sectors at band limits up to this are factored through their
# Kronecker blocks (see _KroneckerSector), above it by SuperLU on the assembled
# form.  The dense Schur complement has about (N+1)^4 entries and dsytrf takes
# (N+1)^6 steps: a degree-1 solve at t = 40 with two BLAS threads took 0.50 of
# SuperLU's time at N = 23, 0.66 at 24, 0.99 at 25 and 1.18 at 28.  At N = 24
# (t = 80, a = 2) the values left SuperLU's by 3.9e-12 relative, above the
# 1e-12 the tests hold them to, so 23 is the largest N kept
SCHUR_MAX_CUTOFF = 23
BUMP_INNER, BUMP_OUTER = 0.2, 0.25  # the quasimode bump: 1 inside the first radius, 0 outside

# the four critical points of the cosine Morse function, keyed like torus(1)
CRITICAL_POINTS = {
    "q0": (0.0, 0.0),
    "q1": (0.5, 0.0),
    "q2": (0.0, 0.5),
    "q12": (0.5, 0.5),
}


def _is_integer(value) -> bool:
    """An integral number, as int or np.int64, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpectralProblem:
    """Configuration of one deformed-cone eigenvalue computation.

    ``morse_scale`` is the amplitude a of f; a negative value deforms by -f.
    -a gives the spectrum of a at every degree (translation by (1/2, 1/2)),
    and degree 3 - k gives the spectrum of degree k (see DUAL_PAIR).
    """

    t: float
    cutoff: int
    degree: int = 1
    morse_scale: float = 1.0

    def __post_init__(self):
        for name in ("t", "morse_scale"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.t) and math.isfinite(self.morse_scale)):
            raise ValueError(
                f"t and morse_scale must be finite, got t={self.t}, "
                f"morse_scale={self.morse_scale}"
            )
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if abs(self.t * self.morse_scale) * math.pi > MAX_DEFORMATION:
            raise ValueError(
                f"t * |morse_scale| * pi must be at most {MAX_DEFORMATION:g}, got "
                f"t={self.t}, morse_scale={self.morse_scale}: the form would overflow"
            )
        if not _is_integer(self.cutoff):
            raise ValueError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.cutoff > MAX_CUTOFF:
            raise ValueError(f"cutoff must be at most {MAX_CUTOFF}, got {self.cutoff}")
        if not _is_integer(self.degree) or self.degree not in (0, 1, 2, 3):
            raise DegreeError(f"cone degree must be 0..3, got {self.degree!r}")
        if self.morse_scale == 0:
            raise ValueError(f"morse_scale must be nonzero, got {self.morse_scale}")


@dataclass
class SpectralReport:
    degree: int
    t: float
    cutoff: int
    eigenvalues: np.ndarray  # the lowest REPORT_COUNT, ascending
    low_count: int
    gap: float
    cluster_ratio: float


def basis_size(cutoff: int) -> int:
    """Real trigonometric functions per axis: 1, cos/sin of 2 pi m x, m <= N."""
    return 2 * cutoff + 1


def matrix_size(degree: int, cutoff: int) -> int:
    return COMPONENTS[degree] * basis_size(cutoff) ** 2


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@functools.cache
def _band_tables() -> tuple:
    """d/dx and multiplication by sin(2 pi x), band MAX_CUTOFF + 1 -> MAX_CUTOFF + 2, read-only.

    A band adds rows and columns only past the old ones, so band N's
    operators are their top-left (2N+3) x (2N+1) blocks.  About 1 MiB, built
    once per process.
    """
    cutoff = MAX_CUTOFF + 1
    deriv = np.zeros((basis_size(cutoff + 1), basis_size(cutoff)))
    m = np.arange(1, cutoff + 1)
    deriv[2 * m, 2 * m - 1] = -2.0 * math.pi * m  # d/dx cos -> sin
    deriv[2 * m - 1, 2 * m] = 2.0 * math.pi * m  # d/dx sin -> cos
    sin_mult = np.zeros_like(deriv)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sin_mult[2, 0] = sin_mult[0, 2] = inv_sqrt2  # sin * 1 -> sin_1, sin * sin_1 -> constant
    sin_mult[2 * (m + 1), 2 * m - 1] = 0.5  # sin * cos_m -> sin_{m+1}
    sin_mult[2 * (m + 1) - 1, 2 * m] = -0.5  # sin * sin_m -> -cos_{m+1}
    m = np.arange(2, cutoff + 1)
    sin_mult[2 * (m - 1), 2 * m - 1] = -0.5  # sin * cos_m -> -sin_{m-1}
    sin_mult[2 * (m - 1) - 1, 2 * m] = 0.5  # sin * sin_m -> cos_{m-1}
    return _read_only(deriv), _read_only(sin_mult)


# d_C out of each cone degree as blocks (output component, input component,
# sign, factor).  Component layout per degree: 0 -> [u]; 1 -> [P, Q, u];
# 2 -> [R, S, T]; 3 -> [V], where eta_1 = P dx + Q dy, eta_2 = R dx^dy,
# xi_1 = S dx + T dy, xi_2 = V dx^dy and u is a theta-coefficient function.
# A factor names a Kronecker product of 1D operators acting on the (x, y)
# coefficient grid: "x" = G(x)E and "y" = E(x)G are the two parts of
# d_t = d + t df^ (G = d/dx + t a pi sin(2 pi x), E the band embedding), and
# "w" = E(x)E is the wedge with omega.
DIFFERENTIAL = (
    # d_C u = (d_t u, 0)
    ((0, 0, 1, "x"), (1, 0, 1, "y")),
    # d_C (eta_1, xi_0) = (d_t eta_1 + w xi_0, -d_t xi_0)
    ((0, 0, -1, "y"), (0, 1, 1, "x"), (0, 2, 1, "w"), (1, 2, -1, "x"), (2, 2, -1, "y")),
    # d_C (eta_2, xi_1) = (w ^ xi_1 = 0 in Omega^3, -d_t xi_1)
    ((0, 1, 1, "y"), (0, 2, -1, "x")),
    (),
)

# (x, y) parity of each component's coefficients within a parity sector, per
# cone degree in the component order above: a sector (a, b) holds the grid
# entries of component c whose parity is (a, b) shifted by PARITY_OFFSETS[k][c].
# A block of kind "x" flips the x parity, "y" the y parity, "w" keeps both.
PARITY_OFFSETS = (
    ((0, 0),),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 1), (0, 1), (1, 0)),
    ((0, 0),),
)
# the sectors solved, with how many sectors each stands for: the isometry
# (eta, xi) -> (s* eta, -s* xi) of the swap s(x, y) = (y, x) commutes with d_C
# (f o s = f, s* omega = -omega) and maps sector (1, 0) onto (0, 1).  Each
# sector's Lanczos solve asks for fewer values the more cluster values the
# sectors before it hold (see _sector_spectrum), so the clusterless (0, 0) of
# degrees 1 and 2 comes last
SECTORS = (((0, 1), 2), ((1, 1), 1), ((0, 0), 1))
# the dual pair each cone degree belongs to: degree 3 - k has the form of
# degree k up to a signed permutation, so one solve serves both.  Translation
# by (1/2, 1/2) sends f to 4a - f and multiplies the grid entry of frequency
# (m_x, m_y) by (-1)^(m_x + m_y); with the cone Hodge star, which swaps eta and
# xi, it sends [u] to [V] and [P, Q, u] to [R, S, T] = [-u, -Q, P]
DUAL_PAIR = (0, 1, 1, 0)


def _axis_parity(cutoff: int) -> np.ndarray:
    """Parity of each 1D basis function under x -> -x: 0 for 1 and cos, 1 for sin."""
    parity = np.zeros(basis_size(cutoff), dtype=int)
    parity[2::2] = 1
    return parity


def _sector_indices(degree: int, cutoff: int, sector: tuple) -> np.ndarray:
    """Indices, in grid order, of the unknowns of one parity sector (a, b)."""
    parity = _axis_parity(cutoff)
    cells = basis_size(cutoff) ** 2
    a, b = sector
    return np.concatenate([
        c * cells + np.flatnonzero((parity[:, None] == a ^ ox) & (parity[None, :] == b ^ oy))
        for c, (ox, oy) in enumerate(PARITY_OFFSETS[degree])
    ])


def _grad_1d(cutoff: int, deform: float) -> np.ndarray:
    """G = d/dx + deform * sin(2 pi x), band N -> band N+1, deform = t a pi: the 1D factor of d_t."""
    if cutoff > MAX_CUTOFF + 1:
        raise ValueError(f"band limit must be at most {MAX_CUTOFF + 1}, got {cutoff}")
    rows, cols = basis_size(cutoff + 1), basis_size(cutoff)
    deriv, sin_mult = _band_tables()
    return deriv[:rows, :cols] + deform * sin_mult[:rows, :cols]


def _differential(degree: int, grad: np.ndarray) -> tuple:
    """d_C out of `degree`, band N -> band N+1: (blocks, G, output components).

    `grad` is G at band N (see _grad_1d); the band embedding E is implicit.
    """
    if degree not in (0, 1, 2, 3):
        raise DegreeError(f"cone degree must be 0..3, got {degree}")
    return DIFFERENTIAL[degree], grad, COMPONENTS[degree + 1]


def _adjoint(degree: int, grad: np.ndarray) -> tuple:
    """d_C* out of `degree` > 0, band N -> band N+1, in the form of `_differential`.

    The transpose of d_C one degree lower and one band higher, applied to the
    form embedded in band N+2: the transposed table, with `grad`, G at band
    N+1, restricted to its band-N rows and transposed (E restricted and
    transposed is E again).
    """
    blocks, grad, _ = _differential(degree - 1, grad)
    transposed = tuple((inp, out, sign, kind) for out, inp, sign, kind in blocks)
    return transposed, grad[: grad.shape[1] - 2].T, COMPONENTS[degree - 1]


def _operators(prob: SpectralProblem) -> list:
    """The maps whose squared norms add up to the form: d_C, and d_C* above degree 0.

    Both read one G at band N+1, d_C through its band-N block (see _band_tables).
    """
    grad = _grad_1d(prob.cutoff + 1, prob.t * prob.morse_scale * math.pi)
    ops = [_differential(prob.degree, grad[:-2, :-2])]
    if prob.degree > 0:
        ops.append(_adjoint(prob.degree, grad))
    return ops


def _kron_matrix(blocks, grad, out_components: int, in_components: int) -> sp.csr_matrix:
    """Sparse matrix of a block operator: each block is sign * kron of its 1D factors.

    The COO entries of kron(A, B) pair each nonzero of A with each nonzero of
    B, both in row-major order, as scipy.sparse.kron lists them.  E's
    nonzeros are the ones on its diagonal.
    """
    import scipy.sparse as sp

    rows_1d, cols_1d = grad.shape
    height, width = rows_1d**2, cols_1d**2
    nonzero = np.nonzero(grad)
    diagonal = np.arange(cols_1d)
    g, e = (*nonzero, grad[nonzero]), (diagonal, diagonal, np.ones(cols_1d))
    factors = {"x": (g, e), "y": (e, g), "w": (e, e)}
    # seeded with empty arrays, so an empty table (out of degree 3) gives a 0-row matrix
    rows, cols, data = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for out, inp, sign, kind in blocks:
        (a_row, a_col, a_val), (b_row, b_col, b_val) = factors[kind]
        rows.append((out * height + a_row[:, None] * rows_1d + b_row).ravel())
        cols.append((inp * width + a_col[:, None] * cols_1d + b_col).ravel())
        data.append(np.outer(sign * a_val, b_val).ravel())
    shape = (out_components * height, in_components * width)
    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(entries, shape=shape)


def _apply(blocks, grad, out_components: int, grids: np.ndarray) -> np.ndarray:
    """A block operator on the coefficient grids of a form, (A(x)B) vec(U) = vec(A U B').

    `grids` holds one form, (components, n, n), or a stack of them with any
    leading axes, each mapped as on its own.  The factor E of "x", "y" and
    "w" only pads with zeros, so each block applies G or nothing and adds
    into, or subtracts from, the padded output's corner.  Matrix-free and
    numpy only: nothing is assembled and scipy is not loaded.
    """
    size, inner = grad.shape[0], grids.shape[-1]
    out = np.zeros(grids.shape[:-3] + (out_components, size, size))
    for o, i, sign, kind in blocks:
        grid = grids[..., i, :, :]
        if kind == "x":  # G(x)E
            term, corner = grad @ grid, out[..., o, :, :inner]
        elif kind == "y":  # E(x)G
            term, corner = grid @ grad.T, out[..., o, :inner, :]
        else:  # E(x)E
            term, corner = grid, out[..., o, :inner, :inner]
        if sign > 0:
            corner += term
        else:
            corner -= term
    return out


def assemble_quadratic_form(prob: SpectralProblem) -> sp.csr_matrix:
    """Sparse Galerkin matrix of |d_C s|^2 + |d_C* s|^2 on band-N cone forms.

    Like an ndarray, the CSR result reports its storage in ``nbytes``.

    Both d_C and d_C* map band N to band N+1 exactly, so the result is
    exactly A = Bu'Bu + Bd'Bd, symmetric and positive semidefinite.
    """
    up, *down = [_kron_matrix(*op, COMPONENTS[prob.degree]) for op in _operators(prob)]
    form = sum((mat.T @ mat for mat in down), up.T @ up).tocsr()
    form.nbytes = form.data.nbytes + form.indices.nbytes + form.indptr.nbytes
    return form


def _form_value(prob: SpectralProblem, vec: np.ndarray) -> float:
    """v.(A v) as |d_C v|^2 + |d_C* v|^2, from the 1D factors without assembling A."""
    size = basis_size(prob.cutoff)
    grids = vec.reshape(-1, size, size)
    return float(sum(np.sum(_apply(*op, grids) ** 2) for op in _operators(prob)))


def _parity_factors(ops: list, cutoff: int) -> dict:
    """The 1D matrices of the degree-1 form, cut to each axis parity p (see _KroneckerSector).

    ("h", p) and ("h'", p) give H = G'G and H' = F'F on parity p as (matrix,
    eigenvalues, eigenvectors), for the G of d_C and the F of d_C* in `ops`
    (see _operators); ("d", p) gives D = G[:2N+1] from parity p to 1 - p.
    G and F flip the parity, so H and H' keep it.
    """
    (_, grad, _), (_, adj, _) = ops
    parity = _axis_parity(cutoff)
    parts = [np.flatnonzero(parity == p) for p in (0, 1)]
    squares, table = {"h": grad.T @ grad, "h'": adj.T @ adj}, {}
    for p, part in enumerate(parts):
        for name, mat in squares.items():
            block = mat[np.ix_(part, part)]
            table[name, p] = (block, *np.linalg.eigh(block))
        table["d", p] = grad[np.ix_(parts[1 - p], part)]
    return table


def _bunch_kaufman_solver(ldu: np.ndarray, piv: np.ndarray) -> tuple:
    """A solver of A x = b from LAPACK's Bunch-Kaufman factor of A, and A's count of negative eigenvalues.

    `ldu` and `piv` are what dsytrf returns for the upper triangle of a
    Fortran-ordered A: A = U D U' with U a product of interchanges and unit
    upper triangular blocks, and D block diagonal with 1x1 and 2x2 pivots.
    The 1x1 pivots count by sign, and each 2x2 pivot holds one negative
    eigenvalue (its determinant is negative by the pivoting rule).  A factor
    with no interchange and no 2x2 pivot, as every sector's Schur complement
    has had, is A = U D U' with U unit upper triangular and D diagonal: a
    solve is dtrsv with U and with U' around D^-1, two level-2 BLAS calls,
    where dsytrs walks U one column at a time.  Any other factor is solved by
    dsytrs, which leaves it unchanged.  `ldu` must stay unchanged while the
    solver is in use.
    """
    from scipy.linalg.blas import dtrsv

    size, one, diagonal = len(piv), piv > 0, ldu.diagonal()
    below = int(np.count_nonzero(diagonal[one] < 0)) + int(np.count_nonzero(~one)) // 2
    if not np.array_equal(piv, np.arange(1, size + 1)):
        from scipy.linalg.lapack import dsytrs

        return (lambda rhs: dsytrs(ldu, piv, rhs, lower=0)[0]), below
    scale = 1.0 / diagonal

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = scale * dtrsv(ldu, rhs, lower=0, trans=0, diag=1)
        return dtrsv(ldu, y, lower=0, trans=1, diag=1, overwrite_x=True)

    return solve, below


class _SchurBuffer:
    """The one dense Schur complement of the process, and the chunk its product goes through.

    A sector factorization writes its Schur complement on u into `matrix`'s
    storage and LAPACK factors it there, in place, so a solver reads the
    buffer until the next factorization overwrites it: `generation` counts
    factorizations, and a solver made at an earlier one refuses to run.
    Both arrays are allocated at the first factorization, each grown to the
    largest size a factorization has asked for, and kept for the process,
    as the tables of _band_tables are: at most (SCHUR_MAX_CUTOFF + 1)^4
    doubles, 2.65 MB, and a chunk of at most (SCHUR_MAX_CUTOFF + 1)^3
    doubles, 108 KiB, as many as the product for one x index of u, or the
    outer products of the columns of Yp or Xq, take (see
    _KroneckerSector.factor).  Reusing them, a factorization takes no page
    from the OS.
    """

    def __init__(self):
        self.storage, self.chunk, self.generation = np.empty(0), np.empty(0), 0

    def matrix(self, size: int, chunk: int) -> tuple:
        """A C-ordered (size, size) view of the buffer, a chunk of >= `chunk` doubles, the generation."""
        if self.storage.size < size * size:
            self.storage = np.empty(size * size)
        if self.chunk.size < chunk:
            self.chunk = np.empty(chunk)
        self.generation += 1
        return self.storage[: size * size].reshape(size, size), self.chunk, self.generation


_SCHUR = _SchurBuffer()


class _KroneckerSector:
    """One parity sector of the degree-1 form as an operator on its 1D factors.

    In the components P, Q and u on their grids the form is [[K_P, 0, C_P],
    [0, K_Q, C_Q], [C_P', C_Q', K_u]] with

        K_P = H'(x)I + I(x)H,  K_Q = H(x)I + I(x)H',  K_u = I + H(x)I + I(x)H,
        C_P = -I(x)D',  C_Q = D'(x)I,

    for H, H' and D of _parity_factors, each cut to the parity of its axis
    and component in the sector (PARITY_OFFSETS).  The P-Q block is zero
    because F's band-N rows are D'.  Vectors hold (P^, Q^, u): P and Q in the
    orthogonal eigenbases of their 1D factors, P^ = Vpx' P Vpy and Q^ = Vqx' Q
    Vqy, and u on its grid, each flattened row-major.  There K_P and K_Q are
    the diagonals Lp and Lq of 1D eigenvalue sums, and the couplings read
    Yp = D Vpy and Xq = D Vqx:

        B (P^, Q^, u) = (Lp o P^ - Vpx' u Yp,  Lq o Q^ + Xq' u Vqy,
                         K_u u - Vpx P^ Yp' + Xq Q^ Vqy').

    `@` applies B and `toarray` writes it out in these coordinates, neither
    through an assembled form; `to_grid` maps vectors to the grid order of
    _sector_indices.  The map is orthogonal, so Lanczos and its residual gate
    run here and only cluster vectors are mapped.
    """

    dtype = np.dtype(float)

    def __init__(self, factors: dict, sector: tuple):
        (px, py), (qx, qy), (ux, uy) = [(sector[0] ^ ox, sector[1] ^ oy) for ox, oy in PARITY_OFFSETS[1]]
        (_, lpx, vpx), (_, lpy, vpy) = factors["h'", px], factors["h", py]
        (_, lqx, vqx), (_, lqy, vqy) = factors["h", qx], factors["h'", qy]
        self._sums = (lpx[:, None] + lpy[None, :], lqx[:, None] + lqy[None, :])
        self._bases = (vpx, vpy, vqx, vqy)
        # P's y and Q's x coupled into u's, through the eigenvectors of P and Q
        self._yp, self._xq = factors["d", py] @ vpy, factors["d", qx] @ vqx
        self._hux, self._huy = factors["h", ux][0], factors["h", uy][0]
        self._shapes = [(len(vpx), len(vpy)), (len(vqx), len(vqy)), (len(self._hux), len(self._huy))]
        ends = np.cumsum([nx * ny for nx, ny in self._shapes]).tolist()
        self._slices = [slice(start, end) for start, end in zip([0, *ends], ends)]
        self.shape = (ends[-1], ends[-1])
        # the two factors of the Schur product (see factor), with the entries
        # that do not depend on the shift; each factorization writes the rest
        npx, (nux, nuy) = len(vpx), self._shapes[2]
        self._left = np.empty((nux * nux, npx + nuy + 2))
        np.multiply(vpx[:, None, :], vpx[None, :, :], out=self._left[:, :npx].reshape(nux, nux, npx))
        self._left[:, -2] = np.eye(nux).reshape(-1)
        self._left[:, -1] = self._hux.reshape(-1)
        self._right = np.empty((npx + nuy + 2, nuy * nuy))
        np.multiply(vqy.T[:, :, None], vqy.T[:, None, :], out=self._right[npx:-2].reshape(nuy, nuy, nuy))
        self._right[-1] = np.eye(nuy).reshape(-1)

    def _map(self, vecs: np.ndarray, parts) -> np.ndarray:
        """parts(P, Q, u) on the components of a vector, or of each column of a matrix.

        Each component comes as a (columns, nx, ny) stack, and the three
        stacks parts returns are written back in the shape of `vecs`.
        """
        stack = vecs.T.reshape(-1, self.shape[0])
        out = np.empty_like(stack)
        grids = [stack[:, part].reshape(-1, *shape) for part, shape in zip(self._slices, self._shapes)]
        for part, grid in zip(self._slices, parts(*grids)):
            out[:, part] = grid.reshape(len(stack), part.stop - part.start)
        return out.T.reshape(vecs.shape)

    def __matmul__(self, vecs: np.ndarray) -> np.ndarray:
        vpx, _, _, vqy = self._bases
        yp, xq = self._yp, self._xq
        return self._map(vecs, lambda p, q, u: (
            self._sums[0] * p - vpx.T @ u @ yp,
            self._sums[1] * q + xq.T @ u @ vqy,
            u + self._hux @ u + u @ self._huy - vpx @ p @ yp.T + xq @ q @ vqy.T,
        ))

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.shape[0])

    def to_grid(self, vecs: np.ndarray) -> np.ndarray:
        """Vectors, or the columns of a matrix, in the grid order of _sector_indices."""
        vpx, vpy, vqx, vqy = self._bases
        return self._map(vecs, lambda p, q, u: (vpx @ p @ vpy.T, vqx @ q @ vqy.T, u))

    def factor(self, shift: float) -> tuple:
        """A solver of (B - shift) x = b and the number of eigenvalues of B below shift.

        By block elimination (Haynsworth's inertia split) B - shift has the
        inertia of K_P - shift, of K_Q - shift, and of the Schur complement on u,
        S = K_u - shift - C_P'(K_P - shift)^-1 C_P - C_Q'(K_Q - shift)^-1 C_Q.
        K_P and K_Q are diagonal in these coordinates (fast diagonalization),
        so their counts are the sums of 1D eigenvalues below the shift, and
        each congruence in S is one matrix product over the eigenvalue index
        of the diagonalized axis.  S, about (N+1)^2 rows, dense, is written
        into the process's one Schur buffer (_SchurBuffer) and factored there
        by LAPACK's Bunch-Kaufman dsytrf, whose factor gives S's inertia and
        a solver (_bunch_kaufman_solver).  With Wp = 1 / (Lp - shift) and Wq
        alike, a solve is four products into the right side of S u = b_u +
        Vpx (Wp o b_P) Yp' - Xq (Wq o b_Q) Vqy', that solver, and four back:
        P^ = Wp o (b_P + Vpx' u Yp), Q^ = Wq o (b_Q - Xq' u Vqy).  A sum
        equal to the shift, or an exactly singular pivot of S, is a
        SolverError; so is a solve after the buffer has been factored again.
        """
        from scipy.linalg.blas import dgemm
        from scipy.linalg.lapack import dsytrf

        below, weights = 0, []
        for sums in self._sums:
            shifted = sums - shift
            if not np.all(shifted):
                raise SolverError(f"a sum of 1D eigenvalues equals the shift {shift:.9g}")
            below += int(np.count_nonzero(shifted < 0))
            weights.append(1.0 / shifted)
        w_p, w_q = weights
        vpx, _, _, vqy = self._bases
        yp, xq = self._yp, self._xq
        (npx, _), _, (nux, nuy) = self._shapes
        chunk_size = max(yp.size * nuy, xq.size * nux, nux * nuy * nuy)
        schur, chunk, generation = _SCHUR.matrix(nux * nuy, chunk_size)
        # S at (i k, j l), u's x index i, j and y index k, l, is
        #   sum_a vpx[i a] vpx[j a] T_P[a k l] + sum_b T_Q[b i j] vqy[k b] vqy[l b]
        #   + delta_ij (H_y + (1 - shift) I)[k l] + (H_x)[i j] delta_kl,
        # T_P[a] = -Yp diag(w_p[a]) Yp' and T_Q[b] = -Xq diag(w_q[:, b]) Xq'.
        # In the rows (i j) and columns (k l) of the product left @ right this
        # is (i j, a | b | 1 | 1) @ (a | b | 1 | 1, k l): the last two terms
        # are outer products of flattened matrices.  T_P and T_Q are products
        # over the eigenvalue index of the outer products of the columns of
        # Yp and Xq, each made in the chunk as a batched matmul, which, unlike
        # a broadcast multiply, allocates no buffer
        left, right = self._left, self._right
        pairs = np.matmul(yp.T[:, :, None], yp.T[:, None, :], out=chunk[: yp.size * nuy].reshape(-1, nuy, nuy))
        np.matmul(-w_p, pairs.reshape(-1, nuy * nuy), out=right[:npx])
        right[-2] = (self._huy + (1.0 - shift) * np.eye(nuy)).reshape(-1)
        pairs = np.matmul(xq.T[:, :, None], xq.T[:, None, :], out=chunk[: xq.size * nux].reshape(-1, nux, nux))
        np.matmul(pairs.reshape(-1, nux * nux).T, -w_q, out=left[:, npx:-2])
        # numpy and scipy may each bring their own BLAS with its own thread
        # pool: the products of S run in scipy's, as dsytrf does, so that
        # only one pool wakes (two pools' idle-spinning workers made a degree-1
        # solve at t = 40, N = 19 twice as slow with two BLAS threads).
        # dsytrf reads only the lower triangle of S, the columns (j l) with
        # j <= i of the rows (i k), so the product is made one i at a time
        # for the rows (i j), j <= i, only: dgemm writes right' left' of them,
        # in Fortran order, into the chunk, and its transpose, those rows of
        # left @ right, is copied to the rows (i k).  The upper triangle keeps
        # whatever the buffer held
        for i in range(nux):
            prod = chunk[: (i + 1) * nuy * nuy].reshape(nuy * nuy, i + 1, order="F")
            prod = dgemm(1.0, right.T, left[i * nux : i * nux + i + 1].T, c=prod, overwrite_c=True).T
            schur[i * nuy : (i + 1) * nuy, : (i + 1) * nuy].reshape(nuy, i + 1, nuy)[...] = (
                prod.reshape(i + 1, nuy, nuy).transpose(1, 0, 2)
            )
        # the transpose is Fortran-ordered, so dsytrf factors it in place; the
        # wrapper's default workspace is unblocked and about 4x slower
        ldu, piv, info = dsytrf(schur.T, lwork=32 * len(schur), overwrite_a=True)
        if info > 0:
            raise SolverError(f"Schur complement exactly singular at pivot {info}")
        schur_solve, schur_below = _bunch_kaufman_solver(ldu, piv)
        below += schur_below
        (at_p, at_q, at_u), (shape_p, shape_q, _) = self._slices, self._shapes

        def solve(vec):
            if _SCHUR.generation != generation:
                raise SolverError("a solve after the Schur buffer was factored again")
            p, q = vec[at_p].reshape(shape_p), vec[at_q].reshape(shape_q)
            rhs = vec[at_u].reshape(nux, nuy) + vpx @ (w_p * p) @ yp.T - xq @ (w_q * q) @ vqy.T
            u = schur_solve(rhs.reshape(-1)).reshape(nux, nuy)
            out = np.empty(self.shape[0])
            out[at_p] = ((p + vpx.T @ u @ yp) * w_p).reshape(-1)
            out[at_q] = ((q - xq.T @ u @ vqy) * w_q).reshape(-1)
            out[at_u] = u.reshape(-1)
            return out

        return solve, below


def _factor(block, shift: float):
    """A solver of (block - shift*I) x = b and the number of eigenvalues below shift.

    A _KroneckerSector factors itself.  A sparse block is factored by SuperLU:
    in symmetric mode with equal row and column permutations P, P (A -
    shift*I) P' = L D L' with D = diag(U); by Sylvester's law of inertia A has
    as many eigenvalues below the shift as D has negative entries.  Each
    solve takes one step of iterative refinement, x + solve(b - (A -
    shift*I) x): without it Lanczos at t = 40, N = 30, degree 1 left a
    residual at 1.03 of the gate (see _sector_spectrum), with it 0.0014.
    """
    if isinstance(block, _KroneckerSector):
        return block.factor(shift)
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    shifted = (block - shift * sp.identity(block.shape[0], format="csr")).tocsc()
    try:
        factor = splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise SolverError("factorization pivoted off the diagonal: no inertia to read")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = factor.solve(rhs)
        return x + factor.solve(rhs - shifted @ x)

    return solve, int(np.count_nonzero(factor.U.diagonal() < 0))


def _sector_spectrum(block, weight: int, wanted: int) -> tuple:
    """The lowest eigenvalues of one sector block, ascending, their vectors, and its cluster count n.

    `block` is a sparse matrix or a _KroneckerSector; _factor factors either.

    n, the number of eigenvalues <= LOW_THRESHOLD, is the inertia of the
    factor there.  Of the `wanted` lowest eigenvalues the form still lacks,
    all but n would lie above the threshold, and a sector standing for
    `weight` sectors supplies at most ceil((wanted - weight * n) / weight) of
    those; so n plus that many, and one at least, are asked for.  The values
    come from shift-invert Lanczos on the factor, stopped at LANCZOS_TOL, or
    a dense solve of all when k >= size - 1 leaves ARPACK no room.  Lanczos
    finds the values nearest the shift, the lowest ones iff all n are among
    them; a SolverError says they are not.  Each value theta above the
    threshold must have a residual |(B - theta) v| <= RESIDUAL_TOL * max(1,
    theta), which by Weyl's bound caps its error; a SolverError says one has
    not.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    size = block.shape[0]
    solve, below = _factor(block, LOW_THRESHOLD)
    k = below + max(1, -(-(wanted - weight * below) // weight))
    if k >= size - 1:
        vals, vecs = np.linalg.eigh(block.toarray())
    else:
        try:
            vals, vecs = eigsh(
                block,
                k=k,
                sigma=LOW_THRESHOLD,
                # a fixed start vector: ARPACK draws its default afresh on
                # every call, so repeated solves would differ in the last digits
                v0=np.random.default_rng(0).standard_normal(size),
                OPinv=LinearOperator((size, size), matvec=solve, dtype=block.dtype),
                tol=LANCZOS_TOL,
            )
        except ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
    found = int(np.count_nonzero(vals <= LOW_THRESHOLD))
    if found != below:
        raise SolverError(
            f"eigensolver found {found} eigenvalue(s) <= {LOW_THRESHOLD:g}, inertia counts {below}"
        )
    # ARPACK's stopping rule bounds the residual of the inverted operator, not of B
    high = vals > LOW_THRESHOLD
    residuals = np.linalg.norm(block @ vecs[:, high] - vecs[:, high] * vals[high], axis=0)
    bounds = RESIDUAL_TOL * np.maximum(1.0, vals[high])
    if not np.all(residuals <= bounds):
        worst = np.argmax(residuals / bounds)
        raise SolverError(
            f"eigensolver residual {residuals[worst]:.3g} exceeds {bounds[worst]:.3g} "
            f"at eigenvalue {vals[high][worst]:.9g}"
        )
    order = np.argsort(vals)
    return vals[order], vecs[:, order], below


def _cluster_values(prob: SpectralProblem, ops: list, idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Squared singular values of [d_C; d_C*] on a sector's cluster vectors, ascending.

    These are the Rayleigh-Ritz values of the form on the vectors' span,
    which lambda = sigma + 1/mu from shift-invert Lanczos gets only to about
    eps |A|, and can print negative, when lambda is near 0.  Each column of
    `vecs` is scattered from the sector indices `idx` into the grid, and the
    stack of them is mapped matrix-free in one call per map.  The values
    stay <= LOW_THRESHOLD: the inertia counted them there.
    """
    size, count = basis_size(prob.cutoff), vecs.shape[1]
    grids = np.zeros((count, matrix_size(prob.degree, prob.cutoff)))
    grids[:, idx] = vecs.T
    stack = grids.reshape(count, -1, size, size)
    images = np.concatenate([_apply(*op, stack).reshape(count, -1) for op in ops], axis=1)
    sq = np.sort(np.linalg.svd(images, compute_uv=False) ** 2)
    return np.minimum(sq, LOW_THRESHOLD)


def low_spectrum(prob: SpectralProblem, count: int) -> np.ndarray:
    """The smallest `count` eigenvalues of the assembled form, ascending.

    `count` must be an integer, not a bool, from 1 to the form's size; any
    other is a ValueError, raised before any work.  Degrees 2 and 3 are
    solved as their duals 1 and 0 (DUAL_PAIR), to the same bits.  Degree 0
    takes the `count` smallest pairwise sums of the squared singular values
    of the 1D factor G, without assembling the form or loading scipy.
    Degree 1 splits into the sectors of SECTORS, built from 1D matrices up
    to SCHUR_MAX_CUTOFF and sliced from the assembled form above it, each
    solved once (see _sector_spectrum) with the cluster counts of the
    sectors solved before it known: the form's lowest `count` values are its
    whole cluster and the lowest ones above the threshold, so each is among
    those of its sector, and the merge holds them all.  The last sector is
    skipped when its inertia at the count-th value found so far proves it
    holds none of them.  The cluster values are then taken from the Ritz
    vectors (see _cluster_values).
    """
    size = matrix_size(prob.degree, prob.cutoff)
    if not _is_integer(count) or not 1 <= count <= size:
        raise ValueError(
            f"requested {count!r} eigenvalues of a {size}-dim form; count must be an integer from 1 to {size}"
        )
    if DUAL_PAIR[prob.degree] == 0:
        grad = _grad_1d(prob.cutoff, prob.t * prob.morse_scale * math.pi)
        # the count smallest sums use only the count smallest 1D values
        vals = np.sort(np.linalg.svd(grad, compute_uv=False) ** 2)[:count]
        return np.sort((vals[:, None] + vals[None, :]).ravel())[:count]
    # degree 2 has the form of degree 1 up to a signed permutation
    prob = replace(prob, degree=1)
    ops = _operators(prob)
    # the one choice between the two factorizations of a sector
    if prob.cutoff <= SCHUR_MAX_CUTOFF:
        factors = _parity_factors(ops, prob.cutoff)
        sector_block = lambda sector, idx: _KroneckerSector(factors, sector)  # noqa: E731
    else:
        form = assemble_quadratic_form(prob)
        sector_block = lambda sector, idx: form[idx][:, idx]  # noqa: E731
    merged, known = np.zeros(0), 0
    for sector, weight in SECTORS:
        idx = _sector_indices(prob.degree, prob.cutoff, sector)
        block = sector_block(sector, idx)
        if sector == SECTORS[-1][0] and len(merged) >= count and merged[count - 1] > LOW_THRESHOLD:
            # the last sector holds a value among the lowest `count` only if it
            # has one below beta, the count-th found so far, which is above the
            # threshold: an inertia of 0 there settles it without Lanczos.  A
            # factorization singular at beta, where the sector holds beta to
            # rounding, settles nothing
            try:
                settled = _factor(block, merged[count - 1])[1] == 0
            except SolverError:
                settled = False
            if settled:
                break
        vals, vecs, below = _sector_spectrum(block, weight, count - known)
        if below:
            cluster = vecs[:, :below]
            if isinstance(block, _KroneckerSector):
                cluster = block.to_grid(cluster)
            vals[:below] = _cluster_values(prob, ops, idx, cluster)
        del block  # one sector slice at a time
        known += weight * below
        merged = np.sort(np.concatenate([merged, np.repeat(vals, weight)]))
    return merged[:count]


def spectral_report(prob: SpectralProblem) -> SpectralReport:
    """The lowest REPORT_COUNT eigenvalues, low-cluster count, gap and cluster ratio at one degree.

    The gap is the first eigenvalue above LOW_THRESHOLD, or inf when the
    cluster fills all REPORT_COUNT values.  cluster_ratio is gap / max(cluster
    top, floor), or 0 when there is no gap or no eigenvalue under the
    threshold at all (no resolved cluster).
    """
    vals = low_spectrum(prob, REPORT_COUNT)
    low = vals[vals <= LOW_THRESHOLD]
    low_count = int(len(low))
    if low_count == len(vals):
        gap, ratio = math.inf, 0.0
    else:
        gap = float(vals[low_count])
        ratio = gap / max(float(low[-1]), 1e-12) if low_count else 0.0
    return SpectralReport(
        degree=prob.degree,
        t=prob.t,
        cutoff=prob.cutoff,
        eigenvalues=vals,
        low_count=low_count,
        gap=gap,
        cluster_ratio=ratio,
    )


def suggested_cutoff(t: float) -> int:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return math.ceil(2.0 * math.sqrt(t)) + 6


def _settled_cutoff(t: float, cutoff: Optional[int]) -> int:
    """`cutoff`, or suggested_cutoff(t) when it is None, refused without printing it above the cap."""
    if cutoff is None:
        cutoff = suggested_cutoff(t)
        if cutoff > MAX_CUTOFF:
            raise ValueError(f"t = {t:g} needs a cutoff above the cap {MAX_CUTOFF}")
    return cutoff


def _require_adequate(report: SpectralReport) -> None:
    if report.cluster_ratio < ADEQUACY_RATIO:
        hint = max(suggested_cutoff(report.t), report.cutoff + 2)
        if hint > MAX_CUTOFF:
            hint = None
            advice = f"no cutoff up to the cap {MAX_CUTOFF} resolves the cluster"
        else:
            advice = f"try cutoff >= {hint}"
        raise AdequacyError(
            f"cluster ratio {report.cluster_ratio:.3g} < {ADEQUACY_RATIO} at degree "
            f"{report.degree} (t={report.t}, cutoff={report.cutoff}); {advice}",
            suggested_cutoff=hint,
        )


def _problems(t: float, cutoff: Optional[int], degrees: Sequence[int], morse_scale: float) -> list:
    """The SpectralProblem of each requested degree at one t, each checked on construction.

    `cutoff` None takes suggested_cutoff(t), refused above MAX_CUTOFF; a
    repeated degree is refused.
    """
    if len(set(degrees)) != len(degrees):
        raise ValueError(f"cone degrees {list(degrees)} repeat a degree")
    cutoff = _settled_cutoff(t, cutoff)
    return [SpectralProblem(t, cutoff, k, morse_scale) for k in degrees]


def _solve_reports(problems: Sequence[SpectralProblem]) -> dict:
    """The SpectralReport of each problem, in order, each gated on adequacy.

    Each dual pair of DUAL_PAIR is solved once, at its first problem.
    """
    reports, solved = {}, {}
    for prob in problems:
        pair = DUAL_PAIR[prob.degree]
        if pair not in solved:
            solved[pair] = spectral_report(prob)
        reports[prob.degree] = replace(solved[pair], degree=prob.degree)
        _require_adequate(reports[prob.degree])
    return reports


def spectral_reports(
    t: float,
    cutoff: Optional[int] = None,
    degrees: Sequence[int] = (0, 1, 2, 3),
    morse_scale: float = 1.0,
) -> dict:
    """The SpectralReport of each requested cone degree, in request order, each gated on adequacy.

    `cutoff` None takes suggested_cutoff(t), refused above MAX_CUTOFF.  A
    repeated degree or an invalid problem is refused before the first solve.
    Each dual pair of DUAL_PAIR is solved once, at its first requested degree.
    """
    return _solve_reports(_problems(t, cutoff, degrees, morse_scale))


@dataclass
class GapGrowthResult:
    t_values: list
    cutoffs: list
    gaps: list
    slope: float
    degenerate: bool  # zero spread in t: the fit means nothing


def gap_growth(
    t_values: Sequence[float],
    cutoff: Optional[int] = None,
    degrees: Sequence[int] = (1,),
    morse_scale: float = 1.0,
) -> dict:
    """Least-squares slope of gap(t) against t, per requested cone degree.

    The gap of the deformed cone Laplacian grows linearly in t (the local
    model spectrum is equally spaced with step proportional to t), so the
    slope must come out positive.  Needs at least three t values.  Every
    cutoff is settled, and every problem of every t built and so checked,
    before the first solve; each t is then solved as by spectral_reports.
    """
    ts = [float(t) for t in t_values]
    if len(ts) < 3:
        raise ValueError(f"gap growth needs >= 3 deformation values, got {len(ts)}")
    problems = [_problems(t, cutoff, degrees, morse_scale) for t in ts]
    runs = [_solve_reports(probs) for probs in problems]
    tbar = sum(ts) / len(ts)
    spread = sum((t - tbar) ** 2 for t in ts)
    fits = {}
    for k in degrees:
        gaps = [run[k].gap for run in runs]
        gbar = sum(gaps) / len(gaps)
        slope = sum((t - tbar) * (g - gbar) for t, g in zip(ts, gaps)) / spread if spread else 0.0
        cutoffs = [run[k].cutoff for run in runs]
        fits[k] = GapGrowthResult(list(ts), cutoffs, gaps, slope, not spread)
    return fits


# ---------------------------------------------------------------------------
# quasimodes


def _bump(rho: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 inside `BUMP_INNER`, 0 outside `BUMP_OUTER`.

    Supports of radius 1/4 around neighboring critical points (spacing 1/2)
    stay disjoint; the plateau sits at 0.2 so the transition annulus only sees
    the far Gaussian tail and contributes negligibly to the Rayleigh quotient.
    On the annulus the value is r(u) / (r(u) + r(1 - u)) with r(u) = exp(-1/u)
    and u = (BUMP_OUTER - rho) / (BUMP_OUTER - BUMP_INNER) in (0, 1].
    """
    out = (rho <= BUMP_INNER).astype(float)
    ring = (rho > BUMP_INNER) & (rho < BUMP_OUTER)
    u = (BUMP_OUTER - rho[ring]) / (BUMP_OUTER - BUMP_INNER)
    near = np.exp(-1.0 / u)
    # 1 - u may round to 0 next to the plateau, where the value is 1
    out[ring] = near / (near + np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)))
    return out


def _basis_values_1d(cutoff: int, grid: np.ndarray) -> np.ndarray:
    """The basis 1, sqrt2 cos(2 pi m x), sqrt2 sin(2 pi m x) (m <= N) on `grid`, one row each."""
    phase = (2.0 * math.pi * np.arange(1, cutoff + 1))[:, None] * grid
    rows = np.empty((basis_size(cutoff), grid.size))
    rows[0] = 1.0
    rows[1::2] = math.sqrt(2.0) * np.cos(phase)
    rows[2::2] = math.sqrt(2.0) * np.sin(phase)
    return rows


@functools.lru_cache(maxsize=1)
def _quasimode_basis(cutoff: int) -> np.ndarray:
    """_basis_values_1d on the quasimode grid of 4N points, kept for the last band limit."""
    npts = 4 * cutoff
    return _read_only(_basis_values_1d(cutoff, np.arange(npts) / npts))


@functools.lru_cache(maxsize=len(CRITICAL_POINTS))
def _quasimode_grid(cutoff: int, point: str) -> tuple:
    """The t-independent fields of a quasimode at `point` on the 4N grid, kept for the last band limit.

    The wrapped displacements xs, ys from the point along each axis, the
    well profile (1 - cos 2 pi X)/2 on each, and the bump on the 4N x 4N
    grid, each computed as the uncached construction did it, all read-only.
    The bump is 2 MiB at MAX_CUTOFF; the cache holds every point at one
    band limit, at most 8.1 MiB.
    """
    px, py = CRITICAL_POINTS[point]
    npts = 4 * cutoff
    grid = np.arange(npts) / npts
    xs = ((grid - px + 0.5) % 1.0) - 0.5
    ys = ((grid - py + 0.5) % 1.0) - 0.5
    wells = [0.5 - 0.5 * np.cos(2.0 * math.pi * d) for d in (xs, ys)]
    bump = _bump(np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2))
    return tuple(_read_only(table) for table in (xs, ys, *wells, bump))


@dataclass
class QuasimodeResult:
    point: str
    kind: int
    degree: int
    coefficients: np.ndarray
    rayleigh: float


def quasimode(prob: SpectralProblem, point: str, kind: int) -> QuasimodeResult:
    """Localized approximate eigenvector at one critical point, and its Rayleigh quotient.

    Kind 1 lives at cone degree index(point) and pairs the Gaussian-weighted
    descending coordinate form with a radial interior-product partner (nonzero
    only at the index-2 point); kind 2 lives one degree higher and pairs a
    rotational one-form partner (nonzero only at the index-0 point) with the
    Gaussian form itself.  The local fields solve the quadratic-model harmonic
    equations exactly; a smooth bump of radius 1/4 keeps neighboring supports
    disjoint.  The mode is expanded on a 4N x 4N grid by the trapezoidal rule,
    normalized, and rated as |d_C v|^2 + |d_C* v|^2 from the 1D factors of
    d_C, without assembling the form (numpy only; scipy is not loaded).  Only
    the two 1D exponentials depend on t: the rest of the grid is a table (see
    _quasimode_grid), and only the nonzero components are projected.
    """
    if point not in CRITICAL_POINTS:
        raise KeyError(f"unknown critical point {point!r}; choose from {sorted(CRITICAL_POINTS)}")
    if not _is_integer(kind) or kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind!r}")
    if prob.morse_scale < 0:
        raise ValueError(
            f"quasimodes are built for +f; morse_scale must be positive, got {prob.morse_scale}"
        )
    px, py = CRITICAL_POINTS[point]
    descending = (px == 0.5, py == 0.5)
    index = int(descending[0]) + int(descending[1])
    expected_degree = index if kind == 1 else index + 1
    if prob.degree != expected_degree:
        raise DegreeMismatchError(
            f"kind {kind} at {point} (index {index}) lives at cone degree "
            f"{expected_degree}, not {prob.degree}"
        )

    xs, ys, wells_x, wells_y, bump = _quasimode_grid(prob.cutoff, point)
    x1, x2 = xs[:, None], ys[None, :]  # broadcast over the grid
    # product profile exp(-t a sum_i (1 - cos(2 pi X_i))/2) in the wrapped
    # displacement X: the chart Gaussian expressed in torus coordinates (f is
    # exactly quadratic in the chart), identical for ascending and descending
    # directions and exactly deformed-harmonic on the whole torus, so only the
    # cutoff and the cubic remainder of the partner fields contribute to the
    # Rayleigh quotient.  It is the outer product of its two 1D factors
    ta = prob.t * prob.morse_scale
    gx, gy = (np.exp(-ta * wells) for wells in (wells_x, wells_y))
    gauss = bump * (gx[:, None] * gy[None, :])

    # the nonzero components, by their place among COMPONENTS[degree]
    if kind == 1 and index == 0:
        components = {0: gauss}
    elif kind == 2 and index == 0:
        # eta = -tau ^ zeta with the rotational primitive tau of omega
        components = {0: 0.5 * x2 * gauss, 1: -0.5 * x1 * gauss, 2: gauss}
    elif kind == 1 and index == 1:
        components = {0 if descending[0] else 1: gauss}
    elif kind == 2 and index == 1:
        components = {1 if descending[0] else 2: gauss}
    elif kind == 1 and index == 2:
        # radial interior-product partner; coefficient fixed by the adjoint equation
        components = {0: gauss, 1: -0.5 * x1 * gauss, 2: -0.5 * x2 * gauss}
    else:  # kind == 2 and index == 2
        components = {0: gauss}

    # trapezoidal projection of every nonzero component onto the product basis at once
    npts = 4 * prob.cutoff
    basis = _quasimode_basis(prob.cutoff)
    size = basis_size(prob.cutoff)
    grids = np.zeros((COMPONENTS[prob.degree], size, size))
    grids[list(components)] = basis @ np.array(list(components.values())) @ basis.T / npts**2
    vec = grids.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise SolverError("quasimode projected to zero")
    vec = vec / norm
    return QuasimodeResult(point, kind, prob.degree, vec, _form_value(prob, vec))


def eigenvalues_to_csv(reports: Sequence[SpectralReport]) -> str:
    lines = ["degree,index,eigenvalue"]
    for rep in reports:
        for i, val in enumerate(rep.eigenvalues):
            lines.append(f"{rep.degree},{i},{val:.9e}")
    return "\n".join(lines) + "\n"


def gap_growth_to_csv(result: GapGrowthResult) -> str:
    lines = ["t,gap"]
    for t, g in zip(result.t_values, result.gaps):
        lines.append(f"{t:.9e},{g:.9e}")
    return "\n".join(lines) + "\n"
