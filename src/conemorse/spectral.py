"""Witten deformation of the cone Laplacian on the flat two-torus.

The torus carries omega = dx^dy, the flat metric, and the Morse function
f = a*(2 - (cos 2 pi x + cos 2 pi y)/2).  Cone forms of degree k pair a
k-form with a (k-1)-form; the deformed differential and its adjoint are

    d_C = [[d_t, w], [0, -d_t]],      d_C* = [[d_t*, 0], [L, -d_t*]],

with d_t = d + t df^ and L the pointwise adjoint of the wedge map w.  The
quadratic form |d_C s|^2 + |d_C* s|^2 is assembled exactly on the real
trigonometric basis: multiplying by sin(2 pi x) raises the band limit by
exactly one, so images of band-N forms are computed in band N+1 and inner
products taken on the orthonormal basis.  The assembled matrix is symmetric
positive semidefinite by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import AdequacyError, DegreeError, DegreeMismatchError, SolverError

# scipy.sparse and its ARPACK solver are imported inside the functions that use
# them, so the exact side, which never builds a form, does not load them (about
# 3.5 MB of resident memory in an `analyze` process)
if TYPE_CHECKING:
    import scipy.sparse as sp

LOW_THRESHOLD = 1.0  # eigenvalues in [0, 1] count as the low cluster
ADEQUACY_RATIO = 10.0  # gap must exceed the cluster top by this factor
# shift-invert target: strictly below the spectrum of the positive semidefinite
# form, so A - SHIFT*I stays positive definite even when the low cluster sits
# at 1e-10, and the eigenvalues nearest the shift are the lowest ones
SHIFT = -1e-3
COMPONENTS = (1, 3, 3, 1)  # coefficient fields per cone degree on T^2

# the four critical points of the cosine Morse function, keyed like torus(1)
CRITICAL_POINTS = {
    "q0": (0.0, 0.0),
    "q1": (0.5, 0.0),
    "q2": (0.0, 0.5),
    "q12": (0.5, 0.5),
}


@dataclass(frozen=True)
class SpectralProblem:
    """Configuration of one deformed-cone eigenvalue computation.

    ``morse_scale`` is the amplitude a of f; a negative value deforms by -f
    (degree k at -a mirrors degree 3 - k at a).
    """

    t: float
    cutoff: int
    degree: int = 1
    morse_scale: float = 1.0

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.degree not in (0, 1, 2, 3):
            raise DegreeError(f"cone degree must be 0..3, got {self.degree}")
        if self.morse_scale == 0:
            raise ValueError(f"morse_scale must be nonzero, got {self.morse_scale}")


@dataclass
class SpectralReport:
    degree: int
    t: float
    cutoff: int
    eigenvalues: np.ndarray  # ascending; enough to see past the low cluster
    low_count: int
    gap: float
    cluster_ratio: float


def basis_size(cutoff: int) -> int:
    """Real trigonometric functions per axis: 1, cos/sin of 2 pi m x, m <= N."""
    return 2 * cutoff + 1


def matrix_size(degree: int, cutoff: int) -> int:
    return COMPONENTS[degree] * basis_size(cutoff) ** 2


def _deriv_1d(cutoff: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    n = basis_size(cutoff)
    mat = sp.lil_matrix((n, n))
    for m in range(1, cutoff + 1):
        mat[2 * m, 2 * m - 1] = -2.0 * math.pi * m  # d/dx cos -> sin
        mat[2 * m - 1, 2 * m] = 2.0 * math.pi * m  # d/dx sin -> cos
    return mat.tocsr()


def _sin_mult_1d(cutoff: int) -> sp.csr_matrix:
    """Multiplication by sin(2 pi x): band N -> band N+1, exact."""
    import scipy.sparse as sp

    rows = basis_size(cutoff + 1)
    cols = basis_size(cutoff)
    mat = sp.lil_matrix((rows, cols))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    mat[2, 0] = inv_sqrt2  # sin * 1
    for m in range(1, cutoff + 1):
        mat[2 * (m + 1), 2 * m - 1] = 0.5  # sin * cos_m -> sin_{m+1}
        if m >= 2:
            mat[2 * (m - 1), 2 * m - 1] = -0.5  # ... -> -sin_{m-1}
        if m >= 2:
            mat[2 * (m - 1) - 1, 2 * m] = 0.5  # sin * sin_m -> cos_{m-1}
        else:
            mat[0, 2] = inv_sqrt2  # sin * sin_1 -> constant
        mat[2 * (m + 1) - 1, 2 * m] = -0.5  # ... -> -cos_{m+1}
    return mat.tocsr()


def _embed_1d(cutoff: int, target: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.eye(basis_size(target), basis_size(cutoff), format="csr")


def _grad_ops(cutoff: int, deform: float) -> tuple:
    """Components of d_t on functions, band N -> band N+1.

    deform is the full multiplier t * a * pi on the sine factors of df.
    """
    import scipy.sparse as sp

    d1 = _deriv_1d(cutoff)
    s1 = _sin_mult_1d(cutoff)
    e1 = _embed_1d(cutoff, cutoff + 1)
    gx = sp.kron(e1 @ d1, e1, format="csr") + deform * sp.kron(s1, e1, format="csr")
    gy = sp.kron(e1, e1 @ d1, format="csr") + deform * sp.kron(e1, s1, format="csr")
    return gx, gy


def _embed_2d(cutoff: int, target: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    e1 = _embed_1d(cutoff, target)
    return sp.kron(e1, e1, format="csr")


def cone_differential_matrix(degree: int, cutoff: int, deform: float) -> sp.csr_matrix:
    """Matrix of d_C from cone degree `degree` in band N to degree+1 in band N+1.

    Component layout per degree: 0 -> [u]; 1 -> [P, Q, u]; 2 -> [R, S, T];
    3 -> [V], where eta_1 = P dx + Q dy, eta_2 = R dx^dy, xi_1 = S dx + T dy,
    xi_2 = V dx^dy and u is a theta-coefficient function.
    """
    import scipy.sparse as sp

    n0 = basis_size(cutoff) ** 2
    n1 = basis_size(cutoff + 1) ** 2
    gx, gy = _grad_ops(cutoff, deform)
    zero = sp.csr_matrix((n1, n0))
    ee = _embed_2d(cutoff, cutoff + 1)
    if degree == 0:
        # d_C u = (d_t u, 0)
        return sp.vstack([gx, gy, zero], format="csr")
    if degree == 1:
        # d_C (eta_1, xi_0) = (d_t eta_1 + w xi_0, -d_t xi_0)
        row_r = sp.hstack([-gy, gx, ee], format="csr")
        row_s = sp.hstack([zero, zero, -gx], format="csr")
        row_t = sp.hstack([zero, zero, -gy], format="csr")
        return sp.vstack([row_r, row_s, row_t], format="csr")
    if degree == 2:
        # d_C (eta_2, xi_1) = (w ^ xi_1 = 0 in Omega^3, -d_t xi_1)
        return sp.hstack([zero, gy, -gx], format="csr")
    if degree == 3:
        return sp.csr_matrix((0, n0))
    raise DegreeError(f"cone degree must be 0..3, got {degree}")


def _component_embed(degree: int, cutoff: int, target: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    blocks = [_embed_2d(cutoff, target)] * COMPONENTS[degree]
    return sp.block_diag(blocks, format="csr")


def assemble_quadratic_form(prob: SpectralProblem) -> sp.csr_matrix:
    """Sparse Galerkin matrix of |d_C s|^2 + |d_C* s|^2 on band-N cone forms.

    Like an ndarray, the CSR result reports its storage in ``nbytes``.

    The up matrix maps band N to band N+1 exactly; the down (adjoint) matrix
    is read off as a transpose of the up matrix one degree lower, one band
    higher, restricted to band-N columns -- so the result is exactly A = Bu'Bu
    + Bd'Bd, symmetric and positive semidefinite.
    """
    deform = prob.t * prob.morse_scale * math.pi
    k, n = prob.degree, prob.cutoff
    up = cone_differential_matrix(k, n, deform)
    form = up.T @ up
    if k > 0:
        lower = cone_differential_matrix(k - 1, n + 1, deform)
        down = lower.T @ _component_embed(k, n, n + 2)
        form = form + down.T @ down
    form = form.tocsr()
    form.nbytes = form.data.nbytes + form.indices.nbytes + form.indptr.nbytes
    return form


def low_spectrum(prob: SpectralProblem, count: int) -> np.ndarray:
    """The smallest `count` eigenvalues of the assembled form, ascending.

    Shift-invert Lanczos (ARPACK) around SHIFT; a dense solve only when
    `count` leaves ARPACK no room (count >= size - 1).
    """
    from scipy.sparse.linalg import ArpackError, eigsh

    form = assemble_quadratic_form(prob)
    size = form.shape[0]
    if count > size:
        raise ValueError(f"requested {count} eigenvalues of a {size}-dim form")
    if count >= size - 1:
        return np.linalg.eigvalsh(form.toarray())[:count]
    # a fixed random start vector: ARPACK's default one is drawn afresh on
    # every call, so repeated solves would differ in the last digits; a
    # constant vector would miss whole symmetry sectors (the sine modes)
    start = np.random.default_rng(0).standard_normal(size)
    try:
        vals = eigsh(
            form, k=count, sigma=SHIFT, which="LM", v0=start, return_eigenvectors=False
        )
    except ArpackError as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc
    return np.sort(vals)


def spectral_report(
    prob: SpectralProblem,
    count: int = 12,
    threshold: float = LOW_THRESHOLD,
) -> SpectralReport:
    """Eigenvalues, low-cluster count, gap and cluster ratio at one degree.

    The gap is the first eigenvalue above the cluster; if all computed
    eigenvalues fall below the threshold the batch is enlarged until the gap
    is visible.  cluster_ratio is gap / max(cluster top, floor), or 0 when no
    eigenvalue lies under the threshold at all (no resolved cluster).
    """
    size = matrix_size(prob.degree, prob.cutoff)
    count = min(max(count, 2), size)
    while True:
        vals = low_spectrum(prob, count)
        low = vals[vals <= threshold]
        if len(low) < len(vals) or count == size:
            break
        count = min(2 * count, size)
    low_count = int(len(low))
    if low_count == len(vals):
        gap = float("inf")
        ratio = 0.0
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
    return math.ceil(2.0 * math.sqrt(t)) + 6


def _require_adequate(report: SpectralReport) -> None:
    if report.cluster_ratio < ADEQUACY_RATIO:
        hint = max(suggested_cutoff(report.t), report.cutoff + 2)
        raise AdequacyError(
            f"cluster ratio {report.cluster_ratio:.3g} < {ADEQUACY_RATIO} at degree "
            f"{report.degree} (t={report.t}, cutoff={report.cutoff}); "
            f"try cutoff >= {hint}",
            suggested_cutoff=hint,
        )


def cluster_counts(
    t: float,
    cutoff: int,
    degrees: Sequence[int] = (0, 1, 2, 3),
    morse_scale: float = 1.0,
    reports: Optional[dict] = None,
) -> list:
    """Per-degree counts of eigenvalues <= 1, gated on cluster_ratio >= 10.

    Pass a dict as `reports` to receive the per-degree SpectralReport objects.
    """
    counts = []
    for k in degrees:
        rep = spectral_report(SpectralProblem(t, cutoff, k, morse_scale))
        _require_adequate(rep)
        if reports is not None:
            reports[k] = rep
        counts.append(rep.low_count)
    return counts


@dataclass
class GapGrowthResult:
    t_values: list
    cutoffs: list
    gaps: list
    slope: float
    intercept: float
    degenerate: bool  # zero spread in t: the fit means nothing

    @property
    def points(self) -> list:
        return list(zip(self.t_values, self.gaps))


def gap_growth(
    t_values: Sequence[float],
    cutoff_rule=suggested_cutoff,
    degree: int = 1,
    morse_scale: float = 1.0,
) -> GapGrowthResult:
    """Least-squares slope of gap(t) against t at a fixed cone degree.

    The gap of the deformed cone Laplacian grows linearly in t (the local
    model spectrum is equally spaced with step proportional to t), so the
    slope must come out positive.  Needs at least three t values.
    """
    ts = [float(t) for t in t_values]
    if len(ts) < 3:
        raise ValueError(f"gap growth needs >= 3 deformation values, got {len(ts)}")
    cutoffs, gaps = [], []
    for t in ts:
        n = int(cutoff_rule(t))
        rep = spectral_report(SpectralProblem(t, n, degree, morse_scale))
        _require_adequate(rep)
        cutoffs.append(n)
        gaps.append(rep.gap)
    tbar = sum(ts) / len(ts)
    gbar = sum(gaps) / len(gaps)
    spread = sum((t - tbar) ** 2 for t in ts)
    if spread == 0:
        return GapGrowthResult(ts, cutoffs, gaps, 0.0, gbar, True)
    slope = sum((t - tbar) * (g - gbar) for t, g in zip(ts, gaps)) / spread
    return GapGrowthResult(ts, cutoffs, gaps, slope, gbar - slope * tbar, False)


# ---------------------------------------------------------------------------
# quasimodes


def _bump(rho: np.ndarray, inner: float = 0.2, outer: float = 0.25) -> np.ndarray:
    """Smooth radial cutoff: 1 inside `inner`, 0 outside `outer`.

    Supports of radius 1/4 around neighboring critical points (spacing 1/2)
    stay disjoint; the plateau sits at 0.2 so the transition annulus only sees
    the far Gaussian tail and contributes negligibly to the Rayleigh quotient.
    """

    def ramp(u):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            raw = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        return raw

    u = (outer - rho) / (outer - inner)
    num = ramp(u)
    return num / (num + ramp(1.0 - u))


def _basis_values_1d(cutoff: int, grid: np.ndarray) -> np.ndarray:
    rows = [np.ones_like(grid)]
    for m in range(1, cutoff + 1):
        rows.append(math.sqrt(2.0) * np.cos(2.0 * math.pi * m * grid))
        rows.append(math.sqrt(2.0) * np.sin(2.0 * math.pi * m * grid))
    return np.stack(rows)


def _project_component(values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    npts = values.shape[0]
    return (basis @ values @ basis.T / npts**2).reshape(-1)


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
    normalized, and rated against the assembled form.
    """
    if point not in CRITICAL_POINTS:
        raise KeyError(f"unknown critical point {point!r}; choose from {sorted(CRITICAL_POINTS)}")
    if kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind}")
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

    npts = 4 * prob.cutoff
    grid = np.arange(npts) / npts
    xs = ((grid - px + 0.5) % 1.0) - 0.5
    ys = ((grid - py + 0.5) % 1.0) - 0.5
    x1 = xs[:, None] * np.ones_like(ys)[None, :]
    x2 = np.ones_like(xs)[:, None] * ys[None, :]
    rho = np.sqrt(x1**2 + x2**2)
    # product profile exp(-t a sum_i (1 - cos(2 pi X_i))/2) in the wrapped
    # displacement X: the chart Gaussian expressed in torus coordinates (f is
    # exactly quadratic in the chart), identical for ascending and descending
    # directions and exactly deformed-harmonic on the whole torus, so only the
    # cutoff and the cubic remainder of the partner fields contribute to the
    # Rayleigh quotient
    ta = prob.t * prob.morse_scale
    climb = 1.0 - 0.5 * np.cos(2.0 * math.pi * x1) - 0.5 * np.cos(2.0 * math.pi * x2)
    gauss = _bump(rho) * np.exp(-ta * climb)
    zero = np.zeros_like(gauss)

    if kind == 1 and index == 0:
        components = [gauss]
    elif kind == 2 and index == 0:
        # eta = -tau ^ zeta with the rotational primitive tau of omega
        components = [0.5 * x2 * gauss, -0.5 * x1 * gauss, gauss]
    elif kind == 1 and index == 1:
        components = [gauss, zero, zero] if descending[0] else [zero, gauss, zero]
    elif kind == 2 and index == 1:
        components = [zero, gauss, zero] if descending[0] else [zero, zero, gauss]
    elif kind == 1 and index == 2:
        # radial interior-product partner; coefficient fixed by the adjoint equation
        components = [gauss, -0.5 * x1 * gauss, -0.5 * x2 * gauss]
    else:  # kind == 2 and index == 2
        components = [gauss]

    basis = _basis_values_1d(prob.cutoff, grid)
    vec = np.concatenate([_project_component(c, basis) for c in components])
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise SolverError("quasimode projected to zero")
    vec = vec / norm
    form = assemble_quadratic_form(prob)
    rayleigh = float(vec @ (form @ vec))
    return QuasimodeResult(point, kind, prob.degree, vec, rayleigh)


def eigenvalues_to_csv(reports: Sequence[SpectralReport]) -> str:
    lines = ["degree,index,eigenvalue"]
    for rep in reports:
        for i, val in enumerate(rep.eigenvalues):
            lines.append(f"{rep.degree},{i},{val:.9e}")
    return "\n".join(lines) + "\n"


def gap_growth_to_csv(result: GapGrowthResult) -> str:
    lines = ["t,gap"]
    for t, g in result.points:
        lines.append(f"{t:.9e},{g:.9e}")
    return "\n".join(lines) + "\n"
