"""Expected values for the benchmark's outputs, computed without the program.

Nothing here imports ``conemorse``.  Each oracle derives a report's rows from
the mathematics of its input family (binomial tables for tori, the ends-only
pattern for projective spaces, the rank profile for synthetic data) or, for
fuzzed chain maps, from a small exact elimination written here.  The report
checks then compare a parsed ``analyze --format json`` document against those
rows and verify the inequalities and the Q(s) identity by multiplying out.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _at(values, k):
    return values[k] if 0 <= k < len(values) else 0


def cone_dims(b, r, shift, top):
    """b^w_k = (b_k - r_{k-s}) + (b_{k-s+1} - r_{k-s+1}) over cone degrees 0..top+s-1.

    The long exact sequence of the mapping cone splits H^k(cone) into the
    cokernel of [phi] landing in degree k and the kernel of [phi] leaving
    degree k-s+1.
    """
    return [
        _at(b, k) - _at(r, k - shift) + _at(b, k - shift + 1) - _at(r, k - shift + 1)
        for k in range(top + shift)
    ]


def torus_rows(n):
    """m, b, v, r and b^w of T^{2n} with its standard symplectic form.

    m_k = b_k = C(2n, k); wedge with omega has full rank (hard Lefschetz), so
    v_k = r_k = min(C(2n,k), C(2n,k+2)); b^w is primitive cohomology below the
    middle and its mirror above it.
    """
    dim = 2 * n
    m = [math.comb(dim, k) for k in range(dim + 1)]
    v = [min(math.comb(dim, k), math.comb(dim, k + 2)) for k in range(dim + 1)]
    bw = []
    for k in range(dim + 2):
        if k <= n:
            bw.append(math.comb(dim, k) - (math.comb(dim, k - 2) if k >= 2 else 0))
        else:
            bw.append(math.comb(dim, k - 1) - math.comb(dim, k + 1))
    return {"p": 0, "m": m, "b": list(m), "v": v, "r": list(v), "b_omega": bw}


def projective_rows(n, p):
    """Rows of CP^n at power p: one generator per even index, cone map an
    isomorphism wherever its target exists, so b^w is 1 only at the ends: even
    degrees 0..2p and odd degrees 2n+1..2n+2p+1."""
    dim, shift = 2 * n, 2 * p + 2
    m = [1 if k % 2 == 0 else 0 for k in range(dim + 1)]
    v = [1 if k % 2 == 0 and k + shift <= dim else 0 for k in range(dim + 1)]
    bw = [
        1 if (k % 2 == 0 and k <= 2 * p) or (k % 2 == 1 and k >= dim + 1) else 0
        for k in range(dim + shift)
    ]
    return {"p": p, "m": m, "b": list(m), "v": v, "r": list(v), "b_omega": bw}


def profile_rows(betti, ranks, p):
    """Rows of a perfect datum with zero boundary and wedge maps of the given ranks."""
    dim, shift = len(betti) - 1, 2 * p + 2
    r = [_at(ranks, k) if k + shift <= dim else 0 for k in range(dim + 1)]
    return {
        "p": p,
        "m": list(betti),
        "b": list(betti),
        "v": list(r),
        "r": r,
        "b_omega": cone_dims(betti, r, shift, dim),
    }


def k3_bundle_rows(omega_rank, b2=23):
    """The two-sphere bundle over K3: Betti (1,0,b2,0,b2,0,1), ranks (1,0,rho,0,1)."""
    return profile_rows([1, 0, b2, 0, b2, 0, 1], [1, 0, omega_rank, 0, 1], 0)


def stabilized_rows(rows, degree):
    """Adding a cancelling pair at (degree, degree+1) raises m there and changes
    nothing in cohomology, ranks or the cone."""
    out = {key: list(val) if isinstance(val, list) else val for key, val in rows.items()}
    out["m"][degree] += 1
    out["m"][degree + 1] += 1
    return out


# -- exact elimination for fuzzed chain maps ---------------------------------


def rank(rows):
    """Rank of a matrix given as a list of rows of Fractions or ints."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def kernel(rows, ncols):
    """Basis of the kernel as a list of column vectors (lists of Fractions)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free]
        basis.append(vec)
    return basis


def _matvec(rows, vec):
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in rows]


def datum_rows(doc):
    """Rows of any datum document, from ranks of its own matrices.

    The document is the JSON datum the program reads: generators with an
    index, and boundary (index +1) and cone-map (index +2p+2) coefficients as
    exact rationals.  b_k = m_k - rank d_k - rank d_{k-1}; the induced rank is
    r_k = dim(phi(Z^k) + B^{k+s}) - dim B^{k+s}.
    """
    dim, p = doc["manifold_dim"], doc.get("p", 0)
    shift = 2 * p + 2
    ids = [[] for _ in range(dim + 1)]
    for g in doc["generators"]:
        ids[g["index"]].append(g["id"])
    pos = {gid: (k, i) for k, group in enumerate(ids) for i, gid in enumerate(group)}
    m = [len(group) for group in ids]

    def matrices(key, jump):
        mats = [[[Fraction(0)] * m[k] for _ in range(_at(m, k + jump))] for k in range(dim + 1)]
        for entry in doc.get(key, []):
            k, col = pos[entry["from"]]
            _, row = pos[entry["to"]]
            mats[k][row][col] += Fraction(entry["coeff"])
        return mats

    d, phi = matrices("boundary", 1), matrices("cone_map", shift)

    def rk(mat):
        return rank(mat) if mat and mat[0] else 0

    def d_at(k):
        return d[k] if 0 <= k <= dim else []

    b = [m[k] - rk(d_at(k)) - rk(d_at(k - 1)) for k in range(dim + 1)]
    v = [rk(phi[k]) for k in range(dim + 1)]
    r = []
    for k in range(dim + 1):
        if v[k] == 0:
            r.append(0)
            continue
        images = [_matvec(phi[k], z) for z in kernel(d[k], m[k])]
        boundary = d_at(k + shift - 1)
        rows = [
            [img[i] for img in images] + (list(boundary[i]) if boundary else [])
            for i in range(m[k + shift])
        ]
        r.append(rk(rows) - rk(boundary))
    return {"p": p, "m": m, "b": b, "v": v, "r": r, "b_omega": cone_dims(b, r, shift, dim)}


# -- report checks -------------------------------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    return [_at(a, k) - _at(b, k) for k in range(n)]


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def q_expected(m, v, b_omega):
    """Q with (1+s)M - (s+s^2)V - B^w = (1+s)Q, by long division; None if inexact."""
    defect = _trim(poly_sub(poly_sub(poly_mul([1, 1], m), poly_mul([0, 1, 1], v)), b_omega))
    quotient = [0] * max(len(defect) - 1, 0)
    rest = list(defect)
    for k in range(len(defect) - 1, 0, -1):
        quotient[k - 1] = rest[k]
        rest[k] -= quotient[k - 1]
        rest[k - 1] -= quotient[k - 1]
    if any(rest):
        return None
    return _trim(quotient)


def check_report(report, expected):
    """List of problems with a parsed analyze report; empty when it is correct."""
    problems = []
    for key in ("p", "m", "b", "v", "r", "b_omega"):
        if report.get(key) != expected[key]:
            problems.append(f"{key} = {report.get(key)}, expected {expected[key]}")
    if problems:
        return problems
    m, v, bw, p = expected["m"], expected["v"], expected["b_omega"], expected["p"]
    if sum((-1) ** k * x for k, x in enumerate(bw)) != 0:
        problems.append(f"cone Euler characteristic of {bw} is not 0")
    weak, strong = report.get("weak_slack") or [], report.get("strong_slack") or []
    if len(weak) != len(bw) or len(strong) != len(bw):
        problems.append("slack rows do not cover the cone degrees")
    if any(s < 0 for s in weak) or any(s < 0 for s in strong) or report.get("anomalous"):
        problems.append(f"negative slack: weak {weak}, strong {strong}")
    if p == 0:
        weak_expected = [
            _at(m, k) - _at(v, k - 2) + _at(m, k - 1) - _at(v, k - 1) - bw[k]
            for k in range(len(bw))
        ]
        strong_expected = [
            _at(m, k) - _at(v, k - 1) - sum((-1) ** (k - i) * bw[i] for i in range(k + 1))
            for k in range(len(bw))
        ]
        if weak != weak_expected or strong != strong_expected:
            problems.append(f"slacks {weak} / {strong}, expected {weak_expected} / {strong_expected}")
        q = report.get("q_coeffs")
        if q is None or any(c < 0 for c in q):
            problems.append(f"Q(s) = {q} is missing or has a negative coefficient")
        else:
            lhs = poly_sub(poly_mul([1, 1], m), poly_mul([0, 1, 1], v))
            rhs = [_at(bw, k) + _at(poly_mul([1, 1], q), k) for k in range(max(len(bw), len(q) + 1))]
            if _trim(lhs) != _trim(rhs):
                problems.append(f"identity fails with Q = {q}: {lhs} != {rhs}")
            if _trim(q) != q_expected(m, v, bw):
                problems.append(f"Q = {q}, expected {q_expected(m, v, bw)}")
    elif report.get("q_coeffs") is not None:
        problems.append("Q(s) reported for p > 0")
    return problems


# -- spectral checks -------------------------------------------------------------

# low cluster per cone degree on T^2 = m_k + m_{k-1} with m = (1, 2, 1)
CLUSTER_COUNTS = (1, 3, 3, 1)
# gap / (4 pi^2 a t): the harmonic-oscillator model puts the first excited
# level at the Hessian eigenvalue 2 pi^2 a times 2t; finite t pulls it below
# (0.90 at t = 10, 0.96 at t = 40, measured at the suggested cutoff)
GAP_BRACKET = (0.85, 1.0)
QUASIMODE_CEILING = 0.1


def check_spectrum(degree, t, eigenvalues, count, gap, morse_scale=1.0):
    """Problems with one degree's low spectrum; eigenvalues ascending."""
    problems = []
    if not eigenvalues:
        return [f"degree {degree}: no eigenvalues"]
    tol = 1e-9 * max(1.0, abs(eigenvalues[-1]))
    if eigenvalues[0] < -tol:
        problems.append(f"degree {degree}: negative eigenvalue {eigenvalues[0]}")
    if count != CLUSTER_COUNTS[degree]:
        problems.append(f"degree {degree}: {count} low eigenvalues, expected {CLUSTER_COUNTS[degree]}")
    low = [x for x in eigenvalues if x <= 1.0]
    if len(low) != count or len(low) >= len(eigenvalues):
        problems.append(f"degree {degree}: emitted values disagree with the count {count}")
        return problems
    first_above = eigenvalues[len(low)]
    if not math.isclose(first_above, gap, rel_tol=1e-6):
        problems.append(f"degree {degree}: gap {gap} but first value above the cluster {first_above}")
    if low[-1] > gap / 10:
        problems.append(f"degree {degree}: cluster top {low[-1]} above gap/10 = {gap / 10}")
    ratio = gap / (4 * math.pi**2 * morse_scale * t)
    if not GAP_BRACKET[0] <= ratio <= GAP_BRACKET[1]:
        problems.append(f"degree {degree}: gap/(4 pi^2 a t) = {ratio:.4f} outside {GAP_BRACKET}")
    return problems


def check_quasimode(rayleigh, lowest):
    """A quasimode's Rayleigh quotient lies between the degree's lowest eigenvalue and 0.1."""
    if not lowest - 1e-9 <= rayleigh <= QUASIMODE_CEILING:
        return [f"Rayleigh quotient {rayleigh} outside [{lowest}, {QUASIMODE_CEILING}]"]
    return []
