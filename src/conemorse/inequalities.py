"""Rank bookkeeping, the cone Morse inequality suite and the Q(s) certificate.

Every report computes the cone cohomology dimensions twice (rank formula and
ranks of the cone differentials) and insists they agree; the per-degree weak
and strong slacks plus the certificate polynomial then follow from pure
integer arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

from .complexes import (
    chain_ranks,
    cohomology,
    cohomology_dims,
    decomposition_dims,
    induced_map_ranks,
    mapping_cone,
)
from .errors import ConsistencyError, RemainderError
from .morse import MorseDatum, morse_complex


@dataclass
class InequalityReport:
    name: str
    manifold_dim: int
    p: int
    m: list  # critical point counts, degrees 0..2n
    b: list  # Morse cohomology dimensions, degrees 0..2n
    v: list  # cone-map ranks on cochains, degrees 0..2n
    r: list  # cone-map ranks on cohomology, degrees 0..2n
    b_omega: list  # cone cohomology dimensions, degrees 0..2n+2p+1
    weak_slack: list
    strong_slack: list
    q_coeffs: Optional[list]  # certificate coefficients, p = 0 only
    mb_weak_slack: Optional[list]  # Morse-Bott comparison, p = 0 only
    mb_strong_slack: Optional[list]
    perfect: bool
    machon_violations: list = field(default_factory=list)

    @property
    def cone_degrees(self) -> range:
        return range(0, self.manifold_dim + 2 * self.p + 2)

    @property
    def anomalous(self) -> bool:
        return any(s < 0 for s in self.weak_slack) or any(s < 0 for s in self.strong_slack)


def _at(values, k):
    return values[k] if 0 <= k < len(values) else 0


def q_polynomial(m, v, b_omega, p: int = 0) -> list:
    """Certificate coefficients Q_k from the polynomial identity

        (1+s) sum m_k s^k - (s+s^2) sum v_k s^k = sum b^w_k s^k + (1+s) Q(s).

    The defect polynomial is divided exactly by (1+s); a nonzero remainder
    signals an Euler-characteristic inconsistency in the inputs and raises
    RemainderError.  The identity is only available for p = 0; for p > 0 the
    report carries per-degree slacks instead.
    """
    if p != 0:
        raise ValueError("the certificate identity is only formulated for p = 0")
    top = max(len(m) + 1, len(v) + 2, len(b_omega))
    defect = [0] * (top + 1)
    for k, mk in enumerate(m):
        defect[k] += mk
        defect[k + 1] += mk
    for k, vk in enumerate(v):
        defect[k + 1] -= vk
        defect[k + 2] -= vk
    for k, bk in enumerate(b_omega):
        defect[k] -= bk
    # synthetic division by (1 + s)
    quotient = [0] * len(defect)
    carry = 0
    for k in range(len(defect) - 1, -1, -1):
        quotient[k] = defect[k] - carry
        carry = quotient[k]
    remainder = quotient[0]
    quotient = quotient[1:]
    if remainder != 0:
        raise RemainderError(
            f"defect polynomial is not divisible by (1+s); remainder {remainder}"
        )
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient


def _weak_slacks(m, v, b_omega, p: int) -> list:
    shift = 2 * p + 2
    out = []
    for k in range(len(b_omega)):
        bound = _at(m, k) - _at(v, k - shift) + _at(m, k - shift + 1) - _at(v, k - shift + 1)
        out.append(bound - b_omega[k])
    return out


def _alternating_sums(values, length: int) -> list:
    """A_k = sum_{i <= k} (-1)^{k-i} values_i for k < length, via A_k = v_k - A_{k-1}."""
    out = []
    prev = 0
    for k in range(length):
        prev = _at(values, k) - prev
        out.append(prev)
    return out


def _strong_slacks(m, v, b_omega, p: int) -> list:
    shift = 2 * p + 2
    alt_m = _alternating_sums(m, len(b_omega))
    alt_b = _alternating_sums(b_omega, len(b_omega))
    out = []
    for k in range(len(b_omega)):
        # the (2p+1)-term window sum_{i=k-2p}^{k} (-1)^{k-i} m_i is the full
        # alternating sum A_k plus the tail A_{k-2p-1} it overcounts with sign -1
        window = alt_m[k] + _at(alt_m, k - 2 * p - 1)
        out.append(window - _at(v, k - shift + 1) - alt_b[k])
    return out


def morse_bott_bounds(m, b_omega) -> tuple:
    """Weak and strong slacks of the circle-bundle comparison bounds (p = 0):

    weak_k = m_k + m_{k-1} - b^w_k, strong_k = m_k - alternating sum of b^w.
    """
    alt_b = _alternating_sums(b_omega, len(b_omega))
    weak, strong = [], []
    for k in range(len(b_omega)):
        weak.append(_at(m, k) + _at(m, k - 1) - b_omega[k])
        strong.append(_at(m, k) - alt_b[k])
    return weak, strong


def _machon_violations(n: int, p: int, m, b_omega) -> list:
    k = n + p + 1
    if _at(b_omega, k) > _at(m, n - p):
        return [k]
    return []


def machon_check(d: MorseDatum) -> list:
    """Literature bound dim at degree n+p+1 <= m_{n-p}; returns violating degrees.

    The bound fails precisely on non-hard-Lefschetz data, which is the point
    of checking it.  Evaluated for the datum's own p.
    """
    return cone_report(d).machon_violations


def cone_report(d: MorseDatum) -> InequalityReport:
    """Full inequality report for a validated datum.

    b^w is computed both from the rank formula b_k - r_{k-2p-2} + b_{k-2p-1} -
    r_{k-2p-1} and from the ranks of the cone differentials; disagreement
    raises ConsistencyError (it would mean an internal bug, never bad data).
    The Morse cohomology bases are computed once and serve both b and r.
    """
    complex_, phi = morse_complex(d)
    m = d.counts()
    h = cohomology(complex_)
    b = list(h.dims)
    v = chain_ranks(phi)
    r = induced_map_ranks(phi, h, h)

    direct = cohomology_dims(mapping_cone(phi))
    by_formula = decomposition_dims(phi, h, h, r)
    if by_formula != direct:
        raise ConsistencyError(
            f"rank formula gives {by_formula} but the cone complex gives {direct}"
        )
    b_omega = direct

    weak = _weak_slacks(m, v, b_omega, d.p)
    strong = _strong_slacks(m, v, b_omega, d.p)
    perfect = b == m

    q_coeffs = None
    mb_weak = mb_strong = None
    if d.p == 0:
        q_coeffs = q_polynomial(m, v, b_omega, p=0)
        # identity at s = 1: 2*sum(m) - 2*sum(v) = sum(b^w) + 2*sum(Q)
        lhs = 2 * sum(m) - 2 * sum(v)
        rhs = sum(b_omega) + 2 * sum(q_coeffs)
        if lhs != rhs:
            raise ConsistencyError(f"certificate identity fails at s=1: {lhs} != {rhs}")
        mb_weak, mb_strong = morse_bott_bounds(m, b_omega)

    return InequalityReport(
        name=d.name,
        manifold_dim=d.manifold_dim,
        p=d.p,
        m=m,
        b=b,
        v=v,
        r=r,
        b_omega=b_omega,
        weak_slack=weak,
        strong_slack=strong,
        q_coeffs=q_coeffs,
        mb_weak_slack=mb_weak,
        mb_strong_slack=mb_strong,
        perfect=perfect,
        machon_violations=_machon_violations(d.n, d.p, m, b_omega),
    )


def format_polynomial(coeffs) -> str:
    if not coeffs or all(c == 0 for c in coeffs):
        return "0"
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            base = "s" if k == 1 else f"s^{k}"
            terms.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(terms)


def report_to_text(rep: InequalityReport) -> str:
    header = ["k", "m_k", "b_k", "v_k", "r_k", "b^w_k", "weak", "strong"]
    rows = []
    for k in rep.cone_degrees:
        rows.append(
            [
                str(k),
                str(_at(rep.m, k)),
                str(_at(rep.b, k)),
                str(_at(rep.v, k)),
                str(_at(rep.r, k)),
                str(rep.b_omega[k]),
                str(rep.weak_slack[k]),
                str(rep.strong_slack[k]),
            ]
        )
    widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]
    lines = [
        f"datum: {rep.name or '<unnamed>'}   (2n = {rep.manifold_dim}, p = {rep.p})",
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
    ]
    for r in rows:
        lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    if rep.p == 0:
        lines.append(f"Q(s) = {format_polynomial(rep.q_coeffs)}")
        lines.append(
            "Morse-Bott weak slack:   "
            + " ".join(str(x) for x in rep.mb_weak_slack)
        )
        lines.append(
            "Morse-Bott strong slack: "
            + " ".join(str(x) for x in rep.mb_strong_slack)
        )
    else:
        lines.append("Q(s): not defined for p > 0 (per-degree slacks reported instead)")
    lines.append(f"perfect: {'yes' if rep.perfect else 'no'}")
    if rep.machon_violations:
        for k in rep.machon_violations:
            lines.append(
                f"machon check: VIOLATION at k={k}: "
                f"{rep.b_omega[k]} > {_at(rep.m, rep.manifold_dim // 2 - rep.p)}"
            )
    else:
        lines.append("machon check: ok")
    if rep.anomalous:
        lines.append("WARNING: negative slack (data does not satisfy the inequalities)")
    return "\n".join(lines) + "\n"


def report_to_dict(rep: InequalityReport) -> dict:
    return {
        "name": rep.name,
        "manifold_dim": rep.manifold_dim,
        "p": rep.p,
        "degrees": list(rep.cone_degrees),
        "m": rep.m,
        "b": rep.b,
        "v": rep.v,
        "r": rep.r,
        "b_omega": rep.b_omega,
        "weak_slack": rep.weak_slack,
        "strong_slack": rep.strong_slack,
        "q_coeffs": rep.q_coeffs,
        "mb_weak_slack": rep.mb_weak_slack,
        "mb_strong_slack": rep.mb_strong_slack,
        "perfect": rep.perfect,
        "machon_violations": rep.machon_violations,
        "anomalous": rep.anomalous,
    }


def report_to_json(rep: InequalityReport) -> str:
    return json.dumps(report_to_dict(rep), indent=2) + "\n"


def report_to_csv(rep: InequalityReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "m", "b", "v", "r", "b_omega", "weak_slack", "strong_slack"])
    for k in rep.cone_degrees:
        writer.writerow(
            [
                k,
                _at(rep.m, k),
                _at(rep.b, k),
                _at(rep.v, k),
                _at(rep.r, k),
                rep.b_omega[k],
                rep.weak_slack[k],
                rep.strong_slack[k],
            ]
        )
    return buf.getvalue()
