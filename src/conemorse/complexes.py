"""Graded cochain complexes, even-shift self chain maps, mapping cones and cohomology.

Degrees run from 0 to len(dims) - 1; everything outside that range has
dimension 0 and empty matrices, which keeps the cone index arithmetic
(k - 2p - 1 and friends) total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ChainMapError, ConsistencyError, ShapeError
from .ratlinalg import (
    Rational,
    RationalMatrix,
    block,
    nullspace_basis,
    rank,
    solve,
    _pivots,
)


def _at(values, k):
    """values[k] inside the list, 0 outside it: the value at an empty degree."""
    return values[k] if 0 <= k < len(values) else 0


class CochainComplex:
    """Per-degree dimensions plus differentials d_k : degree k -> degree k+1.

    ``checked`` becomes True once d∘d = 0 is known to hold, so the functions
    below that need a complex check each instance at most once.
    """

    def __init__(
        self,
        dims: Sequence[int],
        differentials: Sequence[RationalMatrix] = (),
    ) -> None:
        self.dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in self.dims):
            raise ShapeError("negative dimension")
        diffs = list(differentials)
        if len(diffs) > len(self.dims):
            raise ShapeError("more differentials than degrees")
        for k, d in enumerate(diffs):
            expect = (self.dim(k + 1), self.dim(k))
            if d.shape != expect:
                raise ShapeError(
                    f"differential at degree {k} has shape {d.shape}, expected {expect}"
                )
        while len(diffs) < len(self.dims):
            k = len(diffs)
            diffs.append(RationalMatrix.zeros(self.dim(k + 1), self.dim(k)))
        self.differentials = tuple(diffs)
        self.checked = False

    def degrees(self) -> range:
        return range(len(self.dims))

    def dim(self, k: int) -> int:
        return _at(self.dims, k)

    def d(self, k: int) -> RationalMatrix:
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        return RationalMatrix.zeros(self.dim(k + 1), self.dim(k))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainComplex)
            and self.dims == other.dims
            and self.differentials == other.differentials
        )

    def __repr__(self) -> str:
        return f"CochainComplex(dims={self.dims})"


@dataclass(frozen=True)
class ComplexViolation:
    degree: int
    row: int
    col: int
    value: Rational

    def __str__(self) -> str:
        return (
            f"d∘d != 0 at degree {self.degree}: entry ({self.row}, {self.col}) "
            f"is {self.value}"
        )


def _witness(k: int, m: RationalMatrix) -> Optional[ComplexViolation]:
    """None for a zero m, else its lowest nonzero column, read at the lowest row holding it."""
    if m.is_zero():
        return None
    row, col, value = min(m.nonzero(), key=lambda e: (e[1], e[0]))
    return ComplexViolation(k, row, col, value)


def validate_complex(c: CochainComplex) -> Optional[ComplexViolation]:
    """Check d_{k+1} d_k = 0 at every degree; None means the complex is valid.

    Shape mismatches raise ShapeError at construction time already; this
    reports the first failing degree with a nonzero entry witness.
    """
    for k in c.degrees():
        if not c.dim(k):  # an empty degree composes to an empty matrix
            continue
        violation = _witness(k, c.d(k + 1) @ c.d(k))
        if violation is not None:
            return violation
    return None


class DegreeChainMap:
    """A self chain map phi_k : degree k -> degree k + shift of one complex, shift even.

    The shift being even means the chain-map identity carries no sign:
    d phi = phi d.  ``checked`` becomes True once that identity is known to hold.
    """

    def __init__(
        self,
        complex_: CochainComplex,
        shift: int,
        matrices: Sequence[RationalMatrix] = (),
    ) -> None:
        if shift <= 0 or shift % 2 != 0:
            raise ShapeError(f"shift must be a positive even integer, got {shift}")
        self.complex = complex_
        self.shift = shift
        mats = list(matrices)
        if len(mats) > len(complex_.dims):
            raise ShapeError("more chain-map matrices than degrees")
        for k, m in enumerate(mats):
            expect = (complex_.dim(k + shift), complex_.dim(k))
            if m.shape != expect:
                raise ShapeError(
                    f"chain-map matrix at degree {k} has shape {m.shape}, expected {expect}"
                )
        while len(mats) < len(complex_.dims):
            k = len(mats)
            mats.append(RationalMatrix.zeros(complex_.dim(k + shift), complex_.dim(k)))
        self.matrices = tuple(mats)
        self.checked = False

    def matrix(self, k: int) -> RationalMatrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return RationalMatrix.zeros(self.complex.dim(k + self.shift), self.complex.dim(k))

    def __repr__(self) -> str:
        return f"DegreeChainMap(shift={self.shift}, dims={self.complex.dims})"


def validate_chain_map(phi: DegreeChainMap) -> Optional[ComplexViolation]:
    """Check d_{k+shift} phi_k = phi_{k+1} d_k; None means the identity holds."""
    c = phi.complex
    top = len(c.dims) - 1
    for k in c.degrees():
        if not c.dim(k) or k + phi.shift + 1 > top:
            # no generators, or both sides land above the top degree
            continue
        diff = c.d(k + phi.shift) @ phi.matrix(k) - phi.matrix(k + 1) @ c.d(k)
        violation = _witness(k, diff)
        if violation is not None:
            return violation
    return None


def _require_complex(c: CochainComplex) -> None:
    if not c.checked:
        violation = validate_complex(c)
        if violation is not None:
            raise ShapeError(f"not a complex: {violation}")
        c.checked = True


def _require_chain_map(phi: DegreeChainMap) -> None:
    if not phi.checked:
        violation = validate_chain_map(phi)
        if violation is not None:
            raise ChainMapError(f"chain-map identity fails: {violation}")
        phi.checked = True


def _extend_to_basis(inner: RationalMatrix, spanning: RationalMatrix) -> RationalMatrix:
    """Columns of `spanning` that extend the independent columns of `inner` to a basis."""
    if spanning.cols == 0:
        return RationalMatrix.zeros(spanning.rows, 0)
    merged = block([[inner, spanning]]) if inner.cols else spanning
    pivots = _pivots(merged)
    chosen = [p - inner.cols for p in pivots if p >= inner.cols]
    return spanning.select_columns(chosen)


def cohomology(c: CochainComplex) -> tuple:
    """Betti numbers b_k = dim_k - rank d_k - rank d_{k-1} of a validated complex.

    This is the one formula for every Betti number the package computes.
    """
    _require_complex(c)
    ranks = [rank(d) for d in c.differentials]
    return tuple(c.dim(k) - ranks[k] - _at(ranks, k - 1) for k in c.degrees())


def induced_cohomology_maps(phi: DegreeChainMap) -> dict:
    """Matrices of [phi] : H^k -> H^{k+shift}, keyed by degree k.

    Classes are represented by the cocycles that extend the coboundaries to a
    basis of Z_k = ker d_k.  This is the only code that builds such bases; no
    report needs them, and the tests check induced_map_ranks against it.
    """
    _require_complex(phi.complex)
    _require_chain_map(phi)
    c = phi.complex
    out = {}
    for k in c.degrees():
        j = k + phi.shift
        reps = _extend_to_basis(c.d(k - 1), nullspace_basis(c.d(k)))
        coboundary = c.d(j - 1)
        target_reps = _extend_to_basis(coboundary, nullspace_basis(c.d(j)))
        coords = solve(block([[target_reps, coboundary]]), phi.matrix(k) @ reps)
        if coords is None:  # a chain map sends cocycles to cocycles
            raise ConsistencyError(f"the image of H^{k} does not lie in the cocycles of degree {j}")
        out[k] = coords.submatrix(slice(0, target_reps.cols), slice(None))
    return out


def induced_map_ranks(phi: DegreeChainMap) -> list:
    """r_k = rank of the induced map on cohomology, listed over the degrees.

    With j = k + shift - 1, the kernel of M = [[d_k, 0], [phi_k, d_j]] is
    {(x, y) : d_k x = 0, phi_k x = -d_j y}.  Its x are the cocycles that phi_k
    sends to coboundaries, which is Z_k less r_k dimensions, and its y with
    x = 0 are Z_j; so r_k = rank M - rank d_k - rank d_j.  A zero phi_k maps
    no class, and where d_k and d_j are both zero r_k is rank phi_k, which
    chain_ranks has stored on phi_k.

    M is mapping_cone's differential D_j = [[d_j, phi_k], [0, -d_k]] with its
    block rows and block columns swapped and its d_k block negated, so rank M
    = rank D_j always.  The order is kept on purpose: cone_report checks the
    b^w these ranks give against the cone's own ranks, and the two orders
    eliminate differently.  In the cone's order M would repeat D_j's
    elimination step for step, and that check could never fire.
    """
    _require_complex(phi.complex)
    _require_chain_map(phi)
    c = phi.complex
    out = []
    for k in c.degrees():
        phi_k = phi.matrix(k)
        if phi_k.is_zero():  # a zero phi_k, as at an empty degree, maps no class
            out.append(0)
            continue
        j = k + phi.shift - 1
        d_k, d_j = c.d(k), c.d(j)
        if d_k.is_zero() and d_j.is_zero():
            out.append(rank(phi_k))
            continue
        m = block([[d_k, None], [phi_k, d_j]])
        out.append(rank(m) - rank(d_k) - rank(d_j))
    return out


def chain_ranks(phi: DegreeChainMap) -> list:
    """v_k = rank of phi_k on cochains, listed over the degrees."""
    return [rank(m) for m in phi.matrices]


def cone_degree_range(phi: DegreeChainMap) -> range:
    return range(len(phi.complex.dims) + phi.shift - 1)


def mapping_cone(phi: DegreeChainMap) -> CochainComplex:
    """The cone of phi: degree k is C^k + C^{k-shift+1} with differential
    [[d, phi], [0, -d]].

    The second summand carries the odd degree shift - 1, so d^2 = 0 follows
    from d^2 = 0 on C plus the (signless, even-shift) chain-map identity; the
    result is validated before being returned, and a failure is a bug.
    """
    _require_complex(phi.complex)
    _require_chain_map(phi)
    c = phi.complex
    theta = phi.shift - 1
    dims = [c.dim(k) + c.dim(k - theta) for k in cone_degree_range(phi)]
    diffs = []
    for k, (dim, next_dim) in enumerate(zip(dims, dims[1:] + [0])):
        if dim and next_dim:
            d_k, phi_low, d_low = c.d(k), phi.matrix(k - theta), c.d(k - theta)
            if not (phi_low.is_zero() and d_k.is_zero() and d_low.is_zero()):
                diffs.append(block([[d_k, phi_low], [None, -d_low]]))
                continue
        diffs.append(RationalMatrix.zeros(next_dim, dim))  # an empty or zero differential
    cone = CochainComplex(dims, diffs)
    check = validate_complex(cone)
    if check is not None:
        raise ConsistencyError(f"cone differential does not square to zero: {check}")
    cone.checked = True
    return cone


def decomposition_dims(phi: DegreeChainMap, b: Sequence[int], r: Sequence[int]) -> list:
    """dim_k = (b_k - r_{k-shift}) + (b_{k-shift+1} - r_{k-shift+1}) over cone_degree_range(phi).

    ``b`` lists the Betti numbers of phi.complex, as cohomology returns them,
    and ``r`` the induced-map ranks, as induced_map_ranks returns them.
    """
    dims = []
    for k in cone_degree_range(phi):
        coker = _at(b, k) - _at(r, k - phi.shift)
        kernel = _at(b, k - phi.shift + 1) - _at(r, k - phi.shift + 1)
        dims.append(coker + kernel)
    return dims
