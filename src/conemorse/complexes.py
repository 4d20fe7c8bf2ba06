"""Graded cochain complexes, even-shift chain maps, mapping cones and cohomology.

Degrees live on a closed integer range; everything outside it has dimension 0
and empty matrices, which keeps the cone index arithmetic (k - 2p - 1 and
friends) total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ChainMapError, ShapeError
from .ratlinalg import (
    RationalMatrix,
    block,
    column_space_basis,
    hstack,
    nullspace_basis,
    quotient_map,
    rank,
    _pivots,
)


class CochainComplex:
    """Per-degree dimensions plus differentials d_k : degree k -> degree k+1.

    ``checked`` becomes True once d∘d = 0 is known to hold, so the functions
    below that need a complex check each instance at most once.
    """

    def __init__(
        self,
        dims: Sequence[int],
        differentials: Sequence[RationalMatrix] = (),
        min_degree: int = 0,
    ) -> None:
        self.min_degree = min_degree
        self.dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in self.dims):
            raise ShapeError("negative dimension")
        diffs = list(differentials)
        if len(diffs) > len(self.dims):
            raise ShapeError("more differentials than degrees")
        for i, d in enumerate(diffs):
            expect = (self._dim_offset(i + 1), self._dim_offset(i))
            if d.shape != expect:
                raise ShapeError(
                    f"differential at degree {min_degree + i} has shape {d.shape}, expected {expect}"
                )
        while len(diffs) < len(self.dims):
            i = len(diffs)
            diffs.append(RationalMatrix.zeros(self._dim_offset(i + 1), self._dim_offset(i)))
        self.differentials = tuple(diffs)
        self.checked = False

    def _dim_offset(self, i: int) -> int:
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.dims) - 1

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def dim(self, k: int) -> int:
        return self._dim_offset(k - self.min_degree)

    def d(self, k: int) -> RationalMatrix:
        i = k - self.min_degree
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return RationalMatrix.zeros(self.dim(k + 1), self.dim(k))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.dim(k) for k in self.degrees())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainComplex)
            and self.min_degree == other.min_degree
            and self.dims == other.dims
            and self.differentials == other.differentials
        )

    def __repr__(self) -> str:
        return f"CochainComplex(min_degree={self.min_degree}, dims={self.dims})"


@dataclass(frozen=True)
class ComplexViolation:
    degree: int
    row: int
    col: int
    value: Fraction

    def __str__(self) -> str:
        return (
            f"d∘d != 0 at degree {self.degree}: entry ({self.row}, {self.col}) "
            f"is {self.value}"
        )


def validate_complex(c: CochainComplex) -> Optional[ComplexViolation]:
    """Check d_{k+1} d_k = 0 at every degree; None means the complex is valid.

    Shape mismatches raise ShapeError at construction time already; this
    reports the first failing degree with a nonzero entry witness.
    """
    for k in c.degrees():
        comp = c.d(k + 1) @ c.d(k)
        if not comp.is_zero():
            return ComplexViolation(k, *next(comp.nonzero()))
    return None


class DegreeChainMap:
    """A chain map phi_k : source degree k -> target degree k + shift, shift even.

    The shift being even means the chain-map identity carries no sign:
    d phi = phi d.  ``checked`` becomes True once that identity is known to hold.
    """

    def __init__(
        self,
        source: CochainComplex,
        target: CochainComplex,
        shift: int,
        matrices: Sequence[RationalMatrix] = (),
    ) -> None:
        if shift <= 0 or shift % 2 != 0:
            raise ShapeError(f"shift must be a positive even integer, got {shift}")
        self.source = source
        self.target = target
        self.shift = shift
        mats = list(matrices)
        degrees = list(source.degrees())
        if len(mats) > len(degrees):
            raise ShapeError("more chain-map matrices than source degrees")
        for i, m in enumerate(mats):
            k = degrees[i]
            expect = (target.dim(k + shift), source.dim(k))
            if m.shape != expect:
                raise ShapeError(
                    f"chain-map matrix at degree {k} has shape {m.shape}, expected {expect}"
                )
        while len(mats) < len(degrees):
            k = degrees[len(mats)]
            mats.append(RationalMatrix.zeros(target.dim(k + shift), source.dim(k)))
        self.matrices = tuple(mats)
        self.checked = False

    def matrix(self, k: int) -> RationalMatrix:
        i = k - self.source.min_degree
        if 0 <= i < len(self.matrices):
            return self.matrices[i]
        return RationalMatrix.zeros(self.target.dim(k + self.shift), self.source.dim(k))

    def scaled(self, factor) -> "DegreeChainMap":
        return DegreeChainMap(
            self.source, self.target, self.shift, [m.scaled(factor) for m in self.matrices]
        )

    def __repr__(self) -> str:
        return f"DegreeChainMap(shift={self.shift}, source_dims={self.source.dims})"


def validate_chain_map(phi: DegreeChainMap) -> Optional[ComplexViolation]:
    """Check d_{k+shift} phi_k = phi_{k+1} d_k; None means the identity holds."""
    for k in phi.source.degrees():
        lhs = phi.target.d(k + phi.shift) @ phi.matrix(k)
        rhs = phi.matrix(k + 1) @ phi.source.d(k)
        diff = lhs - rhs
        if not diff.is_zero():
            return ComplexViolation(k, *next(diff.nonzero()))
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


class CohomologyData:
    """Per-degree Betti numbers with explicit cocycle/coboundary/representative bases."""

    def __init__(self, complex_: CochainComplex) -> None:
        self.min_degree = complex_.min_degree
        self.max_degree = complex_.max_degree
        self._cocycles = {}
        self._coboundaries = {}
        self._representatives = {}
        for k in complex_.degrees():
            cocycles = nullspace_basis(complex_.d(k))
            coboundaries = column_space_basis(complex_.d(k - 1))
            self._cocycles[k] = cocycles
            self._coboundaries[k] = coboundaries
            self._representatives[k] = _extend_to_basis(coboundaries, cocycles)
        self.dims = tuple(self.b(k) for k in complex_.degrees())

    def b(self, k: int) -> int:
        return self.representatives(k).cols

    def cocycles(self, k: int) -> RationalMatrix:
        return self._cocycles.get(k, RationalMatrix.zeros(0, 0))

    def coboundaries(self, k: int) -> RationalMatrix:
        return self._coboundaries.get(k, RationalMatrix.zeros(0, 0))

    def representatives(self, k: int) -> RationalMatrix:
        if k in self._representatives:
            return self._representatives[k]
        return RationalMatrix.zeros(0, 0)


def _extend_to_basis(inner: RationalMatrix, spanning: RationalMatrix) -> RationalMatrix:
    """Columns of `spanning` that extend the independent columns of `inner` to a basis."""
    if spanning.cols == 0:
        return RationalMatrix.zeros(spanning.rows, 0)
    merged = hstack(inner, spanning) if inner.cols else spanning
    pivots = _pivots(merged)
    chosen = [p - inner.cols for p in pivots if p >= inner.cols]
    return spanning.select_columns(chosen)


def cohomology(c: CochainComplex) -> CohomologyData:
    """Exact cohomology dimensions and bases of a validated complex."""
    _require_complex(c)
    return CohomologyData(c)


def cohomology_dims(c: CochainComplex) -> list:
    """Cohomology dimensions from ranks alone: dim_k - rank d_k - rank d_{k-1}."""
    _require_complex(c)
    ranks = {k: rank(c.d(k)) for k in c.degrees()}
    return [c.dim(k) - ranks[k] - ranks.get(k - 1, 0) for k in c.degrees()]


def induced_cohomology_maps(
    phi: DegreeChainMap,
    hs: Optional[CohomologyData] = None,
    ht: Optional[CohomologyData] = None,
) -> dict:
    """Matrices of [phi] : H^k(source) -> H^{k+shift}(target), keyed by source degree.

    ``hs`` and ``ht``, when given, are cohomology(phi.source) and
    cohomology(phi.target), already computed by the caller.
    """
    _require_chain_map(phi)
    if hs is None:
        hs = cohomology(phi.source)
    if ht is None:
        ht = hs if phi.target is phi.source else cohomology(phi.target)
    out = {}
    for k in phi.source.degrees():
        reps = hs.representatives(k)
        target_reps = ht.representatives(k + phi.shift)
        target_cob = ht.coboundaries(k + phi.shift)
        basis = hstack(target_reps, target_cob)
        out[k] = quotient_map(phi.matrix(k), reps, basis, target_reps.cols)
    return out


def induced_map_ranks(
    phi: DegreeChainMap,
    hs: Optional[CohomologyData] = None,
    ht: Optional[CohomologyData] = None,
) -> list:
    """r_k = rank of the induced map on cohomology, listed over source degrees.

    ``hs`` and ``ht`` are as for induced_cohomology_maps.
    """
    maps = induced_cohomology_maps(phi, hs, ht)
    return [rank(maps[k]) for k in phi.source.degrees()]


def chain_ranks(phi: DegreeChainMap) -> list:
    """v_k = rank of phi_k on cochains, listed over source degrees."""
    return [rank(phi.matrix(k)) for k in phi.source.degrees()]


def cone_degree_range(phi: DegreeChainMap) -> range:
    lo = min(phi.target.min_degree, phi.source.min_degree + phi.shift - 1)
    hi = max(phi.target.max_degree, phi.source.max_degree + phi.shift - 1)
    return range(lo, hi + 1)


def mapping_cone(phi: DegreeChainMap) -> CochainComplex:
    """The cone of phi: degree k is target^k + source^{k-shift+1} with
    differential [[d, phi], [0, -d]].

    The second summand carries the odd degree shift - 1, so d^2 = 0 follows
    from d^2 = 0 on both sides plus the (signless, even-shift) chain-map
    identity; the result is validated before being returned.
    """
    _require_chain_map(phi)
    degs = cone_degree_range(phi)
    theta = phi.shift - 1
    dims = [phi.target.dim(k) + phi.source.dim(k - theta) for k in degs]
    diffs = []
    for k in degs:
        top_left = phi.target.d(k)
        top_right = phi.matrix(k - theta)
        bottom_left = RationalMatrix.zeros(phi.source.dim(k + 1 - theta), phi.target.dim(k))
        bottom_right = -phi.source.d(k - theta)
        diffs.append(block([[top_left, top_right], [bottom_left, bottom_right]]))
    cone = CochainComplex(dims, diffs, min_degree=degs.start)
    check = validate_complex(cone)
    if check is not None:
        raise ChainMapError(f"cone differential does not square to zero: {check}")
    cone.checked = True
    return cone


def cone_cohomology_by_decomposition(phi: DegreeChainMap) -> list:
    """Cone cohomology dimensions from the cokernel + kernel splitting.

    Listed over the same degree range as mapping_cone(phi); see
    decomposition_dims for the formula.
    """
    hs = cohomology(phi.source)
    ht = hs if phi.target is phi.source else cohomology(phi.target)
    return decomposition_dims(phi, hs, ht, induced_map_ranks(phi, hs, ht))


def decomposition_dims(
    phi: DegreeChainMap, hs: CohomologyData, ht: CohomologyData, r: Sequence[int]
) -> list:
    """dim_k = (b_k - r_{k-shift}) + (b_{k-shift+1} - r_{k-shift+1}) over cone_degree_range(phi).

    b is over the target (``ht``) for the cokernel term and over the source
    (``hs``) for the kernel term; ``r`` lists the induced-map ranks over the
    source degrees, as induced_map_ranks returns them.
    """
    ranks = dict(zip(phi.source.degrees(), r))
    dims = []
    for k in cone_degree_range(phi):
        coker = ht.b(k) - ranks.get(k - phi.shift, 0)
        kernel = hs.b(k - phi.shift + 1) - ranks.get(k - phi.shift + 1, 0)
        dims.append(coker + kernel)
    return dims
