"""Morse data with a cone map: model, validation, assembly and combinators.

A datum records critical points (id + index), the gradient-flow boundary
coefficients (index +1) and the cone-map coefficients (index +2p+2).  Both
coefficient families are data: built-in generators supply them in closed form
and user files supply them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .complexes import CochainComplex, DegreeChainMap, cohomology_dims, mapping_cone
from .errors import DegreeError, InvalidDatumError, UnknownIdError
from .ratlinalg import RationalMatrix, rat


@dataclass(frozen=True)
class CriticalPoint:
    id: str
    index: int


Coefficient = tuple  # (from_id, to_id, Fraction)


def _canon_coeffs(entries) -> tuple:
    merged = {}
    for src, dst, value in entries:
        key = (str(src), str(dst))
        merged[key] = merged.get(key, Fraction(0)) + rat(value)
    return tuple(
        (src, dst, value) for (src, dst), value in sorted(merged.items()) if value != 0
    )


@dataclass(frozen=True)
class MorseDatum:
    manifold_dim: int
    points: tuple
    boundary: tuple = ()
    cone_map: tuple = ()
    p: int = 0
    name: str = ""
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "points",
            tuple(sorted(self.points, key=lambda q: (q.index, q.id))),
        )
        object.__setattr__(self, "boundary", _canon_coeffs(self.boundary))
        object.__setattr__(self, "cone_map", _canon_coeffs(self.cone_map))

    @property
    def n(self) -> int:
        return self.manifold_dim // 2

    @property
    def cone_shift(self) -> int:
        return 2 * self.p + 2

    @cached_property
    def _matrices(self) -> tuple:
        """(generator ids per index, boundary matrices, cone matrices), built once.

        Raises on structural problems, and then caches nothing.  The datum is
        immutable, so validation and the Morse complex share these matrices.
        """
        index = _check_structure(self)
        by_index = _ordered_generators(self)
        pos = {gid: i for ids in by_index for i, gid in enumerate(ids)}
        return (
            by_index,
            _assemble(self.boundary, 1, index, pos, by_index),
            _assemble(self.cone_map, self.cone_shift, index, pos, by_index),
        )

    def counts(self) -> list:
        """m_k over k = 0 .. manifold_dim."""
        m = [0] * (self.manifold_dim + 1)
        for q in self.points:
            m[q.index] += 1
        return m


@dataclass(frozen=True)
class DatumViolation:
    identity: str  # "d_squared" or "commute"
    degree: int
    witness: str
    value: Fraction

    def __str__(self) -> str:
        what = "∂∘∂" if self.identity == "d_squared" else "∂c - c∂"
        return (
            f"{what} != 0 at degree {self.degree}, witnessed on generator "
            f"{self.witness!r} (coefficient {self.value})"
        )


def _check_structure(d: MorseDatum) -> dict:
    """Ids resolve, indices in range, coefficient degree jumps correct."""
    if d.manifold_dim < 0 or d.manifold_dim % 2 != 0:
        raise DegreeError(f"manifold_dim must be a nonnegative even integer, got {d.manifold_dim}")
    if d.p < 0:
        raise DegreeError(f"p must be nonnegative, got {d.p}")
    index = {}
    for q in d.points:
        if q.id in index:
            raise UnknownIdError(f"duplicate generator id {q.id!r}")
        if not 0 <= q.index <= d.manifold_dim:
            raise DegreeError(
                f"index of {q.id!r} is {q.index}, outside 0..{d.manifold_dim}"
            )
        index[q.id] = q.index
    for label, coeffs, jump in (
        ("boundary", d.boundary, 1),
        ("cone_map", d.cone_map, d.cone_shift),
    ):
        for src, dst, _ in coeffs:
            if src not in index:
                raise UnknownIdError(f"{label} refers to unknown id {src!r}")
            if dst not in index:
                raise UnknownIdError(f"{label} refers to unknown id {dst!r}")
            if index[dst] != index[src] + jump:
                raise DegreeError(
                    f"{label} coefficient {src!r} -> {dst!r} must raise the index "
                    f"by {jump} ({index[src]} -> {index[dst]})"
                )
    return index


def _ordered_generators(d: MorseDatum) -> list:
    """Generator ids per index, lexicographic within each index class."""
    by_index = [[] for _ in range(d.manifold_dim + 1)]
    for q in d.points:
        by_index[q.index].append(q.id)
    for ids in by_index:
        ids.sort()
    return by_index


def _assemble(coeffs, jump: int, index: dict, pos: dict, by_index: list) -> list:
    """Per-degree matrices of one coefficient family, rows and columns in `by_index` order."""
    top = len(by_index) - 1
    rows = [
        [{} for _ in range(len(by_index[k + jump]) if k + jump <= top else 0)]
        for k in range(top + 1)
    ]
    for src, dst, value in coeffs:  # one nonzero entry per (src, dst), merged by MorseDatum
        rows[index[src]][pos[dst]][pos[src]] = value
    return [
        RationalMatrix.from_sparse(len(r), len(ids), r) for r, ids in zip(rows, by_index)
    ]


def _violation(identity: str, degree: int, m: RationalMatrix, ids: list) -> DatumViolation:
    """Witness: the lowest nonzero column of m, read at the lowest row holding it."""
    _, col, value = min(m.nonzero(), key=lambda e: (e[1], e[0]))
    return DatumViolation(identity, degree, ids[col], value)


def validate_datum(d: MorseDatum) -> Optional[DatumViolation]:
    """Check the two algebraic identities exactly.

    Structural problems (unknown ids, bad degrees) raise; a failing identity is
    returned as a report with the first failing degree and a witness generator.
    """
    by_index, boundary, cone = d._matrices
    for k in range(d.manifold_dim):
        comp = boundary[k + 1] @ boundary[k]
        if not comp.is_zero():
            return _violation("d_squared", k, comp, by_index[k])
    shift = d.cone_shift
    for k in range(d.manifold_dim + 1):
        if k + shift + 1 > d.manifold_dim:
            # both sides land above the top index; nothing to check
            continue
        diff = boundary[k + shift] @ cone[k] - cone[k + 1] @ boundary[k]
        if not diff.is_zero():
            return _violation("commute", k, diff, by_index[k])
    return None


def _require_valid(d: MorseDatum) -> None:
    violation = validate_datum(d)
    if violation is not None:
        raise InvalidDatumError(violation)


def morse_complex(d: MorseDatum) -> tuple:
    """The cochain complex on critical points plus its cone chain map.

    Degree-k dimension is m_k; the differential comes from the boundary
    coefficients and the returned DegreeChainMap (shift 2p+2) from the cone
    coefficients.  Generator ordering is lexicographic by id within each index,
    so matrices are reproducible.
    """
    _require_valid(d)
    by_index, boundary, cone = d._matrices
    complex_ = CochainComplex([len(ids) for ids in by_index], boundary)
    chain_map = DegreeChainMap(complex_, complex_, d.cone_shift, cone)
    # validate_datum has checked d∘d = 0 and dc = cd on these very matrices
    complex_.checked = chain_map.checked = True
    return complex_, chain_map


def cone_morse_complex(d: MorseDatum) -> CochainComplex:
    """Mapping cone of the datum's cone map; degree k has dimension m_k + m_{k-2p-1}."""
    complex_, chain_map = morse_complex(d)
    return mapping_cone(chain_map)


def betti(d: MorseDatum) -> list:
    """Cohomology dimensions of the Morse complex (b_k over k = 0 .. 2n)."""
    complex_, _ = morse_complex(d)
    return cohomology_dims(complex_)


def stabilize(d: MorseDatum, k: int, label: str) -> MorseDatum:
    """Add a cancelling pair: a at index k, b at index k+1, with boundary a -> b.

    The cone map is zero on and into the new pair, so both identities survive
    and the cohomology (Morse and cone) is unchanged.
    """
    if not 0 <= k <= d.manifold_dim - 1:
        raise DegreeError(f"stabilization degree {k} outside 0..{d.manifold_dim - 1}")
    ids = {q.id for q in d.points}
    a, b = f"{label}_a", f"{label}_b"
    if a in ids or b in ids:
        raise UnknownIdError(f"stabilization labels {a!r}/{b!r} collide with existing ids")
    points = d.points + (CriticalPoint(a, k), CriticalPoint(b, k + 1))
    boundary = d.boundary + ((a, b, Fraction(1)),)
    out = MorseDatum(
        manifold_dim=d.manifold_dim,
        points=points,
        boundary=boundary,
        cone_map=d.cone_map,
        p=d.p,
        name=f"{d.name}+stab{k}" if d.name else f"stab{k}",
        metadata=dict(d.metadata),
    )
    _require_valid(out)
    return out


def product(d1: MorseDatum, d2: MorseDatum) -> MorseDatum:
    """Tensor-product datum: pairs of generators with index sum.

    The boundary uses the Koszul sign (-1)^{index_1} on the second factor; the
    cone map needs no sign because its degree is even.  The runtime validation
    is the safety net for the sign convention.
    """
    if d1.p != d2.p:
        raise DegreeError(f"factors must share p ({d1.p} != {d2.p})")
    _require_valid(d1)
    _require_valid(d2)

    def pid(x: str, y: str) -> str:
        return f"{x}|{y}"

    points = [
        CriticalPoint(pid(x.id, y.id), x.index + y.index)
        for x in d1.points
        for y in d2.points
    ]
    boundary = []
    for src, dst, value in d1.boundary:
        for y in d2.points:
            boundary.append((pid(src, y.id), pid(dst, y.id), value))
    for x in d1.points:
        sign = -1 if x.index % 2 else 1
        for src, dst, value in d2.boundary:
            boundary.append((pid(x.id, src), pid(x.id, dst), sign * value))
    cone = []
    for src, dst, value in d1.cone_map:
        for y in d2.points:
            cone.append((pid(src, y.id), pid(dst, y.id), value))
    for x in d1.points:
        for src, dst, value in d2.cone_map:
            cone.append((pid(x.id, src), pid(x.id, dst), value))
    out = MorseDatum(
        manifold_dim=d1.manifold_dim + d2.manifold_dim,
        points=tuple(points),
        boundary=tuple(boundary),
        cone_map=tuple(cone),
        p=d1.p,
        name=f"{d1.name}x{d2.name}" if d1.name and d2.name else "product",
        metadata={"factors": [d1.name, d2.name]},
    )
    _require_valid(out)
    return out


def datum_from_chain_map(phi, name: str = "from-chain-map") -> MorseDatum:
    """Encode a self chain map on a complex as a datum (the shared JSON schema).

    Generators are labeled g{degree}_{position}; the complex differential
    becomes the boundary and the chain map the cone coefficients, with
    p = shift/2 - 1.  The source must start at degree 0 and equal the target.
    """
    complex_ = phi.source
    if phi.target is not complex_:
        raise DegreeError("only self chain maps encode as a datum")
    if complex_.min_degree != 0:
        raise DegreeError("datum encoding needs degrees starting at 0")
    top = complex_.max_degree
    manifold_dim = top if top % 2 == 0 else top + 1
    points, boundary, cone = [], [], []
    for k in range(manifold_dim + 1):
        points.extend(
            CriticalPoint(f"g{k}_{i:02d}", k) for i in range(complex_.dim(k))
        )
    for k in range(manifold_dim + 1):
        for i, j, value in complex_.d(k).nonzero():
            boundary.append((f"g{k}_{j:02d}", f"g{k + 1}_{i:02d}", value))
        for i, j, value in phi.matrix(k).nonzero():
            cone.append((f"g{k}_{j:02d}", f"g{k + phi.shift}_{i:02d}", value))
    return MorseDatum(
        manifold_dim=manifold_dim,
        points=tuple(points),
        boundary=tuple(boundary),
        cone_map=tuple(cone),
        p=phi.shift // 2 - 1,
        name=name,
    )


def relabel(d: MorseDatum, mapping: Mapping) -> MorseDatum:
    """Rename generator ids; cohomology-level output must not change."""
    rename = lambda gid: str(mapping.get(gid, gid))
    return MorseDatum(
        manifold_dim=d.manifold_dim,
        points=tuple(CriticalPoint(rename(q.id), q.index) for q in d.points),
        boundary=tuple((rename(s), rename(t), v) for s, t, v in d.boundary),
        cone_map=tuple((rename(s), rename(t), v) for s, t, v in d.cone_map),
        p=d.p,
        name=d.name,
        metadata=dict(d.metadata),
    )
