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
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional

from .complexes import CochainComplex, DegreeChainMap, validate_chain_map, validate_complex
from .errors import DegreeError, InvalidDatumError, UnknownIdError
from .ratlinalg import Rational, _matrix, rat


class CriticalPoint(NamedTuple):
    id: str
    index: int


Coefficient = tuple  # (from_id, to_id, exact rational)

# largest accepted manifold_dim: generator lists and matrices are sized by it,
# index by index, so it bounds the memory and time a datum file can ask for
MAX_MANIFOLD_DIM = 10_000


def _canon_coeffs(entries) -> tuple:
    merged = {}
    for src, dst, value in entries:
        # ids and values that are already canonical skip str() and rat()
        if type(src) is not str or type(dst) is not str:
            src, dst = str(src), str(dst)
        if type(value) is not int and (type(value) is not Fraction or value.denominator == 1):
            value = rat(value)
        key = (src, dst)
        q = merged.get(key)
        merged[key] = value if q is None else rat(q + value)  # a sum of Fractions may be integral
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
            tuple(sorted(self.points, key=attrgetter("index", "id"))),
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
        """(generator ids per index, boundary matrices, cone matrices), built in one pass.

        manifold_dim and p are checked before anything sized by them is
        allocated; each id is resolved once, and each coefficient is checked
        (known ids, index jump) and written into its row in the same loop.
        Raises on a structural problem, and then caches nothing.  The datum is
        immutable, so validation and the Morse complex share these matrices.
        """
        top = self.manifold_dim
        if top < 0 or top % 2 != 0:
            raise DegreeError(f"manifold_dim must be a nonnegative even integer, got {top}")
        if top > MAX_MANIFOLD_DIM:
            raise DegreeError(f"manifold_dim must be at most {MAX_MANIFOLD_DIM}, got {top}")
        if self.p < 0:
            raise DegreeError(f"p must be nonnegative, got {self.p}")
        # ids lexicographic within each index: the points are sorted that way
        by_index = [[] for _ in range(top + 1)]
        where = {}  # id -> (index, position within its index)
        for gid, k in self.points:
            if gid in where:
                raise UnknownIdError(f"duplicate generator id {gid!r}")
            if not 0 <= k <= top:
                raise DegreeError(f"index of {gid!r} is {k}, outside 0..{top}")
            ids = by_index[k]
            where[gid] = (k, len(ids))
            ids.append(gid)
        families = []
        for label, coeffs, jump in (
            ("boundary", self.boundary, 1),
            ("cone_map", self.cone_map, self.cone_shift),
        ):
            data = [{} for _ in range(top + 1)]  # per degree: {row: {column: value}}
            # one nonzero entry per (src, dst), merged and coerced by __post_init__
            for src, dst, value in coeffs:
                source = where.get(src)
                if source is None:
                    raise UnknownIdError(f"{label} refers to unknown id {src!r}")
                target = where.get(dst)
                if target is None:
                    raise UnknownIdError(f"{label} refers to unknown id {dst!r}")
                if target[0] != source[0] + jump:
                    raise DegreeError(
                        f"{label} coefficient {src!r} -> {dst!r} must raise the index "
                        f"by {jump} ({source[0]} -> {target[0]})"
                    )
                rows = data[source[0]]
                row = rows.get(target[1])
                if row is None:
                    row = rows[target[1]] = {}
                row[source[1]] = value
            families.append([
                _matrix(len(by_index[k + jump]) if k + jump <= top else 0, len(ids), rows)
                for k, (rows, ids) in enumerate(zip(data, by_index))
            ])
        return by_index, families[0], families[1]

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
    value: Rational

    def __str__(self) -> str:
        what = "∂∘∂" if self.identity == "d_squared" else "∂c - c∂"
        return (
            f"{what} != 0 at degree {self.degree}, witnessed on generator "
            f"{self.witness!r} (coefficient {self.value})"
        )


def _check_identities(d: MorseDatum) -> tuple:
    """(violation or None, complex, chain map): d∘d = 0, then dc = cd if that holds.

    The carriers are fresh on each call and share the datum's matrices; the
    complex validators check them, and a carrier that passes is marked checked.
    """
    by_index, boundary, cone = d._matrices
    complex_ = CochainComplex([len(ids) for ids in by_index], boundary)
    chain_map = DegreeChainMap(complex_, d.cone_shift, cone)
    for identity, carrier, check in (
        ("d_squared", complex_, validate_complex),
        ("commute", chain_map, validate_chain_map),
    ):
        found = check(carrier)
        if found is not None:
            k = found.degree
            violation = DatumViolation(identity, k, by_index[k][found.col], found.value)
            return violation, complex_, chain_map
        carrier.checked = True
    return None, complex_, chain_map


def validate_datum(d: MorseDatum) -> Optional[DatumViolation]:
    """Check the two algebraic identities exactly.

    Structural problems (unknown ids, bad degrees) raise; a failing identity is
    returned as a report with the first failing degree and a witness generator:
    the lowest nonzero column of the failing composite, named by its id.
    """
    return _check_identities(d)[0]


def morse_complex(d: MorseDatum) -> tuple:
    """The cochain complex on critical points plus its cone chain map.

    Degree-k dimension is m_k; the differential comes from the boundary
    coefficients and the returned DegreeChainMap (shift 2p+2) from the cone
    coefficients.  Generator ordering is lexicographic by id within each index,
    so matrices are reproducible.  Both carriers come back checked; a failing
    identity raises InvalidDatumError.
    """
    violation, complex_, chain_map = _check_identities(d)
    if violation is not None:
        raise InvalidDatumError(violation)
    return complex_, chain_map


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
    boundary = d.boundary + ((a, b, 1),)
    out = MorseDatum(
        manifold_dim=d.manifold_dim,
        points=points,
        boundary=boundary,
        cone_map=d.cone_map,
        p=d.p,
        name=f"{d.name}+stab{k}" if d.name else f"stab{k}",
        metadata=dict(d.metadata),
    )
    morse_complex(out)  # raises InvalidDatumError if an identity fails
    return out


def product(d1: MorseDatum, d2: MorseDatum) -> MorseDatum:
    """Tensor-product datum: pairs of generators with index sum.

    The boundary uses the Koszul sign (-1)^{index_1} on the second factor; the
    cone map needs no sign because its degree is even.  The runtime validation
    is the safety net for the sign convention.
    """
    if d1.p != d2.p:
        raise DegreeError(f"factors must share p ({d1.p} != {d2.p})")
    morse_complex(d1)
    morse_complex(d2)

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
    morse_complex(out)  # raises InvalidDatumError if an identity fails
    return out


def datum_from_chain_map(phi, name: str = "from-chain-map") -> MorseDatum:
    """Encode a self chain map on a complex as a datum (the shared JSON schema).

    Generators are labeled g{degree}_{position}; the complex differential
    becomes the boundary and the chain map the cone coefficients, with
    p = shift/2 - 1.
    """
    complex_ = phi.complex
    top = len(complex_.dims) - 1
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
