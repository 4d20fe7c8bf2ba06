"""Exact sparse linear algebra over the rationals.

Every cohomology computation in this package reduces to ranks, kernels and
induced quotient maps of matrices that are mostly zeros (Morse and cone
differentials are ±1 on a few entries per row).  A matrix stores one dict of
nonzero entries per row; entries are ``fractions.Fraction`` throughout and
nothing is ever rounded.

Elimination walks the columns in increasing order and, for each, takes as
pivot the shortest row holding that column that is not a pivot row yet
(lowest row index on ties); only rows holding the pivot column are updated.
The pivot columns and the reduced row echelon form do not depend on which row
is chosen, so results are deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MembershipError, ShapeError

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, Fraction or string like ``"3/4"`` / ``"-2"`` to an exact rational.

    Floats are rejected: inexact input has no place in the exact pipeline.  So
    are exponent strings: Fraction would expand ``"1e999999999"`` into an
    integer with a billion digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"invalid rational {value!r}: exponents are not accepted")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def format_rat(q: Fraction) -> str:
    """Render canonically: ``"a/b"``, or ``"a"`` when the denominator is 1."""
    return str(Fraction(q))


def _matrix(rows: int, cols: int, data) -> "RationalMatrix":
    """A matrix on trusted sparse rows: a tuple of dicts of nonzero Fractions."""
    m = object.__new__(RationalMatrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    return m


class RationalMatrix:
    """Sparse matrix of Fractions; treat instances as immutable values.

    ``_data`` holds one dict ``{column: nonzero Fraction}`` per row.  No zero
    is ever stored, so equal matrices have equal rows and equal hashes.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        values = [rat(x) for x in entries]
        if rows < 0 or cols < 0 or len(values) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = tuple(
            {j: x for j, x in enumerate(values[i * cols : (i + 1) * cols]) if x}
            for i in range(rows)
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def from_sparse(cls, rows: int, cols: int, sparse_rows: Sequence[Mapping]) -> "RationalMatrix":
        """A rows x cols matrix from one ``{column: value}`` mapping per row.

        Values are coerced like the dense constructor's entries; zeros are dropped.
        """
        if rows < 0 or cols < 0 or len(sparse_rows) != rows:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows} sparse rows, got {len(sparse_rows)}")
        data = []
        for r in sparse_rows:
            row = {}
            for j, x in r.items():
                if not 0 <= j < cols:
                    raise ShapeError(f"column {j} outside 0..{cols - 1}")
                q = rat(x)
                if q:
                    row[j] = q
            data.append(row)
        return _matrix(rows, cols, tuple(data))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        return _matrix(rows, cols, tuple({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 0:
            raise ShapeError(f"negative size {n}")
        return _matrix(n, n, tuple({i: _ONE} for i in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i].get(j, _ZERO)

    def nonzero(self):
        """Yield (i, j, value) for every nonzero entry, row by row, columns ascending."""
        for i, r in enumerate(self._data):
            for j in sorted(r):
                yield i, j, r[j]

    def row(self, i: int) -> tuple:
        r = self._data[i]
        return tuple(r.get(j, _ZERO) for j in range(self.cols))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        data = tuple({} for _ in range(self.cols))
        for i, r in enumerate(self._data):
            for j, x in r.items():
                data[j][i] = x
        return _matrix(self.cols, self.rows, data)

    def is_zero(self) -> bool:
        return not any(self._data)

    def scaled(self, factor) -> "RationalMatrix":
        f = rat(factor)
        if not f:
            return RationalMatrix.zeros(self.rows, self.cols)
        return _matrix(
            self.rows, self.cols, tuple({j: f * x for j, x in r.items()} for r in self._data)
        )

    def submatrix(self, row_slice: slice, col_slice: slice) -> "RationalMatrix":
        rows = range(self.rows)[row_slice]
        cols = range(self.cols)[col_slice]
        return self._pick(rows, cols)

    def select_columns(self, indices: Sequence[int]) -> "RationalMatrix":
        return self._pick(range(self.rows), indices)

    def _pick(self, rows: Sequence[int], cols: Sequence[int]) -> "RationalMatrix":
        """Rows and columns by index, in the given order (repeats allowed)."""
        where = defaultdict(list)
        for k, j in enumerate(cols):
            where[range(self.cols)[j]].append(k)
        data = tuple(
            {k: x for j, x in self._data[i].items() if j in where for k in where[j]}
            for i in rows
        )
        return _matrix(len(rows), len(cols), data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        orows = other._data
        data = []
        for srow in self._data:
            acc = {}
            for k, s in srow.items():
                for j, o in orows[k].items():
                    acc[j] = acc.get(j, _ZERO) + s * o
            data.append({j: x for j, x in acc.items() if x})
        return _matrix(self.rows, other.cols, tuple(data))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        data = []
        for a, b in zip(self._data, other._data):
            row = dict(a)
            for j, x in b.items():
                y = row.get(j, _ZERO) + sign * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            data.append(row)
        return _matrix(self.rows, self.cols, tuple(data))

    def __neg__(self) -> "RationalMatrix":
        return _matrix(
            self.rows, self.cols, tuple({j: -x for j, x in r.items()} for r in self._data)
        )

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._data)))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 16:
            return f"RationalMatrix({[[str(x) for x in self.row(i)] for i in range(self.rows)]})"
        return f"RationalMatrix({self.rows}x{self.cols})"


def hstack(*mats: RationalMatrix) -> RationalMatrix:
    if not mats:
        raise ShapeError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack row mismatch")
    data = tuple({} for _ in range(rows))
    offset = 0
    for m in mats:
        for row, r in zip(data, m._data):
            for j, x in r.items():
                row[offset + j] = x
        offset += m.cols
    return _matrix(rows, offset, data)


def vstack(*mats: RationalMatrix) -> RationalMatrix:
    if not mats:
        raise ShapeError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack column mismatch")
    data = tuple(dict(r) for m in mats for r in m._data)
    return _matrix(len(data), cols, data)


def block(grid: Sequence[Sequence[RationalMatrix]]) -> RationalMatrix:
    """Assemble a block matrix from a rectangular grid of blocks."""
    return vstack(*[hstack(*row) for row in grid])


def _eliminate(rows: list, ncols: int, reduce: bool) -> tuple[list, list]:
    """Gaussian elimination on sparse rows, which it consumes.

    Returns (pivot rows, pivot columns), both in pivot-column order.  With
    ``reduce`` the pivot rows are the nonzero rows of the reduced row echelon
    form; without it only non-pivot rows are cleared (forward elimination),
    which settles the pivot columns and the rank.
    """
    holders = defaultdict(set)  # column -> indices of the rows holding it
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    free = set(range(len(rows)))  # rows not chosen as pivot yet
    pivot_rows, pivots = [], []
    for c in range(ncols):
        held = holders.get(c)
        if not held:
            continue
        candidates = held & free
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        free.discard(p)
        prow = rows[p]
        if reduce:
            if prow[c] != 1:
                inv = 1 / prow[c]
                prow = rows[p] = {j: x * inv for j, x in prow.items()}
            targets = list(held)
        else:
            targets = list(candidates)
        pivot = prow[c]
        unit = pivot == 1
        for i in targets:
            if i == p:
                continue
            row = rows[i]
            f = row[c] if unit else row[c] / pivot
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    holders[j].add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(i)
        pivot_rows.append(prow)
        pivots.append(c)
    return pivot_rows, pivots


def _pivots(m: RationalMatrix) -> list:
    """Pivot columns of m: the columns independent of the columns before them."""
    return _eliminate([dict(r) for r in m._data], m.cols, reduce=False)[1]


def rank(m: RationalMatrix) -> int:
    """Dimension of the column space, by exact forward elimination."""
    return len(_pivots(m))


def nullspace_basis(m: RationalMatrix) -> RationalMatrix:
    """Basis of ker(m), one column per free variable, in column order.

    The result has shape cols(m) x (cols(m) - rank(m)); multiplying by m
    gives the exact zero matrix.
    """
    rref, pivots = _eliminate([dict(r) for r in m._data], m.cols, reduce=True)
    pivot_set = set(pivots)
    free = {j: k for k, j in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    data = [{free[j]: _ONE} if j in free else None for j in range(m.cols)]
    for row, pc in zip(rref, pivots):
        # every other entry of a reduced pivot row sits in a free column
        data[pc] = {free[j]: -x for j, x in row.items() if j != pc}
    return _matrix(m.cols, len(free), tuple(data))


def column_space_basis(m: RationalMatrix) -> RationalMatrix:
    """The pivot columns of m (original entries), a basis of the column space."""
    return m.select_columns(_pivots(m))


def solve(m: RationalMatrix, rhs: RationalMatrix) -> Optional[RationalMatrix]:
    """A particular solution X of m X = rhs (free variables 0), or None."""
    if m.rows != rhs.rows:
        raise ShapeError("solve: row mismatch")
    n = m.cols
    aug = [{**a, **{n + j: x for j, x in b.items()}} for a, b in zip(m._data, rhs._data)]
    rref, pivots = _eliminate(aug, n + rhs.cols, reduce=True)
    if pivots and pivots[-1] >= n:
        return None
    data = [{} for _ in range(n)]
    for row, pc in zip(rref, pivots):
        data[pc] = {j - n: x for j, x in row.items() if j >= n}
    return _matrix(n, rhs.cols, tuple(data))


def inverse(m: RationalMatrix) -> RationalMatrix:
    if m.rows != m.cols:
        raise ShapeError("inverse of a non-square matrix")
    inv = solve(m, RationalMatrix.identity(m.rows))
    if inv is None or rank(m) != m.rows:
        raise ShapeError("matrix is singular")
    return inv


def quotient_map(
    f: RationalMatrix,
    sub_source: RationalMatrix,
    sub_target: RationalMatrix,
    split: int,
) -> RationalMatrix:
    """Matrix of the map induced by f on a quotient.

    ``sub_source`` holds class representatives of the source quotient, one per
    column.  ``sub_target`` is the concatenation (representatives | quotiented
    subspace basis); ``split`` marks where the representatives end.  Each image
    f @ v is expressed in ``sub_target``'s columns and the first ``split``
    coordinates are kept.  Raises MembershipError when an image is not in the
    stated span (the usual symptom of feeding in a non-chain-map).
    """
    if not 0 <= split <= sub_target.cols:
        raise ShapeError("split out of range")
    images = f @ sub_source
    coords = solve(sub_target, images)
    if coords is None:
        for j in range(sub_source.cols):
            if solve(sub_target, images.select_columns([j])) is None:
                raise MembershipError(
                    f"image of representative {j} is outside the stated span"
                )
        raise MembershipError("image outside the stated span")
    return coords.submatrix(slice(0, split), slice(None))
