"""Exact sparse linear algebra over the rationals.

Every cohomology computation in this package reduces to ranks of matrices
that are mostly zeros (Morse and cone differentials are ±1 on a few entries
per row, and most rows and blocks are empty); kernels and linear solves serve
only the reference induced maps and the fuzzer.  A matrix stores only its
nonempty rows, as ``{row: {column: nonzero}}``: no empty row dict and no
stored zero, so every kernel costs in proportion to the nonzeros, not to the
shape.  An integral entry is a Python ``int`` and any other entry a
``fractions.Fraction`` whose denominator is not 1: integer data stays in fast
int arithmetic, and a Fraction appears only where a division leaves a
remainder.  ``int == Fraction`` and their hashes agree, so this is a storage
choice, not a change of value.  Nothing is ever rounded.

Elimination takes the stored rows in ascending row order and walks the held
columns (those some row holds) in increasing order; fill-in only adds rows to
columns the pivot row already holds, so that set never grows.  Each column
keeps the set of rows holding it that are not pivot rows yet, and the pivot is
the shortest of them (lowest row index on ties: Markowitz's rule on rows);
only those rows are updated, and the pass stops once every row is a pivot
row.  The reduced row echelon form comes from the same forward pass, followed
by scaling each pivot row and back-substituting.  The pivot columns and the
reduced row echelon form do not depend on which row is chosen, so results are
deterministic.  Rank does not depend on orientation, so a matrix that stores
more rows than it holds columns is ranked on its transposed rows, built in the
copy that elimination consumes anyway.  A matrix is an immutable value, so it
keeps its rank once found: another rank of the same object eliminates nothing.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ShapeError

# an exact rational as stored: an int when integral, else a Fraction
Rational = Union[int, Fraction]

_ZERO = 0
_ONE = 1

# int() alone would also take "1_0", " 2" or other digits, even where Fraction
# does not, so only this plain form skips the Fraction parser
_INTEGER = re.compile(r"-?[0-9]+")
# Fraction(str) takes "1_0" from Python 3.11 and "3 / 4" from 3.12; refusing an
# underscore and whitespace next to the slash keeps the 3.10 grammar everywhere
_LATER_GRAMMAR = re.compile(r"_|\s/|/\s")


def _integral(q: Fraction) -> Rational:
    return q.numerator if q.denominator == 1 else q


def rat(value) -> Rational:
    """Coerce an int, Fraction or string like ``"3/4"`` / ``"-2"`` to an exact rational.

    Integral values come back as ``int``, others as ``Fraction``.  On every
    Python version a string is accepted exactly when it has no exponent and
    Python 3.10's ``Fraction(str)`` accepts it (so no underscore and no
    whitespace next to the slash); a plain ``-?digits`` string skips the
    Fraction parser.  Floats are rejected: inexact input has no place in the
    exact pipeline.  So are exponent strings: Fraction would expand
    ``"1e999999999"`` into an integer with a billion digits.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return _integral(value)
    if isinstance(value, str):  # before other types: isinstance(x, Fraction) is an ABC check
        # neither check below can match a plain integer, so it skips them
        integer = _INTEGER.fullmatch(value)
        if not integer:
            if "e" in value or "E" in value:
                raise ValueError(f"invalid rational {value!r}: exponents are not accepted")
            if _LATER_GRAMMAR.search(value):
                raise ValueError(f"invalid rational {value!r}")
        try:  # int() too may raise: its limit on the number of digits
            return int(value) if integer else _integral(Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {value!r}") from exc
    if isinstance(value, Fraction):  # a subclass
        return _integral(value)
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def _div(a: Rational, b: Rational) -> Rational:
    """a / b exactly: an int when the division leaves no remainder."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _integral(a / b)


def _normalize(row: dict) -> None:
    """Store the integral Fractions of a sparse row as ints, in place."""
    for j, x in row.items():
        if type(x) is not int and x.denominator == 1:
            row[j] = x.numerator


def format_rat(q: Rational) -> str:
    """Render canonically: ``"a/b"``, or ``"a"`` when the denominator is 1."""
    return str(Fraction(q))


def _matrix(rows: int, cols: int, data: dict) -> "RationalMatrix":
    """A matrix on trusted sparse rows: ``{row: {column: nonzero}}``, no empty row."""
    m = object.__new__(RationalMatrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    m._rank = None
    return m


class RationalMatrix:
    """Sparse matrix of exact rationals; treat instances as immutable values.

    ``_data`` maps the index of each nonempty row to its dict ``{column:
    nonzero value}``, each value an int or a Fraction with denominator other
    than 1 (see ``rat``).  No empty row and no zero is ever stored, so a zero
    matrix of any shape stores nothing, and equal matrices have equal
    ``_data`` and equal hashes, whatever order their rows were stored in.
    Rows may be shared between matrices: no operation changes a stored row.
    ``_rank`` is None until ``rank`` stores the rank there.
    """

    __slots__ = ("rows", "cols", "_data", "_rank")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        values = [rat(x) for x in entries]
        if rows < 0 or cols < 0 or len(values) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}"
            )
        self.rows = rows
        self.cols = cols
        data = {}
        for i in range(rows):
            row = {j: x for j, x in enumerate(values[i * cols : (i + 1) * cols]) if x}
            if row:
                data[i] = row
        self._data = data
        self._rank = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        return _matrix(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 0:
            raise ShapeError(f"negative size {n}")
        return _matrix(n, n, {i: {i: _ONE} for i in range(n)})

    def _stored(self, i: int) -> dict:
        """Row i (IndexError out of range), empty when nothing is stored there."""
        return self._data.get(range(self.rows)[i], {})

    def entry(self, i: int, j: int) -> Rational:
        return self._stored(i).get(j, _ZERO)

    def nonzero(self):
        """Yield (i, j, value) for every nonzero entry, rows ascending, columns ascending."""
        for i in sorted(self._data):
            r = self._data[i]
            for j in sorted(r):
                yield i, j, r[j]

    def row(self, i: int) -> tuple:
        r = self._stored(i)
        return tuple(r.get(j, _ZERO) for j in range(self.cols))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        data = {}
        for i, r in self._data.items():
            for j, x in r.items():
                data.setdefault(j, {})[i] = x
        return _matrix(self.cols, self.rows, data)

    def is_zero(self) -> bool:
        return not self._data

    def scaled(self, factor) -> "RationalMatrix":
        f = rat(factor)
        if not f:
            return RationalMatrix.zeros(self.rows, self.cols)
        data = {i: {j: f * x for j, x in r.items()} for i, r in self._data.items()}
        for row in data.values():
            _normalize(row)
        return _matrix(self.rows, self.cols, data)

    def submatrix(self, row_slice: slice, col_slice: slice) -> "RationalMatrix":
        rows = range(self.rows)[row_slice]
        cols = range(self.cols)[col_slice]
        return self._pick(rows, cols)

    def select_columns(self, indices: Sequence[int]) -> "RationalMatrix":
        return self._pick(range(self.rows), indices)

    def _pick(self, rows: range, cols: Sequence[int]) -> "RationalMatrix":
        """A range of rows, and columns by index in the given order (repeats allowed)."""
        where = defaultdict(list)
        for k, j in enumerate(cols):
            where[range(self.cols)[j]].append(k)
        data = {}
        for i, r in self._data.items():
            if i in rows:
                row = {k: x for j, x in r.items() if j in where for k in where[j]}
                if row:
                    data[rows.index(i)] = row
        return _matrix(len(rows), len(cols), data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        orows = other._data
        if not orows:  # a zero right factor: every product row is empty
            return _matrix(self.rows, other.cols, {})
        data = {}
        for i, srow in self._data.items():
            acc = {}
            for k, s in srow.items():
                orow = orows.get(k)
                if orow is not None:
                    for j, o in orow.items():
                        acc[j] = acc.get(j, _ZERO) + s * o
            row = {j: x if type(x) is int else _integral(x) for j, x in acc.items() if x}
            if row:
                data[i] = row
        return _matrix(self.rows, other.cols, data)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        data = dict(self._data)
        for i, b in other._data.items():
            row = dict(data.get(i, ()))
            for j, x in b.items():
                y = row.get(j, _ZERO) + sign * x
                if y:
                    row[j] = y if type(y) is int else _integral(y)
                else:
                    del row[j]
            if row:
                data[i] = row
            else:
                del data[i]
        return _matrix(self.rows, self.cols, data)

    def __neg__(self) -> "RationalMatrix":
        if not self._data:  # a zero matrix is its own negative
            return self
        data = {i: {j: -x for j, x in r.items()} for i, r in self._data.items()}
        return _matrix(self.rows, self.cols, data)

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
        rows = frozenset((i, frozenset(r.items())) for i, r in self._data.items())
        return hash((self.rows, self.cols, rows))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 16:
            return f"RationalMatrix({[[str(x) for x in self.row(i)] for i in range(self.rows)]})"
        return f"RationalMatrix({self.rows}x{self.cols})"


def block(grid: Sequence[Sequence[Optional[RationalMatrix]]]) -> RationalMatrix:
    """The block matrix of a rectangular grid of matrices, None for a zero block.

    Each block row and each block column must hold a matrix, which fixes its
    height or width, and every matrix in it must agree (else ShapeError).
    Each output row is written once, into a new dict, with no zero block and
    no intermediate stack.
    """
    widths = [None] * (len(grid[0]) if grid else 0)
    placed = []  # (stored rows, first row, block column) of each block that stores a row
    nrows = 0
    for r, blocks in enumerate(grid):
        if len(blocks) != len(widths):
            raise ShapeError("block grid is not rectangular")
        height = None
        c = 0
        for m in blocks:
            if m is not None:
                if height is None:
                    height = m.rows
                elif m.rows != height:
                    raise ShapeError(f"block row {r} mixes {height} and {m.rows} rows")
                width = widths[c]
                if width is None:
                    widths[c] = m.cols
                elif m.cols != width:
                    raise ShapeError(f"block column {c} mixes {width} and {m.cols} columns")
                if m._data:
                    placed.append((m._data, nrows, c))
            c += 1
        if height is None:
            raise ShapeError(f"block row {r} holds no matrix")
        nrows += height
    if None in widths:
        raise ShapeError(f"block column {widths.index(None)} holds no matrix")
    lefts = []  # the first column of each block column
    ncols = 0
    for width in widths:
        lefts.append(ncols)
        ncols += width
    data = {}
    for rows, top, c in placed:
        left = lefts[c]
        for i, row in rows.items():
            out = data.setdefault(top + i, {})
            for j, x in row.items():
                out[left + j] = x
    return _matrix(nrows, ncols, data)


def _eliminate(rows: list, reduce: bool) -> tuple[list, list]:
    """Gaussian elimination on sparse rows, which it consumes.

    Returns (pivot rows, pivot columns), both in pivot-column order.  The
    forward pass clears each pivot column from the rows that are not pivot rows
    yet, which settles the pivot columns and the rank.  With ``reduce`` the
    pivot rows are then scaled to a leading 1 and back-substituted, last
    first, into the nonzero rows of the reduced row echelon form.  The list
    order is the tie order, so callers list rows by ascending row index.
    """
    holders = defaultdict(set)  # column -> indices of the non-pivot rows holding it
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivot_rows, pivots = [], []
    # fill-in only reaches columns the pivot row holds, so no column joins later
    for c in sorted(holders):
        if len(pivots) == len(rows):  # no row left
            break
        candidates = holders[c]
        if not candidates:
            continue
        if len(candidates) == 1:
            (p,) = candidates
        else:
            p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            holders[j].discard(p)
        pivot_rows.append(prow)
        pivots.append(c)
        if candidates:  # other rows hold c; clearing it changes holders[c]
            _clear(rows, list(candidates), c, prow, holders)
    if reduce:
        _back_substitute(pivot_rows, pivots)
    return pivot_rows, pivots


def _clear(rows: list, targets: list, c: int, prow: dict, holders) -> None:
    """Subtract multiples of the pivot row ``prow`` that clear column c from the target rows.

    ``holders`` (column -> rows holding it), when given, follows the fill-in
    and the cancellations.
    """
    pivot = prow[c]
    unit = pivot == 1
    # int arithmetic is closed: only a Fraction factor or entry can leave an
    # integral Fraction behind, which _normalize turns back into an int
    integral = all(type(x) is int for x in prow.values())
    for i in targets:
        row = rows[i]
        f = row[c] if unit else _div(row[c], pivot)
        for j, x in prow.items():
            y = row.get(j)
            if y is None:
                row[j] = -f * x
                if holders is not None:
                    holders[j].add(i)
            else:
                y -= f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    if holders is not None:
                        holders[j].discard(i)
        if not integral or type(f) is not int:
            _normalize(row)


def _back_substitute(pivot_rows: list, pivots: list) -> None:
    """Turn echelon pivot rows into the reduced row echelon form, in place.

    Each forward pivot row holds its pivot column and later columns only.
    Taken last first, a row is scaled to a leading 1 and then holds no other
    pivot column, so clearing its column from the rows above brings them free
    columns only: the rows holding each pivot column are known up front.
    """
    position = {c: k for k, c in enumerate(pivots)}
    above = defaultdict(list)  # pivot column -> earlier pivot rows holding it
    for k, row in enumerate(pivot_rows):
        for j in row:
            if position.get(j, k) > k:
                above[j].append(k)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        prow = pivot_rows[k]
        pivot = prow[c]
        if pivot != 1:
            prow = pivot_rows[k] = {j: _div(x, pivot) for j, x in prow.items()}
        if c in above:
            _clear(pivot_rows, above[c], c, prow, None)


def _rows(data: dict) -> list:
    """Copies of the stored rows, by ascending row index: the elimination tie order."""
    return [dict(data[i]) for i in sorted(data)]


def _pivots(m: RationalMatrix) -> tuple:
    """Pivot columns of m: the columns independent of the columns before them."""
    return tuple(_eliminate(_rows(m._data), reduce=False)[1]) if m._data else ()


def rank(m: RationalMatrix) -> int:
    """Dimension of the column space, by exact forward elimination of the shorter side.

    A matrix that stores no row has rank 0 and is not eliminated.  The first
    call on any other matrix stores the rank on m, and later calls read it.
    """
    if m._rank is None:
        data = m._data
        held = set().union(*data.values())
        if len(data) > len(held):  # the transposed rows, by ascending column index
            columns = {j: {} for j in sorted(held)}
            for i, row in data.items():
                for j, x in row.items():
                    columns[j][i] = x
            rows = list(columns.values())
        else:
            rows = _rows(data)
        m._rank = len(_eliminate(rows, reduce=False)[1]) if rows else 0
    return m._rank


def nullspace_basis(m: RationalMatrix) -> RationalMatrix:
    """Basis of ker(m), one column per free variable, in column order.

    The result has shape cols(m) x (cols(m) - rank(m)); multiplying by m
    gives the exact zero matrix.
    """
    rref, pivots = _eliminate(_rows(m._data), reduce=True)
    pivot_set = set(pivots)
    free = {j: k for k, j in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    data = {j: {k: _ONE} for j, k in free.items()}
    for row, pc in zip(rref, pivots):
        # every other entry of a reduced pivot row sits in a free column
        basis_row = {free[j]: -x for j, x in row.items() if j != pc}
        if basis_row:
            data[pc] = basis_row
    return _matrix(m.cols, len(free), data)


def column_space_basis(m: RationalMatrix) -> RationalMatrix:
    """The pivot columns of m (original entries), a basis of the column space."""
    return m.select_columns(_pivots(m))


def solve(m: RationalMatrix, rhs: RationalMatrix) -> Optional[RationalMatrix]:
    """A particular solution X of m X = rhs (free variables 0), or None."""
    if m.rows != rhs.rows:
        raise ShapeError("solve: row mismatch")
    n = m.cols
    rref, pivots = _eliminate(_rows(block([[m, rhs]])._data), reduce=True)
    if pivots and pivots[-1] >= n:
        return None
    data = {}
    for row, pc in zip(rref, pivots):
        solution_row = {j - n: x for j, x in row.items() if j >= n}
        if solution_row:
            data[pc] = solution_row
    return _matrix(n, rhs.cols, data)
