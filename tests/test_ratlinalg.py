import re
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse import ratlinalg
from conemorse.errors import ShapeError
from conemorse.ratlinalg import (
    RationalMatrix,
    _div,
    _eliminate,
    _normalize,
    _pivots,
    _rows,
    block,
    column_space_basis,
    format_rat,
    nullspace_basis,
    rank,
    rat,
    solve,
)


def M(rows):
    return RationalMatrix.from_rows(rows)


class TestRat:
    def test_parses_strings(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-2") == Fraction(-2)
        assert rat(5) == Fraction(5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="invalid rational"):
            rat("1/0")

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_exponents_rejected(self):
        # Fraction would expand an exponent into an integer of any size
        for text in ["1e5", "1E-3"]:
            with pytest.raises(ValueError, match="exponents are not accepted"):
                rat(text)

    def test_format_round_trip(self):
        for text in ["3/4", "-5", "0", "-7/3"]:
            assert format_rat(rat(text)) == text

    def test_integral_values_are_ints(self):
        for value, want in [(5, 5), (True, 1), (Fraction(6, 3), 2), ("-6/3", -2), ("12", 12)]:
            got = rat(value)
            assert type(got) is int and got == want
        assert type(rat("3/4")) is Fraction and type(rat(Fraction(1, 2))) is Fraction


def fraction_rat(value):
    """Coercion with every value a Fraction: the reference the int fast path must match.

    Strings follow Python 3.10's Fraction grammar on every version: the
    underscores (3.11) and the spaces around "/" (3.12) of later parsers are
    refused before Fraction sees them.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"invalid rational {value!r}: exponents are not accepted")
        if "_" in value or re.search(r"\s/|/\s", value):
            raise ValueError(f"invalid rational {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


# (input, value or exception type)
PARITY_CASES = [
    ("1_0", ValueError),
    (" 2", 2),
    ("+2", 2),
    ("\u0663", 3),  # ARABIC-INDIC DIGIT THREE
    ("1.5", Fraction(3, 2)),
    ("-6/3", -2),
    (True, 1),
    ("-0", 0),
    ("007", 7),
    (" 3/4 ", Fraction(3, 4)),
    ("3 / 4", ValueError),
    ("3/\u00a04", ValueError),  # NO-BREAK SPACE after the slash
    ("1.5_0", ValueError),
    ("1\n", 1),
    ("7" * 4300, int("7" * 4300)),
    ("-", ValueError),
    ("", ValueError),
    ("--1", ValueError),
    ("0x10", ValueError),
    ("1e3", ValueError),
    ("1/0", ValueError),
    ("1" * 5000, ValueError),  # int() refuses more than 4300 digits by default
    ("3/" + "1" * 5000, ValueError),
    (0.5, TypeError),
    (2.0, TypeError),
    (None, TypeError),
]


@pytest.mark.parametrize(
    "value, want", PARITY_CASES, ids=[repr(v)[:12] for v, _ in PARITY_CASES]
)
def test_rat_matches_fraction_parsing(value, want):
    try:
        reference = fraction_rat(value)
    except (TypeError, ValueError) as exc:
        assert want is type(exc)
        with pytest.raises(type(exc)) as raised:
            rat(value)
        assert str(raised.value) == str(exc)
        return
    assert want == reference and not isinstance(want, type)
    got = rat(value)
    assert got == reference
    assert type(got) is (int if reference.denominator == 1 else Fraction)


class TestRank:
    def test_proportional_rows(self):
        assert rank(M([[1, 2], [2, 4]])) == 1

    def test_empty_matrix(self):
        assert rank(RationalMatrix.zeros(0, 0)) == 0

    def test_full_column_rank(self):
        assert rank(M([[1, 0], [0, 1], [1, 1]])) == 2


class TestNullspace:
    def test_single_relation(self):
        basis = nullspace_basis(M([[1, 1]]))
        assert basis.shape == (2, 1)
        # proportional to (1, -1)
        assert basis.entry(0, 0) == -basis.entry(1, 0) != 0

    def test_trivial_kernel(self):
        assert nullspace_basis(RationalMatrix.identity(3)).shape == (3, 0)

    def test_rank_one_kernel(self):
        m = M([[1, 2], [2, 4]])
        basis = nullspace_basis(m)
        assert basis.shape == (2, 1)
        # proportional to (2, -1)
        assert basis.entry(0, 0) * (-1) == basis.entry(1, 0) * 2
        assert (m @ basis).is_zero()


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_side=12):
    rows = draw(st.integers(min_value=0, max_value=max_side))
    cols = draw(st.integers(min_value=0, max_value=max_side))
    entries = draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    return RationalMatrix(rows, cols, entries)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + nullspace_basis(m).cols == m.cols


@given(matrices(max_side=8))
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(matrices(max_side=8))
@settings(max_examples=60, deadline=None)
def test_kernel_is_exact(m):
    basis = nullspace_basis(m)
    if basis.cols:
        assert (m @ basis).is_zero()


def test_block_shapes():
    a = RationalMatrix.identity(2)
    b = RationalMatrix.zeros(2, 3)
    assert block([[a, b]]).shape == (2, 5)
    assert block([[a], [b.transpose()]]).shape == (5, 2)


def test_block_takes_none_for_a_zero_block():
    d = M([[1, 2], [0, 3], [4, 0]])
    phi = M([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, -1, 5]])
    low = M([[0, 7, 0]])
    assert block([[d, phi], [None, low]]) == M(
        [[1, 2, Fraction(1, 2), 0, 0], [0, 3, 0, 0, 0], [4, 0, 0, -1, 5], [0, 0, 0, 7, 0]]
    )
    assert block([[low, None], [phi, d]]) == M(
        [[0, 7, 0, 0, 0], [Fraction(1, 2), 0, 0, 1, 2], [0, 0, 0, 0, 3], [0, -1, 5, 4, 0]]
    )
    # a zero block and a None block store the same nothing; the rows are new dicts
    written = block([[d, None], [None, low]])
    assert written == block([[d, RationalMatrix.zeros(3, 3)], [RationalMatrix.zeros(1, 2), low]])
    assert all(written._data[i] is not r for i, r in d._data.items())
    assert_stores_nonzeros_only(written)


@pytest.mark.parametrize(
    "grid",
    [
        [[None, None]],  # a block row, and both block columns, with no matrix
        [[RationalMatrix.identity(2), None], [None, None]],  # a bare None row and column
        [[RationalMatrix.identity(2)], [None]],  # a bare None row
        [[RationalMatrix.identity(2), None]],  # a bare None column
        [[RationalMatrix.identity(2), RationalMatrix.zeros(3, 1)]],  # heights disagree
        [[RationalMatrix.identity(2)], [RationalMatrix.zeros(1, 3)]],  # widths disagree
        [[RationalMatrix.identity(2)], [RationalMatrix.identity(2), None]],  # ragged grid
    ],
    ids=["all-none", "none-row-and-column", "none-row", "none-column", "heights", "widths", "ragged"],
)
def test_block_refuses_a_grid_that_fixes_no_shape(grid):
    with pytest.raises(ShapeError):
        block(grid)


# -- the dense Fraction Gauss-Jordan routines, kept as the oracle -------------


def dense_rref(rows):
    """Row-reduce a copy of dense rows; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_nullspace(rows, ncols):
    """Kernel basis as dense rows of the ncols x (ncols - rank) basis matrix."""
    rref, pivots = dense_rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][j]
        basis.append(v)
    return [[basis[c][r] for c in range(len(free))] for r in range(ncols)]


def dense_solve(rows, rhs_rows, ncols, rhs_cols):
    rref, pivots = dense_rref([a + b for a, b in zip(rows, rhs_rows)])
    if any(p >= ncols for p in pivots):
        return None
    sol = [[Fraction(0)] * rhs_cols for _ in range(ncols)]
    for i, pc in enumerate(pivots):
        sol[pc] = rref[i][ncols:]
    return sol


def reference_eliminate(rows: list, ncols: int, reduce: bool) -> tuple[list, list]:
    """The eliminator before the forward pass kept only non-pivot holders, kept as the pivot-rule reference.

    Gaussian elimination on sparse rows, which it consumes.

    Returns (pivot rows, pivot columns), both in pivot-column order.  With
    ``reduce`` the pivot rows are the nonzero rows of the reduced row echelon
    form; without it only non-pivot rows are cleared (forward elimination),
    which settles the pivot columns and the rank.  The list order is the tie
    order, so callers list rows by ascending row index.  Only the held columns
    below ``ncols`` are visited.
    """
    holders = defaultdict(set)  # column -> indices of the rows holding it
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    if not holders:  # the zero matrix, empty ones included
        return [], []
    free = set(range(len(rows)))  # rows not chosen as pivot yet
    pivot_rows, pivots = [], []
    # fill-in only reaches columns the pivot row holds, so no column joins later
    for c in sorted(holders):
        if c >= ncols:
            break
        held = holders[c]
        if not held:
            continue
        candidates = held & free
        if not candidates:
            continue
        if len(candidates) == 1:
            (p,) = candidates
        else:
            p = min(candidates, key=lambda i: (len(rows[i]), i))
        free.discard(p)
        prow = rows[p]
        pivot = prow[c]
        if reduce:
            if pivot != 1:
                prow = rows[p] = {j: _div(x, pivot) for j, x in prow.items()}
                pivot = 1
            targets = held
        else:
            targets = candidates
        pivot_rows.append(prow)
        pivots.append(c)
        if len(targets) == 1:  # no other row holds c: nothing to clear
            continue
        targets = list(targets)  # clearing c changes holders[c]
        unit = pivot == 1
        # int arithmetic is closed: only a Fraction factor or entry can leave an
        # integral Fraction behind, which _normalize turns back into an int
        integral = all(type(x) is int for x in prow.values())
        for i in targets:
            if i == p:
                continue
            row = rows[i]
            f = row[c] if unit else _div(row[c], pivot)
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
            if not integral or type(f) is not int:
                _normalize(row)
    return pivot_rows, pivots


# mostly zeros, like the Morse and cone differentials, plus non-unit rationals
rational_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.integers(min_value=-3, max_value=3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def grids(draw, max_side=9, entries=rational_entries):
    """(rows, cols, dense rows): empty, wide, tall and square shapes."""
    rows = draw(st.integers(min_value=0, max_value=max_side))
    cols = draw(st.integers(min_value=0, max_value=max_side))
    grid = [
        draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)
    ]
    return rows, cols, grid


def build(rows, cols, grid):
    return RationalMatrix(rows, cols, [x for r in grid for x in r])


@given(st.one_of(grids(), grids(entries=st.just(Fraction(0)))))
@settings(max_examples=150, deadline=None)
def test_elimination_matches_dense_oracle(shape_and_grid):
    rows, cols, grid = shape_and_grid
    m = build(rows, cols, grid)
    assert m.to_rows() == grid
    rref, pivots = dense_rref(grid)
    sparse_rref, sparse_pivots = _eliminate([dict(r) for r in m._data.values()], reduce=True)
    assert sparse_pivots == pivots
    assert [tuple(r.get(j, 0) for j in range(cols)) for r in sparse_rref] == [
        tuple(r) for r in rref[: len(pivots)]
    ]
    assert _eliminate([dict(r) for r in m._data.values()], reduce=False)[1] == pivots
    assert_same_pivot_rule(m)
    # rank eliminates the shorter side: either orientation gives the reference rank
    reference = reference_eliminate(_rows(m._data), cols, reduce=False)[1]
    assert rank(m) == rank(m.transpose()) == len(reference) == len(pivots)
    assert nullspace_basis(m) == build(cols, cols - len(pivots), dense_nullspace(grid, cols))
    assert column_space_basis(m) == build(rows, len(pivots), [[r[j] for j in pivots] for r in grid])


def assert_same_pivot_rule(m):
    """Both passes choose the pivot rows of the reference: equal rows, equal columns."""
    for reduce in (False, True):
        got = _eliminate(_rows(m._data), reduce)
        assert got == reference_eliminate(_rows(m._data), m.cols, reduce)


def test_rank_eliminates_the_side_with_fewer_rows(monkeypatch):
    seen = []

    def recorded(rows, reduce):
        seen.append([dict(r) for r in rows])
        return _eliminate(rows, reduce)

    monkeypatch.setattr(ratlinalg, "_eliminate", recorded)
    tall = M([[1, 0], [2, 0], [0, 3], [4, Fraction(1, 2)]])
    # more stored rows than held columns: the transposed rows, by column
    thin = M([[1, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]])
    wide = M([[1, 2, 0], [2, 4, 1]])
    assert [rank(m) for m in (tall, thin, wide)] == [2, 1, 2]
    assert seen == [
        _rows(tall.transpose()._data),
        [{0: 1, 2: 2, 3: 3}],
        _rows(wide._data),
    ]


def arrow(n):
    """One dense first row, then rows {0, i}: eliminating column 0 with row 0 fills everything."""
    return RationalMatrix(n, n, [int(i == 0 or j in (0, i)) for i in range(n) for j in range(n)])


def test_arrow_matrices_keep_the_shortest_row_rule():
    # a pivot order blind to fill-in takes row 0 for column 0 and does n^2
    # work per column after it; the shortest row keeps the whole pass O(n^2)
    m = arrow(300)
    for a in (m, m.transpose()):
        assert_same_pivot_rule(a)
        assert rank(a) == 300


@given(grids(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_matches_dense_oracle(shape_and_grid, data):
    rows, cols, grid = shape_and_grid
    rhs_cols = data.draw(st.integers(min_value=0, max_value=3))
    rhs = data.draw(
        st.lists(
            st.lists(rational_entries, min_size=rhs_cols, max_size=rhs_cols),
            min_size=rows,
            max_size=rows,
        )
    )
    m, b = build(rows, cols, grid), build(rows, rhs_cols, rhs)
    want = dense_solve(grid, rhs, cols, rhs_cols)
    got = solve(m, b)
    if want is None:
        assert got is None
    else:
        assert got == build(cols, rhs_cols, want)
        assert m @ got == b
    # a right-hand side in the column space always has a solution
    x = build(cols, rhs_cols, [[Fraction(i - j) for j in range(rhs_cols)] for i in range(cols)])
    reachable = solve(m, m @ x)
    assert reachable is not None and m @ reachable == m @ x


@given(grids(max_side=6))
@settings(max_examples=100, deadline=None)
def test_value_semantics(shape_and_grid):
    rows, cols, grid = shape_and_grid
    m = build(rows, cols, grid)
    zero = RationalMatrix.zeros(rows, cols)
    assert m - m == zero and hash(m - m) == hash(zero)
    reached = [
        m @ RationalMatrix.identity(cols),
        RationalMatrix.identity(rows) @ m,
        m + zero,
        -(-m),
        m.transpose().transpose(),
        m.scaled(3).scaled(Fraction(1, 3)),
        (m + m) - m,
        m.submatrix(slice(None), slice(None)),
        m.select_columns(range(cols)),
        block([[m.submatrix(slice(0, rows // 2), slice(None))], [m.submatrix(slice(rows // 2, None), slice(None))]]),
        block([[m.select_columns(range(cols // 2)), m.select_columns(range(cols // 2, cols))]]),
        block([[m, RationalMatrix.zeros(rows, 1)]]).select_columns(range(cols)),
        block([[m, None], [None, RationalMatrix.zeros(1, 1)]]).submatrix(slice(0, rows), slice(0, cols)),
    ]
    for other in reached:
        assert other == m and hash(other) == hash(m)
    assert (m.scaled(0) == zero) and m.scaled(0).is_zero()
    assert m.is_zero() == all(x == 0 for r in grid for x in r)
    for other in reached + [m, zero, m - m, m.scaled(0), m.transpose(), m @ m.transpose()]:
        assert_stores_nonzeros_only(other)


def assert_stores_nonzeros_only(m):
    """The storage invariant: only nonempty rows, in range, and no stored zero."""
    assert all(m._data.values())
    assert all(x for r in m._data.values() for x in r.values())
    assert all(0 <= i < m.rows for i in m._data)
    assert all(0 <= j < m.cols for r in m._data.values() for j in r)


def test_zero_blocks_store_nothing():
    huge = RationalMatrix.zeros(10**6, 10**6)
    grid = block([[huge, huge], [huge, huge]])
    assert grid.shape == (2 * 10**6, 2 * 10**6)
    for m in (huge, grid):
        assert m._data == {} and m.is_zero() and rank(m) == 0
    assert len(RationalMatrix.identity(5)._data) == 5


def test_row_and_entry_check_the_row_index():
    m = M([[1, 0], [0, 0]])
    assert m.row(1) == (0, 0) and m.entry(1, 0) == 0
    assert m.row(-2) == (1, 0) and m.entry(-2, 0) == 1
    for i in (2, -3):
        with pytest.raises(IndexError):
            m.row(i)
        with pytest.raises(IndexError):
            m.entry(i, 0)


@given(grids(max_side=6), st.data())
@settings(max_examples=100, deadline=None)
def test_row_storage_order_does_not_matter(shape_and_grid, data):
    # a transpose stores its rows in the order their columns first appear,
    # and elimination must still break ties by the matrix row index
    assert list(M([[0, 1], [1, 0]]).transpose()._data) == [1, 0]
    rows, cols, grid = shape_and_grid
    columns = [[grid[i][j] for i in range(rows)] for j in range(cols)]
    shuffled = build(cols, rows, columns).transpose()
    twin = build(rows, cols, grid)
    assert shuffled == twin and hash(shuffled) == hash(twin)
    assert _rows(shuffled._data) == _rows(twin._data)  # the tie order is the row order
    assert _pivots(shuffled) == _pivots(twin)
    assert nullspace_basis(shuffled) == nullspace_basis(twin)
    pairs = st.lists(small_entries, min_size=2, max_size=2)
    rhs = build(rows, 2, data.draw(st.lists(pairs, min_size=rows, max_size=rows)))
    assert solve(shuffled, rhs) == solve(twin, rhs)
    assert solve(shuffled, rhs.transpose().transpose()) == solve(twin, rhs)


def test_constructor_coerces_and_checks():
    assert RationalMatrix(1, 3, ["1/2", 0, 4]) == M([[Fraction(1, 2), 0, 4]])
    with pytest.raises(TypeError):
        RationalMatrix(1, 1, [0.0])
    with pytest.raises(ShapeError):
        RationalMatrix(1, 2, [1])


def test_nonzero_walks_rows_in_order_and_columns_sorted():
    a = M([[1, 1], [0, 0]])
    b = M([[0, 0, 1], [1, 0, 0]])
    product = a @ b  # row 0 accumulates column 2 before column 0
    difference = M([[0, 0, 1]]) - M([[1, 0, 0]])  # column 2 kept, column 0 appended
    assert list(product._data[0]) == [2, 0] and list(difference._data[0]) == [2, 0]
    assert list(product.nonzero()) == [(0, 0, 1), (0, 2, 1)]
    assert list(difference.nonzero()) == [(0, 0, -1), (0, 2, 1)]
    assert list(RationalMatrix.zeros(2, 3).nonzero()) == []


@given(grids(max_side=6))
@settings(max_examples=100, deadline=None)
def test_nonzero_matches_dense_entries(shape_and_grid):
    rows, cols, grid = shape_and_grid
    reverse = RationalMatrix(cols, cols, [int(i + j == cols - 1) for i in range(cols) for j in range(cols)])
    m = build(rows, cols, grid) @ reverse  # columns reversed, so rows are stored out of order
    dense = m.to_rows()
    assert list(m.nonzero()) == [
        (i, j, x) for i in range(rows) for j, x in enumerate(dense[i]) if x
    ]


def assert_exact(values):
    """Every stored value is an int, or a Fraction that is not integral: no float, no Fraction(n, 1)."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def stored(m):
    return [x for r in m._data.values() for x in r.values()]


# integer matrices whose pivots are mostly not units, and mixed rational ones
integer_entries = st.integers(min_value=-3, max_value=3)


@given(st.one_of(grids(entries=integer_entries), grids()), st.data())
@settings(max_examples=150, deadline=None)
def test_exact_entries_are_ints_or_proper_fractions(shape_and_grid, data):
    rows, cols, grid = shape_and_grid
    m = build(rows, cols, grid)
    grid = [[Fraction(x) for x in r] for r in grid]  # the dense oracle divides with /
    assert_exact(stored(m))
    for reduce in (True, False):
        assert_exact(x for r in _eliminate([dict(r) for r in m._data.values()], reduce)[0] for x in r.values())
    assert_same_pivot_rule(m)
    rref, pivots = dense_rref(grid)
    assert rank(m) == len(pivots)
    basis = nullspace_basis(m)
    assert_exact(stored(basis))
    assert basis == build(cols, cols - len(pivots), dense_nullspace(grid, cols))
    assert_exact(stored(m @ basis) + stored(m.scaled(Fraction(1, 2)) + m))
    rhs_cols = data.draw(st.integers(min_value=0, max_value=3))
    rhs = data.draw(
        st.lists(
            st.lists(integer_entries, min_size=rhs_cols, max_size=rhs_cols),
            min_size=rows,
            max_size=rows,
        )
    )
    want = dense_solve(grid, [[Fraction(x) for x in r] for r in rhs], cols, rhs_cols)
    got = solve(m, build(rows, rhs_cols, rhs))
    if want is None:
        assert got is None
    else:
        assert_exact(stored(got))
        assert got == build(cols, rhs_cols, want)
