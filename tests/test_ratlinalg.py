from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemorse.errors import MembershipError, ShapeError
from conemorse.ratlinalg import (
    RationalMatrix,
    _eliminate,
    block,
    column_space_basis,
    format_rat,
    hstack,
    nullspace_basis,
    quotient_map,
    rank,
    rat,
    solve,
    vstack,
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


class TestQuotientMap:
    def test_identity_on_trivial_quotient(self):
        eye = RationalMatrix.identity(3)
        got = quotient_map(eye, eye, eye, split=3)
        assert got == eye

    def test_zero_map(self):
        f = RationalMatrix.zeros(2, 2)
        reps = RationalMatrix.identity(2)
        assert quotient_map(f, reps, reps, split=2) == RationalMatrix.zeros(2, 2)

    def test_wedge_on_torus_exterior_algebra(self):
        # rank-4 algebra of the 2-torus: basis 1, dx, dy, dx^dy; f = wedge by dx^dy
        f = M(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [1, 0, 0, 0],
            ]
        )
        source_reps = M([[1], [0], [0], [0]])  # the class of 1
        target_reps = M([[0], [0], [0], [1]])  # the class of dx^dy
        got = quotient_map(f, source_reps, target_reps, split=1)
        assert got == M([[1]])

    def test_membership_error(self):
        f = RationalMatrix.identity(2)
        reps = M([[1], [0]])
        bad_target = M([[0], [1]])  # image e1 is not in span(e2)
        with pytest.raises(MembershipError):
            quotient_map(f, reps, bad_target, split=1)


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


def test_hstack_shapes():
    a = RationalMatrix.identity(2)
    b = RationalMatrix.zeros(2, 3)
    assert hstack(a, b).shape == (2, 5)


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
    sparse_rref, sparse_pivots = _eliminate([dict(r) for r in m._data], cols, reduce=True)
    assert sparse_pivots == pivots
    assert [RationalMatrix.from_sparse(1, cols, [r]).row(0) for r in sparse_rref] == [
        tuple(r) for r in rref[: len(pivots)]
    ]
    assert _eliminate([dict(r) for r in m._data], cols, reduce=False)[1] == pivots
    assert rank(m) == len(pivots)
    assert nullspace_basis(m) == build(cols, cols - len(pivots), dense_nullspace(grid, cols))
    assert column_space_basis(m) == build(rows, len(pivots), [[r[j] for j in pivots] for r in grid])


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
        vstack(m.submatrix(slice(0, rows // 2), slice(None)), m.submatrix(slice(rows // 2, None), slice(None))),
        hstack(m.select_columns(range(cols // 2)), m.select_columns(range(cols // 2, cols))),
        block([[m, RationalMatrix.zeros(rows, 1)]]).select_columns(range(cols)),
    ]
    for other in reached:
        assert other == m and hash(other) == hash(m)
    assert (m.scaled(0) == zero) and m.scaled(0).is_zero()
    assert m.is_zero() == all(x == 0 for r in grid for x in r)


def test_from_sparse_coerces_and_checks():
    m = RationalMatrix.from_sparse(2, 3, [{0: "1/2", 2: 0}, {1: 4}])
    assert m == M([[Fraction(1, 2), 0, 0], [0, 4, 0]])
    with pytest.raises(TypeError):
        RationalMatrix.from_sparse(1, 1, [{0: 0.5}])
    with pytest.raises(TypeError):
        RationalMatrix(1, 1, [0.0])
    with pytest.raises(ShapeError):
        RationalMatrix.from_sparse(1, 2, [{2: 1}])
    with pytest.raises(ShapeError):
        RationalMatrix.from_sparse(2, 2, [{0: 1}])


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
