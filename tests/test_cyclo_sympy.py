"""The integer elimination kernel against ``sympy.Matrix``: an independent
implementation (dev-only)."""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy import Matrix, Rational

from ctlab.cyclo import integer_gauss_jordan


@st.composite
def _int_matrix(draw):
    """(rows, ncols): an integer matrix of up to 5 rows whose first ncols
    columns are eliminated and whose up to 2 further columns ride along;
    entries are drawn from a small range, so singular matrices are common."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    width = ncols + draw(st.integers(min_value=0, max_value=2))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_int_matrix())
def test_integer_gauss_jordan_matches_sympy(case):
    rows, ncols = case
    width = len(rows[0]) if rows else ncols
    out, pivots, det = integer_gauss_jordan(rows, ncols)
    left = Matrix(len(rows), ncols, [x for row in rows for x in row[:ncols]])
    rref_left, rref_pivots = left.rref()
    assert pivots == list(rref_pivots)
    rank = len(pivots)
    assert rank == left.rank()
    assert det == (left.det() if len(rows) == ncols else 0)
    big = out[0][pivots[0]] if rank else 1
    assert all(out[r][c] == (big if c == pc else 0)
               for r, pc in enumerate(pivots) for c in pivots)
    assert not any(x for row in out[rank:] for x in row[:ncols])
    scaled = [[Rational(x, big) for x in row] for row in out[:rank]]
    assert [row[:ncols] for row in scaled] == rref_left.tolist()[:rank]
    # the columns beyond ncols as right-hand sides: when every one lies in
    # the span, the reduced rows carry the solutions, which are unique
    full, full_pivots = Matrix(len(rows), width,
                               [x for row in rows for x in row]).rref()
    in_span = all(pc < ncols for pc in full_pivots)
    assert in_span == (not any(x for row in out[rank:] for x in row))
    if in_span:
        assert scaled == full.tolist()[:rank]
