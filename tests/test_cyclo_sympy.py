"""The F_p polynomial kernel and irreducibility test against
``sympy.polys.galoistools``, and the integer elimination kernel against
``sympy.Matrix``: independent implementations (dev-only)."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy import Matrix, Rational
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ctlab.cyclo import _fp_mulmod, _poly_irreducible, integer_gauss_jordan


def _descending(coeffs):
    """galoistools' dense form: descending, no leading zeros."""
    out = [ZZ(c) for c in reversed(coeffs)]
    while out and out[0] == 0:
        out.pop(0)
    return out


@st.composite
def _mulmod_case(draw):
    # 257, 65537 and 2^61 - 1 reach the 4-, 8- and 16-byte packings
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 257, 65537, 2 ** 61 - 1]))
    m = draw(st.integers(min_value=1, max_value=20))
    coeff = st.integers(min_value=0, max_value=p - 1)
    f = tuple(draw(st.lists(coeff, min_size=m, max_size=m))) + (1,)
    a = draw(st.lists(coeff, min_size=1, max_size=m))
    b = draw(st.lists(coeff, min_size=1, max_size=m))
    return p, f, a, b


@settings(max_examples=300, deadline=None)
@given(_mulmod_case())
def test_fp_mulmod_matches_galoistools(case):
    p, f, a, b = case
    m = len(f) - 1
    rem = gf_rem(gf_mul(_descending(a), _descending(b), p, ZZ),
                 _descending(f), p, ZZ)
    expect = tuple(int(c) for c in reversed(rem))
    assert _fp_mulmod(a, b, f, p) == expect + (0,) * (m - len(expect))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_irreducible_matches_galoistools(p):
    for m in range(1, 5):
        for tail in product(range(p), repeat=m):
            f = tail + (1,)
            assert _poly_irreducible(f, p) == \
                gf_irreducible_p(_descending(f), p, ZZ), f


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
