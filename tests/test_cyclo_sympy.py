"""The canonical cyclotomic form against reduction modulo Phi_n in sympy,
and the integer elimination kernel against ``sympy.Matrix``: independent
implementations (dev-only)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy import QQ, Matrix, Poly, Rational, cyclotomic_poly, symbols

from ctlab.cyclo import Cyclotomic
from ctlab.modrep import integer_gauss_jordan

X = symbols("x")


def _reduced(n, expansion):
    """Coefficients of sum c_e x^e mod Phi_n on 1, x, ..., x^(phi(n)-1)."""
    phi = Poly(cyclotomic_poly(n, X), X, domain=QQ)
    poly = Poly(sum((Rational(c) * X ** (e % n) for e, c in expansion.items()),
                    Rational(0)), X, domain=QQ)
    coeffs = poly.rem(phi).all_coeffs()[::-1]
    return coeffs + [0] * (phi.degree() - len(coeffs))


@st.composite
def _subfield_expansion(draw):
    """(n, {exponent: coefficient}) at a conductor n that is not 2 mod 4.
    The exponents are multiples of n/d for a divisor d of n drawn too, so
    the value lies in Q(zeta_d); d = n leaves it anywhere in Q(zeta_n)."""
    n = draw(st.sampled_from([9, 12, 15, 20, 21, 25, 27, 28, 35, 44]))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=d - 1),
                                 st.integers(min_value=-3, max_value=3),
                                 min_size=1, max_size=8))
    return n, {e * (n // d): Fraction(c, den) if den > 1 else c
               for e, c in terms.items()}


@settings(max_examples=150, deadline=None)
@given(_subfield_expansion())
def test_canonical_form_matches_sympy(case):
    n, expansion = case
    v = Cyclotomic.from_expansion(n, expansion)
    target = _reduced(n, expansion)
    # (a) the canonical vector, embedded back at n, is the input mod Phi_n
    assert n % v.n == 0
    k = n // v.n
    assert _reduced(n, {i * k: c for i, c in enumerate(v.coeffs)}) == target
    # (b) the conductor is the least d | n whose sigma_j, j = 1 mod d, all
    # fix the input; a d = 2 mod 4 never comes first, since its units are
    # those of d/2
    units = [j for j in range(1, n) if gcd(j, n) == 1]
    fixed = {j for j in units
             if _reduced(n, {e * j: c for e, c in expansion.items()}) == target}
    least = next(d for d in range(1, n + 1)
                 if n % d == 0 and all(j in fixed for j in units if j % d == 1 % d))
    assert v.n == least


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
