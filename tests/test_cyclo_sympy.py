"""The F_p polynomial kernel and irreducibility test against
``sympy.polys.galoistools``, an independent implementation (dev-only)."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from ctlab.cyclo import _fp_mulmod, _poly_irreducible


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
