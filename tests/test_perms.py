import pytest
from hypothesis import given, strategies as st

from ctlab.errors import InvalidPermutation
from ctlab.perms import (cycles, format_cycles, identity, order,
                         parse_cycles, pinv, pmul, ppow, validate)


def random_perm(draw, n):
    images = draw(st.permutations(range(n)))
    return tuple(images)


perms5 = st.permutations(range(5)).map(tuple)


def test_validate_rejects_non_bijections():
    with pytest.raises(InvalidPermutation):
        validate((0, 0, 1))
    with pytest.raises(InvalidPermutation):
        validate((0, 1, 3))
    assert validate((2, 0, 1)) == (2, 0, 1)


def test_cycle_roundtrip_basics():
    p = parse_cycles("(1 2)(3 4)", 5)
    assert p == (1, 0, 3, 2, 4)
    assert format_cycles(p) == "(1 2)(3 4)"
    assert parse_cycles("()", 3) == identity(3)
    assert format_cycles(identity(4)) == "()"


def test_parse_rejects_bad_cycles():
    for bad in ["(1 2", "(1 9)", "(1 1 2)", "(1 2)(2 3)", "1 2 3",
                "(1)(1 2)", "(1 2)(1)"]:
        with pytest.raises(InvalidPermutation):
            parse_cycles(bad, 4)


def test_order_and_power():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    assert order(p) == 6
    assert ppow(p, 6) == identity(5)
    assert ppow(p, -1) == pinv(p)


@given(perms5, perms5, perms5)
def test_associativity(a, b, c):
    assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))


@given(perms5)
def test_inverse(a):
    assert pmul(a, pinv(a)) == identity(5)
    assert pinv(pinv(a)) == a


@given(perms5)
def test_format_parse_roundtrip(a):
    assert parse_cycles(format_cycles(a), 5) == a


@given(perms5)
def test_order_matches_brute_force(a):
    n = 1
    x = a
    while x != identity(len(a)):
        x = pmul(x, a)
        n += 1
    assert order(a) == n


def test_cycles_rotated_to_least_point():
    p = parse_cycles("(3 1 2)", 3)
    assert cycles(p) == [[0, 1, 2]]
