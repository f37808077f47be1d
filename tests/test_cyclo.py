import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ctlab import cyclo
from ctlab.cyclo import (Cyclotomic, DixonField, ONE, ZERO,
                         cyclotomic_polynomial, dixon_lift, euler_phi,
                         is_prime, nu, p_part, p_prime_part, prime_factors,
                         rational, reduce_mod_ell, zeta)
from ctlab.errors import LiftInconsistent, VerificationFailed
from ctlab.instances import _f_q2_omega


def test_minimal_polynomial_identities():
    z3 = zeta(3)
    assert z3 + z3 * z3 == rational(-1)
    z5 = zeta(5)
    assert sum((zeta(5, k) for k in range(1, 5)), ZERO) == rational(-1)


def test_conjugation():
    z5 = zeta(5)
    assert z5.conjugate() == zeta(5, 4)
    v = rational(2) * zeta(7, 3) + zeta(7)
    assert v.conjugate().conjugate() == v


def test_abs_square():
    one_plus_i = rational(1) + zeta(4)
    assert one_plus_i * one_plus_i.conjugate() == rational(2)
    assert zeta(8) * zeta(8).conjugate() == ONE


def _power(x, k):
    out = ONE
    for _ in range(k):
        out = out * x
    return out


def test_canonical_minimal_conductor():
    assert _power(zeta(12), 3) == zeta(4)
    assert _power(zeta(12), 3).n == 4
    assert zeta(6) == -(_power(zeta(3), 2))
    assert zeta(6).n == 3           # singly even conductors collapse
    assert _power(zeta(8), 4) == rational(-1)
    assert hash(_power(zeta(12), 4)) == hash(zeta(3))


def test_rational_predicates():
    # a rational value has conductor 1 and an integer one an int coefficient
    v = zeta(5) + zeta(5, 4)
    assert v.n != 1
    w = v + zeta(5, 2) + zeta(5, 3)
    assert w == rational(-1) and w.n == 1 and type(w.coeffs[0]) is int
    one = rational(Fraction(1, 2)) * rational(2)
    assert one.coeffs == (1,) and type(one.coeffs[0]) is int


def test_algebraic_integer_flag():
    assert zeta(9).is_algebraic_integer()
    assert not (zeta(9) / 2).is_algebraic_integer()


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_serialize_text():
    # the conductor, then the coefficients on 1, zeta, ..., zeta^(phi(n)-1)
    v = rational(Fraction(3, 2)) * zeta(5) - zeta(5, 3)
    assert v.serialize() == "[5;0,3/2,0,-1]"
    assert rational(-2).serialize() == "[1;-2]"


# conductors 15, 20, 21 and 28 reach the p || n descent with p >= 3 and
# m > 1, and 25 and 27 the p^2 | n descent with p odd
CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 21, 25, 27, 28]


@st.composite
def _expansion(draw, coeff):
    """(n, {exponent: coefficient}) with exponents drawn over range(n)."""
    n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                 coeff, min_size=1, max_size=6))
    return n, terms


small_values = _expansion(st.integers(min_value=-4, max_value=4)).map(
    lambda args: Cyclotomic.from_expansion(*args))


@settings(max_examples=80, deadline=None)
@given(small_values, small_values, small_values)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


fraction_values = st.builds(
    lambda args, den: Cyclotomic.from_expansion(
        args[0], {e: Fraction(c, den) for e, c in args[1].items()}),
    _expansion(st.integers(min_value=-4, max_value=4)),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=6) | st.just(0),
       fraction_values)
def test_rational_scaling_keeps_canonical_form(c, v):
    # c * v skips canonicalisation; it must equal the canonicalised product
    full = Cyclotomic(v.n, [c * x for x in v.coeffs])
    for got in (rational(c) * v, v * rational(c), c * v):
        assert (got.n, got.coeffs) == (full.n, full.coeffs)
        assert got.serialize() == full.serialize() and hash(got) == hash(full)
        assert all(type(x) is type(y) for x, y in zip(got.coeffs, full.coeffs))


@settings(max_examples=60, deadline=None)
@given(small_values)
def test_conjugation_involution_and_norm(a):
    assert a.conjugate().conjugate() == a
    s = a * a.conjugate()
    # |a|^2 is invariant under conjugation and non-negative in every real
    # embedding; check numerically as a guard
    assert s.conjugate() == s
    import cmath

    def approx(v):
        # s may have a smaller conductor than a, so each value is read at
        # the root of unity of its own conductor
        z = cmath.exp(2j * cmath.pi / v.n)
        return sum(complex(Fraction(c)) * z ** i for i, c in enumerate(v.coeffs))

    assert abs(approx(s) - abs(approx(a)) ** 2) < 1e-6


def test_dixon_field_selection():
    f = DixonField(6, 20)
    assert f.ell == 31 and pow(f.omega, 6, f.ell) == 1
    assert all(pow(f.omega, k, f.ell) != 1 for k in range(1, 6))
    f1 = DixonField(1, 10)
    assert f1.ell == 11


def test_dixon_lift_examples():
    f = DixonField(3, 10)
    # constant value d at all powers lifts to the rational d
    assert dixon_lift([4, 4, 4], 3, f, 4) == rational(4)
    # the nontrivial linear character data of C3 lifts to zeta_3 exactly
    vals = [f.omega_pows[k % 3] for k in range(3)]
    assert dixon_lift(vals, 3, f, 1) == zeta(3)


def test_dixon_lift_s3_degree_two():
    # chi_2 of S3 at a 3-cycle g: residues at the powers g^0, g^1, g^2 are
    # chi(1) = 2 and chi(g) = chi(g^2) = -1; the lift recovers chi(g) = -1
    # (computed by brute force from the 3x3 table of S3).
    f = DixonField(3, 10)
    vals = [2 % f.ell, (-1) % f.ell, (-1) % f.ell]
    lifted = dixon_lift(vals, 3, f, 2)
    assert lifted == zeta(3) + zeta(3, 2) == rational(-1)


def test_dixon_lift_bound_violation():
    f = DixonField(2, 10)
    with pytest.raises(LiftInconsistent):
        dixon_lift([5, 5], 2, f, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
       st.lists(st.integers(min_value=0, max_value=9), min_size=12,
                max_size=12))
def test_dixon_lift_roundtrip(e, ms):
    ms = ms[:e]
    field = DixonField(e, 40)
    bound = max(sum(ms), 1)
    vals = [sum(m * field.omega_pows[(j * k) % e] for j, m in enumerate(ms))
            % field.ell for k in range(e)]
    lifted = dixon_lift(vals, e, field, bound)
    expect = sum((rational(m) * zeta(e, j) for j, m in enumerate(ms) if m),
                 ZERO)
    assert lifted == expect
    assert reduce_mod_ell(lifted, e, field) == vals[1 % e]


def _quadratic_field_pairs():
    """Every (q, e) with ord_e(q) = 2 and q^2 <= 3^6."""
    for q in filter(is_prime, range(2, 28)):
        for e in range(2, q * q):
            if (q * q - 1) % e == 0 and (q - 1) % e:
                yield q, e


def test_prime_field_modulus_matches_enumeration_oracle():
    # SL(2, q)'s eigenvalue field F_{q^2}: the least modulus and omega's
    # powers against plain enumeration over F_q[x]
    pairs = list(_quadratic_field_pairs())
    assert len(pairs) == 83
    for q, e in pairs:
        assert _f_q2_omega(q, e) == oracles.field_omega_powers(q, e), (q, e)


_FIELD_CHECKS_UNDER_O = """
import sys
from ctlab import instances
from ctlab.errors import VerificationFailed

assert sys.flags.optimize
raised = []

def expect(name, fn):
    try:
        fn()
    except VerificationFailed:
        raised.append(name)

expect("no_modulus", lambda: instances._f_q2_omega(3, 5))
instances._f_q2_omega = lambda q, e: ((0, 0, 1), ((1, 0),) * e)
expect("no_exponent", lambda: instances.sl2_char_p_brauer(5))
print(" ".join(raised))
"""


def test_field_checks_survive_python_O():
    # 5 does not divide 3^2 - 1, so no modulus over F_3 serves; with every
    # omega^j = 1, only trace 2 finds an exponent j
    src = str(Path(cyclo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _FIELD_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["no_modulus", "no_exponent"]


_EXACTNESS_CHECKS_UNDER_O = """
import sys
from ctlab import cyclo
from ctlab.errors import VerificationFailed

assert sys.flags.optimize
raised = []

def expect(name, fn):
    try:
        fn()
    except VerificationFailed as exc:
        raised.append(name + ":" + str(exc).replace(" ", "_"))

expect("poly_lead", lambda: cyclo._poly_divmod_exact([1, 0, 1], [0, 2]))
expect("poly_rest", lambda: cyclo._poly_divmod_exact([1, 0, 1], [1, 1]))
print(" ".join(raised))
"""


def test_exactness_checks_survive_python_O():
    src = str(Path(cyclo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _EXACTNESS_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == [
        "poly_lead:polynomial_division_is_not_exact",
        "poly_rest:polynomial_division_leaves_a_remainder"]


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert euler_phi(72) == 24


def test_valuation_helpers_match_oracle():
    for p in (2, 3, 5, 7):
        for n in range(1, 2001):
            part = oracles.p_part(n, p)
            assert p_part(n, p) == part
            assert p ** nu(n, p) == part
            assert p_prime_part(n, p) == n // part
    # no exponent exists: the loop would divide 0 by p, or n by 1, forever
    for n, p in ((0, 3), (-4, 2), (5, 1)):
        with pytest.raises(VerificationFailed):
            nu(n, p)
