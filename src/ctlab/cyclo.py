"""Exact arithmetic in cyclotomic fields Q(zeta_n), and F_ell for the
character-table engine.

Values are kept in a canonical form that makes equality structural:
coefficients on the power basis 1, z, ..., z^(phi(n)-1) after reduction
modulo the n-th cyclotomic polynomial, with n the *minimal* conductor (never
congruent to 2 mod 4, and 1 for rationals).  Two values are equal iff their
(conductor, coefficient vector) pairs are equal, and that pair is also the
hash key.

The conductor is found by descent (``_descend``): for a prime p | n with
m = n/p > 1, a value v lies in Q(zeta_m) iff it equals its relative trace
divided by [Q(zeta_n) : Q(zeta_m)], which is read off v term by term --
zeta_n^e goes to zeta_m^(e/p) when p | e and to 0 otherwise if p^2 | n, and
with b = e * p^-1 mod m to zeta_m^b when p | e and to -zeta_m^b / (p - 1)
otherwise if p || n.  Embedding the result back at n and comparing with v
is the membership test, and no linear system is solved.

The finite-field side is F_ell with ell = 1 mod e and a fixed primitive
e-th root of unity (``DixonField``), which the Dixon-Schneider lift uses;
blocks compare integer coordinates mod p and need no finite field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import LiftInconsistent, NotAlgebraicInteger, VerificationFailed


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def nu(n: int, p: int) -> int:
    """Exponent of the prime p in the positive integer n."""
    if n <= 0 or p < 2:
        raise VerificationFailed(f"no exponent of {p} in {n}: it needs n >= 1 "
                                 f"and p >= 2")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_part(n: int, p: int) -> int:
    return p ** nu(n, p)


def p_prime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables
# ---------------------------------------------------------------------------

def _poly_divmod_exact(num, den):
    """Quotient of integer polynomials (ascending coeffs), exact division."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(num[i + len(den) - 1], den[-1])
        if rem:
            raise VerificationFailed("polynomial division is not exact")
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(num):
        raise VerificationFailed("polynomial division leaves a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, ascending degree, monic integral."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """Row e (0 <= e < n): coefficients of x^e mod Phi_n on the power basis."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    rows = []
    for e in range(phi):
        row = [0] * phi
        row[e] = 1
        rows.append(tuple(row))
    current = list(rows[phi - 1]) if phi > 0 else [1]
    for _ in range(phi, n):
        shifted = [0] + current[:]
        lead = shifted.pop()
        if lead:
            for j in range(phi):
                shifted[j] -= lead * poly[j]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


def _reduce_expansion(n: int, expansion) -> list:
    """Map {exponent: coeff} to the reduced coefficient vector mod Phi_n."""
    phi = euler_phi(n)
    table = _power_table(n)
    vec = [0] * phi
    for e, c in expansion.items():
        if not c:
            continue
        row = table[e % n]
        for j in range(phi):
            if row[j]:
                vec[j] += c * row[j]
    return vec


def _as_int_or_fraction(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    return c


# ---------------------------------------------------------------------------
# the Cyclotomic value type
# ---------------------------------------------------------------------------

class Cyclotomic:
    """Immutable element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n, coeffs, _canonical=False):
        if _canonical:
            self.n = n
            self.coeffs = coeffs
        else:
            m, vec = _canonicalize(n, {e: c for e, c in enumerate(coeffs)})
            self.n = m
            self.coeffs = vec
        self._hash = None

    # construction helpers ------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (_as_int_or_fraction(Fraction(q)),), _canonical=True)

    @staticmethod
    def from_expansion(n: int, expansion: dict) -> "Cyclotomic":
        """Value sum c_e zeta_n^e from an exponent -> coefficient map."""
        m, vec = _canonicalize(n, expansion)
        return Cyclotomic(m, vec, _canonical=True)

    # predicates ----------------------------------------------------------
    def is_algebraic_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    # arithmetic ----------------------------------------------------------
    def _embedded(self, big: int):
        """Expansion dict of self at conductor big (n | big)."""
        k = big // self.n
        return {i * k: c for i, c in enumerate(self.coeffs) if c}

    def __add__(self, other):
        other = _coerce(other)
        big = self.n * other.n // gcd(self.n, other.n)
        exp = self._embedded(big)
        for e, c in other._embedded(big).items():
            exp[e] = exp.get(e, 0) + c
        return Cyclotomic.from_expansion(big, exp)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-c for c in self.coeffs), _canonical=True)

    def __sub__(self, other):
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.n == 1:
            # a nonzero rational multiple of a canonical value is canonical
            c = self.coeffs[0]
            if not c:
                return ZERO
            return Cyclotomic(other.n,
                              tuple([_as_int_or_fraction(c * x) for x in other.coeffs]),
                              _canonical=True)
        if other.n == 1:
            return other.__mul__(self)
        big = self.n * other.n // gcd(self.n, other.n)
        a = self._embedded(big)
        b = other._embedded(big)
        exp = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % big
                exp[e] = exp.get(e, 0) + c1 * c2
        return Cyclotomic.from_expansion(big, exp)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Division by a nonzero rational."""
        q = Fraction(other) if not isinstance(other, Cyclotomic) else other.as_rational()
        if not q:
            raise ZeroDivisionError
        return self.__mul__(Cyclotomic.from_rational(Fraction(1, 1) / q))

    def galois(self, j: int) -> "Cyclotomic":
        """Apply sigma_j: zeta -> zeta^j (gcd(j, n) = 1)."""
        if self.n == 1:
            return self
        if gcd(j, self.n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return Cyclotomic.from_expansion(
            self.n, {i * j: c for i, c in enumerate(self.coeffs) if c})

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.n - 1) if self.n > 1 else self

    # protocol ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, (int, Fraction)):
                return self.n == 1 and self.coeffs[0] == other
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __repr__(self):
        return f"Cyclotomic({self.serialize()})"

    def sort_key(self):
        return (self.n, self.coeffs)

    def serialize(self) -> str:
        body = ",".join(str(c) for c in self.coeffs)
        return f"[{self.n};{body}]"


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return Cyclotomic.from_rational(x)


def _canonicalize(n: int, expansion: dict):
    """Reduce an exponent expansion at conductor n to minimal canonical form."""
    # fold exponents into range and strip zeros
    folded = {}
    for e, c in expansion.items():
        if c:
            e %= n
            folded[e] = folded.get(e, 0) + c
    if not folded or all(not c for c in folded.values()):
        return 1, (0,)
    # singly-even conductors collapse: zeta_{2m} = -zeta_m^{(m+1)/2} for odd m
    while n % 4 == 2:
        m = n // 2
        half = (m + 1) // 2
        folded2 = {}
        for e, c in folded.items():
            if not c:
                continue
            e2 = (e * half) % m
            c2 = -c if e % 2 else c
            folded2[e2] = folded2.get(e2, 0) + c2
        n, folded = m, folded2
    vec = _reduce_expansion(n, folded)
    return _descend(n, vec)


def _descend(n: int, vec):
    """Minimal canonical form of the value with reduced vector ``vec`` at
    conductor n (n not 2 mod 4).

    For a prime p | n with m = n/p > 1, v lies in Q(zeta_m) iff it equals
    t = Tr(v) / [Q(zeta_n) : Q(zeta_m)], the relative trace over the
    sigma_j with j = 1 mod m divided by their number.  t is read off v term
    by term:

    * p^2 | n: zeta_n^e -> zeta_m^(e/p) when p | e, and 0 otherwise;
    * p || n: with b = e * p^-1 mod m, zeta_n^e -> zeta_m^b when p | e,
      and -zeta_m^b / (p - 1) otherwise.

    t is reduced at m and embedded back (zeta_m^i = zeta_n^(p i), reduced
    at n).  Equality with v is the membership test, and t is then the
    vector at m; otherwise the next prime is tried.
    """
    if all(not c for c in vec[1:]):
        return 1, (_as_int_or_fraction(vec[0]),)
    for p in prime_factors(n):
        m = n // p
        if m == 1:
            continue  # rational values were caught above
        # trace holds k * t; k = p - 1 when p || n keeps an integral v's
        # coefficients integral until v is known to descend
        if m % p == 0:
            k, trace = 1, {i // p: c for i, c in enumerate(vec) if c and not i % p}
        else:
            k, inv, trace = p - 1, pow(p, -1, m), {}
            for i, c in enumerate(vec):
                if c:
                    b = i * inv % m
                    trace[b] = trace.get(b, 0) + (-c if i % p else k * c)
        t = _reduce_expansion(m, trace)
        back = _reduce_expansion(n, {p * i: c for i, c in enumerate(t) if c})
        if back != [k * c for c in vec]:
            continue
        if k > 1:
            t = [_as_int_or_fraction(Fraction(c, k)) for c in t]
        if m % 4 == 2:
            return _canonicalize(m, {i: c for i, c in enumerate(t) if c})
        return _descend(m, t)
    return n, tuple(_as_int_or_fraction(c) for c in vec)

ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


def zeta(n: int, e: int = 1) -> Cyclotomic:
    return Cyclotomic.from_expansion(n, {e: 1})


def cyclo_sum(values) -> Cyclotomic:
    total = ZERO
    for v in values:
        total = total + v
    return total


def rational(x) -> Cyclotomic:
    return Cyclotomic.from_rational(x)


# ---------------------------------------------------------------------------
# Dixon prime field and lifting
# ---------------------------------------------------------------------------

class DixonField:
    """F_ell with ell = 1 mod e, ell above the recovery bounds."""

    def __init__(self, e: int, lower: int):
        ell = e + 1
        while not (ell > lower and is_prime(ell)):
            ell += e
        self.ell = ell
        self.e = e
        g = self._primitive_root()
        self.omega = pow(g, (ell - 1) // e, ell)
        self.omega_pows = [1]
        for _ in range(e - 1):
            self.omega_pows.append(self.omega_pows[-1] * self.omega % ell)

    def _primitive_root(self):
        ell = self.ell
        factors = prime_factors(ell - 1)
        for g in range(2, ell):
            if all(pow(g, (ell - 1) // q, ell) != 1 for q in factors):
                return g
        raise VerificationFailed(f"no primitive root mod {ell}: it is not a prime")


def dixon_lift(values_mod_ell, e: int, field: DixonField, degree_bound: int) -> Cyclotomic:
    """Recover sum m_j zeta_e^j from its residues at the e power classes.

    ``values_mod_ell[k]`` must be the residue of the value at the k-th power,
    k = 0..e-1.  The multiplicities satisfy 0 <= m_j <= degree_bound < ell.
    """
    ell = field.ell
    if len(values_mod_ell) != e or field.e % e:
        raise LiftInconsistent(
            f"{len(values_mod_ell)} residues for e = {e} in a field of "
            f"exponent {field.e}")
    step = field.e // e
    inv_e = pow(e, ell - 2, ell)
    expansion = {}
    for j in range(e):
        s = 0
        for k in range(e):
            s += values_mod_ell[k] * field.omega_pows[(-j * k * step) % field.e]
        m_j = s % ell * inv_e % ell
        if m_j:
            if m_j > degree_bound:
                raise LiftInconsistent(
                    f"multiplicity {m_j} exceeds degree bound {degree_bound}")
            expansion[j] = m_j
    return Cyclotomic.from_expansion(e, expansion) if expansion else ZERO


def reduce_mod_ell(value: Cyclotomic, e: int, field: DixonField) -> int:
    """Residue of an algebraic integer in Q(zeta_e) under zeta_e -> omega."""
    if not value.is_algebraic_integer():
        raise NotAlgebraicInteger(f"{value!r} is not an algebraic integer")
    if value.n > 1 and field.e % value.n:
        raise LiftInconsistent(
            f"a value in Q(zeta_{value.n}) in a field of exponent {field.e}")
    step = field.e // value.n if value.n > 1 else 0
    s = 0
    for i, c in enumerate(value.coeffs):
        if c:
            s += c * field.omega_pows[(i * step) % field.e]
    return s % field.ell
