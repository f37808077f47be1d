"""Exact arithmetic in cyclotomic fields Q(zeta_n), and F_ell for the
character-table engine.

Values are kept in a canonical form that makes equality structural:
coefficients on the power basis 1, z, ..., z^(phi(n)-1) after reduction
modulo the n-th cyclotomic polynomial, with n the *minimal* conductor (never
congruent to 2 mod 4, and 1 for rationals).  Two values are equal iff their
(conductor, coefficient vector) pairs are equal, and that pair is also the
hash key.

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
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_part(n: int, p: int) -> int:
    return p ** nu(n, p)


def p_prime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def integer_gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over the integers (Bareiss).

    ``rows`` is a rectangular integer matrix; elimination runs on its first
    ``ncols`` columns, and any further columns ride along (an augmented
    part).  Column c is skipped when no row at or below the current row r
    has a nonzero entry there; otherwise the first such row is swapped up
    to r and its entry p is the pivot.  Every other row i then becomes
    (p * row_i - row_i[c] * row_r) / d, with d the previous pivot (1 at the
    first).  Each entry stays a minor of the input, so the division is
    exact; it is checked with ``divmod`` and a remainder raises
    VerificationFailed.

    Returns ``(rows, pivots, det)``: the reduced rows (new lists), the pivot
    column of each of the first ``len(pivots)`` rows, and det.  Pivot row r
    holds the last pivot D at column ``pivots[r]`` and 0 at the other pivot
    columns, so the solution it carries is (entry) / D; the rows below the
    pivot rows are zero on the first ``ncols`` columns.  ``det`` is the
    signed determinant when the matrix is square (``len(rows) == ncols``)
    and of full rank, and 0 otherwise.
    """
    rows = [list(row) for row in rows]
    if any(len(row) != len(rows[0]) or len(row) < ncols for row in rows):
        raise VerificationFailed("elimination needs a rectangular matrix")
    pivots, sign, d = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            sign = -sign
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i == r or not any(row):      # a zero row stays zero
                continue
            f, new = row[c], []
            for a, b in zip(row, prow):
                q, rem = divmod(p * a - f * b, d)
                if rem:
                    raise VerificationFailed("Bareiss division is not exact")
                new.append(q)
            rows[i] = new
        pivots.append(c)
        d = p
    det = sign * d if len(pivots) == ncols == len(rows) else 0
    return rows, pivots, det


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


@lru_cache(maxsize=None)
def _galois_matrix(n: int, j: int) -> tuple:
    """Rows i: coefficient vector of sigma_j(z^i) = z^(ij) mod Phi_n."""
    table = _power_table(n)
    return tuple(table[(i * j) % n] for i in range(euler_phi(n)))


@lru_cache(maxsize=None)
def _descent_solver(n: int, p: int):
    """Solver for rewriting invariant values from Q(zeta_n) into Q(zeta_{n/p}).

    Returns (den, rows): phi(m) integer rows R with d = R . v / den, where v
    is the coefficient vector at conductor n and d the one at m = n/p.
    """
    m = n // p
    phi_n, phi_m = euler_phi(n), euler_phi(m)
    table = _power_table(n)
    # solve M d = v for all v in the column space: row-reduce [M | I]
    rows = [[table[(p * j) % n][i] for j in range(phi_m)] +
            [1 if k == i else 0 for k in range(phi_n)]
            for i in range(phi_n)]
    rows, pivots, _ = integer_gauss_jordan(rows, phi_m)
    if len(pivots) != phi_m:
        raise VerificationFailed("descent columns are dependent")
    return rows[0][0], tuple(tuple(row[phi_m:]) for row in rows[:phi_m])


def _apply_matrix(mat, vec, size):
    out = [0] * size
    for c, row in zip(vec, mat):
        if c:
            for j in range(size):
                if row[j]:
                    out[j] += c * row[j]
    return out


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
        vec = _apply_matrix(_galois_matrix(self.n, j % self.n), self.coeffs,
                            euler_phi(self.n))
        return Cyclotomic(self.n, tuple(vec))

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
    phi = euler_phi(n)
    if n == 1:
        return 1, (_as_int_or_fraction(Fraction(vec[0])) if not isinstance(vec[0], int)
                   else vec[0],)
    if all(not c for c in vec[1:]):
        return 1, (_as_int_or_fraction(vec[0]),)
    for p in prime_factors(n):
        m = n // p
        if m == 1:
            continue  # rational values were caught above
        subgroup = [j for j in range(1, n) if j % m == 1 and gcd(j, n) == 1]
        if all(_apply_matrix(_galois_matrix(n, j), vec, phi) == list(vec)
               for j in subgroup if j != 1):
            den, solver = _descent_solver(n, p)
            d = [_dot(row, vec, den) for row in solver]
            # invariance guarantees consistency; verify the rewrite anyway
            table = _power_table(n)
            embed = [table[(p * i) % n] for i in range(len(d))]
            if _apply_matrix(embed, d, phi) != list(vec):
                raise VerificationFailed("descent rewrite failed")
            if m % 4 == 2:
                return _canonicalize(m, {i: c for i, c in enumerate(d) if c})
            return _descend(m, d)
    return n, tuple(_as_int_or_fraction(Fraction(c)) if not isinstance(c, int) else c
                    for c in vec)


def _dot(row, vec, den):
    """(row . vec) / den as an int or a Fraction, with one division."""
    s = sum(a * b for a, b in zip(row, vec) if a and b)
    if isinstance(s, int):
        q, rem = divmod(s, den)
        return Fraction(s, den) if rem else q
    return _as_int_or_fraction(s / den)


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
