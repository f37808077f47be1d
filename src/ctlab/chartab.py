"""Ordinary character tables and class-function calculus.

The table engine is Dixon-Schneider: simultaneous eigenspace splitting of
class-multiplication matrices over a prime field F_ell with ell = 1 mod
exp(G), degree recovery from the second orthogonality relation, then exact
recovery of every value as an element of Q(zeta_ord(g)) by the inverse DFT
over the power map.  Rows are sorted with the trivial character first and
then by (degree, lexicographic value vector), so tables are reproducible
bit for bit regardless of the generating set.

A class matrix M_i is kept as sparse columns ``[(j, count), ...]``, and
only the columns in the support of a space still to split are built.  An
entry needs the class of x^-1 rep_m for x in K_i, found by its base-image
key ``tuple(y[b] for b in base)`` over the base of G's chain in
``ClassData.key_index``, so the class lookup costs |base| point lookups
and no product at the full degree; ``ClassData.powers`` walks the powers
of a representative on keys the same way.  The key of x^-1 rep_m is
rep_m read at the points x^-1[b], so each x in K_i gets one
``permgroup.key_getter`` on those points, built once and applied to every
rep_m.  The keys are exact: the base of a verified chain separates G, and
the key map is checked to hold |G| distinct keys, so the class lists cover
G (see ``ClassData.key_index``).  M_i applied to a vector is the sum of
the columns in its support.

An eigenvalue of M_i on a space is a root in F_ell of the characteristic
polynomial of its restriction.  Most restrictions are 2 x 2, so a monic
quadratic x^2 + bx + c takes its roots in closed form, (-b +- s) / 2 with
s^2 = b^2 - 4c read from a table of the square roots in F_ell kept per
ell, and no root when b^2 - 4c is not a square.  Any other degree is
evaluated at every t in F_ell: a gcd with x^ell - x and a split by
shifts lost to evaluation at every degree from 4 that was measured.

Many (character, class) pairs share a lift, so one table call keeps a memo
keyed on the whole input of ``dixon_lift``: the element order e, the row's
degree and the residues on the powers of the class.  A value found there
came from ``dixon_lift`` on that same input, bound check included.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .cyclo import (Cyclotomic, DixonField, ONE, ZERO, cyclo_sum, dixon_lift,
                    prime_factors, rational)
from .errors import (BudgetExceeded, ClassDataMismatch, DEFAULT_BUDGET,
                     NotASubgroup, VerificationFailed)
from .permgroup import ClassData, PermGroup, check_scan, direct_product, key_getter


class CharacterTable:
    """Classes, power maps, and the full matrix of irreducible values."""

    def __init__(self, group: PermGroup, classes: ClassData, values):
        self.group = group
        self.classes = classes
        self.values = tuple(tuple(row) for row in values)
        self.degrees = tuple(int(row[0].as_rational()) for row in self.values)
        self.exponent = lcm(1, *classes.element_orders)
        self._power_maps = None

    @property
    def power_maps(self):
        """{p: the class of rep_i^p for each class i}, for each prime p
        dividing the exponent (built on first use)."""
        if self._power_maps is None:
            classes = self.classes
            self._power_maps = {
                p: tuple(classes.power_class(i, p) for i in range(len(classes)))
                for p in prime_factors(self.exponent)
            }
        return self._power_maps

    def __len__(self):
        return len(self.values)

    def to_json(self) -> dict:
        return {
            "order": self.group.order,
            "degree": self.group.degree,
            "classes": self.classes.describe(),
            "power_maps": {str(p): list(m) for p, m in sorted(self.power_maps.items())},
            "characters": [[v.serialize() for v in row] for row in self.values],
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# modular linear algebra helpers
# ---------------------------------------------------------------------------

def _echelonize(rows, ell):
    """Row-reduce vectors over F_ell; returns (echelon rows, pivot columns)."""
    rows = [list(r) for r in rows]
    out = []
    pivots = []
    for row in rows:
        for prow, pc in zip(out, pivots):
            f = row[pc]
            if f:
                for c in range(len(row)):
                    row[c] = (row[c] - f * prow[c]) % ell
        pc = next((c for c, x in enumerate(row) if x), None)
        if pc is None:
            continue
        inv = pow(row[pc], ell - 2, ell)
        row = [x * inv % ell for x in row]
        for prow in out:
            f = prow[pc]
            if f:
                for c in range(len(row)):
                    prow[c] = (prow[c] - f * row[c]) % ell
        out.append(row)
        pivots.append(pc)
    order = sorted(range(len(out)), key=lambda r: pivots[r])
    return [out[r] for r in order], [pivots[r] for r in order]


def _nullspace(mat, ell):
    """Basis of the right nullspace of mat over F_ell (echelonized)."""
    n = len(mat)
    rows, pivots = _echelonize(mat, ell)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for prow, pc in zip(rows, pivots):
            vec[pc] = (-prow[fc]) % ell
        basis.append(vec)
    return basis


def _charpoly(mat, ell):
    """Characteristic polynomial over F_ell (ascending coefficients)."""
    n = len(mat)
    if n == 0:
        return [1]
    h = [[x % ell for x in row] for row in mat]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in range(n):
                h[r][j + 1], h[r][piv] = h[r][piv], h[r][j + 1]
        inv = pow(h[j + 1][j], ell - 2, ell)
        for r in range(j + 2, n):
            f = h[r][j] * inv % ell
            if f:
                hr, hj = h[r], h[j + 1]
                for c in range(n):
                    hr[c] = (hr[c] - f * hj[c]) % ell
                for r2 in range(n):
                    h[r2][j + 1] = (h[r2][j + 1] + f * h[r2][r]) % ell
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = [0] + prev[:]
        a = h[m - 1][m - 1]
        for i in range(len(prev)):
            pm[i] = (pm[i] - a * prev[i]) % ell
        beta = 1
        for k in range(m - 1, 0, -1):
            beta = beta * h[k][k - 1] % ell
            if beta == 0:
                break
            coef = h[k - 1][m - 1] * beta % ell
            if coef:
                pk = polys[k - 1]
                for i in range(len(pk)):
                    pm[i] = (pm[i] - coef * pk[i]) % ell
        polys.append(pm)
    return polys[n]


@lru_cache(maxsize=None)
def _square_roots(ell):
    """{r: s} with s * s = r for every square r in F_ell (one root each)."""
    return {t * t % ell: t for t in range(ell // 2 + 1)}


def _poly_roots(poly, ell):
    """The distinct roots in F_ell, in increasing order, of ``poly``
    (ascending coefficients, reduced mod ell), for an odd prime ell (the
    table's ell exceeds 2 sqrt|G| + 1 >= 3).

    A monic quadratic x^2 + bx + c has the roots (-b +- s) / 2 with
    s^2 = b^2 - 4c, and none when b^2 - 4c is not a square; s is read from
    ``_square_roots(ell)``.  Any other polynomial is evaluated at every t
    in F_ell.
    """
    if len(poly) == 3 and poly[2] == 1:
        c, b = poly[0], poly[1]
        s = _square_roots(ell).get((b * b - 4 * c) % ell)
        if s is None:
            return []
        half = (ell + 1) // 2
        return sorted({(s - b) * half % ell, (-s - b) * half % ell})
    roots = []
    for t in range(ell):
        acc = 0
        for c in reversed(poly):
            acc = (acc * t + c) % ell
        if acc == 0:
            roots.append(t)
    return roots


# ---------------------------------------------------------------------------
# Dixon-Schneider
# ---------------------------------------------------------------------------

def class_matrix_columns(classes: ClassData, i, ms):
    """The columns ms of the class matrix M_i, as a dict m -> ``[(j, count),
    ...]``.

    M_i[j][m] = #{(x, y) in K_i x K_j : x y = rep_m}, so column m counts
    the classes of x^-1 rep_m over x in K_i.  Its key is ``rep_m[x^-1[b]]``
    over the base points b, read by one ``key_getter`` per x built on the
    points x^-1[b] (``x.index(b)``), and looked up in ``classes.key_index``.
    """
    key_index = classes.key_index
    base = classes.group.chain.base
    gets = [key_getter([x.index(b) for b in base]) for x in classes.classes[i]]
    out = {}
    for m in ms:
        rep = classes.representatives[m]
        out[m] = sorted(Counter([key_index[get(rep)] for get in gets]).items())
    return out


def character_table(group: PermGroup, budget=DEFAULT_BUDGET) -> CharacterTable:
    """Irreducible ordinary characters via eigenspace splitting mod ell."""
    if group.order > budget.max_order:
        raise BudgetExceeded(
            f"order {group.order} exceeds table budget {budget.max_order}")
    cd = group.conjugacy_classes()
    k = len(cd)
    if k > budget.max_classes:
        raise BudgetExceeded(f"{k} classes exceed budget {budget.max_classes}")
    if k == 1:
        return CharacterTable(group, cd, [[ONE]])
    exponent = lcm(1, *cd.element_orders)
    lower = max(2 * isqrt(group.order) + 1, max(cd.sizes))
    field = DixonField(exponent, lower)
    ell = field.ell

    spaces = [_echelonize([[1 if c == r else 0 for c in range(k)]
                           for r in range(k)], ell)]
    for i in range(1, k):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        # only the columns in the support of a space still to split
        support = {m for rows, _ in spaces if len(rows) > 1
                   for r in rows for m, c in enumerate(r) if c}
        columns = class_matrix_columns(cd, i, support)
        new_spaces = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                new_spaces.append((rows, pivots))
                continue
            images = []
            for r in rows:
                w = [0] * k
                for m, c in enumerate(r):
                    if c:
                        for j, n in columns[m]:
                            w[j] += c * n
                images.append([x % ell for x in w])
            # restricted matrix R[r][s]: image of basis r in basis coordinates
            restricted = [[images[r][pc] for pc in pivots] for r in range(d)]
            # confirm invariance
            for r in range(d):
                recon = [0] * k
                for s, c in enumerate(restricted[r]):
                    if c:
                        for m in range(k):
                            recon[m] = (recon[m] + c * rows[s][m]) % ell
                if recon != [x % ell for x in images[r]]:
                    raise VerificationFailed("space not invariant")
            transposed = [[restricted[r][s] for r in range(d)] for s in range(d)]
            for lam in sorted(set(_poly_roots(_charpoly(restricted, ell), ell))):
                shifted = [row[:] for row in transposed]
                for x in range(d):
                    shifted[x][x] = (shifted[x][x] - lam) % ell
                null = _nullspace(shifted, ell)
                lifted = []
                for t in null:
                    vec = [0] * k
                    for r, c in enumerate(t):
                        if c:
                            for m in range(k):
                                vec[m] = (vec[m] + c * rows[r][m]) % ell
                    lifted.append(vec)
                new_spaces.append(_echelonize(lifted, ell))
        spaces = new_spaces
    if len(spaces) != k or any(len(rows) != 1 for rows, _ in spaces):
        raise VerificationFailed("splitting incomplete")

    powers = [cd.powers(m) for m in range(k)]
    inverse_of = [p[-1] for p in powers]     # the class of rep_m^(|rep_m| - 1)
    inv_sizes = [pow(s, ell - 2, ell) for s in cd.sizes]
    lifts = {}
    rows_out = []
    for rows, _ in spaces:
        v = rows[0]
        v0inv = pow(v[0], ell - 2, ell)
        omega = [x * v0inv % ell for x in v]
        s = sum(omega[m] * omega[inverse_of[m]] % ell * inv_sizes[m]
                for m in range(k)) % ell
        target = group.order % ell * pow(s, ell - 2, ell) % ell
        degree = next(d for d in range(1, isqrt(group.order) + 1)
                      if d * d % ell == target)
        residues = [degree * omega[m] % ell * inv_sizes[m] % ell for m in range(k)]
        row = []
        for m in range(k):
            # the residues of chi(rep_m^t), t = 0 .. |rep_m| - 1
            e = cd.element_orders[m]
            on_powers = tuple([residues[j] for j in powers[m]])
            key = (e, degree, on_powers)
            if key not in lifts:
                lifts[key] = dixon_lift(on_powers, e, field, degree)
            row.append(lifts[key])
        rows_out.append(row)
    return CharacterTable(group, cd, _sorted_rows(rows_out))


def _sorted_rows(rows):
    k = len(rows[0]) if rows else 0
    trivial = [ONE] * k

    def is_trivial(row):
        return all(v == ONE for v in row)

    rest = [row for row in rows if not is_trivial(row)]
    if len(rest) != len(rows) - 1:
        raise VerificationFailed("exactly one trivial character expected")
    rest.sort(key=lambda row: (row[0].sort_key(), tuple(v.sort_key() for v in row)))
    return [list(trivial)] + rest


def direct_product_table(ta: CharacterTable, tb: CharacterTable):
    """Table of A x B from factor tables; no eigensplitting involved.

    The classes of A x B are the products of a class of A and one of B.
    Each is listed as the pairs x + y, y shifted past A's points: both
    factor lists are sorted and every x has A's degree, so the pairs in
    nested order are sorted already, and x + y has order lcm(|x|, |y|).
    The classes list every element, so the product's order is checked
    against SCAN_LIMIT first.  A value
    chi_a(x) * chi_b(y) is formed once per pair of values in a memo for
    the call: ``Cyclotomic`` hashes and compares structurally, so an equal
    pair gives the equal product.

    Returns (table, product_group_data) where the second item carries the
    direct-product embeddings for later fusion work.
    """
    check_scan(ta.group.order * tb.group.order)
    grp, emb_a, emb_b, split = direct_product(ta.group, tb.group)
    da = ta.group.degree
    shifted = [[tuple([p + da for p in y]) for y in cb] for cb in tb.classes.classes]
    classes = [[x + y for x in ca for y in cb]
               for ca in ta.classes.classes for cb in shifted]
    orders = [lcm(oa, ob) for oa in ta.classes.element_orders
              for ob in tb.classes.element_orders]
    cd = ClassData(grp, classes, orders)
    grp._classes = cd
    pairs = []
    for r in cd.representatives:
        x, y = split(r)
        pairs.append((ta.group.class_of(x), tb.group.class_of(y)))
    # the factor tables share few values, so each product is formed once
    products = {}

    def product(x, y):
        v = products.get((x, y))
        if v is None:
            v = products[x, y] = x * y
        return v

    rows = [[product(ra[i], rb[j]) for i, j in pairs]
            for ra in ta.values for rb in tb.values]
    table = CharacterTable(grp, cd, _sorted_rows(rows))
    return table, (grp, emb_a, emb_b, split)


# ---------------------------------------------------------------------------
# class functions, fusion, induction, restriction
# ---------------------------------------------------------------------------

class ClassFunction:
    """A class-function value vector tied to a group's class data."""

    __slots__ = ("classes", "values")

    def __init__(self, classes: ClassData, values):
        values = tuple(v if isinstance(v, Cyclotomic) else rational(v)
                       for v in values)
        if len(values) != len(classes):
            raise ClassDataMismatch(
                f"{len(values)} values for {len(classes)} classes")
        self.classes = classes
        self.values = values

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.classes is other.classes and self.values == other.values)

    def __add__(self, other):
        _same_classes(self, other)
        return ClassFunction(self.classes,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        _same_classes(self, other)
        return ClassFunction(self.classes,
                             [a - b for a, b in zip(self.values, other.values)])


def _same_classes(a: ClassFunction, b: ClassFunction) -> None:
    if a.classes is not b.classes:
        raise ClassDataMismatch("class functions on different class data")


def row_function(table: CharacterTable, i: int) -> ClassFunction:
    return ClassFunction(table.classes, table.values[i])


def class_fusion(sub: PermGroup, big: PermGroup) -> list:
    """For each class of sub, the index of the big-group class containing it."""
    if sub.degree != big.degree or not all(g in big for g in sub.gens):
        raise NotASubgroup("fusion requires a subgroup on the same domain")
    cd = sub.conjugacy_classes()
    return [big.class_of(r) for r in cd.representatives]


def fusion_through_hom(phi, sub_classes: ClassData, big: PermGroup) -> list:
    """Fusion along an injective homomorphism sub -> big."""
    return [big.class_of(phi.image(r)) for r in sub_classes.representatives]


def induce(theta: ClassFunction, big_cd: ClassData, fusion) -> ClassFunction:
    """Induced class function by the class formula
    theta^G(g) = |C_G(g)| * sum of theta(h) / |C_H(h)| over the classes of H
    that ``fusion`` sends to the class of g, in one pass over H's classes."""
    sub_cd = theta.classes
    totals = [ZERO] * len(big_cd)
    for h_idx, g_idx in enumerate(fusion):
        totals[g_idx] = (totals[g_idx]
                         + theta.values[h_idx] / sub_cd.centralizer_orders[h_idx])
    return ClassFunction(big_cd, [rational(c) * total for c, total
                                  in zip(big_cd.centralizer_orders, totals)])


def restrict(chi: ClassFunction, sub_cd: ClassData, fusion) -> ClassFunction:
    return ClassFunction(sub_cd, [chi.values[f] for f in fusion])


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    _same_classes(a, b)
    cd = a.classes
    total = cyclo_sum(rational(s) * x * y.conjugate()
                      for s, x, y in zip(cd.sizes, a.values, b.values))
    val = total / cd.group.order
    return val.as_rational()


def decompose(table: CharacterTable, f: ClassFunction) -> list:
    """Multiplicities <f, chi_i> for every row of the table."""
    return [inner_product(f, row_function(table, i)) for i in range(len(table))]


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact row and column orthogonality; meant for tests and certificates."""
    cd = table.classes
    k = len(cd)
    for i in range(k):
        for j in range(i, k):
            ip = inner_product(row_function(table, i), row_function(table, j))
            if ip != (1 if i == j else 0):
                return False
    for a in range(k):
        for b in range(a, k):
            s = cyclo_sum(table.values[r][a] * table.values[r][b].conjugate()
                          for r in range(k))
            want = rational(cd.centralizer_orders[a]) if a == b else ZERO
            if s != want:
                return False
    return True
