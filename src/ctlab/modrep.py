"""Modular layer: p-regular classes, Brauer characters, blocks, defects.

Brauer characters of p-solvable groups are extracted from the ordinary table
by Fong-Swan: every Brauer character lifts, so IBr is a subset of the
restrictions of Irr to the p-regular classes.  One pass over the distinct
restrictions, sorted by ascending degree, keeps a restriction when it lies
outside the span of those kept before it.  By induction on the degree the
kept members of degree below d are the IBr of degree below d: an
irreducible restriction lies outside the span of the other IBr, and a
reducible one is a non-negative integer combination of IBr of smaller
degree.  A restriction that is not kept and is no such combination shows
that some Brauer character does not lift, and AmbiguousBasicSet is raised;
the caller may supply an IBr matrix from an independent source.  The
restrictions span the class functions on the p-regular classes, so that
count decides nothing about lifting: the kept members are IBr, one per
p-regular class, when every Brauer character lifts, and any other count is
a VerificationFailed.

The pass runs on the integer coordinates of the restrictions on the power
basis of Q(zeta), in one echelon form modulo the prime ELL = 2^61 - 1 whose
rows carry their coefficients in the kept vectors.  It is sound because:

* kept rows are independent mod ELL, so they are independent over Q, and
  the coefficients mod ELL of a vector in their span are unique;
* a true decomposition psi = sum d_j phi_j with d_j >= 0 has d_j <= deg psi
  < ELL, so lifting the coefficients into [0, deg psi] recovers d exactly;
  when the sum of the lifted combination is not psi on the integer
  coordinates, no such combination exists;
* a non-negative solution for a distinct candidate cannot use a kept member
  of equal or larger degree, so no separate degree check is needed.

Only a failed combination is decided again by exact fraction-free
elimination over the integers (``integer_gauss_jordan``), the same
kernel that solves for a supplied IBr's decomposition matrix and computes
the Cartan determinant: a non-negative integer solution there, or none at
all, means the tests mod ELL and over Q disagree (VerificationFailed).

Blocks are linkage classes of the central characters omega_chi on the
p-regular class sums, compared modulo p on their integer coordinates on the
power basis of Q(zeta_N), p prime to N (see
``central_character_residues``).  Row i of a decomposition matrix holds the
coefficients of row i's restriction in IBr, unique as IBr is independent:
the pass reads them off (a unit vector when kept, the checked coefficients
when dropped); for a supplied IBr they are solved for and checked to be
non-negative integers.

A block's defect group D is named by one rule, ``known_defect_group``: the
trivial subgroup at defect 0, a Sylow p-subgroup at maximal defect.  For any
other defect ``nilpotency_refute`` needs a certificate or raises
MissingDefectGroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .chartab import CharacterTable, ClassFunction, character_table, induce
from .cyclo import ZERO, _reduce_expansion, is_prime, nu, p_part
from .errors import (
    AmbiguousBasicSet,
    ClassDataMismatch,
    MissingDefectGroup,
    NonIntegralDecomposition,
    NoSuchBlock,
    NotAPrime,
    NotCentralPPrime,
    VerificationFailed,
)
from .permgroup import ClassData, PermGroup
from .perms import pmul


# ---------------------------------------------------------------------------
# p-regular classes and restrictions
# ---------------------------------------------------------------------------

def p_regular_classes(classes: ClassData, p: int) -> list:
    """Indices of classes of p'-element order, in canonical order."""
    return [i for i, o in enumerate(classes.element_orders) if o % p != 0]


def restriction(row, regular) -> tuple:
    return tuple(row[i] for i in regular)


# ---------------------------------------------------------------------------
# integer coordinates over a common Q(zeta) and linear algebra on them
# ---------------------------------------------------------------------------

ELL = (1 << 61) - 1     # prime modulus of the rank and span tests


def _flatten(vectors):
    """Map tuples of algebraic integers in Q(zeta) to integer coordinate
    tuples on the power basis of their common field."""
    big = lcm(*(v.n for vec in vectors for v in vec))
    out = []
    for vec in vectors:
        coords = []
        for v in vec:
            if not v.is_algebraic_integer():
                raise VerificationFailed(f"{v!r} is not an algebraic integer")
            coords.extend(_reduce_expansion(big, v._embedded(big)))
        out.append(tuple(coords))
    return out


class _ModEchelon:
    """Row echelon form mod ELL of the vectors kept so far.  Each row carries
    its coefficients in the kept vectors, so a vector that reduces to zero
    has its coefficients read off the reduction."""

    def __init__(self):
        self.rows = []      # (pivot column, row, its coefficients in the kept)

    def add(self, vec):
        """None when vec enlarges the span, and then vec is kept; otherwise
        vec's coefficients mod ELL in the kept vectors."""
        v = [x % ELL for x in vec]
        coeffs = [0] * len(self.rows)
        for pc, row, row_coeffs in self.rows:
            f = v[pc]
            if f:
                v = [(x - f * y) % ELL for x, y in zip(v, row)]
                for j, y in enumerate(row_coeffs):
                    coeffs[j] = (coeffs[j] + f * y) % ELL
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return coeffs
        inv = pow(v[pc], -1, ELL)
        self.rows.append((pc, [x * inv % ELL for x in v],
                          [-c * inv % ELL for c in coeffs] + [inv]))
        return None


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


def _solve_in_basis(basis_vectors, targets):
    """Solve target = sum c_i basis_i exactly; unique solution per target.

    basis_vectors and targets are tuples of cyclotomics of equal length.
    Returns (den, numerators): c_i = numerators[t][i] / den for target t.
    Raises ValueError when a target is not in the span or the basis is
    dependent.
    """
    flat = _flatten(list(basis_vectors) + list(targets))
    l = len(basis_vectors)
    # a coordinate that is zero in every vector is an equation 0 = 0
    rows, pivots, _ = integer_gauss_jordan(
        [list(col) for col in zip(*flat) if any(col)], l)
    if len(pivots) != l:
        raise ValueError("dependent basis")
    if any(any(row[l:]) for row in rows[l:]):
        raise ValueError("target outside the span")
    den = rows[0][0] if l else 1
    return den, [[row[l + t] for row in rows[:l]] for t in range(len(targets))]


# ---------------------------------------------------------------------------
# the Fong-Swan extraction
# ---------------------------------------------------------------------------

def _degree_of(vec) -> int:
    d = vec[0].as_rational()
    if d.denominator != 1:
        raise VerificationFailed(f"degree {d} is not an integer")
    return int(d)


def _ibr_key(vec):
    """The canonical order of IBr rows: by degree, then by values."""
    return (_degree_of(vec), tuple(v.sort_key() for v in vec))


def ibr_fong_swan(table: CharacterTable, p: int):
    """IBr as value tuples on the p-regular classes, those classes, and the
    decomposition matrix, whose row i holds the coefficients of row i's
    restriction in IBr.

    When p does not divide |G|, IBr is Irr in table order and the matrix is
    the identity; otherwise IBr comes in ``_ibr_key`` order (degree, then
    values).  Block and lift indices in reports follow this order.

    One ascending pass over the distinct restrictions: a candidate is kept
    when it enlarges the span of those kept before it, and is otherwise
    checked to be their non-negative integer combination.  Raises
    AmbiguousBasicSet when it is not (the p-solvable guarantee fails for some
    non-p-solvable groups), and VerificationFailed when the test mod ELL and
    the exact one disagree.
    """
    regular = p_regular_classes(table.classes, p)
    restrictions = [restriction(row, regular) for row in table.values]
    if table.group.order % p != 0:
        k = len(restrictions)
        return restrictions, regular, [[int(i == j) for j in range(k)]
                                       for i in range(k)]
    candidates = sorted(set(restrictions), key=_ibr_key)
    echelon, kept, kept_vecs, found = _ModEchelon(), [], [], {}
    for cand, vec in zip(candidates, _flatten(candidates)):
        coeffs = echelon.add(vec)
        if coeffs is None:
            found[cand] = [0] * len(kept) + [1]
            kept.append(cand)
            kept_vecs.append(vec)
            continue
        deg = _degree_of(cand)
        if all(c <= deg for c in coeffs):      # lifted into [0, deg]
            total = [0] * len(vec)
            for c, kv in zip(coeffs, kept_vecs):
                if c:
                    total = [a + c * b for a, b in zip(total, kv)]
            if tuple(total) == vec:
                found[cand] = coeffs
                continue
        try:
            den, (sol,) = _solve_in_basis(kept, [cand])
        except ValueError as exc:
            raise VerificationFailed("a restriction in the span mod ELL is "
                                     f"not in the span: {exc}") from exc
        if all(num % den == 0 and num * den >= 0 for num in sol):
            raise VerificationFailed("the coefficients mod ELL missed a "
                                     "non-negative integer combination")
        raise AmbiguousBasicSet(
            f"a restriction of degree {deg} is no non-negative integer "
            f"combination of those kept before it")
    if len(kept) != len(regular):
        raise VerificationFailed(f"{len(kept)} restrictions kept for "
                                 f"{len(regular)} p-regular classes")
    return kept, regular, [found[r] + [0] * (len(kept) - len(found[r]))
                           for r in restrictions]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@dataclass
class Block:
    ordinary: tuple
    brauer: tuple
    defect: int

    def k(self):
        return len(self.ordinary)

    def l(self):
        return len(self.brauer)


def central_character_residues(table: CharacterTable, p: int):
    """Per row, the integer coordinates of omega_chi(K) mod p, K over the
    p-regular classes.

    Two characters lie in one block exactly when their central characters
    agree modulo a prime ideal P over p on every class sum.  The block
    idempotents lie in the span of the p-regular class sums (Osima), so
    agreement on those decides it.  On a p-regular class the values lie in
    Q(zeta_N) with p prime to N, so p is unramified there and pZ[zeta_N] is
    the intersection of the primes over p.  The partition does not depend
    on the choice of P (Isaacs, Character Theory of Finite Groups, ch. 15),
    so agreement modulo every prime over p, that is modulo pZ[zeta_N], is
    agreement modulo P.  Z[zeta_N] has the power basis as an integral basis,
    so omega_chi(K) = |K| chi(g_K) / chi(1) is read off integer coordinates
    by exact division and compared mod p.
    """
    sizes = table.classes.sizes
    regular = p_regular_classes(table.classes, p)
    rows = [restriction(row, regular) for row in table.values]
    if any(v.n % p == 0 for row in rows for v in row):
        raise VerificationFailed(f"a value on a {p}-regular class has "
                                 f"conductor divisible by {p}")
    flat = _flatten(rows)
    width = len(flat[0]) // len(regular)
    scale = [sizes[j] for j in regular for _ in range(width)]
    out = []
    for deg, coords in zip(table.degrees, flat):
        residues = []
        for size, c in zip(scale, coords):
            q, r = divmod(size * c, deg)
            if r:
                raise VerificationFailed(
                    f"a central character value of a degree-{deg} "
                    "character is not an algebraic integer")
            residues.append(q % p)
        out.append(tuple(residues))
    return out


def block_partition(table: CharacterTable, p: int) -> list:
    """Blocks via central-character linkage; principal first, brauer unfilled."""
    resids = central_character_residues(table, p)
    groups = {}
    for i, r in enumerate(resids):
        groups.setdefault(r, []).append(i)
    blocks = sorted(groups.values(), key=lambda idxs: (0 not in idxs, min(idxs)))
    nu_g = nu(table.group.order, p)
    return [Block(tuple(idxs), (), nu_g - min(nu(table.degrees[i], p) for i in idxs))
            for idxs in blocks]


# ---------------------------------------------------------------------------
# BrauerData: the assembled modular package
# ---------------------------------------------------------------------------

@dataclass
class BrauerData:
    group: PermGroup
    classes: ClassData
    p: int
    regular: list
    # value tuples on the regular classes: in table order when Fong-Swan
    # finds them and p does not divide |G|, else in _ibr_key order
    ibr: list
    table: CharacterTable = None
    decomposition: list = None     # k x l integer matrix
    cartan: list = None            # l x l integer matrix
    blocks: list = None
    provenance: str = "fong-swan"
    # the Sylow p-subgroup, a cache that only known_defect_group fills
    sylow: PermGroup = field(default=None, init=False, repr=False, compare=False)

    def ibr_degrees(self):
        return [_degree_of(v) for v in self.ibr]

    def is_maximal_defect(self, block: Block) -> bool:
        """Whether the block's defect groups are the Sylow p-subgroups."""
        return block.defect == nu(self.group.order, self.p)


def brauer_data(table: CharacterTable, p: int, supplied_ibr=None,
                provenance=None, with_blocks=True) -> BrauerData:
    """Assemble IBr, decomposition and Cartan matrices, and linked blocks.

    The Fong-Swan path takes the decomposition matrix from the pass; a
    supplied IBr is solved for it by ``decomposition_matrix``."""
    if not is_prime(p):
        raise NotAPrime(f"p = {p} is not a prime")
    if supplied_ibr is None:
        ibr, regular, dec = ibr_fong_swan(table, p)
        provenance = provenance or "fong-swan"
    else:
        regular = p_regular_classes(table.classes, p)
        ibr = sorted((tuple(v) for v in supplied_ibr), key=_ibr_key)
        dec = None
        provenance = provenance or "supplied"
    if not with_blocks:
        return BrauerData(table.group, table.classes, p, regular, list(ibr),
                          table, provenance=provenance)
    if dec is None:
        dec = decomposition_matrix(table, ibr, regular)
    l = len(ibr)
    cartan = [[sum(dec[i][a] * dec[i][b] for i in range(len(dec)))
               for b in range(l)] for a in range(l)]
    filled = []
    for blk in block_partition(table, p):
        brauer_idx = sorted({j for i in blk.ordinary for j in range(l) if dec[i][j]})
        filled.append(Block(blk.ordinary, tuple(brauer_idx), blk.defect))
    seen = [j for blk in filled for j in blk.brauer]
    if sorted(seen) != list(range(l)):
        raise VerificationFailed("an IBr lies in no block or in two blocks")
    return BrauerData(table.group, table.classes, p, regular, list(ibr), table,
                      dec, cartan, filled, provenance)


def brauer_data_without_table(group, classes, p, ibr_rows,
                              provenance="supplied") -> BrauerData:
    regular = p_regular_classes(classes, p)
    rows = sorted((tuple(v) for v in ibr_rows), key=_ibr_key)
    if any(len(r) != len(regular) for r in rows):
        raise ClassDataMismatch(
            f"an IBr row does not have one value per {p}-regular class")
    return BrauerData(group, classes, p, regular, rows, provenance=provenance)


def decomposition_matrix(table: CharacterTable, ibr, regular) -> list:
    """Unique non-negative integer solution of chi|p-reg = sum d_phi phi."""
    targets = [restriction(row, regular) for row in table.values]
    try:
        den, sols = _solve_in_basis(ibr, targets)
    except ValueError as exc:
        raise NonIntegralDecomposition(str(exc)) from exc
    out = []
    for i, sol in enumerate(sols):
        row = []
        for num in sol:
            c, rem = divmod(num, den)
            if rem or c < 0:
                raise NonIntegralDecomposition(
                    f"character {i} decomposes with coefficient "
                    f"{f'{num}/{den}' if rem else c}")
            row.append(c)
        out.append(row)
    return out


def cartan_determinant(cartan) -> int:
    """Exact determinant of a square integer matrix (integer elimination)."""
    if not all(isinstance(x, int) for row in cartan for x in row):
        raise VerificationFailed("the Cartan matrix is not integral")
    if any(len(row) != len(cartan) for row in cartan):
        raise VerificationFailed("the Cartan matrix is not square")
    return integer_gauss_jordan(cartan, len(cartan))[2]


# ---------------------------------------------------------------------------
# linear characters of small (abelian) subgroups
# ---------------------------------------------------------------------------

class LinearCharacter:
    """A linear character of a subgroup, stored as element -> value."""

    def __init__(self, subgroup: PermGroup, values: dict):
        self.subgroup = subgroup
        self.values = values

    @staticmethod
    def from_table_row(table: CharacterTable, i: int) -> "LinearCharacter":
        if table.degrees[i] != 1:
            raise ClassDataMismatch(f"row {i} of the table is not a linear character")
        vals = {}
        for j, cls in enumerate(table.classes.classes):
            for x in cls:
                vals[x] = table.values[i][j]
        return LinearCharacter(table.group, vals)

    def __call__(self, g):
        return self.values[tuple(g)]


def linear_characters(subgroup: PermGroup) -> list:
    """All linear characters of an abelian subgroup, in canonical table order."""
    t = character_table(subgroup)
    if any(d != 1 for d in t.degrees):
        raise ClassDataMismatch("linear_characters needs an abelian group")
    return [LinearCharacter.from_table_row(t, i) for i in range(len(t))]


# ---------------------------------------------------------------------------
# Fong block over a central p'-character; lifts; nilpotency refutation
# ---------------------------------------------------------------------------

def is_central(z_sub: PermGroup, group: PermGroup) -> bool:
    """Whether every generator of z_sub commutes with every generator of group."""
    return all(pmul(z, s) == pmul(s, z) for z in z_sub.gens for s in group.gens)


def rows_over_central(rows, z_sub: PermGroup, column, lam: LinearCharacter) -> list:
    """Indices of the rows lying over lam: value at z = degree * lam(z) for
    every z in z_sub.

    ``column(z)`` is the position of z's class in a row, or None when the rows
    have no value there (then no row lies over lam)."""
    z_elems = z_sub.elements()
    cols = [column(z) for z in z_elems]
    if None in cols:
        return []
    return [i for i, row in enumerate(rows)
            if all(row[c] == row[0] * lam(z) for z, c in zip(z_elems, cols))]


def ibr_over_central(bd: BrauerData, z_sub: PermGroup, lam: LinearCharacter) -> list:
    """IBr indices whose central character matches lam (central p'-subgroup)."""
    pos = {c: t for t, c in enumerate(bd.regular)}
    return rows_over_central(bd.ibr, z_sub, lambda z: pos.get(bd.classes.index[z]),
                             lam)


def fong_block(bd: BrauerData, z_sub: PermGroup, lam: LinearCharacter) -> Block:
    """The unique block of G whose ordinary characters all lie over lam.

    Requires z_sub central of p'-order (the situation of the block
    applications); verifies IBr(B) = IBr(G | lam) computed independently,
    and returns the block, one of ``bd.blocks``.
    """
    if z_sub.order % bd.p == 0:
        raise NotCentralPPrime(f"|Z| = {z_sub.order} is divisible by p = {bd.p}")
    if not is_central(z_sub, bd.group):
        raise NotCentralPPrime("subgroup is not central")
    if bd.table is None or bd.blocks is None:
        raise NoSuchBlock("fong_block needs a full table-backed BrauerData")
    over = set(rows_over_central(bd.table.values, z_sub, bd.table.group.class_of,
                                 lam))
    cand = [b for b in bd.blocks if set(b.ordinary) <= over]
    if not cand or set().union(*(set(b.ordinary) for b in cand)) != over:
        raise NoSuchBlock("characters over lambda do not form a union of blocks")
    if len(cand) != 1:
        raise NoSuchBlock(f"{len(cand)} blocks lie over lambda; expected one")
    blk = cand[0]
    if tuple(ibr_over_central(bd, z_sub, lam)) != blk.brauer:
        raise NoSuchBlock("IBr(B) differs from the Clifford constituents over lambda")
    return blk


def lifts_of(bd: BrauerData, phi_index: int) -> list:
    """Ordinary rows whose p-regular restriction equals the given IBr row."""
    if bd.table is None:
        raise NoSuchBlock("lifts_of needs a table-backed BrauerData")
    target = tuple(bd.ibr[phi_index])
    return [i for i, row in enumerate(bd.table.values)
            if restriction(row, bd.regular) == target]


@dataclass
class NilpotencyCertificate:
    """Construction data showing a quotient acting above a subpair is not a
    p-group; carries the order of that inertial quotient."""

    inertial_quotient_order: int
    description: str = ""


@dataclass
class RefutationResult:
    refuted: bool
    reason: str


def known_defect_group(bd: BrauerData, block: Block):
    """A defect group of the block when its defect names one: the trivial
    subgroup at defect 0, a Sylow p-subgroup at maximal defect (the same
    one, ``bd.sylow``, for every block of bd); else None."""
    if block.defect == 0:
        return bd.group.subgroup([])
    if bd.is_maximal_defect(block):
        if bd.sylow is None:
            bd.sylow = bd.group.sylow_subgroup(bd.p)
        return bd.sylow
    return None


def nilpotency_refute(block: Block, bd: BrauerData,
                      certificate: NilpotencyCertificate = None) -> RefutationResult:
    """Refute nilpotency or report 'undetermined' (never claims nilpotency).

    Tests l(B) != 1, then the certificate's inertial quotient, then k(B) =
    k(D), which holds in a nilpotent block (Broue-Puig).  Only the last test
    names D: trivial at defect 0, Sylow at maximal defect; at any other
    defect it is 'undetermined' with a certificate, MissingDefectGroup without.
    """
    l = block.l()
    if l != 1:
        return RefutationResult(True, f"l(B) = {l} != 1")
    if certificate is not None:
        q = certificate.inertial_quotient_order
        if q > 1 and p_part(q, bd.p) != q:
            return RefutationResult(
                True,
                f"inertial quotient of order {q} above a subpair is not a "
                f"{bd.p}-group ({certificate.description})")
    dg = known_defect_group(bd, block)
    if dg is None:
        if certificate is not None:
            return RefutationResult(False, "undetermined")
        raise MissingDefectGroup(
            f"defect {block.defect} is neither 0 nor maximal, so no defect "
            "group is known; need a construction certificate")
    k_d = len(dg.conjugacy_classes())
    if k_d != block.k():
        return RefutationResult(
            True, f"k(B) = {block.k()} != k(D) = {k_d} violates the nilpotent "
                  f"character count")
    return RefutationResult(False, "undetermined")


# ---------------------------------------------------------------------------
# Brauer characters of direct products (tensor construction)
# ---------------------------------------------------------------------------

def brauer_data_for_product(product_table: CharacterTable, bd_a: BrauerData,
                            bd_b: BrauerData, product_data,
                            with_blocks=True) -> BrauerData:
    """IBr(A x B) as tensor products of the factor IBr, then standard assembly."""
    grp, _emb_a, _emb_b, split = product_data
    if product_table.group is not grp or bd_a.p != bd_b.p:
        raise ClassDataMismatch(
            "the product table and the factors' Brauer data do not match")
    p = bd_a.p
    regular = p_regular_classes(product_table.classes, p)
    pos_a = {c: t for t, c in enumerate(bd_a.regular)}
    pos_b = {c: t for t, c in enumerate(bd_b.regular)}
    reps = [split(product_table.classes.representatives[i]) for i in regular]
    located = [(pos_a[bd_a.group.class_of(x)], pos_b[bd_b.group.class_of(y)])
               for x, y in reps]
    rows = []
    for ra in bd_a.ibr:
        for rb in bd_b.ibr:
            rows.append(tuple(ra[ia] * rb[ib] for ia, ib in located))
    return brauer_data(product_table, p, supplied_ibr=rows,
                       provenance="tensor-of-factors", with_blocks=with_blocks)


def faithful_brauer_values(group: PermGroup, values, p: int) -> bool:
    """Whether an irreducible Brauer character of ``group``, given on the
    p-regular classes in canonical order, is faithful: it equals its degree
    on the identity class alone, so its kernel is a p-group, and O_p(G),
    which every simple module's kernel holds, is 1 (at once when p does
    not divide |G|)."""
    if [t for t, v in enumerate(values) if v == values[0]] != [0]:
        return False
    return group.order % p != 0 or group.p_core(p).order == 1


def brauer_kernel_trivial(bd: BrauerData, i: int) -> bool:
    return faithful_brauer_values(bd.group, bd.ibr[i], bd.p)


def brauer_induce(sub_values, sub_cd: ClassData, sub_regular, big_cd: ClassData,
                  fusion, big_regular) -> tuple:
    """Induce a Brauer character (values on sub p-regular classes) to G by
    ``chartab.induce``, with ZERO on H's p-singular classes.  Fusion keeps
    element orders, so no p-singular class of H fuses into a p-regular class
    of G, and the zeros change no value read on G's p-regular classes."""
    on_regular = dict(zip(sub_regular, sub_values))
    theta = ClassFunction(sub_cd, [on_regular.get(c, ZERO)
                                   for c in range(len(sub_cd))])
    induced = induce(theta, big_cd, fusion).values
    return tuple(induced[g] for g in big_regular)
