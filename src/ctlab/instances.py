"""Named example groups at fixed orders, constructed structurally.

No group catalogue is consulted: the order-54 acting group is found by
searching the involutory automorphisms of the exponent-3 extraspecial group
of order 27 that centralize its center and selecting those whose extension
is of 2-central type.  Such an involution acts as -1 on N/Z (see
``order54_group``), so only the lifts of -1 are searched.  The bigger
groups are the block-builder outputs over explicit matrix actions.  Everything is cached per process, deterministic,
and re-verified downstream by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .builders import (RegularActionBuild, VectorActionBuild,
                       builder_nonsolvable, builder_plength)
from .centraltype import is_p_central_type
from .chartab import character_table, direct_product_table
from .cyclo import Cyclotomic, p_prime_part
from .errors import NotAHomomorphism, VerificationFailed
from .forge import (cyclic, dihedral, extraspecial, matrix_to_vector_perm,
                    mobius_perm, psl2, semidirect, sl2)
from .homs import GroupHom
from .modrep import (brauer_data, brauer_data_for_product,
                     brauer_data_without_table, p_regular_classes)
from .permgroup import PermGroup
from .perms import commutator, conj, pinv, pmul


@dataclass
class Order54Report:
    group: PermGroup
    automorphism: GroupHom


@lru_cache(maxsize=None)
def order54_group() -> Order54Report:
    """3^(1+2) extended by an involution centralizing the center.

    Searches the order-2 automorphisms fixing the center pointwise, in the
    canonical generator-pair order, and returns the first whose extension
    has 2-central type.

    Only the pairs (a, b) in x^-1 Z x y^-1 Z are tried, for N = <x, y> and
    Z = Z(N) = <z>, z = [x, y].  An automorphism alpha fixing Z pointwise
    keeps the commutator form, [alpha(u), alpha(v)] = alpha([u, v]) =
    [u, v], so it acts on N/Z = F_3^2 through SL(2, 3), whose only
    involution is -1.  Its image there is not 1: an automorphism trivial
    on N/Z and on Z is g -> g f(g) for a homomorphism f: N -> Z, of order
    1 or 3.  So an involution has alpha(x) in x^-1 Z and alpha(y) in
    y^-1 Z.  Both cosets are walked in the sorted element order, so the
    first pair that passes every check below is the first one of the
    search over all noncentral pairs.
    """
    n27 = extraspecial(3, "+")
    z_elems = n27.center().elements()
    x_gen, y_gen = n27.gens
    zc = commutator(x_gen, y_gen)
    x_lifts = sorted(pmul(pinv(x_gen), c) for c in z_elems)
    y_lifts = sorted(pmul(pinv(y_gen), c) for c in z_elems)
    for a in x_lifts:
        for b in y_lifts:
            if commutator(a, b) != zc:
                continue
            try:
                alpha = GroupHom(n27, n27, [a, b])
            except NotAHomomorphism:
                continue
            if not alpha.is_automorphism():
                continue
            if alpha.image(a) != x_gen or alpha.image(b) != y_gen:
                continue  # not an involution
            if (a, b) == (x_gen, y_gen):
                continue  # the identity map
            sd = semidirect(n27, cyclic(2), [alpha])
            h = sd.group
            bd = brauer_data(character_table(h), 2, with_blocks=False)
            if is_p_central_type(bd).is_p_central_type:
                return Order54Report(h, alpha)
    raise VerificationFailed("no involution of 3^(1+2) centralizing its "
                             "center gives a 2-central-type extension")


@lru_cache(maxsize=None)
def order72_build() -> VectorActionBuild:
    """C_3^2 : D_8 with the dihedral group acting through its four-group."""
    d8 = dihedral(8)
    mats = [[[2, 0], [0, 2]], [[1, 0], [0, 2]]]  # rotation -> -1, reflection
    return builder_plength(d8, 3, dim=2, mats=mats)


@lru_cache(maxsize=None)
def order864_build() -> VectorActionBuild:
    """The order-54 group acting on C_2^4 through its order-18 quotient."""
    h54 = order54_group().group
    x_mat = [[0, 1], [1, 1]]       # order 3 in GL(2, 2)
    t_mat = [[0, 1], [1, 0]]       # inverts x_mat by conjugation
    ident = [[1, 0], [0, 1]]
    zero = [[0, 0], [0, 0]]

    def block(m00, m11):
        return [m00[0] + zero[0], m00[1] + zero[1],
                zero[0] + m11[0], zero[1] + m11[1]]

    mats = [block(x_mat, ident), block(ident, x_mat), block(t_mat, t_mat)]
    return builder_plength(h54, 2, dim=4, mats=mats)


def _swapping_build(h, w) -> RegularActionBuild:
    """(H x C_3) : C_2, the involution conjugating H by w and inverting C_3;
    the action swaps the two Brauer characters of a faithful block of H at
    p = 3 with l = 2."""
    alpha = GroupHom(h, h, [conj(g, w) for g in h.gens])
    q3 = cyclic(3)
    alpha_q = GroupHom(q3, q3, [pinv(q3.gens[0])])
    bd = brauer_data(character_table(h), 3)
    block_index = next(i for i, blk in enumerate(bd.blocks)
                       if blk.l() == 2 and 0 not in blk.ordinary)
    return builder_nonsolvable(bd, block_index, alpha, 2, q3, alpha_q)


@lru_cache(maxsize=None)
def order720_build() -> RegularActionBuild:
    """(SL(2,5) x C_3) : C_2 with the diagonal action swapping the two
    Brauer characters of the faithful defect-1 block at p = 3."""
    # determinant -2: a non-square mod 5
    w = matrix_to_vector_perm([[[0, 1], [2, 0]]], 5, include_zero=False)[0][0]
    return _swapping_build(sl2(5), w)


@lru_cache(maxsize=None)
def order3960_build() -> RegularActionBuild:
    """(PSL(2,11) x C_3) : C_2, the simple-group variant of the order-720
    construction."""
    w = mobius_perm(11, [[0, 1], [3, 0]])  # det -3 non-square; w^2 scalar
    return _swapping_build(psl2(11), w)


# ---------------------------------------------------------------------------
# the two counterexamples to the fully-ramified converse
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sl25_squared_data():
    """SL(2,5) x SL(2,5) at p = 5 via the product-table shortcut."""
    s = sl2(5)
    t = character_table(s)
    tp, pdata = direct_product_table(t, t)
    bd_s = brauer_data(t, 5)
    bdp = brauer_data_for_product(tp, bd_s, bd_s, pdata, with_blocks=False)
    return tp, bdp


def _f_q2_omega(q: int, e: int):
    """(f, powers): a primitive e-th root of unity omega in F_{q^2} =
    F_q[x]/(f), and omega^0, ..., omega^(e-1) as pairs (a, b) = a + b x.

    f = x^2 + a1 x + a0, given as (a0, a1, 1), is the least (a0, a1), a0
    outermost, that has no root in F_q and whose root x has multiplicative
    order divisible by e; omega = x^(ord / e).  Such an f is irreducible,
    so x is a unit and the list of its powers closes after ord <= q^2 - 1
    steps.
    """
    for a0 in range(q):
        for a1 in range(q):
            if any((t * t + a1 * t + a0) % q == 0 for t in range(q)):
                continue
            x_pows, (a, b) = [], (1, 0)
            while not x_pows or (a, b) != (1, 0):
                x_pows.append((a, b))
                # (a + b x) x = -a0 b + (a - a1 b) x, as x^2 = -a1 x - a0
                a, b = -a0 * b % q, (a - a1 * b) % q
            if len(x_pows) % e == 0:
                return (a0, a1, 1), tuple(x_pows[::len(x_pows) // e])
    raise VerificationFailed(f"no x^2 + a1 x + a0 without a root in F_{q} "
                             f"has a root of order divisible by {e}")


@lru_cache(maxsize=None)
def sl2_char_p_brauer(q: int):
    """IBr of SL(2, q) in its defining characteristic, from the symmetric
    powers of the natural module, without an ordinary table.

    The Brauer character of the m-th symmetric power at a q-regular element
    with eigenvalue of exponent j (relative to a fixed primitive root) is
    the geometric sum of zeta^(j(m - 2i)); this is standard defining-
    characteristic theory, independent of the table engine, and is verified
    against the restriction route for small q by the tests.

    The eigenvalues are named in F_{q^2}: with omega the fixed primitive
    e'-th root of unity of ``_f_q2_omega`` (e' the q'-part of the
    exponent), a class of trace t gets the least j with omega^j + omega^-j
    = t.  This fixes the columns; a Galois conjugate of omega would give
    the same degrees and other values.
    """
    from math import lcm

    g = sl2(q)
    cd = g.conjugacy_classes()
    regular = p_regular_classes(cd, q)
    if len(regular) != q:
        raise VerificationFailed(
            f"SL(2, {q}) has {len(regular)} {q}-regular classes, expected {q}")
    exp = lcm(1, *cd.element_orders)
    e_prime = p_prime_part(exp, q)
    _modulus, omega_pows = _f_q2_omega(q, e_prime)
    # the point order of sl2(q): the nonzero vectors of F_q^2
    _perms, vecs, idx = matrix_to_vector_perm([[[1, 0], [0, 1]]], q,
                                              include_zero=False)
    e1, e2 = idx[(1, 0)], idx[(0, 1)]

    def matrix_of(perm):
        col1 = vecs[perm[e1]]
        col2 = vecs[perm[e2]]
        return [[col1[0], col2[0]], [col1[1], col2[1]]]

    exponents = []
    for c in regular:
        m = matrix_of(cd.representatives[c])
        trace = ((m[0][0] + m[1][1]) % q, 0)
        j = next((k for k in range(e_prime)
                  if tuple((a + b) % q for a, b in
                           zip(omega_pows[k], omega_pows[-k])) == trace), None)
        if j is None:
            raise VerificationFailed(f"no omega^j + omega^-j in F_{q}^2 "
                                     f"equals the trace {trace[0]}")
        exponents.append(j)
    rows = []
    for m in range(q):
        row = []
        for j in exponents:
            expansion = {}
            for i in range(m + 1):
                e = (j * (m - 2 * i)) % e_prime
                expansion[e] = expansion.get(e, 0) + 1
            row.append(Cyclotomic.from_expansion(e_prime, expansion))
        rows.append(tuple(row))
    return brauer_data_without_table(g, cd, q, rows,
                                     provenance="symmetric-powers")


@lru_cache(maxsize=None)
def sl217_brauer_data():
    return sl2_char_p_brauer(17)
