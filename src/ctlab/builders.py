"""Block builders: semidirect constructions engineered to produce blocks with
a single irreducible Brauer character.

* builder_plength: a p'-group of central type acting on an elementary
  abelian p-group with kernel exactly its center; the block over a fully
  ramified central character has maximal defect and one Brauer character,
  and the quotient acting above the natural subpair is not a p-group.
* builder_nonsolvable: (H x Q) : A with A acting regularly on the Brauer
  characters of a block b of H whose count is not a p-power, and
  non-trivially on the p-group Q.  It takes the caller's Brauer data of H,
  blocks included, so H's table is built once by whoever picks b.
* builder_unique_lift: the variant of the first builder whose stabilizer
  inequality |H : H_v| > |H_v : Z| for all nonzero vectors forces the unique
  Brauer character of the block to have a unique ordinary lift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .centraltype import fully_ramified_search, is_central_type
from .chartab import CharacterTable, character_table
from .errors import (
    ActionKernelMismatch,
    CTLabError,
    HypothesisFails,
    NotCentralPPrime,
    NotRegularOnIBr,
    TrivialQAction,
    VerificationFailed,
)
from .forge import (SemidirectResult, cyclic, matrix_to_vector_perm, semidirect,
                    vector_translations)
from .homs import GroupHom
from .modrep import (BrauerData, LinearCharacter, NilpotencyCertificate,
                     brauer_data, linear_characters, rows_over_central)
from .permgroup import PermGroup, check_order, direct_product, p_part
from .perms import conj


# ---------------------------------------------------------------------------
# shared scaffolding: V : H through forge.semidirect
# ---------------------------------------------------------------------------

@dataclass
class VectorActionBuild:
    group: PermGroup
    v_sub: PermGroup
    h_hom: GroupHom
    z_sub: PermGroup              # image of Z(H) inside the big group
    lam: LinearCharacter          # designated fully ramified character on z_sub
    certificate: NilpotencyCertificate
    dim: int
    p: int
    h_table: CharacterTable
    h_group: PermGroup
    lam_source_index: int


def _vector_semidirect(h_group: PermGroup, p: int, dim: int, mats,
                       z_expected: PermGroup):
    """V : H with V = F_p^dim as its translation group and H acting through
    the matrices; the action kernel must equal Z."""
    perms, vecs, vidx = matrix_to_vector_perm(mats, p)
    mat_hom = GroupHom(h_group, PermGroup(len(vecs), perms), perms)
    ker_order = h_group.order // mat_hom.image_group().order
    if ker_order != z_expected.order or any(
            mat_hom.image(z) != mat_hom.target.identity for z in z_expected.gens):
        raise ActionKernelMismatch(
            f"action kernel has order {ker_order}, expected the center of "
            f"order {z_expected.order}")
    v = PermGroup(len(vecs), vector_translations(p, dim, vecs, vidx))
    autos = [GroupHom(v, v, [conj(t, mp) for t in v.gens]) for mp in perms]
    sd = semidirect(v, h_group, autos)
    v_sub = sd.group.subgroup(sd.n_gen_perms)
    check_order(v_sub, p ** dim, "the image of V in V : H")
    return sd.group, v_sub, sd.h_hom


def regular_module_matrices(h_group: PermGroup, z_sub: PermGroup):
    """Permutation matrices of H/Z acting on its own coset space."""
    qr = h_group.quotient(z_sub)
    dim = qr.group.order
    mats = []
    for img in qr.gen_images:
        mats.append([[1 if img[c] == r else 0 for c in range(dim)]
                     for r in range(dim)])
    return dim, mats


def builder_plength(h_group: PermGroup, p: int, dim: int,
                    mats) -> VectorActionBuild:
    """V : H with a fully ramified central character designated on Z = Z(H).

    Requires Z(H) of p'-order and a fully ramified Brauer character on it
    (p-central type).  The downstream contract: the block over the
    designated character has maximal defect and a single Brauer character,
    and is not nilpotent because H/Z (re-verified as G / C_G(V)) is not a
    p-group.
    """
    z_sub = h_group.center()
    if z_sub.order % p == 0:
        raise NotCentralPPrime("the center of the acting group must have "
                               "p'-order")
    if h_group.order == z_sub.order:
        raise ActionKernelMismatch(
            "an abelian acting group equals its center, so the action with "
            "kernel Z is trivial and the product degenerates")
    table_h = character_table(h_group)
    bd_h = brauer_data(table_h, p, with_blocks=False)
    ramified = fully_ramified_search(bd_h, z_sub)
    if not ramified:
        raise CTLabError("the acting group has no fully ramified central "
                         "character: it is not of central type")
    lam_index, _e, _phi = ramified[0]
    lams = linear_characters(z_sub)
    grp, v_sub, h_hom = _vector_semidirect(h_group, p, dim, mats, z_sub)
    z_big = grp.subgroup([h_hom.image(g) for g in z_sub.gens])
    check_order(z_big, z_sub.order, "the image of Z(H) in V : H")
    lam_vals = {h_hom.image(z): lams[lam_index](z) for z in z_sub.elements()}
    lam_big = LinearCharacter(z_big, lam_vals)
    # re-verify the certificate data: Z = O_{p'}(G), and G / C_G(V) = H / Z
    core = grp.p_prime_core(p)
    if core.order != z_big.order or any(z not in core for z in z_big.gens):
        raise VerificationFailed(
            "the center of H is not the p'-core of the product")
    cen = grp.centralizer_of_subgroup(v_sub)
    inertial = grp.order // cen.order
    if inertial != h_group.order // z_sub.order:
        raise VerificationFailed(
            f"|G : C_G(V)| = {inertial}, expected |H : Z| = "
            f"{h_group.order // z_sub.order}")
    cert = NilpotencyCertificate(
        inertial, "G/C_G(V), the quotient acting above the (V, b) subpair")
    return VectorActionBuild(grp, v_sub, h_hom, z_big, lam_big, cert, dim, p,
                             table_h, h_group, lam_index)


# ---------------------------------------------------------------------------
# (H x Q) : A with A regular on IBr(b)
# ---------------------------------------------------------------------------

@dataclass
class RegularActionBuild:
    group: PermGroup
    n_result: SemidirectResult
    h_group: PermGroup
    q_group: PermGroup
    h_bd: BrauerData
    block_index: int
    a_order: int
    certificate: NilpotencyCertificate
    embed_h: object
    embed_q: object
    n_small: PermGroup


def ibr_action_permutation(bd: BrauerData, alpha: GroupHom, a_order: int):
    """The permutation of the IBr rows induced by an automorphism."""
    if a_order == 1:
        return list(range(len(bd.ibr)))
    alpha_inv = alpha              # alpha^(a_order - 1) = alpha^(-1)
    for _ in range(a_order - 2):
        alpha_inv = alpha_inv.then(alpha)
    pos = {c: t for t, c in enumerate(bd.regular)}
    perm = []
    for row in bd.ibr:
        new_row = tuple(row[pos[bd.classes.index[
            alpha_inv.image(bd.classes.representatives[c])]]]
            for c in bd.regular)
        perm.append(bd.ibr.index(new_row))
    return perm


def builder_nonsolvable(bd_h: BrauerData, block_index: int, alpha: GroupHom,
                        a_order: int, q_group: PermGroup,
                        alpha_q: GroupHom) -> RegularActionBuild:
    """(H x Q) : <(alpha, alpha_q)> with the regularity prechecks.

    H, p and the block b = ``bd_h.blocks[block_index]`` are read from the
    caller's Brauer data of H, which must carry its blocks."""
    if bd_h.blocks is None:
        raise CTLabError("the Brauer data of H carries no blocks")
    h_group, p = bd_h.group, bd_h.p
    blk = bd_h.blocks[block_index]
    l_b = blk.l()
    if p_part(l_b, p) == l_b:
        raise NotRegularOnIBr(f"l(b) = {l_b} is a p-power; the construction "
                              f"needs a non-p-power count")
    if alpha.automorphism_order() != a_order:
        raise NotRegularOnIBr(f"the automorphism does not have order {a_order}")
    if l_b != a_order:
        raise NotRegularOnIBr(
            f"|A| = {a_order} != l(b) = {l_b}: the action cannot be regular")
    perm = ibr_action_permutation(bd_h, alpha, a_order)
    # regularity on the block: single orbit of full length inside blk.brauer
    start = blk.brauer[0]
    orbit = [start]
    cur = perm[start]
    while cur != start:
        orbit.append(cur)
        cur = perm[cur]
    if sorted(orbit) != sorted(blk.brauer) or len(orbit) != a_order:
        raise NotRegularOnIBr(
            f"orbit {sorted(orbit)} does not exhaust IBr of the block "
            f"{blk.brauer}")
    if q_group.order != p_part(q_group.order, p):
        raise TrivialQAction("the auxiliary group must be a p-group")
    if all(alpha_q.image(g) == tuple(g) for g in q_group.gens):
        raise TrivialQAction("the action on the p-group is trivial")
    if alpha_q.automorphism_order() > 1 and a_order % alpha_q.automorphism_order():
        raise TrivialQAction("the p-group action order must divide |A|")
    n_grp, emb_h, emb_q, _split = direct_product(h_group, q_group)
    diag = GroupHom(n_grp, n_grp,
                    [emb_h(alpha.image(g)) for g in h_group.gens]
                    + [emb_q(alpha_q.image(g)) for g in q_group.gens])
    sd = semidirect(n_grp, cyclic(a_order), [diag])
    cert = NilpotencyCertificate(
        a_order, "A = G/(H x Q) acting above the subpair of the covered block")
    return RegularActionBuild(sd.group, sd, h_group, q_group, bd_h,
                              block_index, a_order, cert, emb_h, emb_q, n_grp)


# ---------------------------------------------------------------------------
# the unique-lift builder (stabilizer inequality)
# ---------------------------------------------------------------------------

@dataclass
class UniqueLiftBuild:
    group: PermGroup
    v_sub: PermGroup
    h_hom: GroupHom
    z_sub: PermGroup
    lam: LinearCharacter
    hypothesis: list              # per orbit: (representative, size, stab order)
    dim: int
    p: int
    h_table: CharacterTable
    h_group: PermGroup


def stabilizer_inequality(mats, p: int, dim: int, quotient_order: int):
    """Per-orbit check of |H : H_v| > |H_v : Z| on the nonzero vectors.

    Returns the orbit report; raises HypothesisFails at the first violating
    orbit (with the least witness vector)."""
    perms, vecs, vidx = matrix_to_vector_perm(mats, p, include_zero=False)
    action = PermGroup(len(vecs), perms)
    if action.order != quotient_order:
        raise ActionKernelMismatch(
            f"the matrices generate a group of order {action.order}, not a "
            f"faithful action of H/Z of order {quotient_order}")
    seen = set()
    report = []
    for start in range(len(vecs)):
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for pe in perms:
                y = pe[x]
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        size = len(orbit)
        stab = quotient_order // size
        rep = vecs[min(orbit)]
        report.append({"vector": rep, "orbit_size": size, "stabilizer": stab})
        if size <= stab:
            raise HypothesisFails(
                f"orbit of {rep} has size {size} <= stabilizer order {stab}",
                witness=rep, orbit_size=size, stab_order=stab)
    return report


def builder_unique_lift(h_group: PermGroup, p: int, dim: int,
                        mats) -> UniqueLiftBuild:
    """V : H under the stabilizer inequality; designates the fully ramified
    ordinary central character whose block has a unique lift."""
    if h_group.order % p == 0:
        raise NotCentralPPrime("the acting group must be a p'-group")
    table_h = character_table(h_group)
    ct = is_central_type(table_h)
    if not ct.is_central_type:
        raise CTLabError("the acting group is not of central type")
    z_sub = h_group.center()
    report = stabilizer_inequality(mats, p, dim,
                                   h_group.order // z_sub.order)
    grp, v_sub, h_hom = _vector_semidirect(h_group, p, dim, mats, z_sub)
    lams = linear_characters(z_sub)
    ramified = [li for li, lam in enumerate(lams)
                if len(rows_over_central(table_h.values, z_sub, h_group.class_of,
                                         lam)) == 1]
    if not ramified:
        raise VerificationFailed(
            "central type guarantees a fully ramified character, none found")
    lam_index = ramified[0]
    z_big = grp.subgroup([h_hom.image(g) for g in z_sub.gens])
    check_order(z_big, z_sub.order, "the image of Z(H) in V : H")
    lam_vals = {h_hom.image(z): lams[lam_index](z) for z in z_sub.elements()}
    lam_big = LinearCharacter(z_big, lam_vals)
    return UniqueLiftBuild(grp, v_sub, h_hom, z_big, lam_big, report, dim, p,
                           table_h, h_group)
