import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from ctlab import forge, instances
from ctlab.chartab import character_table
from ctlab.errors import ActionNotWellDefined, InvalidWitness, NotASubgroup, \
    NotNormal, UnsupportedFamily
from ctlab.forge import (central_product_power, cyclic, cyclic_extension_build,
                         cyclic_extension_exists, dihedral, elem_abelian,
                         extraspecial, kk_embedding, mat_group, mobius_perm,
                         psl2, quaternion, semidirect, sl2, wreath)
from ctlab.gagola import _base_level, gagola_step, gagola_tower
from ctlab.homs import GroupHom
from ctlab.permgroup import PermGroup, direct_product
from ctlab.perms import conj, order as porder, parse_cycles, pinv, pmul, ppow

from conftest import perm_group


def _order_multiset(g):
    return sorted(porder(e) for e in g.elements())


def _is_abelian(g):
    return all(pmul(a, b) == pmul(b, a) for a in g.gens for b in g.gens)


def test_standard_families():
    assert cyclic(6).order == 6 and _is_abelian(cyclic(6))
    assert cyclic(1).order == 1
    assert elem_abelian(2, 3).order == 8 and elem_abelian(2, 3).exponent() == 2
    assert dihedral(10).order == 10
    with pytest.raises(UnsupportedFamily):
        dihedral(7)
    with pytest.raises(UnsupportedFamily):
        quaternion(12 + 2)


def test_extraspecial_centers():
    for kind, expected_exp in [("+", 3), ("-", 9)]:
        g = extraspecial(3, kind)
        assert g.order == 27
        assert len(oracles.center(oracles.closure(g.degree, g.gens))) == 3
        assert g.exponent() == expected_exp
    assert extraspecial(2, "+").order == 8
    assert _order_multiset(extraspecial(2, "-")) == _order_multiset(quaternion(8))


def test_matrix_groups():
    s = sl2(5)
    assert s.order == 120
    assert s.center().order == 2
    assert psl2(5).order == 60
    assert psl2(11).order == 660
    q8 = mat_group(3, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]])
    assert q8.order == 8


def test_semidirect_s3():
    c3 = cyclic(3)
    invmap = GroupHom(c3, c3, [pinv(c3.gens[0])])
    sd = semidirect(c3, cyclic(2), [invmap])
    assert sd.group.order == 6
    assert sd.group.conjugacy_classes().sizes == [1, 3, 2]
    # embeddings work
    assert sd.n_hom.is_injective()
    assert sd.h_hom.is_injective()


def test_semidirect_affine_72_on_9_points():
    # C3^2 : D8 with D8 faithful inside GL(2, 3): a 9-point affine group
    from ctlab.grammar import evaluate, parse_spec

    g = evaluate(parse_spec(
        "Affine(3, 2, [[[0, 2], [1, 0]], [[1, 0], [0, 2]]])"))
    assert g.degree == 9 and g.order == 72


def test_semidirect_rejects_non_action():
    c5 = cyclic(5)
    squaring = GroupHom(c5, c5, [ppow(c5.gens[0], 2)])  # order 4, not 2
    with pytest.raises(ActionNotWellDefined):
        semidirect(c5, cyclic(2), [squaring])


def _psl27_outer():
    """PSL(2, 7) and conjugation by x -> 1/x, an outer involution
    (determinant -1 is a non-square mod 7)."""
    p = psl2(7)
    w = mobius_perm(7, [[0, 1], [1, 0]])
    return p, GroupHom(p, p, [conj(g, w) for g in p.gens])


def _psl27_c7(c7_image):
    """Direct(PSL(2, 7), C7) and the automorphism acting by the outer
    involution on PSL(2, 7) and by c7_image on the generator of C7."""
    p, outer = _psl27_outer()
    c7 = cyclic(7)
    n, emb_p, emb_c, _split = direct_product(p, c7)
    auto = GroupHom(n, n, [emb_p(outer.image(g)) for g in p.gens]
                    + [emb_c(c7_image(c7.gens[0]))])
    return n, auto


def _psl27_s3():
    """PSL(2, 7) : S3 with S3 acting faithfully by conjugation through an
    S3 inside PSL(2, 7)."""
    p, _outer = _psl27_outer()
    s3 = perm_group(3, "(1 2)", "(1 2 3)")
    # images of (1 2) and (1 2 3); GroupHom rejects them unless they satisfy
    # the relations of S3
    inside = GroupHom(s3, p, [(1, 0, 3, 2, 6, 7, 4, 5), (0, 1, 6, 5, 3, 4, 7, 2)])
    return p, s3, [GroupHom(p, p, [conj(g, w) for g in p.gens])
                   for w in inside.gen_images]


def _semidirect_case(name):
    """(N, H, automorphism per H generator) of a well-defined N : H."""
    if name == "C7:C3":
        c7 = cyclic(7)
        return c7, cyclic(3), [GroupHom(c7, c7, [ppow(c7.gens[0], 2)])]
    if name == "C5:C4":
        c5 = cyclic(5)
        return c5, cyclic(4), [GroupHom(c5, c5, [ppow(c5.gens[0], 2)])]
    if name == "PSL27xC7:C2":
        n, auto = _psl27_c7(pinv)
        return n, cyclic(2), [auto]
    assert name == "PSL27:S3"
    return _psl27_s3()


# name -> degree of the realisation semidirect picks
SEMIDIRECT_DEGREES = {
    "C7:C3": 7 + 3,             # regular: |N| + deg H
    "C5:C4": 5 + 4,
    "PSL27xC7:C2": 2 * 15,      # induced: |H| deg N
    "PSL27:S3": 6 * 8,
}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_DEGREES))
def test_semidirect_conjugation_acts_as_the_automorphism(name):
    n, h, autos = _semidirect_case(name)
    sd = semidirect(n, h, autos)
    assert sd.group.degree == SEMIDIRECT_DEGREES[name]
    assert sd.group.order == n.order * h.order
    for hg, a in zip(h.gens, autos):
        k = sd.h_hom.image(hg)
        for g in n.gens:
            assert pmul(pmul(pinv(k), sd.n_hom.image(g)), k) \
                == sd.n_hom.image(a.image(g))


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_DEGREES))
def test_semidirect_realisations_agree(name):
    n, h, autos = _semidirect_case(name)
    seen = []
    for realise in (forge._induced_action, forge._regular_action):
        degree, n_perms, h_perms = realise(n, h, autos)
        g = PermGroup(degree, n_perms + h_perms)
        seen.append((g.order, sorted(g.conjugacy_classes().sizes),
                     sorted(character_table(g).degrees)))
    assert seen[0] == seen[1]
    assert seen[0][0] == n.order * h.order


def _cyclic_extension_case(name):
    """A cyclic extension, as ``cyclic_extension_build`` or the last step of
    a Gagola tower (``tower-<source>-<p>``) builds it."""
    if name.startswith("tower-"):
        primes, p = {"tower-S3-5": ((3, 2), 5), "tower-C6-2": ((3, 2), 2),
                     "tower-C2-3": ((2,), 3)}[name]
        level = _base_level()
        for q in primes:
            step = gagola_step(level, q, p)
            level = step.level
        return step.ext
    if name == "PSL27xC7:C2":
        n, auto = _psl27_c7(pinv)
        return cyclic_extension_build(n, auto, 2, n.identity)
    # C_m extended by t^n = g^x, t acting as g -> g^e
    m, e, n, x = {"S3": (3, -1, 2, 0), "C8": (4, 1, 2, 1), "Q8": (4, -1, 2, 2),
                  "C7:C3": (7, 2, 3, 0)}[name]
    c = cyclic(m)
    auto = GroupHom(c, c, [ppow(c.gens[0], e)])
    return cyclic_extension_build(c, auto, n, ppow(c.gens[0], x))


@pytest.mark.parametrize("name", ["C7:C3", "C8", "PSL27xC7:C2", "Q8", "S3",
                                  "tower-C2-3", "tower-C6-2", "tower-S3-5"])
def test_semidirect_maps_agree_with_the_homomorphism(name):
    # n_part and n_image are read off a cyclic extension's realization; the
    # verified n_hom is the reference
    ext = _cyclic_extension_case(name)
    n = ext.n_group
    for x in n.elements():
        image = ext.n_image(x)
        assert image == ext.n_hom.image(x)
        assert ext.n_part(image) == x
    assert sum(ext.n_part(g) is not None for g in ext.group.elements()) == n.order
    swaps = (tuple(b if x == a else a if x == b else x for x in range(n.degree))
             for a in range(n.degree) for b in range(a + 1, n.degree))
    with pytest.raises(NotASubgroup):
        ext.n_image(next(w for w in swaps if w not in n))


def test_semidirect_induced_path_rejects_non_action():
    # squaring on C7 has order 3, so C2 cannot act by it
    n, squaring = _psl27_c7(lambda c: ppow(c, 2))
    assert 2 * n.degree < n.order + 2          # the induced realisation
    with pytest.raises(ActionNotWellDefined):
        semidirect(n, cyclic(2), [squaring])
    # (1 2 3) cannot act by an involution
    p, outer = _psl27_outer()
    s3 = perm_group(3, "(1 2)", "(1 2 3)")
    with pytest.raises(ActionNotWellDefined):
        semidirect(p, s3, [outer, outer])
    # one involution given twice, acting two ways: the order count alone
    # cannot see this on the induced path, the Cayley-graph check does
    c2_twice = PermGroup(2, [(1, 0), (1, 0)])
    with pytest.raises(ActionNotWellDefined):
        semidirect(p, c2_twice, [outer, GroupHom(p, p, list(p.gens))])


_CHECKS_UNDER_O = """
import sys
from ctlab import forge
from ctlab.errors import VerificationFailed
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []

def expect(fn):
    try:
        fn()
    except VerificationFailed:
        raised.append(fn.__name__)

real_mat_group, real_coset_action = forge.mat_group, PermGroup.coset_action
forge.mat_group = lambda q, mats: forge.cyclic(2)
def sl2(): forge.sl2(5)
expect(sl2)
forge.mat_group = real_mat_group
forge.mobius_perm = lambda q, mat: tuple(range(q + 1))
def psl2(): forge.psl2(7)
expect(psl2)
PermGroup.coset_action = lambda self, sub: real_coset_action(self, self.subgroup([]))
def central_product_power(): forge.central_product_power(forge.dihedral(8), 2)
expect(central_product_power)
PermGroup.coset_action = real_coset_action
PermGroup.is_normal = lambda self, sub: True

class Outside(PermGroup):
    def __contains__(self, g):
        return False

s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
def kk_embedding(): forge.kk_embedding(s3, Outside(3, [(1, 2, 0)]))
expect(kk_embedding)
print(" ".join(raised))
"""


def test_forge_checks_survive_python_O():
    src = str(Path(forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["sl2", "psl2", "central_product_power",
                                  "kk_embedding"]


def _core_free_rebuilt(k_group):
    """The greedy choice of ``core_free_subgroup`` with each candidate
    subgroup built from scratch on its generators."""
    classes = k_group.conjugacy_classes().classes[1:]
    gens, a = [], k_group.subgroup([])
    for x in k_group.elements():
        if x in a:
            continue
        grown = k_group.subgroup(gens + [x])
        if not any(all(y in grown for y in c) for c in classes):
            gens, a = gens + [x], grown
    return gens


def test_core_free_subgroup_grows_the_rebuilt_choice(corpus, monkeypatch):
    # the tower levels are the groups K whose central product power a
    # tower step forms
    levels = []
    real = forge.core_free_subgroup
    monkeypatch.setattr(forge, "core_free_subgroup",
                        lambda k: levels.append(k) or real(k))
    gagola_tower(perm_group(3, "(1 2)", "(1 2 3)"), 5)
    gagola_tower(cyclic(6), 2)
    monkeypatch.undo()
    assert [k.order for k in levels] == [3, 54, 3, 27]
    for k in [g for _name, g in corpus] + levels:
        assert forge.core_free_subgroup(k) == _core_free_rebuilt(k)


def test_central_product_power_orders():
    hand = central_product_power(cyclic(2), 2)
    assert hand.group.order == 2
    d8 = central_product_power(dihedral(8), 2)
    assert d8.group.order == 32
    assert d8.group.center().order == 2
    q8 = central_product_power(quaternion(8), 3)
    assert q8.group.order == 128


def _check_realisation(name, k, q, cpp):
    # U acts on the cosets of A^q W, A core-free in K: lift is exact, W is
    # the kernel, U agrees with K^q / W, and the degree does not depend on
    # the order of K's generators
    qr, u = cpp.quotient, cpp.group
    # every w through the action map as a hom (image_of on all of U would
    # cost |U| [K^q : A^q W] coset canonicalisations)
    hom = GroupHom(qr.source, qr.group, qr.gen_images)
    for w in u.elements():
        assert hom.image(qr.lift(w)) == w, (name, q)
    for w in u.gens:
        assert qr.image_of(qr.lift(w)) == w, (name, q)
    for g in cpp.w_subgroup.gens:
        assert qr.image_of(g) == u.identity, (name, q)
    seen = (u.order, sorted(u.conjugacy_classes().sizes), u.center().order)
    expect = oracles.power_quotient_class_sizes(k.elements(), q)
    assert seen == (sum(expect), expect, expect.count(1)), (name, q)
    if u.order <= 600:      # the regular realisation has |U| points
        v = cpp.power_group.quotient(cpp.w_subgroup).group
        assert seen == (v.order, sorted(v.conjugacy_classes().sizes),
                        v.center().order), (name, q)
    rotated = PermGroup(k.degree, list(k.gens[1:]) + list(k.gens[:1]))
    assert central_product_power(rotated, q).group.degree == u.degree, \
        (name, q)


def test_central_product_power_invariants(corpus):
    # |U| = |K|^q / |Z|^(q-1); Z(U) iso Z(K) for nonabelian K
    for name, k in corpus:
        if k.order > 30 or k.order == 1:
            continue
        for q in (2, 3):
            if q == 3 and k.order > 10:
                continue   # |U| grows as |K|^3; the slow test below has these
            cpp = central_product_power(k, q)
            z = k.center()
            assert cpp.group.order == k.order ** q // z.order ** (q - 1), name
            zu = cpp.group.center()
            if not _is_abelian(k):
                assert zu.order == z.order, name
                assert zu.exponent() == z.exponent(), name
                assert _order_multiset(zu) == _order_multiset(z), name
            if k.order <= 16 and k.p_core(2).order == 1:
                assert cpp.group.p_core(2).order == 1, name
            _check_realisation(name, k, q, cpp)


@pytest.mark.slow
def test_central_product_power_realisation_cubes(corpus):
    # the realisation checks for q = 3 and 10 < |K| <= 30
    for name, k in corpus:
        if 10 < k.order <= 30:
            _check_realisation(name, k, 3, central_product_power(k, 3))


def test_central_product_power_small_degree():
    # [K : A]^q / |Z(K)|^(q-1) = 18^2 / 6, against 486 cosets of W
    k = direct_product(extraspecial(3, "+"), cyclic(2))[0]
    u = central_product_power(k, 2).group
    assert u.order == 486 and u.degree <= 54


def test_cyclic_extension_witnesses():
    c3 = cyclic(3)
    invmap = GroupHom(c3, c3, [pinv(c3.gens[0])])
    assert cyclic_extension_exists(c3, invmap, 2) == c3.identity
    c5 = cyclic(5)
    squaring = GroupHom(c5, c5, [ppow(c5.gens[0], 2)])
    assert cyclic_extension_exists(c5, squaring, 2) is None
    q8 = quaternion(8)
    i_elt = q8.gens[0]
    conj_i = GroupHom(q8, q8, [conj(g, i_elt) for g in q8.gens])
    w = cyclic_extension_exists(q8, conj_i, 2)
    assert w is not None and w in q8.center().elements()


def test_cyclic_extension_builds():
    c3 = cyclic(3)
    invmap = GroupHom(c3, c3, [pinv(c3.gens[0])])
    s3 = cyclic_extension_build(c3, invmap, 2, c3.identity)
    assert s3.group.conjugacy_classes().sizes == [1, 3, 2]
    c4 = cyclic(4)
    ident = GroupHom(c4, c4, [c4.gens[0]])
    c8 = cyclic_extension_build(c4, ident, 2, c4.gens[0])
    assert max(_order_multiset(c8.group)) == 8
    inv4 = GroupHom(c4, c4, [pinv(c4.gens[0])])
    q8 = cyclic_extension_build(c4, inv4, 2, ppow(c4.gens[0], 2))
    assert _order_multiset(q8.group) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_cyclic_extension_induced_action():
    # C7 : C3 with t g t^-1 = g^2 and t^3 = 1, on three copies of C7
    c7 = cyclic(7)
    squaring = GroupHom(c7, c7, [ppow(c7.gens[0], 2)])
    ext = cyclic_extension_build(c7, squaring, 3, c7.identity)
    assert (ext.group.degree, ext.group.order) == (21, 21)
    assert ext.group.center().order == 1
    # D8 on 4 points, alpha conjugation by the rotation r, t^2 = r^2
    d8 = dihedral(8)
    r = d8.gens[0]
    alpha = GroupHom(d8, d8, [conj(g, r) for g in d8.gens])
    x = ppow(r, 2)
    ext2 = cyclic_extension_build(d8, alpha, 2, x)
    assert (ext2.group.degree, ext2.group.order) == (8, 16)
    for e, a, n, w in ((ext, squaring, 3, c7.identity), (ext2, alpha, 2, x)):
        t, ti = e.t_element, pinv(e.t_element)
        assert ppow(t, n) == e.n_hom.image(w)
        for g in e.n_group.gens:
            assert pmul(pmul(t, e.n_hom.image(g)), ti) == e.n_hom.image(a.image(g))


# Class order follows point labels, so these generator tuples fix every
# digest downstream of the groups: sha256 of repr((degree, gens)), first 16
# hex digits.
GENERATOR_DIGESTS = {
    "Q8": "5212dbc5452443a0", "Q12": "8a9426f2262eee74",
    "Q16": "4118f9605ce29cf8", "Q32": "291a6cc5fe65e99e",
    "order54": "30b65ca18801c6ea", "order72": "f01d0874d6504d6d",
    "order864": "cb1e95d104969411",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_realisations_keep_generator_tuples(name):
    if name.startswith("Q"):
        g = quaternion(int(name[1:]))
    elif name == "order54":
        g = instances.order54_group().group
    else:
        g = getattr(instances, f"{name}_build")().group
    digest = hashlib.sha256(repr((g.degree, g.gens)).encode()).hexdigest()
    assert digest[:16] == GENERATOR_DIGESTS[name]


def test_cyclic_extension_rejects_bad_witness():
    c4 = cyclic(4)
    inv4 = GroupHom(c4, c4, [pinv(c4.gens[0])])
    with pytest.raises(InvalidWitness):
        cyclic_extension_build(c4, inv4, 2, c4.gens[0])


def test_wreath():
    w = wreath(cyclic(3), 2)
    assert w.group.order == 18 and w.base_group.order == 9
    w2 = wreath(perm_group(3, "(1 2)", "(1 2 3)"), 2)
    assert w2.group.order == 72


def test_kk_embedding_examples(s3):
    c4 = cyclic(4)
    c2 = c4.subgroup([ppow(c4.gens[0], 2)])
    phi, w = kk_embedding(c4, c2)
    assert w.group.order == 8
    assert phi.is_injective()
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    phi2, w2 = kk_embedding(s3, a3)
    assert w2.group.order == 18
    assert phi2.is_injective()
    # trivial quotient: the embedding is the identity-like map into M wr 1
    phi3, _ = kk_embedding(s3, s3)
    assert phi3.is_injective()


def test_kk_requires_normal(s4):
    with pytest.raises(NotNormal):
        kk_embedding(s4, s4.subgroup([parse_cycles("(1 2)", 4)]))


def test_kk_injective_across_corpus(corpus):
    for name, g in corpus:
        if g.order > 40 or g.order == 1:
            continue
        der = g.derived_subgroup()
        if der.order in (1, g.order):
            continue
        phi, _ = kk_embedding(g, der)
        assert phi.is_injective(), name
