import pytest

from ctlab.centraltype import (central_type_report, fully_ramified_search,
                               humphreys_equal_degree, is_central_type,
                               is_p_central_type, over_count_vs_quotient)
from ctlab.chartab import character_table
from ctlab.errors import NotAHomomorphism, NotCentral, NotNormal
from ctlab.forge import cyclic, extraspecial
from ctlab.homs import GroupHom
from ctlab.modrep import brauer_data, linear_characters
from ctlab.permgroup import direct_product, p_prime_part
from ctlab.perms import commutator, parse_cycles, pinv, pmul


def test_is_central_type_basics(s3_table, d8_table):
    assert not is_central_type(s3_table).is_central_type
    rep = is_central_type(d8_table)
    assert rep.is_central_type and d8_table.degrees[rep.witness] == 2
    # abelian groups are of central type through a linear character
    assert is_central_type(character_table(cyclic(6))).is_central_type
    assert is_central_type(character_table(extraspecial(3, "+"))).is_central_type


def test_p_central_type_coincides_for_coprime_p(corpus_tables):
    for name, g, t in corpus_tables:
        for p in (7, 11):
            if g.order % p == 0:
                continue
            bd = brauer_data(t, p, with_blocks=False)
            mod = is_p_central_type(bd)
            ordinary = is_central_type(t)
            assert mod.is_p_central_type == ordinary.is_central_type, name
            if ordinary.is_central_type:
                assert (bd.ibr_degrees()[mod.modular_witness]
                        == t.degrees[ordinary.witness]), name


def test_s3_not_3_central(s3_table):
    bd = brauer_data(s3_table, 3, with_blocks=False)
    assert not is_p_central_type(bd).is_p_central_type


def test_order54_is_2_central(build54):
    h = build54.group
    bd = brauer_data(character_table(h), 2, with_blocks=False)
    rep = is_p_central_type(bd)
    assert rep.is_p_central_type
    assert bd.ibr_degrees()[rep.modular_witness] == 3
    assert p_prime_part(h.order // h.center().order, 2) == 9


def test_order54_involutions_are_the_lifts_of_minus_one():
    # order54_group tries only the pairs in x^-1 Z x y^-1 Z; over every
    # noncentral pair (a, b) with [a, b] = z, the maps x -> a, y -> b that
    # are involutory automorphisms fixing Z are exactly those nine
    n27 = extraspecial(3, "+")
    x, y = n27.gens
    z = commutator(x, y)
    centre = n27.center().elements()
    noncentral = [e for e in n27.elements() if e not in centre]
    found = set()
    for a in noncentral:
        for b in noncentral:
            if commutator(a, b) != z:
                continue
            try:
                alpha = GroupHom(n27, n27, [a, b])
            except NotAHomomorphism:
                continue
            if (alpha.is_automorphism() and (a, b) != (x, y)
                    and alpha.image(a) == x and alpha.image(b) == y):
                found.add((a, b))
    lifts = {(pmul(pinv(x), c), pmul(pinv(y), d))
             for c in centre for d in centre}
    assert len(lifts) == 9 and found == lifts


def test_fully_ramified_d8_p7(d8, d8_table):
    bd = brauer_data(d8_table, 7, with_blocks=False)
    found = fully_ramified_search(bd, d8.center())
    assert found == [(1, 2, 4)]   # the nontrivial lambda, e = 2


def test_fully_ramified_requires_central(s3, s3_table):
    bd = brauer_data(s3_table, 2, with_blocks=False)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    with pytest.raises(NotCentral):
        fully_ramified_search(bd, a3)


def test_solvable_p_central_implies_ramified(corpus_tables):
    # the equivalence for p-solvable groups: a p-central-type witness forces
    # a fully ramified central Brauer character
    for name, g, t in corpus_tables:
        if not g.is_solvable():
            continue
        for p in (2, 3, 5):
            bd = brauer_data(t, p, with_blocks=False)
            rep = is_p_central_type(bd)
            if rep.is_p_central_type:
                found = fully_ramified_search(bd, g.center())
                assert found, (name, p)
                for (_li, e, phi) in found:
                    assert e == bd.ibr_degrees()[phi]
                    assert e * e == p_prime_part(
                        g.order // g.center().order, p), (name, p)


def test_central_type_implies_solvable_on_corpus(corpus_tables):
    for name, g, t in corpus_tables:
        if is_central_type(t).is_central_type:
            assert g.is_solvable(), name


def test_humphreys_examples(s3, s3_table):
    triv = s3.subgroup([])
    t_triv = character_table(triv)
    assert not humphreys_equal_degree(s3_table, triv, t_triv, 0)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    ta3 = character_table(a3)
    # nontrivial lambda on A3 induces irreducibly to the degree-2 character
    assert humphreys_equal_degree(s3_table, a3, ta3, 1)
    with pytest.raises(NotNormal):
        humphreys_equal_degree(
            s3_table, s3.subgroup([parse_cycles("(1 2)", 3)]),
            character_table(s3.subgroup([parse_cycles("(1 2)", 3)])), 0)


def test_humphreys_fully_ramified_is_equal_degree(d8, d8_table):
    z = d8.center()
    tz = character_table(z)
    assert humphreys_equal_degree(d8_table, z, tz, 1)


def test_over_count_vs_quotient(d8, d8_table):
    z = d8.center()
    lams = linear_characters(z)
    triv = over_count_vs_quotient(d8_table, z, lams[0])
    assert triv == {"count": 4, "k_quotient": 4, "all_good": True}
    ram = over_count_vs_quotient(d8_table, z, lams[1])
    assert ram == {"count": 1, "k_quotient": 4, "all_good": False}


def test_over_count_split_extension(s3):
    g, emb_a, _emb_b, _ = direct_product(cyclic(3), s3)
    tg = character_table(g)
    zc3 = g.subgroup([emb_a(cyclic(3).gens[0])])
    lams = linear_characters(zc3)
    out = over_count_vs_quotient(tg, zc3, lams[1])
    assert out["all_good"] and out["count"] == 3


def test_report_serialization(d8, d8_table):
    bd = brauer_data(d8_table, 7, with_blocks=False)
    rep = central_type_report(d8_table, bd)
    data = rep.to_json()
    assert data["ordinary"]["is_central_type"]
    assert data["modular"]["fully_ramified"] == [{"lambda": 1, "e": 2, "phi": 4}]
