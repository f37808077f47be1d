import hashlib
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ctlab import modrep
from ctlab.chartab import class_fusion, character_table, direct_product_table
from ctlab.cyclo import Cyclotomic, euler_phi, rational, zeta
from ctlab.errors import (AmbiguousBasicSet, MissingDefectGroup,
                          NonIntegralDecomposition, NotCentralPPrime,
                          VerificationFailed)
from ctlab.forge import cyclic, dihedral, psl2, sl2
from ctlab.modrep import (NilpotencyCertificate, brauer_data,
                          brauer_data_for_product,
                          brauer_kernel_trivial, block_partition,
                          cartan_determinant, faithful_brauer_values,
                          fong_block, ibr_fong_swan,
                          ibr_over_central, known_defect_group, lifts_of,
                          linear_characters, nilpotency_refute,
                          p_regular_classes, restriction)
from ctlab.permgroup import PermGroup, p_part
from ctlab.perms import parse_cycles


def test_p_regular_classes(s3_table, sl25_table):
    assert p_regular_classes(s3_table.classes, 3) == [0, 1]
    assert p_regular_classes(s3_table.classes, 2) == [0, 2]
    assert len(p_regular_classes(sl25_table.classes, 5)) == 5


def test_ibr_s3(s3_table):
    bd3 = brauer_data(s3_table, 3)
    assert bd3.ibr_degrees() == [1, 1]
    bd2 = brauer_data(s3_table, 2)
    assert bd2.ibr_degrees() == [1, 2]
    # chi_2 restricted to 3-regular classes = trivial + sign restrictions
    reg = bd3.regular
    chi2 = restriction(s3_table.values[2], reg)
    s = tuple(a + b for a, b in zip(bd3.ibr[0], bd3.ibr[1]))
    assert chi2 == s


def test_ibr_sl25_defining(sl25_table):
    bd = brauer_data(sl25_table, 5)
    assert bd.ibr_degrees() == [1, 2, 3, 4, 5]


def test_ibr_cross_check_symmetric_powers(sl25_table):
    from ctlab.instances import sl2_char_p_brauer

    bd_fs = brauer_data(sl25_table, 5)
    bd_sp = sl2_char_p_brauer(5)
    assert bd_fs.ibr == bd_sp.ibr


def test_ambiguous_basic_set_on_a5(a5):
    t = character_table(a5)
    with pytest.raises(AmbiguousBasicSet):
        ibr_fong_swan(t, 2)


def test_block_partition_s3(s3_table):
    blocks3 = block_partition(s3_table, 3)
    assert len(blocks3) == 1 and blocks3[0].defect == 1
    blocks2 = block_partition(s3_table, 2)
    assert len(blocks2) == 2
    assert blocks2[0].ordinary == (0, 1) and blocks2[0].defect == 1
    assert blocks2[1].ordinary == (2,) and blocks2[1].defect == 0


@pytest.mark.parametrize("value, message", [
    (rational(1), "not an algebraic integer"),     # omega = 3 * 1 / 2
    (zeta(4), "not an algebraic integer"),         # omega = 3 * i / 2
    (zeta(3), "conductor divisible by 3"),
])
def test_central_characters_must_be_integral(s3_table, value, message):
    # the degree-2 row of S3, tampered on the class of the 3 transpositions
    k = s3_table.classes.element_orders.index(2)
    i = s3_table.degrees.index(2)
    values = list(s3_table.values)
    values[i] = values[i][:k] + (value,) + values[i][k + 1:]
    tampered = SimpleNamespace(values=values, degrees=s3_table.degrees,
                               classes=s3_table.classes)
    assert modrep.central_character_residues(s3_table, 3)
    with pytest.raises(VerificationFailed, match=message):
        modrep.central_character_residues(tampered, 3)


def _coordinates(a, n):
    """a's integer coordinates on the power basis of Q(zeta_n)."""
    return modrep._flatten([(a, zeta(n))])[0][:euler_phi(n)]


@lru_cache(maxsize=None)
def _omega_powers(p, n):
    """omega^0, ..., omega^(n-1) in F_{p^m}, m = ord_n(p), from the
    enumeration oracle."""
    return oracles.field_omega_powers(p, n)[1]


def _vanishing(coords, n, p):
    """The k prime to n at which sum c_i zeta_n^i maps to 0 in F_{p^m}
    under zeta_n -> omega^k: one prime over p per Frobenius orbit of k."""
    powers = _omega_powers(p, n)
    out = set()
    for k in range(1, n):
        if gcd(k, n) == 1:
            image = [0] * len(powers[0])
            for i, c in enumerate(coords):
                image = [(a + c * b) % p
                         for a, b in zip(image, powers[k * i % n])]
            if not any(image):
                out.add(k)
    return out


def test_an_element_in_one_prime_over_2_only():
    a = 1 + zeta(7) + zeta(7, 2) + zeta(7, 4)     # (1 + sqrt(-7)) / 2
    assert a * a - a == rational(-2)
    coords = _coordinates(a, 7)
    assert coords == (1, 1, 1, 0, 1, 0)
    assert _vanishing(coords, 7, 2) == {1, 2, 4}


# (n, p) with p prime to n and ord_n(p) <= 6
UNRAMIFIED = [(7, 2), (5, 2), (9, 2), (15, 2), (13, 3), (8, 3), (11, 3),
              (12, 5), (21, 5)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(UNRAMIFIED),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=21,
                max_size=21),
       st.booleans())
def test_coordinates_mod_p_decide_every_prime_over_p(case, coeffs, times_p):
    # p is unramified in Q(zeta_n), so pZ[zeta_n] is the intersection of the
    # primes over p: a's coordinates are all 0 mod p exactly when a vanishes
    # under every zeta_n -> omega^k
    n, p = case
    a = Cyclotomic.from_expansion(n, dict(enumerate(coeffs[:n])))
    if times_p:
        a = a * p
    assert len(_omega_powers(p, n)[0]) <= 6
    coords = _coordinates(a, n)
    units = {k for k in range(1, n) if gcd(k, n) == 1}
    assert (all(c % p == 0 for c in coords)
            == (_vanishing(coords, n, p) == units))


def test_decomposition_s3(s3_table):
    bd = brauer_data(s3_table, 3)
    rows = {tuple(r) for r in bd.decomposition}
    assert rows == {(1, 0), (0, 1), (1, 1)}
    assert cartan_determinant(bd.cartan) == 3
    bd2 = brauer_data(s3_table, 2)
    assert bd2.decomposition[2] == [0, 1]   # defect-0 row is a unit vector


def test_c4_principal_block(   ):
    c4 = cyclic(4)
    bd = brauer_data(character_table(c4), 2)
    assert [r[0] for r in bd.decomposition] == [1, 1, 1, 1]
    assert len(bd.blocks) == 1
    assert len(lifts_of(bd, 0)) == 4
    d = c4.sylow_subgroup(2)
    assert d.order // d.derived_subgroup().order == 4


def test_sl25_blocks_p3(sl25_table):
    bd = brauer_data(sl25_table, 3)
    assert bd.ibr_degrees() == [1, 2, 2, 3, 3, 4, 6]
    stats = sorted((b.k(), b.l(), b.defect) for b in bd.blocks)
    assert stats == [(1, 1, 0), (1, 1, 0), (1, 1, 0), (3, 2, 1), (3, 2, 1)]


def test_block_sums_and_cartan_on_corpus(corpus_tables):
    for name, g, t in corpus_tables:
        for p in (2, 3, 5):
            bd = brauer_data(t, p)
            assert sum(b.k() for b in bd.blocks) == len(t), name
            assert sum(b.l() for b in bd.blocks) == len(bd.ibr), name
            assert all(b.l() >= 1 for b in bd.blocks), name
            assert all(all(x >= 0 for x in row) for row in bd.decomposition)
            det = cartan_determinant(bd.cartan)
            assert det == p_part(det, p), (name, p, det)
            if g.order % p != 0:
                assert all(b.k() == 1 and b.l() == 1 and b.defect == 0
                           for b in bd.blocks), name
                reg = bd.regular
                rows = {restriction(r, reg) for r in t.values}
                assert rows == set(bd.ibr), name


def test_ibr_square_nonsingular(corpus_tables):
    for name, g, t in corpus_tables:
        for p in (2, 3, 5):
            bd = brauer_data(t, p)
            assert len(bd.ibr) == len(bd.regular), name
            assert oracles.linearly_independent(bd.ibr), name


def test_standin_k2_blocks(standin_k2):
    # order 2592 and 117 classes at p = 3: one pass over the restrictions
    # and the p-regular class sums take well under the 1 s bound
    table = character_table(standin_k2.group)
    start = time.perf_counter()
    bd = brauer_data(table, 3)
    elapsed = time.perf_counter() - start
    assert sorted(((b.k(), b.l()) for b in bd.blocks if b.defect == 4),
                  reverse=True) == [(81, 16), (36, 1)]
    assert elapsed < 1.0, elapsed


def test_fong_block_d8_p5(d8, d8_table):
    bd = brauer_data(d8_table, 5)
    z = d8.center()
    lams = linear_characters(z)
    blk = fong_block(bd, z, lams[1])
    assert (blk.k(), blk.l(), blk.defect) == (1, 1, 0)


def test_fong_block_requires_central_p_prime(s3, s3_table):
    bd = brauer_data(s3_table, 3)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    with pytest.raises(NotCentralPPrime):
        fong_block(bd, a3, linear_characters(a3)[0])


def test_fong_block_order72(build72):
    g = build72.group
    t = character_table(g)
    bd = brauer_data(t, 3)
    blk = fong_block(bd, build72.z_sub, build72.lam)
    assert any(b is blk for b in bd.blocks)
    assert (blk.k(), blk.l(), blk.defect, bd.is_maximal_defect(blk)) == (6, 1, 2, True)
    assert known_defect_group(bd, blk).order == 9
    # IBr(B) via the decomposition matrix agrees with the Clifford route
    assert blk.brauer == tuple(ibr_over_central(bd, build72.z_sub, build72.lam))


def test_nilpotency_refutation_order72(build72):
    # D is named from the block's defect alone, so the answer does not
    # depend on call order: a fresh BrauerData refutes, and so it does
    # after fong_block has run on it
    bd = brauer_data(character_table(build72.group), 3)
    blk = next(b for b in bd.blocks if b.l() == 1)
    res = nilpotency_refute(blk, bd)
    assert res.refuted
    assert "k(B) = 6" in res.reason and "k(D) = 9" in res.reason
    assert fong_block(bd, build72.z_sub, build72.lam) is blk
    assert nilpotency_refute(blk, bd) == res


def test_check_order72_computes_one_sylow_subgroup(build72, monkeypatch):
    # nilpotency_refute and the k(D) count share the BrauerData's Sylow
    # subgroup, so the check computes it once (twice before it was kept)
    from ctlab.reproduce import check_order72

    calls = []
    real = PermGroup.sylow_subgroup
    monkeypatch.setattr(PermGroup, "sylow_subgroup",
                        lambda self, p: calls.append(p) or real(self, p))
    result = check_order72()
    assert result["status"] == "pass" and result["k_defect_group"] == 9
    assert calls == [3]


def test_nilpotency_defect_zero_not_refuted(s3_table):
    bd = brauer_data(s3_table, 2)
    blk = bd.blocks[1]
    assert blk.defect == 0
    assert known_defect_group(bd, blk).order == 1
    res = nilpotency_refute(blk, bd)
    assert not res.refuted and res.reason == "undetermined"


def test_nilpotency_needs_data():
    # D12 = S3 x C2 at p = 2: the block over the degree-2 character of S3
    # has k = 2, l = 1 and defect 1, neither 0 nor maximal (2)
    bd = brauer_data(character_table(dihedral(12)), 2)
    blk = next(b for b in bd.blocks if b.defect == 1)
    assert (blk.k(), blk.l()) == (2, 1) and not bd.is_maximal_defect(blk)
    assert known_defect_group(bd, blk) is None
    with pytest.raises(MissingDefectGroup):
        nilpotency_refute(blk, bd)
    cert = NilpotencyCertificate(2, "a 2-group")
    res = nilpotency_refute(blk, bd, certificate=cert)
    assert not res.refuted and res.reason == "undetermined"


def test_nilpotency_certificate_route(s3_table):
    bd = brauer_data(s3_table, 2)
    blk = bd.blocks[1]   # l = 1
    cert = NilpotencyCertificate(6, "test quotient")
    res = nilpotency_refute(blk, bd, certificate=cert)
    assert res.refuted and "not a 2-group" in res.reason


def test_lifts_defect_zero(sl25_table):
    bd = brauer_data(sl25_table, 5)
    # the Steinberg-like degree-5 character is alone in its block
    blk = next(b for b in bd.blocks if b.defect == 0)
    phi = blk.brauer[0]
    assert len(lifts_of(bd, phi)) == 1


def test_ibr_order(s3_table):
    # p coprime to |G|: Irr in table order (trivial, sign, 2); otherwise
    # _ibr_key order, degree then values, so the sign comes first at p = 3
    one, minus, two, zero = rational(1), rational(-1), rational(2), rational(0)
    bd5 = brauer_data(s3_table, 5)
    assert bd5.ibr == [(one, one, one), (one, minus, one), (two, zero, minus)]
    assert bd5.ibr == [tuple(row) for row in s3_table.values]
    bd3 = brauer_data(s3_table, 3)
    assert bd3.regular == [0, 1]
    assert bd3.ibr == [(one, minus), (one, one)]


def test_brauer_kernel(s3_table):
    bd = brauer_data(s3_table, 2)
    # the degree-2 Brauer character is faithful (S3 embeds in GL(2,2))
    i2 = bd.ibr_degrees().index(2)
    assert brauer_kernel_trivial(bd, i2)
    i1 = bd.ibr_degrees().index(1)
    assert not brauer_kernel_trivial(bd, i1)   # the trivial Brauer character


def test_brauer_kernel_sees_p_core():
    # for C4 at p = 2 the trivial Brauer character has the whole group as
    # kernel even though only the identity class is 2-regular
    c4 = cyclic(4)
    bd = brauer_data(character_table(c4), 2)
    assert not brauer_kernel_trivial(bd, 0)


def test_faithful_values_need_no_p_core_of_a_p_prime_group(s3_table,
                                                           monkeypatch):
    # O_5(S3) = 1 without a look: the rule reads the values alone
    monkeypatch.setattr(PermGroup, "p_core",
                        lambda self, p: pytest.fail("p_core called"))
    rows = {row[0].as_rational(): tuple(row) for row in s3_table.values}
    assert faithful_brauer_values(s3_table.group, rows[2], 5)
    assert not faithful_brauer_values(s3_table.group, rows[1], 5)


@pytest.mark.parametrize("gen, p, expected", [
    ("(1 2)", 3, (3, 1)),
    ("(1 2)", 2, (3, 0)),
    ("(1 2 3)", 2, (2, 2)),
])
def test_brauer_induce_gives_the_permutation_character(s3, s3_table, gen, p,
                                                        expected):
    # the trivial Brauer character of <gen> induced to S3 is the permutation
    # character on its cosets, read on S3's p-regular classes; at p = 2 the
    # class of (1 2) is p-singular, and S3's 2-regular classes are its first
    # and third
    sub = s3.subgroup([parse_cycles(gen, 3)])
    sub_cd = sub.conjugacy_classes()
    sub_regular = p_regular_classes(sub_cd, p)
    induced = modrep.brauer_induce(
        [rational(1)] * len(sub_regular), sub_cd, sub_regular,
        s3_table.classes, class_fusion(sub, s3),
        p_regular_classes(s3_table.classes, p))
    assert induced == tuple(map(rational, expected))


def test_product_brauer_tensor(sl25_table):
    tp, pdata = direct_product_table(sl25_table, character_table(cyclic(3)))
    bd_a = brauer_data(sl25_table, 5)
    bd_b = brauer_data(character_table(cyclic(3)), 5)
    bdp = brauer_data_for_product(tp, bd_a, bd_b, pdata)
    assert sorted(bdp.ibr_degrees()) == sorted(
        d for d in bd_a.ibr_degrees() for _ in range(3))
    assert sum(b.k() for b in bdp.blocks) == len(tp)


def test_tensor_route_matches_deletion_on_small_product(s3_table):
    tc2 = character_table(cyclic(2))
    tp, pdata = direct_product_table(s3_table, tc2)
    bd_a = brauer_data(s3_table, 3)
    bd_b = brauer_data(tc2, 3)
    tensor = brauer_data_for_product(tp, bd_a, bd_b, pdata)
    deletion = brauer_data(tp, 3)
    assert tensor.ibr == deletion.ibr
    assert tensor.decomposition == deletion.decomposition


def _int_rows(*rows):
    return [tuple(rational(x) for x in row) for row in rows]


def _stub_table(*rows):
    """A table with the given integer rows whose classes are all p-regular
    for p = 2, with a group order that sends it through the pass."""
    return SimpleNamespace(
        values=_int_rows(*rows), group=SimpleNamespace(order=2),
        classes=SimpleNamespace(element_orders=[1] * len(rows[0])))


def test_independent_over_q_though_dependent_mod_ell():
    rows = _int_rows((1, 0), (1, modrep.ELL))
    echelon = modrep._ModEchelon()
    vecs = modrep._flatten(rows)
    assert echelon.add(vecs[0]) is None
    assert echelon.add(vecs[1]) == [1]                  # in the span mod ELL
    assert oracles.linearly_independent(rows)           # but not over Q
    assert not oracles.linearly_independent(_int_rows((1, 2), (2, 4)))
    assert oracles.linearly_independent(_int_rows((1, 2), (2, 5)))
    with pytest.raises(VerificationFailed, match="not in the span"):
        ibr_fong_swan(_stub_table((1, 0), (1, modrep.ELL)), 2)


@pytest.mark.parametrize("target, smaller", [
    ((2, modrep.ELL), [(1, 0)]),        # 2 (1, 0) mod ELL only
    ((2, 1), [(1, 1), (1, -1)]),        # 3/2 (1, 1) + 1/2 (1, -1) over Q
    ((2, 0), [(1, 2), (1, 1)]),         # 4 (1, 1) - 2 (1, 2): a negative term
])
def test_span_mod_ell_alone_deletes_nothing(target, smaller):
    # the target is in the span of the smaller rows mod ELL, and no
    # non-negative integer combination of them: a combination over Q that
    # is fractional or negative means a Brauer character does not lift,
    # none at all that the test mod ELL was wrong
    rows = _int_rows(target, *smaller)
    error = (VerificationFailed if oracles.linearly_independent(rows)
             else AmbiguousBasicSet)
    with pytest.raises(error):
        ibr_fong_swan(_stub_table(target, *smaller), 2)


def test_deletion_witness(s3_table):
    # (2, 0) = (1, 1) + (1, -1): dropped, with its coefficients as witness
    # and as its row of the decomposition matrix; a kept row has a unit row
    table = _stub_table((2, 0), (1, 1), (1, -1))
    ibr, regular, dec = ibr_fong_swan(table, 2)
    assert ibr == sorted(_int_rows((1, 1), (1, -1)), key=modrep._ibr_key)
    assert regular == [0, 1]
    assert dec == [[1, 1]] + [[int(row == phi) for phi in ibr]
                              for row in table.values[1:]]
    echelon = modrep._ModEchelon()
    assert echelon.add((1, 1)) is None and echelon.add((1, -1)) is None
    assert echelon.add((2, 0)) == [1, 1]
    # 5 does not divide |S3|: IBr is Irr and the matrix is the identity
    ibr, _, dec = ibr_fong_swan(s3_table, 5)
    assert ibr == list(s3_table.values)
    assert dec == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# a wrong coefficient: the exact solve finds the combination it missed
_WRONG_COEFFICIENT = lambda ech, coeffs: coeffs and [c + 1 for c in coeffs]
# an echelon that drops every kept row: the count check
_DROPPED_ROWS = lambda ech, coeffs: coeffs or ech.rows.pop() and None


@pytest.mark.parametrize("corrupt", [_WRONG_COEFFICIENT, _DROPPED_ROWS])
def test_corrupted_deletion_witness_raises(s3_table, monkeypatch, corrupt):
    message = {_WRONG_COEFFICIENT: "missed",
               _DROPPED_ROWS: "3 restrictions kept for 2"}[corrupt]
    real = modrep._ModEchelon.add
    monkeypatch.setattr(modrep._ModEchelon, "add",
                        lambda self, vec: corrupt(self, real(self, vec)))
    with pytest.raises(VerificationFailed, match=message):
        ibr_fong_swan(s3_table, 3)


small_square = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                                min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(small_square)
@example([[0, 1], [1, 0]])                     # one row swap
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])    # a swap at the first pivot
@example([[0, 1, 2], [0, 3, 4], [5, 6, 7]])    # two swaps
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1]])    # singular: dependent rows
@example([[2, 4], [1, 2]])                     # singular after one step
@example([[0, 0], [0, 0]])
def test_cartan_determinant_matches_leibniz(m):
    assert cartan_determinant(m) == oracles.leibniz_det(m)


def test_integer_gauss_jordan_contract():
    # [[2, 1 | 5], [4, 3 | 11]]: x = (2, 1), det 2
    rows, pivots, det = modrep.integer_gauss_jordan([[2, 1, 5], [4, 3, 11]], 2)
    assert pivots == [0, 1] and det == 2
    assert rows == [[2, 0, 4], [0, 2, 2]]           # D = 2 on each pivot row
    rows, pivots, det = modrep.integer_gauss_jordan([[0, 1], [1, 0]], 2)
    assert pivots == [0, 1] and det == -1             # one row swap
    rows, pivots, det = modrep.integer_gauss_jordan([[1, 2, 3], [2, 4, 7]], 3)
    assert pivots == [0, 2] and det == 0              # column 1 skipped
    assert rows[1] == [0, 0, 1] and rows[0][1] == 2
    assert modrep.integer_gauss_jordan([], 0) == ([], [], 1)
    with pytest.raises(VerificationFailed):
        modrep.integer_gauss_jordan([[1, 2], [3]], 1)


def test_cartan_determinant_rejects_non_integral():
    from fractions import Fraction

    with pytest.raises(VerificationFailed):
        cartan_determinant([[Fraction(1, 2)]])


@pytest.mark.parametrize("matrix", [[[2, 1, 0], [1, 2]], [[1], [2]], [[1, 2]]])
def test_cartan_determinant_rejects_non_square(matrix):
    with pytest.raises(VerificationFailed, match="not square"):
        cartan_determinant(matrix)


@pytest.mark.parametrize("ibr, chi, message", [
    ([(2,)], (1,), "coefficient 1/2"),                  # non-integral
    ([(1, 0), (0, 1)], (2, -1), "coefficient -1"),      # negative
    ([(1, 0)], (0, 1), "target outside the span"),
    ([(1, 2), (2, 4)], (1, 2), "dependent basis"),
])
def test_decomposition_matrix_error_paths(ibr, chi, message):
    table = SimpleNamespace(values=_int_rows(chi))
    with pytest.raises(NonIntegralDecomposition, match=message):
        modrep.decomposition_matrix(table, _int_rows(*ibr), range(len(chi)))


def test_decomposition_matrix_over_a_non_unit_pivot():
    ibr = _int_rows((2, 1), (1, 3))                 # determinant 5
    targets = _int_rows((3, 4), (2, 1), (4, 7))
    assert modrep._solve_in_basis(ibr, targets) == (5, [[5, 5], [5, 0], [5, 10]])
    table = SimpleNamespace(values=targets)
    assert modrep.decomposition_matrix(table, ibr, range(2)) == \
        [[1, 1], [1, 0], [1, 2]]


# -- IBr golden: the Fong-Swan pass's output, frozen as sha256 digests -----

IBR_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                          "ibr_digests.json")
IBR_PRIMES = (2, 3, 5, 7)


def _ibr_golden_groups():
    from conftest import corpus_groups
    from ctlab.instances import (order72_build, order720_build,
                                 order864_build, order3960_build)

    return corpus_groups() + [
        ("SL(2,5)", sl2(5)), ("PSL(2,7)", psl2(7)),
        ("order72", order72_build().group),
        ("order720", order720_build().group),
        ("order864", order864_build().group),
        ("order3960", order3960_build().group)]


# SL(2, q) in its defining characteristic, from the symmetric powers
SL2_CHAR_P = (2, 3, 5, 7, 11, 13)


def _rows_digest(ibr, regular):
    """sha256 of the IBr value tuples and the regular class indices."""
    blob = json.dumps({"ibr": [[v.serialize() for v in row] for row in ibr],
                       "regular": list(regular)}, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _ibr_digest(table, p):
    """The digest of the Fong-Swan pass's output, or the name of the error
    it raises."""
    try:
        ibr, regular, _ = ibr_fong_swan(table, p)
    except AmbiguousBasicSet:
        return "AmbiguousBasicSet"
    return _rows_digest(ibr, regular)


def ibr_digests():
    from ctlab.instances import sl2_char_p_brauer

    out = {f"{name} p={p}": _ibr_digest(t, p)
           for name, g in _ibr_golden_groups()
           for t in [character_table(g)] for p in IBR_PRIMES}
    for q in SL2_CHAR_P:
        bd = sl2_char_p_brauer(q)
        out[f"SL(2,{q}) symmetric powers p={q}"] = _rows_digest(bd.ibr,
                                                                bd.regular)
    return out


def test_ibr_matches_golden():
    with open(IBR_GOLDEN) as fh:
        golden = json.load(fh)
    assert ibr_digests() == golden
    assert sorted(k for k, v in golden.items() if v == "AmbiguousBasicSet") \
        == ["PSL(2,7) p=7", "order720 p=5"]


# -- block golden: ordinary index tuples and defects of every block ---------

BLOCK_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                            "block_partitions.json")


def block_partitions():
    return {f"{name} p={p}": [[list(b.ordinary), b.defect]
                              for b in block_partition(t, p)]
            for name, g in _ibr_golden_groups()
            for t in [character_table(g)] for p in IBR_PRIMES}


def write_block_golden(partitions):
    """One line per pair, so a changed partition shows as a one-line diff."""
    lines = [f" {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in sorted(partitions.items())]
    with open(BLOCK_GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def test_blocks_match_golden():
    with open(BLOCK_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 4 * len(_ibr_golden_groups())
    assert block_partitions() == golden


# -- decomposition golden: decomposition matrix and Cartan determinant ------

DECOMPOSITION_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                                    "decomposition_digests.json")


def _decomposition_digest(table, p):
    """sha256 of the decomposition matrix that the Fong-Swan pass reads off,
    checked against the exact solve in its IBr basis, and of the Cartan
    determinant, or the name of the error on the way."""
    try:
        ibr, regular, dec = ibr_fong_swan(table, p)
    except AmbiguousBasicSet:
        return "AmbiguousBasicSet"
    assert dec == modrep.decomposition_matrix(table, ibr, regular), \
        (table.group.order, p)
    cartan = [[sum(row[a] * row[b] for row in dec) for b in range(len(ibr))]
              for a in range(len(ibr))]
    blob = json.dumps({"decomposition": dec,
                       "cartan_det": cartan_determinant(cartan)},
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def decomposition_digests():
    return {f"{name} p={p}": _decomposition_digest(t, p)
            for name, g in _ibr_golden_groups()
            for t in [character_table(g)] for p in IBR_PRIMES}


def test_decomposition_matches_golden():
    with open(DECOMPOSITION_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 4 * len(_ibr_golden_groups())
    assert decomposition_digests() == golden


def _order3960_table():
    from ctlab.instances import order3960_build

    return character_table(order3960_build().group)


def test_order3960_blocks_at_p7_are_defect_zero():
    # 7 does not divide 3960: every character is alone in a block of defect 0
    table = _order3960_table()
    assert table.group.order % 7
    blocks = block_partition(table, 7)
    assert [b.ordinary for b in blocks] == [(i,) for i in
                                            range(len(table.values))]
    assert all(b.defect == 0 for b in blocks)


def test_order3960_blocks_at_p5_in_time():
    table = _order3960_table()
    started = time.perf_counter()
    bd = brauer_data(table, 5)        # checks each IBr lies in one block
    assert time.perf_counter() - started < 10.0
    assert sum(b.k() for b in bd.blocks) == len(table.values)
    assert sum(b.l() for b in bd.blocks) == len(bd.ibr)
    assert all(b.k() == b.l() == 1 for b in bd.blocks if b.defect == 0)


_ARGUMENT_CHECKS_UNDER_O = """
import sys
from ctlab.chartab import character_table
from ctlab.errors import ClassDataMismatch, NoSuchBlock
from ctlab.forge import dihedral
from ctlab.modrep import (brauer_data, brauer_data_without_table, lifts_of,
                          linear_characters)
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []

def expect(name, error, fn):
    try:
        fn()
    except error:
        raised.append(name)

bd = brauer_data(character_table(PermGroup(3, [(1, 0, 2), (1, 2, 0)])), 2)
bare = brauer_data_without_table(bd.group, bd.classes, 2, bd.ibr)
expect("lifts_of", NoSuchBlock, lambda: lifts_of(bare, 0))
expect("linear_characters", ClassDataMismatch,
       lambda: linear_characters(dihedral(8)))
print(" ".join(raised))
"""


def test_argument_checks_survive_python_O():
    src = str(Path(modrep.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _ARGUMENT_CHECKS_UNDER_O],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         timeout=120)
    assert out.stdout.split() == ["lifts_of", "linear_characters"]


if __name__ == "__main__":
    # regenerate: PYTHONPATH=src python tests/test_modrep.py
    with open(IBR_GOLDEN, "w") as fh:
        json.dump(ibr_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    write_block_golden(block_partitions())
    with open(DECOMPOSITION_GOLDEN, "w") as fh:
        json.dump(decomposition_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
