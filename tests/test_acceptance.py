"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

This file sorts first in the collection order, so every named construction
is built cold here and the stated runtime ceilings are measured honestly;
later test modules reuse the warm per-process caches.
"""

import time
from contextlib import contextmanager

import pytest

import oracles
from ctlab.centraltype import fully_ramified_search, is_p_central_type
from ctlab.chartab import character_table, verify_orthogonality
from ctlab.errors import DegenerateStep
from ctlab.forge import cyclic, quaternion
from ctlab.gagola import gagola_tower
from ctlab.modrep import (brauer_data, fong_block, lifts_of,
                          nilpotency_refute, restriction)
from ctlab.permgroup import group_from_generators, p_part
from ctlab.perms import parse_cycles


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} "
          f"({elapsed:.1f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds


def test_criterion_01_order72_blocks():
    with criterion(1, "order-72 example", 5):
        from ctlab.instances import order72_build

        build = order72_build()
        g = build.group
        assert g.order == 72
        bd = brauer_data(character_table(g), 3)
        assert len(bd.blocks) == 2
        fb = fong_block(bd, build.z_sub, build.lam)
        assert fb.l == 1 and fb.defect == 2
        # k(B) precomputed by the brute-force oracle run: 6; k(C_3^2) = 9
        assert fb.k == 6
        d = fb.block.defect_group
        assert len(oracles.conjugacy_partition(
            oracles.closure(d.degree, d.gens))) == 9
        res = nilpotency_refute(fb.block, bd)
        assert res.refuted


def test_criterion_02_order864_plength():
    with criterion(2, "order-864 example", 120):
        from ctlab.instances import order864_build

        build = order864_build()
        g = build.group
        assert g.order == 864
        assert g.p_length(2) == 2
        bd = brauer_data(character_table(g), 2)
        fb = fong_block(bd, build.z_sub, build.lam)
        assert fb.maximal_defect and fb.l == 1
        res = nilpotency_refute(fb.block, bd, certificate=build.certificate)
        assert res.refuted


def test_criterion_03_order720_nonsolv():
    with criterion(3, "order-720 example", 120):
        from ctlab.reproduce import check_order720

        out = check_order720()
        assert out["status"] == "pass"
        assert out["covered_block"] == {"k": 6, "l": 1, "defect": 2}
        assert out["unique_covering_block"] and out["refuted_nilpotent"]
        assert out["regular_on_ibr"]


def test_criterion_04a_sl25_squared():
    with criterion(4, "SL(2,5)^2 counterexample", 60):
        from ctlab.instances import sl25_squared_data

        tp, bdp = sl25_squared_data()
        rep = is_p_central_type(bdp)
        assert rep.is_p_central_type
        assert bdp.ibr_degrees()[rep.modular_witness] == 12
        assert fully_ramified_search(bdp, tp.group.center()) == []


def test_criterion_04b_sl2_17():
    with criterion(4, "SL(2,17) counterexample", 60):
        from ctlab.instances import sl217_brauer_data

        bd = sl217_brauer_data()
        rep = is_p_central_type(bd)
        assert rep.is_p_central_type
        assert bd.ibr_degrees()[rep.modular_witness] == 12
        assert fully_ramified_search(bd, bd.group.center()) == []


def test_criterion_05_sl25_ibr_degrees():
    with criterion(5, "SL(2,5) Brauer degrees at p=5", 10):
        from ctlab.forge import sl2

        bd = brauer_data(character_table(sl2(5)), 5)
        degrees = bd.ibr_degrees()
        assert 3 in degrees and 4 in degrees


def test_criterion_06a_tower_c2(towers):
    with criterion(6, "tower over C2 at p=3", 60):
        cert = gagola_tower(cyclic(2), 3)
        towers["c2_p3"] = cert
        assert cert.tower.order == 8
        assert cert.center.order == 2
        assert cert.witness_degree == 2
        assert len(cert.properties) == 4
        assert cert.ok


def test_criterion_06b_tower_s3(towers):
    with criterion(6, "tower over S3 at p=5", 60):
        s3 = group_from_generators(
            3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        cert = gagola_tower(s3, 5)
        towers["s3_p5"] = cert
        assert len(cert.properties) == 4
        assert cert.ok


def test_criterion_06c_tower_c3_degenerate():
    with criterion(6, "tower over C3 at p=3 degenerates", 60):
        with pytest.raises(DegenerateStep):
            gagola_tower(cyclic(3), 3)


def test_criterion_07_index_identity(towers):
    with criterion(7, "central index identity on q != p steps", 600):
        if "c2_p3" not in towers:
            towers["c2_p3"] = gagola_tower(cyclic(2), 3)
        if "s3_p5" not in towers:
            towers["s3_p5"] = gagola_tower(
                group_from_generators(3, [parse_cycles("(1 2)", 3),
                                          parse_cycles("(1 2 3)", 3)]), 5)
        if "c6_p2" not in towers:
            towers["c6_p2"] = gagola_tower(cyclic(6), 2)
        checked = 0
        for cert in (towers["c2_p3"], towers["s3_p5"], towers["c6_p2"]):
            for s in cert.steps:
                if s.case == "q!=p":
                    assert s.eq3 is not None and s.eq3["holds"]
                    checked += 1
        assert checked >= 3


def test_criterion_08_lift_counting():
    with criterion(8, "lift counting", 600):
        # nilpotent-style block: C4 principal at p = 2 has |D : D'| = 4 lifts
        c4 = cyclic(4)
        bd = brauer_data(character_table(c4), 2)
        assert len(lifts_of(bd, 0)) == 4
        d = c4.sylow_subgroup(2)
        assert d.order // d.derived_subgroup().order == 4
        # the stabilizer-inequality failure case returns its witness
        from ctlab.builders import builder_unique_lift
        from ctlab.errors import HypothesisFails

        with pytest.raises(HypothesisFails) as info:
            builder_unique_lift(quaternion(8), 3, 2,
                                [[[2, 0], [0, 2]], [[1, 0], [0, 2]]])
        assert info.value.witness is not None
        assert (info.value.orbit_size, info.value.stab_order) == (2, 2)
        # the verified positive instance needs catalogue data: run or skip
        from ctlab.reproduce import check_unilift_625

        out = check_unilift_625()
        assert out["status"] in ("pass", "skipped")
        if out["status"] == "pass":
            assert out["l"] == 1 and out["lifts"] == 1
        else:
            print("ACCEPTANCE 08 note: positive unique-lift instance skipped "
                  "(catalogue data not supplied)")


def test_criterion_09_property_suite(corpus_tables):
    with criterion(9, "property suites over the corpus", 600):
        assert len(corpus_tables) >= 25
        from ctlab.modrep import cartan_determinant

        for name, g, t in corpus_tables:
            assert verify_orthogonality(t), name
            for p in (2, 3, 5):
                bd = brauer_data(t, p)
                assert sum(b.k() for b in bd.blocks) == len(t), name
                assert sum(b.l() for b in bd.blocks) == len(bd.ibr), name
                assert all(x >= 0 for row in bd.decomposition for x in row)
                det = cartan_determinant(bd.cartan)
                assert det == p_part(det, p), name
                # the restrictions decompose exactly
                pos = bd.regular
                for i, row in enumerate(t.values):
                    target = restriction(row, pos)
                    acc = [sum((bd.decomposition[i][j] * bd.ibr[j][c]
                                for j in range(len(bd.ibr))),
                               __import__("ctlab.cyclo",
                                          fromlist=["ZERO"]).ZERO)
                           for c in range(len(pos))]
                    assert tuple(acc) == target, name
            if g.order <= 100:
                elems = oracles.closure(g.degree, g.gens)
                assert len(elems) == g.order, name
                assert len(oracles.conjugacy_partition(elems)) == len(t), name
                assert len(oracles.center(elems)) == g.center().order, name
                for p in (2, 3, 5):
                    assert g.sylow_subgroup(p).order == \
                        oracles.p_part(g.order, p), name


def test_criterion_10_out_of_scale_skips():
    with criterion(10, "out-of-desk-scale content is skipped", 60):
        from ctlab.reproduce import (check_goodclasses_93312,
                                     check_unilift_625, check_unilift_81)

        for check in (check_unilift_625, check_unilift_81,
                      check_goodclasses_93312):
            out = check()
            assert out["status"] == "skipped"
            assert "data/user" in out["reason"]
