"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

This file sorts first in the collection order, so every named construction
is built cold here and the stated runtime ceilings are measured honestly;
later test modules reuse the warm per-process caches.
"""

import time
from contextlib import contextmanager

import pytest

import oracles
from ctlab.chartab import character_table, verify_orthogonality
from ctlab.forge import cyclic, quaternion
from ctlab.modrep import (brauer_data, cartan_determinant, fong_block,
                          known_defect_group, lifts_of, nilpotency_refute,
                          restriction)
from ctlab.permgroup import p_part
from ctlab.reproduce import (CHECKS, check_goodclasses_93312, check_unilift_625,
                             check_unilift_81)


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
        blk = fong_block(bd, build.z_sub, build.lam)
        assert blk.l() == 1 and blk.defect == 2
        # k(B) precomputed by the brute-force oracle run: 6; k(C_3^2) = 9
        assert blk.k() == 6
        d = known_defect_group(bd, blk)
        assert len(oracles.conjugacy_partition(
            oracles.closure(d.degree, d.gens))) == 9
        res = nilpotency_refute(blk, bd)
        assert res.refuted


def test_criterion_02_order864_plength():
    with criterion(2, "order-864 example", 120):
        out = CHECKS["order864-plength"]()
        assert out["status"] == "pass"
        assert out["order"] == 864 and out["p_length"] == 2
        assert out["block"]["maximal"] and out["block"]["l"] == 1
        assert out["refuted_nilpotent"]


def test_criterion_03_order720_nonsolv():
    with criterion(3, "order-720 example", 120):
        out = CHECKS["order720-nonsolv"]()
        assert out["status"] == "pass"
        assert out["covered_block"] == {"k": 6, "l": 1, "defect": 2}
        assert out["unique_covering_block"] and out["refuted_nilpotent"]
        assert out["regular_on_ibr"]


def _assert_pcentral_counterexample(out):
    assert out["status"] == "pass"
    assert out["is_p_central_type"]
    assert out["witness_degree"] == 12
    assert out["fully_ramified"] == []


def test_criterion_04a_sl25_squared():
    with criterion(4, "SL(2,5)^2 counterexample", 60):
        _assert_pcentral_counterexample(CHECKS["sl25sq-pcentral"]())


def test_criterion_04b_sl2_17():
    with criterion(4, "SL(2,17) counterexample", 60):
        _assert_pcentral_counterexample(CHECKS["sl2-17-pcentral"]())


def test_criterion_05_sl25_ibr_degrees():
    with criterion(5, "SL(2,5) Brauer degrees at p=5", 10):
        out = CHECKS["sl25-ibr-degrees"]()
        assert out["status"] == "pass"
        assert 3 in out["ibr_degrees"] and 4 in out["ibr_degrees"]


def test_criterion_06a_tower_c2():
    with criterion(6, "tower over C2 at p=3", 60):
        out = CHECKS["gagola-c2-p3"]()
        assert out["status"] == "pass" and out["verified"]
        assert out["tower_order"] == 8
        assert out["center_order"] == 2
        assert out["witness_degree"] == 2
        assert len(out["properties"]) == 4


def test_criterion_06b_tower_s3():
    with criterion(6, "tower over S3 at p=5", 60):
        out = CHECKS["gagola-s3-p5"]()
        assert out["status"] == "pass" and out["verified"]
        assert len(out["properties"]) == 4


def test_criterion_06c_tower_c3_degenerate():
    with criterion(6, "tower over C3 at p=3 degenerates", 60):
        out = CHECKS["gagola-c3-p3"]()
        assert out["status"] == "pass" and out["expected"] == "degenerate"
        assert "level" in out


def test_criterion_07_index_identity():
    with criterion(7, "central index identity on q != p steps", 600):
        out = CHECKS["gagola-eq3"]()
        assert out["status"] == "pass"
        assert len(out["steps"]) >= 3
        assert all(r["holds"] for r in out["steps"])


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
        for check in (check_unilift_625, check_unilift_81,
                      check_goodclasses_93312):
            out = check()
            assert out["status"] == "skipped"
            assert "data/user" in out["reason"]
