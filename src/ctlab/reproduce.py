"""Reproduction harness: one runnable check per acceptance target.

Each check returns a JSON-ready dict with a "status" of "pass", "fail",
"skipped" (user-supplied data absent, or over a desk-scale bound) or
"degenerate" (an expected degenerate outcome).  Checks that need catalogue
groups look for generator and matrix files under data/user/ and are
skipped, never failed, when the files are missing or the computation they
ask for exceeds a bound such as the table budget or ``SCAN_LIMIT``.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

from .builders import _vector_semidirect, builder_unique_lift
from .centraltype import fully_ramified_search, is_p_central_type
from .chartab import character_table, direct_product_table, fusion_through_hom, \
    restrict, row_function, inner_product as chi_inner, ClassFunction, \
    verify_orthogonality
from .errors import (BudgetExceeded, DegenerateStep, HypothesisFails,
                     ParseError, UnknownCheck, VerificationFailed)
from .forge import cyclic, dihedral, extraspecial, quaternion, sl2
from .gagola import gagola_tower
from .grammar import parse_generator_file, parse_matrix_file
from .instances import (order72_build, order720_build, order864_build,
                        sl217_brauer_data, sl25_squared_data)
from .modrep import (brauer_data, cartan_determinant, fong_block,
                     known_defect_group, lifts_of, nilpotency_refute)
from .permgroup import direct_product, group_from_generators, p_part
from .perms import parse_cycles

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "data")


def _user_path(name):
    return os.path.join(DATA_DIR, "user", name)


def check_order72() -> dict:
    build = order72_build()
    g = build.group
    table = character_table(g)
    bd = brauer_data(table, 3)
    blocks = bd.blocks
    blk = fong_block(bd, build.z_sub, build.lam)
    res = nilpotency_refute(blk, bd)
    k_defect_group = len(known_defect_group(bd, blk).conjugacy_classes())
    ok = (g.order == 72 and len(blocks) == 2 and res.refuted and k_defect_group == 9
          and (blk.k(), blk.l(), blk.defect) == (6, 1, 2))
    return {
        "status": "pass" if ok else "fail",
        "order": g.order,
        "block_count": len(blocks),
        "nonprincipal": {"k": blk.k(), "l": blk.l(), "defect": blk.defect},
        "k_defect_group": k_defect_group,
        "refuted_nilpotent": res.refuted,
        "reason": res.reason,
    }


def check_order864() -> dict:
    build = order864_build()
    g = build.group
    plen = g.p_length(2)
    table = character_table(g)
    bd = brauer_data(table, 2)
    blk = fong_block(bd, build.z_sub, build.lam)
    res = nilpotency_refute(blk, bd, certificate=build.certificate)
    maximal = bd.is_maximal_defect(blk)
    ok = (g.order == 864 and plen == 2 and maximal and blk.l() == 1
          and res.refuted)
    return {
        "status": "pass" if ok else "fail",
        "order": g.order,
        "p_length": plen,
        "block": {"k": blk.k(), "l": blk.l(), "defect": blk.defect,
                  "maximal": maximal},
        "refuted_nilpotent": res.refuted,
        "reason": res.reason,
    }


def check_order720() -> dict:
    build = order720_build()
    g = build.group
    table = character_table(g)
    bd = brauer_data(table, 3)
    # the block covering b x b0: restrict through the product subgroup
    th = build.h_bd.table
    if th.group is not build.h_group:
        raise VerificationFailed("the build's Brauer data of H is not on "
                                 "its group H")
    tq = character_table(build.q_group)
    tn, ndata = direct_product_table(th, tq)
    if ndata[0].gens != build.n_small.gens:
        raise VerificationFailed("the product table's group is not the "
                                 "build's H x Q")
    fusion = fusion_through_hom(build.n_result.n_hom, tn.classes, g)
    h_block = build.h_bd.blocks[build.block_index]
    # distinguished row of b x b0: first ordinary of b tensor the trivial of Q
    covering = []
    for i in range(len(table)):
        restr = restrict(row_function(table, i), tn.classes, fusion)
        mult = chi_inner(restr, _tensor_row(tn, th, tq, ndata,
                                            h_block.ordinary[0], 0))
        if mult != 0:
            covering.append(i)
    blocks_hit = {j for j, blk in enumerate(bd.blocks)
                  if set(blk.ordinary) & set(covering)}
    ok_unique = len(blocks_hit) == 1
    blk = bd.blocks[min(blocks_hit)]
    res = nilpotency_refute(blk, bd, certificate=build.certificate)
    ok = (g.order == 720 and ok_unique and blk.l() == 1 and blk.defect == 2
          and res.refuted)
    return {
        "status": "pass" if ok else "fail",
        "order": g.order,
        "regular_on_ibr": True,
        "covered_block": {"k": blk.k(), "l": blk.l(), "defect": blk.defect},
        "unique_covering_block": ok_unique,
        "refuted_nilpotent": res.refuted,
        "reason": res.reason,
    }


def _tensor_row(tn, th, tq, ndata, i, j):
    grp, _ea, _eb, split = ndata
    vals = []
    for rep in tn.classes.representatives:
        x, y = split(rep)
        vals.append(th.values[i][th.group.class_of(x)]
                    * tq.values[j][tq.group.class_of(y)])
    return ClassFunction(tn.classes, vals)


def _converse_counterexample(bd, **extra) -> dict:
    """p-central type with a degree-12 witness, yet no IBr fully ramified
    over the centre: a counterexample to the fully-ramified converse."""
    rep = is_p_central_type(bd)
    ramified = fully_ramified_search(bd, bd.group.center())
    witness_degree = (bd.ibr_degrees()[rep.modular_witness]
                      if rep.modular_witness is not None else None)
    ok = rep.is_p_central_type and witness_degree == 12 and ramified == []
    return {
        "status": "pass" if ok else "fail",
        "order": bd.group.order,
        **extra,
        "is_p_central_type": rep.is_p_central_type,
        "witness_degree": witness_degree,
        "fully_ramified": ramified,
    }


def check_sl25_squared() -> dict:
    return _converse_counterexample(sl25_squared_data()[1])


def check_sl2_17() -> dict:
    bd = sl217_brauer_data()
    return _converse_counterexample(bd, ibr_degrees=bd.ibr_degrees())


def check_sl25_ibr() -> dict:
    t = character_table(sl2(5))
    bd = brauer_data(t, 5)
    degrees = bd.ibr_degrees()
    ok = 3 in degrees and 4 in degrees
    return {"status": "pass" if ok else "fail", "ibr_degrees": degrees}


def _s3():
    return group_from_generators(
        3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])


_TOWER_SOURCES = {"C2": lambda: cyclic(2), "C3": lambda: cyclic(3),
                 "C6": lambda: cyclic(6), "S3": _s3,
                 "C3xC2": lambda: direct_product(cyclic(3), cyclic(2))[0]}


@lru_cache(maxsize=None)
def _tower(source: str, p: int):
    """The tower of a named source group, built once per process: the
    gagola checks and the index-identity check share it."""
    return gagola_tower(_TOWER_SOURCES[source](), p)


def check_gagola(source: str, p: int) -> dict:
    try:
        cert = _tower(source, p)
    except DegenerateStep as exc:
        return {"status": "degenerate", "level": exc.level, "detail": str(exc)}
    data = cert.to_json()
    data["status"] = "pass" if cert.ok else "fail"
    return data


def check_gagola_c2() -> dict:
    out = check_gagola("C2", 3)
    if out["status"] == "pass":
        expect = (out["tower_order"] == 8 and out["center_order"] == 2
                  and out["witness_degree"] == 2)
        if not expect:
            out["status"] = "fail"
    return out


def check_gagola_s3() -> dict:
    return check_gagola("S3", 5)


def check_gagola_c3() -> dict:
    out = check_gagola("C3", 3)
    out["status"] = "pass" if out["status"] == "degenerate" else "fail"
    out["expected"] = "degenerate"
    return out


def check_gagola_c3_via_c6() -> dict:
    """C3 at p = 3 through C3 x C2, whose chain ends in C2: its tower
    embeds C3 x C2, and with it the C3 factor, its Sylow 3-subgroup, whose
    image in H/Z has order |<embed(x), Z>| / |Z|."""
    out = check_gagola("C3xC2", 3)
    if out["status"] == "pass":
        cert = _tower("C3xC2", 3)
        c3 = cert.source.sylow_subgroup(3)
        image = cert.tower.subgroup([cert.embed(x) for x in c3.gens]
                                    + list(cert.center.gens))
        image_order = image.order // cert.center.order
        out["c3_factor_image_order"] = image_order
        facts = (out["tower_order"], out["center_order"], out["witness_degree"])
        if facts != (384, 2, 8) or image_order != 3:
            out["status"] = "fail"
    return out


def check_eq3() -> dict:
    """The index identity on every q != p step of the tower corpus."""
    records = []
    for source, p in [("C2", 3), ("S3", 5), ("C6", 2)]:
        cert = _tower(source, p)
        for s in cert.steps:
            if s.q != p:                  # a step without its record fails
                records.append({"source_order": cert.source.order, "p": p,
                                "q": s.q, **(s.eq3 or {"holds": False})})
    ok = bool(records) and all(r["holds"] for r in records)
    return {"status": "pass" if ok else "fail", "steps": records}


def check_lifts_c4() -> dict:
    c4 = cyclic(4)
    bd = brauer_data(character_table(c4), 2)
    lifts = len(lifts_of(bd, 0))
    blk = bd.blocks[0]
    d = c4.sylow_subgroup(2)
    dd = d.derived_subgroup()
    index = d.order // dd.order
    ok = lifts == 4 and index == 4 and blk.l() == 1
    return {"status": "pass" if ok else "fail",
            "lifts": lifts, "commutator_index": index}


def check_unilift_hypothesis_q8() -> dict:
    q8 = quaternion(8)
    mats = [[[2, 0], [0, 2]], [[1, 0], [0, 2]]]  # the four-group on C_3^2
    try:
        builder_unique_lift(q8, 3, 2, mats)
        return {"status": "fail", "detail": "hypothesis unexpectedly held"}
    except HypothesisFails as exc:
        return {"status": "pass", "witness": list(exc.witness),
                "orbit_size": exc.orbit_size, "stabilizer_order": exc.stab_order}


def _user_action(stem: str, p: int):
    """(H, matrices over GF(p)) from data/user/<stem>.grp and
    <stem>_action.mat, or None when either file is absent."""
    gen_path = _user_path(f"{stem}.grp")
    mat_path = _user_path(f"{stem}_action.mat")
    if not (os.path.exists(gen_path) and os.path.exists(mat_path)):
        return None
    with open(gen_path) as fh:
        degree, gens = parse_generator_file(fh.read())
    with open(mat_path) as fh:
        q, mats = parse_matrix_file(fh.read())
    if q != p:
        raise ParseError(f"{os.path.basename(mat_path)} gives matrices over "
                         f"GF({q}); this check needs GF({p})")
    return group_from_generators(degree, gens), mats


def _data_missing(stem: str) -> dict:
    return {"status": "skipped",
            "reason": f"catalogue group data not supplied; place {stem}.grp "
                      f"and {stem}_action.mat under data/user/"}


def _over_bound(exc: BudgetExceeded) -> dict:
    return {"status": "skipped",
            "reason": f"supplied data accepted but the computation "
                      f"exceeds a desk-scale limit: {exc}"}


def _run_user_unilift(stem: str, p: int) -> dict:
    loaded = _user_action(stem, p)
    if loaded is None:
        return _data_missing(stem)
    h, mats = loaded
    try:
        build = builder_unique_lift(h, p, len(mats[0]), mats)
        bd = brauer_data(character_table(build.group), p)
    except HypothesisFails as exc:
        return {"status": "fail", "detail": str(exc)}
    except BudgetExceeded as exc:
        return _over_bound(exc)
    blk = fong_block(bd, build.z_sub, build.lam)
    lifts = lifts_of(bd, blk.brauer[0])
    ok = blk.l() == 1 and len(lifts) == 1
    return {"status": "pass" if ok else "fail", "order": build.group.order,
            "l": blk.l(), "lifts": len(lifts)}


def check_unilift_625() -> dict:
    return _run_user_unilift("order128_144", 5)


def check_unilift_81() -> dict:
    return _run_user_unilift("order128_138", 3)


def check_goodclasses_93312() -> dict:
    loaded = _user_action("order128_731", 3)
    if loaded is None:
        return _data_missing("order128_731")
    h, mats = loaded
    try:
        grp, _v, _hom = _vector_semidirect(h, 3, len(mats[0]), mats,
                                           h.center())
        bd = brauer_data(character_table(grp), 3)
        counts = sorted((b.k(), b.l()) for b in bd.blocks if b.defect == 6)
        ok = ((84, 16) in counts) and counts.count((84, 16)) >= 2
        return {"status": "pass" if ok else "fail",
                "order": grp.order, "full_defect_blocks": counts}
    except BudgetExceeded as exc:
        return _over_bound(exc)


def check_property_corpus() -> dict:
    """Condensed version of the property suite (the full one is in pytest)."""
    corpus = [_s3(), dihedral(8), quaternion(8), cyclic(12), dihedral(12),
              extraspecial(3, "+")]
    failures = []
    for g in corpus:
        t = character_table(g)
        if not verify_orthogonality(t):
            failures.append((g.order, "orthogonality"))
        for p in (2, 3, 5):
            bd = brauer_data(t, p)
            if sum(b.k() for b in bd.blocks) != len(t):
                failures.append((g.order, p, "k-sum"))
            if sum(b.l() for b in bd.blocks) != len(bd.ibr):
                failures.append((g.order, p, "l-sum"))
            det = cartan_determinant(bd.cartan)
            # the determinant is a power of p; p_part needs det >= 1
            if det <= 0 or p_part(det, p) != det:
                failures.append((g.order, p, "cartan"))
    return {"status": "pass" if not failures else "fail",
            "groups_checked": len(corpus), "failures": failures}


CHECKS = {
    "order72-blocks": check_order72,
    "order864-plength": check_order864,
    "order720-nonsolv": check_order720,
    "sl25sq-pcentral": check_sl25_squared,
    "sl2-17-pcentral": check_sl2_17,
    "sl25-ibr-degrees": check_sl25_ibr,
    "gagola-c2-p3": check_gagola_c2,
    "gagola-s3-p5": check_gagola_s3,
    "gagola-c3-p3": check_gagola_c3,
    "gagola-c3-p3-via-c6": check_gagola_c3_via_c6,
    "gagola-eq3": check_eq3,
    "lifts-c4": check_lifts_c4,
    "unilift-hypothesis-q8": check_unilift_hypothesis_q8,
    "unilift-625": check_unilift_625,
    "unilift-81": check_unilift_81,
    "goodclasses-93312": check_goodclasses_93312,
    "property-corpus": check_property_corpus,
}


def run_check(name: str) -> dict:
    if name not in CHECKS:
        raise UnknownCheck(f"unknown reproduction id {name!r}; "
                           f"available: {', '.join(sorted(CHECKS))}")
    out = CHECKS[name]()
    out["id"] = name
    out.setdefault("status", "fail")
    return out


def run_all(log=None) -> dict:
    """Every check in id order.  ``log``, when given, is a text stream that
    receives one line per check: id, status and seconds taken."""
    results = {}
    for name in sorted(CHECKS):
        started = time.time()
        results[name] = run_check(name)
        if log is not None:
            print(f"{name} {results[name]['status']} {time.time() - started:.3f}s",
                  file=log)
    overall = all(r["status"] in ("pass", "skipped") for r in results.values())
    return {"results": results, "all_passed_or_skipped": overall}
