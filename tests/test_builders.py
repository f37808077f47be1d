import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctlab
from ctlab.builders import (builder_nonsolvable, builder_plength,
                            builder_unique_lift, ibr_action_permutation,
                            regular_module_matrices, stabilizer_inequality)
from ctlab.chartab import character_table
from ctlab.errors import (ActionKernelMismatch, CTLabError, HypothesisFails,
                          NotCentralPPrime, NotRegularOnIBr, TrivialQAction)
from ctlab.forge import cyclic, dihedral, matrix_to_vector_perm, quaternion
from ctlab.homs import GroupHom
from ctlab.modrep import brauer_data, fong_block, nilpotency_refute
from ctlab.permgroup import p_prime_part
from ctlab.perms import conj, pinv


FOUR_GROUP_MATS = [[[2, 0], [0, 2]], [[1, 0], [0, 2]]]
_ENV = dict(os.environ,
            PYTHONPATH=str(Path(ctlab.__file__).resolve().parents[1]))


def _gl25_nonsquare():
    """[[0, 1], [2, 0]] (determinant -2, a non-square mod 5) on the nonzero
    vectors of F_5^2: the element the order-720 build conjugates by."""
    return matrix_to_vector_perm([[[0, 1], [2, 0]]], 5, include_zero=False)[0][0]


def test_plength_order72(build72):
    g = build72.group
    assert g.order == 72
    assert build72.z_sub.order == 2
    assert g.p_prime_core(3).order == 2
    assert build72.certificate.inertial_quotient_order == 4


def test_plength_rejects_wrong_kernel():
    d8 = dihedral(8)
    # a faithful D8 action has trivial kernel, not Z(D8)
    faithful = [[[0, 2], [1, 0]], [[1, 0], [0, 2]]]
    with pytest.raises(ActionKernelMismatch):
        builder_plength(d8, 3, dim=2, mats=faithful)


def test_plength_rejects_p_dividing_center():
    with pytest.raises(NotCentralPPrime):
        builder_plength(dihedral(8), 2, dim=2, mats=FOUR_GROUP_MATS)


def test_plength_regular_module_option():
    d8 = dihedral(8)
    build = builder_plength(d8, 3, *regular_module_matrices(d8, d8.center()))
    assert build.dim == 4
    assert build.group.order == 3 ** 4 * 8
    bd = brauer_data(character_table(build.group), 3)
    blk = fong_block(bd, build.z_sub, build.lam)
    assert blk.l() == 1 and bd.is_maximal_defect(blk)
    res = nilpotency_refute(blk, bd, certificate=build.certificate)
    assert res.refuted


def test_plength_order864(build864):
    g = build864.group
    assert g.order == 864
    assert build864.z_sub.order == 3
    assert g.p_length(2) == 2
    # Z is the odd core of the product, of order 3
    core = g.p_prime_core(2)
    assert core.order == 3 and core.is_subgroup_of(build864.z_sub)
    # the degree identity for the fully ramified situation
    bd = brauer_data(character_table(g), 2)
    blk = fong_block(bd, build864.z_sub, build864.lam)
    phi_deg = bd.ibr_degrees()[blk.brauer[0]]
    assert phi_deg ** 2 == p_prime_part(g.order // build864.z_sub.order, 2)


def test_plength_rejects_abelian_acting_group():
    with pytest.raises(ActionKernelMismatch):
        builder_plength(cyclic(4), 3, dim=1, mats=[[[1]]])


@pytest.mark.slow
def test_nonsolvable_build_3960():
    from ctlab.instances import order3960_build

    build = order3960_build()
    g = build.group
    assert g.order == 3960
    bd = brauer_data(character_table(g), 3)
    covering = [b for b in bd.blocks if b.l() == 1 and b.k() > 1]
    assert len(covering) == 1, "one non-nilpotent block with l(B) = 1"
    blk = covering[0]
    assert blk.defect == 2 and blk.k() == 6
    res = nilpotency_refute(blk, bd, certificate=build.certificate)
    assert res.refuted


def test_nonsolvable_builds_use_the_induced_action(build720):
    # |H| deg N, not the |N| + deg H of the regular realisation (1982, 362)
    from ctlab.instances import order3960_build

    assert order3960_build().group.degree <= 30
    assert build720.group.degree <= 54


def test_nonsolvable_build_720(build720):
    g = build720.group
    assert g.order == 720
    assert not g.is_solvable()
    blk = build720.h_bd.blocks[build720.block_index]
    assert blk.l() == 2 and blk.defect == 1
    assert sorted(build720.h_bd.table.degrees[i] for i in blk.ordinary) \
        == [2, 2, 4]


def test_ibr_action_permutation_swaps(build720):
    bd = build720.h_bd
    h = build720.h_group
    w = None
    # rebuild the automorphism used by the build: conjugation swaps the pair
    w = _gl25_nonsquare()
    alpha = GroupHom(h, h, [conj(g, w) for g in h.gens])
    perm = ibr_action_permutation(bd, alpha, 2)
    blk = bd.blocks[build720.block_index]
    a, b = blk.brauer
    assert perm[a] == b and perm[b] == a


def test_nonsolvable_rejects_trivial_q_action(sl25):
    bd = brauer_data(character_table(sl25), 3)
    blkidx = next(i for i, b in enumerate(bd.blocks)
                  if b.l() == 2 and 0 not in b.ordinary)
    w = _gl25_nonsquare()
    alpha = GroupHom(sl25, sl25, [conj(g, w) for g in sl25.gens])
    q3 = cyclic(3)
    trivial_action = GroupHom(q3, q3, [q3.gens[0]])
    with pytest.raises(TrivialQAction):
        builder_nonsolvable(bd, blkidx, alpha, 2, q3, trivial_action)


def test_nonsolvable_rejects_p_power_l(sl25):
    bd = brauer_data(character_table(sl25), 3)
    defect_zero = next(i for i, b in enumerate(bd.blocks) if b.l() == 1)
    w = _gl25_nonsquare()
    alpha = GroupHom(sl25, sl25, [conj(g, w) for g in sl25.gens])
    q3 = cyclic(3)
    inv_q = GroupHom(q3, q3, [pinv(q3.gens[0])])
    with pytest.raises(NotRegularOnIBr):
        builder_nonsolvable(bd, defect_zero, alpha, 2, q3, inv_q)


def test_nonsolvable_rejects_principal_block(sl25):
    # the principal block has l = 2 but the action fixes the trivial row
    bd = brauer_data(character_table(sl25), 3)
    principal = 0
    assert bd.blocks[principal].l() == 2
    w = _gl25_nonsquare()
    alpha = GroupHom(sl25, sl25, [conj(g, w) for g in sl25.gens])
    q3 = cyclic(3)
    inv_q = GroupHom(q3, q3, [pinv(q3.gens[0])])
    with pytest.raises(NotRegularOnIBr):
        builder_nonsolvable(bd, principal, alpha, 2, q3, inv_q)


def test_nonsolvable_needs_the_blocks_of_h(sl25):
    bd = brauer_data(character_table(sl25), 3, with_blocks=False)
    w = _gl25_nonsquare()
    alpha = GroupHom(sl25, sl25, [conj(g, w) for g in sl25.gens])
    q3 = cyclic(3)
    inv_q = GroupHom(q3, q3, [pinv(q3.gens[0])])
    with pytest.raises(CTLabError, match="no blocks"):
        builder_nonsolvable(bd, 1, alpha, 2, q3, inv_q)


def test_unique_lift_hypothesis_fails_for_q8():
    q8 = quaternion(8)
    with pytest.raises(HypothesisFails) as info:
        builder_unique_lift(q8, 3, 2, FOUR_GROUP_MATS)
    exc = info.value
    # |H : H_v| = 2 is not greater than |H_v : Z| = 2 on a length-2 orbit
    assert exc.orbit_size == 2 and exc.stab_order == 2
    assert exc.witness is not None


def test_stabilizer_inequality_reports_regular_orbits():
    # the free orbit of the four-group on C_3^2 passes the inequality; the
    # length-2 orbits are the failures (semiregular orbits always pass)
    with pytest.raises(HypothesisFails):
        stabilizer_inequality(FOUR_GROUP_MATS, 3, 2, 4)
    # a genuinely semiregular action: C_3 = <double shift> on C_2^2 - wait,
    # use the order-3 matrix on F_2^2 which permutes the three nonzero
    # vectors regularly
    report = stabilizer_inequality([[[0, 1], [1, 1]]], 2, 2, 3)
    assert report == [{"vector": (0, 1), "orbit_size": 3, "stabilizer": 1}]


_BUILDER_CHECKS_UNDER_O = """
import sys
from ctlab import builders
from ctlab.errors import ActionKernelMismatch, VerificationFailed
from ctlab.forge import dihedral, quaternion
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []

def expect(name, fn, error=VerificationFailed):
    try:
        fn()
    except error:
        raised.append(name)

mats = [[[2, 0], [0, 2]], [[1, 0], [0, 2]]]
order72 = lambda: builders.builder_plength(dihedral(8), 3, 2, mats)
real = PermGroup.p_prime_core
PermGroup.p_prime_core = lambda self, p: self.subgroup([])
expect("core", order72)
PermGroup.p_prime_core = real
real = PermGroup.centralizer_of_subgroup
PermGroup.centralizer_of_subgroup = lambda self, sub: self
expect("inertial", order72)
PermGroup.centralizer_of_subgroup = real
expect("faithful", lambda: builders.stabilizer_inequality(mats, 3, 2, 8),
       ActionKernelMismatch)
builders.stabilizer_inequality = lambda *args: []
builders.rows_over_central = lambda *args: []
expect("ramified", lambda: builders.builder_unique_lift(quaternion(8), 3, 2, mats))
print(" ".join(raised))
"""


def test_builder_checks_survive_python_O():
    out = subprocess.run([sys.executable, "-O", "-c", _BUILDER_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=_ENV, check=True)
    assert out.stdout.split() == ["core", "inertial", "faithful", "ramified"]


_INSTANCE_CHECKS_UNDER_O = """
import sys
from dataclasses import replace
from types import SimpleNamespace
from ctlab import instances, reproduce
from ctlab.errors import VerificationFailed

assert sys.flags.optimize
raised = []

def expect(name, fn):
    try:
        fn()
    except VerificationFailed:
        raised.append(name)

real = instances.is_p_central_type
instances.is_p_central_type = lambda bd: SimpleNamespace(is_p_central_type=False)
expect("order54", instances.order54_group)
instances.is_p_central_type = real
instances.p_regular_classes = lambda cd, p: []
expect("sl2_char_p", lambda: instances.sl2_char_p_brauer(5))
real = reproduce.direct_product_table
def other_product(a, b):
    tn, ndata = real(a, b)
    return tn, (ndata[0].subgroup(ndata[0].gens[:1]),) + tuple(ndata[1:])
reproduce.direct_product_table = other_product
expect("order720", reproduce.check_order720)
reproduce.direct_product_table = real
# H's table is read from the build's Brauer data, which must be on its H
build = instances.order720_build()
reproduce.order720_build = lambda: replace(
    build, h_group=build.h_group.subgroup(build.h_group.gens))
expect("order720_h", reproduce.check_order720)
print(" ".join(raised))
"""


def test_instance_checks_survive_python_O():
    out = subprocess.run([sys.executable, "-O", "-c", _INSTANCE_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=_ENV, check=True)
    assert out.stdout.split() == ["order54", "sl2_char_p", "order720",
                                  "order720_h"]
