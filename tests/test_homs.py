import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctlab
from ctlab.errors import NotAHomomorphism, NotASubgroup
from ctlab.forge import cyclic
from ctlab.homs import GroupHom
from ctlab.permgroup import direct_power
from ctlab.perms import conj, parse_cycles, pinv, ppow


def test_inversion_on_c3():
    c3 = cyclic(3)
    inv = GroupHom(c3, c3, [pinv(c3.gens[0])])
    assert inv.kernel().order == 1 and inv.image_group().order == 3
    assert inv.is_injective() and inv.is_automorphism()
    assert inv.automorphism_order() == 2


def test_shift_on_cube_has_order_three(s3):
    k3, emb, _split = direct_power(s3, 3)
    images = [emb((i + 1) % 3, g) for i in range(3) for g in s3.gens]
    shift = GroupHom(k3, k3, images)
    assert shift.automorphism_order() == 3


def test_bad_images_rejected():
    c4 = cyclic(4)
    c3 = cyclic(3)
    with pytest.raises(NotAHomomorphism):
        GroupHom(c4, c3, [c3.gens[0]])  # order 4 -> order 3


def test_quotient_style_hom():
    c4 = cyclic(4)
    c2 = cyclic(2)
    h = GroupHom(c4, c2, [c2.gens[0]])
    assert not h.is_injective()
    assert h.kernel().order == 2
    assert h.image(ppow(c4.gens[0], 2)) == c2.identity
    assert h.image_group().order == c2.order


def test_image_evaluation_on_words(s4):
    sign = GroupHom(s4, cyclic(2), [parse_cycles("(1 2)", 2),
                                    parse_cycles("(1 2)", 2)])
    even = parse_cycles("(1 2 3)", 4)
    odd = parse_cycles("(1 2 3 4)", 4)
    assert sign.image(even) == sign.target.identity
    assert sign.image(odd) != sign.target.identity
    assert sign.kernel().order == 12


def test_composition(s3):
    ident = GroupHom(s3, s3, list(s3.gens))
    comp = ident.then(ident)
    assert comp.gen_images == list(s3.gens)


def test_conjugation_automorphism(q8):
    w = q8.gens[0]
    inner = GroupHom(q8, q8, [conj(g, w) for g in q8.gens])
    assert inner.is_automorphism()
    assert inner.automorphism_order() in (1, 2, 4)
    # conjugation fixes the center pointwise
    for z in q8.center().elements():
        assert inner.image(z) == z


def test_evaluating_outside_source_raises(s3):
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    ident = GroupHom(a3, a3, list(a3.gens))
    with pytest.raises(NotASubgroup):
        ident.image(parse_cycles("(1 2)", 3))


_KERNEL_CHECK_UNDER_O = """
import sys
from ctlab.errors import VerificationFailed
from ctlab.homs import GroupHom
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
qr = s3.quotient(s3.subgroup([(1, 2, 0)]))
GroupHom.image = lambda self, g: self.target.identity
try:
    GroupHom(qr.source, qr.group, qr.gen_images).kernel()
except VerificationFailed:
    print("kernel")
"""


def test_kernel_check_survives_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(ctlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _KERNEL_CHECK_UNDER_O],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    assert out.stdout.split() == ["kernel"]
