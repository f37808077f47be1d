import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctlab
import oracles
from ctlab.errors import NotAHomomorphism, NotASubgroup
from ctlab.forge import cyclic, dihedral, quaternion
from ctlab.homs import GroupHom
from ctlab.permgroup import PermGroup, direct_power
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


def _odd(g):
    return sum(g[i] > g[j] for i in range(len(g)) for j in range(i)) % 2


def _image_cases():
    """(name, source, target, images, whether they define a homomorphism)."""
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    d8, q8 = dihedral(8), quaternion(8)
    return [
        ("c4-c3", c4, c3, [c3.gens[0]], False),
        # the 3-cycle cannot go to an involution
        ("s3-c2", s3, c2, [c2.gens[0]] * 2, False),
        # rotation (order 4) and reflection swapped
        ("d8-swapped", d8, d8, list(reversed(d8.gens)), False),
        ("s4-sign", s4, c2,
         [c2.gens[0] if _odd(g) else c2.identity for g in s4.gens], True),
        ("q8-inner", q8, q8, [conj(g, q8.gens[0]) for g in q8.gens], True),
    ]


def test_bad_images_rejected():
    # images are rejected exactly when the closure of the (g, image) pairs
    # (oracle) has more elements than the source
    for name, source, target, images, is_hom in _image_cases():
        pairs = oracles.graph(source.degree, source.gens, images)
        assert (len(pairs) == len(oracles.closure(source.degree, source.gens))) \
            == is_hom, name
        if not is_hom:
            with pytest.raises(NotAHomomorphism):
                GroupHom(source, target, images)
            continue
        hom = GroupHom(source, target, images)
        # image() reads the target part of a residue that fixes every base
        # point, so each base point is a source point
        assert all(b < source.degree for b in hom._graph.base), name
        assert pairs == {g + tuple(source.degree + x for x in hom.image(g))
                         for g in source.elements()}, name


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
