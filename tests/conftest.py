import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from ctlab.forge import (central_product_power, cyclic, dihedral, elem_abelian,
                         extraspecial, mat_group, quaternion, semidirect, sl2)
from ctlab.homs import GroupHom
from ctlab.permgroup import PermGroup, direct_product, group_from_generators
from ctlab.perms import parse_cycles, pinv, ppow
from ctlab.reproduce import _tower


def perm_group(degree, *cycle_strings):
    return group_from_generators(
        degree, [parse_cycles(s, degree) for s in cycle_strings])


@st.composite
def small_groups(draw):
    """A group on at most 7 points: 1-3 generators that either permute the
    first n <= 5 points freely or keep the blocks {0..a-1} and {a..n-1},
    a <= 4 and n - a <= 3 (then the group is solvable)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=5))
        perm = st.permutations(range(n)).map(tuple)
    else:
        a = draw(st.integers(min_value=1, max_value=4))
        n = a + draw(st.integers(min_value=0, max_value=3))
        perm = st.tuples(st.permutations(range(a)),
                         st.permutations(range(a, n))).map(lambda t: t[0] + t[1])
    return PermGroup(n, draw(st.lists(perm, min_size=1, max_size=3)))


@pytest.fixture(scope="session")
def s3():
    return perm_group(3, "(1 2)", "(1 2 3)")


@pytest.fixture(scope="session")
def s4():
    return perm_group(4, "(1 2)", "(1 2 3 4)")


@pytest.fixture(scope="session")
def a4():
    return perm_group(4, "(1 2 3)", "(2 3 4)")


@pytest.fixture(scope="session")
def a5():
    return perm_group(5, "(1 2 3)", "(3 4 5)")


@pytest.fixture(scope="session")
def d8():
    return dihedral(8)


@pytest.fixture(scope="session")
def q8():
    return quaternion(8)


@pytest.fixture(scope="session")
def sl25():
    return sl2(5)


@pytest.fixture(scope="session")
def s3_table(s3):
    from ctlab.chartab import character_table

    return character_table(s3)


@pytest.fixture(scope="session")
def d8_table(d8):
    from ctlab.chartab import character_table

    return character_table(d8)


@pytest.fixture(scope="session")
def sl25_table(sl25):
    from ctlab.chartab import character_table

    return character_table(sl25)


# -- named builds (cached across the whole run; these are the paper-scale ones)

@pytest.fixture(scope="session")
def build54():
    from ctlab.instances import order54_group

    return order54_group()


@pytest.fixture(scope="session")
def build72():
    from ctlab.instances import order72_build

    return order72_build()


@pytest.fixture(scope="session")
def build864():
    from ctlab.instances import order864_build

    return order864_build()


@pytest.fixture(scope="session")
def build720():
    from ctlab.instances import order720_build

    return order720_build()


# the k = 2 stand-in for the paper's unique-lift blocks: H_2 = 2^(1+4)_+, the
# central product of two D8, acting on F_3^4 through the order-72 build's
# matrices, one 2 x 2 diagonal block per D8 factor
@pytest.fixture(scope="session")
def standin_k2():
    from ctlab.builders import builder_plength

    d8, k = dihedral(8), 2
    d8_mats = [[[2, 0], [0, 2]], [[1, 0], [0, 2]]]   # rotation -> -1, reflection
    cpp = central_product_power(d8, k)
    gens, mats = [], []
    for i in range(k):
        for g, m in zip(d8.gens, d8_mats):
            gens.append(cpp.quotient.image_of(cpp.embed_coordinate(i, g)))
            mats.append([[m[r - 2 * i][c - 2 * i]
                          if 2 * i <= r < 2 * i + 2 and 2 * i <= c < 2 * i + 2
                          else int(r == c) for c in range(2 * k)]
                         for r in range(2 * k)])
    return builder_plength(cpp.group.subgroup(gens), 3, 2 * k, mats)


# the towers come from the reproduce checks' per-process cache, so the
# acceptance criteria and these fixtures build each tower once
@pytest.fixture(scope="session")
def tower_c2_p3():
    return _tower("C2", 3)


@pytest.fixture(scope="session")
def tower_s3_p5():
    return _tower("S3", 5)


@pytest.fixture(scope="session")
def tower_c6_p2():
    return _tower("C6", 2)


# -- the property-suite corpus (criterion: >= 25 groups of order <= 200) ------

def _f20():
    c5 = cyclic(5)
    return semidirect(c5, cyclic(4), [GroupHom(c5, c5, [ppow(c5.gens[0], 2)])]).group


def _c7_c3():
    c7 = cyclic(7)
    return semidirect(c7, cyclic(3), [GroupHom(c7, c7, [ppow(c7.gens[0], 2)])]).group


def _gen_dihedral_9():
    v = elem_abelian(3, 2)
    inv_map = GroupHom(v, v, [pinv(g) for g in v.gens])
    return semidirect(v, cyclic(2), [inv_map]).group


def _sl23():
    return mat_group(3, [[[1, 1], [0, 1]], [[0, 1], [2, 0]]])


def _c2_x_d8():
    return direct_product(cyclic(2), dihedral(8))[0]


def _c3_x_s3():
    return direct_product(cyclic(3),
                          perm_group(3, "(1 2)", "(1 2 3)"))[0]


def _s3_x_s3():
    s = perm_group(3, "(1 2)", "(1 2 3)")
    return direct_product(s, s)[0]


def corpus_groups():
    """(name, group) pairs; all orders <= 200, at least 25 entries."""
    entries = [
        ("C1", cyclic(1)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("C2^2", elem_abelian(2, 2)),
        ("C6", cyclic(6)),
        ("C8", cyclic(8)),
        ("C9", cyclic(9)),
        ("C3^2", elem_abelian(3, 2)),
        ("C12", cyclic(12)),
        ("S3", perm_group(3, "(1 2)", "(1 2 3)")),
        ("D8", dihedral(8)),
        ("Q8", quaternion(8)),
        ("D12", dihedral(12)),
        ("Q12", quaternion(12)),
        ("A4", perm_group(4, "(1 2 3)", "(2 3 4)")),
        ("D10", dihedral(10)),
        ("F20", _f20()),
        ("C7:C3", _c7_c3()),
        ("S4", perm_group(4, "(1 2)", "(1 2 3 4)")),
        ("SL(2,3)", _sl23()),
        ("D16", dihedral(16)),
        ("Q16", quaternion(16)),
        ("E27+", extraspecial(3, "+")),
        ("E27-", extraspecial(3, "-")),
        ("C3xS3", _c3_x_s3()),
        ("C3^2:C2", _gen_dihedral_9()),
        ("C2xD8", _c2_x_d8()),
        ("2^(1+4)+", central_product_power(dihedral(8), 2).group),
        ("C5^2", elem_abelian(5, 2)),
        ("S3xS3", _s3_x_s3()),
    ]
    assert len(entries) >= 25
    assert all(g.order <= 200 for _, g in entries)
    return entries


@pytest.fixture(scope="session")
def corpus():
    return corpus_groups()


@pytest.fixture(scope="session")
def corpus_tables(corpus):
    from ctlab.chartab import character_table

    return [(name, g, character_table(g)) for name, g in corpus]
