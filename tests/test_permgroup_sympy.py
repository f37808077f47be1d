"""The key-based element scans of ``permgroup`` (centre, classes,
centralizers, Sylow subgroups), its element lists and derived series, and
its incrementally built chains (order, membership) against
``sympy.combinatorics``, an independent implementation (dev-only)."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation, PermutationGroup

import oracles
from ctlab.permgroup import PermGroup


@st.composite
def _group_and_subgroup(draw):
    """A random group of degree <= 7 and a subgroup generated by words in
    its generators."""
    n = draw(st.integers(min_value=1, max_value=7))
    perm = st.permutations(range(n)).map(tuple)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    words = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=len(gens) - 1),
                 min_size=1, max_size=4),
        min_size=1, max_size=2))
    sub = []
    for word in words:
        x = tuple(range(n))
        for i in word:
            x = tuple(gens[i][a] for a in x)
        sub.append(x)
    return n, gens, sub


def _sympy(gens):
    return PermutationGroup([Permutation(list(g)) for g in gens])


def _element_set(group):
    return {tuple(x.array_form) for x in group.generate()}


@settings(max_examples=30, deadline=None)
@given(_group_and_subgroup())
def test_scans_agree_with_sympy(case):
    n, gens, sub = case
    g, ref = PermGroup(n, gens), _sympy(gens)
    assert g.order == ref.order()
    assert set(g.center().elements()) == _element_set(ref.center())
    assert Counter(g.conjugacy_classes().sizes) == \
        Counter(len(c) for c in ref.conjugacy_classes())
    h = g.subgroup(sub)
    assert set(g.centralizer_of_subgroup(h).elements()) == \
        _element_set(ref.centralizer(_sympy(sub)))
    for p in (2, 3, 5, 7):
        assert g.sylow_subgroup(p).order == ref.sylow_subgroup(p).order()


@st.composite
def _elements_and_probes(draw):
    """Random permutations of degree <= 9 in the role of group elements
    (handed to ``subgroup_from_elements``) and of membership probes."""
    n = draw(st.integers(min_value=1, max_value=9))
    perm = st.permutations(range(n)).map(tuple)
    elems = draw(st.lists(perm, min_size=0, max_size=4))
    probes = draw(st.lists(perm, min_size=1, max_size=4))
    return n, elems, probes


@settings(max_examples=40, deadline=None)
@given(_elements_and_probes())
def test_incremental_chain_agrees_with_sympy(case):
    n, elems, probes = case
    h = PermGroup(n, []).subgroup_from_elements(elems)
    ref = _sympy(elems or [tuple(range(n))])
    assert h.order == ref.order()
    for x in probes + list(h.gens):
        assert (x in h) == ref.contains(Permutation(list(x)))


@st.composite
def _two_orbit_group(draw):
    """Generators of degree n <= 9 that keep {0..m-1} and {m..n-1} with
    both parts at most 7 points, so the group has at most 7! 2! elements."""
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=max(0, n - 7), max_value=min(n, 7)))
    part = st.tuples(st.permutations(range(m)), st.permutations(range(m, n)))
    gens = draw(st.lists(part.map(lambda ab: tuple(ab[0]) + tuple(ab[1])),
                         min_size=1, max_size=3))
    return n, gens


@settings(max_examples=40, deadline=None)
@given(_two_orbit_group())
def test_elements_and_derived_series_agree_with_closure_and_sympy(case):
    n, gens = case
    g, ref = PermGroup(n, gens), _sympy(gens)
    elems = g.elements()
    assert elems == sorted(oracles.closure(n, gens))
    assert set(elems) == _element_set(ref)
    assert [h.order for h in g.derived_series()] == \
        [h.order() for h in ref.derived_series()]
