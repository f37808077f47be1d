import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ctlab import chartab
from ctlab.chartab import (character_table, class_fusion, class_matrix_columns,
                           decompose, direct_product_table, induce, inner_product,
                           restrict, row_function, verify_orthogonality)
from ctlab.cyclo import ONE, rational
from ctlab.errors import BudgetExceeded, NotASubgroup, Budget
from ctlab.forge import cyclic, dihedral, extraspecial
from ctlab.permgroup import PermGroup
from ctlab.perms import parse_cycles, ppow

from conftest import perm_group, small_groups

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def degree_multiset_forced(order, k, linear_count):
    """Oracle: the degree multisets allowed by sum d^2 = |G|, d | |G|,
    and the number of linear characters."""
    out = []

    def rec(remaining_sum, remaining_count, min_deg, acc):
        if remaining_count == 0:
            if remaining_sum == 0:
                out.append(tuple(acc))
            return
        d = min_deg
        while d * d * remaining_count <= remaining_sum if False else d * d <= remaining_sum:
            if order % d == 0:
                rec(remaining_sum - d * d, remaining_count - 1, d, acc + [d])
            d += 1

    rec(order - linear_count, k - linear_count, 2, [])
    return {tuple([1] * linear_count + list(t)) for t in out}


def test_s3_table_values(s3_table):
    t = s3_table
    assert t.degrees == (1, 1, 2)
    assert t.values[0] == (ONE, ONE, ONE)
    assert t.values[1] == (ONE, rational(-1), ONE)
    assert t.values[2] == (rational(2), rational(0), rational(-1))
    assert verify_orthogonality(t)


def test_q8_degrees_forced(q8):
    t = character_table(q8)
    # oracle: k = 5 classes, sum of squares 8, 4 linear characters force
    # the degree multiset (enumerated independently)
    der = q8.derived_subgroup()
    linear = q8.order // der.order
    allowed = degree_multiset_forced(8, 5, linear)
    assert allowed == {(1, 1, 1, 1, 2)}
    assert tuple(sorted(t.degrees)) in allowed
    assert verify_orthogonality(t)


def test_extraspecial27_degrees():
    g = extraspecial(3, "+")
    t = character_table(g)
    assert sorted(t.degrees) == [1] * 9 + [3, 3]
    assert len(t) == 11
    assert sum(d * d for d in t.degrees) == 27
    assert verify_orthogonality(t)


def test_sl25_degrees(sl25_table):
    assert sorted(sl25_table.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert verify_orthogonality(sl25_table)


def test_degrees_divide_order_and_linear_count(corpus_tables):
    for name, g, t in corpus_tables:
        assert sum(d * d for d in t.degrees) == g.order, name
        assert all(g.order % d == 0 for d in t.degrees), name
        linear = sum(1 for d in t.degrees if d == 1)
        assert linear == g.order // g.derived_subgroup().order, name


def test_orthogonality_whole_corpus(corpus_tables):
    for name, g, t in corpus_tables:
        assert verify_orthogonality(t), name


def _assert_columns_and_powers_match_oracle(g, name):
    cd = g.conjugacy_classes()
    k = len(cd)
    for i in range(k):
        dense = oracles.class_matrix(g, i)
        columns = class_matrix_columns(cd, i, range(k))
        for m in range(k):
            want = [(j, dense[j][m]) for j in range(k) if dense[j][m]]
            assert columns[m] == want, (name, i, m)
            assert sum(n for _, n in columns[m]) == cd.sizes[i], (name, i, m)
        # the powers walked on keys are the classes of the full powers
        rep = cd.representatives[i]
        assert cd.powers(i) == [cd.index[ppow(rep, t)]
                                for t in range(cd.element_orders[i])], (name, i)


def test_class_matrix_columns_match_dense_oracle(corpus_tables):
    for name, g, _ in corpus_tables:
        _assert_columns_and_powers_match_oracle(g, name)


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_class_matrix_columns_match_dense_oracle_random(g):
    _assert_columns_and_powers_match_oracle(g, g.gens)


# 3, 7 and 331 are 3 mod 4 (-1 is not a square), 5, 13, 61 and 661 are 1 mod 4
QUADRATIC_ELLS = (3, 5, 7, 13, 61, 331, 661)

_MONIC_QUADRATIC = st.sampled_from(QUADRATIC_ELLS).flatmap(
    lambda ell: st.tuples(st.just(ell), st.integers(0, ell - 1),
                          st.integers(0, ell - 1)))


@settings(max_examples=300, deadline=None)
@given(_MONIC_QUADRATIC)
@example((7, 2, 1))          # (x + 1)^2: a zero discriminant, one root
@example((661, 0, 0))        # x^2: a zero discriminant at the root 0
@example((7, 0, 1))          # x^2 + 1: the discriminant -4 is no square mod 7
@example((13, 0, 11))        # x^2 - 2: the discriminant 8 is no square mod 13
@example((13, 0, 12))        # x^2 - 1: two roots, 1 and 12
def test_quadratic_roots_equal_evaluation(case):
    ell, b, c = case
    assert chartab._poly_roots([c, b, 1], ell) == [
        t for t in range(ell) if (t * t + b * t + c) % ell == 0]


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        character_table(cyclic(30), budget=Budget(max_order=20))


def test_determinism_under_generator_permutation():
    g1 = perm_group(4, "(1 2)", "(1 2 3 4)")
    g2 = perm_group(4, "(1 2 3 4)", "(1 2)", "(1 3 2 4)")
    t1, t2 = character_table(g1), character_table(g2)
    assert t1.values == t2.values
    assert t1.classes.representatives == t2.classes.representatives
    assert t1.digest() == t2.digest()


def test_direct_product_table_equals_direct_table(s3_table):
    tc2 = character_table(cyclic(2))
    tp, (grp, _, _, _) = direct_product_table(s3_table, tc2)
    td = character_table(grp)
    assert tp.values == td.values
    assert tp.degrees == (1, 1, 1, 1, 2, 2)
    d8c3 = direct_product_table(character_table(dihedral(8)),
                                character_table(cyclic(3)))[0]
    direct = character_table(d8c3.group)
    assert d8c3.values == direct.values


@pytest.mark.parametrize("factors", [("S3", "C2"), ("D8", "C3")])
def test_direct_product_classes_equal_scanned_classes(factors, s3, d8):
    # the classes listed from the factors' classes in nested order, with no
    # sort, are those that a fresh group on the same generators scans
    groups = {"S3": s3, "D8": d8, "C2": cyclic(2), "C3": cyclic(3)}
    ta, tb = (character_table(groups[name]) for name in factors)
    grp = direct_product_table(ta, tb)[0].group
    fresh = PermGroup(grp.degree, grp.gens, check=False)
    assert fresh._classes is None
    assert grp.conjugacy_classes().classes == fresh.conjugacy_classes().classes


def test_class_fusion_examples(d8, s3):
    z = d8.center()
    fus = class_fusion(z, d8)
    assert len(fus) == 2 and len(set(fus)) == 2
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    fus2 = class_fusion(a3, s3)
    assert len(fus2) == 3 and len(set(fus2)) == 2


def test_fusion_requires_subgroup(s3, d8):
    with pytest.raises(NotASubgroup):
        class_fusion(s3, d8)


def test_induction_from_a3(s3, s3_table):
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    ta3 = character_table(a3)
    fus = class_fusion(a3, s3)
    ind = induce(row_function(ta3, 0), s3_table.classes, fus)
    assert ind.values == (rational(2), rational(0), rational(2))
    # 1_H^G = trivial + sign
    mults = decompose(s3_table, ind)
    assert mults == [1, 1, 0]
    assert inner_product(ind, row_function(s3_table, 0)) == 1


def test_fully_ramified_induction_on_d8(d8, d8_table):
    z = d8.center()
    tz = character_table(z)
    fus = class_fusion(z, d8)
    lam = row_function(tz, 1)
    ind = induce(lam, d8_table.classes, fus)
    mults = decompose(d8_table, ind)
    assert mults == [0, 0, 0, 0, 2]     # lambda^G = 2 chi for the degree-2 chi
    assert d8_table.degrees[4] == 2


def test_restriction_of_trivial(s3, s3_table):
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    ta3 = character_table(a3)
    fus = class_fusion(a3, s3)
    res = restrict(row_function(s3_table, 0), ta3.classes, fus)
    assert all(v == ONE for v in res.values)


def test_frobenius_reciprocity(s4):
    d8_sub = s4.subgroup([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    t_sub = character_table(d8_sub)
    t_big = character_table(s4)
    fus = class_fusion(d8_sub, s4)
    for i in range(len(t_sub)):
        theta = row_function(t_sub, i)
        ind = induce(theta, t_big.classes, fus)
        for j in range(len(t_big)):
            chi = row_function(t_big, j)
            lhs = inner_product(ind, chi)
            rhs = inner_product(theta, restrict(chi, t_sub.classes, fus))
            assert lhs == rhs


def test_inner_product_rows_orthonormal(sl25_table):
    for i in (0, 3, 8):
        assert inner_product(row_function(sl25_table, i),
                             row_function(sl25_table, i)) == 1


def test_golden_files(s3_table, d8_table):
    for name, table in [("s3", s3_table), ("d8", d8_table)]:
        path = os.path.join(GOLDEN, f"{name}_table.json")
        blob = json.dumps(table.to_json(), indent=1, sort_keys=True) + "\n"
        with open(path) as fh:
            assert fh.read() == blob, f"golden table mismatch for {name}"


_TABLE_CHECKS_UNDER_O = """
import sys
from ctlab import chartab
from ctlab.cyclo import ONE
from ctlab.errors import VerificationFailed
from ctlab.permgroup import ClassData, PermGroup

assert sys.flags.optimize
raised = []
s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])

def expect(name, fn):
    try:
        fn()
    except VerificationFailed as exc:
        raised.append(name + ":" + str(exc).replace(" ", "_"))

real = chartab._echelonize
chartab._echelonize = lambda rows, ell: (lambda out: (out[0], out[1][::-1]))(
    real(rows, ell))
expect("invariant", lambda: chartab.character_table(s3))
chartab._echelonize = real
real = chartab._poly_roots
chartab._poly_roots = lambda poly, ell: []
expect("splitting", lambda: chartab.character_table(s3))
chartab._poly_roots = real
expect("trivial", lambda: chartab._sorted_rows([[ONE], [ONE]]))
# class lists that miss an element of G: one too few base-image keys
short = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
cd = short.conjugacy_classes()
short._classes = ClassData(short, [c[:-1] if len(c) == 3 else c
                                   for c in cd.classes], cd.element_orders)
expect("keys", lambda: chartab.character_table(short))
print(" ".join(raised))
"""


def test_table_checks_survive_python_O():
    src = str(Path(character_table.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _TABLE_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == [
        "invariant:space_not_invariant", "splitting:splitting_incomplete",
        "trivial:exactly_one_trivial_character_expected",
        "keys:5_base-image_keys_in_the_class_lists_of_a_group_of_order_6"]


_CLASS_FUNCTION_CHECKS_UNDER_O = """
import sys
from ctlab.chartab import ClassFunction, inner_product
from ctlab.errors import ClassDataMismatch
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []
s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)]).conjugacy_classes()
other = PermGroup(3, [(1, 0, 2), (1, 2, 0)]).conjugacy_classes()
a, b = ClassFunction(s3, [1, 1, 1]), ClassFunction(other, [1, 1, 1])

def expect(name, fn):
    try:
        fn()
    except ClassDataMismatch:
        raised.append(name)

expect("length", lambda: ClassFunction(s3, [1, 1]))
expect("add", lambda: a + b)
expect("sub", lambda: a - b)
expect("inner", lambda: inner_product(a, b))
print(" ".join(raised))
"""


def test_class_function_checks_survive_python_O():
    src = str(Path(character_table.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CLASS_FUNCTION_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["length", "add", "sub", "inner"]
