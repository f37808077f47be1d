import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ctlab
import ctlab.permgroup
import oracles
from ctlab.chartab import character_table, direct_product_table
from ctlab.errors import BudgetExceeded, InvalidPermutation, NotASubgroup, \
    NotNormal, NotSolvable, VerificationFailed
from ctlab.forge import central_product_power, cyclic, elem_abelian
from ctlab.gagola import _chief_step, gagola_tower
from ctlab.homs import GroupHom
from ctlab.permgroup import SCAN_LIMIT, PermGroup, StabilizerChain, \
    _normalizing, direct_power, direct_product, group_from_generators, \
    key_getter, verify_chain
from ctlab.perms import order as porder, parse_cycles, pmul

from conftest import perm_group, small_groups


def test_s3_from_generators(s3):
    assert s3.order == 6
    assert parse_cycles("(1 3)", 3) in s3
    assert parse_cycles("(1 2 3)", 3) in s3


def test_trivial_group():
    t = group_from_generators(1, [])
    assert t.order == 1 and t.elements() == [(0,)]


def test_sl25_order_by_brute_closure(sl25):
    # independent oracle: plain BFS closure of the generator set
    assert len(oracles.closure(sl25.degree, sl25.gens)) == 120
    assert sl25.order == 120


def test_invalid_generator_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_generators(3, [(0, 0, 1)])


def test_public_constructor_takes_no_order_claim():
    # the order comes from the chain; a caller cannot claim one
    s3_gens = [(1, 0, 2), (1, 2, 0)]
    assert group_from_generators(3, s3_gens).order == 6
    with pytest.raises(TypeError):
        group_from_generators(3, s3_gens, known_order=3)
    with pytest.raises(TypeError):
        PermGroup(3, s3_gens, known_order=3)
    with pytest.raises(TypeError):
        PermGroup(3, s3_gens).subgroup(s3_gens[:1], known_order=2)


def test_class_data_s3(s3):
    cd = s3.conjugacy_classes()
    assert cd.sizes == [1, 3, 2]
    assert cd.element_orders == [1, 2, 3]
    assert cd.representatives[0] == s3.identity
    assert sum(cd.sizes) == 6
    assert all(s * c == 6 for s, c in zip(cd.sizes, cd.centralizer_orders))


def test_class_count_q8_and_sl25(q8, sl25):
    # oracle: brute-force conjugation partition
    assert len(oracles.conjugacy_partition(oracles.closure(q8.degree, q8.gens))) == 5
    assert len(q8.conjugacy_classes()) == 5
    assert len(sl25.conjugacy_classes()) == 9


def test_class_representatives_are_least_members(d8):
    cd = d8.conjugacy_classes()
    for rep, cls in zip(cd.representatives, cd.classes):
        assert rep == min(cls)


def test_classes_independent_of_generators(s4):
    other = perm_group(4, "(1 2 3 4)", "(1 2)", "(3 4)")
    assert other.order == 24
    cd1 = s4.conjugacy_classes()
    cd2 = other.conjugacy_classes()
    assert cd1.representatives == cd2.representatives
    assert cd1.sizes == cd2.sizes


def test_structure_queries_s3(s3):
    assert s3.center().order == 1
    assert s3.is_solvable()
    assert s3.p_core(2).order == 1
    assert s3.p_prime_core(2).order == 3


def test_structure_queries_q8(q8):
    assert q8.p_core(2).order == 8
    assert q8.p_prime_core(2).order == 1


def test_center_matches_oracle(d8, q8, s4, s3):
    # the centre is read off the classes: scanned ones for d8, q8 and s4,
    # and those direct_product_table lists from the factors' classes
    product = direct_product_table(character_table(s3), character_table(d8))[0].group
    for g in (d8, q8, s4, product):
        elems = oracles.closure(g.degree, g.gens)
        assert set(g.center().elements()) == oracles.center(elems)


def test_derived_series_and_solvability(s4, a5):
    series = s4.derived_series()
    assert [g.order for g in series] == [24, 12, 4, 1]
    assert s4.is_solvable()
    assert not a5.is_solvable()


def test_sylow_subgroups(s3, sl25):
    assert s3.sylow_subgroup(3).order == 3
    assert s3.sylow_subgroup(2).order == 2
    assert s3.sylow_subgroup(5).order == 1
    syl2 = sl25.sylow_subgroup(2)
    assert syl2.order == 8
    # exactly one involution: the quaternion group among order-8 groups
    assert sum(1 for e in syl2.elements() if porder(e) == 2) == 1


def test_sylow_of_order72_is_normal_c3sq(build72):
    g = build72.group
    syl = g.sylow_subgroup(3)
    assert syl.order == 9
    assert g.is_normal(syl)
    assert syl.exponent() == 3


def test_sylow_orders_match_p_part_on_corpus(corpus):
    for name, g in corpus:
        if g.order > 100:
            continue
        for p in (2, 3, 5):
            assert g.sylow_subgroup(p).order == oracles.p_part(g.order, p), name


def test_quotient_s3(s3):
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    qr = s3.quotient(a3)
    assert qr.group.order == 2
    hom = GroupHom(qr.source, qr.group, qr.gen_images)
    assert hom.image(parse_cycles("(1 2)", 3)) != qr.group.identity
    assert hom.kernel().order == 3


def test_coset_action_on_a_non_normal_subgroup(s4):
    s3 = s4.subgroup([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    qr = s4.coset_action(s3)
    assert qr.group.degree == 4 and qr.group.order == 24
    for w in qr.group.elements():
        assert qr.image_of(qr.lift(w)) == w
    with pytest.raises(NotASubgroup):
        s4.coset_action(group_from_generators(3, [(1, 0, 2)]))


def test_quotient_requires_normal(s4):
    h = s4.subgroup([parse_cycles("(1 2)", 4)])
    with pytest.raises(NotNormal):
        s4.quotient(h)


def test_quotient_of_power_by_diagonal():
    # K^2 / W for K = C2 with W the product-one kernel: a hand trace
    cpp = central_product_power(cyclic(2), 2)
    assert cpp.group.order == 2
    assert cpp.w_subgroup.order == 2


def test_d8_central_quotient(d8):
    qr = d8.quotient(d8.center())
    assert qr.group.order == 4
    assert qr.group.exponent() == 2  # C2 x C2


def test_quotient_order_multiplies_back(corpus):
    for name, g in corpus:
        if g.order > 60 or g.order == 1:
            continue
        der = g.derived_subgroup()
        if 1 < der.order < g.order:
            qr = g.quotient(der)
            assert qr.group.order * der.order == g.order, name


def test_p_length_examples(s4, build864):
    assert cyclic(5).p_length(5) == 1
    assert cyclic(6).p_length(5) == 0
    assert s4.p_length(2) == 2
    assert s4.p_length(3) == 1
    assert build864.group.p_length(2) == 2


def test_p_length_requires_solvable(a5):
    with pytest.raises(NotSolvable):
        a5.p_length(2)


def test_p_length_generator_invariance():
    g1 = perm_group(4, "(1 2)", "(1 2 3 4)")
    g2 = perm_group(4, "(3 4)", "(1 3)(2 4)", "(1 2 3 4)")
    assert g2.order == 24
    assert g1.p_length(2) == g2.p_length(2) == 2


def test_core_rejection_drops_no_candidate(corpus, build864, monkeypatch):
    # _core stops growing a candidate once its index fails; growing every
    # candidate in full and asking keep once, at the end, must take the same
    # cores, with the same generators, also over A in the upper p-series
    real_grow = ctlab.permgroup._grow_normal
    real_core = PermGroup._core
    groups = [g for _, g in corpus] + [build864.group]

    def cores():
        seen = []

        def recording(self, pi_part, above=None):
            core = real_core(self, pi_part, above)
            seen.append(core.gens)
            return core

        monkeypatch.setattr(PermGroup, "_core", recording)
        for grp in groups:
            g = PermGroup(grp.degree, grp.gens, check=False)
            for p in (2, 3):
                g.p_core(p)
                g.p_prime_core(p)
                if g.is_solvable():
                    g.p_length(p)
        monkeypatch.setattr(PermGroup, "_core", real_core)
        return seen

    def full_growth(chain, elems, gens, keep=None):
        taken = real_grow(chain, elems, gens)
        return taken if keep is None or keep(chain.order()) else None

    pruned = cores()
    monkeypatch.setattr(ctlab.permgroup, "_grow_normal", full_growth)
    assert len(pruned) > 4 * len(groups)
    assert cores() == pruned


def test_p_prime_core_contains_every_normal_p_prime_closure(corpus):
    # Every normal p'-subgroup is a join of single-class normal closures,
    # so containment of those closures verifies maximality.
    for name, g in corpus:
        if g.order > 100:
            continue
        for p in (2, 3):
            core = g.p_prime_core(p)
            assert core.order % p != 0
            assert g.is_normal(core)
            for rep in g.conjugacy_classes().representatives:
                ncl = g.normal_closure([rep])
                if ncl.order % p != 0:
                    assert ncl.is_subgroup_of(core), name


def test_membership_matches_enumeration_small(corpus):
    for name, g in corpus:
        if g.order > 200:
            continue
        elems = oracles.closure(g.degree, g.gens)
        assert len(elems) == g.order, name
        for x in list(sorted(elems))[:25]:
            assert x in g, name


_PERM_AND_POINTS = st.permutations(range(7)).map(tuple).flatmap(
    lambda x: st.tuples(st.just(x), st.lists(st.integers(0, 6), max_size=6)))


@settings(max_examples=80, deadline=None)
@given(_PERM_AND_POINTS)
# no point (the trivial group's key), one point, and repeated points
@example(((1, 0, 2), []))
@example(((1, 2, 0), [2]))
@example(((2, 0, 1), [1, 1, 0]))
def test_key_getter_reads_a_tuple_at_any_number_of_points(case):
    x, points = case
    key = key_getter(points)(x)
    assert type(key) is tuple and key == tuple(x[b] for b in points)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(6)).map(tuple), min_size=1, max_size=3))
def test_random_small_groups_agree_with_oracle(gens):
    g = PermGroup(6, gens)
    elems = oracles.closure(6, gens)
    assert g.order == len(elems)
    assert 720 % g.order == 0
    cd = g.conjugacy_classes()
    assert sum(cd.sizes) == g.order
    assert len(cd) == len(oracles.conjugacy_partition(elems))


@settings(max_examples=80, deadline=None)
@given(small_groups(), st.sampled_from([2, 3]))
# G/G'G^q of rank 2, where the chief step has a kernel to choose
@example(perm_group(4, "(1 2)", "(3 4)"), 2)
@example(perm_group(6, "(1 2 3)", "(4 5 6)"), 3)
@example(perm_group(7, "(1 2 3 4)", "(1 3)", "(5 6 7)", "(5 6)"), 2)
def test_cores_p_length_and_chief_step_agree_with_oracles(g, p):
    from ctlab.cyclo import prime_factors

    elems = oracles.closure(g.degree, g.gens)
    trivial = {g.identity}
    assert set(g.p_core(p).elements()) == oracles.pi_core_over(
        elems, trivial, lambda n: oracles.p_part(n, p) == n)
    assert set(g.p_prime_core(p).elements()) == oracles.pi_core_over(
        elems, trivial, lambda n: n % p != 0)
    if g.order == 1 or not g.is_solvable():
        return
    assert g.p_length(p) == oracles.p_length(elems, p)
    q, m = _chief_step(g, p)
    primes = prime_factors(len(elems) // len(
        oracles.commutator_subgroup(elems, g.gens)))
    assert q == (p if p in primes else max(primes))
    assert m.elements() == list(oracles.index_q_kernels(elems, g.gens, q)[0])


def test_normalizer_and_centralizer(d8, s4):
    z = d8.center()
    assert len(list(_normalizing(d8, z))) == 8
    assert d8.centralizer_of_subgroup(z).order == 8
    c2 = s4.subgroup([parse_cycles("(1 2)", 4)])
    assert len(list(_normalizing(s4, c2))) == 4
    assert s4.centralizer_of_subgroup(c2).order == 4


def test_extend_resifts_after_the_transversal_changes():
    # (1 3) shortens the breadth-first tree of 0 under the 5-cycle, so
    # u_3 changes from s^3 to s*r; the Schreier generators sifted with the
    # old u_3 must be sifted again, or the chain stops at order 30.
    s, r = (1, 2, 3, 4, 0), (0, 3, 2, 1, 4)
    chain = StabilizerChain(5, [s])
    assert chain.contains(pmul(pmul(s, s), s))    # caches u_3^-1 = s^-3
    assert chain.extend(r)
    assert chain.order() == 120
    assert not chain.extend(pmul(r, s))
    assert chain.order() == 120
    # each cached inverse belongs to the transversal element stored now
    assert all(pmul(lvl.orbit[t], inv) == chain.identity
               for lvl in chain.levels for t, inv in lvl.inverses.items())


def test_from_base_images_rebuilds_each_element(s4, d8):
    for g in (s4, d8):
        chain = g.chain
        for x in g.elements():
            assert chain.from_base_images([x[b] for b in chain.base]) == x
    # no element sends two base points to one point
    base = s4.chain.base
    assert len(base) > 1
    assert s4.chain.from_base_images([base[0]] * len(base)) is None


def test_subgroup_from_elements_builds_one_chain(s4, monkeypatch):
    # The chain that picks the generators is the subgroup's own chain.
    built = []
    real = StabilizerChain.__init__
    monkeypatch.setattr(StabilizerChain, "__init__",
                        lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    h = s4.subgroup_from_elements(s4.elements())
    assert len(built) == 1
    monkeypatch.undo()
    assert h.order == 24 and h.chain.order() == 24
    rebuilt = PermGroup(4, h.gens)
    assert h.chain.base == rebuilt.chain.base
    assert [l.orbit for l in h.chain.levels] == \
        [l.orbit for l in rebuilt.chain.levels]


def test_chain_gens_are_the_generators_that_enlarge_the_chain(s4):
    # (1 3 2) = (1 2 3)^2 adds nothing, so the chain, the key closure and
    # the class scan run over the other two generators
    g = perm_group(3, "(1 2)", "(1 2 3)", "(1 3 2)")
    assert g.chain_gens == g.gens[:2]
    assert g.conjugacy_classes().classes == \
        perm_group(3, "(1 2)", "(1 2 3)").conjugacy_classes().classes
    h = s4.subgroup_from_elements(s4.elements())
    assert h.chain_gens == h.gens


def _chain_levels(chain):
    return [(lvl.base, list(lvl.orbit.items())) for lvl in chain.levels]


def _mapped_levels(factors):
    """The chain levels of the product of ``factors`` as their own levels,
    each factor moved onto the points after those of the factors before
    it."""
    degree = sum(f.degree for f in factors)
    levels, offset = [], 0
    for f in factors:
        head, tail = tuple(range(offset)), tuple(range(offset + f.degree, degree))
        levels += [(lvl.base + offset,
                    [(t + offset, head + tuple(offset + x for x in u) + tail)
                     for t, u in lvl.orbit.items()])
                   for lvl in f.chain.levels]
        offset += f.degree
    return levels


def test_product_chains_equal_the_built_chains(corpus, monkeypatch):
    # A x B and A^q assemble their chains from the factors' chains: each
    # product has its factors' levels, mapped in.  Where the factors' chains
    # are Schreier-Sims's, as in the corpus, a Schreier-Sims on the same
    # generators builds the same base, orbit points in order and transversal
    # elements, and keeps the same generators; a tower's factors may carry
    # assembled chains, so there the rebuilt chain is checked only to list
    # the same group.  The towers' L = K x C_q (augmented steps), K^q and
    # N = U x C_q are taken as the steps build them.
    built = []

    def recorded(real, factors):
        def run(*args):
            out = real(*args)
            built.append((out[0], factors(*args)))
            return out
        return run

    monkeypatch.setattr(ctlab.gagola, "direct_product", recorded(
        ctlab.gagola.direct_product, lambda a, b: [a, b]))
    monkeypatch.setattr(ctlab.forge, "direct_power", recorded(
        ctlab.forge.direct_power, lambda a, q: [a] * q))
    gagola_tower(perm_group(3, "(1 2)", "(1 2 3)"), 5)
    gagola_tower(cyclic(6), 2)
    monkeypatch.undo()
    assert sorted(g.order for g, _ in built) == [3, 3, 9, 9, 27, 27, 54, 729,
                                                 972, 2916]
    s3 = perm_group(3, "(1 2)", "(1 2 3)")
    corpus_products = []
    for _name, k in corpus:
        corpus_products += [(direct_product(k, s3)[0], [k, s3]),
                            (direct_product(cyclic(2), k)[0], [cyclic(2), k])]
        if k.order <= 60:
            corpus_products.append((direct_power(k, 2)[0], [k] * 2))
        if k.order <= 8:
            corpus_products.append((direct_power(k, 3)[0], [k] * 3))
    for i, (g, factors) in enumerate(built + corpus_products):
        assert _chain_levels(g.chain) == _mapped_levels(factors), g
        rebuilt = PermGroup(g.degree, g.gens, check=False)
        if i >= len(built):
            assert _chain_levels(g.chain) == _chain_levels(rebuilt.chain), g
            assert g.chain_gens == rebuilt.chain_gens, g
        assert g.order == rebuilt.order
        if g.order <= 5000:
            assert g.elements() == rebuilt.elements(), g


def test_element_orders_are_read_off_the_keys(corpus):
    for name, g in corpus:
        cd = g.conjugacy_classes()
        assert cd.element_orders == [porder(r) for r in cd.representatives], \
            name


def test_element_scans_share_one_bound():
    # Every scan lists the elements first, so all of them report the same
    # BudgetExceeded (exit code 3) before allocating.
    g = elem_abelian(2, 16)
    assert g.order > SCAN_LIMIT
    trivial = g.subgroup([])
    for scan in (lambda: next(_normalizing(g, trivial)),
                 lambda: g.centralizer_of_subgroup(trivial), g.center):
        with pytest.raises(BudgetExceeded):
            scan()
    assert g._elements is None


def test_centralizer_and_normalizer_match_oracles_on_corpus(corpus):
    for name, g in corpus:
        elems = g.elements()
        cd = g.conjugacy_classes()
        subgroups = [g.subgroup([r]) for r in cd.representatives]
        subgroups += [g.derived_subgroup(), g.center()]
        for h in subgroups:
            hs = h.elements()
            assert set(g.centralizer_of_subgroup(h).elements()) == \
                oracles.centralizer(elems, hs), name
            normal = list(_normalizing(g, h))
            assert normal == sorted(normal), name
            assert set(normal) == oracles.normalizer(elems, hs), name


def test_scans_require_a_subgroup(a4):
    c2 = group_from_generators(4, [parse_cycles("(1 2)", 4)])
    with pytest.raises(NotASubgroup):
        a4.centralizer_of_subgroup(c2)
    with pytest.raises(NotASubgroup):
        next(_normalizing(a4, c2))


def test_classes_make_no_full_degree_products(build864, monkeypatch):
    # Classes are orbits of base-image keys: once the elements are listed,
    # conjugation reads |base| points and multiplies no permutations.
    grp = build864.group
    g = PermGroup(grp.degree, grp.gens, check=False)
    g.elements()
    calls = []
    for name in ("pmul", "pinv"):
        real = getattr(ctlab.permgroup, name)
        monkeypatch.setattr(ctlab.permgroup, name,
                            lambda *a, real=real: calls.append(1) or real(*a))
    cd = g.conjugacy_classes()
    assert calls == []
    monkeypatch.undo()
    assert cd.classes == grp.conjugacy_classes().classes


def test_elements_make_at_most_one_product_per_chain_element(build864,
                                                             monkeypatch):
    # Listing, with the generators' sifts, makes at most one product per
    # element of the chain's G_0 > G_1 > ..., where closing G under its
    # generators made |G| |gens|; the chain check makes at most k - i + 1
    # per Schreier pair of level i (u_t s, the Schreier generator, and one
    # per level it sifts through).
    grp = build864.group
    g = PermGroup(grp.degree, grp.gens, check=False)
    levels = g.chain.levels
    k = len(levels)
    orbits = [len(l.orbit) for l in levels]
    strong = [len(set().union(*(l.gens for l in levels[i:]))) for i in range(k)]
    listing_bound = sum(prod(orbits[i:]) for i in range(k))
    check_bound = sum(orbits[i] * strong[i] * (k - i + 1) for i in range(k))
    calls, in_check = [], []
    real_pmul, real_verify = ctlab.permgroup.pmul, ctlab.permgroup.verify_chain

    def counting_verify(chain):
        before = len(calls)
        real_verify(chain)
        in_check.append(len(calls) - before)

    monkeypatch.setattr(ctlab.permgroup, "pmul",
                        lambda a, b: calls.append(1) or real_pmul(a, b))
    monkeypatch.setattr(ctlab.permgroup, "verify_chain", counting_verify)
    elems = g.elements()
    monkeypatch.undo()
    assert len(in_check) == 1
    assert len(calls) - in_check[0] <= listing_bound
    assert in_check[0] <= check_bound
    assert elems == grp.elements()


def _drop_strong_generator(levels):
    levels[0].gens.pop(0)


def _swap_transversal(levels):
    orbit = levels[0].orbit
    orbit[1], orbit[2] = orbit[2], orbit[1]


def _foreign_transversal(levels):
    # still maps the base point to 4, but u_4 (1 2) is not in the level's
    # group, so a Schreier generator fails to sift
    orbit = levels[-1].orbit
    orbit[4] = pmul(orbit[4], (1, 0, 2, 3, 4))


@pytest.mark.parametrize("tamper", [_drop_strong_generator, _swap_transversal,
                                    _foreign_transversal])
def test_verify_chain_rejects_a_tampered_chain(tamper):
    g = PermGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    verify_chain(g.chain)
    tamper(g.chain.levels)
    with pytest.raises(VerificationFailed):
        verify_chain(g.chain)
    with pytest.raises(VerificationFailed):
        g.elements()
    assert g._elements is None


_CHAIN_CHECKS_UNDER_O = """
import sys
from ctlab.errors import VerificationFailed
from ctlab.permgroup import PermGroup, verify_chain
from ctlab.perms import pmul

assert sys.flags.optimize
raised = []

def tampered(name, tamper):
    g = PermGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    tamper(g.chain.levels)
    for fn in (lambda: verify_chain(g.chain), g.elements):
        try:
            fn()
        except VerificationFailed:
            raised.append(name)

def swap(levels):
    orbit = levels[0].orbit
    orbit[1], orbit[2] = orbit[2], orbit[1]

def foreign(levels):
    orbit = levels[-1].orbit
    orbit[4] = pmul(orbit[4], (1, 0, 2, 3, 4))

tampered("drop", lambda levels: levels[0].gens.pop(0))
tampered("swap", swap)
tampered("foreign", foreign)
print(" ".join(raised))
"""


def test_chain_checks_survive_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(ctlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _CHAIN_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    assert out.stdout.split() == ["drop", "drop", "swap", "swap",
                                  "foreign", "foreign"]


_CHECKS_UNDER_O = """
import sys
from ctlab.errors import VerificationFailed
import ctlab.permgroup
from ctlab.forge import dihedral
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []

def expect(name, fn, match=""):
    try:
        fn()
    except VerificationFailed as exc:
        if match in str(exc):
            raised.append(name)

s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
# the key closure runs over chain_gens, so a generator list cut short
# after construction is caught by the subset test
short = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
short.gens = short.gens[:1]
expect("elements", short.elements, "among the group's generators")
# and chain_gens cut short reach too few keys
short = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
short.chain_gens = short.chain_gens[:1]
expect("closure", short.elements, "base-image keys")
real = PermGroup.subgroup
PermGroup.subgroup = lambda self, gens: self if not gens else real(self, gens)
expect("core", lambda: s3.p_core(2))
PermGroup.subgroup = lambda self, gens: real(self, gens[:1])
expect("sylow_step", lambda: dihedral(8).sylow_subgroup(2))
PermGroup.subgroup = real
real = PermGroup._core
PermGroup._core = lambda self, pi_part, above=None: above or self.subgroup([])
expect("p_length", lambda: s4.p_length(2))
PermGroup._core = real
ctlab.permgroup._normalizing = lambda group, h: iter(())
expect("sylow", lambda: dihedral(8).sylow_subgroup(2))
print(" ".join(raised))
"""


def test_permgroup_checks_survive_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(ctlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    assert out.stdout.split() == ["elements", "closure", "core", "sylow_step",
                                  "p_length", "sylow"]
