import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ctlab.chartab import character_table, fusion_through_hom
from ctlab.cyclo import rational, zeta
from ctlab.errors import Budget, DegenerateStep, NotSolvable, VerificationFailed
from ctlab.forge import CentralPowerResult, cyclic, dihedral
from ctlab.homs import GroupHom
from ctlab.gagola import (_base_level, _chief_step, _mu_value_function,
                          _predicted_order, gagola_step, gagola_tower)
from ctlab.modrep import (brauer_data, brauer_induce, brauer_kernel_trivial,
                          faithful_brauer_values, p_regular_classes)
from ctlab.permgroup import PermGroup, direct_product, p_prime_part
from ctlab.perms import order as porder, pinv, pmul, ppow
from ctlab.reproduce import CHECKS, _tower


def test_chief_step_prefers_p():
    c6 = cyclic(6)
    q, m = _chief_step(c6, 2)
    assert q == 2 and m.order == 3
    q, m = _chief_step(c6, 5)
    assert q == 3 and m.order == 2


def test_tower_c2_p3(tower_c2_p3):
    cert = tower_c2_p3
    assert cert.tower.order == 8
    assert cert.center.order == 2
    assert cert.witness_degree == 2
    assert cert.ok
    assert all(v["holds"] for v in cert.properties.values())
    assert cert.steps[0].eq3["holds"]


def test_tower_c3_p3_degenerates():
    with pytest.raises(DegenerateStep) as info:
        gagola_tower(cyclic(3), 3)
    assert info.value.level == 0


def test_tower_cp_degenerates_for_any_p():
    with pytest.raises(DegenerateStep):
        gagola_tower(cyclic(2), 2)
    with pytest.raises(DegenerateStep):
        gagola_tower(cyclic(4), 2)


def test_tower_requires_solvable(a5):
    with pytest.raises(NotSolvable):
        gagola_tower(a5, 5)


def test_tower_c6_p2_goes_through_green_extension(tower_c6_p2):
    cert = tower_c6_p2
    assert cert.tower.order == 486
    assert cert.center.order == 3
    assert cert.witness_degree == 9
    assert cert.ok
    cases = [s.case for s in cert.steps]
    assert cases == ["q!=p", "q=p"]
    assert cert.steps[1].witness_method == "green-extension"
    prop = cert.properties["faithful_witness_with_square_degree"]
    assert prop["method"] == "carried-witness"


def _last_level(monkeypatch, g, p):
    """The last level of the tower of g at p, as the certificate got it,
    and the real certificate check."""
    from ctlab import gagola

    levels = []
    real = gagola._verify_certificate
    monkeypatch.setattr(gagola, "_verify_certificate", lambda g_grp, p, level: (
        levels.append(level) or real(g_grp, p, level)))
    assert gagola_tower(g, p).ok
    return levels[0], real


def test_certificate_rechecks_the_carried_witness(monkeypatch):
    # at a p-divisible level the certificate checks the witness the last
    # step carried: a wrong degree or a non-faithful row fails it
    c6 = cyclic(6)
    level, verify = _last_level(monkeypatch, c6, 2)

    def witness_property(values):
        copy = replace(level, mu_values=values)
        return verify(c6, 2, copy)["faithful_witness_with_square_degree"]

    prop = witness_property(level.mu_values)
    assert prop["holds"] and prop["degree"] == 9
    # twice the witness is faithful, but 18^2 is not |H : Z|_2' = 81
    prop = witness_property(tuple(2 * v for v in level.mu_values))
    assert prop["holds"] is False and prop["degree"] == 18
    # nine times the trivial character has degree 9 and the whole kernel
    prop = witness_property(tuple(rational(9) for _ in level.mu_values))
    assert prop["holds"] is False and prop["degree"] == 9


def test_certificate_rejects_a_section_that_is_no_homomorphism(monkeypatch):
    # the two generator images of S3 swapped span the same image, so only
    # the order of the graph in G x H tells that the map is not one
    s3 = _SOURCES["S3"]()
    level, verify = _last_level(monkeypatch, s3, 5)
    a, b = s3.gens
    swapped = {a: level.embed(b), b: level.embed(a)}
    prop = verify(s3, 5, replace(level, embed=swapped.get))[
        "embedding_into_central_quotient"]
    assert prop == {"holds": False, "image_order": 6}


def test_certificate_rejects_a_section_that_is_not_injective(monkeypatch):
    # g -> embed(g)^2 is a homomorphism C6 -> H/Z with image of order 3
    c6 = cyclic(6)
    level, verify = _last_level(monkeypatch, c6, 2)
    prop = verify(c6, 2, replace(level, embed=lambda g: ppow(level.embed(g), 2)))[
        "embedding_into_central_quotient"]
    assert prop == {"holds": False, "image_order": 3}


def test_tower_s3_p5(tower_s3_p5):
    cert = tower_s3_p5
    assert cert.tower.order == 1944
    assert cert.center.order == 6
    assert cert.witness_degree == 18
    assert cert.ok
    # both steps augmented and checked the central index identity
    for s in cert.steps:
        assert s.case == "q!=p" and s.augmented
        assert s.eq3["holds"]
    # 18^2 = |H : Z|_{5'}
    assert 18 * 18 == p_prime_part(1944 // 6, 5)


def test_tower_degrees(tower_s3_p5, tower_c6_p2):
    # U = K^q / W on the cosets of A^q W lets N : C_q take the induced action
    assert tower_s3_p5.tower.degree <= 112
    assert tower_c6_p2.tower.degree <= 54


@pytest.mark.parametrize("source, p", [("S3", 5), ("C6", 2), ("C2", 3),
                                       ("C3xC2", 3), ("C1", 7)])
def test_tower_section_embeds_into_the_central_quotient(source, p):
    # brute force over G: embed is a homomorphism modulo Z, and only the
    # identity lands in Z
    cert = gagola_tower(cyclic(1), p) if source == "C1" else _tower(source, p)
    g, embed = cert.source, cert.embed
    centre = set(cert.center.elements())
    elems = g.elements()
    for x in elems:
        for y in elems:
            defect = pmul(pmul(embed(x), embed(y)), pinv(embed(pmul(x, y))))
            assert defect in centre
    assert [x for x in elems if embed(x) in centre] == [g.identity]
    prop = cert.properties["embedding_into_central_quotient"]
    assert prop == {"holds": True, "image_order": g.order}


def test_tower_json(tower_c2_p3):
    data = tower_c2_p3.to_json()
    assert data["verified"] and data["tower_order"] == 8
    assert data["steps"][0]["index_identity"]["holds"]


def test_trivial_source_tower():
    cert = gagola_tower(cyclic(1), 7)
    assert cert.tower.order == 1 and cert.ok


def test_step_from_base_level_q2_p3_is_the_eight_group():
    level = _base_level()
    step = gagola_step(level, 2, 3)
    h = step.level.group
    assert h.order == 8
    assert h.center().order == 2
    assert step.record.augmented
    # |H : Z| = q^2 |K : Z(K)|^q with the augmented K = C_2
    assert step.record.eq3 == {"central_index": 4,
                               "q_squared_times_power": 4, "holds": True}


def _fusion_route_mu(prev, step, p):
    """The witness of a step by the route through N's own classes: tau x 1
    on the p-regular classes of N, fused into H along ``n_hom``, induced by
    ``brauer_induce`` when q != p and matched in IBr(H), from H's own
    table, when q = p."""
    ext, cpp, q = step.ext, step.cpp, step.q
    mu, k_deg = _mu_value_function(prev), prev.group.degree

    def theta(n):
        u = n[:cpp.group.degree]        # N = U x C_q when q != p
        val = rational(1)
        for c in cpp.split(cpp.quotient.lift(u)):
            # L = K x C_q when augmented: mu times a linear character of C_q
            val = val * (mu(c[:k_deg]) * zeta(q, c[k_deg] - k_deg)
                         if step.record.augmented else mu(c))
        return val

    n_cd = ext.n_group.conjugacy_classes()
    n_regular = p_regular_classes(n_cd, p)
    tau = [theta(n_cd.representatives[i]) for i in n_regular]
    h_level = step.level
    fusion = fusion_through_hom(ext.n_hom, n_cd, h_level.group)
    if q != p:
        return brauer_induce(tau, n_cd, n_regular, h_level.classes, fusion,
                             h_level.regular)
    bd = brauer_data(character_table(h_level.group), p, with_blocks=False)
    pos = {c: i for i, c in enumerate(bd.regular)}
    rows = [row for row in bd.ibr
            if all(row[pos[fusion[c]]] == v for c, v in zip(n_regular, tau))]
    assert len(rows) == 1
    return tuple(rows[0])


_SOURCES = {
    "S3": lambda: PermGroup(3, [(1, 0, 2), (1, 2, 0)]),
    "C6": lambda: cyclic(6), "C2": lambda: cyclic(2),
    "D8": lambda: dihedral(8),
    "C3xC2": lambda: direct_product(cyclic(3), cyclic(2))[0],
    "C5xC2": lambda: direct_product(cyclic(5), cyclic(2))[0],
    "C2xC5": lambda: direct_product(cyclic(2), cyclic(5))[0],
}


def _tower_steps(source, p):
    """(previous level, step) for each step of the tower of a named source
    at p, taken as ``gagola_tower`` takes them."""
    g = _SOURCES[source]()
    level, primes = _base_level(), []
    while g.order > 1:
        q, g = _chief_step(g, p)
        primes.append(q)
    for q in reversed(primes):
        step = gagola_step(level, q, p)
        yield level, step
        level = step.level


@pytest.mark.parametrize("source, p", [("S3", 5), ("C6", 2), ("C2", 3),
                                       ("D8", 3), ("C6", 3)])
def test_step_witness_matches_the_fusion_route(source, p):
    # each step reads tau x 1 on H's classes through the realization of H;
    # N's classes, the fusion along n_hom and brauer_induce are the reference
    cases = []
    for level, step in _tower_steps(source, p):
        assert step.level.mu_values == _fusion_route_mu(level, step, p)
        cases.append(step.record.case)
    assert "q!=p" in cases


@pytest.mark.parametrize("source, p", [("C2", 3), ("S3", 5), ("C6", 2),
                                       ("C3xC2", 3)])
def test_predicted_order_is_the_built_order(source, p):
    # the order that bounds a step before it builds anything is the order
    # of the level it builds, on every step of the shipped towers
    for level, step in _tower_steps(source, p):
        predicted = _predicted_order(level, step.q, p, step.record.augmented)
        assert predicted == step.level.group.order == step.record.group_order


@pytest.mark.parametrize("source, p, max_classes", [
    ("C6", 2, 150), ("S3", 2, 150), ("C3xC2", 3, 150), ("C5xC2", 5, 400),
    pytest.param("C2xC5", 2, 400, marks=pytest.mark.slow)])
def test_carried_witness_is_the_table_row(source, p, max_classes):
    # the table route as an oracle: on each p-divisible level, the witness
    # that Green's theorem gives is the one IBr row with its values, and
    # the table's faithfulness test agrees with the step's rule
    checked = []
    for _level, step in _tower_steps(source, p):
        h, values = step.level.group, step.level.mu_values
        if h.order % p:
            continue
        table = character_table(h, budget=Budget(max_classes=max_classes))
        bd = brauer_data(table, p, with_blocks=False)
        rows = [i for i, row in enumerate(bd.ibr) if tuple(row) == values]
        assert len(rows) == 1
        assert brauer_kernel_trivial(bd, rows[0])
        assert faithful_brauer_values(h, values, p)
        checked.append(step.record.witness_method)
    assert checked == ["green-extension"]


def _shift_images(level, step):
    """The images of N's generators under the shift, derived as a step
    derived them before the shift became a conjugation: each coordinate's
    generator goes to the next coordinate's, and y to z_0 y, z the first
    element of order q in Z(L)."""
    cpp, q, n = step.cpp, step.q, step.ext.n_group
    gens = cpp.quotient.gen_images
    k = len(gens) // q
    shifted = [gens[((i + 1) % q) * k + j] for i in range(q) for j in range(k)]
    if step.record.case == "q=p":
        return shifted
    l_grp = (direct_product(level.group, cyclic(q))[0] if step.record.augmented
             else level.group)
    z = next(x for x in l_grp.center().elements() if porder(x) == q)
    u_z = step.n_embed(cpp.quotient.image_of(cpp.embed_coordinate(0, z)))
    return [step.n_embed(w) for w in shifted] + [pmul(u_z, n.gens[-1])]


@pytest.mark.parametrize("source, p", [
    ("S3", 5), ("S3", 2), ("C6", 2), ("C6", 3), ("C2", 3), ("C3xC2", 3),
    pytest.param("C5xC2", 5, marks=pytest.mark.slow),
    pytest.param("D8", 3, marks=pytest.mark.slow)])
def test_assembled_level_matches_schreier_sims(source, p):
    # Schreier-Sims on the images of all of N's generators and t is the
    # oracle for the level the step assembles from N's chain on fewer
    # generators, and GroupHom on the shift's images for the conjugation
    for level, step in _tower_steps(source, p):
        ext = step.ext
        h, n = ext.group, ext.n_group
        ref = PermGroup(h.degree, ext.n_images + [ext.t_element])
        assert h.order == ref.order == step.record.group_order
        assert h.elements() == ref.elements()
        assert all(g in ref for g in h.gens) and all(g in h for g in ref.gens)
        shift = GroupHom(n, n, _shift_images(level, step))
        assert all(step.alpha(x) == shift.image(x) for x in n.elements())
        # q copies of N's domain, on |L.gens| + 2 generators when q != p and
        # |L.gens| + 1 when q = p
        assert h.degree == step.q * n.degree
        k = len(step.cpp.quotient.gen_images) // step.q
        assert len(h.gens) == k + (2 if step.record.case == "q!=p" else 1)


def test_a_wrong_rotation_is_refused(monkeypatch):
    # the q = p step over the eight group at p = 3 with the rotation taken
    # the other way round: it conjugates coordinate i into i - 1
    level = gagola_step(_base_level(), 2, 3).level
    real = CentralPowerResult.rotation
    monkeypatch.setattr(CentralPowerResult, "rotation",
                        lambda self: pinv(real(self)))
    with pytest.raises(VerificationFailed, match="does not induce the shift"):
        gagola_step(level, 3, 3)


def test_a_corrupted_assembled_chain_fails_before_its_order_is_read(monkeypatch):
    # the last step of the S3 tower at p = 5 with one transversal element
    # of H's first level times a transposition that fixes its point: the
    # orbits, and so the chain's order, are unchanged, and verify_chain
    # finds a Schreier generator that does not sift
    from ctlab import gagola

    level = gagola_step(_base_level(), 3, 5).level
    real = gagola.split_cyclic_extension
    orders = []

    def corrupted(*args):
        ext = real(*args)
        first = ext.group.chain.levels[0]
        point = max(first.orbit)
        a, b = [x for x in range(ext.group.degree) if x != point][-2:]
        swap = list(range(ext.group.degree))
        swap[a], swap[b] = b, a
        first.orbit[point] = pmul(first.orbit[point], tuple(swap))
        return ext

    monkeypatch.setattr(gagola, "split_cyclic_extension", corrupted)
    monkeypatch.setattr(gagola, "check_order",
                        lambda group, *args: orders.append(group.order))
    with pytest.raises(VerificationFailed, match="does not sift"):
        gagola_step(level, 2, 5)
    assert orders == []


_CHECKS_UNDER_O = """
import sys
from fractions import Fraction
from ctlab import gagola, modrep
from ctlab.chartab import character_table
from ctlab.cyclo import rational
from ctlab.errors import VerificationFailed
from ctlab.forge import cyclic, elem_abelian
from ctlab.permgroup import PermGroup

assert sys.flags.optimize
raised = []

def expect(name, fn, match=""):
    try:
        fn()
    except VerificationFailed as exc:
        if match in str(exc):
            raised.append(name)

real = gagola.inner_product
gagola.inner_product = lambda a, b: 2
expect("irreducible", lambda: gagola.gagola_tower(cyclic(2), 3))
gagola.inner_product = real
real = gagola.p_prime_part
gagola.p_prime_part = lambda n, p: 0
expect("degree_square", lambda: gagola.gagola_tower(cyclic(2), 3))
gagola.p_prime_part = real
real = gagola.faithful_brauer_values
gagola.faithful_brauer_values = lambda group, values, p: False
expect("faithful", lambda: gagola.gagola_tower(cyclic(6), 2), "not faithful")
gagola.faithful_brauer_values = real
# the q = p step of the C6 tower at p = 2 with tau x 1 doubled on every
# second call: the values at h and t^-1 h t then differ
level = gagola.gagola_step(gagola._base_level(), 3, 2).level
real, calls = gagola.rational, []
gagola.rational = lambda x: calls.append(1) or real(x * (1 + len(calls) % 2))
expect("shift", lambda: gagola.gagola_step(level, 2, 2), "under the shift")
gagola.rational = real
# the same step with every class of H taken for 2-regular: the class of t
# lies outside N
real = gagola.p_regular_classes
gagola.p_regular_classes = lambda cd, p: list(range(len(cd)))
expect("outside_n", lambda: gagola.gagola_step(level, 2, 2),
       "p-regular class outside N")
gagola.p_regular_classes = real
# a prediction of twice the order of the level the step builds
real = gagola._predicted_order
gagola._predicted_order = lambda *args: 2 * real(*args)
expect("order", lambda: gagola.gagola_tower(cyclic(2), 3), "expected 16")
gagola._predicted_order = real
# lambda(z) read as 1 in the augmented q != p step of the C2 tower at p = 3:
# the C_q factor's generator read as its identity
real = gagola._cyclic_dlog
gagola._cyclic_dlog = lambda elem, q: 0
expect("lambda", lambda: gagola.gagola_tower(cyclic(2), 3), "primitive q-th root")
gagola._cyclic_dlog = real
# a chief step that takes the trivial subgroup of the Klein four-group for
# an index-2 kernel: the second generator lies in no coset x^j M
real = gagola._chief_step
gagola._chief_step = lambda g, p: (2, g.subgroup([]))
expect("coset", lambda: gagola.gagola_tower(elem_abelian(2, 2), 3), "no coset")
gagola._chief_step = real
# the q = p step of the C6 tower at p = 2 with every coordinate shifted by
# 0: the rotation induces the identity, whose order is 1, not q
real = gagola.CentralPowerResult.shift
gagola.CentralPowerResult.shift = lambda self: list(self.quotient.gen_images)
expect("shift_order", lambda: gagola.gagola_step(level, 2, 2),
       "the shift has order q")
gagola.CentralPowerResult.shift = real
# the q != p step of the C2 tower at p = 3 with every element read as of
# order 1: Z(L) has no element of order q
real = gagola.perm_order
gagola.perm_order = lambda x: 1
expect("no_z", lambda: gagola.gagola_tower(cyclic(2), 3), "no element of order q")
gagola.perm_order = real

s3 = character_table(PermGroup(3, [(1, 0, 2), (1, 2, 0)]))
expect("degree_of", lambda: modrep._degree_of((rational(Fraction(1, 2)),)))
expect("cartan", lambda: modrep.cartan_determinant([[Fraction(1, 2)]]))
real = modrep.block_partition
modrep.block_partition = lambda t, p: real(t, p)[1:]
expect("blocks", lambda: modrep.brauer_data(s3, 2))
modrep.block_partition = real
real = modrep._ModEchelon.add
modrep._ModEchelon.add = lambda self, vec: real(self, vec) or self.rows.pop() and None
expect("count", lambda: modrep.ibr_fong_swan(s3, 3))
modrep._ModEchelon.add = lambda self, vec: [c + 1 for c in real(self, vec) or ()] or None
expect("coefficient", lambda: modrep.ibr_fong_swan(s3, 3))
modrep._ModEchelon.add = real
print(" ".join(raised))
"""


def test_tower_checks_survive_python_O():
    src = str(Path(gagola_tower.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["irreducible", "degree_square", "faithful",
                                  "shift", "outside_n", "order", "lambda",
                                  "coset", "shift_order", "no_z", "degree_of",
                                  "cartan", "blocks", "count", "coefficient"]


_CHIEF_STEP_CHECKS_UNDER_O = """
import sys
from ctlab import gagola
from ctlab.errors import VerificationFailed
from ctlab.forge import cyclic

assert sys.flags.optimize
raised = []

def expect(name, fn):
    try:
        fn()
    except VerificationFailed as exc:
        raised.append(name + ":" + str(exc).replace(" ", "_"))

real = gagola.prime_factors
gagola.prime_factors = lambda n: []
expect("primes", lambda: gagola._chief_step(cyclic(6), 2))
gagola.prime_factors = real
gagola.ppow = lambda x, k: x
expect("kernels", lambda: gagola._chief_step(cyclic(6), 2))
print(" ".join(raised))
"""


def test_chief_step_checks_survive_python_O():
    src = str(Path(gagola_tower.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CHIEF_STEP_CHECKS_UNDER_O],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == [
        "primes:nontrivial_solvable_groups_have_a_prime_quotient",
        "kernels:an_index-2_kernel_generated_order_6,_expected_3"]


@pytest.mark.parametrize("p, degenerate", [(5, []), (2, ["C2"])])
def test_tower_demo_runs(p, degenerate):
    # the demo script, run as its usage line says: every certificate it
    # prints is verified, and a degenerate source is reported as such
    root = Path(gagola_tower.__code__.co_filename).resolve().parents[2]
    out = subprocess.run([sys.executable, "scripts/tower_demo.py", str(p)],
                         cwd=root, capture_output=True, text=True, check=True)
    heads = [line for line in out.stdout.splitlines() if f" at p={p}: " in line]
    assert [line.split()[0] for line in heads] == ["C2", "C3", "C6", "S3"]
    assert [line.split()[0] for line in heads if "degenerate" in line] == degenerate
    assert all("verified = True" in line for line in heads
               if line.split()[0] not in degenerate)


def test_reproduce_c3_p3_via_c6():
    # C3 at p = 3 degenerates on its own chain; C3 x C2 certifies it, with
    # its C3 factor embedded
    out = CHECKS["gagola-c3-p3-via-c6"]()
    assert out["status"] == "pass" and out["verified"]
    assert (out["tower_order"], out["center_order"],
            out["witness_degree"]) == (384, 2, 8)
    assert out["c3_factor_image_order"] == 3
    assert [s["witness_method"] for s in out["steps"]] == [
        "norm-certified-induction", "green-extension"]


def test_p_prime_tower_takes_no_p_core(monkeypatch):
    # every level of the S3 tower at p = 5 is a 5'-group, where O_5 = 1
    # needs no computation
    cores = []
    real = PermGroup.p_core
    monkeypatch.setattr(PermGroup, "p_core",
                        lambda self, p: cores.append(p) or real(self, p))
    assert gagola_tower(_SOURCES["S3"](), 5).ok
    assert cores == []
