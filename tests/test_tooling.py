"""Checks on the code itself.

The benchmark's layer tracer must find every entry point it names:
`perfbench/run.py --trace 1` wraps the functions listed in the tracer's
``SPANS``; a renamed or deleted one makes it fail with an AttributeError,
so the names are checked here by installing and uninstalling the tracer.

No module may gain an ``assert`` or a ``raise AssertionError``: ``python
-O`` strips the first, and the second escapes the CLI's error handling as a
traceback, so a check that carries a result raises a CTLabError instead.

Every function, class and method in ``src/ctlab`` is reached: referenced
from reached code in the package, named in the tracer's ``SPANS``, or
allowlisted with a reason.  Code that only tests call is deleted instead.
The definitions that only ``SPANS`` keep are pinned, so that set cannot
grow unnoticed.

The class matrices of a character table are looked up on base-image keys:
counting ``perms.pmul`` calls keeps full-degree products out of them.  The
Fong-Swan pass decides membership mod ELL, and ``brauer_data`` reads the
decomposition matrix off it: counting ``modrep.integer_gauss_jordan`` calls
keeps exact solves off both.
The centre is read off the classes and the product table lists its classes
without a scan, and a core grows one chain: the central-type report on
SL(2, 5) x SL(2, 5) lists no element of the product, and a ``pmul`` count
bounds the p-length of the order-864 build.  A table lifts each distinct
input of ``cyclo.dixon_lift`` once: the lifts are counted on the order-486
tower level and the order-3960 build, and no input is lifted twice.  The
order-3960 swapping build tabulates H once, since the builder takes the
Brauer data that picked the block, and the product table of SL(2, 5) x
SL(2, 5) forms each distinct pair of factor values' product once: both are
counted.  A tower tabulates nothing: a q = p step reads its witness off
tau by Green's theorem, a q != p step induces it, and the certificate
re-checks the witness the last step carried, so the C6 tower at p = 2
makes no ``character_table`` call and runs no Fong-Swan pass.  A tower step reads N inside H off the
realization (``CyclicExtensionResult``): the S3 tower at p = 5 builds no N -> H
homomorphism, and its class scans and homomorphisms are counted; a level
carries its own map into H, so the same tower takes no quotient, and the
shift is a conjugation, so it builds no homomorphism at all.  The same
tower's lifts through a coset action, class-scan conjugations and ``pmul``
calls are counted too: a q != p step lifts one element per class, the class
scans walk the generators that enlarged the chain, and a direct product's
chain is assembled from its factors'.  A level's chain is carried from
N's: no group of the last level's order is built by Schreier-Sims.

No module in ``src/ctlab`` or ``tests`` imports a name it never uses,
except on a line marked ``# noqa: F401`` (a re-export).  No function in
``src/ctlab`` or ``tests`` imports from a module that its file imports at
the top: a function-local import is kept for a module not loaded yet, which
keeps the CLI's start-up short.
"""

import ast
import importlib.util
import sys
from pathlib import Path


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(modname, name):
    owner = sys.modules[modname]
    if "." in name:
        cls_name, name = name.split(".")
        return vars(getattr(owner, cls_name))[name]
    return getattr(owner, name)


def test_tracer_spans_resolve_and_uninstall():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install()
        wrapped = {(modname, name): _entry(modname, name)
                   for modname, names in tracer.SPANS.values()
                   for name in names}
        from ctlab import forge

        forge.quaternion(8)
        assert any(span[0] == "forge.construct" for span in tr.spans)
        assert tr.counts["perms.pmul_calls"] > 0
    finally:
        tr.uninstall()
    for (modname, name), wrapper in wrapped.items():
        original = _entry(modname, name)
        assert original is not wrapper and wrapper.__wrapped__ is original, \
            (modname, name)


# No module holds an assert or raises AssertionError: every check raises a
# CTLabError, which python -O cannot strip and the CLI reports in one line.
# Never add a ceiling here.
ASSERT_CEILING = {}


def _is_assertion(node):
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_assert_ratchet():
    src = Path(__file__).resolve().parents[1] / "src" / "ctlab"
    counts = {path.stem: sum(_is_assertion(node)
                             for node in ast.walk(ast.parse(path.read_text())))
              for path in sorted(src.glob("*.py"))}
    assert "gagola" in counts and "chartab" in counts
    over = {mod: n for mod, n in counts.items()
            if n > ASSERT_CEILING.get(mod, 0)}
    assert not over, over


# Definitions that nothing in src/ctlab reaches and that stay anyway.
REACH_ALLOWLIST = {
    "ctlab.cyclo.reduce_mod_ell": "the inverse of dixon_lift; test_cyclo's "
                                  "round trip checks the lift against it",
    "ctlab.instances.order3960_build": "the blocks-3960 benchmark workload "
                                       "and the builder tests build it",
}


def _definitions(node, prefix="", in_class=False):
    """(qualified name, node, is_method) for each non-dunder def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield prefix + child.name, child, in_class
            yield from _definitions(child, prefix + child.name + ".",
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def _unreached(with_spans):
    """The dotted name of each function, class and method in src/ctlab
    that no reached code references, with the allowlist, and the tracer's
    ``SPANS`` when ``with_spans``, as the roots.
    A reference is a name (or, for a method, an attribute) of the same
    spelling outside the definition; references inside unreached
    definitions do not count, so dead code cannot keep dead code alive."""
    src = Path(__file__).resolve().parents[1] / "src" / "ctlab"
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        mod = "ctlab." + path.stem
        defs += [(mod, qual, node, is_method)
                 for qual, node, is_method in _definitions(tree)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.append((mod, n.lineno, n.id, False))
            elif isinstance(n, ast.Attribute):
                refs.append((mod, n.lineno, n.attr, True))
    roots = {tuple(key.rsplit(".", 1)) for key in REACH_ALLOWLIST}
    if with_spans:
        roots |= {(mod, name) for mod, names in _load_tracer().SPANS.values()
                  for name in names}

    def inside(ref, d):
        return ref[0] == d[0] and d[2].lineno <= ref[1] <= d[2].end_lineno

    def reaches(ref, d, unreached):
        _mod, _line, name, is_attribute = ref
        return (name == d[2].name and (is_attribute or not d[3])
                and not inside(ref, d)
                and not any(inside(ref, u) for u in unreached))

    unreached = []
    while True:
        found = [d for d in defs if (d[0], d[1]) not in roots
                 and not any(reaches(ref, d, unreached) for ref in refs)]
        if found == unreached:
            break
        unreached = found
    assert len(defs) > 300 and ("ctlab.cyclo", "reduce_mod_ell") in roots
    return {f"{d[0]}.{d[1]}" for d in unreached}


def test_every_definition_is_reached():
    """Each function, class and method in src/ctlab is referenced by code
    that is itself reached, is a tracer entry point, or is allowlisted."""
    unreached = _unreached(with_spans=True)
    assert not unreached, " ".join(sorted(unreached))


# Definitions that only the tracer's SPANS keep: nothing in src/ctlab
# reaches them.  Pinned so that the set cannot grow unnoticed; a benchmark
# change that drops them from SPANS can then delete them.
TRACER_ONLY = {
    "ctlab.builders.regular_module_matrices",
    "ctlab.centraltype.humphreys_equal_degree",
    "ctlab.centraltype.over_count_vs_quotient",
    "ctlab.chartab.class_fusion",
    "ctlab.chartab.decompose",
    "ctlab.chartab.induce",
    "ctlab.forge.WreathResult.element",
    "ctlab.forge._check_component",
    "ctlab.forge.cyclic_extension_exists",
    "ctlab.forge.kk_embedding",
    "ctlab.forge.semidirect_cyclic",
    "ctlab.homs.GroupHom.kernel",
    "ctlab.modrep.brauer_induce",
    "ctlab.modrep.brauer_kernel_trivial",
}


def test_tracer_only_definitions_are_pinned():
    assert _unreached(with_spans=False) == TRACER_ONLY


def _calls_while(real, run, monkeypatch):
    """Calls of the ctlab function ``real`` while ``run()`` runs, counted
    through every ctlab module that holds it."""
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("ctlab") and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(
                mod, real.__name__,
                lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    run()
    monkeypatch.undo()
    return len(calls)


# products at the full degree that a character table and its power maps
# may take once the classes are known: both are walked on base-image keys
PMUL_CEILING = 0


def test_character_table_pmul_ratchet(tower_c6_p2, monkeypatch):
    # one full product per (x, rep_m) made 85,155 calls on the order-3960
    # build and 15,834 on the order-486 tower level; power maps through
    # ppow would make some per class and prime
    from ctlab import perms
    from ctlab.chartab import character_table
    from ctlab.instances import order3960_build

    for group in (order3960_build().group, tower_c6_p2.tower):
        group.conjugacy_classes()
        calls = _calls_while(perms.pmul,
                             lambda: character_table(group).power_maps,
                             monkeypatch)
        assert calls <= PMUL_CEILING, (group.order, calls)


# exact eliminations the Fong-Swan pass, or brauer_data with blocks, may run
# where every Brauer character lifts: membership is decided mod ELL and each
# combination by one integer sum, so an exact solve runs only on the way to
# an error; brauer_data solved every restriction again for the decomposition
# matrix, one elimination per p dividing |G|
GAUSS_CEILING = 0


def test_fong_swan_gauss_jordan_ratchet(build72, build864, monkeypatch):
    from ctlab import modrep
    from ctlab.chartab import character_table
    from ctlab.instances import order3960_build
    from ctlab.modrep import brauer_data, ibr_fong_swan

    for group in (build72.group, build864.group, order3960_build().group):
        table = character_table(group)
        for p in (2, 3, 5):
            for run in (ibr_fong_swan, brauer_data):
                calls = _calls_while(modrep.integer_gauss_jordan,
                                     lambda: run(table, p), monkeypatch)
                assert calls <= GAUSS_CEILING, (group.order, p, run, calls)


def test_product_report_lists_no_elements():
    # the centre comes from the size-1 classes that direct_product_table
    # lists, so the report on the order-14,400 product scans nothing; the
    # centre read by a scan listed all 14,400 elements
    from ctlab.centraltype import central_type_report
    from ctlab.instances import sl25_squared_data

    table, bd = sl25_squared_data.__wrapped__()
    rep = central_type_report(table, bd)
    assert (rep.order, rep.center_order) == (14_400, 4)
    assert table.group._elements is None


# full-degree products of p_length(2) on a fresh copy of the order-864 build
# with its classes computed; two chains built from scratch for each core
# candidate made 27,601, and growing each rejected candidate to its full
# closure made 16,031
PLENGTH_PMUL_CEILING = 9_754


def test_core_pmul_ratchet(build864, monkeypatch):
    from ctlab import perms
    from ctlab.permgroup import PermGroup

    g = build864.group
    group = PermGroup(g.degree, g.gens, check=False)
    group.conjugacy_classes()
    calls = _calls_while(perms.pmul, lambda: group.p_length(2), monkeypatch)
    assert calls <= PLENGTH_PMUL_CEILING, calls


# full-degree products of sylow_subgroup(2) on a fresh copy of the order-864
# build with its classes computed; building each step's normalizer as a
# group, chain and element list, made 3,571
SYLOW_PMUL_CEILING = 723


def test_sylow_pmul_ratchet(build864, monkeypatch):
    from ctlab import perms
    from ctlab.permgroup import PermGroup

    g = build864.group
    group = PermGroup(g.degree, g.gens, check=False)
    group.conjugacy_classes()
    calls = _calls_while(perms.pmul, lambda: group.sylow_subgroup(2),
                         monkeypatch)
    assert calls <= SYLOW_PMUL_CEILING, calls


# automorphisms the order-54 search builds: an involution fixing the centre
# acts as -1 on N/Z, so only the nine lifts of -1 are candidates; the search
# over every noncentral pair built 137
ORDER54_HOM_CEILING = 2


def test_order54_search_ratchet(monkeypatch):
    from ctlab.homs import GroupHom
    from ctlab.instances import order54_group

    calls = []
    real = GroupHom.__init__
    monkeypatch.setattr(GroupHom, "__init__",
                        lambda self, *a: calls.append(1) or real(self, *a))
    order54_group.__wrapped__()
    assert len(calls) <= ORDER54_HOM_CEILING, len(calls)


# character tables the order-3960 swapping build makes: H's table picks the
# block, and the builder takes that Brauer data; the builder computed the
# same table and Brauer data again before
SWAPPING_TABLE_CEILING = 1


def test_swapping_build_table_ratchet(monkeypatch):
    from ctlab.chartab import character_table
    from ctlab.instances import order3960_build

    calls = _calls_while(character_table, order3960_build.__wrapped__,
                         monkeypatch)
    assert calls <= SWAPPING_TABLE_CEILING, calls


# ``Cyclotomic.__mul__`` calls while the SL(2, 5) x SL(2, 5) table is
# formed: one product for each of the 225 distinct pairs of factor values,
# and 44 of them re-enter ``__mul__`` to put a rational factor first; one
# product per (row pair, class) made 6,561 products
PRODUCT_MUL_CEILING = 269


def test_direct_product_table_product_ratchet(sl25_table, monkeypatch):
    from ctlab.chartab import direct_product_table
    from ctlab.cyclo import Cyclotomic

    calls = []
    real = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__",
                        lambda a, b: calls.append(1) or real(a, b))
    direct_product_table(sl25_table, sl25_table)
    monkeypatch.undo()
    assert len(calls) <= PRODUCT_MUL_CEILING, len(calls)


# lifts a character table may make: one per distinct (e, degree, residues)
# input, kept in a memo for the table call.  One lift per (character, class)
# pair made 3,364 on the order-486 tower level and 441 on the order-3960
# build
LIFT_CEILINGS = {486: 35, 3960: 150}


def test_character_table_lift_ratchet(tower_c6_p2, monkeypatch):
    from ctlab import cyclo
    from ctlab.chartab import character_table
    from ctlab.instances import order3960_build

    for group in (tower_c6_p2.tower, order3960_build().group):
        group.conjugacy_classes()
        calls = _calls_while(cyclo.dixon_lift,
                             lambda: character_table(group), monkeypatch)
        assert calls <= LIFT_CEILINGS[group.order], (group.order, calls)


def test_character_table_lifts_each_input_once(tower_c6_p2, monkeypatch):
    from ctlab import chartab, cyclo

    real = cyclo.dixon_lift
    inputs = []

    def recording(values, e, field, degree):
        inputs.append((e, degree, tuple(values)))
        return real(values, e, field, degree)

    monkeypatch.setattr(chartab, "dixon_lift", recording)
    table = chartab.character_table(tower_c6_p2.tower)
    assert len(table) == 58
    assert inputs and len(set(inputs)) == len(inputs)


# Fong-Swan passes and character tables in the C6 tower at p = 2: the q = p
# step reads its witness off tau by Green's theorem, and the certificate
# re-checks the carried witness.  The step tabulated the order-486 level and
# ran one pass on it before, and the certificate a second pass before that
FONG_SWAN_CALLS = 0
TOWER_TABLE_CALLS = 0


def _tower_calls(real, monkeypatch):
    from ctlab.forge import cyclic
    from ctlab.gagola import gagola_tower

    certs = []
    calls = _calls_while(real, lambda: certs.append(gagola_tower(cyclic(6), 2)),
                         monkeypatch)
    assert certs[0].ok
    return calls


def test_tower_fong_swan_ratchet(monkeypatch):
    from ctlab.modrep import ibr_fong_swan

    calls = _tower_calls(ibr_fong_swan, monkeypatch)
    assert calls == FONG_SWAN_CALLS, calls


def test_tower_table_ratchet(monkeypatch):
    from ctlab.chartab import character_table

    calls = _tower_calls(character_table, monkeypatch)
    assert calls == TOWER_TABLE_CALLS, calls


# class scans, homomorphisms and quotients in the S3 tower at p = 5: a step
# reads N and <t> inside H off the realization and induces the
# witness on H's classes, so it lists no class of N and builds no N -> H or
# C_q -> H homomorphism (7 scans and 9 homomorphisms in all before); a
# level carries its map into H itself, and the certificate checks the last
# one inside G x H, so no level builds a G/M quotient, an H/Z or a
# homomorphism into it; and the shift is a conjugation checked on N's
# generators, so no step builds it as a homomorphism (2 before)
TOWER_SCAN_CEILING = 5
TOWER_HOM_CEILING = 0
TOWER_QUOTIENT_CALLS = 0


def test_tower_reads_n_off_the_realization(monkeypatch):
    from ctlab import gagola, permgroup
    from ctlab.forge import CyclicExtensionResult
    from ctlab.gagola import gagola_tower
    from ctlab.homs import GroupHom

    s3 = permgroup.PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    homs, n_homs, quotients, certs, steps = [], [], [], [], []
    real, real_n_hom = GroupHom.__init__, CyclicExtensionResult.n_hom.func
    real_quotient = permgroup.PermGroup.quotient
    real_split = gagola.split_cyclic_extension
    monkeypatch.setattr(GroupHom, "__init__",
                        lambda self, *a: homs.append(1) or real(self, *a))
    monkeypatch.setattr(CyclicExtensionResult, "n_hom", property(
        lambda self: n_homs.append(1) or real_n_hom(self)))
    monkeypatch.setattr(gagola, "split_cyclic_extension",
                        lambda *a: steps.append(real_split(*a)) or steps[-1])
    monkeypatch.setattr(permgroup.PermGroup, "quotient", lambda self, n: (
        quotients.append(1) or real_quotient(self, n)))
    scans = _calls_while(permgroup._conjugacy_classes,
                         lambda: certs.append(gagola_tower(s3, 5)), monkeypatch)
    assert certs[0].ok and not n_homs
    assert len(steps) == 2
    assert all(isinstance(ext, CyclicExtensionResult) for ext in steps)
    assert scans <= TOWER_SCAN_CEILING, scans
    assert len(homs) <= TOWER_HOM_CEILING, len(homs)
    assert len(quotients) == TOWER_QUOTIENT_CALLS, len(quotients)


# work in the S3 tower at p = 5.  A q != p step lifts each p-regular class
# representative of H that lies in N once, where it lifted all q conjugates
# of each (376 lifts); a class scan conjugates every element by the
# generators that enlarged the chain, where it took every generator
# (27,678 conjugations, the sum of |G| times their number); products are
# assembled from their factors' chains (19,271 pmul calls before all
# three); and H's chain is carried from N's, with the shift a conjugation
# and no image group (16,657 pmul calls before)
TOWER_LIFT_CEILING = 104
TOWER_CONJUGATION_CEILING = 15_852
TOWER_PMUL_CEILING = 12_576


def test_tower_step_work_ratchet(monkeypatch):
    from ctlab import permgroup, perms
    from ctlab.gagola import gagola_tower

    s3 = permgroup.PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    lifts, conjugations, certs = [], [], []
    real_lift = permgroup.QuotientResult.lift
    real_scan = permgroup._conjugacy_classes
    monkeypatch.setattr(permgroup.QuotientResult, "lift",
                        lambda self, w: lifts.append(1) or real_lift(self, w))
    monkeypatch.setattr(permgroup, "_conjugacy_classes", lambda g: (
        conjugations.append(g.order * len(g.chain_gens)) or real_scan(g)))
    calls = _calls_while(perms.pmul,
                         lambda: certs.append(gagola_tower(s3, 5)), monkeypatch)
    assert certs[0].ok
    assert len(lifts) <= TOWER_LIFT_CEILING, len(lifts)
    assert sum(conjugations) <= TOWER_CONJUGATION_CEILING, sum(conjugations)
    assert calls <= TOWER_PMUL_CEILING, calls


# groups that Schreier-Sims builds at the order of a tower's last level, and
# calls of the semidirect product or its regular realization at any level,
# in the C2 tower at p = 3, the S3 tower at p = 5 and the C6 tower at p = 2:
# every level's chain is N's, carried into H, so none (the first level
# took the regular realization, once per tower, before; the semidirect
# product built the last level before that)
TOWER_TOP_BUILDS = 0
TOWER_SEMIDIRECT_CALLS = 0


def test_tower_top_level_is_assembled(monkeypatch):
    from ctlab import forge, permgroup
    from ctlab.gagola import gagola_tower

    s3 = permgroup.PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    real = permgroup.PermGroup.__init__
    orders, calls = [], []

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        orders.append(self.order)

    def counted(name):
        real_call = getattr(forge, name)
        monkeypatch.setattr(forge, name,
                            lambda *a: calls.append(name) or real_call(*a))

    monkeypatch.setattr(permgroup.PermGroup, "__init__", recording)
    counted("semidirect")
    counted("_regular_action")
    for g, p in [(forge.cyclic(2), 3), (s3, 5), (forge.cyclic(6), 2)]:
        orders.clear()
        cert = gagola_tower(g, p)
        assert cert.ok
        assert orders.count(cert.tower.order) == TOWER_TOP_BUILDS, orders
    assert len(calls) == TOWER_SEMIDIRECT_CALLS, calls


def _unused_imports(path):
    """(line, name) of each name that a module imports and never loads or
    reads an attribute of; __future__ imports and lines marked
    ``# noqa: F401`` are skipped."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return sorted(out)


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in (root / "src" / "ctlab", root / "tests")
             for path in sorted(folder.glob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 30
    unused = [f"{path.relative_to(root)}:{line} {name}"
              for path in paths for line, name in _unused_imports(path)]
    assert not unused, unused


def _redundant_local_imports(path):
    """(line, module) of each import inside a function from a module that
    the file already imports at its top level."""
    def modules(node):
        if node.module is None:         # from . import forge
            return {(node.level, alias.name) for alias in node.names}
        return {(node.level, node.module)}

    tree = ast.parse(path.read_text())
    top = set().union(*(modules(node) for node in tree.body
                        if isinstance(node, ast.ImportFrom)))
    return sorted({(node.lineno, node.module)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and modules(node) & top})


def test_no_redundant_local_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in (root / "src" / "ctlab", root / "tests")
             for path in sorted(folder.glob("*.py"))]
    assert len(paths) > 30
    found = [f"{path.relative_to(root)}:{line} {module}"
             for path in paths for line, module in _redundant_local_imports(path)]
    assert not found, found
