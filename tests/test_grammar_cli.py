import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ctlab

from ctlab.cli import main
from ctlab.errors import ArityError, BudgetExceeded, ParseError, UnsupportedFamily
from ctlab.grammar import (evaluate, parse_generator_file, parse_matrix_file,
                           parse_spec, print_spec)
from ctlab.permgroup import PermGroup, group_from_generators
from ctlab.perms import format_cycles


SPECS = [
    ("perm 3 { (1 2), (1 2 3) }", 6),
    ("perm 1 { }", 1),
    ("Direct(Cyclic(2), Cyclic(2))", 4),
    ("Gagola(perm 2 { (1 2) }, p=3)", 8),
    ("Dihedral(8)", 8),
    ("Quaternion(16)", 16),
    ("Extraspecial(3, minus)", 27),
    ("SL(2, 5)", 120),
    ("PSL(2, 5)", 60),
    ("mat GF(3) { [[0, 2], [1, 0]], [[1, 0], [0, 2]] }", 8),
    ("Semidirect(Cyclic(3), Cyclic(2), [[(1 3 2)]])", 6),
    ("CyclicExt(Cyclic(4), [(1 4 3 2)], 2, (1 3)(2 4))", 8),
    ("Wreath(Cyclic(3), 2)", 18),
    ("CentralProductPower(Dihedral(8), 2)", 32),
    ("Affine(3, 2, [[[0, 2], [1, 0]], [[1, 0], [0, 2]]])", 72),
    ("ElemAbelian(2, 3)", 8),
    ("Instance(order54)", 54),
]


@pytest.mark.parametrize("text,order", SPECS)
def test_parse_print_parse_fixpoint(text, order):
    node = parse_spec(text)
    printed = print_spec(node)
    assert parse_spec(printed) == node
    assert print_spec(parse_spec(printed)) == printed


@pytest.mark.parametrize("text,order", SPECS)
def test_evaluation_orders(text, order):
    assert evaluate(parse_spec(text)).order == order


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_spec("perm 3 {\n (1 5) }")
    assert "line 2" in str(info.value)
    with pytest.raises(ParseError):
        parse_spec("perm 3 { (1 2) } trailing")
    with pytest.raises(ArityError):
        parse_spec("Cyclic(2, 3)") and evaluate(parse_spec("Cyclic(2, 3)"))
    with pytest.raises(ParseError):
        evaluate(parse_spec("Nonsense(3)"))
    with pytest.raises(ParseError):
        parse_spec("perm 3 { (1 2) } }")


def test_comments_allowed():
    g = evaluate(parse_spec("# a comment\nCyclic(6) # trailing"))
    assert g.order == 6


def test_generator_file_roundtrip():
    text = "# demo\ndegree 4\n(1 2)(3 4)\n(1 3)\n"
    degree, perms = parse_generator_file(text)
    assert degree == 4 and len(perms) == 2
    printed = "degree 4\n" + "\n".join(format_cycles(p) for p in perms)
    degree2, perms2 = parse_generator_file(printed)
    assert degree2 == degree and perms2 == perms


def test_matrix_file():
    q, mats = parse_matrix_file("GF(5)\n[[1, 0], [0, 2]]\n[[0, 1], [4, 0]]\n")
    assert q == 5 and len(mats) == 2 and mats[0][1] == [0, 2]
    with pytest.raises(ParseError):
        parse_matrix_file("degree 4\n(1 2)")
    with pytest.raises(ParseError):
        parse_matrix_file("GF(5)\n# no matrix follows\n")
    with pytest.raises(UnsupportedFamily):
        parse_matrix_file("GF(5)\n[[1, 0], [0]]\n")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_cli_table(capsys):
    code, data = _run(capsys, ["table", "-e", "perm 3 { (1 2), (1 2 3) }"])
    assert code == 0
    assert data["group"]["order"] == 6
    assert data["table"]["degrees"] == [1, 1, 2]


def test_cli_blocks_order72(capsys):
    code, data = _run(capsys, ["blocks", "-p", "3", "-e", "Instance(order72)"])
    assert code == 0
    blocks = data["modular"]["blocks"]
    assert len(blocks) == 2
    nonprincipal = blocks[1]
    assert nonprincipal["l"] == 1 and nonprincipal["defect"] == 2
    assert nonprincipal["refuted_nilpotent"] is True


def test_cli_ctype_modular(capsys):
    code, data = _run(capsys, ["ctype", "-p", "7", "-e", "Dihedral(8)"])
    assert code == 0
    assert data["central_type"]["ordinary"]["is_central_type"]
    assert data["central_type"]["modular"]["is_p_central_type"]
    assert data["central_type"]["modular"]["fully_ramified"] \
        == [{"lambda": 1, "e": 2, "phi": 4}]


def test_cli_gagola_verify(capsys):
    code, data = _run(capsys, ["gagola", "-p", "3", "--verify", "-e",
                               "perm 2 { (1 2) }"])
    assert code == 0
    tower = data["tower"]
    assert tower["status"] == "verified"
    assert tower["tower_order"] == 8
    assert all(v["holds"] for v in tower["properties"].values())


@pytest.mark.parametrize("spec, message", [
    ("Affine(3, 3, [[[1, 1], [0, 1]]])", "expected 3 x 3 matrices"),
    ("Affine(3, 1, [[[1, 1], [0, 1]]])", "expected 1 x 1 matrices"),
    ("mat GF(3) { [[1, 1], [0, 1]], [[1]] }", "expected 2 x 2 matrices"),
    ("mat GF(3) { }", "a matrix group needs at least one matrix"),
    ("Affine(4, 2, [])", "affine groups are supported over prime fields"),
    # a bare permutation argument reads its cycles like a perm literal
    ("Semidirect(Cyclic(3), Cyclic(2), [[(1 a)]])",
     "expected a point, got 'a' (line 1, column 39)"),
    # and reports a point out of range at its position, as a perm literal does
    ("Semidirect(Cyclic(3), Cyclic(2), [[(1 5)]])",
     "point out of range 1..3 in '(1 5)' (line 1, column 36)"),
])
def test_cli_rejects_misshapen_matrices(capsys, spec, message):
    code = main(["table", "-e", spec])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["ctype", "-p", "4", "-e", "Cyclic(4)"], "p = 4 is not a prime"),
    (["blocks", "-p", "1", "-e", "Cyclic(2)"], "p = 1 is not a prime"),
    (["blocks", "-p", "0", "-e", "Cyclic(2)"], "p = 0 is not a prime"),
    (["blocks", "-p", "4", "-e", "Cyclic(2)"], "p = 4 is not a prime"),
    (["lifts", "-p", "6", "-e", "Cyclic(2)"], "p = 6 is not a prime"),
    (["gagola", "-p", "1", "-e", "Cyclic(2)"], "p = 1 is not a prime"),
    (["table", "-e", "Gagola(Cyclic(2), p=1)"], "p = 1 is not a prime"),
    (["table", "-e", "ElemAbelian(4, 2)"],
     "elementary abelian groups need a prime p, got 4"),
    (["table", "-e", "Extraspecial(4, plus)"],
     "extraspecial groups need a prime p, got 4"),
    (["table", "-e", "CyclicExt(Cyclic(3), [(1 2 3)], 2, (1 2))"],
     "element does not lie in the source group"),
    (["table", "-e", "Wreath(Cyclic(2), 0)"], "wreath products need q >= 1"),
    (["table", "-e", "CentralProductPower(Cyclic(2), 0)"],
     "central product powers need q >= 1"),
    (["table", "-e", "mat GF(3) { [[0]] }"], "the matrix [[0]] is singular over GF(3)"),
    (["table", "-e", "mat GF(5) { [[1, 2], [2, 4]] }"],
     "the matrix [[1, 2], [2, 4]] is singular over GF(5)"),
    # each construction argument is checked for its kind before use
    (["table", "-e", "Cyclic(Cyclic(2))"], "expected int, got 'Cyclic(2)'"),
    (["table", "-e", "ElemAbelian(Cyclic(2), 2)"], "expected int, got 'Cyclic(2)'"),
    (["table", "-e", "Semidirect(Cyclic(3), Cyclic(2), [5])"],
     "expected a list of permutation lists, got '[5]'"),
    (["table", "-e", "Affine(3, 1, [[5]])"],
     "expected a list of integer matrices, got '[[5]]'"),
    (["table", "-e", "CyclicExt(Cyclic(3), [(1 3 2)], 0, ())"],
     "cyclic extensions need n >= 1"),
])
def test_cli_rejects_bad_primes_and_constructions(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_cli_blocks_names_each_sylow_defect_group_once(capsys, monkeypatch):
    # only the k(B) = k(D) test names D, and every maximal-defect block of
    # one BrauerData shares its Sylow subgroup, so it is computed once
    from ctlab.instances import order864_build

    order864_build()
    calls = []
    real = PermGroup.sylow_subgroup
    monkeypatch.setattr(PermGroup, "sylow_subgroup",
                        lambda self, p: calls.append(p) or real(self, p))
    code, data = _run(capsys, ["blocks", "-p", "2", "-e", "Instance(order864)"])
    monkeypatch.undo()
    assert code == 0
    blocks = data["modular"]["blocks"]
    needing = [b for b in blocks if b["l"] == 1 and b["maximal_defect"]]
    assert len(needing) == 2 and calls == [2]
    assert all(b["refuted_nilpotent"] for b in needing)


def test_cli_gagola_degenerate_exit_code(capsys):
    code, data = _run(capsys, ["gagola", "-p", "3", "-e", "Cyclic(3)"])
    assert code == 2
    assert data["tower"]["status"] == "degenerate"


def test_cli_lifts_c4(capsys):
    code, data = _run(capsys, ["lifts", "-p", "2", "-e", "Cyclic(4)"])
    assert code == 0
    entry = data["lift_counts"][0]
    assert len(entry["lifts"]) == 4


def test_cli_budget_exit_code(capsys):
    code, _ = _run(capsys, ["table", "-e", "SL(2, 5)", "--max-order", "30"])
    assert code == 3


@pytest.mark.parametrize("spec", [
    "Cyclic(1000000000)", "Quaternion(2000000000)", "ElemAbelian(2, 1000000000)",
    "Dihedral(2000000000)", "Extraspecial(1009, plus)",
    "Affine(3, 1000000000, [])", "mat GF(1009) { [[1, 1], [0, 1]] }",
    "PSL(2, 100003)", "Wreath(Cyclic(400), 400)",
    "CyclicExt(Cyclic(3), [(1 3 2)], 1000000000, ())",
])
def test_cli_domain_bound_before_allocation(capsys, spec):
    # each domain is checked against MAX_POINTS before a point is built
    code = main(["table", "-e", spec])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "exceeds the domain limit of 100000 points" in captured.err


def _stdout_without_input_digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out, n = re.subn(r'"input_digest":"[0-9a-f]{64}",', "", buf.getvalue())
    assert code == 0 and n == 1
    return out


_PERM_INPUTS = [
    ("S3", 3, ["(1 2)", "(1 2 3)", "(2 3)"], "3"),
    ("D8", 4, ["(1 2 3 4)", "(1 3)", "(1 2)(3 4)"], "2"),
    ("order72", 13, ["(1 4 7)(2 5 8)(3 6 9)", "(1 2 3)(4 5 6)(7 8 9)",
                     "(2 3)(4 7)(5 9)(6 8)(10 11 12 13)", "(2 3)(5 6)(8 9)(11 13)"],
     "3"),
]


@pytest.mark.parametrize("name, degree, gens, p", _PERM_INPUTS,
                         ids=[case[0] for case in _PERM_INPUTS])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_cli_output_ignores_generator_order(name, degree, gens, p, data):
    # the same group from a permuted generator list gives the same stdout,
    # up to the digest of the input text
    shuffled = data.draw(st.permutations(gens))
    for command in (["table"], ["blocks", "-p", p]):
        first, second = (_stdout_without_input_digest(
            command + ["-e", f"perm {degree} {{ {', '.join(g)} }}"])
            for g in (gens, shuffled))
        assert first == second


def test_cli_deterministic_bytes(capsys):
    main(["blocks", "-p", "2", "-e", "Dihedral(8)"])
    first = capsys.readouterr().out
    main(["blocks", "-p", "2", "-e", "Dihedral(8)"])
    second = capsys.readouterr().out
    assert first == second

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(json.loads(first))


def test_cli_parse_roundtrip(capsys):
    code, data = _run(capsys, ["parse", "-e", "Direct(Cyclic(2),Cyclic(3))"])
    assert code == 0
    assert data["printed"] == "Direct(Cyclic(2), Cyclic(3))"


def test_cli_reproduce_list(capsys):
    code, data = _run(capsys, ["reproduce", "--list"])
    assert code == 0
    ids = set(data["available"])
    assert {"order72-blocks", "order864-plength", "order720-nonsolv",
            "sl25sq-pcentral", "sl2-17-pcentral", "sl25-ibr-degrees",
            "gagola-c2-p3", "gagola-s3-p5", "gagola-c3-p3",
            "gagola-c3-p3-via-c6", "gagola-eq3",
            "lifts-c4", "unilift-hypothesis-q8", "unilift-625", "unilift-81",
            "goodclasses-93312", "property-corpus"} == ids


def test_cli_reproduce_skipped_user_data(capsys):
    code, data = _run(capsys, ["reproduce", "unilift-625"])
    assert code == 0
    assert data["status"] == "skipped"
    assert "data/user" in data["reason"]


@pytest.mark.parametrize("check_id, stem, mat_text, message", [
    pytest.param("unilift-625", "order128_144", "GF(3)\n[[1, 0], [0, 1]]\n",
                 "order128_144_action.mat gives matrices over GF(3); "
                 "this check needs GF(5)", id="unilift-625-gf3"),
    pytest.param("unilift-625", "order128_144", "GF(5)\n",
                 "the matrix file holds no matrix after its 'GF(q)' line",
                 id="unilift-625-header-only"),
    pytest.param("goodclasses-93312", "order128_731", "GF(3)\n",
                 "the matrix file holds no matrix after its 'GF(q)' line",
                 id="goodclasses-93312-header-only"),
    pytest.param("goodclasses-93312", "order128_731", "GF(5)\n[[1, 0], [0, 1]]\n",
                 "order128_731_action.mat gives matrices over GF(5); "
                 "this check needs GF(3)", id="goodclasses-93312-gf5"),
])
def test_cli_reproduce_rejects_mismatched_matrix_field(
        capsys, monkeypatch, tmp_path, check_id, stem, mat_text, message):
    from ctlab import reproduce

    user = tmp_path / "user"
    user.mkdir()
    (user / f"{stem}.grp").write_text("degree 2\n(1 2)\n")
    (user / f"{stem}_action.mat").write_text(mat_text)
    monkeypatch.setattr(reproduce, "DATA_DIR", str(tmp_path))
    code = main(["reproduce", check_id])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_reproduce_skips_supplied_data_over_a_bound(monkeypatch):
    # unilift-625's V : H has order 80,000, over the table budget and
    # SCAN_LIMIT: the check reports the bound instead of ending the run
    from ctlab import reproduce
    from ctlab.forge import cyclic

    def over_bound(*args):
        raise BudgetExceeded("group order 80000 exceeds SCAN_LIMIT 60000")

    monkeypatch.setattr(reproduce, "_user_action",
                        lambda stem, p: (cyclic(2), [[[1, 0], [0, 1]]]))
    monkeypatch.setattr(reproduce, "builder_unique_lift", over_bound)
    out = reproduce.run_check("unilift-625")
    assert out["status"] == "skipped"
    assert out["reason"].endswith("exceeds SCAN_LIMIT 60000")


def test_property_corpus_fails_on_a_singular_cartan_matrix(monkeypatch):
    # p_part(0, p) has no answer: the check records the failure instead of
    # asking for one
    from ctlab import reproduce

    monkeypatch.setattr(reproduce, "cartan_determinant", lambda cartan: 0)
    out = reproduce.run_check("property-corpus")
    assert out["status"] == "fail"
    assert (6, 2, "cartan") in out["failures"]


def test_cli_reproduce_small_check(capsys):
    code, data = _run(capsys, ["reproduce", "lifts-c4"])
    assert code == 0 and data["status"] == "pass"


def test_reproduce_builds_each_tower_once(monkeypatch):
    from types import SimpleNamespace

    from ctlab import reproduce

    built = []

    def fake_tower(group, p):
        built.append((group.order, p))
        step = SimpleNamespace(q=2, eq3={"holds": True})
        return SimpleNamespace(source=group, steps=[step], ok=True,
                               to_json=dict)

    monkeypatch.setattr(reproduce, "gagola_tower", fake_tower)
    reproduce._tower.cache_clear()
    try:
        assert reproduce.check_gagola("S3", 5)["status"] == "pass"
        assert reproduce.check_eq3()["status"] == "pass"
        assert reproduce.check_eq3()["status"] == "pass"
    finally:
        reproduce._tower.cache_clear()
    assert sorted(built) == [(2, 3), (6, 2), (6, 5)]


def test_cli_reproduce_all_timing_keeps_stdout(capsys, monkeypatch):
    from ctlab import reproduce

    monkeypatch.setattr(reproduce, "CHECKS", {
        "b-check": lambda: {"status": "pass"},
        "a-check": lambda: {"status": "skipped", "reason": "no data"},
    })
    assert main(["reproduce", "--all"]) == 0
    plain = capsys.readouterr()
    assert main(["reproduce", "--all", "--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = timed.err.splitlines()
    assert [ln.split()[:2] for ln in lines[:2]] == [["a-check", "skipped"],
                                                   ["b-check", "pass"]]
    assert all(ln.split()[2].endswith("s") for ln in lines[:2])
    assert lines[2].startswith("elapsed: ")


def test_cli_ctype_product_shortcut(capsys):
    code, data = _run(capsys, ["ctype", "-p", "5", "-e",
                               "Direct(SL(2, 5), SL(2, 5))"])
    assert code == 0
    ct = data["central_type"]
    assert ct["modular"]["is_p_central_type"]
    assert ct["modular"]["fully_ramified"] == []
    assert data["group"]["class_count"] == 81
    assert not ct["ordinary"]["is_central_type"]


def test_cli_table_product_shortcut(capsys):
    code, data = _run(capsys, ["table", "-e", "Direct(Cyclic(2), Cyclic(2))"])
    assert code == 0
    assert data["table"]["degrees"] == [1, 1, 1, 1]


DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.mark.parametrize("path", sorted(DATA.glob("order*.grp")),
                         ids=lambda p: p.name)
def test_shipped_generator_files(path):
    order = int(re.fullmatch(r"order(\d+)\.grp", path.name).group(1))
    degree, perms = parse_generator_file(path.read_text())
    assert group_from_generators(degree, perms).order == order


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
@pytest.mark.parametrize("argv", [["table", "-e", "Cyclic(3)"],
                                  ["reproduce", "--list"]])
def test_cli_rejects_bad_budget_env(value, argv):
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, CTLAB_BUDGET=value)
    out = subprocess.run([sys.executable, "-m", "ctlab.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and "CTLAB_BUDGET" in out.stderr


@pytest.mark.parametrize("flag", ["--max-order", "--max-classes"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_rejects_non_positive_budget_flags(flag, value):
    # a budget below 1 is a usage error, neither the default nor a limit
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CTLAB_BUDGET", None)
    out = subprocess.run([sys.executable, "-m", "ctlab.cli", "table", flag, value,
                          "-e", "PSL(2, 7)"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr == f"error: {flag} must be a positive integer, got {value}\n"


@pytest.mark.parametrize("command", [["gagola", "-p", "2"], ["parse"]])
def test_cli_budget_flags_only_where_a_table_is_computed(command):
    # a tower and a parse tabulate nothing, so they take no budget flag
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CTLAB_BUDGET", None)
    out = subprocess.run([sys.executable, "-m", "ctlab.cli", *command,
                          "--max-classes", "5", "-e", "Cyclic(6)"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert "unrecognized arguments: --max-classes" in out.stderr


@pytest.mark.parametrize("argv", [["table", "--bogus", "-e", "Cyclic(2)"],
                                  ["blocks", "-e", "Cyclic(2)"],
                                  ["table", "-p", "3", "-e", "Cyclic(2)"]])
def test_cli_usage_errors_exit_1(argv):
    # exit 2 means a verification failure, so argparse's own code is not used
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ctlab.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert "error:" in out.stderr
    help_out = subprocess.run([sys.executable, "-m", "ctlab.cli", argv[0], "--help"],
                              capture_output=True, text=True, env=env)
    assert help_out.returncode == 0 and help_out.stdout.startswith("usage:")


def test_cli_tower_c5_c2_p5_certifies_at_default_bounds(capsys):
    # the q = p step reads its witness without a table, so the 229-class
    # level of order 10,240 needs no class budget
    code, data = _run(capsys, ["gagola", "-p", "5", "--verify", "-e",
                               "Direct(Cyclic(5), Cyclic(2))"])
    assert code == 0
    tower = data["tower"]
    assert (tower["tower_order"], tower["center_order"],
            tower["witness_degree"]) == (10_240, 2, 32)
    assert tower["status"] == "verified"


def test_cli_tower_over_scan_limit_exits_before_building(capsys, monkeypatch):
    # the Frobenius group 7:3 at p = 3: the second step's level would have
    # order 3 * 343^3 / 7^2 = 2,470,629 > SCAN_LIMIT, so the step raises
    # before central_product_power runs on the order-343 level
    import time

    from ctlab import gagola

    powered = []
    real = gagola.central_product_power
    monkeypatch.setattr(gagola, "central_product_power",
                        lambda k, q: powered.append(k.order) or real(k, q))
    started = time.perf_counter()
    code = main(["gagola", "-p", "3", "-e",
                 "perm 7 { (1 2 3 4 5 6 7), (2 3 5)(4 7 6) }"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("budget exceeded:")
    assert "q = 3" in captured.err and "2470629" in captured.err
    assert powered == [7]
    assert elapsed < 1


_PARSER_BUILDS = """
import argparse
import io
from contextlib import redirect_stdout

made = []
real_init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = (
    lambda self, *a, **k: made.append(1) or real_init(self, *a, **k))
import ctlab.cli as cli
argparse.ArgumentParser.__init__ = real_init
at_import = len(made)
builds = []
real = cli.build_parser
cli.build_parser = lambda: builds.append(1) or real()
with redirect_stdout(io.StringIO()):
    codes = {cli.main(["reproduce", "--list"]) for _ in range(14)}
print(at_import, len(builds), sorted(codes))
"""


def test_cli_builds_its_parser_once_on_first_use():
    # importing the CLI builds no parser, and a process that runs main 14
    # times (as cli-corpus does) builds exactly one
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CTLAB_BUDGET", None)
    out = subprocess.run([sys.executable, "-c", _PARSER_BUILDS],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["0", "1", "[0]"]


def test_cli_reproduce_unknown_id():
    # an unknown id is a usage error: one "error:" line, no traceback
    src = str(Path(ctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ctlab.cli", "reproduce", "bogus-id"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: unknown reproduction id 'bogus-id'")
    assert "order864-plength" in out.stderr


def test_cli_product_over_scan_limit_exits_before_listing(capsys, monkeypatch):
    # |SL(2, 5) x PSL(2, 11)| = 79,200 > SCAN_LIMIT: the product shortcut
    # raises before it builds the product group or lists a class
    from ctlab import chartab

    raised, built = [], []
    real = chartab.direct_product_table
    real_product = chartab.direct_product
    monkeypatch.setattr(chartab, "direct_product",
                        lambda a, b: built.append(1) or real_product(a, b))

    def tracked(ta, tb):
        try:
            return real(ta, tb)
        except BudgetExceeded:
            raised.append((ta.group.order, tb.group.order))
            raise

    monkeypatch.setattr(chartab, "direct_product_table", tracked)
    code = main(["ctype", "-e", "Direct(SL(2, 5), PSL(2, 11))"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "scan limit 60000" in captured.err
    assert raised == [(120, 660)] and built == []
