"""The group-spec language: parsing, printing, evaluation.

Grammar (see docs/spec-grammar.md for the full description):

    expr     := perm_lit | mat_lit | call
    perm_lit := "perm" INT "{" [cycles ("," cycles)*] "}"
    mat_lit  := "mat" "GF" "(" INT ")" "{" matrix ("," matrix)* "}"
    call     := NAME "(" [arg ("," arg)*] ")"
    arg      := expr | INT | NAME | NAME "=" INT | list
    list     := "[" [list_item ("," list_item)*] "]"

Permutations are written in 1-based disjoint-cycle notation; matrices as
nested integer lists.  Printing a parsed spec and re-parsing it returns an
equal tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (ArityError, InvalidPermutation, ParseError,
                     UnsupportedFamily)
from .perms import format_cycles, parse_cycles


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermLit:
    degree: int
    perms: tuple

    def print(self) -> str:
        if not self.perms:
            return f"perm {self.degree} {{ }}"
        body = ", ".join(format_cycles(p) for p in self.perms)
        return f"perm {self.degree} {{ {body} }}"


@dataclass(frozen=True)
class MatLit:
    q: int
    mats: tuple   # tuple of tuple-of-tuple rows

    def print(self) -> str:
        body = ", ".join(_print_matrix(m) for m in self.mats)
        return f"mat GF({self.q}) {{ {body} }}"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple

    def print(self) -> str:
        return f"{self.name}({', '.join(_print_arg(a) for a in self.args)})"


@dataclass(frozen=True)
class Keyword:
    key: str
    value: int

    def print(self) -> str:
        return f"{self.key}={self.value}"


@dataclass(frozen=True)
class PermArg:
    """A bare permutation inside a list argument (1-based cycle text),
    read once the degree of the group it acts on is known; ``line`` and
    ``col`` locate it for error messages and take no part in equality."""
    text: str
    line: int = field(default=None, compare=False)
    col: int = field(default=None, compare=False)

    def print(self) -> str:
        return self.text


def _print_matrix(m):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                           for row in m) + "]"


def _print_arg(a):
    if isinstance(a, (PermLit, MatLit, Call, Keyword, PermArg)):
        return a.print()
    if isinstance(a, int):
        return str(a)
    if isinstance(a, str):
        return a
    if isinstance(a, tuple):   # generic list argument
        return "[" + ", ".join(_print_arg(x) for x in a) + "]"
    raise ParseError(f"unprintable argument {a!r}")


def print_spec(node) -> str:
    return node.print()


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<punct>[(){}\[\],=])|(?P<bad>\S))")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                break
            skipped = text[pos:m.start(m.lastgroup)]
            line += skipped.count("\n")
            col = (m.start(m.lastgroup) - text.rfind("\n", 0, m.start(m.lastgroup))
                   if "\n" in text[:m.start(m.lastgroup)] else m.start(m.lastgroup) + 1)
            if m.group("bad"):
                raise ParseError(f"unexpected character {m.group('bad')!r}",
                                 line, col)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), line, col))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None,) * 4

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}",
                             tok[2], tok[3])
        return tok

    def at_end(self):
        return self.i >= len(self.tokens)


def parse_spec(text: str):
    text = re.sub(r"#[^\n]*", "", text)
    toks = _Tokens(text)
    node = _parse_expr(toks)
    if not toks.at_end():
        tok = toks.peek()
        raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2], tok[3])
    return node


def _parse_expr(toks: _Tokens):
    kind, value, line, col = toks.peek()
    if kind == "name" and value == "perm":
        return _parse_perm_lit(toks)
    if kind == "name" and value == "mat":
        return _parse_mat_lit(toks)
    if kind == "name":
        return _parse_call(toks)
    raise ParseError(f"expected a group expression, got {value!r}", line, col)


def _parse_perm_lit(toks):
    toks.expect("name", "perm")
    deg = int(toks.expect("int")[1])
    toks.expect("punct", "{")
    perms = []
    while toks.peek()[1] != "}":
        perms.append(_parse_cycle_perm(toks, deg))
        if toks.peek()[1] == ",":
            toks.next()
    toks.expect("punct", "}")
    return PermLit(deg, tuple(perms))


def _parse_cycle_perm(toks, deg):
    """One permutation written as cycles (or '()' for the identity)."""
    line, col = toks.peek()[2:]
    return _cycles_to_perm(_read_cycles(toks), deg, line, col)


def _read_cycles(toks):
    """The text of one permutation written as cycles, every point checked
    to be an integer."""
    kind, value, line, col = toks.peek()
    if value != "(":
        raise ParseError(f"expected a cycle, got {value!r}", line, col)
    pieces = []
    while toks.peek()[1] == "(":
        toks.next()
        pts = []
        while toks.peek()[1] != ")":
            tok = toks.next()
            if tok[0] == "punct" and tok[1] == ",":
                continue
            if tok[0] != "int":
                raise ParseError(f"expected a point, got {tok[1]!r}",
                                 tok[2], tok[3])
            pts.append(tok[1])
        toks.expect("punct", ")")
        pieces.append("(" + " ".join(pts) + ")")
    return "".join(pieces)


def _cycles_to_perm(text, deg, line=None, col=None):
    try:
        return parse_cycles(text, deg)
    except InvalidPermutation as exc:
        raise ParseError(str(exc), line, col) from exc


def _parse_mat_lit(toks):
    toks.expect("name", "mat")
    toks.expect("name", "GF")
    toks.expect("punct", "(")
    q = int(toks.expect("int")[1])
    toks.expect("punct", ")")
    toks.expect("punct", "{")
    mats = []
    while toks.peek()[1] != "}":
        mats.append(_parse_matrix(toks))
        if toks.peek()[1] == ",":
            toks.next()
    toks.expect("punct", "}")
    return MatLit(q, tuple(mats))


def _parse_matrix(toks):
    toks.expect("punct", "[")
    rows = []
    while toks.peek()[1] != "]":
        toks.expect("punct", "[")
        row = []
        while toks.peek()[1] != "]":
            tok = toks.next()
            if tok[0] == "punct" and tok[1] == ",":
                continue
            if tok[0] != "int":
                raise ParseError(f"expected a matrix entry, got {tok[1]!r}",
                                 tok[2], tok[3])
            row.append(int(tok[1]))
        toks.expect("punct", "]")
        rows.append(tuple(row))
        if toks.peek()[1] == ",":
            toks.next()
    toks.expect("punct", "]")
    return tuple(rows)


def _parse_call(toks):
    name = toks.expect("name")[1]
    toks.expect("punct", "(")
    args = []
    while toks.peek()[1] != ")":
        args.append(_parse_arg(toks))
        if toks.peek()[1] == ",":
            toks.next()
    toks.expect("punct", ")")
    return Call(name, tuple(args))


def _parse_arg(toks):
    kind, value, line, col = toks.peek()
    if kind == "int":
        toks.next()
        return int(value)
    if kind == "punct" and value == "[":
        return _parse_list(toks)
    if kind == "punct" and value == "(":
        # bare permutation argument: read once its degree is known
        return PermArg(_read_cycles(toks), line, col)
    if kind == "name":
        if value in ("perm", "mat"):
            return _parse_expr(toks)
        nxt = toks.tokens[toks.i + 1] if toks.i + 1 < len(toks.tokens) else (None,) * 4
        if nxt[0] == "punct" and nxt[1] == "(":
            return _parse_call(toks)
        if nxt[0] == "punct" and nxt[1] == "=":
            toks.next()
            toks.next()
            val = toks.expect("int")[1]
            return Keyword(value, int(val))
        toks.next()
        return value
    raise ParseError(f"unexpected token {value!r}", line, col)


def _parse_list(toks):
    toks.expect("punct", "[")
    # lookahead: a list of lists could be a matrix; keep generic tuples
    items = []
    while toks.peek()[1] != "]":
        items.append(_parse_arg(toks))
        if toks.peek()[1] == ",":
            toks.next()
    toks.expect("punct", "]")
    return tuple(items)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _is_int(arg):
    return isinstance(arg, int)


def _is_perm(arg):
    return isinstance(arg, PermArg)


def _list_of(test):
    return lambda arg: isinstance(arg, tuple) and all(test(x) for x in arg)


# The kind of each argument of a construction, by the letters of _KINDS.
# Gagola takes a group expression and p=<prime>.
_SIGNATURES = {
    "Cyclic": "i", "ElemAbelian": "ii", "Extraspecial": "in", "Dihedral": "i",
    "Quaternion": "i", "SL": "ii", "PSL": "ii", "Direct": "gg", "Wreath": "gi",
    "CentralProductPower": "gi", "Semidirect": "ggA", "CyclicExt": "gPip",
    "Affine": "iiM", "Instance": "n",
}
_KINDS = {
    "i": ("int", _is_int),
    "g": ("a group expression", lambda arg: isinstance(arg, (PermLit, MatLit, Call))),
    "n": ("a name", lambda arg: isinstance(arg, str)),
    "p": ("a permutation", _is_perm),
    "P": ("a list of permutations", _list_of(_is_perm)),
    "A": ("a list of permutation lists", _list_of(_list_of(_is_perm))),
    "M": ("a list of integer matrices", _list_of(_list_of(_list_of(_is_int)))),
}


def evaluate(node):
    """Evaluate a spec tree to a PermGroup."""
    from . import forge
    from .homs import GroupHom

    if isinstance(node, PermLit):
        from .permgroup import group_from_generators

        return group_from_generators(node.degree, list(node.perms))
    if isinstance(node, MatLit):
        return forge.mat_group(node.q, [list(map(list, m)) for m in node.mats])
    if not isinstance(node, Call):
        raise ParseError(f"cannot evaluate {node!r}")
    name = node.name
    args = node.args
    kinds = _SIGNATURES.get(name)
    if kinds is not None:
        if len(args) != len(kinds):
            raise ArityError(f"{name} takes {len(kinds)} arguments, got {len(args)}")
        for arg, kind in zip(args, kinds):
            what, test = _KINDS[kind]
            if not test(arg):
                raise ParseError(f"expected {what}, got {_print_arg(arg)!r}")

    if name == "Cyclic":
        return forge.cyclic(args[0])
    if name == "ElemAbelian":
        return forge.elem_abelian(args[0], args[1])
    if name == "Extraspecial":
        kind = {"plus": "+", "minus": "-"}.get(args[1])
        if kind is None:
            raise ParseError("Extraspecial kind must be plus or minus")
        return forge.extraspecial(args[0], kind)
    if name == "Dihedral":
        return forge.dihedral(args[0])
    if name == "Quaternion":
        return forge.quaternion(args[0])
    if name == "SL":
        if args[0] != 2:
            raise UnsupportedFamily("only SL(2, q) is built in")
        return forge.sl2(args[1])
    if name == "PSL":
        if args[0] != 2:
            raise UnsupportedFamily("only PSL(2, q) is built in")
        return forge.psl2(args[1])
    if name == "Direct":
        from .permgroup import direct_product

        return direct_product(evaluate(args[0]), evaluate(args[1]))[0]
    if name == "Wreath":
        return forge.wreath(evaluate(args[0]), args[1]).group
    if name == "CentralProductPower":
        return forge.central_product_power(evaluate(args[0]), args[1]).group
    if name == "Semidirect":
        n_grp = evaluate(args[0])
        h_grp = evaluate(args[1])
        autos = []
        for images in args[2]:
            perms = [_resolve_perm(p, n_grp.degree) for p in images]
            autos.append(GroupHom(n_grp, n_grp, perms))
        return forge.semidirect(n_grp, h_grp, autos).group
    if name == "CyclicExt":
        n_grp = evaluate(args[0])
        images = [_resolve_perm(p, n_grp.degree) for p in args[1]]
        alpha = GroupHom(n_grp, n_grp, images)
        x = _resolve_perm(args[3], n_grp.degree)
        return forge.cyclic_extension_build(n_grp, alpha, args[2], x).group
    if name == "Affine":
        return forge.affine(args[0], args[1], [list(map(list, m)) for m in args[2]])
    if name == "Gagola":
        if len(args) != 2 or not isinstance(args[1], Keyword) or args[1].key != "p":
            raise ArityError("Gagola takes a group expression and p=<prime>")
        from .gagola import gagola_tower

        return gagola_tower(evaluate(args[0]), args[1].value).tower
    if name == "Instance":
        return _instance_group(args[0])
    raise ParseError(f"unknown construction {name!r}")


def _resolve_perm(arg, degree):
    return _cycles_to_perm(arg.text, degree, arg.line, arg.col)


def _instance_group(name):
    from . import instances

    table = {
        "order54": lambda: instances.order54_group().group,
        "order72": lambda: instances.order72_build().group,
        "order720": lambda: instances.order720_build().group,
        "order864": lambda: instances.order864_build().group,
    }
    if name not in table:
        raise ParseError(f"unknown instance {name!r}; available: "
                         + ", ".join(sorted(table)))
    return table[name]()


# ---------------------------------------------------------------------------
# generator / matrix data files
# ---------------------------------------------------------------------------

def parse_generator_file(text: str):
    """'degree N' header, then one permutation per line in cycle notation."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("degree"):
        raise ParseError("generator files start with 'degree N'")
    try:
        degree = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("bad degree header") from exc
    perms = [parse_cycles(ln, degree) for ln in lines[1:]]
    return degree, perms


def parse_matrix_file(text: str):
    """'GF(q)' header, then one matrix per line as nested brackets."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    m = re.fullmatch(r"GF\((\d+)\)", lines[0] if lines else "")
    if not m:
        raise ParseError("matrix files start with 'GF(q)'")
    q = int(m.group(1))
    mats = []
    for ln in lines[1:]:
        toks = _Tokens(ln)
        mats.append([list(row) for row in _parse_matrix(toks)])
        if not toks.at_end():
            raise ParseError(f"trailing input in matrix line {ln!r}")
    if not mats:
        raise ParseError("the matrix file holds no matrix after its 'GF(q)' line")
    from .forge import check_square_matrices

    check_square_matrices(mats, len(mats[0]))
    return q, mats
