"""Command-line interface.

Subcommands:
    table      ordinary character table of a group spec
    blocks     block data at a prime
    ctype      central-type report (ordinary, and modular with -p)
    gagola     tower construction with optional certificate verification
    lifts      lift counts for every irreducible Brauer character
    reproduce  named reproduction checks (--list, --all, or one id)

Specs are read from a file argument or passed inline with -e.  Reports are
canonical JSON on stdout (sorted keys, exact values as strings; no floats),
so identical inputs give byte-identical output.  Exit codes: 0 success,
2 verification failure, 3 budget exceeded, 1 other errors (usage errors
too).  --max-order and --max-classes bound the table a command computes.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache

from .errors import Budget, BudgetExceeded, CTLabError, DEFAULT_BUDGET, \
    DegenerateStep, InvalidBudget, MissingDefectGroup, VerificationFailed
from .grammar import Call, evaluate, parse_spec, print_spec
from .reports import (block_report, canonical_json, group_summary,
                      report_envelope, table_report)


def _budget_from(args) -> Budget:
    """The default budget with --max-order and --max-classes applied;
    raises InvalidBudget for a value below 1."""
    base = DEFAULT_BUDGET
    for flag, value in (("--max-order", args.max_order),
                        ("--max-classes", args.max_classes)):
        if value is not None and value < 1:
            raise InvalidBudget(f"{flag} must be a positive integer, got {value}")
    return Budget(
        max_order=base.max_order if args.max_order is None else args.max_order,
        max_classes=(base.max_classes if args.max_classes is None
                     else args.max_classes),
    )


def _load_spec(args):
    if args.expr is not None:
        return args.expr
    if args.spec is None:
        raise CTLabError("provide a spec file or use -e/--expr")
    with open(args.spec) as fh:
        return fh.read()


def _emit(args, payload: dict, started: float) -> None:
    sys.stdout.write(canonical_json(payload))
    if args.timing:
        print(f"elapsed: {time.time() - started:.3f}s", file=sys.stderr)


class _TableTree:
    """A character table plus, for direct-product specs, the factor trees
    and embedding data needed for the tensor shortcut on the modular side."""

    def __init__(self, table, left=None, right=None, pdata=None):
        self.table = table
        self.left = left
        self.right = right
        self.pdata = pdata

    def brauer(self, p):
        from .modrep import brauer_data, brauer_data_for_product

        if self.left is None:
            return brauer_data(self.table, p, with_blocks=False)
        return brauer_data_for_product(self.table, self.left.brauer(p),
                                       self.right.brauer(p), self.pdata,
                                       with_blocks=False)


def _table_for_node(node, budget) -> _TableTree:
    """Character table of a spec; direct products combine factor tables
    instead of running the eigenvalue engine at the product order."""
    from .chartab import character_table, direct_product_table

    if isinstance(node, Call) and node.name == "Direct" and len(node.args) == 2:
        left = _table_for_node(node.args[0], budget)
        right = _table_for_node(node.args[1], budget)
        table, pdata = direct_product_table(left.table, right.table)
        return _TableTree(table, left, right, pdata)
    group = evaluate(node)
    return _TableTree(character_table(group, budget=budget))


def cmd_table(args) -> int:
    started = time.time()
    text = _load_spec(args)
    tree = _table_for_node(parse_spec(text), _budget_from(args))
    payload = report_envelope("table", text, {
        "group": group_summary(tree.table.group),
        "table": table_report(tree.table),
    })
    _emit(args, payload, started)
    return 0


def cmd_blocks(args) -> int:
    started = time.time()
    text = _load_spec(args)
    group = evaluate(parse_spec(text))
    from .chartab import character_table
    from .modrep import brauer_data, nilpotency_refute

    table = character_table(group, budget=_budget_from(args))
    bd = brauer_data(table, args.p)
    refutations = {}
    for i, blk in enumerate(bd.blocks):
        try:
            refutations[i] = nilpotency_refute(blk, bd)
        except MissingDefectGroup:
            continue
    payload = report_envelope("blocks", text, {
        "group": group_summary(group, p=args.p),
        "modular": block_report(bd, refutations),
    })
    _emit(args, payload, started)
    return 0


def cmd_ctype(args) -> int:
    started = time.time()
    text = _load_spec(args)
    tree = _table_for_node(parse_spec(text), _budget_from(args))
    from .centraltype import central_type_report, is_central_type

    if args.p is not None:
        rep = central_type_report(tree.table, tree.brauer(args.p))
    else:
        rep = is_central_type(tree.table)
    payload = report_envelope("ctype", text, {
        "group": group_summary(tree.table.group),
        "central_type": rep.to_json(),
    })
    _emit(args, payload, started)
    return 0


def cmd_gagola(args) -> int:
    started = time.time()
    text = _load_spec(args)
    group = evaluate(parse_spec(text))
    from .gagola import gagola_tower

    try:
        cert = gagola_tower(group, args.p)
    except DegenerateStep as exc:
        payload = report_envelope("gagola", text, {
            "group": group_summary(group),
            "tower": {"status": "degenerate", "level": exc.level,
                      "detail": str(exc)},
        })
        _emit(args, payload, started)
        return 2
    data = cert.to_json()
    data["status"] = "verified" if cert.ok else "unverified"
    payload = report_envelope("gagola", text, {
        "group": group_summary(group),
        "tower": data,
    })
    _emit(args, payload, started)
    if args.verify and not cert.ok:
        return 2
    return 0


def cmd_lifts(args) -> int:
    started = time.time()
    text = _load_spec(args)
    group = evaluate(parse_spec(text))
    from .chartab import character_table
    from .modrep import brauer_data, lifts_of

    table = character_table(group, budget=_budget_from(args))
    bd = brauer_data(table, args.p)
    entries = []
    for i, row in enumerate(bd.ibr):
        entries.append({
            "phi": i,
            "degree": bd.ibr_degrees()[i],
            "lifts": lifts_of(bd, i),
        })
    payload = report_envelope("lifts", text, {
        "group": group_summary(group, p=args.p),
        "p": args.p,
        "lift_counts": entries,
    })
    _emit(args, payload, started)
    return 0


def cmd_reproduce(args) -> int:
    started = time.time()
    from .reproduce import CHECKS, run_all, run_check

    if args.list:
        payload = {"command": "reproduce", "available": sorted(CHECKS)}
        _emit(args, payload, started)
        return 0
    if args.all:
        out = run_all(log=sys.stderr if args.timing else None)
        payload = report_envelope("reproduce", "--all", out)
        _emit(args, payload, started)
        return 0 if out["all_passed_or_skipped"] else 2
    if not args.id:
        print("reproduce needs an id, --all, or --list", file=sys.stderr)
        return 1
    out = run_check(args.id)
    payload = report_envelope("reproduce", args.id, out)
    _emit(args, payload, started)
    return 0 if out["status"] in ("pass", "skipped") else 2


def cmd_parse(args) -> int:
    started = time.time()
    text = _load_spec(args)
    node = parse_spec(text)
    payload = report_envelope("parse", text, {"printed": print_spec(node)})
    _emit(args, payload, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlab",
        description="exact group, character and block computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_prime=False, optional_prime=False, tabulates=True):
        p.add_argument("spec", nargs="?", help="path to a group spec file")
        p.add_argument("-e", "--expr", help="inline group spec text")
        if needs_prime:
            p.add_argument("-p", type=int, required=True, help="the prime")
        if optional_prime:
            p.add_argument("-p", type=int, default=None, help="the prime")
        if tabulates:
            p.add_argument("--max-order", type=int, default=None)
            p.add_argument("--max-classes", type=int, default=None)
        p.add_argument("--timing", action="store_true",
                       help="print elapsed time to stderr")

    common(sub.add_parser("table", help="ordinary character table"))
    common(sub.add_parser("blocks", help="p-blocks and defects"),
           needs_prime=True)
    common(sub.add_parser("ctype", help="central type report"),
           optional_prime=True)
    g = sub.add_parser("gagola", help="tower construction")
    common(g, needs_prime=True, tabulates=False)
    g.add_argument("--verify", action="store_true",
                   help="exit 2 unless all certificate properties hold")
    common(sub.add_parser("lifts", help="lift counts per Brauer character"),
           needs_prime=True)
    r = sub.add_parser("reproduce", help="named reproduction checks")
    r.add_argument("id", nargs="?", help="check id")
    r.add_argument("--all", action="store_true")
    r.add_argument("--list", action="store_true")
    r.add_argument("--timing", action="store_true")
    common(sub.add_parser("parse", help="parse and reprint a spec"),
           tabulates=False)
    return parser


_HANDLERS = {
    "table": cmd_table,
    "blocks": cmd_blocks,
    "ctype": cmd_ctype,
    "gagola": cmd_gagola,
    "lifts": cmd_lifts,
    "reproduce": cmd_reproduce,
    "parse": cmd_parse,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: ``main`` runs many
    times in one process, and importing the module builds nothing."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    try:
        Budget.from_env()   # a bad CTLAB_BUDGET is an error, not the default
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except CTLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
