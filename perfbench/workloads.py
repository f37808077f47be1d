"""One benchmark sample: run one workload once in this fresh process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N [--trace]

Imports the ctlab modules the workload uses, then times the workload from
its first ctlab call to its last result, then gates every job on facts that
do not depend on point labels.  Prints one JSON object on its last stdout
line: wall time, peak RSS, the per-job facts and gate outcome, full digests
(for information only) and, with --trace, the per-layer metrics.

Each sample needs a fresh process: ctlab caches builds (``lru_cache`` in
``instances``, ``cyclo`` and ``modrep``) and per-group data, so a second
sample in one process would time cache hits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time

S3_GENS = ("(1 2)", "(1 2 3)")
D8_GENS = ("(1 2 3 4)", "(1 3)")
# data/order72.grp as shipped: degree 13, four generators.
ORDER72_DEGREE = 13
ORDER72_GENS = (
    "(1 4 7)(2 5 8)(3 6 9)",
    "(1 2 3)(4 5 6)(7 8 9)",
    "(2 3)(4 7)(5 9)(6 8)(10 11 12 13)",
    "(2 3)(5 6)(8 9)(11 13)",
)


def shuffled(items, seed, salt):
    """The generator list in a seed-determined order.  ctlab promises
    identical results for any order, so every seed must pass the gate."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def perm_spec(degree, gens):
    return f"perm {degree} {{ {', '.join(gens)} }}"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: each returns a list of (job name, facts, digest); cli-corpus
# returns (job name, exit code, report) and is gated after the clock stops
# ---------------------------------------------------------------------------

def blocks_3960(seed):
    from ctlab.chartab import character_table
    from ctlab.instances import order3960_build
    from ctlab.modrep import brauer_data, nilpotency_refute

    build = order3960_build()
    g = build.group
    classes = g.conjugacy_classes()
    table = character_table(g)
    bd = brauer_data(table, 3)
    covering = [b for b in bd.blocks if b.l() == 1 and b.k() > 1]
    refuted = [nilpotency_refute(b, bd, certificate=build.certificate).refuted
               for b in covering]
    facts = {
        "order": g.order,
        "covering": sorted([b.k(), b.l(), b.defect] for b in covering),
        "refuted": refuted,
    }
    info = f"{table.digest()}:{len(classes)}:{bd.ibr_degrees()}"
    return [("order3960", facts, digest(info))]


def _tower(name, group, p):
    from ctlab.gagola import gagola_tower

    cert = gagola_tower(group, p)
    data = cert.to_json()
    facts = {
        "tower_order": data["tower_order"],
        "center_order": data["center_order"],
        "witness_degree": data["witness_degree"],
        "properties": {k: v["holds"] for k, v in data["properties"].items()},
        "verified": data["verified"],
    }
    text = json.dumps(data, sort_keys=True)
    return [(name, facts, digest(text))]


def tower_s3_p5(seed):
    from ctlab.permgroup import group_from_generators
    from ctlab.perms import parse_cycles

    gens = [parse_cycles(c, 3) for c in shuffled(S3_GENS, seed, "s3")]
    return _tower("S3-p5", group_from_generators(3, gens), 5)


def tower_c6_p2(seed):
    from ctlab.forge import cyclic

    return _tower("C6-p2", cyclic(6), 2)


def cli_jobs(seed):
    """(name, argv) for every job of the cli-corpus workload."""
    s3 = perm_spec(3, shuffled(S3_GENS, seed, "s3"))
    d8 = perm_spec(4, shuffled(D8_GENS, seed, "d8"))
    o72 = perm_spec(ORDER72_DEGREE, shuffled(ORDER72_GENS, seed, "order72"))
    return [
        ("table-S3", ["table", "-e", s3]),
        ("table-D8", ["table", "-e", d8]),
        ("table-PSL27", ["table", "-e", "PSL(2, 7)"]),
        ("table-Q16", ["table", "-e", "Quaternion(16)"]),
        ("blocks-order72", ["blocks", "-p", "3", "-e", "Instance(order72)"]),
        ("blocks-order72-perm", ["blocks", "-p", "3", "-e", o72]),
        ("blocks-order720", ["blocks", "-p", "3", "-e", "Instance(order720)"]),
        ("blocks-order864", ["blocks", "-p", "2", "-e", "Instance(order864)"]),
        ("blocks-SL25-p5", ["blocks", "-p", "5", "-e", "SL(2, 5)"]),
        ("blocks-PSL27-p2", ["blocks", "-p", "2", "-e", "PSL(2, 7)"]),
        ("ctype-SL25sq-p5",
         ["ctype", "-p", "5", "-e", "Direct(SL(2, 5), SL(2, 5))"]),
        ("lifts-C4-p2", ["lifts", "-p", "2", "-e", "Cyclic(4)"]),
        ("gagola-C2-p3",
         ["gagola", "-p", "3", "--verify", "-e", perm_spec(2, ["(1 2)"])]),
        ("gagola-C3-p3", ["gagola", "-p", "3", "-e", perm_spec(3, ["(1 2 3)"])]),
    ]


def cli_facts(code, out):
    """Label-free facts of one CLI report (exit code, order, class count,
    sorted degrees, block (k, l, defect) multiset, IBr degrees and the
    command's own verdicts), and a digest of the report without the digest
    of its input text, which a permuted generator list changes."""
    facts = {"exit": code}
    doc = json.loads(out)
    doc.pop("input_digest")
    full = digest(json.dumps(doc, sort_keys=True))
    group = doc["group"]
    facts["order"] = group["order"]
    facts["classes"] = group["class_count"]
    if "table" in doc:
        facts["degrees"] = sorted(doc["table"]["degrees"])
    if "modular" in doc:
        blocks = doc["modular"]["blocks"]
        facts["degrees"] = sorted(d for b in blocks for d in b["degrees"])
        facts["blocks"] = sorted([b["k"], b["l"], b["defect"]] for b in blocks)
        facts["ibr_degrees"] = sorted(doc["modular"]["ibr_degrees"])
    if "central_type" in doc:
        rep = doc["central_type"]
        facts["central_type"] = rep.get("ordinary", {}).get("is_central_type")
        facts["p_central_type"] = rep.get("modular", {}).get("is_p_central_type")
    if "lift_counts" in doc:
        facts["lifts"] = sorted([e["degree"], len(e["lifts"])]
                                for e in doc["lift_counts"])
    if "tower" in doc:
        tower = doc["tower"]
        facts["tower"] = [tower["status"], tower.get("tower_order"),
                          tower.get("center_order"), tower.get("witness_degree")]
    return facts, full


def cli_corpus(seed):
    from ctlab.cli import main

    outputs = []
    for name, argv in cli_jobs(seed):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            text = out.getvalue()
        except Exception as exc:  # a failed job is counted, never fatal
            code, text = None, f"{type(exc).__name__}: {exc}"
        outputs.append((name, code, text))
    # run_jobs parses the reports after the clock stops: that is the
    # benchmark's work, not ctlab's
    return outputs


WORKLOADS = {
    "blocks-3960": (blocks_3960, ["ctlab.chartab", "ctlab.instances",
                                  "ctlab.modrep"]),
    "tower-s3-p5": (tower_s3_p5, ["ctlab.gagola", "ctlab.permgroup",
                                  "ctlab.perms"]),
    "tower-c6-p2": (tower_c6_p2, ["ctlab.gagola", "ctlab.forge"]),
    # cli.main imports these lazily, per command; a CLI user pays for them
    "cli-corpus": (cli_corpus, ["ctlab.cli", "ctlab.centraltype",
                                "ctlab.chartab", "ctlab.gagola",
                                "ctlab.instances", "ctlab.modrep"]),
}

# Label-invariant facts of the seed commit.  Class and character order
# follow point labels, so full tables are digested for information only.
_TOWER_PROPS = {
    "center_squarefree_p_prime_order": True,
    "faithful_witness_with_square_degree": True,
    "embedding_into_central_quotient": True,
    "same_prime_divisors_apart_from_p": True,
}
EXPECTED = {
    "order3960": {"order": 3960, "covering": [[6, 1, 2]], "refuted": [True]},
    "S3-p5": {"tower_order": 1944, "center_order": 6, "witness_degree": 18,
              "properties": _TOWER_PROPS, "verified": True},
    "C6-p2": {"tower_order": 486, "center_order": 3, "witness_degree": 9,
              "properties": _TOWER_PROPS, "verified": True},
    "table-S3": {"exit": 0, "order": 6, "classes": 3, "degrees": [1, 1, 2]},
    "table-D8": {"exit": 0, "order": 8, "classes": 5,
                 "degrees": [1, 1, 1, 1, 2]},
    "table-PSL27": {"exit": 0, "order": 168, "classes": 6,
                    "degrees": [1, 3, 3, 6, 7, 8]},
    "table-Q16": {"exit": 0, "order": 16, "classes": 7,
                  "degrees": [1, 1, 1, 1, 2, 2, 2]},
    "blocks-order72": {"exit": 0, "order": 72, "classes": 15,
                       "degrees": [1] * 4 + [2] * 9 + [4] * 2,
                       "blocks": [[6, 1, 2], [9, 4, 2]],
                       "ibr_degrees": [1, 1, 1, 1, 2]},
    "blocks-order720": {"exit": 0, "order": 720, "classes": 21,
                        "degrees": [1, 1, 2] + [4] * 7 + [5, 5] + [6] * 5
                        + [8, 8, 10, 12],
                        "blocks": [[3, 1, 1], [3, 2, 1], [6, 1, 2], [9, 4, 2]],
                        "ibr_degrees": [1, 1, 4, 4, 4, 6, 6, 6]},
    "blocks-order864": {"exit": 0, "order": 864, "classes": 34,
                        "degrees": [1, 1] + [2] * 4 + [3] * 16 + [6] * 6
                        + [9] * 6,
                        "blocks": [[10, 1, 5], [10, 1, 5], [14, 5, 5]],
                        "ibr_degrees": [1, 2, 2, 2, 2, 3, 3]},
    "blocks-SL25-p5": {"exit": 0, "order": 120, "classes": 9,
                       "degrees": [1, 2, 2, 3, 3, 4, 4, 5, 6],
                       "blocks": [[1, 1, 0], [4, 2, 1], [4, 2, 1]],
                       "ibr_degrees": [1, 2, 3, 4, 5]},
    "blocks-PSL27-p2": {"exit": 0, "order": 168, "classes": 6,
                        "degrees": [1, 3, 3, 6, 7, 8],
                        "blocks": [[1, 1, 0], [5, 3, 3]],
                        "ibr_degrees": [1, 3, 3, 8]},
    "ctype-SL25sq-p5": {"exit": 0, "order": 14400, "classes": 81,
                        "central_type": False, "p_central_type": True},
    "lifts-C4-p2": {"exit": 0, "order": 4, "classes": 4, "lifts": [[1, 4]]},
    "gagola-C2-p3": {"exit": 0, "order": 2, "classes": 2,
                     "tower": ["verified", 8, 2, 2]},
    "gagola-C3-p3": {"exit": 2, "order": 3, "classes": 3,
                     "tower": ["degenerate", None, None, None]},
}
# the order-72 group given as a perm literal from data/order72.grp
EXPECTED["blocks-order72-perm"] = EXPECTED["blocks-order72"]


def run_jobs(name, seed):
    """Time one workload; return (wall seconds, per-job records)."""
    fn, _ = WORKLOADS[name]
    t0 = time.perf_counter()
    try:
        results = fn(seed)
    except Exception as exc:  # a failed job is counted, never fatal
        wall = time.perf_counter() - t0
        return wall, [{"job": name, "ok": False,
                       "error": f"{type(exc).__name__}: {exc}"}]
    wall = time.perf_counter() - t0
    records = []
    for job, first, second in results:
        facts, dig = first, second
        if name == "cli-corpus":  # (job, exit code, report or error)
            try:
                facts, dig = cli_facts(first, second)
            except (ValueError, KeyError, TypeError):
                facts, dig = {"exit": first, "error": second[-500:]}, None
        records.append({"job": job, "ok": facts == EXPECTED.get(job),
                        "facts": facts, "digest": dig})
    return wall, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    for mod in WORKLOADS[args.workload][1]:
        importlib.import_module(mod)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, records = run_jobs(args.workload, args.seed)
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
