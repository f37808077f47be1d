"""Canonical JSON reports: exact values as strings, sorted keys, stable bytes.

Everything numeric is an integer or an exact serialized cyclotomic; no
floats appear anywhere, so a report is byte-identical across runs.  Timing
is deliberately not part of the canonical payload (it would break
reproducibility); the CLI prints it to stderr on request.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .chartab import CharacterTable
from .modrep import BrauerData, RefutationResult


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def group_summary(group, p=None) -> dict:
    out = {
        "order": group.order,
        "degree": group.degree,
        "class_count": len(group.conjugacy_classes()),
        "solvable": group.is_solvable(),
        "center_order": group.center().order,
    }
    if p is not None and out["solvable"]:
        out["p_length"] = group.p_length(p)
    return out


def table_report(table: CharacterTable) -> dict:
    data = table.to_json()
    data["digest"] = table.digest()
    data["degrees"] = list(table.degrees)
    return data


def block_report(bd: BrauerData, refutations=None) -> dict:
    blocks = []
    for i, blk in enumerate(bd.blocks or []):
        entry = {
            "k": blk.k(),
            "l": blk.l(),
            "defect": blk.defect,
            "degrees": [bd.table.degrees[j] for j in blk.ordinary],
            "ordinary": list(blk.ordinary),
            "brauer": list(blk.brauer),
            "maximal_defect": bd.is_maximal_defect(blk),
        }
        if refutations and i in refutations:
            res: RefutationResult = refutations[i]
            entry["refuted_nilpotent"] = res.refuted
            entry["reason"] = res.reason
        blocks.append(entry)
    return {
        "p": bd.p,
        "ibr_degrees": bd.ibr_degrees(),
        "regular_class_count": len(bd.regular),
        "provenance": bd.provenance,
        "blocks": blocks,
    }


def report_envelope(command: str, input_text: str, payload: dict) -> dict:
    return {
        "command": command,
        "input_digest": digest(input_text),
        "version": __version__,
        **payload,
    }
