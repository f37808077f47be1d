"""Central-type detectors, fully ramified character search, equal-degree test.

A group has central type when some irreducible character satisfies
chi(1)^2 = |G : Z(G)|; the modular analogue replaces the index by its
p'-part and Irr by IBr.  Fully ramified linear characters of a central
subgroup are detected by counting the irreducible (Brauer) characters whose
central character matches: for central Z these are exactly the constituents
of the induced character, with no induction needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chartab import CharacterTable, class_fusion, decompose, induce, row_function
from .errors import NotCentral, NotNormal
from .modrep import (BrauerData, LinearCharacter, _degree_of, ibr_over_central,
                     is_central, linear_characters, rows_over_central)
from .permgroup import PermGroup, p_prime_part
from .perms import order as perm_order


@dataclass
class CTypeReport:
    order: int
    center_order: int
    is_central_type: bool = None
    witness: int = None
    p: int = None
    is_p_central_type: bool = None
    modular_witness: int = None
    fully_ramified: list = field(default_factory=list)

    def to_json(self):
        out = {
            "order": self.order,
            "center_order": self.center_order,
        }
        if self.is_central_type is not None:
            out["ordinary"] = {"is_central_type": self.is_central_type,
                               "witness": self.witness}
        if self.p is not None:
            out["modular"] = {
                "p": self.p,
                "is_p_central_type": self.is_p_central_type,
                "witness": self.modular_witness,
                "fully_ramified": [
                    {"lambda": li, "e": e, "phi": pi}
                    for (li, e, pi) in self.fully_ramified
                ],
            }
        return out


def is_central_type(table: CharacterTable) -> CTypeReport:
    """True iff some chi(1)^2 equals |G : Z(G)|; reports the first witness."""
    g = table.group
    target = g.order // g.center().order
    witness = next((i for i, d in enumerate(table.degrees) if d * d == target), None)
    return CTypeReport(g.order, g.center().order,
                       is_central_type=witness is not None, witness=witness)


def is_p_central_type(bd: BrauerData) -> CTypeReport:
    """True iff some phi(1)^2 equals the p'-part of |G : Z(G)|."""
    g = bd.group
    center = g.center()
    target = p_prime_part(g.order // center.order, bd.p)
    witness = next((i for i, row in enumerate(bd.ibr)
                    if _degree_of(row) ** 2 == target), None)
    return CTypeReport(g.order, center.order, p=bd.p,
                       is_p_central_type=witness is not None,
                       modular_witness=witness)


def fully_ramified_search(bd: BrauerData, z_sub: PermGroup) -> list:
    """Linear Brauer characters of the p'-part of a central Z with a single
    irreducible constituent above them.

    Returns triples (lambda index, e, phi index) with e the degree of the
    unique constituent.  The lambda indices refer to the canonical ordering
    of the linear characters of Z_{p'}.
    """
    if not is_central(z_sub, bd.group):
        raise NotCentral("fully ramified search requires a central subgroup")
    zp = z_sub.subgroup_from_elements(
        [x for x in z_sub.elements() if perm_order(x) % bd.p != 0])
    lams = linear_characters(zp)
    out = []
    for li, lam in enumerate(lams):
        over = ibr_over_central(bd, zp, lam)
        if len(over) == 1:
            out.append((li, _degree_of(bd.ibr[over[0]]), over[0]))
    return out


def central_type_report(table: CharacterTable, bd: BrauerData = None) -> CTypeReport:
    """Combined ordinary/modular report used by the CLI."""
    rep = is_central_type(table)
    if bd is not None:
        mod = is_p_central_type(bd)
        rep.p = bd.p
        rep.is_p_central_type = mod.is_p_central_type
        rep.modular_witness = mod.modular_witness
        rep.fully_ramified = fully_ramified_search(bd, bd.group.center())
    return rep


def humphreys_equal_degree(table: CharacterTable, n_sub: PermGroup,
                           n_table: CharacterTable, lam_index: int) -> bool:
    """Do all irreducible constituents of lam^G share one degree?"""
    if not table.group.is_normal(n_sub):
        raise NotNormal("equal-degree test requires a normal subgroup")
    fus = class_fusion(n_sub, table.group)
    ind = induce(row_function(n_table, lam_index), table.classes, fus)
    mults = decompose(table, ind)
    degrees = {table.degrees[i] for i, m in enumerate(mults) if m != 0}
    return len(degrees) == 1


def over_count_vs_quotient(table: CharacterTable, z_sub: PermGroup,
                           lam: LinearCharacter) -> dict:
    """|Irr(H | lam)| against k(H/Z); equality means every class is good."""
    g = table.group
    if not is_central(z_sub, g):
        raise NotCentral("count comparison requires a central subgroup")
    count = len(rows_over_central(table.values, z_sub, g.class_of, lam))
    k_quotient = len(g.quotient(z_sub).group.conjugacy_classes())
    return {"count": count, "k_quotient": k_quotient,
            "all_good": count == k_quotient}
