"""Group homomorphisms between permutation groups.

A map given on generators is decided and evaluated through the stabilizer
chain of its graph, the subgroup of source x target generated by the pairs
(g, image of g), with the target's points placed after the source's.  The
graph maps onto the source, and its kernel is the graph's meet with
1 x target, so the images define a homomorphism exactly when the graph's
order is the source's; any other order raises NotAHomomorphism.  For a
homomorphism every nontrivial graph element moves a source point, and each
base point is the least point that its level's generator moves, so every
base point is a source point.  Sifting (g, id) through the chain then
leaves (id, image of g^-1), so evaluation costs one membership test.
"""

from __future__ import annotations

from .errors import (BudgetExceeded, NotAHomomorphism, NotASubgroup,
                     VerificationFailed)
from .permgroup import PermGroup, StabilizerChain
from .perms import identity, pinv

AUTOMORPHISM_ORDER_CAP = 10_000


def _pair(g, h, ds):
    return tuple(g) + tuple(x + ds for x in h)


class GroupHom:
    """Homomorphism source -> target, defined by generator images."""

    def __init__(self, source: PermGroup, target: PermGroup, images):
        if len(images) != len(source.gens):
            raise NotAHomomorphism("one image per source generator required")
        self.source = source
        self.target = target
        self.gen_images = [tuple(im) for im in images]
        ds, dt = source.degree, target.degree
        self._ds = ds
        pairs = [_pair(g, im, ds) for g, im in zip(source.gens, self.gen_images)]
        self._graph = StabilizerChain(ds + dt, pairs)
        if self._graph.order() != source.order:
            raise NotAHomomorphism(
                "generator images do not extend to a homomorphism "
                "(graph meets 1 x target nontrivially)")
        self._image_group = None

    def image(self, g):
        """Image of an arbitrary element of the source."""
        g = tuple(g)
        ds, dt = self._ds, self.target.degree
        residue = self._graph.residue(_pair(g, identity(dt), ds))
        if any(residue[i] != i for i in range(ds)):
            raise NotASubgroup("element does not lie in the source group")
        shadow = tuple(residue[ds + x] - ds for x in range(dt))
        return pinv(shadow)

    def __call__(self, g):
        return self.image(g)

    def image_group(self) -> PermGroup:
        if self._image_group is None:
            self._image_group = self.target.subgroup(self.gen_images)
        return self._image_group

    def is_injective(self) -> bool:
        return self.image_group().order == self.source.order

    def is_automorphism(self) -> bool:
        return (self.source.degree == self.target.degree
                and self.source.order == self.target.order
                and self.is_injective()
                and all(im in self.source for im in self.gen_images))

    def kernel(self) -> PermGroup:
        ker_order = self.source.order // self.image_group().order
        if ker_order == 1:
            return self.source.subgroup([])
        idt = self.target.identity
        members = [g for g in self.source.elements() if self.image(g) == idt]
        if len(members) != ker_order:
            raise VerificationFailed(
                f"{len(members)} elements map to the identity, "
                f"expected the kernel order {ker_order}")
        return self.source.subgroup_from_elements(members)

    def automorphism_order(self) -> int:
        """Order of an automorphism under composition."""
        if not self.is_automorphism():
            raise NotAHomomorphism("automorphism_order requires an automorphism")
        gens = list(self.source.gens)
        current = list(self.gen_images)
        n = 1
        while current != gens:
            current = [self.image(x) for x in current]
            n += 1
            if n > AUTOMORPHISM_ORDER_CAP:
                raise BudgetExceeded("automorphism order exceeds cap")
        return n

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite: first self, then other."""
        return GroupHom(self.source, other.target,
                        [other.image(im) for im in self.gen_images])

