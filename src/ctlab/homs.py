"""Group homomorphisms between permutation groups.

A map given on generators is verified and evaluated through a "shadowed"
stabilizer chain: we run Schreier-Sims on the graph subgroup of
source x target, allowing base points only in the source domain.  If the
graph has an element that is trivial on the source but not on the target,
the chain builder is forced to pick a target base point, which we intercept
and report as NotAHomomorphism.  Sifting (g, id) through the finished chain
yields the image of any source element, so evaluation costs one membership
test.
"""

from __future__ import annotations

from .errors import (BudgetExceeded, NotAHomomorphism, NotASubgroup,
                     VerificationFailed)
from .permgroup import PermGroup, StabilizerChain
from .perms import identity, pinv


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

        def reject(residue):
            raise NotAHomomorphism(
                "generator images do not extend to a homomorphism "
                "(graph meets 1 x target nontrivially)")

        self._graph = StabilizerChain(ds + dt, pairs, base_preference=range(ds),
                                      on_restricted=reject)
        if self._graph.order() != source.order:
            # single-valued but defined on a proper subgroup cannot happen:
            # the graph projects onto <gens> = source, so this is a guard.
            raise NotAHomomorphism("graph order mismatch")
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

    def automorphism_order(self, cap=10_000) -> int:
        """Order of an automorphism under composition."""
        if not self.is_automorphism():
            raise NotAHomomorphism("automorphism_order requires an automorphism")
        gens = list(self.source.gens)
        current = list(self.gen_images)
        n = 1
        while current != gens:
            current = [self.image(x) for x in current]
            n += 1
            if n > cap:
                raise BudgetExceeded("automorphism order exceeds cap")
        return n

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite: first self, then other."""
        return GroupHom(self.source, other.target,
                        [other.image(im) for im in self.gen_images])

