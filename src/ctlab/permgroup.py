"""Permutation groups with deterministic stabilizer chains.

The chain construction is a deterministic Schreier-Sims in the style of
Holt's SCHREIERSIMS: strong generators carry an explicit level range, orbits
are grown breadth-first in a fixed order and Schreier generators are sifted
in a fixed order, so the same generator list always produces the same chain.
Every chain is built incrementally: ``StabilizerChain.extend`` sifts one
element and completes the chain, and the chain of a generator list is the
one that extending by each generator in turn builds; a level keeps the
inverse of a transversal element once a sift has computed it.  A group
keeps, beside ``gens``, its ``chain_gens``: the generators that enlarged
the chain as it was built, a subset that generates the same group, over
which ``elements()`` closes its keys and the class scan conjugates.
Nothing extends a group's chain (``_adopt`` clears the sifted Schreier
pairs), so two kinds of chain are assembled, with no Schreier generator
sifted:

* a direct product or power's, from the factors' chains, each factor's
  levels after the levels of the factors before it (``_side_by_side``),
  Schreier-Sims's own chain when the factors' chains are Schreier-Sims's;
* a split extension N : C_q's on q copies of N's domain, N's levels
  carried in, the top generator added to the first level and the orbits
  regrown (``_carried_chain``, for ``forge.split_cyclic_extension``;
  ``forge.CyclicExtensionResult`` maps N in and out).

Classes, center, cores and Sylow subgroups canonicalize their output and
therefore do not depend on chain internals.  The centre is read off the classes: its
elements are the members of the classes of size 1.  The coset labels of
``coset_action`` follow the base of the subgroup's chain
(``_coset_canonicalizer``).  Cores and the p-length are computed inside
G, as greedy joins of normal closures over the class representatives
(``_core``); each core grows one chain, whose copy is extended by a
candidate and kept when the candidate joins, dropped as soon as its index
fails, and no quotient group is built.  A Sylow subgroup grows one element at a time, each found
by walking the normalizer's elements (``_normalizing``), which is never
built as a group.

``elements()`` lists the group as products of one transversal element per
level, but only after proving that the chain is right for the generators:
``verify_chain`` checks Schreier's lemma level by level, every generator
must sift, and the generators' base-image keys, closed at |base| lookups
a step, must number the chain's order.  These three checks are what the
element scans rest on; nothing closes a group at the full degree.  The
scans (classes, centralizers and normalizers) hold each element
under its base-image key, its images of the chain's base points, so
conjugating an element costs |base| lookups instead of two products at
the full degree (see ``_keyed_elements``); ``ClassData.key_index`` maps
the key of each class element to its class, checked the same way, and
power maps and class matrices are looked up in it.  ``key_getter`` is the
one key routine: the keys of elements over a fixed list of points, here
and in ``chartab.class_matrix_columns``, are read by the getter it builds
for those points (``operator.itemgetter`` from two points on); only the
conjugation keys ``s[y[c]]`` of the scans are built in place.  Everything
assumes desk scale: orders up to a few tens of thousands, degrees up to
~2000; no element scan runs on a group of order above ``SCAN_LIMIT``, and
no constructed domain has more than ``MAX_POINTS`` points.
"""

from __future__ import annotations

from collections import deque
from math import lcm, prod
from operator import itemgetter

from .cyclo import p_part, p_prime_part
from .errors import (
    BudgetExceeded,
    NotASubgroup,
    NotNormal,
    NotSolvable,
    VerificationFailed,
)
from .perms import (
    commutator,
    conj,
    format_cycles,
    identity,
    pinv,
    pmul,
    ppow,
    validate,
)

SCAN_LIMIT = 60_000
"""The largest order whose elements ``PermGroup.elements`` lists."""

MAX_POINTS = 100_000
"""The largest domain that a construction or a coset action builds."""


def check_scan(order: int) -> None:
    """Raise BudgetExceeded, before anything is listed, when a group of
    this order has more than SCAN_LIMIT elements."""
    if order > SCAN_LIMIT:
        raise BudgetExceeded(
            f"element enumeration of order {order} exceeds "
            f"the scan limit {SCAN_LIMIT}")


def key_getter(points):
    """The key routine: a function x -> ``tuple(x[b] for b in points)``.

    For two or more points it is ``operator.itemgetter(*points)``, which
    builds the tuple in C.  ``itemgetter`` of one point returns the bare
    image, and of none cannot be built, so fewer points get a small
    function that builds the tuple; the trivial group and one-point bases
    still key on tuples.
    """
    points = tuple(points)
    if len(points) > 1:
        return itemgetter(*points)
    return lambda x: tuple([x[b] for b in points])


def check_points(n: int, name: str) -> None:
    """Raise BudgetExceeded, before anything is allocated, when the domain
    of ``name`` would have more than MAX_POINTS points."""
    if n > MAX_POINTS:
        raise BudgetExceeded(
            f"{name} exceeds the domain limit of {MAX_POINTS} points")


class _Level:
    __slots__ = ("base", "gens", "orbit", "inverses", "processed", "dirty")

    def __init__(self, base, ident):
        self.base = base
        self.gens = []          # generators assigned to this level
        self.orbit = {base: ident}
        self.inverses = {}      # point t -> u_t^-1, filled on first use
        self.processed = set()  # (point, gen position) Schreier pairs already sifted
        self.dirty = True

    def copy(self):
        new = _Level.__new__(_Level)
        new.base = self.base
        new.gens = list(self.gens)
        new.orbit = dict(self.orbit)
        new.inverses = dict(self.inverses)
        new.processed = set(self.processed)
        new.dirty = self.dirty
        return new


def _inverse(cache, orbit, t):
    """u_t^-1 for the transversal ``orbit``, kept in ``cache``."""
    inv = cache.get(t)
    if inv is None:
        inv = cache[t] = pinv(orbit[t])
    return inv


class StabilizerChain:
    """Base and strong generating set for a permutation group, built by
    extending the trivial chain by each generator in turn.

    A new level's base point is the least point that its generator moves:
    a sift residue that falls through every level fixes all earlier base
    points and, being no identity, moves some point.
    """

    def __init__(self, degree, gens):
        self.degree = degree
        self.identity = identity(degree)
        self.levels = []
        for g in gens:
            self.extend(g)

    # -- construction ---------------------------------------------------
    def _assign(self, g, lo, hi):
        """Make g a generator of levels lo..hi inclusive (creating level hi)."""
        while hi >= len(self.levels):
            base = next(x for x, y in enumerate(g) if x != y)
            self.levels.append(_Level(base, self.identity))
        for l in range(lo, hi + 1):
            lvl = self.levels[l]
            lvl.gens.append(g)
            lvl.dirty = True
        for l in range(lo, hi + 1):
            self._refresh_orbit(l)

    def _refresh_orbit(self, i):
        lvl = self.levels[i]
        if not lvl.dirty:
            return
        orbit = {lvl.base: self.identity}
        queue = deque([lvl.base])
        while queue:
            t = queue.popleft()
            u = orbit[t]
            for s in lvl.gens:
                img = s[t]
                if img not in orbit:
                    orbit[img] = pmul(u, s)
                    queue.append(img)
        if lvl.processed:
            # A new generator can shorten the breadth-first tree; a Schreier
            # generator sifted with a transversal element that has changed
            # since must be sifted again.
            moved = {t for t, u in lvl.orbit.items() if orbit[t] != u}
            if moved:
                gens = lvl.gens
                lvl.processed = {(t, k) for t, k in lvl.processed
                                 if t not in moved and gens[k][t] not in moved}
        lvl.orbit = orbit
        lvl.inverses = {}
        lvl.dirty = False

    def _complete(self, i):
        """Process levels i, i-1, ..., 0, going deeper again wherever a new
        strong generator was inserted."""
        while i >= 0:
            stuck = self._process_level(i)
            i = i - 1 if stuck is None else stuck

    def extend(self, g) -> bool:
        """Add g to the group: False, with the chain unchanged, when g is
        already a member.  The sift residue fixes the base points of the
        levels above the one where it stopped, so it becomes a generator
        of levels 0..j and the chain is completed from level j."""
        residue, j = self._sift(g)
        if residue == self.identity:
            return False
        self._assign(residue, 0, j)
        self._complete(j)
        return True

    def _process_level(self, i):
        """Sift Schreier generators of level i; return a deeper level index to
        reprocess when a new strong generator was inserted, else None."""
        lvl = self.levels[i]
        self._refresh_orbit(i)
        for t in sorted(lvl.orbit):
            u_t = lvl.orbit[t]
            for k in range(len(lvl.gens)):
                if (t, k) in lvl.processed:
                    continue
                lvl.processed.add((t, k))
                s = lvl.gens[k]
                t_next = s[t]
                u_ts = pmul(u_t, s)
                if u_ts == lvl.orbit[t_next]:   # trivial Schreier generator
                    continue
                sg = pmul(u_ts, _inverse(lvl.inverses, lvl.orbit, t_next))
                residue, j = self._sift(sg, i + 1)
                if residue == self.identity:
                    continue
                self._assign(residue, i + 1, j)
                return j
        return None

    def _sift(self, g, start=0, inverses=None):
        """(residue, level where the sift stopped).  Each step divides by
        u^-1 from the level's inverse cache, or from ``inverses`` (one
        dict per level) when given."""
        levels = self.levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            img = g[lvl.base]
            if img == lvl.base:
                continue
            if img not in lvl.orbit:
                return g, i
            cache = lvl.inverses if inverses is None else inverses[i]
            g = pmul(g, _inverse(cache, lvl.orbit, img))
        return g, len(levels)

    def copy(self):
        """A chain for the same group that extends independently of this
        one.  It keeps the sifted Schreier pairs, so extending the copy
        does the work that extending this chain would."""
        new = StabilizerChain.__new__(StabilizerChain)
        new.degree = self.degree
        new.identity = self.identity
        new.levels = [lvl.copy() for lvl in self.levels]
        return new

    # -- queries ---------------------------------------------------------
    @property
    def base(self):
        return tuple(lvl.base for lvl in self.levels)

    def order(self) -> int:
        return prod(len(l.orbit) for l in self.levels) if self.levels else 1

    def contains(self, g) -> bool:
        if len(g) != self.degree:
            return False
        residue, _ = self._sift(g)
        return residue == self.identity

    def residue(self, g):
        return self._sift(g)[0]

    def from_base_images(self, images):
        """The element g with g[b_i] = images[i] at each base point b_i, or
        None when the group has none.  g = u_(k-1) ... u_0, where u_i is the
        transversal element of level i that sends b_i where
        g u_0^-1 ... u_(i-1)^-1 must send it; the later u_j fix b_i, so g
        meets every image.  The base separates the group, so g is unique."""
        g = self.identity
        for i, lvl in enumerate(self.levels):
            u = lvl.orbit.get(images[i])
            if u is None:
                return None
            inv = _inverse(lvl.inverses, lvl.orbit, images[i])
            images = [inv[x] for x in images]
            g = pmul(u, g)
        return g


def verify_chain(chain) -> None:
    """Check Schreier's lemma on ``chain`` without trusting its construction;
    raise VerificationFailed at the first failure.

    With S_i the generators of levels >= i and H_i = <S_i>, each level i
    must satisfy: every s in S_i fixes b_0, ..., b_(i-1); the stored orbit
    is the orbit of b_i under S_i; u_(b_i) is the identity and each stored
    u_t maps b_i to t; and every Schreier generator u_t s u_(t^s)^-1 sifts
    to the identity through levels i+1 onward.  By induction from the
    bottom, the products P_i = {u_(k-1) ... u_i} then form the group H_i
    and |H_i| = prod_(j >= i) |orbit_j|: if P_(i+1) = H_(i+1), the Schreier
    check makes P_i closed under right multiplication by S_i, and it
    contains the identity, so H_i <= P_i; H_(i+1) fixes b_i, so
    |H_i| >= |orbit_i| |H_(i+1)| = |P_i|.

    The inverses of the transversal elements are computed here afresh,
    never read from the chain's cache.
    """
    levels, base, ident = chain.levels, chain.base, chain.identity
    inverses = [{} for _ in levels]
    strong, acc = [], {}
    for lvl in reversed(levels):
        acc.update(dict.fromkeys(lvl.gens))
        strong.append(list(acc))
    strong.reverse()
    for i, (lvl, gens) in enumerate(zip(levels, strong)):
        b, orbit = lvl.base, lvl.orbit
        if any(s[c] != c for s in gens for c in base[:i]):
            raise VerificationFailed(
                f"a strong generator of level {i} moves an earlier base point")
        reached = {b}
        queue = [b]
        for t in queue:
            for s in gens:
                if s[t] not in reached:
                    reached.add(s[t])
                    queue.append(s[t])
        if reached != orbit.keys():
            raise VerificationFailed(
                f"level {i} stores {len(orbit)} orbit points, its strong "
                f"generators reach {len(reached)}")
        if orbit[b] != ident or any(u[b] != t for t, u in orbit.items()):
            raise VerificationFailed(f"a transversal element of level {i} "
                                     "does not map the base point to its point")
        for t, u in orbit.items():
            for s in gens:
                u_ts = pmul(u, s)
                if u_ts != orbit[s[t]] and chain._sift(
                        pmul(u_ts, _inverse(inverses[i], orbit, s[t])),
                        i + 1, inverses)[0] != ident:
                    raise VerificationFailed(
                        f"a Schreier generator of level {i} does not sift")


class PermGroup:
    """A finite permutation group on 0..degree-1 with cached structure data."""

    def __init__(self, degree, gens, check=True):
        if check:
            gens = [validate(g, degree) for g in gens]
        ident = identity(degree)
        gens = tuple(g for g in gens if g != ident)
        chain = StabilizerChain(degree, [])
        self._adopt(gens, chain, tuple(g for g in gens if chain.extend(g)))

    def _adopt(self, gens, chain, chain_gens):
        """Take over ``chain``, the chain that extending by ``gens`` (a tuple
        without the identity) in order builds; ``chain_gens`` are the
        generators that enlarged it, a subset of ``gens`` that generates
        the same group."""
        self.degree = chain.degree
        self.gens = gens
        self.chain_gens = chain_gens
        self.chain = chain
        self.order = chain.order()
        for lvl in chain.levels:
            lvl.processed = set()   # nothing extends a group's chain
        self._elements = None
        self._classes = None
        self._center = None
        self._solvable = None
        self._cores = {}

    # -- basics ----------------------------------------------------------
    @property
    def identity(self):
        return self.chain.identity

    def __contains__(self, g):
        return self.chain.contains(tuple(g))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def elements(self):
        """All elements, sorted lexicographically (cached).  Every element
        scan (classes, centralizers, normalizers, kernels) starts here, so
        this is where ``check_scan`` bounds them by SCAN_LIMIT.

        The elements are the products u_(k-1) ... u_0 of one transversal
        element per level, listed only after four checks prove that they
        are the group generated by ``gens``: ``verify_chain`` proves that
        the chain's group H has order ``order`` = prod |orbits| and is that
        product set; every generator sifts, so <gens> <= H; ``chain_gens``
        is a subset S of ``gens``, so <S> <= <gens>; and the base-image
        keys of <S>, closed under S at |base| lookups a step, number
        ``order``, so |<S>| >= |H|.  Hence <S> = <gens> = H, and the base
        separates its elements.  The closure runs over S alone, the
        generators that enlarged the chain, which may be far fewer than
        ``gens``; the class scan walks S as well.
        """
        if self._elements is None:
            check_scan(self.order)
            chain = self.chain
            verify_chain(chain)
            if any(chain.residue(g) != self.identity for g in self.gens):
                raise VerificationFailed("a generator does not sift through its chain")
            if not set(self.chain_gens) <= set(self.gens):
                raise VerificationFailed(
                    "the chain's generators are not among the group's generators")
            keys = {chain.base}
            queue = [chain.base]
            for key in queue:
                get = key_getter(key)
                for s in self.chain_gens:
                    k = get(s)
                    if k not in keys:
                        keys.add(k)
                        queue.append(k)
            if len(keys) != self.order:
                raise VerificationFailed(
                    f"the generators reach {len(keys)} base-image keys, "
                    f"the chain order is {self.order}")
            elems = [self.identity]
            for lvl in reversed(chain.levels):
                us = [u for t, u in lvl.orbit.items() if t != lvl.base]
                elems += [pmul(y, u) for y in elems for u in us]
            self._elements = sorted(elems)
        return self._elements

    def subgroup(self, gens):
        return PermGroup(self.degree, gens, check=False)

    def subgroup_from_elements(self, elems):
        """The subgroup generated by ``elems``, on the elements that enlarge
        it in sorted order.  Extending by exactly those rebuilds the same
        chain, so the chain built here is the subgroup's own."""
        chain = StabilizerChain(self.degree, [])
        sel = tuple(x for x in sorted(set(elems)) if chain.extend(x))
        group = PermGroup.__new__(PermGroup)
        group._adopt(sel, chain, sel)
        return group

    def is_subgroup_of(self, other) -> bool:
        return self.degree == other.degree and all(g in other for g in self.gens)

    def exponent(self) -> int:
        cd = self.conjugacy_classes()
        return lcm(1, *cd.element_orders)

    # -- conjugacy classes -------------------------------------------------
    def conjugacy_classes(self):
        if self._classes is None:
            self._classes = _conjugacy_classes(self)
        return self._classes

    def class_of(self, g) -> int:
        return self.conjugacy_classes().index[tuple(g)]

    # -- normality / closures ----------------------------------------------
    def normal_closure(self, elems):
        """The smallest normal subgroup containing ``elems``, grown on one
        chain from the trivial group (``_grow_normal``)."""
        chain = StabilizerChain(self.degree, [])
        return self.subgroup_from_elements(_grow_normal(chain, elems, self.gens))

    def is_normal(self, n) -> bool:
        if not n.is_subgroup_of(self):
            return False
        return all(conj(x, s) in n for x in n.gens for s in self.gens)

    def derived_subgroup(self):
        comms = [commutator(a, b) for a in self.gens for b in self.gens]
        return self.normal_closure(comms)

    def derived_series(self):
        series = [self]
        while True:
            nxt = series[-1].derived_subgroup()
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
            if nxt.order == 1:
                break
        return series

    def is_solvable(self) -> bool:
        """Whether the derived series reaches 1 (cached: only the answer is
        kept, so no term of the series stays alive)."""
        if self._solvable is None:
            self._solvable = self.derived_series()[-1].order == 1
        return self._solvable

    def center(self):
        """Z(G), generated by the members of the classes of size 1: a class
        is one element exactly when every generator centralizes it.  The
        centre is read off ``conjugacy_classes()`` and scans nothing itself."""
        if self._center is None:
            cd = self.conjugacy_classes()
            self._center = self.subgroup_from_elements(
                [c[0] for c in cd.classes if len(c) == 1])
        return self._center

    def centralizer_of_subgroup(self, h):
        if not h.is_subgroup_of(self):
            raise NotASubgroup("centralizer of a subgroup requires a subgroup")
        return self.subgroup_from_elements(_centralizing(self, h.gens))

    # -- p-structure ---------------------------------------------------------
    def p_core(self, p):
        """O_p(G), the largest normal p-subgroup."""
        if ("p", p) not in self._cores:
            self._cores[("p", p)] = self._core(lambda n: p_part(n, p))
        return self._cores[("p", p)]

    def p_prime_core(self, p):
        """O_{p'}(G), the largest normal p'-subgroup."""
        if ("p'", p) not in self._cores:
            self._cores[("p'", p)] = self._core(lambda n: p_prime_part(n, p))
        return self._cores[("p'", p)]

    def _core(self, pi_part, above=None):
        """The largest normal subgroup O >= A with O/A a pi-group, for A the
        normal subgroup ``above`` (None: A = 1) and ``pi_part(n)`` the
        pi-part of n.

        The class representatives x are walked in canonical order.  x is
        skipped when it is in the core already, or when x^(pi-part of its
        order) is outside A, as then xA is no pi-element.  Otherwise a copy
        of the core's one chain grows to the normal closure of the core and
        x (``_grow_normal``; the core is normal, so only the conjugates of
        the elements that enlarge the copy are sifted), and the copy
        becomes the core's chain when its index over A is a pi-number.
        The growth stops, and x is rejected, as soon as the copy's index
        over A is no pi-number: the copy holds a group K with
        A <= K <= M, M the closure, so |K : A| divides |M : A|, and M
        fails as well.  A candidate that joins is grown in full.
        This greedy join is O: two normal subgroups over A with
        pi-quotients generate one, so x lies in O exactly when its closure
        over A has a pi-quotient, and then so has its join with any core
        inside O.  O is a union of classes, and each class has its
        representative taken.  The core group is built once, at the end,
        on A's generators and the elements taken; the final check reads
        its order from that new chain and |A| from a chain built apart
        from the walk.
        """
        gens = above.gens if above is not None else ()
        chain = StabilizerChain(self.degree, gens)
        start = chain.copy()            # A, while the core's chain grows
        taken = list(gens)
        start_order = start.order()

        def pi_index(order):
            return pi_part(order // start_order) == order // start_order

        cd = self.conjugacy_classes()
        for x, o in zip(cd.representatives, cd.element_orders):
            if chain.contains(x) or not start.contains(ppow(x, pi_part(o))):
                continue
            grown = chain.copy()
            joined = _grow_normal(grown, [x], self.gens, pi_index)
            if joined is not None:
                chain = grown
                taken += joined
        core = self.subgroup_from_elements(taken)
        base = (above if above is not None else self.subgroup([])).order
        index, rest = divmod(core.order, base)
        if rest or pi_part(index) != index:
            raise VerificationFailed(f"a core of order {core.order} has "
                                     f"no pi-index over order {base}")
        return core

    def p_length(self, p) -> int:
        """The number of p-factors in the upper p-series
        1 <= O_p' <= O_p'p <= O_p'pp' <= ... <= G, each term the core over
        the one before, computed inside G."""
        if not self.is_solvable():
            raise NotSolvable("p-length is defined here for solvable groups only")
        count = 0
        term = self.p_prime_core(p)
        while term.order < self.order:
            nxt = self._core(lambda n: p_part(n, p), term)
            if nxt.order == term.order:
                raise VerificationFailed(
                    f"upper {p}-series stalled at a group of order "
                    f"{self.order // term.order}")
            count += 1
            term = self._core(lambda n: p_prime_part(n, p), nxt)
        return count

    def sylow_subgroup(self, p):
        """A Sylow p-subgroup, grown from the element of order p in the
        first class whose order p divides.  Each step takes the least y
        in the sorted element order that normalizes the p-subgroup S so
        far, lies outside S and has y^p in S (``_normalizing``); then
        <S, y> has order p|S|.  Such a y exists while |S| is below the
        p-part of |G|: S is then proper in a Sylow subgroup P, so in
        N_P(S), and N_G(S)/S has an element of order p.  The normalizer
        is walked, never built as a group."""
        target = p_part(self.order, p)
        if target == 1:
            return self.subgroup([])
        cd = self.conjugacy_classes()
        seed = None
        for rep, o in zip(cd.representatives, cd.element_orders):
            if o % p == 0:
                seed = ppow(rep, o // p)
                break
        sub = self.subgroup([seed])
        while sub.order < target:
            ext = next((y for y in _normalizing(self, sub)
                        if y not in sub and ppow(y, p) in sub), None)
            if ext is None:
                raise VerificationFailed(
                    f"the normalizer of a {p}-subgroup of order {sub.order} "
                    "has no element extending it")
            grown = self.subgroup(list(sub.gens) + [ext])
            check_order(grown, sub.order * p,
                        f"a {p}-subgroup extended by a normalizing element")
            sub = grown
        return sub

    # -- coset actions and quotients -------------------------------------------
    def coset_action(self, s):
        """Action on the right cosets of a subgroup s.

        Returns a QuotientResult whose group is the image G / core_G(s),
        with the generator images, a sorted canonical transversal and an
        exact lift map.  The image group is built from its generators alone,
        so its order is computed, never assumed.
        """
        if not s.is_subgroup_of(self):
            raise NotASubgroup("coset action requires a subgroup")
        index = self.order // s.order
        check_points(index, "a coset action")
        canon = _coset_canonicalizer(s)
        t0 = canon(self.identity)
        moves = {t0: None}      # coset representative -> its images under gens
        queue = [t0]
        for t in queue:
            moves[t] = row = [canon(pmul(t, g)) for g in self.gens]
            for c in row:
                if c not in moves:
                    moves[c] = None
                    queue.append(c)
        transversal = sorted(moves)
        if len(transversal) != index:
            raise VerificationFailed(
                f"{len(transversal)} cosets found, expected the index {index}")
        pos = {t: i for i, t in enumerate(transversal)}
        gen_images = [tuple([pos[moves[t][j]] for t in transversal])
                      for j in range(len(self.gens))]
        group = PermGroup(index, gen_images, check=False)

        def image_of(g):
            return tuple(pos[canon(pmul(t, g))] for t in transversal)

        return QuotientResult(self, group, gen_images, image_of, transversal,
                              pos[t0])

    def quotient(self, n):
        """G / n on the right cosets of the normal subgroup n (a regular
        action, which the order of the image group confirms)."""
        if not self.is_normal(n):
            raise NotNormal("quotient requires a normal subgroup")
        qr = self.coset_action(n)
        if qr.group.order != qr.group.degree:
            raise VerificationFailed(
                f"quotient of order {qr.group.order} on {qr.group.degree} cosets")
        return qr


class QuotientResult:
    """A homomorphism from ``source`` onto a permutation group, given by the
    images of the source's generators: the image group, ``gen_images`` and
    ``image_of``, the image of any element of the source.  ``coset_action``
    builds it on right cosets and keeps their sorted canonical
    ``transversal`` and ``home``, the point of the subgroup's own coset.
    ``lift`` reads only the generator images.
    """

    def __init__(self, source, group, gen_images, image_of, transversal, home):
        self.source = source
        self.group = group
        self.gen_images = gen_images
        self.image_of = image_of
        self.transversal = transversal
        self.home = home
        self._lifts = None

    def lift(self, w):
        """A preimage of an element of the image group.

        An element of the image group is determined by its images of the
        base points of its chain, so the preimages found along its Cayley
        graph are stored under those images (built on first use).  This is
        exact whether or not the action is regular.
        """
        base = self.group.chain.base
        if self._lifts is None:
            ident = self.source.identity
            self._lifts = {base: ident}
            queue = [(base, ident)]
            for key, g in queue:
                get = key_getter(key)
                for img, s in zip(self.gen_images, self.source.gens):
                    nxt = get(img)
                    if nxt not in self._lifts:
                        h = pmul(g, s)
                        self._lifts[nxt] = h
                        queue.append((nxt, h))
        return self._lifts[key_getter(base)(w)]


class ClassData:
    """Canonically ordered conjugacy classes.

    Identity class first, then sorted by (element order, class size,
    lexicographically least member); the representative of each class is its
    least member, so the ordering does not depend on the generating set.
    """

    def __init__(self, group, classes, orders):
        """``classes`` lists each class as a sorted element list, in any
        order, and ``orders`` the order of its elements; they are put in
        the canonical order here."""
        ident = group.identity
        keyed = sorted((c[0] != ident, o, len(c), c[0], i)
                       for i, (c, o) in enumerate(zip(classes, orders)))
        self.group = group
        self.classes = classes = [classes[key[-1]] for key in keyed]
        self.representatives = [c[0] for c in classes]
        self.sizes = [len(c) for c in classes]
        self.centralizer_orders = [group.order // len(c) for c in classes]
        self.element_orders = [key[1] for key in keyed]
        self.index = {}
        for i, c in enumerate(classes):
            for x in c:
                self.index[x] = i
        self._key_index = None
        self._powers = {}

    def __len__(self):
        return len(self.classes)

    @property
    def key_index(self):
        """A dict from the base-image key ``tuple(x[b] for b in base)`` of
        each listed element x, over the base of the group's chain, to its
        class (built on first use).

        The keys are exact.  The chain is verified, so the base separates
        the group G: only the identity fixes every base point, and distinct
        elements of G have distinct keys.  The class lists hold elements of
        G, and the map must hold |G| distinct keys, or VerificationFailed
        is raised; so the lists cover G, and the key of any element of G
        names its class.
        """
        if self._key_index is None:
            get = key_getter(self.group.chain.base)
            keys = {get(x): i for i, c in enumerate(self.classes) for x in c}
            if len(keys) != self.group.order:
                raise VerificationFailed(
                    f"{len(keys)} base-image keys in the class lists of a "
                    f"group of order {self.group.order}")
            self._key_index = keys
        return self._key_index

    def powers(self, i) -> list:
        """The class of rep_i^t for t = 0 .. |rep_i| - 1, walked on the
        base-image keys (|base| lookups a power, no product)."""
        if i not in self._powers:
            key_index = self.key_index
            rep = self.representatives[i]
            key = self.group.chain.base
            out = []
            for _ in range(self.element_orders[i]):
                out.append(key_index[key])
                key = tuple([rep[c] for c in key])
            self._powers[i] = out
        return self._powers[i]

    def power_class(self, i, k) -> int:
        powers = self.powers(i)
        return powers[k % len(powers)]

    def describe(self):
        return [
            {
                "representative": format_cycles(r),
                "size": s,
                "element_order": o,
            }
            for r, s, o in zip(self.representatives, self.sizes, self.element_orders)
        ]


def _keyed_elements(group):
    """(base, keyed): the base points of the group's chain, and a dict that
    maps each element's base-image key ``tuple(x[b] for b in base)`` to the
    element, in the sorted order of ``elements()``.

    The keys are exact.  ``elements()`` has proved that its list is the
    whole group G generated by the generators (a verified chain whose
    group contains every generator, and as many keys reached from the
    generators as the chain's order), so a conjugate of an element of G by
    an element of G lies in the list again.  The key count is checked
    against |G|, so the base separates the elements of G: equal keys mean
    equal elements.  The key of s^-1 y s is therefore
    ``s[y[s^-1[b]]]`` over the base points b, |base| lookups where the full
    permutation costs two products at the full degree; ``s.index(b)`` is
    s^-1[b].
    """
    base = group.chain.base
    get = key_getter(base)
    keyed = {get(x): x for x in group.elements()}
    if len(keyed) != group.order:
        raise VerificationFailed(
            f"{len(keyed)} base-image keys for a group of order {group.order}")
    return base, keyed


def _grow_normal(chain, elems, gens, keep=None):
    """Extend ``chain`` by each of ``elems``, then by the conjugates under
    ``gens`` of every element that enlarged it; return the elements that
    enlarged it.  When ``gens`` normalize the chain's group before, it then
    holds the normal closure of that group and ``elems``: the elements
    taken have their conjugates in it, and so has the group before.

    With ``keep``, ``keep(order)`` is asked after each extension that
    enlarged the chain, and the growth stops at the first false answer
    and returns None; the chain is then left part-grown."""
    taken = []

    def take(x):
        if not chain.extend(x):
            return True
        taken.append(x)
        return keep is None or keep(chain.order())

    if not all(take(x) for x in elems):
        return None
    for x in taken:
        if not all(take(conj(x, s)) for s in gens):
            return None
    return taken


def _normalizing(group, h):
    """The elements g of the group with g^-1 x g in h for every generator
    x of h, in sorted order, tested on keys against the keys of h's
    elements."""
    if not h.is_subgroup_of(group):
        raise NotASubgroup("normalizer requires a subgroup")
    base, keyed = _keyed_elements(group)
    members = set(map(key_getter(base), h.elements()))
    for g in keyed.values():
        pre = [g.index(b) for b in base]        # g^-1 at the base points
        if all(tuple([g[x[c]] for c in pre]) in members for x in h.gens):
            yield g


def _centralizing(group, gens):
    """The elements x of the group with t^-1 x t = x for every t in gens
    (members of the group), compared on keys."""
    base, keyed = _keyed_elements(group)
    moves = [(t, [t.index(b) for b in base]) for t in gens]
    return [x for k, x in keyed.items()
            if all(tuple([t[x[c]] for c in pre]) == k for t, pre in moves)]


def _conjugacy_classes(group):
    """The classes as orbits of the conjugation action of ``chain_gens``,
    which generate the group (``elements()`` proves it), walked on
    base-image keys.  The order of each class is read off the same keys:
    x^n = 1 exactly when x^n fixes every base point, as the verified base
    separates the group, so |x| is the first n >= 1 at which the walk
    key -> x[key] returns to the base."""
    base, keyed = _keyed_elements(group)
    moves = [(s, [s.index(b) for b in base]) for s in group.chain_gens]
    assigned = set()
    classes, orders = [], []
    for k in keyed:
        if k in assigned:
            continue
        orbit = {k}
        queue = [k]
        for key in queue:
            y = keyed[key]
            for s, pre in moves:
                z = tuple([s[y[c]] for c in pre])
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        assigned |= orbit
        classes.append(sorted(keyed[z] for z in orbit))
        x, walk, n = keyed[k], k, 1
        while walk != base:
            walk = tuple([x[c] for c in walk])
            n += 1
        orders.append(n)
    return ClassData(group, classes, orders)


def _coset_canonicalizer(s):
    """Map g to the canonical (greedy minimal-image) element of the coset sg."""
    levels = s.chain.levels

    def canon(g):
        r = g
        for lvl in levels:
            best_pt = None
            best_u = None
            for o, u in lvl.orbit.items():
                img = r[o]
                if best_pt is None or img < best_pt:
                    best_pt = img
                    best_u = u
            if best_u is not None:
                r = pmul(best_u, r)
        return r

    return canon


def check_order(group: PermGroup, expected: int, name: str) -> None:
    """Raise VerificationFailed unless the group has the order that its
    construction, named ``name``, promises."""
    if group.order != expected:
        raise VerificationFailed(
            f"{name} generated order {group.order}, expected {expected}")


def group_from_generators(degree, gens) -> PermGroup:
    """Public constructor: validates generators and builds the chain."""
    return PermGroup(degree, [validate(g, degree) for g in gens], check=False)


def _placed(degree, offset, size):
    """The embedding of permutations of 0..size-1 into those of
    0..degree-1 that act on offset..offset+size-1 and fix the rest."""
    head, tail = tuple(range(offset)), tuple(range(offset + size, degree))

    def emb(g):
        return head + tuple([offset + x for x in g]) + tail

    return emb


def _side_by_side(factors):
    """The direct product of ``factors`` on their domains laid side by
    side in the given order, and the embedding of each factor.

    The chain is assembled, and no Schreier generator is sifted: the
    levels of the first factor's chain, then those of the second, and so
    on, each with its base point, orbit, transversal elements and strong
    generators mapped in.  When each factor's chain is Schreier-Sims's,
    this is the chain that ``PermGroup`` builds by extending by each
    generator in turn, up to the strong generator lists of the levels; a
    carried factor (``_carried_chain``) brings its own levels, which a
    rebuilt chain need not share.  A factor's generators fix the points of
    the factors before it, so Schreier-Sims runs on the levels past those
    as it ran on the factor's own chain, with the same least moved points
    as bases and the same sorted orbits; at the earlier levels they
    commute with every transversal element, so each Schreier generator
    u_t s u_t^-1 = s sifts at once, and they leave the orbits and
    transversals as they are.  That build also lists a factor's generators at the
    earlier levels; here they are listed at the factor's levels only.
    ``verify_chain`` takes the strong generators of a level to be those of
    it and all later levels, so it reads the same sets, and nothing
    extends a group's chain (``_adopt`` clears the sifted pairs), so no
    other reader sees the lists.  The generators that enlarge the chain
    are the factors' ``chain_gens``, mapped in.  No order is claimed:
    ``elements()`` verifies the assembled chain, as it verifies every
    chain, before it lists anything.
    """
    degree = sum(f.degree for f in factors)
    chain = StabilizerChain(degree, [])
    gens, chain_gens, embs, offset = [], [], [], 0
    for f in factors:
        emb = _placed(degree, offset, f.degree)
        gens += map(emb, f.gens)
        chain_gens += map(emb, f.chain_gens)
        for lvl in f.chain.levels:
            new = _Level(lvl.base + offset, chain.identity)
            new.gens = [emb(g) for g in lvl.gens]
            new.orbit = {t + offset: emb(u) for t, u in lvl.orbit.items()}
            new.dirty = False
            chain.levels.append(new)
        embs.append(emb)
        offset += f.degree
    group = PermGroup.__new__(PermGroup)
    group._adopt(tuple(gens), chain, tuple(chain_gens))
    return group, embs


def _carried_chain(group, degree, carry, top):
    """A chain on ``degree`` points made of ``group``'s levels, each
    strong generator g carried in as ``carry(g)``, with ``top`` added to
    the first level; every orbit is grown afresh from its base point
    (``_refresh_orbit``), and no Schreier generator is sifted.

    It is a chain of G = <carry(group), top> when ``carry`` is an
    injective homomorphism whose images act on ``group``'s points as the
    elements they carry, and the stabilizer in G of the first base point
    is the carried stabilizer in ``group``: the levels past the first then
    hold that stabilizer's chain, carried, and the first orbit is G's when
    the first level's generators and ``top`` reach all of it.  No order is
    claimed: ``elements()`` verifies the chain, as it verifies every chain,
    before it lists anything.
    """
    chain = StabilizerChain(degree, [])
    for lvl in group.chain.levels:
        new = _Level(lvl.base, chain.identity)
        new.gens = [carry(g) for g in lvl.gens]
        chain.levels.append(new)
    chain._assign(top, 0, 0)        # makes the first level if group is trivial
    for i in range(1, len(chain.levels)):
        chain._refresh_orbit(i)
    return chain


def direct_product(a: PermGroup, b: PermGroup):
    """A x B on the disjoint union of the two domains, A's points first.

    Returns (group, embed_a, embed_b, split) where the embeds map elements in
    and split decomposes an element into its two factors.  The chain is
    A's levels followed by B's, shifted past A's points
    (``_side_by_side``): the stabilizer of A's base points in A x B is
    1 x B.
    """
    da = a.degree
    grp, (emb_a, emb_b) = _side_by_side([a, b])

    def split(g):
        return tuple(g[:da]), tuple(x - da for x in g[da:])

    return grp, emb_a, emb_b, split


def direct_power(a: PermGroup, q: int):
    """A^q on q disjoint copies of the domain; returns (group, embed, split).
    The chain is q copies of A's levels, copy i on the i-th block of points
    (``_side_by_side``)."""
    d = a.degree
    grp, embs = _side_by_side([a] * q)

    def emb(i, g):
        return embs[i](g)

    def split(g):
        return [tuple(g[i * d + x] - i * d for x in range(d)) for i in range(q)]

    return grp, emb, split
