"""Group constructions: standard families, semidirect and wreath products,
central product powers, cyclic extensions, and the universal embedding.

Semidirect products N : H have two faithful realizations, and
``semidirect`` takes the one of smaller degree, judged only from the
degrees and orders of its inputs:

* induced: |H| copies of N's own domain; on copy y an element n of N acts
  as alpha_y(n) and k in H sends copy y to copy k^-1 y.  Degree
  |H| deg N.  alpha_y is derived along the Cayley graph of H, and every
  edge is checked, so an assignment that does not extend to a homomorphism
  H -> Aut(N) is rejected.
* regular: the element set of N (right translations, H acting by the given
  automorphisms) plus the natural domain of H.  Degree |N| + deg H.

Both are validated by an exact order count |N : H| = |N| |H|, so an action
that fails to extend to a homomorphism is rejected rather than silently
generating a larger group.

The central product power U = K^q / W, W the product-one subgroup of
Z(K)^q, acts on the right cosets of A^q W, where A is a core-free subgroup
of K (``core_free_subgroup``; A = 1 when K is abelian, and then the action
is the regular one on the cosets of W).  A normal subgroup of K^q that
meets every factor trivially is central, and Z(K)^q meets A^q W in W, so
the core of A^q W is exactly W and the degree is [K : A]^q / |Z(K)|^(q-1).
The order check |U| = |K|^q / |Z(K)|^(q-1) confirms that the kernel is W.

A cyclic extension of N by <t> with t g t^-1 = alpha(g) and t^n = x in N
acts on n copies of N's domain, the action induced from N's own: for a
regular N this is the right translation on the normal forms g t^i.
``split_cyclic_extension`` builds the split one, N : C_q, from an
automorphism that its caller has proved, and assembles its chain from N's.
``CyclicExtensionResult.n_part`` and ``n_image`` map between N and either
extension with no homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .cyclo import is_prime
from .errors import (
    ActionNotWellDefined,
    InvalidWitness,
    NotASubgroup,
    NotNormal,
    UnsupportedFamily,
    VerificationFailed,
)
from .homs import GroupHom
from .permgroup import (PermGroup, QuotientResult, StabilizerChain, _carried_chain,
                        _keyed_elements, check_order, check_points, direct_power)
from .perms import identity, pinv, pmul, ppow


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def trivial_group() -> PermGroup:
    return PermGroup(1, [])


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise UnsupportedFamily("cyclic groups need n >= 1")
    if n == 1:
        return trivial_group()
    check_points(n, f"the cyclic group C_{n}")
    return PermGroup(n, [tuple((i + 1) % n for i in range(n))])


def elem_abelian(p: int, k: int) -> PermGroup:
    if not is_prime(p):
        raise UnsupportedFamily(f"elementary abelian groups need a prime p, got {p}")
    if k < 1:
        raise UnsupportedFamily("exponent-p groups need k >= 1")
    check_points(p * k, f"the elementary abelian group {p}^{k}")
    gens = []
    for i in range(k):
        img = list(range(p * k))
        for x in range(p):
            img[i * p + x] = i * p + (x + 1) % p
        gens.append(tuple(img))
    return PermGroup(p * k, gens)


def dihedral(order: int) -> PermGroup:
    if order < 4 or order % 2:
        raise UnsupportedFamily("dihedral groups need even order >= 4")
    m = order // 2
    if m == 2:
        return elem_abelian(2, 2)
    check_points(m, f"the dihedral group of order {order}")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return PermGroup(m, [rot, ref])


def quaternion(order: int) -> PermGroup:
    if order < 8 or order % 4:
        raise UnsupportedFamily("generalized quaternion groups need order 4m >= 8")
    m = order // 2
    c = cyclic(m)
    invert = GroupHom(c, c, [pinv(c.gens[0])])
    x = ppow(c.gens[0], m // 2)
    ext = cyclic_extension_build(c, invert, 2, x)
    return ext.group


def extraspecial(p: int, kind: str) -> PermGroup:
    """Extraspecial group of order p^3; kind '+' is exponent p for odd p
    (dihedral for p = 2), '-' is exponent p^2 (quaternion for p = 2)."""
    if kind not in ("+", "-"):
        raise UnsupportedFamily("extraspecial kind must be '+' or '-'")
    if not is_prime(p):
        raise UnsupportedFamily(f"extraspecial groups need a prime p, got {p}")
    if p == 2:
        return dihedral(8) if kind == "+" else quaternion(8)
    if kind == "+":
        check_points(p ** 3, f"the extraspecial group {p}^(1+2)_+")
        pts = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
        idx = {v: i for i, v in enumerate(pts)}
        x = tuple(idx[((a + 1) % p, b, c)] for (a, b, c) in pts)
        y = tuple(idx[(a, (b + 1) % p, (c + a) % p)] for (a, b, c) in pts)
        return PermGroup(p ** 3, [x, y])
    base = cyclic(p * p)
    target = ppow(base.gens[0], 1 + p)
    auto = GroupHom(base, base, [target])
    return semidirect(base, cyclic(p), [auto]).group


def mat_group(q: int, mats) -> PermGroup:
    """Matrix group over F_q acting on the nonzero vectors."""
    if not is_prime(q):
        raise UnsupportedFamily("matrix groups are supported over prime fields")
    if not mats:
        raise UnsupportedFamily("a matrix group needs at least one matrix")
    check_square_matrices(mats, len(mats[0]))
    gens, vecs, _idx = matrix_to_vector_perm(mats, q, include_zero=False)
    return PermGroup(len(vecs), gens)


def affine(p: int, k: int, mats) -> PermGroup:
    """C_p^k : <mats> on the p^k vectors; the generators are the
    translations by the standard basis vectors, then the matrices."""
    if not is_prime(p):
        raise UnsupportedFamily("affine groups are supported over prime fields")
    _check_space(p, k)
    check_square_matrices(mats, k)
    one = [[int(i == j) for j in range(k)] for i in range(k)]
    perms, vecs, idx = matrix_to_vector_perm([one] + list(mats), p)
    return PermGroup(len(vecs), vector_translations(p, k, vecs, idx) + perms[1:])


def check_square_matrices(mats, k: int) -> None:
    """Raise UnsupportedFamily unless every matrix is k x k."""
    if not all(len(m) == k and all(len(row) == k for row in m) for m in mats):
        raise UnsupportedFamily(f"expected {k} x {k} matrices")


def sl2(q: int) -> PermGroup:
    g = mat_group(q, [[[1, 1], [0, 1]], [[0, 1], [q - 1, 0]]])
    check_order(g, q * (q * q - 1), f"SL(2, {q})")
    return g


def psl2(q: int) -> PermGroup:
    """PSL(2, q) on the q + 1 points of the projective line."""
    if not is_prime(q) or q < 5:
        raise UnsupportedFamily("psl2 expects an odd prime >= 5")
    check_points(q + 1, f"PSL(2, {q})")
    g = PermGroup(q + 1, [mobius_perm(q, [[1, 1], [0, 1]]),
                          mobius_perm(q, [[0, 1], [q - 1, 0]])])
    check_order(g, q * (q * q - 1) // 2, f"PSL(2, {q})")
    return g


def mobius_perm(q: int, mat) -> tuple:
    """A PGL(2, q) element as a permutation of the projective line
    0, 1, ..., q - 1, inf (in that point order)."""
    a, b = mat[0]
    c, d = mat[1]
    images = []
    for v in range(q):
        den = (c * v + d) % q
        images.append(q if den == 0 else (a * v + b) * pow(den, -1, q) % q)
    images.append(q if c % q == 0 else a * pow(c, -1, q) % q)
    return tuple(images)


def matrix_to_vector_perm(mats, p: int, include_zero=True):
    """Permutations of F_p^n induced by matrices (shared point order);
    UnsupportedFamily for a singular matrix, which permutes no vector set."""
    n = len(mats[0])
    vecs = [v for v in _vectors(p, n) if include_zero or any(v)]
    idx = {v: i for i, v in enumerate(vecs)}
    perms = []
    for m in mats:
        images = tuple(idx.get(_matvec(m, v, p)) for v in vecs)
        if None in images or len(set(images)) != len(images):
            raise UnsupportedFamily(f"the matrix {m} is singular over GF({p})")
        perms.append(images)
    return perms, vecs, idx


def vector_translations(p: int, dim: int, vecs, idx) -> list:
    """Translations of F_p^dim by the standard basis vectors, as permutations
    of the points ``vecs`` (``idx`` maps a vector to its point)."""
    return [tuple(idx[tuple((v[j] + (j == i)) % p for j in range(dim))] for v in vecs)
            for i in range(dim)]


def _check_space(q, n):
    """Raise BudgetExceeded when F_q^n, q a prime, has more than MAX_POINTS
    vectors.  As 2^17 > MAX_POINTS, the power is capped at q^17."""
    check_points(q ** min(n, 17), f"F_{q}^{n}")


def _vectors(q, n):
    _check_space(q, n)
    out = [()]
    for _ in range(n):
        out = [v + (x,) for v in out for x in range(q)]
    return out


def _matvec(m, v, q):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) % q for i in range(len(v)))


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

@dataclass
class SemidirectResult:
    """N : H as ``semidirect`` realized it; ``n_hom`` and ``h_hom`` are
    N -> group and H -> group as verified ``GroupHom``s, built on first
    use."""
    group: PermGroup
    h_group: PermGroup = field(repr=False)
    h_gen_perms: list = field(repr=False)   # images of H's generators
    n_group: PermGroup = field(repr=False)
    n_gen_perms: list = field(repr=False)   # images of N's generators

    @cached_property
    def n_hom(self) -> GroupHom:
        """N -> group."""
        return GroupHom(self.n_group, self.group, self.n_gen_perms)

    @cached_property
    def h_hom(self) -> GroupHom:
        """H -> group."""
        return GroupHom(self.h_group, self.group, self.h_gen_perms)


def semidirect(n_group: PermGroup, h_group: PermGroup, autos) -> SemidirectResult:
    """N : H for automorphisms of N given per H-generator, realized on the
    induced action when |H| deg N < |N| + deg H and regularly otherwise.

    Raises ActionNotWellDefined when the generator assignment does not
    extend to a homomorphism H -> Aut(N).  The order count, with the
    Cayley-edge check of the induced realization, is what validates the
    product; no homomorphism H -> group is built to check it.  Induced: H
    permutes the copies as it permutes its own elements, so its generator
    images span a copy of H, and the edges make every alpha_y well
    defined.  Regular: the H-generator images fix the identity of N, which
    N moves regularly, so the group has order |N| times that of their span;
    the span maps onto H, and the count |N| |H| makes that map an
    isomorphism, whose inverse sends each generator to its image.
    """
    if len(autos) != len(h_group.gens):
        raise ActionNotWellDefined("one automorphism per H generator required")
    for a in autos:
        if not (a.source is n_group and a.target is n_group
                and a.is_automorphism()):
            raise ActionNotWellDefined("action images must be automorphisms of N")
    induced = h_group.order * n_group.degree
    regular = n_group.order + h_group.degree
    check_points(min(induced, regular), "the semidirect product N : H")
    realize = _induced_action if induced < regular else _regular_action
    degree, n_perms, h_perms = realize(n_group, h_group, [a.image for a in autos])
    grp = PermGroup(degree, n_perms + h_perms)
    if grp.order != n_group.order * h_group.order:
        raise ActionNotWellDefined(
            f"generated order {grp.order} != {n_group.order * h_group.order}; "
            f"the action does not extend to a homomorphism")
    return SemidirectResult(grp, h_group, h_perms, n_group, n_perms)


def _induced_action(n_group, h_group, maps):
    """N : H on |H| copies of N's domain: copy y carries n as alpha_y(n),
    k in H maps copy y to copy k^-1 y.  With pinv(k) n k = alpha_k(n), the
    action rule is alpha_(yk) = alpha_k o alpha_y; alpha_y is derived along
    the Cayley graph of H, walked on the base-image keys of its elements,
    and every edge is checked.  The copies follow H's sorted elements."""
    base, keyed = _keyed_elements(h_group)
    alpha = {base: list(n_group.gens)}   # key of y -> alpha_y on N's generators
    queue = [base]
    for key in queue:
        for hg, a in zip(h_group.gens, maps):
            images = [a(x) for x in alpha[key]]
            z = tuple([hg[c] for c in key])
            if z not in alpha:
                alpha[z] = images
                queue.append(z)
            elif alpha[z] != images:
                raise ActionNotWellDefined(
                    "the action does not extend to a homomorphism H -> Aut(N)")
    where = {key: i for i, key in enumerate(keyed)}
    d = n_group.degree
    n_perms = [tuple(i * d + alpha[key][j][x] for i, key in enumerate(keyed)
                     for x in range(d))
               for j in range(len(n_group.gens))]
    # the key of k^-1 y, for k a generator of H, is y[k^-1[b]] over the base
    h_perms = [tuple(where[tuple([y[c] for c in pre])] * d + x
                     for y in keyed.values() for x in range(d))
               for pre in ([k.index(b) for b in base] for k in h_group.gens)]
    return len(keyed) * d, n_perms, h_perms


def _regular_action(n_group, h_group, maps):
    """N : H on the elements of N (right translations, H by the given
    automorphisms) plus the natural domain of H."""
    n_elems = n_group.elements()
    n_index = {e: i for i, e in enumerate(n_elems)}
    size = len(n_elems)
    h_points = [size + x for x in range(h_group.degree)]
    n_perms = [tuple([n_index[pmul(m, g)] for m in n_elems] + h_points)
               for g in n_group.gens]
    h_perms = [tuple([n_index[a(m)] for m in n_elems]
                     + [size + x for x in hg])
               for hg, a in zip(h_group.gens, maps)]
    return size + h_group.degree, n_perms, h_perms


def semidirect_cyclic(n_group: PermGroup, auto: GroupHom, m: int) -> SemidirectResult:
    return semidirect(n_group, cyclic(m), [auto])


# ---------------------------------------------------------------------------
# wreath products and the universal embedding
# ---------------------------------------------------------------------------

@dataclass
class WreathResult:
    group: PermGroup
    base_group: PermGroup
    top_degree: int
    block_size: int

    def element(self, components, top_perm):
        """Permutation for ((a_0, ..., a_{q-1}), pi): (i, x) -> (i^pi, x^{a_i})."""
        d = self.block_size
        images = []
        for i in range(self.top_degree):
            a = components[i]
            for x in range(d):
                images.append(top_perm[i] * d + a[x])
        return tuple(images)


def wreath(m_group: PermGroup, q: int) -> WreathResult:
    """M wr C_q in the imprimitive action on q blocks."""
    if q < 1:
        raise UnsupportedFamily("wreath products need q >= 1")
    d = m_group.degree
    check_points(q * d, f"M wr C_{q}")
    gens = []
    for g in m_group.gens:
        images = list(range(q * d))
        for x, y in enumerate(g):
            images[x] = y
        gens.append(tuple(images))
    shift = tuple(((i // d + 1) % q) * d + (i % d) for i in range(q * d))
    gens.append(shift)
    grp = PermGroup(q * d, gens)
    base_gens = []
    for i in range(q):
        for g in m_group.gens:
            images = list(range(q * d))
            for x, y in enumerate(g):
                images[i * d + x] = i * d + y
            base_gens.append(tuple(images))
    base = grp.subgroup(base_gens)
    check_order(base, m_group.order ** q, f"the base group M^{q}")
    return WreathResult(grp, base, q, d)


def kk_embedding(g_group: PermGroup, m_sub: PermGroup):
    """Universal embedding of G into M wr (G/M) for a normal M of index q.

    Returns (hom, wreath_result).  The transversal is the canonical one of
    the coset action, so the embedding is reproducible.
    """
    if not g_group.is_normal(m_sub):
        raise NotNormal("the universal embedding needs a normal subgroup")
    qr = g_group.quotient(m_sub)
    q = qr.group.order
    if q == 1:
        w = wreath(m_sub, 1)
        images = []
        for g in g_group.gens:
            comp = pmul(pmul(qr.transversal[0], g), pinv(qr.transversal[0]))
            _check_component(comp, m_sub)
            images.append(w.element([comp], (0,)))
        return GroupHom(g_group, w.group, images), w
    w = wreath(m_sub, q)
    images = []
    for g in g_group.gens:
        sigma = qr.image_of(g)
        comps = []
        for i, t in enumerate(qr.transversal):
            m = pmul(pmul(t, g), pinv(qr.transversal[sigma[i]]))
            _check_component(m, m_sub)
            comps.append(m)
        images.append(w.element(comps, sigma))
    return GroupHom(g_group, w.group, images), w


def _check_component(m, m_sub: PermGroup) -> None:
    if m not in m_sub:
        raise VerificationFailed("wreath component outside the normal subgroup")


# ---------------------------------------------------------------------------
# central product powers  K^q / W
# ---------------------------------------------------------------------------

@dataclass
class CentralPowerResult:
    quotient: QuotientResult        # K^q -> U
    power_group: PermGroup          # K^q
    embed_coordinate: object        # embed(i, g) into K^q
    split: object
    w_subgroup: PermGroup
    q: int

    @property
    def group(self) -> PermGroup:
        return self.quotient.group

    def shift(self) -> list:
        """The image of each of U's generators under the coordinate shift:
        the generators are pi(emb(i, g)), coordinate by coordinate, and
        pi(emb(i, g)) goes to pi(emb(i + 1, g))."""
        images = self.quotient.gen_images
        k = len(images) // self.q
        return images[k:] + images[:k]

    def rotation(self):
        """sigma, the permutation of U's points that rotating K^q's blocks
        induces: rho, the rotation, sends the coset of S x to that of
        S rho^-1 x rho, S = A^q W, and S is rotation-invariant, so sigma
        is well defined, fixes S's own point (``home``) and conjugates each
        pi(x) to pi(rho^-1 x rho).  So sigma(P pi(g)) = sigma(P) shift(g),
        and sigma is read off the coset graph from the home point, with no
        product; the caller checks that it is a permutation and conjugates
        each generator to its shift."""
        gens, shifted = self.quotient.gen_images, self.shift()
        home = self.quotient.home
        sigma = {home: home}
        queue = [home]
        for point in queue:
            for g, h in zip(gens, shifted):
                if g[point] not in sigma:
                    sigma[g[point]] = h[sigma[point]]
                    queue.append(g[point])
        return tuple(sigma[x] for x in range(len(sigma)))

    def project_tuple(self, coords):
        """Image in U of the K^q element with the given coordinates."""
        elem = identity(self.power_group.degree)
        for i, g in enumerate(coords):
            elem = pmul(elem, self.embed_coordinate(i, g))
        return self.quotient.image_of(elem)


def central_product_power(k_group: PermGroup, q: int) -> CentralPowerResult:
    """U = K^q / W with W the product-one subgroup of Z(K)^q, realized on
    the right cosets of A^q W for the core-free subgroup A of K chosen by
    ``core_free_subgroup``; the order check proves the kernel is W."""
    if q < 1:
        raise UnsupportedFamily("central product powers need q >= 1")
    kq, emb, split = direct_power(k_group, q)
    z = k_group.center()
    w_gens = []
    for zg in z.gens:
        zi = pinv(zg)
        for i in range(q - 1):
            w_gens.append(pmul(emb(i, zg), emb(i + 1, zi)))
    w = kq.subgroup(w_gens)
    check_order(w, z.order ** (q - 1), f"the product-one subgroup of Z(K)^{q}")
    a_gens = core_free_subgroup(k_group)
    s = kq.subgroup([emb(i, a) for i in range(q) for a in a_gens] + w_gens)
    qr = kq.coset_action(s)
    check_order(qr.group, k_group.order ** q // z.order ** (q - 1),
                f"the central product power K^{q}/W")
    return CentralPowerResult(qr, kq, emb, split, w, q)


def core_free_subgroup(k_group: PermGroup) -> list:
    """Generators of a subgroup A of K with trivial core, chosen greedily.

    K's elements are scanned in sorted order and x is kept when <A, x>
    still contains no nontrivial conjugacy class of K (a subgroup does
    exactly when it contains a nontrivial normal subgroup).  The result
    depends only on the element set of K.  A's chain is grown, never
    rebuilt: <A, x> is a copy of A's chain extended by x, which holds the
    same group as a chain built on A's generators and x, so it answers
    every membership test alike.
    """
    classes = k_group.conjugacy_classes().classes[1:]
    gens, a = [], StabilizerChain(k_group.degree, [])
    for x in k_group.elements():
        if a.contains(x):
            continue
        grown = a.copy()
        grown.extend(x)
        if not any(all(grown.contains(y) for y in c) for c in classes):
            gens, a = gens + [x], grown
    return gens


# ---------------------------------------------------------------------------
# cyclic extensions (outer automorphism with a compatible witness)
# ---------------------------------------------------------------------------

def _alpha_powers(n_group: PermGroup, alpha: GroupHom, n: int):
    """alpha^i on N's generators, for i = 0, ..., n."""
    powers = [list(n_group.gens)]
    for _ in range(n):
        powers.append([alpha.image(g) for g in powers[-1]])
    return powers


def cyclic_extension_exists(n_group: PermGroup, alpha: GroupHom, n: int):
    """Least witness x with alpha(x) = x and alpha^n(g) = x g x^-1."""
    return next((x for x in n_group.elements()
                 if cyclic_extension_exists_check(n_group, alpha, n, x)), None)


@dataclass
class CyclicExtensionResult:
    """A cyclic extension H of N on copies of N's domain, as
    ``cyclic_extension_build`` or ``split_cyclic_extension`` realized it:
    copy c carries n as alpha^c(n), copy 0 holds the lowest points, and an
    element n t^j keeps copy 0 only when t^j lies in N.  ``n_part`` and
    ``n_image`` map between N and H off that layout, with no homomorphism;
    ``n_hom`` is N -> H as a verified ``GroupHom``, built on first use."""
    group: PermGroup
    t_element: tuple                # the distinguished generator mapping onto C_n
    n_group: PermGroup = field(repr=False)
    n_images: list = field(repr=False)      # images of N's generators

    @cached_property
    def n_hom(self) -> GroupHom:
        return GroupHom(self.n_group, self.group, self.n_images)

    def n_part(self, h):
        """n when h is the image of n in N; else None.  h keeps copy 0
        exactly when it lies in N, and it then acts on copy 0 as n."""
        d = self.n_group.degree
        return tuple(h[:d]) if h[0] < d else None

    def n_image(self, n):
        """The image of n, read off the chain by the images of its base
        points (``StabilizerChain.from_base_images``).  Every nontrivial
        element moves a point of copy 0 (one that fixes it pointwise lies
        in N and acts there as itself), so each base point, the least one
        that a strong generator moves, lies in copy 0, where the image of n
        acts as n.  NotASubgroup unless ``n_part`` gives n back."""
        n, chain = tuple(n), self.group.chain
        image = chain.from_base_images([n[b] for b in chain.base])
        if image is None or self.n_part(image) != n:
            raise NotASubgroup("the element does not lie in N")
        return image


def cyclic_extension_build(n_group: PermGroup, alpha: GroupHom, n: int,
                           x) -> CyclicExtensionResult:
    """The extension H with H/N = <tN> cyclic of order n, t g t^-1 = alpha(g)
    and t^n = x, on the induced action of degree n deg N: g in N acts on
    copy i of N's domain as alpha^i(g), and t moves copy i to copy i + 1,
    through x from copy n - 1 to copy 0."""
    if n < 1:
        raise UnsupportedFamily("cyclic extensions need n >= 1")
    check_points(n * n_group.degree, "the cyclic extension")
    x = tuple(x)
    if not cyclic_extension_exists_check(n_group, alpha, n, x):
        raise InvalidWitness("witness does not satisfy the extension conditions")
    d = n_group.degree
    powers = _alpha_powers(n_group, alpha, n)

    def on_copies(images):                  # images[i] acts on copy i
        return tuple(i * d + y for i, g in enumerate(images) for y in g)

    gens = [on_copies(col[:n]) for col in zip(*powers)]
    t = tuple(range(d, n * d)) + x
    grp = PermGroup(n * d, gens + [t])
    if grp.order != n * n_group.order:
        raise InvalidWitness(
            f"extension has order {grp.order}, expected {n * n_group.order}")
    # the distinguished generator must conjugate the embedded N by alpha
    ti = pinv(t)
    for g_perm, col in zip(gens, zip(*powers)):
        if pmul(pmul(t, g_perm), ti) != on_copies(col[1:]):
            raise InvalidWitness("distinguished generator does not act as alpha")
    return CyclicExtensionResult(grp, t, n_group, gens)


def split_cyclic_extension(n_group: PermGroup, q: int, alpha,
                           gens) -> CyclicExtensionResult:
    """N : C_q with the generator t of C_q acting as alpha, an automorphism
    of N with alpha^q = 1 given as a map on N's elements; the caller has
    proved that it is one.

    t moves copy c to copy c - 1, so t^-1 n t = alpha(n).  The chain is
    N's, carried (``_carried_chain``), with t on the first level: the base
    stays in copy 0, and H_(b_0) = N_(b_0), as n t^j sends copy 0 to copy
    -j and n acts on copy 0 as n.  The group is generated by t and the
    images of ``gens``, elements of N whose alpha-images generate N.  No
    order is claimed: the caller reads it after ``elements()`` has
    verified the chain and that these generators generate its group.
    """
    d, memo = n_group.degree, {}
    check_points(q * d, "the semidirect product N : C_q")

    def carry(n):
        image = memo.get(n)
        if image is None:
            copies = [n]
            for _ in range(q - 1):
                copies.append(alpha(copies[-1]))
            image = memo[n] = tuple([c * d + x for c, g in enumerate(copies)
                                     for x in g])
        return image

    t = tuple(((c - 1) % q) * d + x for c in range(q) for x in range(d))
    n_perms = [carry(g) for g in n_group.gens]
    h_gens = tuple(map(carry, gens)) + (t,)
    grp = PermGroup.__new__(PermGroup)
    grp._adopt(h_gens, _carried_chain(n_group, q * d, carry, t), h_gens)
    return CyclicExtensionResult(grp, t, n_group, n_perms)


def cyclic_extension_exists_check(n_group, alpha, n, x) -> bool:
    """Whether x is a witness: alpha(x) = x and alpha^n(g) = x g x^-1."""
    if alpha.image(x) != x:
        return False
    xi = pinv(x)
    power_images = _alpha_powers(n_group, alpha, n)[n]
    return all(pmul(pmul(x, g), xi) == img
               for g, img in zip(n_group.gens, power_images))
