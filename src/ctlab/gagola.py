"""Recursive towers: p-central-type covers containing a prescribed solvable
group in their central quotient.

One step consumes a level (K, mu) with mu a faithful irreducible Brauer
character witnessing p-central type, and a prime q, and builds
H = N : <t> with N normal of prime index q.  tau = mu_L x ... x mu_L on
U = L^q / W, W the product-one subgroup of Z(L)^q:

* q != p: L = K x C_q when Z(K) has no order-q element (the step
  augments), else L = K; N = U x <y> for an auxiliary C_q = <y>, and t
  shifts the U-coordinates and sends y to z_0 y, z_i being a central
  order-q element z of L in coordinate i.  The witness is theta^H for
  theta = tau x 1.
* q = p: L = K, N = U, t shifts the coordinates, and the witness extends
  tau.

|U| = |L|^q / |Z(L)|^(q-1), |H| = q |U| when q = p and q^2 |U| when
q != p, and |Z(L)| = q |Z(K)| when the step augments.  Every level lists
its classes, so a step whose H would exceed ``SCAN_LIMIT`` raises
BudgetExceeded before it builds anything; the built H must have the
predicted order.

No character table is computed.  Each witness is fixed by Clifford theory
for Brauer characters (Navarro, "Characters and Blocks of Finite Groups",
ch. 8), whose hypotheses the step checks exactly (VerificationFailed
otherwise):

* q = p, Green's theorem: an H-invariant tau in IBr(N), N of index p,
  has a unique extension in IBr(H).  An element outside N maps onto a
  generator of H/N = C_p, so every p-regular class of H lies in N; the
  step checks this (``n_part`` is not None) and that tau takes one value
  at t^-i h t^i over i < q.  The witness is tau read on H's p-regular
  classes.
* q != p, the Clifford correspondence: theta in IBr(N), N of prime index
  q, not H-invariant, induces to an element of IBr(H).  The central z acts
  in mu_L as the scalar lambda(z) = mu_L(z) / mu_L(1), checked to be a
  primitive q-th root of unity, and theta(z_0 y) = lambda(z) theta(y), so
  theta^t != theta.  When H is a p'-group the norm of theta^H is checked
  to be 1 as well.

theta^H(h) is the sum of theta(t^-i h t^i) over i < q for h in N, and 0
outside N, for Brauer characters as for ordinary ones.  For h = u y^j,
alpha^i(h) = alpha^i(u) (z_0 ... z_(i-1))^j y^j, alpha the action of t on
N, and tau is shift-invariant, so theta^H(h) = q tau(u) when j = 0 and 0
otherwise: one lift of each class gives the whole sum.  ``n_part`` of the
semidirect realization tells which elements of H lie in N, and as what;
``n_image`` carries N into H for the embedding; no class list or
homomorphism of N is built.

A level carries ``embed``, a memoised map from the chain subgroup G it
covers into H, a section of an injective homomorphism G -> H/Z(H).  With
M the subgroup the level below covers and x the first generator of G
outside M, g in x^j M maps to the element of U with the coordinates
embed'(x^a g x^-((a + j) mod q)), a < q, times t^j, embed' the map below
(Krasner-Kaloujnine over the transversal x^a).  embed' is fixed up to
Z(K) <= Z(L), and a coordinate changed inside Z(L) moves the image inside
Z(L)^q/W, which is central in H: the shift keeps the product of the
coordinates, and y commutes with U.  So any section serves; no level
builds a quotient of G or a homomorphism, and H/Z is realized once, on
the last level, for the one verified ``GroupHom`` G -> H/Z.

One rule decides faithfulness, in each step and in the certificate
(``modrep.faithful_brauer_values``): the witness equals its degree on no
p-regular class but the identity class, and O_p(H) = 1.  The abelian
q = p corner (K central) is a DegenerateStep: no faithful witness exists
there.  The certificate re-checks the four claimed properties on the final
level's group, centre, embedding and carried witness.  At a p'-level it
re-derives the witness's irreducibility from its norm; at a p-divisible
level irreducibility is certified by the steps and not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chartab import ClassFunction, inner_product
from .cyclo import ONE, ZERO, is_prime, prime_factors, rational, zeta
from .errors import (BudgetExceeded, DegenerateStep, NotAPrime, NotSolvable,
                     VerificationFailed)
from .forge import (CentralPowerResult, central_product_power, cyclic,
                    semidirect, trivial_group)
from .homs import GroupHom
from .modrep import faithful_brauer_values, p_regular_classes, _degree_of
from .permgroup import SCAN_LIMIT, ClassData, PermGroup, StabilizerChain, \
    check_order, direct_product, p_prime_part
from .perms import pinv, pmul, ppow, order as perm_order


@dataclass
class TowerLevel:
    group: PermGroup
    classes: ClassData
    regular: list
    mu_values: tuple             # witness values on the p-regular classes
    center: PermGroup
    embed: object                # chain subgroup -> group, modulo the center


@dataclass
class StepRecord:
    q: int
    case: str                # "q=p" or "q!=p"
    augmented: bool
    group_order: int
    center_order: int
    witness_degree: int
    witness_method: str
    eq3: dict = None         # |H:Z| = q^2 |K:Z(K)|^q data for q != p

    def to_json(self):
        out = {
            "q": self.q,
            "case": self.case,
            "augmented": self.augmented,
            "order": self.group_order,
            "center_order": self.center_order,
            "witness_degree": self.witness_degree,
            "witness_method": self.witness_method,
        }
        if self.eq3 is not None:
            out["index_identity"] = self.eq3
        return out


@dataclass
class TowerCertificate:
    source: PermGroup
    p: int
    tower: PermGroup
    center: PermGroup
    witness_degree: int
    embedding: GroupHom
    steps: list
    properties: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(v["holds"] for v in self.properties.values())

    def to_json(self):
        return {
            "p": self.p,
            "source_order": self.source.order,
            "tower_order": self.tower.order,
            "center_order": self.center.order,
            "witness_degree": self.witness_degree,
            "steps": [s.to_json() for s in self.steps],
            "properties": self.properties,
            "verified": self.ok,
        }


# ---------------------------------------------------------------------------
# chief chain selection
# ---------------------------------------------------------------------------

def _chief_step(g: PermGroup, p: int):
    """(q, M) for the next tower step: prefer q = p, else the largest prime.

    Preferring q = p keeps the p-steps at the top of the tower, where the
    input of the step is nonabelian, which is exactly what the q = p
    construction requires.

    M is the normal subgroup of index q over N = G'G^q whose sorted element
    list is least.  G/N is elementary abelian, so every subgroup A >= N is
    normal and <A, x> has index [G:A]/q for any x outside A.  Starting from
    N, G's elements are joined in sorted order until the index is q: each x
    outside A is taken while [G:A] > q.  Then every element up to the last
    one taken lies in M, and any other index-q subgroup over N that held
    them all would contain M; so the other one lacks an element that M has
    and that comes before every element it has and M lacks.
    """
    der = g.derived_subgroup()
    ab = g.order // der.order
    primes = prime_factors(ab)
    if not primes:
        raise VerificationFailed("nontrivial solvable groups have a prime quotient")
    q = p if p in primes else max(primes)
    chain = StabilizerChain(g.degree, [])
    taken = [x for x in list(der.gens) + [ppow(x, q) for x in g.gens]
             if chain.extend(x)]
    if chain.order() * q < g.order:
        for x in g.elements():
            if chain.extend(x):
                taken.append(x)
                if chain.order() * q >= g.order:
                    break
    m = g.subgroup_from_elements(taken)
    check_order(m, g.order // q, f"an index-{q} kernel")
    return q, m


# ---------------------------------------------------------------------------
# one step
# ---------------------------------------------------------------------------

def _mu_value_function(level: TowerLevel):
    """mu as a map element-of-K -> Cyclotomic (p-regular elements only)."""
    pos = {c: t for t, c in enumerate(level.regular)}
    row = level.mu_values
    classes = level.classes

    def value(g):
        return row[pos[classes.index[tuple(g)]]]

    return value


def _cyclic_dlog(elem, q):
    """Exponent j with elem = gen^j in the standard cyclic(q) realization."""
    return elem[0] if q > 1 else 0


@dataclass
class _StepData:
    level: TowerLevel
    record: StepRecord
    sd: object                # semidirect result for H = N : <t>
    cpp: CentralPowerResult
    t: tuple                  # distinguished order-q generator of H
    l_embed: object           # K -> L embedding (identity when not augmented)
    n_embed: object           # U-element -> N-element (identity when q = p)
    q: int


def _verify(holds: bool, what: str):
    if not holds:
        raise VerificationFailed(what)


def _predicted_order(level: TowerLevel, q: int, p: int, augmented: bool) -> int:
    """|H| of the step from the level alone (module docstring)."""
    l_order, zl_order = level.group.order, level.center.order
    if augmented:
        l_order, zl_order = l_order * q, zl_order * q
    return (q if q == p else q * q) * l_order ** q // zl_order ** (q - 1)


def gagola_step(level: TowerLevel, q: int, p: int, depth=0) -> _StepData:
    k_grp = level.group
    z_k = level.center
    if q == p and k_grp.order == z_k.order:
        raise DegenerateStep(
            f"step with q = p = {p} from a central group of order "
            f"{k_grp.order}: no faithful witness exists", level=depth)
    augmented = q != p and all(perm_order(x) != q for x in z_k.elements())
    predicted = _predicted_order(level, q, p, augmented)
    if predicted > SCAN_LIMIT:
        raise BudgetExceeded(
            f"tower step at depth {depth} (q = {q}): its level would have "
            f"order {predicted}, over the scan limit {SCAN_LIMIT}")
    mu_of = _mu_value_function(level)
    roots = [zeta(q, j) for j in range(q)]

    if augmented:
        l_grp, emb_k, _emb_c, split_l = direct_product(k_grp, cyclic(q))

        def mu_l(g):
            xk, xc = split_l(tuple(g))
            return mu_of(xk) * roots[_cyclic_dlog(xc, q)]

        def l_embed(gk):
            return emb_k(gk)
    else:
        l_grp = k_grp
        mu_l = mu_of

        def l_embed(gk):
            return tuple(gk)

    z_l = l_grp.center()
    cpp = central_product_power(l_grp, q)
    u_grp = cpp.group
    u_gen_images = cpp.quotient.gen_images
    n_l_gens = len(l_grp.gens)

    def shifted_u_gens():
        # image of pi(emb(i, g)) under the coordinate shift is pi(emb(i+1, g))
        out = []
        for i in range(q):
            for gidx in range(n_l_gens):
                out.append(u_gen_images[((i + 1) % q) * n_l_gens + gidx])
        return out

    if q == p:
        alpha = GroupHom(u_grp, u_grp, shifted_u_gens())
        _verify(alpha.automorphism_order() == q, "the coordinate shift has order q")
        sd = semidirect(u_grp, cyclic(q), [alpha])
        split_n = None

        def n_embed(u_elem):
            return u_elem
    else:
        z = next(x for x in z_l.elements() if perm_order(x) == q)
        y_grp = cyclic(q)
        n_grp, emb_u, emb_y, split_n = direct_product(u_grp, y_grp)
        u_z = cpp.quotient.image_of(cpp.embed_coordinate(0, z))
        images = [emb_u(w) for w in shifted_u_gens()]
        images.append(pmul(emb_u(u_z), emb_y(y_grp.gens[0])))
        alpha = GroupHom(n_grp, n_grp, images)
        _verify(alpha.automorphism_order() == q, "the twisted shift has order q")
        sd = semidirect(n_grp, cyclic(q), [alpha])

        def n_embed(u_elem):
            return emb_u(u_elem)

    h_grp = sd.group
    check_order(h_grp, predicted, f"the tower level of step {depth}")
    t = sd.h_hom.gen_images[0]
    z_h = h_grp.center()

    eq3 = None
    if q != p:
        lhs = h_grp.order // z_h.order
        rhs = q * q * (l_grp.order // z_l.order) ** q
        eq3 = {"central_index": lhs, "q_squared_times_power": rhs,
               "holds": lhs == rhs}
        _verify(lhs == rhs, "central index identity failed")

    cd_h = h_grp.conjugacy_classes()
    regular_h = p_regular_classes(cd_h, p)

    def tau(u_elem):
        # mu_L x ... x mu_L at an element of U, read off one lift to L^q
        val = rational(1)
        for c in cpp.split(cpp.quotient.lift(u_elem)):
            val = val * mu_l(c)
        return val

    if q == p:
        # Green's theorem (module docstring): every p-regular class lies in
        # N, and tau, invariant under the shift, is read on it
        ti = pinv(t)

        def extended(h):
            vals = []
            for _ in range(q):
                n_elem = sd.n_part(h)
                _verify(n_elem is not None, "p-regular class outside N")
                vals.append(tau(n_elem))
                h = pmul(pmul(ti, h), t)
            _verify(vals.count(vals[0]) == q, "tau is not invariant under the shift")
            return vals[0]

        mu_values = tuple(extended(cd_h.representatives[c]) for c in regular_h)
        method = "green-extension"
    else:
        # theta^H at h = u y^j in N is q tau(u) when j = 0 and 0 otherwise,
        # as lambda(z) is a primitive q-th root (module docstring); 0
        # outside N
        lam = mu_l(z) / mu_l(l_grp.identity)
        _verify(lam in roots[1:], "lambda(z) is not a primitive q-th root of unity")

        def induced(h):
            n_elem = sd.n_part(h)
            if n_elem is None:
                return ZERO
            u_elem, y_elem = split_n(n_elem)
            return q * tau(u_elem) if _cyclic_dlog(y_elem, q) == 0 else ZERO

        mu_values = tuple(induced(cd_h.representatives[c]) for c in regular_h)
        if h_grp.order % p:
            cf = ClassFunction(cd_h, mu_values)
            _verify(inner_product(cf, cf) == 1, "induced witness is not irreducible")
            method = "norm-certified-induction"
        else:
            method = "clifford-induction"
    _verify(faithful_brauer_values(h_grp, mu_values, p), "witness is not faithful")
    deg = _degree_of(mu_values)
    _verify(deg * deg == p_prime_part(h_grp.order // z_h.order, p),
            "witness degree does not square to the p'-central index")

    new_level = TowerLevel(h_grp, cd_h, regular_h, mu_values, z_h, None)
    record = StepRecord(q, "q=p" if q == p else "q!=p", augmented,
                        h_grp.order, z_h.order, deg, method, eq3)
    return _StepData(new_level, record, sd, cpp, t, l_embed, n_embed, q)


# ---------------------------------------------------------------------------
# embedding transport along a step
# ---------------------------------------------------------------------------

def _extend_embedding(step: _StepData, prev: TowerLevel, g_grp: PermGroup,
                      m_sub: PermGroup):
    """``embed`` of the step's level (module docstring)."""
    q = step.q
    x = next(g for g in g_grp.gens if g not in m_sub)
    powers = [ppow(x, a) for a in range(q)]
    inverses = [ppow(x, -a) for a in range(q)]
    t_powers = [ppow(step.t, j) for j in range(q)]
    memo = {}

    def embed(g):
        h = memo.get(g)
        if h is None:
            j = next((j for j in range(q) if pmul(g, inverses[j]) in m_sub), None)
            _verify(j is not None, "an element lies in no coset x^j M")
            coords = [step.l_embed(prev.embed(
                pmul(pmul(powers[a], g), inverses[(a + j) % q])))
                for a in range(q)]
            n_elt = step.n_embed(step.cpp.project_tuple(coords))
            h = memo[g] = pmul(step.sd.n_image(n_elt), t_powers[j])
        return h

    return embed


# ---------------------------------------------------------------------------
# the tower driver and certificate
# ---------------------------------------------------------------------------

def _base_level() -> TowerLevel:
    k = trivial_group()
    return TowerLevel(k, k.conjugacy_classes(), [0], (ONE,), k,
                      lambda g: k.identity)


def gagola_tower(g_grp: PermGroup, p: int) -> TowerCertificate:
    if not is_prime(p):
        raise NotAPrime(f"p = {p} is not a prime")
    if not g_grp.is_solvable():
        raise NotSolvable("towers are built over solvable groups")
    chain = []
    current = g_grp
    while current.order > 1:
        q, m = _chief_step(current, p)
        chain.append((current, q, m))
        current = m
    level = _base_level()
    steps = []
    for depth, (grp, q, m_sub) in enumerate(reversed(chain)):
        step = gagola_step(level, q, p, depth=depth)
        step.level.embed = _extend_embedding(step, level, grp, m_sub)
        level = step.level
        steps.append(step.record)
    inner = level.group.inner_action()
    embedding = GroupHom(g_grp, inner.group,
                         [inner.image_of(level.embed(g)) for g in g_grp.gens])
    cert = TowerCertificate(g_grp, p, level.group, level.center,
                            _degree_of(level.mu_values), embedding, steps)
    cert.properties = _verify_certificate(g_grp, p, level, embedding)
    return cert


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in prime_factors(n))


def _prime_set(n: int, p: int):
    return sorted(set(prime_factors(n)) - {p})


def _verify_certificate(g_grp: PermGroup, p: int, level: TowerLevel,
                        emb: GroupHom) -> dict:
    h = level.group
    z = level.center
    props = {}
    props["center_squarefree_p_prime_order"] = {
        "holds": z.order % p != 0 and _squarefree(z.order),
        "center_order": z.order,
    }
    target = p_prime_part(h.order // z.order, p)
    # the carried witness; irreducible by the steps at a p-divisible level,
    # by its norm at a p'-level
    vals = level.mu_values
    degree = _degree_of(vals)
    found = degree * degree == target and faithful_brauer_values(h, vals, p)
    if h.order % p:
        cf = ClassFunction(level.classes, vals)
        found = found and inner_product(cf, cf) == 1
        method = "norm-certificate"
    else:
        method = "carried-witness"
    props["faithful_witness_with_square_degree"] = {
        "holds": found,
        "degree": degree,
        "target_index": target,
        "method": method,
    }
    props["embedding_into_central_quotient"] = {
        "holds": emb.is_injective() and emb.target.order * z.order == h.order,
        "image_order": emb.image_group().order,
    }
    sets = [_prime_set(g_grp.order, p), _prime_set(h.order, p),
            _prime_set(z.order, p)]
    props["same_prime_divisors_apart_from_p"] = {
        "holds": sets[0] == sets[1] == sets[2],
        "sets": {"source": sets[0], "tower": sets[1], "center": sets[2]},
    }
    return props
