"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's stabilizer chains and class machinery:
multiplication is inlined on image tuples, closures are plain BFS sets, and
classes/centers come from full conjugation scans.  They are only usable at
small orders, which is the point.
"""


def mul(a, b):
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def closure(degree, gens):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def graph(source_degree, gens, images):
    """<(g, image of g)> in S_source x S_target, target points placed after
    the source's: the images define a homomorphism exactly when it has as
    many elements as <gens>."""
    pairs = [tuple(g) + tuple(source_degree + x for x in im)
             for g, im in zip(gens, images)]
    return closure(source_degree + len(images[0]), pairs)


def conjugacy_partition(elements):
    elements = set(elements)
    classes = []
    remaining = set(elements)
    while remaining:
        x = min(remaining)
        cls = {mul(mul(inv(g), x), g) for g in elements}
        classes.append(frozenset(cls))
        remaining -= cls
    return set(classes)


def center(elements):
    return {x for x in elements
            if all(mul(x, g) == mul(g, x) for g in elements)}


def centralizer(elements, subset):
    """The elements commuting with every member of ``subset``."""
    return {x for x in elements
            if all(mul(x, h) == mul(h, x) for h in subset)}


def normalizer(elements, subset):
    """The elements g with g^-1 subset g = subset."""
    subset = set(subset)
    return {g for g in elements
            if {mul(mul(inv(g), h), g) for h in subset} == subset}


def class_matrix(group, i):
    """The class matrix M_i[j][m] = #{(x, y) in K_i x K_j : x y = rep_m},
    dense: one full product x^-1 rep_m per (x, m), found in
    ``ClassData.index``."""
    cd = group.conjugacy_classes()
    k = len(cd)
    mat = [[0] * k for _ in range(k)]
    for x in cd.classes[i]:
        xi = inv(x)
        for m, rep in enumerate(cd.representatives):
            mat[cd.index[mul(xi, rep)]][m] += 1
    return mat


def element_order(x):
    ident = tuple(range(len(x)))
    n = 1
    y = x
    while y != ident:
        y = mul(y, x)
        n += 1
    return n


def p_part(n, p):
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def is_normal_subset(elements, subset):
    subset = set(subset)
    return all(mul(mul(inv(g), x), g) in subset
               for x in subset for g in elements)


def normal_closure_of(elements, seed):
    """Smallest normal subset containing the seed, as a subgroup set."""
    current = set(closure(len(seed[0]) if seed else 1, seed)) if seed else None
    degree = len(next(iter(elements)))
    gens = list(seed)
    while True:
        new = []
        for x in gens:
            for g in elements:
                c = mul(mul(inv(g), x), g)
                if c not in (current or set()):
                    new.append(c)
        if not new:
            break
        gens.extend(new)
        current = closure(degree, gens)
    return current or {tuple(range(degree))}


def power_quotient_class_sizes(k_elements, q):
    """Sorted class sizes of K^q / W, W the product-one subgroup of Z(K)^q.

    The class of (x_1, ..., x_q) W is the image of the product of the
    classes of the x_i.  A W-coset is named by the tuple whose first q - 1
    entries are the least members of their Z(K)-cosets."""
    from itertools import product

    z = center(k_elements)
    least = {}
    for x in k_elements:
        m = min(mul(x, c) for c in z)
        least[x] = (m, mul(inv(x), m))     # x (x^-1 m) = m, x^-1 m central

    def name(t):
        head = [least[x] for x in t[:-1]]
        last = t[-1]
        for _m, c in head:
            last = mul(last, inv(c))
        return tuple(m for m, _c in head) + (last,)

    classes = sorted(sorted(c) for c in conjugacy_partition(k_elements))
    seen = set()
    sizes = []
    for combo in product(classes, repeat=q):
        image = {name(t) for t in product(*combo)}
        key = min(image)
        if key not in seen:
            seen.add(key)
            sizes.append(len(image))
    return sorted(sizes)


def leibniz_det(m):
    """Determinant as the signed sum over all permutations of the columns."""
    from itertools import permutations

    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _monic_products(p, m):
    """Every monic polynomial of degree m over F_p with a monic factor of
    degree 1..m//2, as ascending coefficient tuples: the reducible ones."""
    from itertools import product

    out = set()
    for d in range(1, m // 2 + 1):
        for g in product(range(p), repeat=d):
            for h in product(range(p), repeat=m - d):
                prod = [0] * (m + 1)
                for i, x in enumerate(g + (1,)):
                    for j, y in enumerate(h + (1,)):
                        prod[i + j] += x * y
                out.add(tuple(c % p for c in prod))
    return out


def _root_powers(p, f):
    """x^0, x^1, ..., x^(ord - 1) in F_p[x]/(f) for monic f of degree m
    with f(0) != 0, as ascending coefficient tuples of length m, each the
    one before multiplied by x, until the list closes at 1."""
    m = len(f) - 1

    def times_x(a):
        shifted = (0,) + a
        top = shifted[m]
        return tuple((c - top * fc) % p for c, fc in zip(shifted[:m], f))

    one = (1,) + (0,) * (m - 1)
    powers = [one]
    while times_x(powers[-1]) != one:
        powers.append(times_x(powers[-1]))
    return powers


def least_field_modulus(p, e):
    """The least monic irreducible f of degree m = ord_e(p) over F_p whose
    root has multiplicative order divisible by e (e >= 2, p not dividing
    e), found by plain enumeration: f = a0 + ... + a_(m-1) x^(m-1) + x^m in
    lexicographic order of (a0, ..., a_(m-1)), irreducible when no product
    of smaller monic polynomials equals it, and the root's order counted by
    repeated multiplication in F_p[x]/(f)."""
    from itertools import product

    m = 1
    while (p ** m - 1) % e:
        m += 1
    reducible = _monic_products(p, m)
    for tail in product(range(p), repeat=m):
        f = tail + (1,)
        if f in reducible or not f[0]:     # f(0) = 0: the root is 0
            continue
        if len(_root_powers(p, f)) % e == 0:
            return f
    return None


def field_omega_powers(p, e):
    """(f, powers) with f = least_field_modulus(p, e), omega = x^(ord / e)
    in F_p[x]/(f) and powers = (omega^0, ..., omega^(e-1)), read off the
    listed powers of the root x."""
    f = least_field_modulus(p, e)
    powers = _root_powers(p, f)
    return f, tuple(powers[::len(powers) // e])


def commutator_subgroup(elements, gens):
    """G' as the normal closure of the commutators of the generators."""
    comms = [mul(mul(inv(a), inv(b)), mul(a, b)) for a in gens for b in gens]
    return normal_closure_of(elements, comms)


def _generators_of(subset):
    """A generating list of the subgroup ``subset``, taken greedily."""
    subset = sorted(subset)
    degree = len(subset[0])
    gens, span = [], {tuple(range(degree))}
    for x in subset:
        if x not in span:
            gens.append(x)
            span = closure(degree, gens)
    return gens


def pi_core_over(elements, above, is_pi):
    """O_pi over the normal subgroup ``above``: the largest normal subgroup
    containing it with a pi-number index.  It is the join of the normal
    closures <x^G, above> whose index over above is a pi-number, and x
    runs over one member of each class."""
    above = set(above)
    seed = _generators_of(above)
    picked = list(seed)
    for cls in conjugacy_partition(elements):
        x = min(cls)
        if is_pi(len(normal_closure_of(elements, seed + [x])) // len(above)):
            picked.append(x)
    return normal_closure_of(elements, picked)


def p_length(elements, p):
    """The number of p-factors of the upper p-series 1 <= O_p' <= O_p'p
    <= ... <= G, each term the core over the one before; None when the
    series stalls (G not p-solvable)."""
    def is_p(n):
        return p_part(n, p) == n

    def is_p_prime(n):
        return n % p != 0

    degree = len(next(iter(elements)))
    term = pi_core_over(elements, {tuple(range(degree))}, is_p_prime)
    count = 0
    while len(term) < len(elements):
        nxt = pi_core_over(elements, term, is_p)
        if len(nxt) == len(term):
            return None
        count += 1
        term = pi_core_over(elements, nxt, is_p_prime)
    return count


def index_q_kernels(elements, gens, q):
    """Every subgroup of index q over N = G'G^q, as a sorted tuple, found
    by enumeration: G/N = F_q^r gets coordinates from a basis of cosets,
    and each nonzero functional with leading coefficient 1 gives one
    kernel."""
    powers = []
    for g in gens:
        x = tuple(range(len(g)))
        for _ in range(q):
            x = mul(x, g)
        powers.append(x)
    comms = [mul(mul(inv(a), inv(b)), mul(a, b)) for a in gens for b in gens]
    n = normal_closure_of(elements, comms + powers)

    def coset(x):
        return min(mul(h, x) for h in n)

    ident = tuple(range(len(next(iter(elements)))))
    span = {coset(ident): ((), ident)}
    for x in sorted(elements):
        if coset(x) in span:
            continue
        grown = {}
        for co, rep in span.values():
            acc = rep
            for k in range(q):
                grown[coset(acc)] = (co + (k,), acc)
                acc = mul(acc, x)
        span = grown
    r = len(next(iter(span.values()))[0])
    coords = {x: span[coset(x)][0] for x in elements}
    kernels = set()
    for code in range(1, q ** r):
        a = [code // q ** i % q for i in range(r)]
        if a[next(i for i, c in enumerate(a) if c)] != 1:
            continue
        kernels.add(tuple(sorted(x for x, co in coords.items()
                                 if sum(c * y for c, y in zip(a, co)) % q == 0)))
    return sorted(kernels)


def linearly_independent(vectors):
    """Exact independence over Q of tuples of cyclotomics: the rank of their
    integer coordinates, by elimination over Fractions."""
    from fractions import Fraction

    from ctlab.modrep import _flatten

    rows = [[Fraction(x) for x in vec] for vec in _flatten(vectors)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(vectors)
