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

    def times_x(a, f):
        shifted = (0,) + a
        top = shifted[m]
        return tuple((c - top * fc) % p for c, fc in zip(shifted[:m], f))

    one = (1,) + (0,) * (m - 1)
    for tail in product(range(p), repeat=m):
        f = tail + (1,)
        if f in reducible:
            continue
        root = times_x(one, f)
        if not any(root):
            continue                       # f = x, whose root is 0
        power, order = root, 1
        while power != one:
            power = times_x(power, f)
            order += 1
        if order % e == 0:
            return f
    return None
