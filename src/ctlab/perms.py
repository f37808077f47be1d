"""Permutations as image tuples on 0..n-1.

A permutation of degree n is a tuple ``p`` with ``p[x]`` the image of the
point ``x``.  Composition is left-to-right: ``pmul(a, b)`` applies ``a``
first, so ``x^(a*b) == b[a[x]]``.  Points are 0-based internally; the
cycle-notation parser/printer speaks the 1-based dialect used in data files.
"""

from __future__ import annotations

import re
from math import lcm

from .errors import InvalidPermutation

Perm = tuple

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def validate(p, degree=None) -> Perm:
    """Return p as a tuple, raising InvalidPermutation unless it is a bijection."""
    t = tuple(p)
    n = len(t)
    if degree is not None and n != degree:
        raise InvalidPermutation(f"degree mismatch: expected {degree}, got {n}")
    seen = [False] * n
    for x in t:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            raise InvalidPermutation(f"image array {t!r} is not a bijection of 0..{n - 1}")
        seen[x] = True
    return t


def pmul(a: Perm, b: Perm) -> Perm:
    """a then b."""
    return tuple(map(b.__getitem__, a))


def pinv(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def ppow(a: Perm, n: int) -> Perm:
    if n < 0:
        return ppow(pinv(a), -n)
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = pmul(result, base)
        base = pmul(base, base)
        n >>= 1
    return result


def conj(a: Perm, g: Perm) -> Perm:
    """g^{-1} a g."""
    return pmul(pmul(pinv(g), a), g)


def commutator(a: Perm, b: Perm) -> Perm:
    return pmul(pmul(pinv(a), pinv(b)), pmul(a, b))


def cycles(p: Perm) -> list:
    """Nontrivial cycles of p, each rotated to start at its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def order(p: Perm) -> int:
    return lcm(1, *(len(c) for c in cycles(p)))


def format_cycles(p: Perm) -> str:
    """1-based disjoint-cycle string, '()' for the identity."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cs)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse a 1-based disjoint-cycle string into a permutation of ``degree``."""
    stripped = text.strip()
    if stripped in ("()", ""):
        return identity(degree)
    consumed = "".join(_CYCLE_RE.findall(stripped))
    residue = _CYCLE_RE.sub("", stripped).strip()
    if residue or not consumed.strip():
        raise InvalidPermutation(f"cannot parse cycle notation: {text!r}")
    images = list(range(degree))
    used = set()  # points of earlier cycles, singletons included
    for cyc in _CYCLE_RE.findall(stripped):
        pts = [int(tok) - 1 for tok in re.split(r"[\s,]+", cyc.strip()) if tok]
        if not pts:
            continue
        if any(not 0 <= x < degree for x in pts):
            raise InvalidPermutation(f"point out of range 1..{degree} in {text!r}")
        if len(set(pts)) != len(pts):
            raise InvalidPermutation(f"repeated point inside a cycle: {text!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if a in used:
                raise InvalidPermutation(f"point {a + 1} occurs in two cycles: {text!r}")
            images[a] = b
        used.update(pts)
    return validate(images, degree)
