"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately independent of exgraph: plain subset
enumeration and closed forms only, so a bug in the library cannot hide in
its own oracle.  Sizes are capped accordingly (exponential blowup).
"""

import itertools
import math

import numpy as np


def brute_independence(n, edges, weights=None):
    """Maximum (weight) independent set by enumerating all 2^n subsets
    (n <= 20); without weights every vertex weighs 1."""
    if n > 20:
        raise ValueError("brute-force independence capped at 20 vertices")
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best, best_mask = 0, 0
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        score = mask.bit_count() if weights is None else sum(weights[v] for v in range(n) if mask >> v & 1)
        if score > best:
            best = score
            best_mask = mask
    members = tuple(v for v in range(n) if best_mask >> v & 1)
    return best, members


def brute_maximal_cliques(n, edges):
    """All maximal cliques by filtering every subset (n <= 16)."""
    if n > 16:
        raise ValueError("brute-force clique listing capped at 16 vertices")
    eset = {frozenset(e) for e in edges}

    def is_clique(sub):
        return all(frozenset(p) in eset for p in itertools.combinations(sub, 2))

    cliques = []
    for size in range(n, 0, -1):
        for sub in itertools.combinations(range(n), size):
            if not is_clique(sub):
                continue
            s = set(sub)
            if any(s < c for c in cliques):
                continue
            cliques.append(s)
    return sorted(tuple(sorted(c)) for c in cliques)


def brute_colorings(n, edges, bases, pins=None):
    """Every valid 0/1 assignment of a ray system, via numpy over all masks.

    Valid means: no two adjacent vertices both 1, and exactly one 1 per
    basis.  Returns the list of assignments as tuples.  n <= 22.
    """
    if n > 22:
        raise ValueError("exhaustive coloring capped at 22 vertices")
    masks = np.arange(1 << n, dtype=np.int64)
    good = np.ones(masks.size, dtype=bool)
    for i, j in edges:
        good &= ~((masks >> i & 1).astype(bool) & (masks >> j & 1).astype(bool))
    for basis in bases:
        count = np.zeros(masks.size, dtype=np.int64)
        for v in basis:
            count += masks >> v & 1
        good &= count == 1
    if pins:
        for v, val in pins.items():
            good &= (masks >> v & 1) == val
    out = []
    for mask in masks[good]:
        out.append(tuple(int(mask) >> v & 1 for v in range(n)))
    return out


def cycle_alpha(n):
    return n // 2


def cycle_theta(n):
    if n % 2 == 0:
        return n / 2
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def cycle_alpha_star(n):
    return n / 2 if n >= 4 else 1.0


def inner_product_mod2(x, y):
    return sum(a & b for a, b in zip(x, y)) % 2


def random_graph(rng, n, p):
    """Edge list of a G(n, p) sample from the supplied generator."""
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
