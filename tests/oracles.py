"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately independent of exgraph: plain subset
enumeration, closed forms, and the plain loops that faster library code
replaced, so a bug in the library cannot hide in its own oracle.  Sizes are
capped accordingly (exponential blowup).
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


def van_dam_reference(seed, trials, table):
    """Success rate of van Dam's protocol over `trials` seeded trials, one
    trial per loop iteration: draw (a0, a1, k), sample the box's (a, b) at
    inputs (a0 ^ a1, k) and count a hit when a0 ^ a ^ b equals bit k.

    `table` is the bipartite binary box as table[x, y, a, b].
    """
    rng = np.random.default_rng(seed)
    flat = {(x, y): table[x, y].reshape(-1) for x in range(2) for y in range(2)}
    hits = 0
    for _ in range(trials):
        a0, a1, k = rng.integers(0, 2, size=3)
        idx = rng.choice(4, p=flat[(int(a0 ^ a1), int(k))])
        aa, bb = divmod(int(idx), 2)
        if (a0 ^ aa) ^ bb == (a0, a1)[k]:
            hits += 1
    return hits / trials


def iso_map_reference(g1, g2, fixed=None):
    """Backtracking isomorphism search that tests each candidate against
    every placed vertex with `has_edge`: an edge-preserving bijection
    g1 -> g2 (sending fixed[0] to fixed[1] when `fixed` is given), or None
    when there is none.  Candidates are pruned only by degree and the sorted
    degrees of the neighbours.

    g1 and g2 need only `n` and `has_edge(i, j)`.
    """
    n = g1.n

    def keys(g):
        adj = [[j for j in range(n) if g.has_edge(i, j)] for i in range(n)]
        return [(len(adj[i]), tuple(sorted(len(adj[j]) for j in adj[i]))) for i in range(n)]

    k1, k2 = keys(g1), keys(g2)
    if sorted(k1) != sorted(k2):
        return None
    candidates = [[j for j in range(n) if k2[j] == k1[i]] for i in range(n)]
    if fixed is not None:
        u, v = fixed
        if v not in candidates[u]:
            return None
        candidates[u] = [v]
    order = sorted(range(n), key=lambda i: (0 if fixed and i == fixed[0] else 1, len(candidates[i])))
    placed = [-1] * n
    used = [False] * n

    def extend(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            if all(g1.has_edge(i, q) == g2.has_edge(j, placed[q]) for q in order[:pos]):
                placed[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                used[j] = False
                placed[i] = -1
        return False

    return placed if extend(0) else None


def hv_reference(a0, a_vec, n_vec, samples, seed):
    """The hidden-variable sampler as first written: normalise each draw m,
    then take the sign of (m/|m| + n).a for every sample and average."""
    a_vec = np.asarray(a_vec, dtype=float)
    n_vec = np.asarray(n_vec, dtype=float)
    norm_a = float(np.linalg.norm(a_vec))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(samples, 3))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    signs = np.where((m + n_vec) @ a_vec >= 0.0, 1.0, -1.0)
    return float(a0 + norm_a * signs.mean())


def ip_protocol_reference(x, y, seed):
    """The one-bit inner-product protocol with one integers(0, 2) draw per
    position; returns the XOR of Alice's message and Bob's outputs."""
    xbits = [int(v) for v in x]
    ybits = [int(v) for v in y]
    if len(xbits) != len(ybits):
        raise ValueError("bit strings must have equal length")
    if any(v not in (0, 1) for v in xbits + ybits):
        raise ValueError("inputs must be bits")
    rng = np.random.default_rng(seed)
    message = bob = 0
    for xi, yi in zip(xbits, ybits):
        a = int(rng.integers(0, 2))
        message ^= a
        bob ^= a ^ (xi & yi)
    return message ^ bob


def ip_protocol_agreement_reference(seed, instances, bits):
    """The seeded inner-product protocol loop as the command line first ran
    it, with ip_protocol_reference as the protocol: one generator draws x, y
    and the protocol seed of each instance in turn.  Returns the share of
    instances whose answer is the inner product mod 2."""
    rng = np.random.default_rng(seed)
    agree = 0
    for _ in range(instances):
        x = rng.integers(0, 2, size=bits)
        y = rng.integers(0, 2, size=bits)
        if ip_protocol_reference(x, y, seed=int(rng.integers(1 << 30))) == int(np.dot(x, y)) % 2:
            agree += 1
    return agree / instances


def first_asymmetric_pair(rows):
    """The first (i, j) in row-major order with bit j set in row i but bit i
    clear in row j, or None: the edge-by-edge loop that the graph
    constructor ran before it compared bit matrices."""
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1 and not rows[j] >> i & 1:
                return i, j
    return None


def conormal_reference(g, h):
    """Edges (a < b) and labels of the conormal product of g and h, pair
    (u, v) numbered u * h.n + v, tested pair by pair: (u1,v1) ~ (u2,v2) iff
    u1 ~ u2 in g or v1 ~ v2 in h.

    g and h need only `n`, `has_edge(i, j)` and `label(i)`.
    """
    edges = []
    for a, b in itertools.combinations(range(g.n * h.n), 2):
        u1, v1 = divmod(a, h.n)
        u2, v2 = divmod(b, h.n)
        if (u1 != u2 and g.has_edge(u1, u2)) or (v1 != v2 and h.has_edge(v1, v2)):
            edges.append((a, b))
    labels = [f"{g.label(u)}*{h.label(v)}" for u in range(g.n) for v in range(h.n)]
    return edges, labels


def k_subset_reference(m, k, meet):
    """k-subsets of range(m) as bitmasks in lexicographic order, the edges
    between subsets sharing exactly `meet` elements, and labels listing each
    subset's members counted from 1."""
    subsets = list(itertools.combinations(range(m), k))
    masks = [sum(1 << x for x in sub) for sub in subsets]
    edges = [
        (a, b)
        for a in range(len(masks))
        for b in range(a + 1, len(masks))
        if bin(masks[a] & masks[b]).count("1") == meet
    ]
    labels = ["".join(str(x + 1) for x in sub) for sub in subsets]
    return edges, labels


def exact_is_pd(a):
    """Whether the symmetric float matrix a is positive definite, decided in
    exact rational arithmetic: an LDL^T factorization without pivoting over
    fractions.Fraction exists with every pivot d_k > 0 exactly when a is PD
    (Jansson-Chaykin-Keil, SIAM J. Numer. Anal. 2007, use this kind of exact
    check to validate floating-point certificates)."""
    from fractions import Fraction

    n = len(a)
    work = [[Fraction(float(a[i][j])) for j in range(n)] for i in range(n)]
    for k in range(n):
        d = work[k][k]
        if d <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / d
            if f:
                for j in range(k + 1, i + 1):
                    work[i][j] -= f * work[j][k]
    return True


def global_section_matrix(scenario):
    """Events x global assignments of a measurement scenario, entry 1 where
    the assignment gives the event's outcomes, by the plain comprehension:
    events are (context, outcome tuple) and assignments one outcome per
    measurement, both listed in itertools.product order."""
    midx = {m: i for i, m in enumerate(scenario.measurements)}
    atoms = list(itertools.product(scenario.outcomes, repeat=len(scenario.measurements)))
    events = [
        (ctx, outcome)
        for ctx in scenario.contexts
        for outcome in itertools.product(scenario.outcomes, repeat=len(ctx))
    ]
    return np.array(
        [[all(atom[midx[m]] == o for m, o in zip(ctx, outcome)) for atom in atoms] for ctx, outcome in events],
        dtype=float,
    ).reshape(len(events), len(atoms))


def parity_assignment_exists(k, lines, signs):
    """Whether +-1 values on k operators give every line the product of its
    sign, by trying all 2^k assignments (k <= 16).  An operator listed twice
    in a line counts twice."""
    if k > 16:
        raise ValueError("brute-force assignment search capped at 16 operators")
    for mask in range(1 << k):
        if all(sum(mask >> i & 1 for i in line) % 2 == (sign == -1) for line, sign in zip(lines, signs)):
            return True
    return False


def chain_points_reference(cliques, n, rng):
    """Criterion 13's 100 points on a graph with these maximal cliques and
    n vertices, one point at a time: positive weights scaled so the
    heaviest clique sums to between 0.2 and 1.3."""
    points = []
    for _ in range(100):
        w = rng.uniform(0.05, 1.0, size=n)
        clique_max = max(w[list(q)].sum() for q in cliques)
        points.append(w * rng.uniform(0.2, 1.3) / clique_max)
    return points


def stab_certificate_holds(n, edges, p, verdict, atol):
    """Whether a stab_membership verdict is a certificate for p: inside, the
    listed sets are independent, their weights are positive with a sum of at
    most 1 and rebuild p within atol; outside, a.p - beta is the margin and
    is positive, and a.chi <= beta + 1e-9 on every independent set (the
    heaviest one by subset enumeration, n <= 20)."""
    inside, cert = verdict
    if inside:
        rebuilt = np.zeros(n)
        for members, w in cert["weights"].items():
            if w <= 0 or any(j in members for i, j in edges if i in members):
                return False
            rebuilt[list(members)] += w
        return sum(cert["weights"].values()) <= 1 + atol and np.allclose(rebuilt, p, rtol=0, atol=atol)
    a, beta, margin = cert["a"], cert["beta"], cert["margin"]
    heaviest, _ = brute_independence(n, edges, a)
    return margin > 0 and math.isclose(sum(x * y for x, y in zip(a, p)) - beta, margin, abs_tol=1e-12) \
        and heaviest <= beta + 1e-9


def local_certificate_holds(box, verdict, atol):
    """Whether an is_local verdict is a certificate for box: inside, the
    listed strategies (one outcome per party and setting) with positive
    weights summing to at most 1 rebuild the table within atol; outside, the
    functional's value on the box is its margin and positive, and it is at
    most 1e-9 on every deterministic strategy, each table built by plain
    loops."""
    settings, outcomes = box.scenario.settings, box.scenario.outcomes

    def table_of(strategy):
        table = np.zeros(box.table.shape)
        for x in itertools.product(*(range(m) for m in settings)):
            table[x + tuple(s[xi] for s, xi in zip(strategy, x))] = 1.0
        return table

    inside, cert = verdict
    if inside:
        weights = cert["weights"]
        rebuilt = sum(w * table_of(s) for s, w in weights.items())
        return min(weights.values()) > 0 and sum(weights.values()) <= 1 + atol \
            and np.allclose(rebuilt, box.table, rtol=0, atol=atol)

    def value(table):
        total = cert["constant"]
        for xk, inner in cert["coefficients"].items():
            for ak, coef in inner.items():
                total += coef * table[tuple(int(t) for t in f"{xk},{ak}".split(","))]
        return total

    strategies = itertools.product(*(itertools.product(range(o), repeat=m) for m, o in zip(settings, outcomes)))
    return cert["margin"] > 0 and math.isclose(value(box.table), cert["margin"], abs_tol=1e-12) \
        and max(value(table_of(s)) for s in strategies) <= 1e-9
