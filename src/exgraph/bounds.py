"""Independence-type bounds on a graph and membership tests for the three
nested polytopes those bounds optimize over.

For a graph G the chain is

    alpha(G)  <=  theta(G)  <=  alpha*(G)

with alpha the exact independence number (branch and bound), theta the
semidefinite relaxation, and alpha* the fractional packing value over the
maximal-clique inequalities.  Unweighted theta of a graph that is a Cayley
graph of an abelian group Z_a x Z_b in its own labelling (circulants,
prisms, conormal products of circulants) is a linear program over the
group's characters; every other theta program is an SDP.  The matching
polytopes STAB <= TH <= QSTAB are tested pointwise with certificates where
a certificate is cheap to produce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import Graph, _bits, _cayley_group, _reals, _tolerance, circulant_graph, complement
from .numkernel import LinearProgram, lp_solve, lp_solve_many, replays, sdp_solve, sdp_solve_many

# largest column count of a hull LP; both hull LPs have one row per
# coordinate, so the cap bounds column enumeration and pivot work
_HULL_MAX_COLUMNS = 8192
# most maximal cliques listed (alpha* of a graph that is not an abelian
# Cayley graph, QSTAB); the 64-vertex cocktail-party graph has 2^32,
# G(64, 0.8) about 117,000
_MAX_CLIQUES = 1 << 17
# worst residual a hull answer may show when replayed in floating point
_REPLAY_TOL = 1e-9
# distinct (graph, weights, tol) programs memoized; the acceptance battery
# alone solves about 570
_THETA_CACHE_SIZE = 2048
# width of the certified interval of every theta solve unless a caller asks
# for another
_THETA_TOL = 5e-7


def _color_order(rows: tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """Greedy proper coloring of the subgraph induced on bitset p.

    Returns (vertex, color) pairs in nondecreasing color order; a clique
    inside the first k listed vertices has size at most the k-th color.
    """
    order: list[tuple[int, int]] = []
    color = 0
    rest = p
    while rest:
        color += 1
        q = rest
        while q:
            v = (q & -q).bit_length() - 1
            order.append((v, color))
            rest ^= 1 << v
            q &= ~rows[v]
            q ^= 1 << v
    return order


def _max_clique(rows: tuple[int, ...], within: int) -> tuple[int, int]:
    """Maximum clique (size, bitmask) among the vertices of bitset within,
    via branch and bound with a coloring bound (Tomita-style)."""
    best_size = 0
    best_mask = 0

    def expand(rmask: int, rsize: int, p: int) -> None:
        nonlocal best_size, best_mask
        for v, color in reversed(_color_order(rows, p)):
            if rsize + color <= best_size:
                return
            if rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = rmask | (1 << v)
            newp = p & rows[v]
            if newp:
                expand(rmask | (1 << v), rsize + 1, newp)
            p ^= 1 << v

    expand(0, 0, within)
    return best_size, best_mask


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number and one maximum independent set."""
    size, mask = _max_clique(complement(g).rows, (1 << g.n) - 1)
    return size, tuple(i for i in range(g.n) if mask >> i & 1)


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted.  Raises
    ValueError as soon as more than _MAX_CLIQUES are found."""
    rows = g.rows
    found: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            if len(found) > _MAX_CLIQUES:
                raise ValueError(f"more than {_MAX_CLIQUES} maximal cliques to enumerate")
            return
        pivot = max(_bits(p | x), key=lambda v: (p & rows[v]).bit_count())
        for v in _bits(p & ~rows[pivot]):
            bk(r | (1 << v), p & rows[v], x & rows[v])
            p ^= 1 << v
            x |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    return sorted(tuple(_bits(m)) for m in found)


def fractional_packing(g: Graph) -> float:
    """alpha*(G): maximize sum(x) subject to x(Q) <= 1 over maximal cliques Q
    and x >= 0.

    On a Cayley graph of Z_a x Z_b in its own labelling (circulants, prisms,
    conormal products of circulants; see _cayley_group) no clique is listed:
    alpha* = n/omega comes from the translates of one maximum clique (see
    _packing_by_translates).

    Every other graph lists its maximal cliques.  The packing LP has one row
    per maximal clique, so it is solved on its short side: the minimum
    fractional clique cover, min sum(y) subject to sum of y_Q over the
    cliques Q containing v >= 1 for every vertex v and y >= 0, with one row
    per vertex.  Every vertex lies in a maximal clique, so the packing needs
    no x <= 1 bounds.

    When every vertex lies in the same number r of maximum cliques (size
    omega), as on every vertex-transitive graph, no LP is solved: x = 1/omega
    on every vertex and y = 1/r on the k maximum cliques are feasible, and
    both have value n/omega = k/r, so weak duality makes them optimal.
    Otherwise the packing x is read off the cover LP's duals.  Either pair is
    replayed in floating point before the value is returned; a failed replay
    raises RuntimeError.
    """
    group = _cayley_group(g.n, g.rows)
    if group is not None:
        return _packing_by_translates(g.n, g.rows, *group)
    cliques = maximal_cliques(g)
    n = g.n
    # incidence a[v, col] = 1 for every vertex v of clique col, in one scatter
    sizes = np.fromiter(map(len, cliques), dtype=np.intp, count=len(cliques))
    members = np.fromiter(itertools.chain.from_iterable(cliques), dtype=np.intp, count=int(sizes.sum()))
    a = np.zeros((n, len(cliques)))
    a[members, np.repeat(np.arange(len(cliques)), sizes)] = 1.0
    cover = LinearProgram(c=np.ones(len(cliques)), a=a, senses=(">=",) * n, b=np.ones(n))
    top = sizes == sizes.max()
    per_vertex = a[:, top].sum(axis=1)
    if per_vertex.min() == per_vertex.max():
        omega = int(sizes.max())
        y, x, value = top / per_vertex[0], np.full(n, 1.0 / omega), n / omega
    else:
        res = lp_solve(cover)
        if res.status != "optimal":
            raise RuntimeError(f"clique-cover LP ended {res.status}")
        y, x, value = res.x, res.y, float(res.value)
    if not replays(cover, y, x, _REPLAY_TOL):
        raise RuntimeError("packing and clique cover fail their floating-point replay")
    return value


def _packing_by_translates(n: int, rows: tuple[int, ...], a: int, b: int) -> float:
    """alpha* = n/omega of a Cayley graph of Z_a x Z_b (labelled as in
    _cayley_group) from the n translates of one maximum clique.

    The group acts transitively by automorphisms, so vertex 0 lies in a
    maximum clique Q, found by branch and bound on its neighbourhood.  The
    packing x = 1/omega on every vertex meets every clique inequality, since
    no clique is larger than omega.  Every translate Q + t is a clique, and
    every vertex lies in exactly omega of them, so y = 1/omega on each
    translate is a clique cover.  Both have value n/omega, so weak duality
    makes them optimal.  Q is checked to be a clique and the coverage is
    counted exactly before the value is returned; a failure raises
    RuntimeError.
    """
    size, mask = _max_clique(rows, rows[0])
    omega, q = size + 1, mask | 1
    if any(q & ~rows[v] & ~(1 << v) for v in _bits(q)):
        raise RuntimeError("the maximum clique through vertex 0 is not a clique")
    members = np.fromiter(_bits(q), dtype=np.intp)
    # row t is Q + t, element u*b + v being (u, v)
    t = np.arange(n)[:, None]
    translates = ((members // b + t // b) % a) * b + (members + t) % b
    if np.any(np.bincount(translates.ravel(), minlength=n) != omega):
        raise RuntimeError("the translates of the maximum clique do not cover every vertex omega times")
    return n / omega


def _edge_arrays(n: int, rows: tuple[int, ...]) -> np.ndarray:
    pairs = [(i, j) for i in range(n) for j in _bits(rows[i]) if j > i]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def _theta_sdp(n: int, rows: tuple[int, ...], w: np.ndarray, tol: float):
    return sdp_solve(np.sqrt(np.outer(w, w)), _edge_arrays(n, rows), tol=tol)


def _theta_characters(n: int, rows: tuple[int, ...], a: int, b: int) -> float:
    """theta of a Cayley graph of Z_a x Z_b (labelled as in _cayley_group)
    by linear programming over its characters.

    Averaging an optimal theta matrix over the group keeps it optimal
    (de Klerk, Pasechnik and Schrijver, Math. Prog. 2007), so X_gh = x(h - g)
    with x(0) = 1/n, x = 0 on the neighbours of 0 and x(g) = x(-g).  There
    is one variable per orbit {g, -g} of the non-neighbours of 0, and X is
    PSD iff every character sum 1/n + coef @ x is nonnegative; a character
    and its conjugate give the same row.  theta = 1 + n mult.x, with mult
    the orbit sizes.  The LP's primal and its row duals are replayed in
    floating point before the value is returned; a failed replay raises
    RuntimeError.
    """
    g = np.arange(n)
    g1, g2 = g // b, g % b
    neg = (-g1 % a) * b + (-g2 % b)
    free = np.array([i for i in _bits(~rows[0] & ((1 << n) - 1)) if 0 < i <= neg[i]], dtype=np.intp)
    if not free.size:
        return 1.0
    mult = np.where(neg[free] == free, 1.0, 2.0)
    chars = np.flatnonzero(g <= neg)
    # character k at element g is exp(2 pi i t / n), t = k1 g1 b + k2 g2 a
    t = (np.outer(g1[chars], g1[free]) * b + np.outer(g2[chars], g2[free]) * a) % n
    coef = mult * np.cos(2.0 * np.pi * t / n)
    # The rows make X PSD, so |x| <= X_00 = 1/n holds without bound rows.
    # In u = x + 1/n >= 0 the LP is min -n mult.u, coef @ u >= (coef.sum(1) - 1)/n.
    lp = LinearProgram(c=-n * mult, a=coef, senses=(">=",) * chars.size, b=(coef.sum(1) - 1.0) / n)
    res = lp_solve(lp)
    if res.status != "optimal":
        raise RuntimeError(f"character LP ended {res.status}")
    if not replays(lp, res.x, res.y, _REPLAY_TOL):
        raise RuntimeError("character LP primal and duals fail their floating-point replay")
    return 1.0 - float(res.value) - float(mult.sum())


@lru_cache(maxsize=_THETA_CACHE_SIZE)
def _theta_cached(n: int, rows: tuple[int, ...], wkey: tuple[float, ...] | None, tol: float) -> float:
    if wkey is None:
        group = _cayley_group(n, rows)
        if group is not None:
            return _theta_characters(n, rows, *group)
    w = np.ones(n) if wkey is None else np.asarray(wkey, dtype=float)
    return _theta_sdp(n, rows, w, tol).value


def lovasz_theta(g: Graph, weights=None, tol: float = _THETA_TOL) -> float:
    """Semidefinite bound theta(G), optionally vertex-weighted.

    Unweighted theta of a Cayley graph of Z_a x Z_b in its own labelling
    (circulants, prisms, conormal products of circulants; see _cayley_group)
    is the optimum of a character LP, exact up to roundoff.  Every other
    program goes to the SDP solver, which certifies a two-sided interval of
    width tol; the midpoint is returned, so the absolute error is at most
    tol/2.  Results are memoized.
    """
    tol = _tolerance(tol, "tol")
    wkey = None if weights is None else tuple(_reals(weights, "weights", (g.n,), lo=0).tolist())
    return _theta_cached(g.n, g.rows, wkey, tol)


def lovasz_theta_matrix(g: Graph, weights=None, tol: float = _THETA_TOL):
    """Like lovasz_theta but also returns the best feasible primal matrix,
    from which optimizing vertex assignments can be extracted.  It always
    solves the SDP, Cayley graphs included, so its value is the semidefinite
    route's even where lovasz_theta takes the character LP."""
    tol = _tolerance(tol, "tol")
    w = np.ones(g.n) if weights is None else _reals(weights, "weights", (g.n,), lo=0)
    res = _theta_sdp(g.n, g.rows, w, tol)
    return res.value, res.x


def theta_circulant_oracle(n: int, offsets) -> float:
    """theta of a circulant graph by its character LP (_theta_characters on
    Z_n), independent of the semidefinite route."""
    return _theta_characters(n, circulant_graph(n, offsets).rows, n, 1)


def assignment_hull(sizes, contexts) -> np.ndarray:
    """The deterministic hull of a scenario whose measurement i has sizes[i]
    outcomes and whose contexts are tuples of measurement indices, as a 0/1
    matrix.  One row per event (a context and one outcome per member):
    contexts in order, outcome tuples in C order within each.  One column per
    global assignment (one outcome per measurement), in C order.  An entry is
    1 when the assignment gives the event's outcomes to its context."""
    ncols = math.prod(sizes)
    if ncols > _HULL_MAX_COLUMNS:
        raise ValueError(f"{ncols} deterministic assignments exceed the supported limit of {_HULL_MAX_COLUMNS}")
    outcomes = np.indices(sizes).reshape(len(sizes), ncols)
    counts = [math.prod(sizes[m] for m in ctx) for ctx in contexts]
    hull = np.zeros((sum(counts), ncols))
    for ctx, first in zip(contexts, itertools.accumulate([0] + counts)):
        # each column's event in this context: its outcomes there, raveled
        event = np.zeros(ncols, dtype=np.intp)
        for m in ctx:
            event = event * sizes[m] + outcomes[m]
        hull[first + event, np.arange(ncols)] = 1.0
    return hull


def assignment_membership(sizes, contexts, tables, tol) -> tuple[bool, list | tuple]:
    """Is there a distribution over global assignments that gives context k
    the table tables[k] (one axis per member, or its ravel) for every k?  The
    one place that knows the rows and columns of assignment_hull.  Returns
    (True, [(assignment, weight)]), one outcome index per measurement, or
    (False, ([(k, outcome indices, coefficient)], constant, margin)), a
    functional nonpositive on every assignment and margin > 0 on the tables.
    Weights and coefficients within tol of 0 are left out."""
    point = np.concatenate([np.zeros(0), *map(np.ravel, tables)])
    inside, y, margin = hull_membership(assignment_hull(sizes, contexts), point)
    if inside:
        cols = np.flatnonzero(y > tol)
        assignments = np.transpose(np.unravel_index(cols, sizes)).tolist()
        return True, [(tuple(a), float(y[col])) for col, a in zip(cols, assignments)]
    events = ((k, idx) for k, ctx in enumerate(contexts) for idx in np.ndindex(*(sizes[m] for m in ctx)))
    coeffs = [(k, idx, float(c)) for (k, idx), c in zip(events, y[:-1]) if abs(c) > tol]
    return False, (coeffs, float(y[-1]), margin)


def hull_membership(vertices, point) -> tuple[bool, np.ndarray, float | None]:
    """Is point a convex combination of the columns of vertices (d x k)?
    The one-point case of hull_membership_many."""
    return hull_membership_many(vertices, [point])[0]


def hull_membership_many(vertices, points) -> list[tuple[bool, np.ndarray, float | None]]:
    """hull_membership for each row of points (B x d): hull LPs on each
    point's support, then one stack of Farkas LPs for the points outside.

    Each verdict is (True, x, None) with x >= 0, sum(x) = 1 and
    vertices @ x = point, or (False, y, margin) with y = (a, c) a Farkas
    functional: a.v + c <= 0 on every column v while a.point + c = margin,
    normalised by a in [-1, 1]^d and c in [-d, 1].

    A row of vertices with no negative entry at which a point is exactly 0
    forces zero weight on every column that is positive in that row (a
    forcing constraint in LP presolve), so those columns and rows leave the
    point's hull LP.  Points are grouped by the rows they remove, one
    lp_solve_many stack per group; a point without such a zero solves the
    full LP.  A point with a nonzero coordinate (or the weight sum) whose
    row has no column left is outside without a pivot.  The weights are put
    back to full length with zeros and replayed against the full LP (see
    numkernel.replays).

    Every point without weights that replay goes to the Farkas LP, which
    runs over every column, so each functional is valid on all of them.  A
    functional counts once it replays and its margin exceeds _REPLAY_TOL,
    the precision it was replayed at; otherwise RuntimeError is raised.
    """
    vertices = _reals(vertices, "hull vertices", (None, None))
    d, k = vertices.shape
    if k > _HULL_MAX_COLUMNS:
        raise ValueError(f"{k} hull vertices exceed the supported limit of {_HULL_MAX_COLUMNS}")
    points = _reals(points, "points", (None, d))
    rhs = np.hstack([points, np.ones((len(points), 1))])
    ext = np.vstack([vertices, np.ones(k)])
    senses = ("=",) * (d + 1)
    # each point's zero coordinates that force columns out of its LP
    forcing = (points == 0) & np.all(vertices >= 0, axis=1)
    groups: dict[bytes, list[int]] = {}
    for i, zero in enumerate(forcing):
        groups.setdefault(zero.tobytes(), []).append(i)
    found = []
    for members in groups.values():
        zero = forcing[members[0]]
        rows, cols = np.append(~zero, True), ~vertices[zero].any(axis=0)
        a, b = ext[np.ix_(rows, cols)], rhs[np.ix_(members, rows)]
        # a row left without a column can only hold a zero coordinate
        reached = np.all(b[:, ~a.any(axis=1)] == 0, axis=1)
        if not reached.any():
            continue
        reduced = LinearProgram(c=np.zeros(a.shape[1]), a=a, senses=senses[: a.shape[0]], b=b[reached])
        for i, res in zip(np.asarray(members)[reached].tolist(), lp_solve_many(reduced)):
            if res.status == "optimal":
                x, y = np.zeros(k), np.zeros(d + 1)
                x[cols], y[rows] = res.x, res.y
                found.append((i, x, y))
    verdicts: list = [None] * len(points)
    if found:
        held, weights, duals = zip(*found)
        full = LinearProgram(c=np.zeros(k), a=ext, senses=senses, b=rhs[list(held)])
        for i, x, ok in zip(held, weights, replays(full, weights, duals, _REPLAY_TOL)):
            if ok:
                verdicts[i] = (True, x, None)
    outside = [i for i, v in enumerate(verdicts) if v is None]
    if outside:
        # The Farkas LP, max y.[p; 1] subject to y.[v; 1] <= 0 on every
        # column with y in [L, U], has one row per column.  Solve its dual
        # instead: min U.mu+ - L.mu- subject to [V; 1] lam + mu+ - mu- =
        # [p; 1], with d + 1 rows.  Its value is the margin and its duals are
        # the functional; the replay's A^T y <= c is both the validity on
        # every column and the normalisation box.
        upper = np.ones(d + 1)
        lower = np.append(np.full(d, -1.0), -float(d))
        eye = np.eye(d + 1)
        farkas = LinearProgram(
            c=np.concatenate([np.zeros(k), upper, -lower]), a=np.hstack([ext, eye, -eye]),
            senses=senses, b=rhs[outside],
        )
        solved = lp_solve_many(farkas)
        if any(res.status != "optimal" for res in solved) or not replays(
            farkas, [res.x for res in solved], [res.y for res in solved], _REPLAY_TOL
        ).all():
            raise RuntimeError("point outside the hull without a valid Farkas functional")
        for i, b, res in zip(outside, farkas.b, solved):
            margin = float(b @ res.y)
            if margin <= _REPLAY_TOL:
                raise RuntimeError("point outside the hull without a valid Farkas functional")
            verdicts[i] = (False, res.y, margin)
    return verdicts


def _independent_set_masks(g: Graph) -> list[int]:
    masks = [0]
    for v in range(g.n):
        bit = 1 << v
        masks += [m | bit for m in masks if not m & g.rows[v]]
        if len(masks) > _HULL_MAX_COLUMNS:
            raise ValueError(f"more than {_HULL_MAX_COLUMNS} independent sets to enumerate")
    return masks


def stab_membership(g: Graph, p, tol: float = 1e-9) -> tuple[bool, dict]:
    """Is p a convex combination of independent-set indicator vectors?

    Returns (True, {"weights": {set: coefficient}}) or (False, certificate)
    where the certificate is a linear functional a.x <= beta valid on every
    indicator but exceeded by p.  The one-row case of stab_membership_many.
    """
    return stab_membership_many(g, [p], tol)[0]


def stab_membership_many(g: Graph, points, tol: float = 1e-9) -> list[tuple[bool, dict]]:
    """stab_membership for each row of points: the independent sets are
    listed once, and the points go through hull_membership_many together.
    Weights above tol are listed; a functional coefficient within tol of 0
    is zeroed before the functional is replayed."""
    tol = _tolerance(tol, "tol")
    p = _reals(points, "coordinates", (None, g.n))
    masks = _independent_set_masks(g)
    bits = np.arange(g.n, dtype=np.uint64)[:, None]
    chi = (np.array(masks, dtype=np.uint64) >> bits & np.uint64(1)).astype(float)
    hull = hull_membership_many(chi, p)
    verdicts: list[tuple[bool, dict] | None] = [
        (True, {"weights": {tuple(_bits(masks[j])): float(w[j]) for j in np.flatnonzero(w > tol)}}) if inside else None
        for inside, w, _ in hull
    ]
    outside = [i for i, (inside, _, _) in enumerate(hull) if not inside]
    if outside:
        # each functional is read off a reduced-cost row, so a zero
        # coefficient can come back as roundoff; zero those, then replay the
        # snapped functionals on every independent set
        y = np.array([hull[i][1] for i in outside])
        y[:, : g.n][np.abs(y[:, : g.n]) <= tol] = 0.0
        margins = [float(np.append(p[i], 1.0) @ yi) for i, yi in zip(outside, y)]
        if min(margins) <= _REPLAY_TOL or np.max(y[:, : g.n] @ chi + y[:, g.n :]) > _REPLAY_TOL:
            raise RuntimeError("STAB separation fails its replay after zeroing roundoff")
        for i, yi, margin in zip(outside, y, margins):
            verdicts[i] = (False, {"a": [float(v) for v in yi[: g.n]], "beta": 0.0 - float(yi[g.n]), "margin": margin})
    return verdicts


def th_membership(g: Graph, p, tol: float = 1e-6) -> tuple[bool, float | None]:
    """Membership in the theta body of g: p >= 0 and the complement's
    weighted theta at p is at most 1.  Returns the theta value alongside;
    the one-row case of th_membership_many."""
    return th_membership_many(g, [p], tol)[0]


def th_membership_many(g: Graph, points, tol: float = 1e-6) -> list[tuple[bool, float | None]]:
    """th_membership for each row of points, every coordinate finite: a row
    with a coordinate below -tol is outside without a solve; the others are
    clipped at 0 and their weighted thetas of the complement are solved
    together, as one stack of programs on one graph."""
    tol = _tolerance(tol, "tol")
    p = _reals(points, "coordinates", (None, g.n))
    outside = p.min(axis=1) < -tol
    w = np.clip(p[~outside], 0.0, None)
    edges = _edge_arrays(g.n, complement(g).rows)
    solved = sdp_solve_many(np.sqrt(w[:, :, None] * w[:, None, :]), edges, tol=_THETA_TOL)
    thetas = iter(res.value for res in solved)
    verdicts: list[tuple[bool, float | None]] = []
    for out in outside:
        if out:
            verdicts.append((False, None))
        else:
            theta = next(thetas)
            verdicts.append((theta <= 1.0 + tol, theta))
    return verdicts


def qstab_membership(g: Graph, p, tol: float = 1e-9) -> tuple[bool, dict | None]:
    """Membership in the clique-constrained polytope of g: p >= 0 and
    p(Q) <= 1 for every maximal clique Q.  On failure the second element
    names the violated constraint.  The one-row case of
    qstab_membership_many."""
    return qstab_membership_many(g, [p], tol)[0]


def qstab_membership_many(g: Graph, points, tol: float = 1e-9) -> list[tuple[bool, dict | None]]:
    """qstab_membership for each row of points, with the maximal cliques
    listed once.  A row with a coordinate below -tol names its smallest
    coordinate; otherwise the first clique of greatest total above 1 + tol
    is named, its total summed vertex by vertex in clique order."""
    tol = _tolerance(tol, "tol")
    p = _reals(points, "coordinates", (None, g.n))
    cliques = maximal_cliques(g)
    # one column per clique, padded with a zero coordinate past the last vertex
    padded = np.hstack([p, np.zeros((len(p), 1))])
    members = np.full((len(cliques), max(map(len, cliques))), g.n)
    for q, clique in zip(members, cliques):
        q[: len(clique)] = clique
    totals = padded[:, members[:, 0]]
    for col in members.T[1:]:
        totals += padded[:, col]
    bad = p.argmin(axis=1)
    worst = totals.argmax(axis=1)
    top = totals[np.arange(len(p)), worst]
    verdicts: list[tuple[bool, dict | None]] = []
    for row, v, w, total in zip(p, bad.tolist(), worst.tolist(), top.tolist()):
        if row[v] < -tol:
            verdicts.append((False, {"kind": "negative", "vertex": v, "value": float(row[v])}))
        elif total > 1.0 + tol:
            verdicts.append((False, {"kind": "clique", "clique": list(cliques[w]), "total": total}))
        else:
            verdicts.append((True, None))
    return verdicts


@dataclass
class BoundsReport:
    alpha: int
    theta: float
    alpha_star: float
    ratio: float
    witness_independent_set: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "alpha_star": self.alpha_star,
            "ratio": self.ratio,
            "witness_independent_set": list(self.witness_independent_set),
        }


def bounds_report(g: Graph, tol: float = _THETA_TOL) -> BoundsReport:
    """alpha (exact, with a witness), theta and alpha* of g, and theta/alpha.

    alpha and alpha* are computed first.  Since alpha <= theta <= alpha*
    (Lovasz 1979), theta is pinned once alpha* - alpha <= tol/2, as on every
    perfect graph: theta is reported as alpha, within the same tol/2 that
    the certified midpoint of lovasz_theta carries, and no theta program is
    solved.  Otherwise theta is lovasz_theta(g, tol=tol).
    """
    tol = _tolerance(tol, "tol")
    alpha, witness = independence_number(g)
    alpha_star = fractional_packing(g)
    theta = float(alpha) if alpha_star - alpha <= tol / 2 else lovasz_theta(g, tol=tol)
    return BoundsReport(alpha, theta, alpha_star, theta / alpha, witness)
