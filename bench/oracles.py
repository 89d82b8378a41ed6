"""Reference checks that do not use the exgraph package.

Everything here works on plain numpy boolean adjacency matrices that the
benchmark builds itself, so a defect in the code under test cannot also hide
in its own oracle.  The checks are closed forms, the sandwich
alpha <= theta <= alpha*, the chain STAB => TH => QSTAB, and replay of every
membership certificate against all independent sets or all deterministic
strategies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

THETA_TOL = 2e-6  # the solver certifies an interval of width 5e-7
SANDWICH_TOL = 1e-6
REPLAY_TOL = 1e-5  # certificates drop coefficients below 1e-9 / 1e-7


# -- graphs -----------------------------------------------------------------


def cycle_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = True
    adj[(idx + 1) % n, idx] = True
    return adj


def prism_adjacency(k: int) -> np.ndarray:
    """Two k-cycles joined by a perfect matching."""
    adj = np.zeros((2 * k, 2 * k), dtype=bool)
    adj[:k, :k] = cycle_adjacency(k)
    adj[k:, k:] = cycle_adjacency(k)
    adj[np.arange(k), np.arange(k) + k] = True
    adj[np.arange(k) + k, np.arange(k)] = True
    return adj


def moebius_adjacency(m: int) -> np.ndarray:
    """m-cycle plus its long diagonals."""
    adj = cycle_adjacency(m)
    idx = np.arange(m)
    adj[idx, (idx + m // 2) % m] = True
    return adj | adj.T


def random_adjacency(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    keep = rng.random(iu[0].size) < p
    adj[iu[0][keep], iu[1][keep]] = True
    return adj | adj.T


def relabel(adj: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Vertex i becomes perm[i]."""
    out = np.zeros_like(adj)
    out[np.ix_(perm, perm)] = adj
    return out


def conormal_adjacency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(u1,v1) ~ (u2,v2) iff u1 ~ u2 or v1 ~ v2; vertex (u, v) is u*|b| + v."""
    ones_a = np.ones_like(a)
    ones_b = np.ones_like(b)
    adj = np.kron(a, ones_b) | np.kron(ones_a, b)
    np.fill_diagonal(adj, False)
    return adj


def partial_twinning_adjacency(base: np.ndarray, kept) -> np.ndarray:
    """Two copies of base plus the cross edges (u in copy 0, v in copy 1)."""
    n = base.shape[0]
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, :n] = base
    adj[n:, n:] = base
    for u, v in kept:
        adj[u, n + v] = adj[n + v, u] = True
    return adj


def edge_list(adj: np.ndarray) -> list[tuple[int, int]]:
    i, j = np.nonzero(np.triu(adj, 1))
    return list(zip(i.tolist(), j.tolist()))


def _rows(adj: np.ndarray) -> list[int]:
    return [int(sum(1 << int(j) for j in np.nonzero(adj[i])[0])) for i in range(adj.shape[0])]


def independence_number(adj: np.ndarray) -> int:
    """Exact alpha: branch on the closed neighbourhood of a minimum-degree
    vertex (some vertex of it lies in a maximum independent set)."""
    rows = _rows(adj)
    best = 0

    def search(cand: int, size: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        v = min((u for u in range(len(rows)) if cand >> u & 1), key=lambda u: (rows[u] & cand).bit_count())
        for u in [v] + [w for w in range(len(rows)) if (rows[v] & cand) >> w & 1]:
            search(cand & ~rows[u] & ~(1 << u), size + 1)

    search((1 << len(rows)) - 1, 0)
    return best


def clique_number(adj: np.ndarray) -> int:
    comp = ~adj
    np.fill_diagonal(comp, False)
    return independence_number(comp)


def independent_sets(adj: np.ndarray) -> np.ndarray:
    """Indicator matrix (one row per independent set, the empty set included)."""
    n = adj.shape[0]
    sets = [np.zeros(n, dtype=bool)]
    for v in range(n):
        sets += [s | (np.arange(n) == v) for s in sets if not (s & adj[v]).any()]
    return np.array(sets, dtype=float)


def cliques(adj: np.ndarray) -> list[list[int]]:
    """Every nonempty clique (the graphs here are sparse)."""
    n = adj.shape[0]
    out = []

    def grow(clique: list[int], cand: list[int]) -> None:
        for k, v in enumerate(cand):
            nxt = clique + [v]
            out.append(nxt)
            grow(nxt, [u for u in cand[k + 1 :] if adj[v, u]])

    grow([], list(range(n)))
    return out


def is_independent(adj: np.ndarray, vertices) -> bool:
    vs = list(vertices)
    return len(set(vs)) == len(vs) and not adj[np.ix_(vs, vs)].any()


# -- closed forms -----------------------------------------------------------


def cycle_values(n: int) -> tuple[int, float, float]:
    """(alpha, theta, alpha*) of the n-cycle; C3 is the triangle."""
    if n == 3:
        return 1, 1.0, 1.0
    if n % 2:
        c = math.cos(math.pi / n)
        return (n - 1) // 2, n * c / (1 + c), n / 2
    return n // 2, n / 2, n / 2


# -- bound reports ----------------------------------------------------------


def check_report(adj: np.ndarray, rep, alpha=None, theta=None, alpha_star=None) -> str | None:
    """Witness replay, the sandwich, and any closed forms that are known."""
    if alpha is None:
        alpha = independence_number(adj)
    wit = list(rep.witness_independent_set)
    if len(wit) != rep.alpha or not is_independent(adj, wit):
        return f"witness {wit} is not an independent set of size {rep.alpha}"
    if rep.alpha != alpha:
        return f"alpha {rep.alpha} != {alpha}"
    if not (rep.alpha <= rep.theta + SANDWICH_TOL and rep.theta <= rep.alpha_star + SANDWICH_TOL):
        return f"sandwich broken: {rep.alpha} {rep.theta!r} {rep.alpha_star!r}"
    if theta is not None and abs(rep.theta - theta) > THETA_TOL:
        return f"theta {rep.theta!r} != {theta!r}"
    if alpha_star is not None and abs(rep.alpha_star - alpha_star) > 1e-7:
        return f"alpha* {rep.alpha_star!r} != {alpha_star!r}"
    return None


# -- polytope membership ----------------------------------------------------


def max_clique_weight(adj: np.ndarray, w: np.ndarray) -> float:
    return max(float(w[q].sum()) for q in cliques(adj))


def check_membership(adj: np.ndarray, p: np.ndarray, stab, th, qstab) -> str | None:
    """Replay the stab certificate, check the qstab verdict and certificate,
    bound theta from below by the heaviest clique, and check the chain."""
    in_stab, cert = stab
    in_th, theta = th
    in_qstab, qcert = qstab
    chi = independent_sets(adj)
    if in_stab:
        weights = cert["weights"]
        mix = np.zeros_like(p)
        for vs, coef in weights.items():
            if coef < -1e-9 or not is_independent(adj, vs):
                return f"stab weight {coef!r} on non-independent or negative set {vs}"
            mix[list(vs)] += coef
        if abs(sum(weights.values()) - 1.0) > REPLAY_TOL or np.max(np.abs(mix - p)) > REPLAY_TOL:
            return "stab weights do not reproduce the point"
    else:
        a = np.asarray(cert["a"])
        top = max(float(np.max(chi @ a)), cert["beta"])
        if top > cert["beta"] + 1e-7 or float(a @ p) - top <= 0:
            return f"stab separation fails: max on sets {top!r}, beta {cert['beta']!r}, at p {float(a @ p)!r}"
    heaviest = max_clique_weight(adj, p)
    want_q = bool(p.min() >= -1e-9 and heaviest <= 1 + 1e-9)
    if abs(heaviest - 1) > 1e-7 and in_qstab != want_q:
        return f"qstab verdict {in_qstab} but heaviest clique weighs {heaviest!r}"
    if not in_qstab and qcert and qcert.get("kind") == "clique":
        q = qcert["clique"]
        if adj[np.ix_(q, q)].sum() != len(q) * (len(q) - 1) or float(p[q].sum()) <= 1:
            return f"qstab certificate {q} is not a violated clique"
    if theta is not None and theta < heaviest - SANDWICH_TOL:
        return f"theta of the complement {theta!r} below the heaviest clique {heaviest!r}"
    if in_stab and not in_th:
        return "point in STAB but not in TH"
    if in_th and not in_qstab:
        return "point in TH but not in QSTAB"
    return None


# -- Bell boxes -------------------------------------------------------------


def deterministic_table(settings, outcomes, strategy) -> np.ndarray:
    table = np.zeros(tuple(settings) + tuple(outcomes))
    for x in itertools.product(*(range(m) for m in settings)):
        table[x + tuple(strategy[i][x[i]] for i in range(len(settings)))] = 1.0
    return table


def all_strategies(settings, outcomes):
    per_party = [list(itertools.product(range(o), repeat=m)) for m, o in zip(settings, outcomes)]
    return list(itertools.product(*per_party))


def pr_table(settings, d: int) -> np.ndarray:
    """Two-party correlation b - a = x*y mod d, uniform marginals."""
    table = np.zeros(tuple(settings) + (d, d))
    for x, y in itertools.product(range(settings[0]), range(settings[1])):
        for a in range(d):
            table[x, y, a, (a + x * y) % d] = 1.0 / d
    return table


def check_locality(settings, outcomes, table: np.ndarray, verdict, expect_local: bool | None) -> str | None:
    """Replay a local decomposition, or a Farkas functional against every
    deterministic strategy."""
    local, cert = verdict
    if expect_local is not None and local != expect_local:
        return f"is_local said {local}, the construction says {expect_local}"
    if local:
        mix = np.zeros_like(table)
        for strat, w in cert["weights"].items():
            if w < -1e-9:
                return f"negative weight {w!r}"
            mix += w * deterministic_table(settings, outcomes, strat)
        if abs(sum(cert["weights"].values()) - 1) > REPLAY_TOL or np.max(np.abs(mix - table)) > REPLAY_TOL:
            return "local weights do not reproduce the box"
        return None
    func = np.zeros_like(table)
    for xk, inner in cert["coefficients"].items():
        x = tuple(int(t) for t in xk.split(","))
        for ak, y in inner.items():
            func[x + tuple(int(t) for t in ak.split(","))] = y
    const = cert["constant"]
    worst = max(float(np.sum(func * deterministic_table(settings, outcomes, s))) + const
                for s in all_strategies(settings, outcomes))
    at_box = float(np.sum(func * table)) + const
    if worst > REPLAY_TOL or at_box - max(worst, 0.0) <= 1e-9:
        return f"Farkas functional fails: {worst!r} on strategies, {at_box!r} on the box"
    return None
