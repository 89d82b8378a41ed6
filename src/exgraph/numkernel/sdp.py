"""Primal-dual interior-point solver for the theta program.

Problem form:  maximize <C, X>  over PSD X  subject to  tr X = 1  and
X_ij = 0 for every listed edge (i, j), i != j.  The dual is: minimize y_0
subject to S = y_0 I + sum_e y_e E_e - C PSD, where E_e has ones at (i, j)
and (j, i).

The solver steps a standard-form pair, max <c, X> s.t. A(X) = b, X PSD and
min b.y s.t. S = A*(y) - c PSD, on whichever of two sides of the theta
program has strictly fewer constraints (ties stay on the edge side):

- edge side, 1 + |E| constraints: X is the theta primal, c = C, and A is
  the trace and one entry pair per edge;
- non-edge side, (m - 1) + |E-bar| constraints, E-bar the non-edges: X is
  the theta dual slack Z, pinned to Z_ij = -C_ij on every non-edge and to
  equal Z_ii + C_ii for all i, and c = -I/m, so the objective is
  y_0 = (tr Z + tr C) / m up to a constant.  Its slack S = I/m + A*(y) is
  the theta primal: trace 1 and zero on the edges by construction.  Here b
  depends on C, so each program of a stack brings its own.

Dense graphs (conormal products, complements of sparse graphs) have many
more edges than non-edges, and the Schur complement has one row per
constraint.  Both sides start strictly feasible at the same point: theta
primal I/m, and y_0 = 1 + max_i sum_j |C_ij| with zero edge multipliers.
That y_0 exceeds Gershgorin's bound on the largest eigenvalue of C, so the
starting slacks y_0 I - C are positive definite, and the first duality gap
is about m rather than m^2 for unit weights (the start 1 + sum_ij |C_ij|
would give 1 + m^2).  Each iteration takes a Mehrotra predictor-corrector
step along the HKM direction (Helmberg-Rendl-Vanderbei-Wolkowicz), with
step lengths 0.95 of the distance to the PSD boundary.  The off-diagonal
constraints have disjoint supports, one pair of entries each, so the Schur
complement is assembled entrywise from X and S^-1.  Its Cholesky factorization is the
positive-definiteness check, and each of the two directions of an iteration
is then one linear solve against it.  The two sides take different paths
(HKM is not symmetric in X and S), so their iteration counts can differ.

A program's certified gap is its duality gap <X, S> widened by the
projection and any PSD correction below (up to roundoff), so no program can
finish before <X, S> <= tol.  The solver therefore certifies the stack only
after a step that leaves some program there, reading the same sum <X, S>
that the next step's mu is made from.  A certify call extracts a theta
pair, whichever side is stepped: the primal candidate (X on the edge side,
S on the other) is projected onto the affine constraints (zero the edge
entries, shift the diagonal by (1 - tr)/m), and the dual candidate (S on
the edge side; on the other, Z with y_0 = (tr Z + tr C) / m, projected
onto the dual's affine set).  Both are then checked in this order:

1. One stacked Cholesky factorization of each candidate minus Rump's shift
   (Rump, BIT Numer. Math. 2006; a multiple of the unit roundoff times the
   trace, plus an underflow term).  If it runs to completion, every
   candidate is proved positive definite and is certified as it is.
2. Otherwise eigvalsh gives each candidate's smallest eigenvalue: the
   primal is mixed toward I/m until PSD, and the dual has y_0 raised by
   the eigenvalue's negative part, at that cost on the bound.

The returned interval [lower, upper] therefore brackets the true optimum
regardless of how far the iteration itself has converged, and
`SdpResult.x` is the certified theta primal.  The objective <C, X> of the
certified primal is still rounded in floating point.

`sdp_solve_many` runs a stack of programs that share one edge list (one
graph, many weight vectors) in lockstep, so that every factorization or
eigenvalue problem of a given size is one stacked numpy.linalg call for the
whole stack.  Each program keeps its own mu, sigma, step lengths and
certified pair, so its iterates are those of a solve on its own; it leaves
the stack with the lower bound, upper bound and primal of the certify call
that proved its gap at most tol, one iterate's pair.  `sdp_solve` is the
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.95
_SCHUR_SHIFT = 1e-14
_UNIT_ROUNDOFF = 2.0**-53
_UNDERFLOW = 2.0**-1074


class SdpError(RuntimeError):
    """Iteration cap or numerical breakdown; carries the certified bounds of
    the last iterate."""

    def __init__(self, message: str, lower: float | None = None, upper: float | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


@dataclass
class SdpResult:
    lower: float
    upper: float
    x: np.ndarray
    iterations: int

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _max_steps(li: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Step lengths toward the stacked directions d from the PD points
    P = L L^T, given li = L^-1: a fraction of the distance to the PSD
    boundary, capped at 1."""
    lam = np.linalg.eigvalsh(li @ d @ li.swapaxes(-1, -2))[..., 0]
    return -_STEP_FRACTION / np.minimum(lam, -_STEP_FRACTION)


def _rump_shift(a: np.ndarray) -> np.ndarray:
    """Shifts c, one per stacked symmetric matrix A of size m, such that a
    floating-point Cholesky factorization of A - cI that runs to completion
    proves A positive definite (Rump, BIT Numer. Math. 2006): c >= g/(1 - 2g)
    tr A + 4 eta (2(m + 1) + max A_ii), g = gamma_{m+1}, with tr A in place
    of max A_ii (a negative diagonal entry fails the factorization anyway).
    The factor 2 covers the rounding of c itself and of A - cI, which numpy
    rounds to nearest rather than upward."""
    m = a.shape[-1]
    g = (m + 1) * _UNIT_ROUNDOFF / (1.0 - (m + 1) * _UNIT_ROUNDOFF)
    tr = a.trace(axis1=-2, axis2=-1)
    return 2.0 * (g / (1.0 - 2.0 * g) * tr + 4.0 * _UNDERFLOW * (2 * (m + 1) + tr))


def _proved_pd(a: np.ndarray) -> bool:
    """True when one floating-point Cholesky factorization of the stack
    a - cI, c the Rump shift of each matrix, runs to completion, which proves
    every matrix of the stack positive definite."""
    try:
        np.linalg.cholesky(a - _rump_shift(a)[..., None, None] * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def sdp_solve(c: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 100) -> SdpResult:
    """Solve max <c, X> s.t. tr X = 1, X_ij = 0 on edges, X PSD.

    `edges` is a pair of index arrays (i, j).  Returns once the certified gap
    drops below tol; raises SdpError at the iteration cap or on a numerical
    breakdown, with the certified bounds of the last iterate attached.
    """
    cost = np.asarray(c, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    return sdp_solve_many(cost[None], edges, tol, max_iter)[0]


def sdp_solve_many(costs: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 100) -> list[SdpResult]:
    """sdp_solve for each cost matrix of a (B, m, m) stack, on one edge list.

    Returns one SdpResult per program, in order.  If any program reaches the
    iteration cap or a factorization breaks down, raises SdpError with the
    certified bounds of an unfinished program's last iterate.
    """
    cost, edge = _prepare(costs, edges)
    m = edge.shape[0]
    n_edges = int(np.count_nonzero(np.triu(edge)))
    non_edges = m * (m - 1) // 2 - n_edges
    return _solve(cost, edge, m - 1 + non_edges < 1 + n_edges, tol, max_iter)


def _prepare(costs: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Validated, symmetrized cost stack and the boolean adjacency matrix."""
    cost = np.asarray(costs, dtype=float)
    if cost.ndim != 3 or cost.shape[1] != cost.shape[2]:
        raise ValueError("costs must be a stack of square matrices")
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")
    m = cost.shape[1]
    ii, jj = (np.asarray(a, dtype=np.intp) for a in edges)
    if ii.shape != jj.shape or np.any(ii == jj) or np.any((ii < 0) | (ii >= m) | (jj < 0) | (jj >= m)):
        raise ValueError("edges must pair distinct vertices in range")
    edge = np.zeros((m, m), dtype=bool)
    edge[ii, jj] = edge[jj, ii] = True
    return (cost + cost.swapaxes(-1, -2)) / 2, edge


def _solve(cost: np.ndarray, edge: np.ndarray, non_edge: bool, tol: float, max_iter: int) -> list[SdpResult]:
    """The interior-point loop on the edge side, or on the non-edge side if
    non_edge.  A has k constraints on the diagonal, <D_d, X> with D_d =
    diag(d) for the columns d of a matrix D (dapply(v) = v D, dadjoint(w) =
    w D^T), then one X_ij + X_ji per listed pair (i, j)."""
    m = cost.shape[1]
    eye = np.eye(m)
    keep = 1.0 - edge
    # Gershgorin: every eigenvalue of C is below its largest absolute row
    # sum, so start I - C is PD
    start = 1.0 + np.abs(cost).sum(axis=2).max(axis=1)
    # one multiplier per unordered pair, or the Schur complement is singular
    if non_edge:
        # X is the theta-dual slack, pinned to -C off the edges and with
        # X_ii + C_ii equal for all i (X_ii - X_mm = C_mm - C_ii); minimizing
        # its trace minimizes y_0 = (tr X + tr C) / m
        ii, jj = np.nonzero(np.triu(~edge, 1))
        k = m - 1

        def dapply(v: np.ndarray) -> np.ndarray:
            return v[..., :-1] - v[..., -1:]

        def dadjoint(w: np.ndarray) -> np.ndarray:
            return np.concatenate((w, -w.sum(axis=-1, keepdims=True)), axis=-1)

        def border(x, g, xa, xb, ga, gb):
            # <A_p, X D_e G> = sum_j D_je (X_bj G_aj + X_aj G_bj) for the pair
            # p = (a, b) and <D_d, X D_e G> = d^T (X o G) e
            return dapply(xb * ga + xa * gb), dapply(dapply(x * g).swapaxes(1, 2))

        c = np.broadcast_to(-eye / m, cost.shape)
        b = np.concatenate((-dapply(cost.diagonal(axis1=1, axis2=2)), -2.0 * cost[:, ii, jj]), axis=1)
        x = start[:, None, None] * eye - cost
        y = np.zeros((cost.shape[0], k + ii.size))
    else:
        ii, jj = np.nonzero(np.triu(edge))
        k = 1

        def dapply(v: np.ndarray) -> np.ndarray:
            return v.sum(axis=-1, keepdims=True)

        def dadjoint(w: np.ndarray) -> np.ndarray:
            # one column, broadcast along the diagonal by adjoint()
            return w

        def border(x, g, xa, xb, ga, gb):
            # <A_p, X I G> = (GX)_ab + (GX)_ba and <I, X I G> = tr(GX)
            gx = apply(g @ x)
            return gx[:, 1:, None], gx[:, :1, None]

        c = cost
        b = np.zeros((cost.shape[0], k + ii.size))
        b[:, 0] = 1.0
        x = np.broadcast_to(eye / m, cost.shape).copy()
        y = np.zeros((cost.shape[0], k + ii.size))
        y[:, 0] = start
    # flat() views each matrix of a stack as one row of m * m entries:
    # (i, j) is entry i * m + j and the diagonal is every (m + 1)-th entry
    fij, fji = ii * m + jj, jj * m + ii

    def flat(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[0], m * m)

    def adjoint(y: np.ndarray) -> np.ndarray:
        s = np.zeros((y.shape[0], m * m))
        s[:, :: m + 1] = dadjoint(y[:, :k])
        s[:, fij] = s[:, fji] = y[:, k:]
        return s.reshape(y.shape[0], m, m)

    def apply(h: np.ndarray) -> np.ndarray:
        hf = flat(h)
        return np.concatenate((dapply(h.diagonal(axis1=1, axis2=2)), hf.take(fij, 1) + hf.take(fji, 1)), axis=1)

    def certify(x: np.ndarray, y: np.ndarray, s: np.ndarray):
        # the theta pair: on the edge side X is its primal and S its dual
        # slack; on the non-edge side S = I/m + A*(y) is the primal, and the
        # dual is X with y_0 = (tr X + tr C) / m, projected onto the dual's
        # affine set (X on the edges, -C off them, y_0 - C_ii on the diagonal)
        if non_edge:
            xp, y0 = s, (x.trace(axis1=1, axis2=2) + cost.trace(axis1=1, axis2=2)) / m
            sd = np.where(edge, x, -cost)
            flat(sd)[:, :: m + 1] += y0[:, None]
        else:
            xp, y0, sd = x, y[:, 0], s
        # primal: affine-exact (zero the edges, shift the diagonal); unless
        # the pair is proved PD, the primal is mixed toward I/m until PSD
        # and the dual's y_0 absorbs any negative eigenvalue of its slack
        xf = xp * keep
        flat(xf)[:, :: m + 1] += ((1.0 - xf.trace(axis1=1, axis2=2)) / m)[:, None]
        pair = np.array((xf, sd))
        if not _proved_pd(pair):
            lam_x, lam_s = np.linalg.eigvalsh(pair)[..., 0]
            t = m * np.maximum(-lam_x, 0.0)
            mix = (t / (1.0 + t))[:, None, None]
            xf = (1.0 - mix) * xf + (mix / m) * eye
            y0 = y0 + np.maximum(0.0, -lam_s)
        return (cost * xf).sum(axis=(1, 2)), y0, xf

    s = adjoint(y) - c
    # m mu: the duality gap <X, S> of each program
    gap = (x * s).sum(axis=(1, 2))
    # row r of the stack is program idx[r]; finished programs leave the stack
    idx = np.arange(cost.shape[0])
    results: list[SdpResult | None] = [None] * idx.size

    it = 0
    try:
        while idx.size and it < max_iter:
            li = np.linalg.inv(np.linalg.cholesky(np.array((x, s))))
            g = li[1].swapaxes(-1, -2) @ li[1]
            xa, xb, ga, gb = x.take(ii, 1), x.take(jj, 1), g.take(ii, 1), g.take(jj, 1)
            schur = np.empty((idx.size, k + ii.size, k + ii.size))
            # <A_p, X A_q G> for the pairs p, q, the pairs and the diagonal
            # constraints, and the diagonal constraints among themselves
            schur[:, k:, k:] = (
                xb.take(ii, 2) * ga.take(jj, 2) + xb.take(jj, 2) * ga.take(ii, 2)
                + xa.take(ii, 2) * gb.take(jj, 2) + xa.take(jj, 2) * gb.take(ii, 2)
            )
            schur[:, k:, :k], schur[:, :k, :k] = border(x, g, xa, xb, ga, gb)
            schur[:, :k, k:] = schur[:, k:, :k].swapaxes(1, 2)
            # degenerate programs (many vertex-transitive graphs) drive the
            # Schur complement singular as mu -> 0; raising each pivot by a
            # few dozen ulps keeps the factorization alive down to gaps of
            # about 1e-12 relative and leaves well-posed solves unchanged
            schur.reshape(idx.size, -1)[:, :: k + ii.size + 1] *= 1.0 + _SCHUR_SHIFT
            # the factor itself is not needed: Cholesky is the PD check
            np.linalg.cholesky(schur)
            rp = b - apply(x)

            def direction(rg: np.ndarray):
                # HKM: X dS + dX S = R with R G = rg, A(dX) = rp, dS = A*(dy)
                dy = np.linalg.solve(schur, (apply(rg) - rp)[..., None])[..., 0]
                ds = adjoint(dy)
                dx = rg - x @ ds @ g
                dx = (dx + dx.swapaxes(-1, -2)) / 2
                ap, ad = _max_steps(li, np.array((dx, ds)))[..., None, None]
                return dx, dy, ds, ap, ad

            mu = gap[:, None, None] / m
            dx, dy, ds, ap, ad = direction(-x)
            mu_aff = ((x + ap * dx) * (s + ad * ds)).sum(axis=(1, 2))[:, None, None] / m
            sigma = (mu_aff / mu) ** 3
            dx, dy, ds, ap, ad = direction(sigma * mu * g - x - dx @ ds @ g)
            x = x + ap * dx
            y = y + ad[:, 0] * dy
            s = adjoint(y) - c
            it += 1
            gap = (x * s).sum(axis=(1, 2))
            # a certified gap is <X, S> widened by the projection and any
            # PSD correction, so no program can finish before <X, S> <= tol
            if not (gap <= tol).any():
                continue
            lb, ub, xf = certify(x, y, s)
            done = ub - lb <= tol
            for r in np.flatnonzero(done):
                results[idx[r]] = SdpResult(float(lb[r]), float(ub[r]), xf[r].copy(), it)
            live = ~done
            x, y, s, c, b, cost, gap, idx = (a[live] for a in (x, y, s, c, b, cost, gap, idx))
        if not idx.size:
            return results
        reason = f"no convergence in {max_iter} iterations"
    except np.linalg.LinAlgError as exc:
        reason = f"numerical breakdown after {it} iterations ({exc})"
    lb, ub, _ = certify(x, y, s)
    lower, upper = float(lb[0]), float(ub[0])
    raise SdpError(f"{reason} (certified bounds [{lower:.9g}, {upper:.9g}])", lower, upper)
