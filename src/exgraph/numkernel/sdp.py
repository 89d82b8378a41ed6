"""Primal-dual interior-point solver for the theta program.

Problem form:  maximize <C, X>  over PSD X  subject to  tr X = 1  and
X_ij = 0 for every listed edge (i, j), i != j.  The dual is: minimize y_0
subject to S = y_0 I + sum_e y_e E_e - C PSD, where E_e has ones at (i, j)
and (j, i).

Both sides start strictly feasible (X = I/m; y_0 = 1 + sum |C_ij| with zero
edge multipliers) and each iteration takes a Mehrotra predictor-corrector
step along the HKM direction (Helmberg-Rendl-Vanderbei-Wolkowicz), with step
lengths 0.95 of the distance to the PSD boundary.  The constraints have
disjoint supports (the diagonal, and one pair of off-diagonal entries per
edge), so the Schur complement is assembled entrywise from X and S^-1.  Its
Cholesky factorization is the positive-definiteness check, and each of the
two directions of an iteration is then one linear solve against it.

After every step the solver extracts a certified primal/dual pair: the primal
candidate is projected onto the affine constraints (zero the edge entries,
shift the diagonal by (1 - tr)/m) and mixed toward I/m until PSD, and the dual
candidate is the slack of y with y_0 shifted until it is PSD, at a cost of
+delta on the bound.  The returned interval [lower, upper] therefore brackets
the true optimum regardless of how far the iteration itself has converged.

`sdp_solve_many` runs a stack of programs that share one edge list (one
graph, many weight vectors) in lockstep, so that every factorization or
eigenvalue problem of a given size is one stacked numpy.linalg call for the
whole stack.  Each program keeps its own mu, sigma, step lengths and
certified pair, so its iterates are those of a solve on its own; it leaves
the stack as soon as its certified gap is at most tol.  `sdp_solve` is the
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.95
_SCHUR_SHIFT = 1e-14


class SdpError(RuntimeError):
    """Iteration cap or numerical breakdown; carries the best certified bounds."""

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


def sdp_solve(c: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 100) -> SdpResult:
    """Solve max <c, X> s.t. tr X = 1, X_ij = 0 on edges, X PSD.

    `edges` is a pair of index arrays (i, j).  Returns once the certified gap
    drops below tol; raises SdpError at the iteration cap or on a numerical
    breakdown, with the best bounds attached.
    """
    cost = np.asarray(c, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    return sdp_solve_many(cost[None], edges, tol, max_iter)[0]


def sdp_solve_many(costs: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 100) -> list[SdpResult]:
    """sdp_solve for each cost matrix of a (B, m, m) stack, on one edge list.

    Returns one SdpResult per program, in order.  If any program reaches the
    iteration cap or a factorization breaks down, raises SdpError with the
    certified bounds of an unfinished program.
    """
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
    # one multiplier per unordered pair, or the Schur complement is singular
    ii, jj = np.nonzero(np.triu(edge))
    # flat() views each matrix of a stack as one row of m * m entries:
    # (i, j) is entry i * m + j and the diagonal is every (m + 1)-th entry
    fij, fji = ii * m + jj, jj * m + ii
    keep = 1.0 - edge
    cost = (cost + cost.swapaxes(-1, -2)) / 2
    eye = np.eye(m)

    def flat(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[0], m * m)

    def adjoint(y: np.ndarray) -> np.ndarray:
        s = y[:, :1, None] * eye
        flat(s)[:, fij] = flat(s)[:, fji] = y[:, 1:]
        return s

    def apply(h: np.ndarray) -> np.ndarray:
        hf = flat(h)
        return np.concatenate((h.trace(axis1=1, axis2=2)[:, None], hf.take(fij, 1) + hf.take(fji, 1)), axis=1)

    def certify(x: np.ndarray, y: np.ndarray, s: np.ndarray):
        # primal: affine-exact (zero the edges, shift the diagonal), then
        # mixed toward I/m until PSD; dual: shift y_0 to absorb any negative
        # eigenvalue left in the slack s = A*(y) - C
        xf = x * keep
        flat(xf)[:, :: m + 1] += ((1.0 - xf.trace(axis1=1, axis2=2)) / m)[:, None]
        lam_x, lam_s = np.linalg.eigvalsh(np.array((xf, s)))[..., 0]
        t = m * np.maximum(-lam_x, 0.0)
        mix = (t / (1.0 + t))[:, None, None]
        xf = (1.0 - mix) * xf + (mix / m) * eye
        return (cost * xf).sum(axis=(1, 2)), y[:, 0] + np.maximum(0.0, -lam_s), xf

    b = np.zeros(ii.size + 1)
    b[0] = 1.0
    x = np.broadcast_to(eye / m, cost.shape).copy()
    y = np.zeros((cost.shape[0], ii.size + 1))
    y[:, 0] = 1.0 + np.abs(cost).sum(axis=(1, 2))
    s = adjoint(y) - cost
    best_lb, best_ub, best_x = certify(x, y, s)
    # row r of the stack is program idx[r]; finished programs leave the stack
    idx = np.arange(cost.shape[0])
    results: list[SdpResult | None] = [None] * idx.size

    it = 0
    try:
        while idx.size and it < max_iter:
            li = np.linalg.inv(np.linalg.cholesky(np.array((x, s))))
            g = li[1].swapaxes(-1, -2) @ li[1]
            xa, xb, ga, gb = x.take(ii, 1), x.take(jj, 1), g.take(ii, 1), g.take(jj, 1)
            schur = np.empty((idx.size, ii.size + 1, ii.size + 1))
            # first row and column: <A_i, G X> for the trace and each edge
            schur[:, 0] = schur[:, :, 0] = apply(g @ x)
            schur[:, 1:, 1:] = (
                xb.take(ii, 2) * ga.take(jj, 2) + xb.take(jj, 2) * ga.take(ii, 2)
                + xa.take(ii, 2) * gb.take(jj, 2) + xa.take(jj, 2) * gb.take(ii, 2)
            )
            # degenerate programs (many vertex-transitive graphs) drive the
            # Schur complement singular as mu -> 0; raising each pivot by a
            # few dozen ulps keeps the factorization alive down to gaps of
            # about 1e-12 relative and leaves well-posed solves unchanged
            schur.reshape(idx.size, -1)[:, :: ii.size + 2] *= 1.0 + _SCHUR_SHIFT
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

            mu = (x * s).sum(axis=(1, 2))[:, None, None] / m
            dx, dy, ds, ap, ad = direction(-x)
            mu_aff = ((x + ap * dx) * (s + ad * ds)).sum(axis=(1, 2))[:, None, None] / m
            sigma = (mu_aff / mu) ** 3
            dx, dy, ds, ap, ad = direction(sigma * mu * g - x - dx @ ds @ g)
            x = x + ap * dx
            y = y + ad[:, 0] * dy
            s = adjoint(y) - cost
            it += 1

            lb, ub, xf = certify(x, y, s)
            better = lb > best_lb
            best_lb = np.where(better, lb, best_lb)
            best_x[better] = xf[better]
            best_ub = np.minimum(best_ub, ub)
            done = best_ub - best_lb <= tol
            if done.any():
                for r in np.flatnonzero(done):
                    results[idx[r]] = SdpResult(float(best_lb[r]), float(best_ub[r]), best_x[r].copy(), it)
                live = ~done
                x, y, s, cost, best_lb, best_ub, best_x, idx = (
                    a[live] for a in (x, y, s, cost, best_lb, best_ub, best_x, idx)
                )
        if not idx.size:
            return results
        reason = f"no convergence in {max_iter} iterations"
    except np.linalg.LinAlgError as exc:
        reason = f"numerical breakdown after {it} iterations ({exc})"
    lower, upper = float(best_lb[0]), float(best_ub[0])
    raise SdpError(f"{reason} (certified bounds [{lower:.9g}, {upper:.9g}])", lower, upper)
