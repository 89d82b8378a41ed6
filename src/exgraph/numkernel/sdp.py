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
edge), so the Schur complement is assembled entrywise from X and S^-1.

After every step the solver extracts a certified primal/dual pair: the primal
candidate is projected onto the affine constraints (zero the edge entries,
shift the diagonal by (1 - tr)/m) and mixed toward I/m until PSD, and the dual
candidate is the slack of y with y_0 shifted until it is PSD, at a cost of
+delta on the bound.  The returned interval [lower, upper] therefore brackets
the true optimum regardless of how far the iteration itself has converged.
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


def _max_step(li: np.ndarray, d: np.ndarray) -> float:
    """Step length toward d from the PD point P = L L^T, given li = L^-1:
    a fraction of the distance to the PSD boundary, capped at 1."""
    lam = float(np.linalg.eigvalsh(li @ d @ li.T)[0])
    return 1.0 if lam >= 0 else min(1.0, -_STEP_FRACTION / lam)


def sdp_solve(c: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 100) -> SdpResult:
    """Solve max <c, X> s.t. tr X = 1, X_ij = 0 on edges, X PSD.

    `edges` is a pair of index arrays (i, j).  Returns once the certified gap
    drops below tol; raises SdpError at the iteration cap or on a numerical
    breakdown, with the best bounds attached.
    """
    cost = np.asarray(c, dtype=float)
    m = cost.shape[0]
    if cost.shape != (m, m):
        raise ValueError("cost matrix must be square")
    ii, jj = (np.asarray(a, dtype=np.intp) for a in edges)
    if ii.shape != jj.shape or np.any(ii == jj) or np.any((ii < 0) | (ii >= m) | (jj < 0) | (jj >= m)):
        raise ValueError("edges must pair distinct vertices in range")
    edge = np.zeros((m, m), dtype=bool)
    edge[ii, jj] = edge[jj, ii] = True
    # one multiplier per unordered pair, or the Schur complement is singular
    ii, jj = np.nonzero(np.triu(edge))
    keep = 1.0 - edge
    cost = (cost + cost.T) / 2
    eye = np.eye(m)
    diag = np.diag_indices(m)

    def proj_affine(y: np.ndarray) -> np.ndarray:
        x = y * keep
        x[diag] += (1.0 - np.trace(x)) / m
        return x

    def adjoint(y: np.ndarray) -> np.ndarray:
        s = y[0] * eye
        s[ii, jj] = s[jj, ii] = y[1:]
        return s

    def apply(h: np.ndarray) -> np.ndarray:
        return np.concatenate(([np.trace(h)], h[ii, jj] + h[jj, ii]))

    def certify(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray]:
        # primal: affine-exact, then mixed toward I/m until PSD
        xf = proj_affine(x)
        lam = float(np.linalg.eigvalsh(xf)[0])
        if lam < 0:
            s = m * (-lam) / (1.0 + m * (-lam))
            xf = (1.0 - s) * xf + (s / m) * eye
        # dual: shift y_0 to absorb any negative eigenvalue left in the slack
        delta = max(0.0, -float(np.linalg.eigvalsh(adjoint(y) - cost)[0]))
        return float(np.sum(cost * xf)), float(y[0]) + delta, xf

    b = np.zeros(ii.size + 1)
    b[0] = 1.0
    x = eye / m
    y = b * (1.0 + np.abs(cost).sum())
    best_lb, best_ub, best_x = certify(x, y)

    it = 0
    try:
        while it < max_iter:
            s = adjoint(y) - cost
            lsi = np.linalg.inv(np.linalg.cholesky(s))
            lxi = np.linalg.inv(np.linalg.cholesky(x))
            g = lsi.T @ lsi
            gx = g @ x
            xa, xb, ga, gb = x[ii], x[jj], g[ii], g[jj]
            schur = np.empty((ii.size + 1, ii.size + 1))
            schur[0, 0] = np.sum(x * g)
            schur[0, 1:] = schur[1:, 0] = gx[ii, jj] + gx[jj, ii]
            schur[1:, 1:] = (
                xb[:, ii] * ga[:, jj] + xb[:, jj] * ga[:, ii] + xa[:, ii] * gb[:, jj] + xa[:, jj] * gb[:, ii]
            )
            # degenerate programs (many vertex-transitive graphs) drive the
            # Schur complement singular as mu -> 0; raising each pivot by a
            # few dozen ulps keeps the factorization alive down to gaps of
            # about 1e-12 relative and leaves well-posed solves unchanged
            schur[np.diag_indices(ii.size + 1)] *= 1.0 + _SCHUR_SHIFT
            lm = np.linalg.cholesky(schur)
            rp = b - apply(x)

            def direction(rg: np.ndarray):
                # HKM: X dS + dX S = R with R G = rg, A(dX) = rp, dS = A*(dy)
                dy = np.linalg.solve(lm.T, np.linalg.solve(lm, apply(rg) - rp))
                ds = adjoint(dy)
                dx = rg - x @ ds @ g
                dx = (dx + dx.T) / 2
                return dx, dy, ds, _max_step(lxi, dx), _max_step(lsi, ds)

            mu = float(np.sum(x * s)) / m
            dx, dy, ds, ap, ad = direction(-x)
            mu_aff = float(np.sum((x + ap * dx) * (s + ad * ds))) / m
            sigma = (mu_aff / mu) ** 3
            dx, dy, ds, ap, ad = direction(sigma * mu * g - x - dx @ ds @ g)
            x = x + ap * dx
            y = y + ad * dy
            it += 1

            lb, ub, xf = certify(x, y)
            if lb > best_lb:
                best_lb, best_x = lb, xf
            best_ub = min(best_ub, ub)
            if best_ub - best_lb <= tol:
                return SdpResult(best_lb, best_ub, best_x, it)
        reason = f"no convergence in {max_iter} iterations"
    except np.linalg.LinAlgError as exc:
        reason = f"numerical breakdown after {it} iterations ({exc})"
    raise SdpError(f"{reason} (certified bounds [{best_lb:.9g}, {best_ub:.9g}])", best_lb, best_ub)
