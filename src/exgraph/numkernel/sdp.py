"""Splitting solver (ADMM) for the theta program.

Problem form:  maximize <C, X>  over PSD X  subject to  tr X = 1  and
X_ij = 0 for every listed edge (i, j), i != j.

The constraints have disjoint supports (the diagonal, and one pair of
off-diagonal entries per edge), so everything the method needs has a closed
form:

* the affine projection zeroes the edge entries, then shifts the diagonal by
  (1 - tr)/m;
* the least-squares dual of a matrix M has y_0 = tr(M)/m and edge multipliers
  (M_ij + M_ji)/2.

Every 50 sweeps the solver extracts a certified primal/dual pair: the primal
candidate is made feasible by mixing toward I/m (which satisfies the
constraints), and the dual candidate by shifting y_0 until the slack matrix is
PSD, at a cost of +delta on the bound.  The returned interval [lower, upper]
therefore brackets the true optimum regardless of how far the iteration
itself has converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHECK_EVERY = 50


class SdpError(RuntimeError):
    """Iteration cap reached; carries the certified bounds seen so far."""

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
    converged: bool

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _psd_part(y: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((y + y.T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.T


def sdp_solve(c: np.ndarray, edges, tol: float = 5e-7, max_iter: int = 200_000) -> SdpResult:
    """Solve max <c, X> s.t. tr X = 1, X_ij = 0 on edges, X PSD.

    `edges` is a pair of index arrays (i, j).  Returns once the certified gap
    drops below tol; raises SdpError at the iteration cap with the best
    bounds attached.
    """
    cost = np.asarray(c, dtype=float)
    m = cost.shape[0]
    if cost.shape != (m, m):
        raise ValueError("cost matrix must be square")
    ii, jj = (np.asarray(a, dtype=np.intp) for a in edges)
    if ii.shape != jj.shape or np.any(ii == jj) or np.any((ii < 0) | (ii >= m) | (jj < 0) | (jj >= m)):
        raise ValueError("edges must pair distinct vertices in range")
    keep = np.ones((m, m))
    keep[ii, jj] = keep[jj, ii] = 0.0
    edge = 1.0 - keep
    eye = np.eye(m)
    diag = np.diag_indices(m)

    def proj_affine(y: np.ndarray) -> np.ndarray:
        x = y * keep
        x[diag] += (1.0 - np.trace(x)) / m
        return x

    rho = 1.0
    relax = 1.6
    z = eye / m
    u = np.zeros((m, m))
    best_lb = -np.inf
    best_ub = np.inf
    best_x = z.copy()

    it = 0
    while it < max_iter:
        x = proj_affine(z - u + cost / rho)
        xh = relax * x + (1.0 - relax) * z
        z_old = z
        z = _psd_part(xh + u)
        u = u + xh - z
        it += 1
        if it % _CHECK_EVERY:
            continue

        # certified primal: affine-exact, then mixed toward I/m until PSD
        xf = proj_affine(z)
        lam = float(np.linalg.eigvalsh((xf + xf.T) / 2)[0])
        if lam < 0:
            s = m * (-lam) / (1.0 + m * (-lam))
            xf = (1.0 - s) * xf + (s / m) * eye
        lb = float(np.sum(cost * xf))

        # certified dual: least-squares multipliers of the running estimate
        # (the slack converges to -rho*u), then shift y_0 to absorb any
        # negative eigenvalue left in the slack
        mres = cost - rho * u
        y0 = float(np.trace(mres)) / m
        slack = y0 * eye + edge * (mres + mres.T) / 2 - cost
        delta = max(0.0, -float(np.linalg.eigvalsh((slack + slack.T) / 2)[0]))
        ub = y0 + delta

        if lb > best_lb:
            best_lb = lb
            best_x = xf
        best_ub = min(best_ub, ub)
        if best_ub - best_lb <= tol:
            return SdpResult(best_lb, best_ub, best_x, it, True)

        # residual balancing keeps rho in a useful range
        rp = float(np.linalg.norm(x - z))
        rd = rho * float(np.linalg.norm(z - z_old))
        if rp > 10.0 * rd:
            rho *= 2.0
            u /= 2.0
        elif rd > 10.0 * rp:
            rho /= 2.0
            u *= 2.0

    raise SdpError(
        f"no convergence in {max_iter} iterations (certified bounds [{best_lb:.9g}, {best_ub:.9g}])",
        best_lb,
        best_ub,
    )
